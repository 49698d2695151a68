//! Degree and structure statistics.
//!
//! The gray-box accuracy estimator (Eq. 11 of the paper) conditions on
//! `Deg(G_i)` and `Deg(G)` — degree summaries of the mini-batch and the
//! full graph — so these summaries are first-class values here.

use crate::csr::{Graph, NodeId};

/// Summary of a degree distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegreeStats {
    /// Mean degree.
    pub mean: f64,
    /// Maximum degree.
    pub max: usize,
    /// Median (p50) degree.
    pub p50: usize,
    /// 90th-percentile degree.
    pub p90: usize,
    /// 99th-percentile degree.
    pub p99: usize,
    /// Skew proxy: `max / mean` (1 for regular graphs, large for
    /// power-law graphs). Zero when the graph has no edges.
    pub skew: f64,
}

impl DegreeStats {
    /// Computes degree statistics over all nodes of `g`.
    pub(crate) fn of_graph(g: &Graph) -> Self {
        let degrees: Vec<usize> = (0..g.num_nodes() as NodeId).map(|v| g.degree(v)).collect();
        Self::of_degrees(degrees)
    }

    fn of_degrees(mut degrees: Vec<usize>) -> Self {
        if degrees.is_empty() {
            return DegreeStats::default();
        }
        degrees.sort_unstable();
        let n = degrees.len();
        let sum: usize = degrees.iter().sum();
        let mean = sum as f64 / n as f64;
        let pct = |p: f64| degrees[(((n - 1) as f64) * p).round() as usize];
        let max = *degrees.last().expect("non-empty");
        DegreeStats {
            mean,
            max,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            skew: if mean > 0.0 { max as f64 / mean } else { 0.0 },
        }
    }
}

/// Whole-graph structural statistics used as estimator features.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Degree summary.
    pub degrees: DegreeStats,
    /// Fraction of edges whose endpoints share a community (when
    /// community labels are known); `None` otherwise.
    pub intra_community_fraction: Option<f64>,
}

impl GraphStats {
    /// Computes stats for `g` including the intra-community edge
    /// fraction under `communities` (one id per node).
    ///
    /// # Panics
    ///
    /// Panics if `communities.len() != g.num_nodes()`.
    pub(crate) fn with_communities(g: &Graph, communities: &[u32]) -> Self {
        assert_eq!(communities.len(), g.num_nodes(), "one community id per node required");
        let mut intra = 0usize;
        let total = g.num_edges();
        for (u, v) in g.edges() {
            if communities[u as usize] == communities[v as usize] {
                intra += 1;
            }
        }
        let frac = if total > 0 { Some(intra as f64 / total as f64) } else { None };
        GraphStats {
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
            degrees: DegreeStats::of_graph(g),
            intra_community_fraction: frac,
        }
    }
}

/// Returns node ids sorted by descending degree — the order PaGraph's
/// static cache fills device memory with (hot vertices first).
pub fn nodes_by_degree_desc(g: &Graph) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    ids.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::barabasi_albert;
    use crate::GraphBuilder;

    fn star(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge(0, v);
        }
        b.symmetrize().build().expect("build")
    }

    #[test]
    fn degree_stats_of_star() {
        let g = star(11);
        let s = DegreeStats::of_graph(&g);
        assert_eq!(s.max, 10);
        assert_eq!(s.p50, 1);
        assert!((s.mean - 20.0 / 11.0).abs() < 1e-9);
        assert!(s.skew > 5.0);
    }

    #[test]
    fn degree_stats_empty_input() {
        let g = Graph::from_csr(0, vec![0], vec![]).expect("empty ok");
        assert_eq!(DegreeStats::of_graph(&g), DegreeStats::default());
    }

    #[test]
    fn power_law_skew_detected() {
        let g = barabasi_albert(2000, 3, 1).expect("gen");
        let s = DegreeStats::of_graph(&g);
        assert!(s.skew > 4.0, "skew {}", s.skew);
        assert!(s.p99 > s.p50);
    }

    #[test]
    fn graph_stats_with_communities() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(2, 3).add_edge(0, 2);
        let g = b.build().expect("build");
        let stats = GraphStats::with_communities(&g, &[0, 0, 1, 1]);
        let f = stats.intra_community_fraction.expect("has edges");
        assert!((f - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn nodes_by_degree_desc_orders_hub_first() {
        let g = star(5);
        let order = nodes_by_degree_desc(&g);
        assert_eq!(order[0], 0);
    }
}

//! Immutable CSR (compressed sparse row) graph representation.

use crate::schedule::{AggSchedule, DegreeSchedule};
use crate::GraphError;
use std::sync::{Arc, OnceLock};

/// Identifier of a node inside a [`Graph`].
///
/// Node ids are dense: a graph with `n` nodes uses ids `0..n`.
pub type NodeId = u32;

/// An immutable directed graph in CSR form.
///
/// Neighbor lists are sorted ascending, which makes `has_edge` a binary
/// search; [`Graph::induced_subgraph`] produces its rows in that order
/// directly, through the cached in-edge view. Use
/// [`GraphBuilder`](crate::GraphBuilder) to construct one from an edge
/// list, or [`Graph::from_csr`] if you already hold validated CSR
/// arrays.
///
/// # Example
///
/// ```
/// use gnnav_graph::Graph;
///
/// # fn main() -> Result<(), gnnav_graph::GraphError> {
/// // A path 0 -> 1 -> 2 stored directly as CSR.
/// let g = Graph::from_csr(3, vec![0, 1, 2, 2], vec![1, 2])?;
/// assert_eq!(g.neighbors(0), &[1]);
/// assert_eq!(g.degree(2), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_nodes: usize,
    /// `offsets[v]..offsets[v+1]` indexes `targets` for node `v`.
    offsets: Vec<usize>,
    /// Flattened, per-node-sorted adjacency targets.
    targets: Vec<NodeId>,
    /// Lazily derived kernel data (degree norms, transpose); excluded
    /// from equality, shared by clones.
    caches: KernelCache,
}

/// Lazily computed per-graph data consumed by the NN kernels. Every
/// member is a pure function of the CSR arrays, so the cache is
/// invisible to equality and cheap (`Arc`) to clone.
#[derive(Default)]
struct KernelCache {
    gcn_norm: OnceLock<Arc<[f32]>>,
    transpose: OnceLock<Arc<TransposeCsr>>,
    schedule: OnceLock<Arc<AggSchedule>>,
}

impl Clone for KernelCache {
    fn clone(&self) -> Self {
        let out = KernelCache::default();
        if let Some(n) = self.gcn_norm.get() {
            let _ = out.gcn_norm.set(Arc::clone(n));
        }
        if let Some(t) = self.transpose.get() {
            let _ = out.transpose.set(Arc::clone(t));
        }
        if let Some(s) = self.schedule.get() {
            let _ = out.schedule.set(Arc::clone(s));
        }
        out
    }
}

impl PartialEq for KernelCache {
    fn eq(&self, _other: &Self) -> bool {
        // Derived data: two graphs with equal CSR arrays always have
        // equal caches once computed.
        true
    }
}

impl Eq for KernelCache {}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("gcn_norm", &self.gcn_norm.get().map(|n| n.len()))
            .field("transpose", &self.transpose.get().is_some())
            .field("schedule", &self.schedule.get().is_some())
            .finish()
    }
}

/// The in-edge (transpose) view of a [`Graph`], with each in-edge
/// carrying the position of its forward twin in the graph's `targets`
/// array. Built once per graph, on demand, by counting sort — in-edge
/// source lists come out sorted ascending, which is what lets the
/// backward aggregation kernels run as deterministic per-row gathers
/// instead of scatters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransposeCsr {
    offsets: Vec<usize>,
    sources: Vec<NodeId>,
    /// `forward_edge[i]` is the index into the forward `targets` array
    /// of the edge whose transpose entry is `sources[i]`.
    forward_edge: Vec<usize>,
}

impl TransposeCsr {
    fn build(g: &Graph) -> Self {
        let n = g.num_nodes;
        let mut counts = vec![0usize; n + 1];
        for &u in &g.targets {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut sources = vec![0 as NodeId; g.targets.len()];
        let mut forward_edge = vec![0usize; g.targets.len()];
        let mut cursor = counts;
        // v ascending keeps each in-edge list sorted by source.
        for v in 0..n {
            for e in g.offsets[v]..g.offsets[v + 1] {
                let u = g.targets[e] as usize;
                let slot = cursor[u];
                cursor[u] += 1;
                sources[slot] = v as NodeId;
                forward_edge[slot] = e;
            }
        }
        TransposeCsr { offsets, sources, forward_edge }
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sources of the in-edges of `u`, sorted ascending.
    #[inline]
    pub fn in_sources(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.sources[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Forward-edge indices aligned with [`TransposeCsr::in_sources`]:
    /// entry `i` is the position in the graph's `targets()` array of
    /// the edge `in_sources(u)[i] -> u`.
    #[inline]
    pub fn in_forward_edges(&self, u: NodeId) -> &[usize] {
        let u = u as usize;
        &self.forward_edge[self.offsets[u]..self.offsets[u + 1]]
    }
}

impl Graph {
    /// Builds a graph from raw CSR arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] if `offsets` does not have
    /// length `num_nodes + 1`, is not monotone, does not start at 0 or
    /// end at `targets.len()`, if any target id is `>= num_nodes`, or
    /// if a neighbor list is not sorted ascending.
    pub fn from_csr(
        num_nodes: usize,
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        if offsets.len() != num_nodes + 1 {
            return Err(GraphError::InvalidCsr(format!(
                "offsets length {} != num_nodes + 1 = {}",
                offsets.len(),
                num_nodes + 1
            )));
        }
        if offsets.first() != Some(&0) {
            return Err(GraphError::InvalidCsr("offsets must start at 0".into()));
        }
        if *offsets.last().expect("non-empty") != targets.len() {
            return Err(GraphError::InvalidCsr(format!(
                "offsets must end at targets.len() = {}",
                targets.len()
            )));
        }
        for w in offsets.windows(2) {
            if w[0] > w[1] {
                return Err(GraphError::InvalidCsr("offsets must be monotone".into()));
            }
        }
        for (v, w) in offsets.windows(2).enumerate() {
            let row = &targets[w[0]..w[1]];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(GraphError::InvalidCsr(format!(
                        "neighbor list of node {v} not strictly ascending"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if (last as usize) >= num_nodes {
                    return Err(GraphError::InvalidCsr(format!(
                        "target {last} of node {v} out of range ({num_nodes} nodes)"
                    )));
                }
            }
        }
        Ok(Graph { num_nodes, offsets, targets, caches: KernelCache::default() })
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges (a symmetrized graph counts both
    /// directions).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor slice of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the directed edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids `0..num_nodes`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes as NodeId
    }

    /// Iterator over all directed edges as `(source, target)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids().flat_map(move |v| self.neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// Maximum out-degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes).map(|v| self.offsets[v + 1] - self.offsets[v]).max().unwrap_or(0)
    }

    /// Mean out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes as f64
        }
    }

    /// Raw CSR offsets (length `num_nodes + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw CSR targets.
    #[inline]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Induces the subgraph on `nodes`, relabeling them `0..nodes.len()`
    /// in the order given.
    ///
    /// Returns the induced graph together with the mapping
    /// `local id -> original id` (which is simply `nodes` copied).
    /// Edges whose endpoint is outside `nodes` are dropped. Duplicate
    /// entries in `nodes` are rejected.
    ///
    /// Rows are produced already sorted: they are filled by walking the
    /// new ids in ascending order over their in-edges, which builds
    /// (and caches) this graph's [`Graph::transpose_csr`] on first use
    /// — once per parent graph, shared by every batch induced from it.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any entry of `nodes`
    /// is not a node of this graph, and [`GraphError::InvalidParameter`]
    /// if `nodes` contains duplicates.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Result<(Graph, Vec<NodeId>), GraphError> {
        let mut local = vec![NodeId::MAX; self.num_nodes];
        for (i, &v) in nodes.iter().enumerate() {
            if (v as usize) >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange { node: v, num_nodes: self.num_nodes });
            }
            if local[v as usize] != NodeId::MAX {
                return Err(GraphError::InvalidParameter(format!(
                    "duplicate node {v} in subgraph node list"
                )));
            }
            local[v as usize] = i as NodeId;
        }
        // Row lengths come from the forward lists; the rows are then
        // filled through the in-edges, new ids ascending: row
        // `local[s]` receives `j` for every kept edge `s -> nodes[j]`,
        // so each row is written in ascending order and needs no sort.
        let local_of = |u: NodeId| Some(local[u as usize]).filter(|&l| l != NodeId::MAX);
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let mut total = 0;
        for &v in nodes {
            total += self.neighbors(v).iter().filter(|&&u| local_of(u).is_some()).count();
            offsets.push(total);
        }
        let mut cursor = offsets[..nodes.len()].to_vec();
        let mut targets = vec![0 as NodeId; total];
        let transpose = self.transpose_csr();
        for (j, &v) in nodes.iter().enumerate() {
            for row in transpose.in_sources(v).iter().filter_map(|&s| local_of(s)) {
                let slot = &mut cursor[row as usize];
                targets[*slot] = j as NodeId;
                *slot += 1;
            }
        }
        let g = Graph { num_nodes: nodes.len(), offsets, targets, caches: KernelCache::default() };
        Ok((g, nodes.to_vec()))
    }

    /// The symmetric-GCN inverse-sqrt degree normalization
    /// `1 / sqrt(degree(v) + 1)` for every node, computed once per
    /// graph and cached. The arithmetic matches what the GCN kernel
    /// historically recomputed per call, so cached and uncached runs
    /// are bitwise identical.
    pub fn gcn_inv_sqrt(&self) -> &[f32] {
        self.caches.gcn_norm.get_or_init(|| {
            (0..self.num_nodes as NodeId)
                .map(|v| 1.0 / ((self.degree(v) + 1) as f32).sqrt())
                .collect::<Vec<f32>>()
                .into()
        })
    }

    /// The in-edge (transpose) view of this graph, built lazily and
    /// cached. Backward aggregation kernels use it to turn per-edge
    /// scatters into per-row gathers.
    pub fn transpose_csr(&self) -> &TransposeCsr {
        self.caches.transpose.get_or_init(|| Arc::new(TransposeCsr::build(self)))
    }

    /// The degree-aware aggregation schedule for this graph
    /// (GNNAdvisor-style row grouping; see [`crate::schedule`]),
    /// built lazily and cached like the degree norms and transpose.
    /// Forward groups follow out-degrees; backward groups follow the
    /// transpose's in-degrees (building the schedule therefore also
    /// builds and caches the transpose).
    pub fn agg_schedule(&self) -> &AggSchedule {
        self.caches.schedule.get_or_init(|| {
            let t = self.transpose_csr();
            Arc::new(AggSchedule {
                fwd: DegreeSchedule::build(self.num_nodes, |v| self.degree(v as NodeId)),
                bwd: DegreeSchedule::build(self.num_nodes, |v| t.in_degree(v as NodeId)),
            })
        })
    }

    /// Total bytes of the CSR arrays; used by the memory cost model.
    pub fn storage_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::from_csr(3, vec![0, 1, 2, 2], vec![1, 2]).expect("valid")
    }

    #[test]
    fn from_csr_accepts_valid() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[] as &[NodeId]);
    }

    #[test]
    fn from_csr_rejects_bad_offsets_len() {
        let e = Graph::from_csr(3, vec![0, 1, 2], vec![1, 2]).unwrap_err();
        assert!(matches!(e, GraphError::InvalidCsr(_)));
    }

    #[test]
    fn from_csr_rejects_nonmonotone_offsets() {
        let e = Graph::from_csr(2, vec![0, 2, 1], vec![1]).unwrap_err();
        assert!(matches!(e, GraphError::InvalidCsr(_)));
    }

    #[test]
    fn from_csr_rejects_out_of_range_target() {
        let e = Graph::from_csr(2, vec![0, 1, 1], vec![5]).unwrap_err();
        assert!(matches!(e, GraphError::InvalidCsr(_)));
    }

    #[test]
    fn from_csr_rejects_unsorted_rows() {
        let e = Graph::from_csr(3, vec![0, 2, 2, 2], vec![2, 1]).unwrap_err();
        assert!(matches!(e, GraphError::InvalidCsr(_)));
    }

    #[test]
    fn from_csr_rejects_duplicate_neighbors() {
        let e = Graph::from_csr(3, vec![0, 2, 2, 2], vec![1, 1]).unwrap_err();
        assert!(matches!(e, GraphError::InvalidCsr(_)));
    }

    #[test]
    fn has_edge_uses_sorted_lists() {
        let g = path3();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn edges_iterates_all_pairs() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn degree_stats() {
        let g = path3();
        assert_eq!(g.max_degree(), 1);
        assert!((g.avg_degree() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_csr(0, vec![0], vec![]).expect("empty ok");
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        // Triangle 0-1-2 plus pendant 3, directed both ways.
        let g =
            Graph::from_csr(4, vec![0, 2, 4, 7, 8], vec![1, 2, 0, 2, 0, 1, 3, 2]).expect("valid");
        let (sub, map) = g.induced_subgraph(&[2, 0]).expect("induce");
        assert_eq!(map, vec![2, 0]);
        assert_eq!(sub.num_nodes(), 2);
        // Local 0 = original 2, local 1 = original 0. Edge 2->0 kept.
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 0));
        // Edge 2->3 dropped (3 not in set).
        assert_eq!(sub.degree(0), 1);
    }

    #[test]
    fn induced_subgraph_rejects_duplicates_and_oob() {
        let g = path3();
        assert!(matches!(g.induced_subgraph(&[0, 0]), Err(GraphError::InvalidParameter(_))));
        assert!(matches!(g.induced_subgraph(&[9]), Err(GraphError::NodeOutOfRange { .. })));
    }

    #[test]
    fn induced_subgraph_edge_cases() {
        // Directed: 0 -> {0, 1, 2}, 1 -> 2, 2 -> 0, 3 -> 1; node 0
        // carries a self-loop.
        let g = Graph::from_csr(4, vec![0, 3, 4, 5, 6], vec![0, 1, 2, 2, 0, 1]).expect("valid");
        let (none, map) = g.induced_subgraph(&[]).expect("induce");
        assert_eq!((none.num_nodes(), none.num_edges(), map.len()), (0, 0, 0));
        assert_eq!(none.offsets(), &[0]);
        // Every node in its own order is the graph itself.
        let (all, _) = g.induced_subgraph(&[0, 1, 2, 3]).expect("induce");
        assert_eq!(all, g);
        // Reversed: local 3 = node 0 keeps its loop, rows stay sorted.
        let (rev, _) = g.induced_subgraph(&[3, 2, 1, 0]).expect("induce");
        assert_eq!(rev.offsets(), &[0, 1, 2, 3, 6]);
        assert_eq!(rev.targets(), &[2, 3, 1, 1, 2, 3]);
        // The loop survives alone; a one-way edge is kept one way.
        let (pair, _) = g.induced_subgraph(&[1, 0]).expect("induce");
        assert_eq!((pair.neighbors(0), pair.neighbors(1)), (&[][..], &[0, 1][..]));
    }

    #[test]
    fn storage_bytes_positive() {
        assert!(path3().storage_bytes() > 0);
    }

    #[test]
    fn gcn_inv_sqrt_matches_degrees() {
        let g = path3();
        let norm = g.gcn_inv_sqrt();
        assert_eq!(norm.len(), 3);
        for v in 0..3u32 {
            let expect = 1.0 / ((g.degree(v) + 1) as f32).sqrt();
            assert_eq!(norm[v as usize], expect);
        }
        // Cached: second call returns the same slice.
        assert_eq!(norm.as_ptr(), g.gcn_inv_sqrt().as_ptr());
    }

    #[test]
    fn transpose_inverts_every_edge() {
        let g =
            Graph::from_csr(4, vec![0, 2, 4, 7, 8], vec![1, 2, 0, 2, 0, 1, 3, 2]).expect("valid");
        let t = g.transpose_csr();
        let mut seen = 0usize;
        for u in 0..4u32 {
            let sources = t.in_sources(u);
            assert_eq!(sources.len(), t.in_degree(u));
            // Sorted ascending sources, forward indices round-trip.
            assert!(sources.windows(2).all(|w| w[0] < w[1]));
            for (&v, &e) in sources.iter().zip(t.in_forward_edges(u)) {
                assert_eq!(g.targets()[e], u);
                assert!((g.offsets()[v as usize]..g.offsets()[v as usize + 1]).contains(&e));
                seen += 1;
            }
        }
        assert_eq!(seen, g.num_edges());
    }

    #[test]
    fn caches_survive_clone_and_ignore_equality() {
        let g = path3();
        let _ = g.gcn_inv_sqrt();
        let clone = g.clone();
        // Clone shares the computed cache (same Arc'd slice).
        assert_eq!(clone.gcn_inv_sqrt().as_ptr(), g.gcn_inv_sqrt().as_ptr());
        // Equality only looks at the CSR arrays.
        let fresh = path3();
        assert_eq!(fresh, g);
    }

    #[test]
    fn transpose_of_empty_graph() {
        let g = Graph::from_csr(0, vec![0], vec![]).expect("empty ok");
        let t = g.transpose_csr();
        assert_eq!(t.offsets.len(), 1);
        assert!(t.sources.is_empty());
    }
}

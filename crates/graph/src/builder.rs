//! Edge-list accumulator that freezes into a validated [`Graph`].
//!
//! [`GraphBuilder::build`] is a counting sort by source: one pass
//! counts each row's length (duplicates included) and checks every
//! endpoint, a prefix sum turns the counts into offsets, a second pass
//! scatters the targets into one `Vec`, and each row's short slice is
//! then sorted, deduplicated in place and moved down over the gaps the
//! removed duplicates left. Sorting one `(u, v)` pair per raw edge and
//! deduplicating the whole vector gives the same rows, so the CSR is
//! the same byte for byte; the crate's property tests keep that
//! algorithm as the reference.

use crate::csr::{Graph, NodeId};
use crate::GraphError;

/// Accumulates edges and builds a [`Graph`].
///
/// The builder sorts and deduplicates edges, drops self-loops unless
/// [`GraphBuilder::keep_self_loops`] is called, and can symmetrize the
/// edge set so the result behaves like an undirected graph.
///
/// # Example
///
/// ```
/// use gnnav_graph::GraphBuilder;
///
/// # fn main() -> Result<(), gnnav_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(0, 1); // duplicate, removed
/// b.add_edge(1, 1); // self-loop, dropped by default
/// let g = b.symmetrize().build()?;
/// assert_eq!(g.num_edges(), 2); // 0->1 and 1->0
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
    symmetrize: bool,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder { num_nodes, edges: Vec::new(), symmetrize: false, keep_self_loops: false }
    }

    /// Creates a builder with capacity for `edges` edges.
    pub fn with_capacity(num_nodes: usize, edges: usize) -> Self {
        let mut b = Self::new(num_nodes);
        b.edges.reserve(edges);
        b
    }

    /// Adds the directed edge `u -> v`. Out-of-range endpoints are
    /// detected at [`build`](Self::build) time.
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    pub fn add_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) -> &mut Self {
        self.edges.extend(iter);
        self
    }

    /// Requests that each edge `u -> v` also produce `v -> u`.
    pub fn symmetrize(&mut self) -> &mut Self {
        self.symmetrize = true;
        self
    }

    /// Keeps self-loops instead of dropping them (the default).
    pub fn keep_self_loops(&mut self) -> &mut Self {
        self.keep_self_loops = true;
        self
    }

    /// Number of raw (pre-dedup) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Freezes the accumulated edges into a [`Graph`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is
    /// `>= num_nodes`.
    pub fn build(&self) -> Result<Graph, GraphError> {
        let n = self.num_nodes;
        let kept = |u: NodeId, v: NodeId| u != v || self.keep_self_loops;
        // Count each row's length, duplicates included, into
        // `offsets[u + 1]`; the first out-of-range endpoint in
        // insertion order, `u` before `v`, is the error.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            for id in [u, v] {
                if (id as usize) >= n {
                    return Err(GraphError::NodeOutOfRange { node: id, num_nodes: n });
                }
            }
            if !kept(u, v) {
                continue;
            }
            offsets[u as usize + 1] += 1;
            if self.symmetrize && u != v {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        // Scatter every target into its row.
        let mut cursor = offsets[..n].to_vec();
        let mut targets: Vec<NodeId> = vec![0; offsets[n]];
        let mut place = |u: NodeId, v: NodeId| {
            let c = &mut cursor[u as usize];
            targets[*c] = v;
            *c += 1;
        };
        for &(u, v) in &self.edges {
            if !kept(u, v) {
                continue;
            }
            place(u, v);
            if self.symmetrize && u != v {
                place(v, u);
            }
        }

        // Sort and deduplicate each row, moving it down to `kept_len`.
        // A row never starts before the end of the rows kept ahead of
        // it, so copying forward overwrites nothing still to be read.
        let mut kept_len = 0;
        for i in 0..n {
            let (start, end) = (offsets[i], offsets[i + 1]);
            offsets[i] = kept_len;
            targets[start..end].sort_unstable();
            for k in start..end {
                let t = targets[k];
                if kept_len == offsets[i] || targets[kept_len - 1] != t {
                    targets[kept_len] = t;
                    kept_len += 1;
                }
            }
        }
        offsets[n] = kept_len;
        targets.truncate(kept_len);
        Graph::from_csr(n, offsets, targets)
    }
}

impl FromIterator<(NodeId, NodeId)> for GraphBuilder {
    /// Collects edges into a builder sized by the largest endpoint.
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId)>>(iter: I) -> Self {
        let edges: Vec<(NodeId, NodeId)> = iter.into_iter().collect();
        let n = edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0);
        let mut b = GraphBuilder::new(n);
        b.edges = edges;
        b
    }
}

impl Extend<(NodeId, NodeId)> for GraphBuilder {
    fn extend<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) {
        self.edges.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_dedup_csr() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 0).add_edge(0, 2).add_edge(0, 1).add_edge(0, 1);
        let g = b.build().expect("build");
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).symmetrize();
        let g = b.build().expect("build");
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
    }

    #[test]
    fn self_loops_dropped_by_default_kept_on_request() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 0);
        assert_eq!(b.build().expect("build").num_edges(), 0);
        b.keep_self_loops();
        assert_eq!(b.build().expect("build").num_edges(), 1);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
        assert!(matches!(b.build(), Err(GraphError::NodeOutOfRange { node: 5, .. })));
    }

    #[test]
    fn from_iterator_sizes_by_max_endpoint() {
        let b: GraphBuilder = vec![(0, 4), (2, 1)].into_iter().collect();
        let g = b.build().expect("build");
        assert_eq!(g.num_nodes(), 5);
    }

    #[test]
    fn extend_appends() {
        let mut b = GraphBuilder::new(3);
        b.extend(vec![(0, 1), (1, 2)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(4).build().expect("build");
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
    }
}

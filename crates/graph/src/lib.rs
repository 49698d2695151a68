//! Graph substrate for the GNNavigator reproduction.
//!
//! This crate provides everything graph-shaped that the rest of the
//! workspace builds on:
//!
//! - [`Graph`]: an immutable, validated CSR (compressed sparse row)
//!   adjacency structure with cheap neighbor queries and subgraph
//!   induction.
//! - [`GraphBuilder`]: an edge-list accumulator that sorts,
//!   deduplicates, and optionally symmetrizes edges before freezing
//!   them into a [`Graph`].
//! - [`generators`]: seeded synthetic graph generators
//!   (Barabási–Albert, and the community-aware preferential-attachment
//!   hybrid used for the dataset stand-ins).
//! - [`datasets`]: deterministic stand-ins for the graphs used in the
//!   paper's evaluation (ogbn-arxiv, ogbn-products, Reddit, Reddit2),
//!   bundling graph + features + labels + splits.
//! - [`stats`]: degree and community statistics consumed by the
//!   gray-box accuracy estimator (Eq. 11 of the paper).
//!
//! # Example
//!
//! ```
//! use gnnav_graph::{GraphBuilder};
//!
//! # fn main() -> Result<(), gnnav_graph::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 3);
//! let g = b.symmetrize().build()?;
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.degree(1), 2);
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod features;
pub mod generators;
pub mod schedule;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{Graph, NodeId};
pub use datasets::{Dataset, DatasetId, Split};
pub use features::{FeatureSpec, Features};
pub use schedule::{AggGroup, AggSchedule, DegreeSchedule};
pub use stats::{DegreeBuckets, DegreeStats, GraphStats};

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or slicing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A CSR invariant was violated (offsets not monotone, lengths
    /// inconsistent, or a target out of range).
    InvalidCsr(String),
    /// A node id exceeded the number of nodes in the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The number of nodes in the graph.
        num_nodes: usize,
    },
    /// A parameter to a generator or builder was invalid.
    InvalidParameter(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidCsr(msg) => write!(f, "invalid CSR structure: {msg}"),
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range for graph with {num_nodes} nodes")
            }
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_and_informative() {
        let e = GraphError::NodeOutOfRange { node: 7, num_nodes: 3 };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains('3'));
        assert!(s.starts_with("node id"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}

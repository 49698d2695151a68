//! Unified mini-batch sampling for the GNNavigator reproduction.
//!
//! The paper abstracts every sampling strategy (Eq. 2) as iterative
//! neighbor fanout at a configurable probability `p(η)`. [`Sampler`]
//! is that one rule; its constructors pick the family:
//!
//! - [`Sampler::node_wise`] — GraphSAGE-style fanout sampling.
//! - [`Sampler::layer_wise`] — FastGCN-style fixed per-layer budgets
//!   (Eq. 3 maps budgets back to expected fanouts).
//! - [`Sampler::subgraph_wise`] — GraphSAINT-style random walks ("many
//!   hops, fanout 1").
//!
//! Each takes a [`LocalityBias`], the biased `p(η)` of cache-aware
//! samplers (2PGraph).
//!
//! # Example
//!
//! ```
//! use gnnav_sampler::{LocalityBias, Sampler};
//! use gnnav_graph::generators::barabasi_albert;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), gnnav_graph::GraphError> {
//! let g = barabasi_albert(200, 3, 1)?;
//! let sampler = Sampler::node_wise(vec![5, 5], LocalityBias::none(g.num_nodes()));
//! let mut rng = StdRng::seed_from_u64(7);
//! let batch = sampler.sample(&g, &[0, 1, 2, 3], &mut rng)?;
//! assert!(batch.num_nodes() >= 4);
//! # Ok(())
//! # }
//! ```

pub mod locality;
pub(crate) mod minibatch;
pub mod samplers;

pub use locality::LocalityBias;
pub use minibatch::{batch_targets, MiniBatch};
pub use samplers::Sampler;

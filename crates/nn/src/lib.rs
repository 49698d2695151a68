//! Neural-network substrate for the GNNavigator reproduction.
//!
//! A compact, dependency-free (beyond `rand`) GNN training stack:
//! dense [`tensor::Matrix`] math, three GNN layer families
//! (`layers::GcnLayer`, `layers::SageLayer`, [`layers::GatLayer`])
//! with hand-written backward passes verified by finite-difference
//! tests, an [`Adam`] optimizer, softmax cross-entropy, and mini-batch
//! [`train`] helpers.
//!
//! This replaces the PyTorch/PyG stack the paper trains with: GNNs are
//! *actually trained* here (on CPU, at reduced scale), so accuracy
//! responds genuinely to sampling and batching decisions — the signal
//! GNNavigator's estimator and explorer need.
//!
//! # Example
//!
//! ```
//! use gnnav_nn::{Adam, GnnModel, ModelKind, tensor::Matrix, train};
//! use gnnav_graph::GraphBuilder;
//!
//! # fn main() -> Result<(), gnnav_graph::GraphError> {
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1).add_edge(1, 2);
//! let g = b.symmetrize().build()?;
//! let x = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
//! let labels = vec![0u16, 1, 1];
//!
//! let mut model = GnnModel::new(ModelKind::Sage, 2, 8, 2, 2, 42);
//! let mut opt = Adam::new(0.01);
//! let loss = train::train_step(&mut model, &mut opt, &g, &x, &labels, &[0, 1, 2]);
//! assert!(loss.is_finite());
//! # Ok(())
//! # }
//! ```

pub mod init;
mod kernel;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub(crate) mod optim;
pub mod scratch;
pub mod tensor;
pub mod train;

pub use model::{GnnModel, ModelKind};
pub use optim::{Adam, AdamState};
pub use scratch::ScratchArena;
pub use tensor::{kernel_stats, KernelStats, Matrix, MatrixView};

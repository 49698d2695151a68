//! Reconfigurable GNN training runtime for the GNNavigator
//! reproduction.
//!
//! This crate is the paper's "reconfigurable runtime backend" (§3.2):
//! a single training loop whose sampling, transmission, computation,
//! and model-design behavior is controlled entirely by a
//! [`TrainingConfig`]. Prior systems are specific configurations
//! ([`Template`]); the explorer searches over all of them.
//!
//! Execution combines *real* GNN training (the `gnnav-nn` substrate)
//! with *simulated* hardware timing and memory (the `gnnav-hwsim`
//! substrate), producing the `Perf{T, Γ, Acc}` triple ([`Perf`]) the
//! paper's evaluation tables report.

#![warn(missing_docs)]

pub mod backend;
pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod perf;
pub mod report;
pub mod session;
pub mod space;
pub mod templates;

pub use backend::{
    DegradationStep, ExecutionOptions, ExecutionReport, RecoveryLog, RecoveryPolicy, RuntimeBackend,
};
pub use checkpoint::{DurabilityOptions, SessionCheckpoint, SessionLadder, SessionTotals};
pub use config::{SamplerKind, TrainingConfig};
pub use driver::{drive, EpochLoop};
pub use perf::{Perf, PhaseBreakdown};
pub use report::{write_perf_csv, write_perf_jsonl, PERF_CSV_HEADER};
pub use session::{EpochStats, ExecutionSession, ExecutionTrace};
pub use space::{DesignSpace, SummaryTable};
pub use templates::Template;

use std::error::Error;
use std::fmt;

/// Errors from backend execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The configuration is internally inconsistent.
    InvalidConfig(String),
    /// A graph operation failed (bad node ids, sampling failure).
    Graph(gnnav_graph::GraphError),
    /// The hardware simulation rejected the run (out of memory).
    Hw(gnnav_hwsim::HwError),
    /// A transient fault persisted past the bounded retry budget and
    /// every graceful-degradation step; `what` names the failing
    /// operation and `last_error` its final failure.
    RetriesExhausted {
        /// The operation that kept failing.
        what: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// Rendered final error.
        last_error: String,
    },
    /// A durable-store operation (checkpoint or WAL I/O) failed.
    Store(gnnav_store::StoreError),
    /// An injected `ProcessKill` fault ended the run at this epoch
    /// boundary; the caller may resume from the last checkpoint.
    Killed {
        /// The epoch boundary (zero-based) where the kill fired.
        epoch: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidConfig(msg) => write!(f, "invalid training configuration: {msg}"),
            RuntimeError::Graph(e) => write!(f, "graph error: {e}"),
            RuntimeError::Hw(e) => write!(f, "hardware error: {e}"),
            RuntimeError::RetriesExhausted { what, attempts, last_error } => write!(
                f,
                "retries exhausted after {attempts} attempt(s) during {what}: {last_error}"
            ),
            RuntimeError::Store(e) => write!(f, "store error: {e}"),
            RuntimeError::Killed { epoch } => {
                write!(f, "simulated process kill at epoch boundary {epoch}")
            }
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Graph(e) => Some(e),
            RuntimeError::Hw(e) => Some(e),
            RuntimeError::Store(e) => Some(e),
            RuntimeError::InvalidConfig(_)
            | RuntimeError::RetriesExhausted { .. }
            | RuntimeError::Killed { .. } => None,
        }
    }
}

impl From<gnnav_store::StoreError> for RuntimeError {
    fn from(e: gnnav_store::StoreError) -> Self {
        RuntimeError::Store(e)
    }
}

impl From<gnnav_graph::GraphError> for RuntimeError {
    fn from(e: gnnav_graph::GraphError) -> Self {
        RuntimeError::Graph(e)
    }
}

impl From<gnnav_hwsim::HwError> for RuntimeError {
    fn from(e: gnnav_hwsim::HwError) -> Self {
        RuntimeError::Hw(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_source() {
        let g: RuntimeError = gnnav_graph::GraphError::InvalidParameter("x".into()).into();
        assert!(g.source().is_some());
        let h: RuntimeError =
            gnnav_hwsim::HwError::OutOfMemory { requested: 2, capacity: 1 }.into();
        assert!(h.to_string().contains("out of memory"));
        let c = RuntimeError::InvalidConfig("bad".into());
        assert!(c.source().is_none());
    }
}

//! Navigation-as-a-service: a long-lived multi-tenant guideline
//! server over the GNNavigator pipeline.
//!
//! The single-tenant `Navigator` answers one question per process:
//! profile, fit, explore, done. [`NavService`] keeps that machinery
//! resident and shares it across tenants:
//!
//! - a warm [`EstimatorPool`] keyed by [`platform_fingerprint`]
//!   (LRU-bounded) so repeat platforms skip calibration,
//! - the durable `ExploreCache` and `ProfileStore` so repeat
//!   workloads skip the DSE and repeat calibrations skip profiling,
//! - admission control — a bounded queue with typed rejection
//!   ([`AdmitError`]), per-tenant token-bucket budgets, and a
//!   graceful-degradation ladder ([`DegradeLevel`]) under load,
//! - a deterministic closed-loop zipf load generator
//!   ([`run_load`]) behind `gnnavigate serve-bench`.
//!
//! Waves resolve plan → parallel-explore → commit (each exploration
//! serial inside, the wave's explorations side by side), so the full
//! request/response sequence is byte-identical at every worker
//! width. See `docs/SERVING.md` for the architecture tour.

#![warn(missing_docs)]

pub mod loadgen;
pub mod pool;
pub mod request;
pub mod service;

pub use loadgen::{run_load, tenant_request, LoadGenOptions, LoadSummary, ZipfTenants};
pub use pool::{platform_fingerprint, EstimatorPool};
pub use request::{
    AdmitError, DegradeLevel, NavRequest, NavResponse, ServeTier, TenantId, WorkloadSpec,
};
pub use service::{NavService, ServeError, ServeOptions};

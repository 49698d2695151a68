//! Request and response types for the navigation service.

use gnnav_explorer::{Guideline, Priority, RuntimeConstraints};
use gnnav_graph::{Dataset, GraphError};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;

/// Opaque tenant identity. Admission budgets and metering are keyed
/// by it; the service itself attaches no other meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The shape of a tenant's training workload. Materialized into a
/// seeded synthetic [`Dataset`] on first use, so two tenants with the
/// same spec share one dataset (and one exploration fingerprint).
///
/// A tenant's dataset is its graph and its feature shape: exploration
/// and fingerprinting read `feat_dim` and `num_classes`, never the
/// feature values, and the service executes only its calibration
/// graphs, so a tenant's feature matrix is never drawn
/// ([`Dataset::features`] synthesizes on first read).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Graph size in nodes.
    pub num_nodes: usize,
    /// Mean out-degree of the synthetic generator.
    pub edges_per_node: usize,
    /// Feature dimensionality.
    pub feat_dim: usize,
    /// Number of node classes.
    pub num_classes: usize,
    /// Generator seed (identical specs ⇒ identical graphs).
    pub graph_seed: u64,
    /// GNN architecture to navigate for.
    pub model: ModelKind,
    /// Optimization priority preset.
    pub priority: Priority,
    /// Runtime constraints on the guideline.
    pub constraints: RuntimeConstraints,
}

impl WorkloadSpec {
    /// The dataset-cache key: every field the synthetic generator
    /// consumes.
    pub(crate) fn shape_key(&self) -> (usize, usize, usize, usize, u64) {
        (self.num_nodes, self.edges_per_node, self.feat_dim, self.num_classes, self.graph_seed)
    }

    /// Materializes the synthetic dataset for this spec.
    pub fn materialize(&self) -> Result<Dataset, GraphError> {
        Dataset::synthetic(
            self.num_nodes,
            self.edges_per_node,
            self.feat_dim,
            self.num_classes,
            self.graph_seed,
        )
    }
}

/// One navigation request: "give tenant T a guideline for workload W
/// on platform P".
#[derive(Debug, Clone)]
pub struct NavRequest {
    /// The requesting tenant.
    pub tenant: TenantId,
    /// The tenant's hardware platform.
    pub platform: Platform,
    /// The tenant's workload.
    pub workload: WorkloadSpec,
}

/// How a response was produced, from most to least work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTier {
    /// Estimator-pool miss: a fresh calibration fit ran, then a full
    /// DSE.
    Cold,
    /// Estimator-pool hit: the DSE ran against a warm fit.
    WarmEstimator,
    /// Served from a prior exploration result (in-memory or the
    /// durable `ExploreCache`) without running the DSE.
    ExploreCache,
    /// Coalesced onto another request's identical in-wave exploration.
    Coalesced,
    /// Cache-only degraded and served by the nearest-neighbor index.
    NearestNeighbor,
}

impl ServeTier {
    /// Stable lowercase label for transcripts and metering args.
    pub fn label(self) -> &'static str {
        match self {
            ServeTier::Cold => "cold",
            ServeTier::WarmEstimator => "warm-estimator",
            ServeTier::ExploreCache => "explore-cache",
            ServeTier::Coalesced => "coalesced",
            ServeTier::NearestNeighbor => "nearest-neighbor",
        }
    }
}

/// Rung of the graceful-degradation ladder, chosen at submit time
/// from the queue depth (so it is independent of worker width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeLevel {
    /// Full exploration budget.
    Full,
    /// Reduced exploration budget under moderate queue pressure.
    ReducedBudget,
    /// Cache or nearest-neighbor only under heavy pressure; falls
    /// back to a reduced DSE only when both are empty.
    CacheOnly,
}

impl DegradeLevel {
    /// Stable lowercase label for transcripts and metering args.
    pub fn label(self) -> &'static str {
        match self {
            DegradeLevel::Full => "full",
            DegradeLevel::ReducedBudget => "reduced",
            DegradeLevel::CacheOnly => "cache-only",
        }
    }
}

/// One committed navigation response.
#[derive(Debug, Clone)]
pub struct NavResponse {
    /// Monotonic admission sequence number.
    pub seq: u64,
    /// The requesting tenant.
    pub tenant: TenantId,
    /// How the response was produced.
    pub tier: ServeTier,
    /// The degradation rung the request was admitted at.
    pub degrade: DegradeLevel,
    /// The selected guideline.
    pub guideline: Guideline,
}

impl NavResponse {
    /// One deterministic transcript line. Floats are formatted with
    /// `{:?}` (shortest round-trip), so identical guidelines produce
    /// byte-identical lines at every worker width.
    pub fn transcript_line(&self) -> String {
        let e = &self.guideline.estimate;
        format!(
            "resp seq={} tenant={} tier={} degrade={} prio={} config=[{}] time_s={:?} mem_bytes={:?} acc={:?}",
            self.seq,
            self.tenant,
            self.tier.label(),
            self.degrade.label(),
            self.guideline.priority.label(),
            self.guideline.config.summary(),
            e.time_s,
            e.mem_bytes,
            e.accuracy,
        )
    }
}

/// Typed admission rejection. Returned by `NavService::submit`; the
/// service never panics on overload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded request queue is at capacity.
    QueueFull {
        /// Current queue depth.
        depth: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// The tenant's exploration token bucket is empty.
    BudgetExhausted {
        /// The over-budget tenant.
        tenant: TenantId,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull { depth, capacity } => {
                write!(f, "queue full: depth {depth} at capacity {capacity}")
            }
            AdmitError::BudgetExhausted { tenant } => {
                write!(f, "tenant {tenant} exploration budget exhausted")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

impl AdmitError {
    /// Stable lowercase reason label for transcripts and metering.
    pub fn reason(&self) -> &'static str {
        match self {
            AdmitError::QueueFull { .. } => "queue-full",
            AdmitError::BudgetExhausted { .. } => "budget-exhausted",
        }
    }
}

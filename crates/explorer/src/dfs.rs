//! DFS traversal of the design space with constraint pruning.
//!
//! The paper's explorer "travels across all configurable settings with
//! the depth-first-search (DFS) algorithm", querying the performance
//! estimator at candidates and pruning subtrees whose estimated
//! performance cannot satisfy the runtime constraints.
//!
//! # One pass
//!
//! An exploration is serial. The walk hands every decision — leaf to
//! evaluate, subtree to prune — to a `Sink` the moment it makes it,
//! and the production sink (`Evaluator`) predicts that one candidate
//! against a [`PredictionContext`] built once per exploration and books
//! it on the spot: journal instant, audit record, accept / reject, the
//! incremental Pareto front. Neighbouring leaves differ in an axis or
//! two, so most of a leaf's `|V_i|`, hit-rate and accuracy inputs were
//! seen at an earlier leaf: the context's reuse tables
//! ([`gnnav_estimator::reuse`]) predict each distinct input once and
//! read it back, bit for bit, and are dropped with the exploration.
//! One prediction is well under a microsecond, far below what forking
//! a thread for it costs, so nothing inside an exploration looks at
//! the `gnnav-par` budget;
//! explorations run in parallel *across* requests (`gnnav-serve`
//! Phase B), and `tests/serial_within.rs` holds the first half of that
//! sentence.
//!
//! A leaf's audit summary is assembled by the walk from a
//! [`SummaryTable`] rendered once per exploration — eleven string
//! copies by axis index, the bytes `TrainingConfig::summary` would
//! format; only the template seeds, which are not index vectors, are
//! formatted. A rejected leaf's reason is the broken limit and its
//! bound ([`crate::audit::Reason`]), worded only when it is read.

use crate::audit::{AuditAction, AuditRecord, Reason, SATISFIES_ALL};
use crate::pareto::{objectives, ParetoFront};
use crate::targets::RuntimeConstraints;
use gnnav_estimator::reuse::WordSet;
use gnnav_estimator::{GrayBoxEstimator, PerfEstimate, PredictionContext};
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_obs::names as metric;
use gnnav_runtime::space::axis;
use gnnav_runtime::{DesignSpace, SummaryTable, TrainingConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// A candidate evaluated by the estimator during exploration.
#[derive(Debug, Clone)]
pub struct EvaluatedCandidate {
    /// The configuration.
    pub config: TrainingConfig,
    /// Its estimated performance.
    pub estimate: PerfEstimate,
}

/// Everything one audited DFS run produced.
#[derive(Debug, Clone)]
pub struct DfsOutcome {
    /// Constraint-satisfying evaluated candidates.
    pub accepted: Vec<EvaluatedCandidate>,
    /// Evaluated candidates with finite predictions that violate a
    /// constraint — the material for the nearest-feasible fallback
    /// when nothing is accepted. Non-finite predictions are counted
    /// in [`DfsStats::rejected`] but never kept here.
    pub rejected: Vec<EvaluatedCandidate>,
    /// Indices (into `accepted`) of the estimated Pareto front over
    /// `(T, Γ, −Acc)`, maintained incrementally during the run.
    pub front: Vec<usize>,
    /// Traversal statistics.
    pub stats: DfsStats,
    /// One [`AuditRecord`] per decision.
    pub audit: Vec<AuditRecord>,
}

/// Traversal statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DfsStats {
    /// Leaves evaluated by the estimator.
    pub evaluated: usize,
    /// Leaves rejected by the runtime constraints after estimation.
    pub rejected: usize,
    /// Subtrees pruned by analytic lower bounds without estimation.
    pub pruned_subtrees: usize,
}

/// The DFS engine over one [`DesignSpace`].
#[derive(Debug, Clone)]
pub struct DfsExplorer {
    space: Arc<DesignSpace>,
    budget: usize,
    seed: u64,
}

impl DfsExplorer {
    /// Creates an explorer evaluating at most `budget` leaves. The
    /// space is taken by value or already shared (`Arc`).
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(space: impl Into<Arc<DesignSpace>>, budget: usize, seed: u64) -> Self {
        assert!(budget > 0, "budget must be > 0");
        DfsExplorer { space: space.into(), budget, seed }
    }

    /// Runs DFS from `seeds` (evaluated first, outside the budget) and
    /// then across the space. Returns the constraint-satisfying
    /// candidates, the rejected (but finitely predicted) ones, the
    /// traversal stats and one [`AuditRecord`] per decision — every
    /// evaluated candidate (accepted or rejected, with the violated
    /// constraint spelled out) and every pruned subtree. When the
    /// global journal is recording, each decision is also emitted as
    /// an instant event on the `explorer` track.
    pub fn run_audited(
        &self,
        estimator: &GrayBoxEstimator,
        dataset: &Dataset,
        platform: &Platform,
        model: ModelKind,
        constraints: &RuntimeConstraints,
        seeds: &[TrainingConfig],
    ) -> DfsOutcome {
        let mut traversal = Traversal::new(&self.space, dataset, model, constraints);
        let walk = |restart: &Restart, budget, sink: &mut dyn Sink| {
            traversal.expand(restart, budget, sink)
        };
        self.run_with(estimator, dataset, platform, constraints, seeds, walk).0
    }

    /// The restart loop around one `walk` strategy: seeds first, then
    /// restarts until the budget is spent, each walked into the
    /// evaluating sink. Also returns the number of leaves the strategy
    /// visited, which is traversal cost and no part of the
    /// (serialized) outcome.
    pub(crate) fn run_with(
        &self,
        estimator: &GrayBoxEstimator,
        dataset: &Dataset,
        platform: &Platform,
        constraints: &RuntimeConstraints,
        seeds: &[TrainingConfig],
        mut walk: impl FnMut(&Restart, usize, &mut dyn Sink) -> Expanded,
    ) -> (DfsOutcome, usize) {
        let mut evaluator = Evaluator {
            estimator,
            constraints,
            pctx: PredictionContext::new(dataset, platform),
            seed_candidate: true,
            stats: DfsStats::default(),
            accepted: Vec::new(),
            rejected: Vec::new(),
            front: ParetoFront::new(),
            audit: Vec::new(),
        };

        // The seeds first: the templates of existing systems, so
        // guidelines never lose to the approaches the explorer knows
        // about. They are no index vectors into the space, so their
        // summaries are formatted.
        for seed_config in seeds {
            if seed_config.validate().is_ok() {
                evaluator.leaf(seed_config.clone(), seed_config.summary());
            }
        }
        evaluator.seed_candidate = false;

        // Restarted, randomized-order DFS: a budgeted DFS from one
        // root only varies the deepest axes, so the budget is split
        // across restarts, each with a freshly shuffled axis order and
        // per-axis value orders. Every restart is a plain DFS; the
        // restarts make a bounded budget cover all axes.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let per_restart = self.budget.div_ceil(DFS_RESTARTS).max(1);
        let mut spent = 0usize;
        let mut leaves = 0usize;
        while spent < self.budget {
            let mut axis_order: Vec<usize> = (0..self.space.num_axes()).collect();
            axis_order.shuffle(&mut rng);
            let orders: Vec<Vec<usize>> = (0..self.space.num_axes())
                .map(|a| {
                    let mut idx: Vec<usize> = (0..self.space.axis_len(a)).collect();
                    idx.shuffle(&mut rng);
                    idx
                })
                .collect();
            let restart_budget = (self.budget - spent).min(per_restart);
            let expanded = walk(&Restart { axis_order, orders }, restart_budget, &mut evaluator);
            leaves += expanded.leaves;
            if expanded.evals == 0 {
                break; // space (or all unseen points) exhausted
            }
            spent += expanded.evals;
        }
        // Once per exploration, never per candidate: an enabled
        // registry takes its lock on every add.
        if evaluator.stats.evaluated > 0 {
            gnnav_obs::global()
                .add(metric::ESTIMATOR_PREDICTIONS, evaluator.stats.evaluated as u64);
        }
        let outcome = DfsOutcome {
            accepted: evaluator.accepted,
            rejected: evaluator.rejected,
            front: evaluator.front.indices(),
            stats: evaluator.stats,
            audit: evaluator.audit,
        };
        (outcome, leaves)
    }
}

/// What a walk hands its decisions to, each the moment it is made.
pub(crate) trait Sink {
    /// A candidate to evaluate — a leaf of the walk or a template seed
    /// — with its one-line summary, the audit record's subject.
    fn leaf(&mut self, config: TrainingConfig, summary: String);
    /// A subtree cut by the analytic bound, and why.
    fn prune(&mut self, subtree: String, reason: String);
}

/// The production sink and the accumulating side of a run: predicts
/// each candidate as it arrives and books the decision — journal
/// event, audit record, accept/reject bookkeeping and the incremental
/// Pareto front all advance in traversal order.
struct Evaluator<'a> {
    estimator: &'a GrayBoxEstimator,
    constraints: &'a RuntimeConstraints,
    pctx: PredictionContext,
    /// Whether the candidates arriving now are the template seeds.
    seed_candidate: bool,
    stats: DfsStats,
    accepted: Vec<EvaluatedCandidate>,
    rejected: Vec<EvaluatedCandidate>,
    front: ParetoFront,
    audit: Vec<AuditRecord>,
}

impl Sink for Evaluator<'_> {
    fn leaf(&mut self, config: TrainingConfig, summary: String) {
        let (config, estimate) = self.estimator.predict_owned(&mut self.pctx, config);
        let metrics = gnnav_obs::global();
        let journal = metrics.journal();
        self.stats.evaluated += 1;
        // A degenerate estimator (NaN/inf prediction) must never crash
        // or silently win the Pareto front: treat the candidate as
        // rejected, with the defect spelled out.
        let finite = estimate.time_s.is_finite()
            && estimate.mem_bytes.is_finite()
            && estimate.accuracy.is_finite();
        let violation = if finite {
            self.constraints.violation(&estimate)
        } else {
            if metrics.is_enabled() {
                metrics.add(metric::EXPLORER_NONFINITE, 1);
            }
            Some(Reason::from(format!(
                "estimator returned a non-finite prediction (time_s={}, mem_bytes={}, \
                 accuracy={})",
                estimate.time_s, estimate.mem_bytes, estimate.accuracy
            )))
        };
        let accepted = violation.is_none();
        let reason = violation.unwrap_or_else(|| SATISFIES_ALL.into());
        if journal.is_enabled() {
            journal.instant(
                metric::EVENT_CANDIDATE,
                metric::TRACK_EXPLORER,
                None,
                vec![
                    ("config".into(), summary.as_str().into()),
                    ("time_s".into(), estimate.time_s.into()),
                    ("mem_bytes".into(), estimate.mem_bytes.into()),
                    ("accuracy".into(), estimate.accuracy.into()),
                    ("accepted".into(), accepted.into()),
                    ("reason".into(), reason.render(Some(&estimate)).as_ref().into()),
                ],
            );
        }
        self.audit.push(AuditRecord {
            config: summary,
            estimate: Some(estimate),
            action: if accepted { AuditAction::Accepted } else { AuditAction::Rejected },
            reason,
            seed_candidate: self.seed_candidate,
        });
        if accepted {
            self.front.insert(objectives(&estimate));
            self.accepted.push(EvaluatedCandidate { config, estimate });
        } else {
            self.stats.rejected += 1;
            if finite {
                self.rejected.push(EvaluatedCandidate { config, estimate });
            }
        }
    }

    fn prune(&mut self, subtree: String, reason: String) {
        let journal = gnnav_obs::global().journal();
        self.stats.pruned_subtrees += 1;
        if journal.is_enabled() {
            journal.instant(
                metric::EVENT_PRUNE,
                metric::TRACK_EXPLORER,
                None,
                vec![
                    ("subtree".into(), subtree.as_str().into()),
                    ("reason".into(), reason.as_str().into()),
                ],
            );
        }
        self.audit.push(AuditRecord {
            config: subtree,
            estimate: None,
            action: AuditAction::PrunedSubtree,
            reason: reason.into(),
            seed_candidate: false,
        });
    }
}

/// One restart's shuffled traversal plan.
#[derive(Debug)]
pub(crate) struct Restart {
    /// The axis fixed at each depth.
    pub(crate) axis_order: Vec<usize>,
    /// The order each axis's values are tried in, indexed by axis.
    pub(crate) orders: Vec<Vec<usize>>,
}

/// What walking one restart cost and yielded.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Expanded {
    /// Leaves handed over for evaluation (what the budget counts).
    pub(crate) evals: usize,
    /// Leaves the walk reached, evaluated or not.
    pub(crate) leaves: usize,
}

/// What the restarts of one exploration share: the inputs the walk
/// reads and the set of leaves already handed over.
pub(crate) struct Traversal<'a> {
    space: &'a DesignSpace,
    dataset: &'a Dataset,
    model: ModelKind,
    max_mem_bytes: Option<f64>,
    /// Every axis value's piece of a leaf's audit summary.
    summaries: SummaryTable,
    /// Place value of each axis in a packed leaf key: the mixed-radix
    /// number whose digits are the per-axis indices.
    strides: [u64; axis::COUNT],
    /// Packed keys of the leaves handed over so far (read for
    /// membership only, so the hasher moves no byte).
    visited: WordSet<u64>,
}

impl<'a> Traversal<'a> {
    /// # Panics
    ///
    /// Panics if the space has more than `u64::MAX` raw combinations.
    pub(crate) fn new(
        space: &'a DesignSpace,
        dataset: &'a Dataset,
        model: ModelKind,
        constraints: &RuntimeConstraints,
    ) -> Self {
        let mut strides = [0u64; axis::COUNT];
        let mut place = 1u64;
        for (a, stride) in strides.iter_mut().enumerate() {
            *stride = place;
            place = place
                .checked_mul(space.axis_len(a) as u64)
                .expect("design space has more leaves than a u64 key can number");
        }
        Traversal {
            space,
            dataset,
            model,
            max_mem_bytes: constraints.max_mem_bytes,
            summaries: space.summary_table(),
            strides,
            visited: WordSet::default(),
        }
    }

    /// One restart: a plain DFS that hands every decision — leaf to
    /// evaluate, subtree to prune — to `sink` as it makes it. Nothing
    /// the walk itself does depends on an estimate: pruning uses only
    /// the analytic cache-ratio bound, the validity cut only the
    /// cache-axis rule of [`DesignSpace::cache_axes_valid`], and
    /// budget/visited accounting counts leaves, not predictions.
    pub(crate) fn expand(
        &mut self,
        restart: &Restart,
        budget: usize,
        sink: &mut dyn Sink,
    ) -> Expanded {
        let mut depth_of = [0; axis::COUNT];
        for (depth, &axis) in restart.axis_order.iter().enumerate() {
            depth_of[axis] = depth;
        }
        let mut walk = Walk {
            shared: self,
            restart,
            depth_of,
            budget,
            assignment: [0; axis::COUNT],
            expanded: Expanded::default(),
            sink,
        };
        walk.expand(0);
        walk.expanded
    }
}

/// One restart's walk in progress.
struct Walk<'w, 'a> {
    shared: &'w mut Traversal<'a>,
    restart: &'w Restart,
    /// The depth at which each axis is fixed (inverse of
    /// `restart.axis_order`).
    depth_of: [usize; axis::COUNT],
    budget: usize,
    assignment: [usize; axis::COUNT],
    expanded: Expanded,
    sink: &'w mut dyn Sink,
}

impl Walk<'_, '_> {
    fn expand(&mut self, depth: usize) {
        if self.expanded.evals >= self.budget {
            return;
        }
        let space = self.shared.space;
        if depth == axis::COUNT {
            self.expanded.leaves += 1;
            if let Some(config) = space.config_at(&self.assignment, self.shared.model) {
                let key = self.assignment.iter().zip(&self.shared.strides);
                let key: u64 = key.map(|(&index, stride)| index as u64 * stride).sum();
                // Not inserted: already evaluated in a previous restart.
                if self.shared.visited.insert(key) {
                    let summary = self.shared.summaries.summary_at(&self.assignment);
                    self.sink.leaf(config, summary);
                    self.expanded.evals += 1;
                }
            }
            return;
        }
        let restart = self.restart;
        let axis = restart.axis_order[depth];
        // Validity cut: once the cache axes fixed so far admit no valid
        // completion, nothing below this value is ever evaluated. It
        // is silent, so it may only skip what is silent too: while a
        // memory cap is set and the cache-ratio axis is still open,
        // the subtree has Prune records to emit and is walked.
        let cache_axis =
            matches!(axis, axis::CACHE_RATIO | axis::CACHE_POLICY | axis::CACHE_UPDATE);
        let cut = cache_axis
            && (self.shared.max_mem_bytes.is_none() || self.depth_of[axis::CACHE_RATIO] <= depth);
        for &value in &restart.orders[axis] {
            self.assignment[axis] = value;
            // Analytic lower-bound pruning: once the cache-ratio axis
            // is fixed, Γ_cache alone already lower-bounds memory
            // (Eq. 10) — subtrees that must exceed the budget are cut
            // without querying the estimator.
            if axis == axis::CACHE_RATIO {
                if let Some(max_mem) = self.shared.max_mem_bytes {
                    let dataset = self.shared.dataset;
                    let ratio = space.cache_ratios[value];
                    let min_row_bytes = dataset.feat_dim() as f64 * 2.0; // FP16 floor
                    let cache_lb = ratio * dataset.num_nodes() as f64 * min_row_bytes;
                    if cache_lb > max_mem {
                        let subtree = format!("subtree {}={ratio}", space.axis_name(axis));
                        let reason = format!(
                            "cache memory lower bound {:.2} MB > max {:.2} MB",
                            cache_lb / 1e6,
                            max_mem / 1e6
                        );
                        self.sink.prune(subtree, reason);
                        continue;
                    }
                }
            }
            if cut {
                let fixed = |a: usize| (self.depth_of[a] <= depth).then(|| self.assignment[a]);
                if !space.cache_axes_valid(
                    fixed(axis::CACHE_RATIO),
                    fixed(axis::CACHE_POLICY),
                    fixed(axis::CACHE_UPDATE),
                ) {
                    continue;
                }
            }
            self.expand(depth + 1);
            if self.expanded.evals >= self.budget {
                return;
            }
        }
    }
}

/// Number of DFS restarts a budget is split across.
const DFS_RESTARTS: usize = 16;

/// Differential and visit-bound suites; they live beside the other
/// explorer suites but need the crate-private walk.
#[cfg(test)]
#[path = "../tests/white_box/dfs.rs"]
mod white_box;

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_estimator::{ProfileDb, Profiler};
    use gnnav_graph::DatasetId;
    use gnnav_runtime::{ExecutionOptions, RuntimeBackend, Template};

    fn fitted(dataset: &Dataset) -> GrayBoxEstimator {
        let profiler = Profiler::new(
            RuntimeBackend::new(Platform::default_rtx4090()),
            ExecutionOptions::timing_only(),
        )
        .with_threads(4);
        let cfgs = DesignSpace::standard().sample(25, ModelKind::Sage, 5);
        let db: ProfileDb = profiler.profile(dataset, &cfgs).expect("profile");
        let mut est = GrayBoxEstimator::new();
        est.fit(&db).expect("fit");
        est
    }

    #[test]
    fn dfs_respects_budget_and_returns_candidates() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 200, 1);
        let outcome = explorer.run_audited(
            &est,
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &RuntimeConstraints::none(),
            &[],
        );
        assert!(outcome.stats.evaluated <= 200);
        assert!(!outcome.accepted.is_empty());
        assert_eq!(outcome.stats.rejected, 0, "no constraints, nothing rejected");
    }

    #[test]
    fn seeds_always_evaluated() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 10, 2);
        let seeds: Vec<_> = Template::ALL.iter().map(|t| t.config(ModelKind::Sage)).collect();
        let outcome = explorer.run_audited(
            &est,
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &RuntimeConstraints::none(),
            &seeds,
        );
        for s in &seeds {
            assert!(
                outcome.accepted.iter().any(|c| c.config == *s),
                "seed {} missing from results",
                s.summary()
            );
        }
    }

    #[test]
    fn memory_constraint_prunes_subtrees() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 300, 3);
        // Budget below the largest cache alone.
        let constraints = RuntimeConstraints {
            max_mem_bytes: Some(0.2 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0),
            ..RuntimeConstraints::none()
        };
        let outcome = explorer.run_audited(
            &est,
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &constraints,
            &[],
        );
        assert!(outcome.stats.pruned_subtrees > 0, "large-cache subtrees should be pruned");
        for c in &outcome.accepted {
            assert!(c.config.cache_ratio <= 0.2 + 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 50, 9);
        let run = || {
            explorer
                .run_audited(
                    &est,
                    &dataset,
                    &Platform::default_rtx4090(),
                    ModelKind::Sage,
                    &RuntimeConstraints::none(),
                    &[],
                )
                .accepted
                .iter()
                .map(|c| c.config.summary())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "budget must be > 0")]
    fn zero_budget_rejected() {
        let _ = DfsExplorer::new(DesignSpace::standard(), 0, 1);
    }

    #[test]
    fn audit_covers_every_decision_with_a_reason() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 150, 7);
        // Tight memory budget: forces both pruned subtrees and
        // post-estimation rejections into the trail.
        let constraints = RuntimeConstraints {
            max_mem_bytes: Some(0.2 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0),
            ..RuntimeConstraints::none()
        };
        let seeds = vec![gnnav_runtime::Template::Pyg.config(ModelKind::Sage)];
        let outcome = explorer.run_audited(
            &est,
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &constraints,
            &seeds,
        );
        let DfsOutcome { accepted: cands, rejected: kept_rejected, front, stats, audit } = outcome;
        use crate::audit::AuditAction;
        // The incremental front matches the batch recompute over the
        // accepted candidates.
        let points: Vec<[f64; 3]> = cands.iter().map(|c| objectives(&c.estimate)).collect();
        assert_eq!(front, crate::pareto::pareto_front_indices(&points));
        // Every rejection in this test is a finite constraint
        // violation, so all of them are kept as fallback material.
        assert_eq!(kept_rejected.len(), stats.rejected);
        let accepted = audit.iter().filter(|r| r.action == AuditAction::Accepted).count();
        let rejected = audit.iter().filter(|r| r.action == AuditAction::Rejected).count();
        let pruned = audit.iter().filter(|r| r.action == AuditAction::PrunedSubtree).count();
        assert_eq!(accepted + rejected, stats.evaluated, "one record per evaluation");
        assert_eq!(accepted, cands.len());
        assert_eq!(rejected, stats.rejected);
        assert_eq!(pruned, stats.pruned_subtrees);
        assert!(pruned > 0, "tight budget should prune");
        for r in &audit {
            let reason = r.reason_text();
            assert!(!reason.is_empty(), "decision without a reason: {r:?}");
            match r.action {
                AuditAction::PrunedSubtree => {
                    assert!(r.estimate.is_none());
                    assert!(reason.contains("lower bound"), "{reason}");
                }
                AuditAction::Rejected => {
                    assert!(r.estimate.is_some());
                    assert!(reason.contains("peak memory"), "{reason}");
                }
                _ => assert!(r.estimate.is_some()),
            }
        }
        // The seed template is flagged as such.
        assert!(audit.first().is_some_and(|r| r.seed_candidate));
        assert!(audit.iter().skip(1).filter(|r| r.seed_candidate).count() == 0);
    }
}

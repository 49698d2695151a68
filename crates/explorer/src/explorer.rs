//! End-to-end guideline exploration (Step 2 of Fig. 2).

use crate::audit::{AuditAction, AuditRecord, AuditTrail};
use crate::decision::{decide_on_front, Guideline};
use crate::dfs::{DfsStats, EvaluatedCandidate};
use crate::targets::{Priority, RuntimeConstraints};
use crate::ExplorerError;
use gnnav_estimator::GrayBoxEstimator;
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_obs::names as metric;
use gnnav_runtime::{DesignSpace, Template, TrainingConfig};
use std::sync::Arc;

/// Everything one exploration produced: one decision over one walk.
///
/// The walk's share — `evaluated`, `front`, `stats`, every audit record
/// but the last — depends on no priority, so the results of one
/// [`Explorer::explore_all`] (and the [`ExploreCache`](crate::ExploreCache)
/// entries over one walk) hold it once, behind `Arc`; a clone copies
/// the guideline, the decision's audit record and three reference
/// counts.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// The selected guideline.
    pub guideline: Guideline,
    /// Every constraint-satisfying candidate the DFS evaluated.
    pub evaluated: Arc<Vec<EvaluatedCandidate>>,
    /// Indices (into `evaluated`) of the estimated Pareto front.
    pub front: Arc<Vec<usize>>,
    /// Traversal statistics.
    pub stats: DfsStats,
    /// The decision audit trail: one record per evaluated candidate
    /// and pruned subtree, plus the selected guideline (dumped via
    /// `gnnavigate --audit-out`).
    pub audit: AuditTrail,
    /// `Some(reason)` when no candidate satisfied the constraints and
    /// the guideline is the nearest-feasible candidate instead of a
    /// constraint-satisfying one; `None` for a clean selection.
    pub fallback: Option<String>,
}

/// The guideline explorer: DFS + estimator + decision maker, and the
/// one type that walks the design space. It holds the walk's
/// estimator, space, budget and seed; its crate-private walk (in
/// [`dfs`](crate::dfs)) meters every walk's series at one place.
///
/// # Example
///
/// Profile a few configurations on a tiny synthetic slice, fit the
/// gray-box estimator, and explore (runs in a doctest):
///
/// ```
/// use gnnav_explorer::{Explorer, Priority, RuntimeConstraints};
/// use gnnav_estimator::{GrayBoxEstimator, Profiler};
/// use gnnav_graph::{Dataset, DatasetId};
/// use gnnav_hwsim::Platform;
/// use gnnav_nn::ModelKind;
/// use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01)?;
/// let platform = Platform::default_rtx4090();
/// let profiler = Profiler::new(
///     RuntimeBackend::new(platform.clone()),
///     ExecutionOptions::timing_only(),
/// );
/// let configs = DesignSpace::reduced().sample(8, ModelKind::Sage, 5);
/// let db = profiler.profile(&dataset, &configs)?;
/// let mut estimator = GrayBoxEstimator::new();
/// estimator.fit(&db)?;
/// let explorer = Explorer::new(&estimator, 200);
/// let result = explorer.explore(&dataset, &platform, ModelKind::Sage,
///                               Priority::Balance, &RuntimeConstraints::none())?;
/// assert!(!result.evaluated.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Explorer<'a> {
    pub(crate) estimator: &'a GrayBoxEstimator,
    pub(crate) space: Arc<DesignSpace>,
    pub(crate) budget: usize,
    pub(crate) seed: u64,
}

impl<'a> Explorer<'a> {
    /// The traversal seed of [`Explorer::new`]: known without an
    /// estimator, so an exploration-cache fingerprint can be computed
    /// before anything is fitted.
    pub const DEFAULT_SEED: u64 = 0xDF5;

    /// Creates an explorer over the standard design space with the
    /// given (fitted) estimator and leaf-evaluation budget.
    pub fn new(estimator: &'a GrayBoxEstimator, budget: usize) -> Self {
        Explorer {
            estimator,
            space: Arc::new(DesignSpace::standard()),
            budget,
            seed: Self::DEFAULT_SEED,
        }
    }

    /// Replaces the design space, taken by value or already shared
    /// (`Arc`) — a server exploring one space for every request hands
    /// out the same allocation.
    pub fn with_space(mut self, space: impl Into<Arc<DesignSpace>>) -> Self {
        self.space = space.into();
        self
    }

    /// Replaces the traversal seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The traversal seed (part of the exploration-cache fingerprint).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The leaf-evaluation budget (part of the exploration-cache
    /// fingerprint).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Explores and returns the guideline for `priority` under
    /// `constraints`, seeding the search with the baseline templates.
    ///
    /// When no evaluated candidate satisfies the constraints the
    /// explorer degrades gracefully: it falls back to the evaluated
    /// candidate with the smallest total constraint excess, records
    /// the decision in the audit trail, and reports it in
    /// [`ExplorationResult::fallback`].
    ///
    /// # Errors
    ///
    /// Returns [`ExplorerError::ZeroBudget`] before any work when the
    /// explorer was built with a budget of 0,
    /// [`ExplorerError::NonFiniteLimit`] before any work when a
    /// constraint's limit is NaN or infinite, and
    /// [`ExplorerError::NoFeasibleCandidate`] only when there is
    /// nothing to fall back to — no candidate was evaluated with a
    /// finite prediction at all.
    pub fn explore(
        &self,
        dataset: &Dataset,
        platform: &Platform,
        model: ModelKind,
        priority: Priority,
        constraints: &RuntimeConstraints,
    ) -> Result<ExplorationResult, ExplorerError> {
        let seeds = template_seeds(model);
        self.explore_from(dataset, platform, model, priority, constraints, &seeds)
    }

    /// [`explore`](Self::explore) for every priority at once, in
    /// [`Priority::ALL`] order: the design space is walked once — no
    /// step of the walk looks at a priority — and the decision maker
    /// picks from that one front four times (Fig. 2). Each result is
    /// what `explore` returns for its priority, byte for byte; the
    /// four share the walk's `evaluated`, `front` and audit records
    /// instead of owning copies.
    ///
    /// # Errors
    ///
    /// Same contract as [`explore`](Self::explore).
    pub fn explore_all(
        &self,
        dataset: &Dataset,
        platform: &Platform,
        model: ModelKind,
        constraints: &RuntimeConstraints,
    ) -> Result<Vec<ExplorationResult>, ExplorerError> {
        let seeds = template_seeds(model);
        self.walk_and_decide(dataset, platform, model, &Priority::ALL, constraints, &seeds)
    }

    /// Like [`explore`](Self::explore), but seeds the DFS with the
    /// given configurations instead of the baseline templates.
    ///
    /// This is the incremental re-exploration entry point used by
    /// adaptive training: seeding with the previous run's Pareto-front
    /// configurations (plus the currently running one) warm-starts the
    /// search near known-good regions, so a small budget suffices.
    ///
    /// # Errors
    ///
    /// Same contract as [`explore`](Self::explore).
    pub fn explore_from(
        &self,
        dataset: &Dataset,
        platform: &Platform,
        model: ModelKind,
        priority: Priority,
        constraints: &RuntimeConstraints,
        seeds: &[TrainingConfig],
    ) -> Result<ExplorationResult, ExplorerError> {
        let mut decided =
            self.walk_and_decide(dataset, platform, model, &[priority], constraints, seeds)?;
        Ok(decided.pop().expect("one result per priority asked for"))
    }

    /// One walk, then one decision over it per entry of `priorities`.
    pub(crate) fn walk_and_decide(
        &self,
        dataset: &Dataset,
        platform: &Platform,
        model: ModelKind,
        priorities: &[Priority],
        constraints: &RuntimeConstraints,
        seeds: &[TrainingConfig],
    ) -> Result<Vec<ExplorationResult>, ExplorerError> {
        if self.budget == 0 {
            return Err(ExplorerError::ZeroBudget);
        }
        if let Some((limit, value)) = constraints.non_finite_limit() {
            return Err(ExplorerError::NonFiniteLimit { limit, value });
        }
        let metrics = gnnav_obs::global();
        let journal = metrics.journal();
        let _explore_span = metrics.span(metric::EXPLORER_EXPLORE_WALL);
        // Wall-time reporting rides the journal's monotonic clock —
        // one epoch for every explorer event, immune to wall-clock
        // adjustments and directly comparable across the trace.
        let explore_t0 = journal.is_enabled().then(|| journal.now_us());
        let outcome = self.walk(dataset, platform, model, constraints, seeds);
        let (rejected, stats) = (outcome.rejected, outcome.stats);
        // Moved behind `Arc`, not copied: every decision below shares
        // them.
        let evaluated = Arc::new(outcome.accepted);
        let front = Arc::new(outcome.front);
        let walk_audit = Arc::new(outcome.audit);
        let decide = |&priority: &Priority| {
            let decided = {
                // Recorded flat (not via `Registry::span`, which would
                // nest the series under the enclosing explore span as
                // `explorer.explore.explorer.decide`).
                let decide_t0 = std::time::Instant::now();
                let t0 = journal.is_enabled().then(|| journal.now_us());
                let decided = decide_on_front(&evaluated, &front, priority);
                if let Some(t0) = t0 {
                    journal.span_complete(
                        metric::EVENT_DECIDE,
                        metric::TRACK_EXPLORER,
                        t0,
                        Some(journal.now_us() - t0),
                        None,
                        None,
                        vec![("candidates".into(), (evaluated.len() as f64).into())],
                    );
                }
                metrics.observe_duration(metric::EXPLORER_DECIDE_WALL, decide_t0.elapsed());
                decided
            };
            let (guideline, action, reason, fallback) = match decided {
                Some(g) => {
                    let reason = format!(
                        "minimizes the {}-weighted scalarization over a {}-point Pareto front",
                        priority.label(),
                        front.len()
                    );
                    (g, AuditAction::Selected, reason, None)
                }
                None => {
                    // Graceful degradation: constraints are
                    // unsatisfiable within the budget, so hand back the
                    // least-infeasible candidate rather than nothing.
                    let best = rejected
                        .iter()
                        .min_by(|a, b| {
                            // A NaN limit makes every excess NaN; a
                            // total order still picks one.
                            constraints
                                .excess(&a.estimate)
                                .total_cmp(&constraints.excess(&b.estimate))
                        })
                        .ok_or(ExplorerError::NoFeasibleCandidate)?;
                    let excess = constraints.excess(&best.estimate);
                    let reason = format!(
                        "no evaluated candidate satisfies the runtime constraints; \
                         nearest-feasible fallback (total constraint excess {excess:.4})"
                    );
                    if metrics.is_enabled() {
                        metrics.add(metric::EXPLORER_FALLBACKS, 1);
                    }
                    let g = Guideline {
                        config: best.config.clone(),
                        estimate: best.estimate,
                        priority,
                    };
                    (g, AuditAction::Fallback, reason.clone(), Some(reason))
                }
            };
            if journal.is_enabled() {
                journal.instant(
                    metric::EVENT_GUIDELINE,
                    metric::TRACK_EXPLORER,
                    None,
                    vec![
                        ("config".into(), guideline.config.summary().into()),
                        ("priority".into(), priority.label().into()),
                        ("reason".into(), reason.as_str().into()),
                        ("fallback".into(), fallback.is_some().into()),
                    ],
                );
            }
            let decision = AuditRecord {
                config: guideline.config.summary(),
                estimate: Some(guideline.estimate),
                action,
                reason: reason.into(),
                seed_candidate: false,
            };
            Ok(ExplorationResult {
                guideline,
                evaluated: Arc::clone(&evaluated),
                front: Arc::clone(&front),
                stats,
                audit: AuditTrail::new(Arc::clone(&walk_audit), decision),
                fallback,
            })
        };
        let results = priorities.iter().map(decide).collect::<Result<Vec<_>, ExplorerError>>()?;
        if let Some(t0) = explore_t0 {
            journal.span_complete(
                metric::EVENT_EXPLORE,
                metric::TRACK_EXPLORER,
                t0,
                Some(journal.now_us() - t0),
                None,
                None,
                vec![
                    ("evaluated".into(), (stats.evaluated as f64).into()),
                    ("pruned".into(), (stats.pruned_subtrees as f64).into()),
                    ("front".into(), (front.len() as f64).into()),
                ],
            );
        }
        Ok(results)
    }
}

/// The baseline templates every exploration is seeded with, so a
/// guideline never loses to the systems the explorer knows about.
pub(crate) fn template_seeds(model: ModelKind) -> Vec<TrainingConfig> {
    Template::ALL.iter().map(|t| t.config(model)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Plan;
    use gnnav_estimator::{ProfileDb, Profiler};
    use gnnav_graph::DatasetId;
    use gnnav_runtime::{ExecutionOptions, RuntimeBackend};

    fn setup() -> (Dataset, GrayBoxEstimator) {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.03).expect("load");
        let profiler = Profiler::new(
            RuntimeBackend::new(Platform::default_rtx4090()),
            ExecutionOptions {
                epochs: 1,
                train: true,
                train_batches_cap: Some(1),
                ..Default::default()
            },
        )
        .with_threads(4);
        let cfgs = DesignSpace::standard().sample(30, ModelKind::Sage, 5);
        let db: ProfileDb = profiler.profile(&dataset, &cfgs).expect("profile");
        let mut est = GrayBoxEstimator::new();
        est.fit(&db).expect("fit");
        (dataset, est)
    }

    #[test]
    fn exploration_produces_pareto_guideline() {
        let (dataset, est) = setup();
        let explorer = Explorer::new(&est, 400);
        let result = explorer
            .explore(
                &dataset,
                &Platform::default_rtx4090(),
                ModelKind::Sage,
                Priority::Balance,
                &RuntimeConstraints::none(),
            )
            .expect("explore");
        assert!(!result.evaluated.is_empty());
        assert!(!result.front.is_empty());
        assert!(result.stats.evaluated > 0);
        // The guideline must be on the estimated front.
        let g = &result.guideline;
        assert!(result.front.iter().any(|&i| result.evaluated[i].config == g.config));
    }

    #[test]
    fn a_zero_budget_is_a_typed_error_at_every_entry_point() {
        // Refused before the walk, so not even a fitted estimator is
        // needed.
        let dataset = Arc::new(Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load"));
        let platform = Platform::default_rtx4090();
        let est = GrayBoxEstimator::new();
        let explorer = Explorer::new(&est, 0);
        let none = RuntimeConstraints::none();
        let (model, priority) = (ModelKind::Sage, Priority::Balance);
        let zero = |e: ExplorerError| matches!(e, ExplorerError::ZeroBudget);
        assert!(explorer.explore(&dataset, &platform, model, priority, &none).is_err_and(zero));
        assert!(explorer.explore_all(&dataset, &platform, model, &none).is_err_and(zero));
        let seeds = template_seeds(model);
        assert!(explorer
            .explore_from(&dataset, &platform, model, priority, &none, &seeds)
            .is_err_and(zero));
        // The front door `Navigator` and `NavService` take.
        let plan = Plan {
            dataset,
            platform,
            model,
            space: Arc::new(DesignSpace::standard()),
            constraints: none,
            budget: 0,
            seed: 0,
            salt: String::new(),
        };
        assert!(plan.walk(&est, &Priority::ALL).is_err_and(zero));
    }

    #[test]
    fn different_priorities_can_differ() {
        let (dataset, est) = setup();
        let explorer = Explorer::new(&est, 400);
        let platform = Platform::default_rtx4090();
        let mut summaries = Vec::new();
        for p in Priority::ALL {
            let r = explorer
                .explore(&dataset, &platform, ModelKind::Sage, p, &RuntimeConstraints::none())
                .expect("explore");
            summaries.push((p, r.guideline.estimate));
        }
        // Ex-TM's pick must be no slower than Ex-MA's pick.
        let tm = summaries[1].1;
        let ma = summaries[2].1;
        assert!(
            tm.time_s <= ma.time_s + 1e-9,
            "Ex-TM ({}) slower than Ex-MA ({})",
            tm.time_s,
            ma.time_s
        );
    }

    #[test]
    fn infeasible_constraints_fall_back_to_nearest_candidate() {
        let (dataset, est) = setup();
        let explorer = Explorer::new(&est, 400);
        let impossible =
            RuntimeConstraints { max_time_s: Some(1e-12), ..RuntimeConstraints::none() };
        let result = explorer
            .explore(
                &dataset,
                &Platform::default_rtx4090(),
                ModelKind::Sage,
                Priority::Balance,
                &impossible,
            )
            .expect("unsatisfiable constraints degrade, they do not fail");
        assert!(result.evaluated.is_empty(), "nothing satisfies 1 ps per epoch");
        let reason = result.fallback.as_deref().expect("fallback recorded");
        assert!(reason.contains("nearest-feasible"), "{reason}");
        // The audit trail ends with the fallback decision.
        let last = result.audit.last().expect("non-empty trail");
        assert_eq!(last.action, AuditAction::Fallback);
        assert_eq!(last.config, result.guideline.config.summary());
        // The fallback pick is the fastest evaluated candidate: with
        // only the time constraint violated, excess is monotone in
        // predicted time.
        let audit_times: Vec<f64> = result
            .audit
            .iter()
            .filter(|r| r.action == AuditAction::Rejected)
            .filter_map(|r| r.estimate.map(|e| e.time_s))
            .collect();
        let min_time = audit_times.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(result.guideline.estimate.time_s, min_time);
    }

    #[test]
    fn a_non_finite_limit_is_a_typed_error_at_every_entry_point() {
        // Refused before the walk, so not even a fitted estimator is
        // needed.
        let dataset = Arc::new(Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load"));
        let platform = Platform::default_rtx4090();
        let est = GrayBoxEstimator::new();
        let explorer = Explorer::new(&est, 100);
        let (model, priority) = (ModelKind::Sage, Priority::Balance);
        let seeds = template_seeds(model);
        let none = RuntimeConstraints::none();
        for (constraints, name) in [
            (RuntimeConstraints { max_time_s: Some(f64::NAN), ..none }, "max_time_s"),
            (RuntimeConstraints { max_mem_bytes: Some(f64::INFINITY), ..none }, "max_mem_bytes"),
            (RuntimeConstraints { min_accuracy: Some(f64::NEG_INFINITY), ..none }, "min_accuracy"),
        ] {
            let refused = |e: ExplorerError| matches!(e, ExplorerError::NonFiniteLimit { limit, .. } if limit == name);
            let c = &constraints;
            assert!(explorer.explore(&dataset, &platform, model, priority, c).is_err_and(refused));
            assert!(explorer.explore_all(&dataset, &platform, model, c).is_err_and(refused));
            assert!(explorer
                .explore_from(&dataset, &platform, model, priority, c, &seeds)
                .is_err_and(refused));
            let plan = Plan {
                dataset: Arc::clone(&dataset),
                platform: platform.clone(),
                model,
                space: Arc::new(DesignSpace::standard()),
                constraints,
                budget: 100,
                seed: 0,
                salt: String::new(),
            };
            assert!(plan.walk(&est, &[priority]).is_err_and(refused));
        }
    }

    #[test]
    fn feasible_exploration_reports_no_fallback() {
        let (dataset, est) = setup();
        let explorer = Explorer::new(&est, 400);
        let result = explorer
            .explore(
                &dataset,
                &Platform::default_rtx4090(),
                ModelKind::Sage,
                Priority::Balance,
                &RuntimeConstraints::none(),
            )
            .expect("explore");
        assert!(result.fallback.is_none());
        assert_eq!(result.audit.last().map(|r| r.action), Some(AuditAction::Selected));
    }
}

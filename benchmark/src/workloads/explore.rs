//! `explore_sweep`: design-space exploration alone. One estimator is
//! fitted in set-up; every operation is one `Explorer::explore` with
//! no cache, over 2 datasets × 4 priorities × 3 constraint sets, in an
//! order drawn from `--seed`.

use gnnavigator::estimator::{GrayBoxEstimator, ProfileDb, Profiler};
use gnnavigator::explorer::{ExplorationResult, Explorer, ExplorerError};
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use gnnavigator::{NavigatorOptions, Priority, RuntimeConstraints};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{ctx_err, digest_of, Ctx, Repeat, Workload};
use crate::trace::Tracer;
use crate::{stats, DEFAULT_SEED};

const MODEL: ModelKind = ModelKind::Sage;
const BUDGET: usize = 4_000;
/// The explored datasets. Scale 0.2, not 0.1: at 0.1 the largest
/// feature cache (0.5 × 2330 nodes × 300 B ≈ 350 KB) is smaller than
/// the smallest footprint the estimator predicts (≈ 380 KB), so no
/// memory cap could both prune a subtree and leave a feasible leaf.
const EXPLORED: [(DatasetId, f64); 2] = [(DatasetId::Reddit2, 0.2), (DatasetId::OgbnProducts, 0.2)];
/// The estimator is fitted on small stand-ins of the same datasets:
/// the sweep measures the explorer, not the profiler.
const PROFILED_SCALE: f64 = 0.05;
const PROFILED_CONFIGS: usize = 16;

struct Case {
    dataset: usize,
    priority: Priority,
    set: &'static str,
    constraints: RuntimeConstraints,
    /// The explorer's restart seed.
    seed: u64,
}

pub struct ExploreSweep {
    platform: Platform,
    estimator: GrayBoxEstimator,
    datasets: Vec<Dataset>,
    cases: Vec<Case>,
    budget: usize,
}

impl ExploreSweep {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let platform = Platform::default_rtx4090();
        let budget = if ctx.quick { BUDGET / 10 } else { BUDGET };
        // The estimator and the 24 cases, restart seeds included, are
        // the same on every run: the trees decide what one prediction
        // costs, and the restarts how many candidates are new to the
        // memo (15 to 27 ms per call across seeds). `--seed` draws the
        // order the cases are explored in.
        let exec = ExecutionOptions {
            train_batches_cap: Some(2),
            ..NavigatorOptions::default().profile_exec
        };
        let profiler = Profiler::new(RuntimeBackend::new(platform.clone()), exec);
        let configs = DesignSpace::standard().sample(PROFILED_CONFIGS, MODEL, DEFAULT_SEED);
        let mut db = ProfileDb::new();
        let mut datasets = Vec::new();
        for (id, scale) in EXPLORED {
            let small = Dataset::load_scaled(id, PROFILED_SCALE).map_err(ctx_err("load"))?;
            db.merge(profiler.profile(&small, &configs).map_err(ctx_err("profile"))?);
            datasets.push(Dataset::load_scaled(id, scale).map_err(ctx_err("load"))?);
        }
        let mut estimator = GrayBoxEstimator::new();
        estimator.fit(&db).map_err(ctx_err("fit"))?;

        // The caps are set relative to what the estimator predicts on
        // each dataset.
        let mut cases = Vec::new();
        for (d, dataset) in datasets.iter().enumerate() {
            let open = Explorer::new(&estimator, budget)
                .with_seed(DEFAULT_SEED)
                .explore(dataset, &platform, MODEL, Priority::Balance, &RuntimeConstraints::none())
                .map_err(ctx_err("unconstrained explore"))?;
            let mem: Vec<f64> = open.evaluated.iter().map(|c| c.estimate.mem_bytes).collect();
            let time: Vec<f64> = open.evaluated.iter().map(|c| c.estimate.time_s).collect();
            // Eq. 10 lower bound of the largest cache at FP16: a cap
            // just under it prunes that whole subtree analytically.
            let largest_cache = 0.5 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0;
            let sets = [
                ("none", RuntimeConstraints::none()),
                (
                    "mem_prunes",
                    RuntimeConstraints {
                        max_mem_bytes: Some(0.9 * largest_cache),
                        ..RuntimeConstraints::none()
                    },
                ),
                (
                    "time_mem_rejects",
                    RuntimeConstraints {
                        max_time_s: Some(stats::quartiles(&time).0),
                        max_mem_bytes: Some(stats::quartiles(&mem).0),
                        min_accuracy: None,
                    },
                ),
            ];
            for (set, constraints) in sets {
                for priority in Priority::ALL {
                    let seed = DEFAULT_SEED.wrapping_add(cases.len() as u64);
                    cases.push(Case { dataset: d, priority, set, constraints, seed });
                }
            }
        }
        // Every case once in this fixed order before the seed draws
        // one: the allocator settles (how far the heap grows, and which
        // sizes it maps, hang on the order of the first requests) the
        // same way on every seed, where peak RSS otherwise reads 31 or
        // 37 MiB by the order alone.
        let mut sweep = ExploreSweep { platform, estimator, datasets, cases, budget };
        for case in &sweep.cases {
            sweep.explore(case).map_err(ctx_err("warm-up explore"))?;
        }
        sweep.cases.shuffle(&mut StdRng::seed_from_u64(ctx.seed));
        Ok(sweep)
    }

    fn explore(&self, case: &Case) -> Result<ExplorationResult, ExplorerError> {
        Explorer::new(&self.estimator, self.budget).with_seed(case.seed).explore(
            &self.datasets[case.dataset],
            &self.platform,
            MODEL,
            case.priority,
            &case.constraints,
        )
    }

    fn check(&self, rep: &mut Repeat, case: &Case, r: &ExplorationResult) {
        let name = || {
            format!("{:?}/{}/{}", self.datasets[case.dataset].id(), case.priority.label(), case.set)
        };
        rep.check(
            r.fallback.is_some() || case.constraints.satisfied_by(&r.guideline.estimate),
            || format!("{}: guideline violates its constraints on its own estimate", name()),
        );
        let (pruned, rejected) = (r.stats.pruned_subtrees, r.stats.rejected);
        let as_designed = match case.set {
            "none" => pruned == 0 && rejected == 0 && r.fallback.is_none(),
            "mem_prunes" => pruned > 0 && rejected > 0,
            _ => rejected > 0 && r.fallback.is_none(),
        };
        rep.check(as_designed, || {
            format!(
                "{}: pruned {pruned}, rejected {rejected}, fallback {}",
                name(),
                r.fallback.is_some()
            )
        });
    }
}

impl Workload for ExploreSweep {
    fn work_unit(&self) -> &'static str {
        "candidates"
    }

    fn repeat(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<Repeat, String> {
        let mut rep = Repeat::default();
        // Each result is checked and reduced to counts and a running
        // digest as it arrives, and nothing allocated during an
        // `explore` outlives it: 24 results held at once (4000 evaluated
        // candidates each) would be the benchmark's memory, not the
        // explorer's, and a guideline kept from the middle of one
        // result's allocations pins the heap wherever the order of the
        // cases happens to put it (peak RSS 29 to 37 MiB across seeds).
        rep.latencies.reserve(self.cases.len());
        let mut digest = String::new();
        let mut totals = [0usize; 5];
        for (op, case) in self.cases.iter().enumerate() {
            tracer.set_op(op as u64);
            let (latency, result) =
                ctx.time(|| tracer.time("explorer.explore", || self.explore(case)));
            rep.latencies.push(latency);
            let r = result.map_err(ctx_err("explore"))?;
            self.check(&mut rep, case, &r);
            let counts = [
                r.stats.evaluated,
                r.stats.rejected,
                r.stats.pruned_subtrees,
                r.front.len(),
                usize::from(r.fallback.is_some()),
            ];
            totals.iter_mut().zip(counts).for_each(|(total, n)| *total += n);
            digest = digest_of(&(&digest, &r.guideline, r.stats));
        }
        rep.wall = rep.latencies.clone();
        rep.attempted = self.cases.len() as u64;
        rep.work = totals[0] as f64;
        for (name, total) in
            ["evaluated", "rejected", "pruned", "front_size", "fallbacks"].into_iter().zip(totals)
        {
            rep.counts.insert(format!("explorer.{name}"), total as f64);
        }
        rep.digest = digest;
        Ok(rep)
    }
}

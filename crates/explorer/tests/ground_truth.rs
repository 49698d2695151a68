//! The out-of-sample ground-truth property: how far each guideline
//! lands from the best executed candidate.
//!
//! The estimator is fitted on the AR, PR and RD stand-ins only. The
//! explorer then walks Fig. 6's reduced design space on RD2 with a
//! budget that covers it, and every evaluated candidate (the space's
//! 108 configurations plus the four template seeds) is executed. Each
//! priority's guideline is scored against the executed set under
//! `decide_on_front`'s own scalarisation: weighted, min–max-normalised
//! objectives. The rank counts the executed candidates that score
//! strictly better, plus one; the regret is the score gap to the best.
//!
//! "Guidelines land on the executed front" does not hold here: the
//! committed table is a counterexample, and its regrets are the stated
//! bounds, each rounded up to 0.01. A change that moves them on
//! purpose (a better accuracy model, learned time constants, a
//! designed profile set) reports the new table and replaces `BOUNDS`.

use gnnav_estimator::{GrayBoxEstimator, PerfEstimate, ProfileDb, Profiler};
use gnnav_explorer::{
    decide_on_front, objectives, EvaluatedCandidate, Explorer, Priority, RuntimeConstraints,
};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};

const MODEL: ModelKind = ModelKind::Sage;
const SCALE: f64 = 0.01;
const FITTED_ON: [DatasetId; 3] =
    [DatasetId::OgbnArxiv, DatasetId::OgbnProducts, DatasetId::Reddit];
const PROFILED_PER_DATASET: usize = 24;
/// Larger than the reduced space plus the template seeds.
const BUDGET: usize = 400;

/// Measured regret per priority, in `Priority::ALL` order, rounded up
/// to 0.01. The executed ranks out of 112 were Bal 49, Ex-TM 8,
/// Ex-MA 10 and Ex-TA 87.
const BOUNDS: [f64; 4] = [0.44, 0.14, 0.20, 0.73];

/// Min–max normalised, priority-weighted score of every candidate, as
/// `decide_on_front` computes it.
fn scores(candidates: &[EvaluatedCandidate], priority: Priority) -> Vec<f64> {
    let points: Vec<[f64; 3]> = candidates.iter().map(|c| objectives(&c.estimate)).collect();
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in &points {
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let norm = |v: f64, d: usize| if hi[d] > lo[d] { (v - lo[d]) / (hi[d] - lo[d]) } else { 0.0 };
    let t = priority.targets();
    points
        .iter()
        .map(|p| {
            t.w_time * norm(p[0], 0) + t.w_memory * norm(p[1], 1) + t.w_accuracy * norm(p[2], 2)
        })
        .collect()
}

#[test]
fn guidelines_stay_within_the_stated_regret_of_the_executed_best() {
    let platform = Platform::default_rtx4090();
    let exec = ExecutionOptions {
        epochs: 1,
        train: true,
        train_batches_cap: Some(4),
        ..Default::default()
    };
    let profiler = Profiler::new(RuntimeBackend::new(platform.clone()), exec).with_threads(2);
    let space = DesignSpace::reduced();

    let mut db = ProfileDb::new();
    for (i, id) in FITTED_ON.into_iter().enumerate() {
        let dataset = Dataset::load_scaled(id, SCALE).expect("load");
        let configs = space.sample(PROFILED_PER_DATASET, MODEL, 7 + i as u64);
        db.merge(profiler.profile(&dataset, &configs).expect("profile"));
    }
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");

    let held_out = Dataset::load_scaled(DatasetId::Reddit2, SCALE).expect("load");
    let explorer = Explorer::new(&estimator, BUDGET).with_space(space.clone());
    let results = explorer
        .explore_all(&held_out, &platform, MODEL, &RuntimeConstraints::none())
        .expect("explore");
    let evaluated = &results[0].evaluated;
    assert_eq!(evaluated.len(), space.enumerate(MODEL).len() + 4, "the walk covers the space");

    let configs: Vec<_> = evaluated.iter().map(|c| c.config.clone()).collect();
    let executed: Vec<EvaluatedCandidate> = profiler
        .profile(&held_out, &configs)
        .expect("execute")
        .records()
        .iter()
        .map(|r| EvaluatedCandidate {
            config: r.context.config.clone(),
            estimate: PerfEstimate {
                time_s: r.epoch_time_s,
                mem_bytes: r.mem_bytes,
                accuracy: r.accuracy,
                batch_nodes: r.avg_batch_nodes,
                hit_rate: r.hit_rate,
            },
        })
        .collect();
    assert_eq!(executed.len(), configs.len(), "every candidate executes");

    let everyone: Vec<usize> = (0..executed.len()).collect();
    let mut regrets = Vec::new();
    for result in &results {
        let priority = result.guideline.priority;
        let scores = scores(&executed, priority);
        let best = decide_on_front(&executed, &everyone, priority).expect("non-empty");
        let best_score = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let best_at = executed.iter().position(|c| c.config == best.config).expect("executed");
        assert_eq!(scores[best_at], best_score, "{priority}: same scalarisation as decide");

        let at = configs.iter().position(|c| *c == result.guideline.config).expect("evaluated");
        let rank = 1 + scores.iter().filter(|&&s| s < scores[at]).count();
        let regret = scores[at] - best_score;
        println!("{priority}: rank {rank}/{} regret {regret:.4}", executed.len());
        regrets.push((priority, regret));
    }
    for ((priority, regret), bound) in regrets.into_iter().zip(BOUNDS) {
        assert!(regret <= bound, "{priority}: regret {regret} above the stated {bound}");
    }
}

//! The decision maker: Pareto filtering + priority-weighted selection.
//!
//! "With an awareness of application requirements, the explorer
//! emphasizes the specific performance metrics and leverages Pareto
//! front theory to obtain the most suitable candidates" (paper §3.3).

use crate::dfs::EvaluatedCandidate;
use crate::pareto::{objectives, ParetoFront};
use crate::targets::Priority;

/// A training guideline: the chosen configuration with its predicted
/// performance and the priority that selected it.
#[derive(Debug, Clone)]
pub struct Guideline {
    /// The recommended configuration.
    pub config: gnnav_runtime::TrainingConfig,
    /// The estimator's prediction for it.
    pub estimate: gnnav_estimator::PerfEstimate,
    /// The priority preset used for selection.
    pub priority: Priority,
}

/// Selects the guideline among `candidates` for `priority`.
///
/// Candidates are first reduced to the estimated Pareto front over
/// `(T, Γ, −Acc)`; the front is then scalarized with the priority's
/// weights over min–max-normalized objectives and the minimizer wins
/// (the earliest candidate, among equal scores). Returns `None` when
/// `candidates` is empty.
///
/// The front is built with [`ParetoFront`], whose result is the
/// reference [`pareto_front_indices`](crate::pareto_front_indices)
/// wherever dominance is transitive — on finite objectives. Every
/// caller hands in accepted candidates, which are finite by
/// construction: the DFS rejects a non-finite prediction before it can
/// be accepted.
pub fn decide(candidates: &[EvaluatedCandidate], priority: Priority) -> Option<Guideline> {
    let mut front = ParetoFront::new();
    for candidate in candidates {
        front.insert(objectives(&candidate.estimate));
    }
    decide_on_front(candidates, &front.indices(), priority)
}

/// [`decide`] for a caller that already holds the Pareto front of
/// `candidates` — the DFS maintains it while it accepts them — as
/// ascending indices into `candidates`, which is the order ties are
/// met in.
pub fn decide_on_front(
    candidates: &[EvaluatedCandidate],
    front: &[usize],
    priority: Priority,
) -> Option<Guideline> {
    // Min–max normalization bounds over the whole candidate set (the
    // front alone can collapse a dimension).
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for candidate in candidates {
        let p = objectives(&candidate.estimate);
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let norm = |v: f64, d: usize| {
        if hi[d] > lo[d] {
            (v - lo[d]) / (hi[d] - lo[d])
        } else {
            0.0
        }
    };
    let t = priority.targets();
    let score = |i: usize| {
        let p = objectives(&candidates[i].estimate);
        t.w_time * norm(p[0], 0) + t.w_memory * norm(p[1], 1) + t.w_accuracy * norm(p[2], 2)
    };
    let best = front
        .iter()
        .copied()
        .min_by(|&a, &b| score(a).partial_cmp(&score(b)).expect("finite scores"))?;
    Some(Guideline {
        config: candidates[best].config.clone(),
        estimate: candidates[best].estimate,
        priority,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_estimator::PerfEstimate;
    use gnnav_runtime::TrainingConfig;

    fn cand(t: f64, m: f64, a: f64) -> EvaluatedCandidate {
        EvaluatedCandidate {
            config: TrainingConfig::default(),
            estimate: PerfEstimate {
                time_s: t,
                mem_bytes: m,
                accuracy: a,
                batch_nodes: 0.0,
                hit_rate: 0.0,
            },
        }
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert!(decide(&[], Priority::Balance).is_none());
    }

    #[test]
    fn dominated_candidate_never_chosen() {
        let cands = vec![
            cand(1.0, 100.0, 0.9),
            cand(2.0, 200.0, 0.8), // dominated
            cand(0.5, 300.0, 0.85),
        ];
        for p in Priority::ALL {
            let g = decide(&cands, p).expect("non-empty");
            assert_ne!(g.estimate.time_s, 2.0, "{p} picked a dominated point");
        }
    }

    #[test]
    fn priorities_pick_their_emphasis() {
        // Three extreme corners of the trade space.
        let fast = cand(0.1, 900.0, 0.70); // fastest, hungry, inaccurate
        let lean = cand(5.0, 100.0, 0.72); // slow, tiny, inaccurate
        let smart = cand(4.0, 800.0, 0.95); // slow, hungry, accurate
        let cands = vec![fast.clone(), lean.clone(), smart.clone()];

        let tm = decide(&cands, Priority::ExTimeMemory).expect("tm");
        assert!(
            tm.estimate.accuracy < 0.9,
            "Ex-TM should sacrifice accuracy, chose acc {}",
            tm.estimate.accuracy
        );
        let ta = decide(&cands, Priority::ExTimeAccuracy).expect("ta");
        assert!(ta.estimate.time_s < 5.0 || ta.estimate.accuracy > 0.9);
        let ma = decide(&cands, Priority::ExMemoryAccuracy).expect("ma");
        assert_ne!(ma.estimate.time_s, 0.1, "Ex-MA should not chase pure speed");
    }

    #[test]
    fn single_candidate_is_chosen() {
        let g = decide(&[cand(1.0, 1.0, 0.5)], Priority::Balance).expect("one");
        assert_eq!(g.priority, Priority::Balance);
    }
}

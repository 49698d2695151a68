//! Property-based tests for Pareto dominance, the incremental front,
//! the decision maker (alone and at the end of an exploration), and
//! the exploration-cache codec: round trips of base and decision
//! frames, both decoders against bytes they did not write, and the
//! codec laws over audit records and guidelines.

use gnnav_estimator::{GrayBoxEstimator, PerfEstimate, Profiler};
use gnnav_explorer::cache::{EXPLORE_DECISION_TAG, EXPLORE_RESULT_TAG};
use gnnav_explorer::{
    decide, decide_on_front, dominates, objectives, pareto_front_indices, AuditAction, AuditRecord,
    AuditTrail, DfsStats, EvaluatedCandidate, ExplorationResult, ExploreCache, Explorer, Guideline,
    ParetoFront, Priority, RuntimeConstraints,
};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend, TrainingConfig};
use gnnav_store::laws::{assert_laws, assert_smallest};
use gnnav_store::{Wal, Wire};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

fn points() -> impl Strategy<Value = Vec<[f64; 3]>> {
    proptest::collection::vec(
        (0.0f64..100.0, 0.0f64..100.0, -1.0f64..0.0).prop_map(|(a, b, c)| [a, b, c]),
        1..60,
    )
}

/// Points drawn off a coarse grid: duplicates and exact ties across
/// all three coordinates are common, exercising the equal-point paths
/// of dominance.
fn coarse_points() -> impl Strategy<Value = Vec<[f64; 3]>> {
    proptest::collection::vec(
        (0u8..4, 0u8..4, 0u8..4).prop_map(|(a, b, c)| [a as f64, b as f64, -(c as f64)]),
        1..40,
    )
}

fn estimates() -> impl Strategy<Value = PerfEstimate> {
    (1e-6f64..1e3, 1e3f64..1e12, 0.0f64..1.0, 0.0f64..1e6, 0.0f64..1.0).prop_map(
        |(time_s, mem_bytes, accuracy, batch_nodes, hit_rate)| PerfEstimate {
            time_s,
            mem_bytes,
            accuracy,
            batch_nodes,
            hit_rate,
        },
    )
}

fn configs() -> impl Strategy<Value = TrainingConfig> {
    (4u32..4096, 8u32..512, 0.0f64..1.0).prop_map(|(batch_size, hidden_dim, cache_ratio)| {
        TrainingConfig {
            batch_size: batch_size as usize,
            hidden_dim: hidden_dim as usize,
            cache_ratio,
            ..TrainingConfig::default()
        }
    })
}

/// Short strings covering the interesting payload classes: empty,
/// plain ASCII, punctuation-heavy, and multi-byte UTF-8.
fn strings() -> impl Strategy<Value = String> {
    (0usize..4).prop_map(|i| {
        ["", "cfg batch=512", "mem 1.50 MB > max 0.20 MB (excess 7.5e0)", "Γ_cache ✓ ∞"][i]
            .to_string()
    })
}

fn audit_actions() -> impl Strategy<Value = AuditAction> {
    (0u8..6).prop_map(|t| match t {
        0 => AuditAction::Accepted,
        1 => AuditAction::Rejected,
        2 => AuditAction::PrunedSubtree,
        3 => AuditAction::Selected,
        4 => AuditAction::Fallback,
        _ => AuditAction::Switched,
    })
}

fn audit_records() -> impl Strategy<Value = AuditRecord> {
    (strings(), (any::<bool>(), estimates()), audit_actions(), strings(), any::<bool>()).prop_map(
        |(config, (has_estimate, estimate), action, reason, seed_candidate)| AuditRecord {
            config,
            estimate: has_estimate.then_some(estimate),
            action,
            reason: reason.into(),
            seed_candidate,
        },
    )
}

fn priorities() -> impl Strategy<Value = Priority> {
    (0u8..4).prop_map(|t| match t {
        0 => Priority::Balance,
        1 => Priority::ExTimeMemory,
        2 => Priority::ExMemoryAccuracy,
        _ => Priority::ExTimeAccuracy,
    })
}

/// Candidates at `pts`, told apart by their batch size (index + 1):
/// which of two equal points a decision picked shows in its config.
fn candidates_at(pts: &[[f64; 3]]) -> Vec<EvaluatedCandidate> {
    pts.iter()
        .enumerate()
        .map(|(i, p)| EvaluatedCandidate {
            config: TrainingConfig { batch_size: i + 1, ..TrainingConfig::default() },
            estimate: PerfEstimate {
                time_s: p[0],
                mem_bytes: p[1],
                accuracy: -p[2],
                batch_nodes: 0.0,
                hit_rate: 0.0,
            },
        })
        .collect()
}

/// One dataset and one timing-only fit for every explored case: with
/// no accuracy component the third objective is constant, so ties and
/// equal points on the front are the rule.
fn fixture() -> &'static (Dataset, GrayBoxEstimator) {
    static FIXTURE: OnceLock<(Dataset, GrayBoxEstimator)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let profiler = Profiler::new(
            RuntimeBackend::new(Platform::default_rtx4090()),
            ExecutionOptions::timing_only(),
        )
        .with_threads(2);
        let configs = DesignSpace::standard().sample(25, ModelKind::Sage, 5);
        let db = profiler.profile(&dataset, &configs).expect("profile");
        let mut estimator = GrayBoxEstimator::new();
        estimator.fit(&db).expect("fit");
        (dataset, estimator)
    })
}

/// The priority-free share of a result: candidates, front, stats and
/// the audit records of the walk.
type Walk = (Vec<EvaluatedCandidate>, Vec<usize>, DfsStats, Vec<AuditRecord>);

fn walks() -> impl Strategy<Value = Walk> {
    (
        proptest::collection::vec((configs(), estimates()), 0..8),
        proptest::collection::vec(0usize..64, 0..8),
        (0usize..500, 0usize..500, 0usize..500),
        proptest::collection::vec(audit_records(), 0..8),
    )
        .prop_map(|(evaluated, front, stats, audit)| {
            let evaluated = evaluated
                .into_iter()
                .map(|(config, estimate)| EvaluatedCandidate { config, estimate })
                .collect();
            let stats =
                DfsStats { evaluated: stats.0, rejected: stats.1, pruned_subtrees: stats.2 };
            (evaluated, front, stats, audit)
        })
}

/// The priority's share of a result: guideline (its priority set by
/// the caller), the decision's audit record, fallback.
type Decision = (Guideline, AuditRecord, Option<String>);

fn decisions() -> impl Strategy<Value = Decision> {
    ((configs(), estimates(), priorities()), audit_records(), (any::<bool>(), strings())).prop_map(
        |(g, record, fallback)| {
            let guideline = Guideline { config: g.0, estimate: g.1, priority: g.2 };
            (guideline, record, fallback.0.then_some(fallback.1))
        },
    )
}

/// Any result at all, the empty audit trail included.
fn exploration_results() -> impl Strategy<Value = ExplorationResult> {
    (walks(), decisions(), any::<bool>()).prop_map(
        |((evaluated, front, stats, mut audit), (guideline, record, fallback), decided)| {
            if decided {
                audit.push(record);
            }
            ExplorationResult {
                guideline,
                evaluated: Arc::new(evaluated),
                front: Arc::new(front),
                stats,
                audit: audit.into(),
                fallback,
            }
        },
    )
}

/// A fresh log path in a directory of its own.
fn temp_log() -> (PathBuf, PathBuf) {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gnnav-ec-prop-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("explore.wal");
    (dir, path)
}

/// The frames of the log at `path`, as written.
fn frames_of(path: &PathBuf) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    Wal::replay(path, |frame| frames.push(frame.to_vec())).expect("read as a plain log");
    frames
}

/// A log holding exactly `frames`.
fn log_of(frames: &[Vec<u8>]) -> (PathBuf, PathBuf) {
    let (dir, path) = temp_log();
    let mut wal = Wal::open(&path).expect("open");
    frames.iter().for_each(|frame| wal.append(frame).expect("append"));
    (dir, path)
}

/// The walk a result was decided over, rendered: equal strings, equal
/// walks (every float is finite, so `Debug` tells bit patterns apart).
fn walk_key(r: &ExplorationResult) -> String {
    format!("{:?}", (&r.evaluated, &r.front, &r.stats, r.audit.walk()))
}

/// A base frame and a decision frame over it, as a cache writes them.
fn valid_frames() -> &'static Vec<Vec<u8>> {
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let (dataset, estimator) = fixture();
        let results = Explorer::new(estimator, 40)
            .explore_all(
                dataset,
                &Platform::default_rtx4090(),
                ModelKind::Sage,
                &RuntimeConstraints::none(),
            )
            .expect("explore");
        let (dir, path) = temp_log();
        let mut cache = ExploreCache::open(&path).expect("open");
        for (fingerprint, result) in (1u64..).zip(&results[..2]) {
            cache.insert(fingerprint, result).expect("insert");
        }
        drop(cache);
        let frames = frames_of(&path);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(frames.len(), 2);
        assert_eq!((frames[0][0], frames[1][0]), (EXPLORE_RESULT_TAG, EXPLORE_DECISION_TAG));
        frames
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn front_members_are_mutually_non_dominated(pts in points()) {
        let front = pareto_front_indices(&pts);
        for &i in &front {
            for &j in &front {
                if i != j {
                    prop_assert!(!dominates(&pts[i], &pts[j]),
                        "front member {i} dominates front member {j}");
                }
            }
        }
    }

    #[test]
    fn every_non_front_point_is_dominated(pts in points()) {
        let front = pareto_front_indices(&pts);
        for (i, p) in pts.iter().enumerate() {
            if !front.contains(&i) {
                prop_assert!(
                    pts.iter().any(|q| dominates(q, p)),
                    "point {i} excluded from the front but undominated"
                );
            }
        }
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric(
        a in (0.0f64..10.0, 0.0f64..10.0, -1.0f64..0.0),
        b in (0.0f64..10.0, 0.0f64..10.0, -1.0f64..0.0),
    ) {
        let a = [a.0, a.1, a.2];
        let b = [b.0, b.1, b.2];
        prop_assert!(!dominates(&a, &a));
        prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
    }

    #[test]
    fn incremental_front_equals_batch_on_random_points(pts in points()) {
        let mut inc = ParetoFront::new();
        for &p in &pts {
            inc.insert(p);
        }
        prop_assert_eq!(inc.indices(), pareto_front_indices(&pts));
        prop_assert_eq!(inc.seen(), pts.len());
    }

    #[test]
    fn incremental_front_equals_batch_with_duplicates(pts in coarse_points()) {
        let mut inc = ParetoFront::new();
        for &p in &pts {
            inc.insert(p);
        }
        prop_assert_eq!(inc.indices(), pareto_front_indices(&pts));
        prop_assert_eq!(inc.len(), inc.indices().len());
    }

    #[test]
    fn cache_round_trip_preserves_result_byte_for_byte(
        walks in proptest::collection::vec(
            (walks(), 1u8..16, proptest::collection::vec((decisions(), any::<bool>()), 4)),
            1..3,
        ),
        others in proptest::collection::vec(exploration_results(), 0..3),
        order in any::<u64>(),
    ) {
        // Any subset of the priorities over each walk, its results
        // sharing the walk's `Arc`s (as `explore_all` returns them) or
        // holding equal copies (as four `explore` calls do)...
        let mut results = others;
        for ((evaluated, front, stats, audit), subset, decisions) in walks {
            let shared = (Arc::new(evaluated), Arc::new(front), Arc::new(audit));
            for (i, ((mut guideline, record, fallback), shares)) in
                decisions.into_iter().enumerate()
            {
                if subset & (1 << i) == 0 {
                    continue;
                }
                guideline.priority = Priority::ALL[i];
                let (evaluated, front, audit) = if shares {
                    shared.clone()
                } else {
                    let (e, f, a) = &shared;
                    (Arc::new(e.to_vec()), Arc::new(f.to_vec()), Arc::new(a.to_vec()))
                };
                let audit = AuditTrail::new(audit, record);
                results.push(ExplorationResult {
                    guideline, evaluated, front, stats, audit, fallback,
                });
            }
        }
        // ...inserted in any order, interleaved with results of other
        // walks.
        results.shuffle(&mut StdRng::seed_from_u64(order));
        let keyed: Vec<(u64, ExplorationResult)> = (1u64..).zip(results).collect();

        // What the log must hold: a base frame for the first result of
        // each walk, a decision frame for every later one.
        let mut bases: HashMap<String, u64> = HashMap::new();
        let mut base_of: HashMap<u64, u64> = HashMap::new();
        let tags: Vec<u8> = keyed
            .iter()
            .map(|(fingerprint, result)| {
                let base = bases.get(&walk_key(result)).copied();
                match base.filter(|_| !result.audit.is_empty()) {
                    Some(base) => {
                        base_of.insert(*fingerprint, base);
                        EXPLORE_DECISION_TAG
                    }
                    None => {
                        bases.entry(walk_key(result)).or_insert(*fingerprint);
                        EXPLORE_RESULT_TAG
                    }
                }
            })
            .collect();

        let (dir, path) = temp_log();
        {
            let mut cache = ExploreCache::open(&path).expect("open");
            for (fingerprint, result) in &keyed {
                prop_assert!(cache.insert(*fingerprint, result).expect("insert"));
                prop_assert!(!cache.insert(*fingerprint, result).expect("a repeat is skipped"));
            }
            prop_assert_eq!(cache.inserts(), keyed.len() as u64);
            for (fingerprint, result) in &keyed {
                let got = cache.lookup(*fingerprint).expect("present before reopening");
                prop_assert_eq!(format!("{got:?}"), format!("{result:?}"));
            }
        }
        let frames = frames_of(&path);
        prop_assert_eq!(frames.iter().map(|f| f[0]).collect::<Vec<_>>(), tags);

        // Reopen: every result must survive the durable round trip with
        // every f64 payload, audit string, and enum tag intact, and
        // the results over one walk must hold it once.
        let mut cache = ExploreCache::open(&path).expect("reopen");
        prop_assert!(cache.recovery().is_clean());
        prop_assert_eq!(cache.undecodable(), 0);
        prop_assert_eq!(cache.len(), keyed.len());
        for (fingerprint, result) in &keyed {
            let got = cache.lookup(*fingerprint).expect("present").clone();
            prop_assert_eq!(format!("{got:?}"), format!("{result:?}"));
            if let Some(base) = base_of.get(fingerprint) {
                let base = cache.lookup(*base).expect("base present");
                prop_assert!(Arc::ptr_eq(&got.evaluated, &base.evaluated));
                prop_assert!(Arc::ptr_eq(&got.front, &base.front));
                prop_assert!(Arc::ptr_eq(got.audit.walk(), base.audit.walk()));
            }
        }
        // Nothing a reopen serves is dropped by a compaction.
        prop_assert_eq!(cache.compact().expect("compact"), 0);
        prop_assert_eq!(frames_of(&path), frames);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arbitrary_frames_are_served_or_counted_never_fatal(
        frames in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(any::<u8>(), 0..200)),
            1..6,
        ),
    ) {
        // Half of the frames open with a tag a decoder answers to, so
        // both are reached with bytes neither wrote.
        let frames: Vec<Vec<u8>> = frames
            .into_iter()
            .map(|(lead, mut frame)| {
                match lead {
                    0 => frame.insert(0, EXPLORE_RESULT_TAG),
                    1 => frame.insert(0, EXPLORE_DECISION_TAG),
                    _ => {}
                }
                frame
            })
            .collect();
        let (dir, path) = log_of(&frames);
        let mut cache = ExploreCache::open(&path).expect("open survives");
        prop_assert_eq!(cache.len() + cache.undecodable(), frames.len());
        // What was not served is dropped by a compaction, and nothing
        // else is.
        prop_assert_eq!(cache.compact().expect("compact"), frames.len() - cache.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_mutated_byte_is_served_or_counted_never_fatal(
        which in 0usize..2,
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut frames = valid_frames().clone();
        let at = (at % frames[which].len() as u64) as usize;
        frames[which][at] ^= flip;
        let (dir, path) = log_of(&frames);
        let cache = ExploreCache::open(&path).expect("open survives");
        prop_assert_eq!(cache.len() + cache.undecodable(), frames.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decision_always_picks_from_front(pts in points()) {
        let candidates = candidates_at(&pts);
        let front = pareto_front_indices(&pts);
        for priority in Priority::ALL {
            let g = decide(&candidates, priority).expect("non-empty");
            let chosen = [g.estimate.time_s, g.estimate.mem_bytes, -g.estimate.accuracy];
            prop_assert!(
                front.iter().any(|&i| pts[i] == chosen),
                "{priority} picked a dominated candidate"
            );
        }
    }

    #[test]
    fn decision_over_its_own_front_is_the_decision_over_the_reference_front(
        pts in coarse_points(),
    ) {
        // Coarse points: duplicated points on the front and equal
        // scores are common, so the order ties are met in matters.
        let candidates = candidates_at(&pts);
        let front = pareto_front_indices(&pts);
        for priority in Priority::ALL {
            let own = decide(&candidates, priority).expect("non-empty");
            let handed = decide_on_front(&candidates, &front, priority).expect("non-empty");
            prop_assert_eq!(format!("{own:?}"), format!("{handed:?}"));
            // Of equal points the earliest wins.
            let chosen = own.config.batch_size - 1;
            prop_assert!(front.contains(&chosen));
            prop_assert_eq!(front.iter().find(|&&i| pts[i] == pts[chosen]), Some(&chosen));
        }
    }
}

#[test]
fn the_smallest_record_and_guideline_take_min_bytes() {
    assert_smallest(&AuditRecord {
        config: String::new(),
        estimate: None,
        action: AuditAction::Accepted,
        reason: "".into(),
        seed_candidate: false,
    });
    assert_smallest(&Guideline {
        config: TrainingConfig { fanouts: Vec::new(), ..TrainingConfig::default() },
        estimate: PerfEstimate {
            time_s: 0.0,
            mem_bytes: 0.0,
            accuracy: 0.0,
            batch_nodes: 0.0,
            hit_rate: 0.0,
        },
        priority: Priority::Balance,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn audit_records_hold_the_codec_laws(record in audit_records()) {
        assert_laws(&record);
    }

    #[test]
    fn guidelines_hold_the_codec_laws(
        (config, estimate, priority) in (configs(), estimates(), priorities()),
    ) {
        assert_laws(&Guideline { config, estimate, priority });
    }
}

/// A length prefix is refused where it is read when the payload behind
/// it could not hold that many elements, so a decoder never reserves on
/// a corrupt prefix's say-so: opening a log whose base frame claims
/// 2^40 candidates allocates what the frame's own bytes account for,
/// not the 140 MB a `with_capacity` clamped at 2^20 candidates takes.
#[test]
fn an_impossible_length_prefix_reserves_nothing() {
    let mut frame = valid_frames()[0].clone();
    // tag, fingerprint, guideline (config, estimate, priority), then
    // the candidate count.
    let (dataset, estimator) = fixture();
    let guideline = Explorer::new(estimator, 40)
        .explore(
            dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            Priority::Balance,
            &RuntimeConstraints::none(),
        )
        .expect("explore")
        .guideline;
    let mut config = gnnav_store::ByteWriter::new();
    guideline.config.put(&mut config);
    let count_at = 1 + 8 + config.len() + 5 * 8 + 1;
    let count = u64::from_le_bytes(frame[count_at..count_at + 8].try_into().expect("8 bytes"));
    assert_eq!(count, 40 + 4, "the candidate count sits where the layout says");
    frame[count_at..count_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let (dir, path) = log_of(&[frame.clone()]);

    // The allocator counters are process-wide and the other tests of
    // this binary run beside this one: what they allocate can only add
    // to a reading, so the smallest of several is the one to hold.
    let allocated = (0..20)
        .map(|_| {
            gnnav_obs::alloc::set_tracking(true);
            let before = gnnav_obs::alloc::stats();
            let cache = ExploreCache::open(&path).expect("open survives");
            let delta = gnnav_obs::alloc::stats().delta_since(&before);
            gnnav_obs::alloc::set_tracking(false);
            assert_eq!((cache.len(), cache.undecodable()), (0, 1));
            delta.alloc_bytes
        })
        .min()
        .expect("twenty readings");
    assert!(
        allocated < 16 * frame.len() as u64,
        "opening a {}-byte log allocated {allocated} bytes",
        frame.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exploration_guideline_is_the_public_decision_over_its_candidates(
        budget in 1usize..301,
        seed in any::<u64>(),
        priority in priorities(),
        cap_kind in 0u8..3,
    ) {
        let (dataset, estimator) = fixture();
        let constraints = match cap_kind {
            0 => RuntimeConstraints::none(),
            // Prunes the larger caches and rejects some of the rest.
            1 => RuntimeConstraints {
                max_mem_bytes: Some(
                    0.2 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0,
                ),
                ..RuntimeConstraints::none()
            },
            // Rejects everything: the fallback decides, not `decide`.
            _ => RuntimeConstraints { max_time_s: Some(1e-12), ..RuntimeConstraints::none() },
        };
        let result = Explorer::new(estimator, budget)
            .with_seed(seed)
            .explore(dataset, &Platform::default_rtx4090(), ModelKind::Sage, priority, &constraints)
            .expect("explore");
        let points: Vec<[f64; 3]> =
            result.evaluated.iter().map(|c| objectives(&c.estimate)).collect();
        prop_assert_eq!(&*result.front, &pareto_front_indices(&points));
        match decide(&result.evaluated, priority) {
            Some(decided) => {
                prop_assert!(result.fallback.is_none());
                prop_assert_eq!(format!("{decided:?}"), format!("{:?}", result.guideline));
            }
            None => prop_assert!(result.fallback.is_some() && result.evaluated.is_empty()),
        }
    }
}

/// What an unconstrained budget-300 walk over the fixture predicted:
/// epoch times, peak memories and accuracies, each sorted ascending.
/// Constraint bounds are cut from this spread so that they bite.
fn predicted_spread() -> &'static [Vec<f64>; 3] {
    static SPREAD: OnceLock<[Vec<f64>; 3]> = OnceLock::new();
    SPREAD.get_or_init(|| {
        let (dataset, estimator) = fixture();
        let result = Explorer::new(estimator, 300)
            .explore(
                dataset,
                &Platform::default_rtx4090(),
                ModelKind::Sage,
                Priority::Balance,
                &RuntimeConstraints::none(),
            )
            .expect("explore");
        let column = |f: fn(&PerfEstimate) -> f64| {
            let mut xs: Vec<f64> = result.evaluated.iter().map(|c| f(&c.estimate)).collect();
            xs.sort_by(f64::total_cmp);
            xs
        };
        [column(|e| e.time_s), column(|e| e.mem_bytes), column(|e| e.accuracy)]
    })
}

/// One bound: absent (0), at quantile `q` of the spread (1), or past
/// its far end so that it rejects every prediction in it (2).
fn bounds() -> impl Strategy<Value = [(u8, f64); 3]> {
    ((0u8..3, 0.0f64..1.0), (0u8..3, 0.0f64..1.0), (0u8..3, 0.0f64..1.0))
        .prop_map(|(t, m, a)| [t, m, a])
}

/// Upper bounds on time and memory, a lower bound on accuracy.
fn constraints_at(bounds: [(u8, f64); 3]) -> RuntimeConstraints {
    let spread = predicted_spread();
    let bound = |d: usize, upper: bool| {
        let xs = &spread[d];
        let (kind, q) = bounds[d];
        match kind {
            0 => None,
            1 => Some(xs[(q * (xs.len() - 1) as f64) as usize]),
            _ if upper => Some(xs[0] * 0.5),
            _ => Some(xs[xs.len() - 1] + 0.01),
        }
    };
    RuntimeConstraints {
        max_time_s: bound(0, true),
        max_mem_bytes: bound(1, true),
        min_accuracy: bound(2, false),
    }
}

/// `est` under `priority`'s weights, each objective min–max normalised
/// over `candidates` (0 where they do not spread), in the decision
/// maker's order of operations.
fn score(candidates: &[EvaluatedCandidate], est: &PerfEstimate, priority: Priority) -> f64 {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for c in candidates {
        let p = objectives(&c.estimate);
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let norm = |v: f64, d: usize| if hi[d] > lo[d] { (v - lo[d]) / (hi[d] - lo[d]) } else { 0.0 };
    let p = objectives(est);
    let t = priority.targets();
    t.w_time * norm(p[0], 0) + t.w_memory * norm(p[1], 1) + t.w_accuracy * norm(p[2], 2)
}

fn explore_all_under(
    budget: usize,
    seed: u64,
    constraints: &RuntimeConstraints,
) -> Vec<ExplorationResult> {
    let (dataset, estimator) = fixture();
    Explorer::new(estimator, budget)
        .with_seed(seed)
        .explore_all(dataset, &Platform::default_rtx4090(), ModelKind::Sage, constraints)
        .expect("the template seeds are always evaluated")
}

/// The bounds the properties below draw from do reject: a time bound
/// at the median leaves a walk with rejected and accepted candidates,
/// and a bound past the spread leaves only a fallback.
#[test]
fn drawn_constraints_reject_candidates() {
    let median_time = constraints_at([(1, 0.5), (0, 0.0), (0, 0.0)]);
    let results = explore_all_under(80, 3, &median_time);
    assert!(results[0].stats.rejected > 0 && !results[0].evaluated.is_empty());
    assert!(results.iter().all(|r| r.fallback.is_none()));
    for beyond in [[(2, 0.0), (0, 0.0), (0, 0.0)], [(0, 0.0), (0, 0.0), (2, 0.0)]] {
        let results = explore_all_under(80, 3, &constraints_at(beyond));
        assert!(results.iter().all(|r| r.fallback.is_some() && r.evaluated.is_empty()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One walk, four decisions: scored under its own priority's
    /// weights, normalised over the walk's candidates, each priority's
    /// guideline from one `explore_all` is at least as good as the
    /// other three priorities' guidelines from the same walk.
    #[test]
    fn each_priority_guideline_scores_best_under_its_own_weights(
        budget in 1usize..121,
        seed in any::<u64>(),
        bounds in bounds(),
    ) {
        let results = explore_all_under(budget, seed, &constraints_at(bounds));
        prop_assert_eq!(results.len(), Priority::ALL.len());
        for (own, priority) in results.iter().zip(Priority::ALL) {
            prop_assert_eq!(own.guideline.priority, priority);
            let candidates = &own.evaluated;
            let own_score = score(candidates, &own.guideline.estimate, priority);
            for other in &results {
                prop_assert!(Arc::ptr_eq(&other.evaluated, candidates), "one walk");
                let other_score = score(candidates, &other.guideline.estimate, priority);
                prop_assert!(
                    own_score <= other_score,
                    "{} guideline scores {} under its own weights, the {} guideline {}",
                    priority, own_score, other.guideline.priority, other_score
                );
            }
        }
    }

    /// Constraint soundness: a guideline without `fallback` meets every
    /// constraint on its predicted `Perf`; with `fallback`, no
    /// candidate the walk evaluated met them, the guideline included.
    #[test]
    fn guidelines_meet_constraints_unless_none_could(
        budget in 1usize..121,
        seed in any::<u64>(),
        bounds in bounds(),
    ) {
        let constraints = constraints_at(bounds);
        for result in explore_all_under(budget, seed, &constraints) {
            let evaluated = result.audit.walk().iter().filter_map(|r| r.estimate);
            match &result.fallback {
                None => prop_assert!(
                    constraints.satisfied_by(&result.guideline.estimate),
                    "{:?} breaks {:?}", result.guideline.estimate, constraints
                ),
                Some(_) => {
                    prop_assert!(result.evaluated.is_empty());
                    prop_assert!(!constraints.satisfied_by(&result.guideline.estimate));
                    for estimate in evaluated {
                        prop_assert!(
                            !constraints.satisfied_by(&estimate),
                            "{:?} meets {:?}, yet the guideline fell back", estimate, constraints
                        );
                    }
                }
            }
        }
    }
}

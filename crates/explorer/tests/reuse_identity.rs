//! The reuse tables change no estimate: every candidate an exploration
//! evaluates carries, bit for bit, the estimate
//! `GrayBoxEstimator::predict(&Context)` computes for it alone.
//!
//! An exploration predicts through its `PredictionContext`'s reuse
//! tables, which answer `|V_i|`, the hit rate and the accuracy of an
//! input seen before from a table keyed by that component's input type.
//! A key missing a field its features read would hand one candidate a
//! neighbour's value; the explorations here (both datasets, three
//! constraint shapes of `explore_pins.rs`, budgets 100 and 4 000) are
//! dense enough that each field, left out of its key, does so.
//!
//! Every evaluated candidate is checked once per walk: accepted and
//! rejected ones from `DfsExplorer::run_audited`, which is what
//! `Explorer` walks. No step of the walk reads a priority
//! (`walk_once.rs`), so `Priority::ALL` is covered by one
//! `explore_all` per walk, whose guidelines are checked too.
//!
//! Some fields never tell two leaves of the standard space apart on
//! their own: there, two batch sizes or two sampler families never
//! share a skeleton, and a walk explores one model. Hand-built probe
//! families cover those: each family's members agree on every input of
//! one component but one, and the component answers them differently
//! (each probe asserts that it does).

use gnnav_estimator::{GrayBoxEstimator, PerfEstimate, PredictionContext, ProfileDb, Profiler};
use gnnav_explorer::{DfsExplorer, Explorer, Priority, RuntimeConstraints};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{
    DesignSpace, ExecutionOptions, RuntimeBackend, SamplerKind, Template, TrainingConfig,
};

const MODEL: ModelKind = ModelKind::Sage;
const DATASETS: [DatasetId; 2] = [DatasetId::Reddit2, DatasetId::OgbnProducts];
const SETS: [&str; 3] = ["none", "mem_prunes", "time_falls_back"];
const BUDGETS: [usize; 2] = [100, 4_000];

/// `explore_pins.rs`'s estimator, fitted on every model's sample so
/// that the accuracy forest reads the model: all five components
/// fitted.
fn fixture() -> (Vec<Dataset>, GrayBoxEstimator) {
    let exec = ExecutionOptions {
        epochs: 1,
        train: true,
        train_batches_cap: Some(1),
        ..Default::default()
    };
    let profiler =
        Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), exec).with_threads(2);
    let configs: Vec<TrainingConfig> =
        ModelKind::ALL.iter().flat_map(|&m| DesignSpace::standard().sample(8, m, 5)).collect();
    let mut db = ProfileDb::new();
    let mut explored = Vec::new();
    for id in DATASETS {
        let small = Dataset::load_scaled(id, 0.02).expect("load");
        db.merge(profiler.profile(&small, &configs).expect("profile"));
        explored.push(Dataset::load_scaled(id, 0.25).expect("load"));
    }
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");
    assert!(estimator.predicts_accuracy(), "the accuracy table is covered");
    (explored, estimator)
}

/// `explore_pins.rs`'s three constraint shapes.
fn constraints(set: &str, dataset: &Dataset) -> RuntimeConstraints {
    match set {
        "none" => RuntimeConstraints::none(),
        "mem_prunes" => RuntimeConstraints {
            max_mem_bytes: Some(
                0.9 * 0.5 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0,
            ),
            ..RuntimeConstraints::none()
        },
        _ => RuntimeConstraints { max_time_s: Some(1e-12), ..RuntimeConstraints::none() },
    }
}

fn bits(e: &PerfEstimate) -> [u64; 5] {
    [e.time_s, e.mem_bytes, e.accuracy, e.batch_nodes, e.hit_rate].map(f64::to_bits)
}

#[test]
fn every_estimate_through_the_tables_is_the_fresh_prediction() {
    let (datasets, estimator) = fixture();
    let platform = Platform::default_rtx4090();
    let seeds: Vec<TrainingConfig> = Template::ALL.iter().map(|t| t.config(MODEL)).collect();
    let mut checked = 0usize;
    for (dataset, id) in datasets.iter().zip(DATASETS) {
        // Fresh tables for every reference prediction: `predict` takes
        // a `Context`, and this context is only its factory.
        let pctx = PredictionContext::new(dataset, &platform);
        let alone = |config: &TrainingConfig| estimator.predict(&pctx.context(config.clone()));
        for set in SETS {
            let constraints = constraints(set, dataset);
            for budget in BUDGETS {
                let label = format!("{id:?} {set} budget {budget}");
                let dfs = DfsExplorer::new(DesignSpace::standard(), budget, Explorer::DEFAULT_SEED);
                let outcome =
                    dfs.run_audited(&estimator, dataset, &platform, MODEL, &constraints, &seeds);
                let candidates: Vec<_> = outcome.accepted.iter().chain(&outcome.rejected).collect();
                assert_eq!(candidates.len(), outcome.stats.evaluated, "{label}: all finite");
                for c in candidates {
                    assert_eq!(
                        bits(&c.estimate),
                        bits(&alone(&c.config)),
                        "{label}: {}",
                        c.config.summary()
                    );
                }
                checked += outcome.stats.evaluated;

                let results = Explorer::new(&estimator, budget)
                    .explore_all(dataset, &platform, MODEL, &constraints)
                    .expect("explore");
                for (priority, result) in Priority::ALL.into_iter().zip(&results) {
                    let g = &result.guideline;
                    assert_eq!(bits(&g.estimate), bits(&alone(&g.config)), "{label} {priority}");
                }
            }
        }
    }
    // 4 templates + budget per walk, less what the pruning caps skip.
    assert!(checked > 20_000, "{checked} candidates checked");
}

/// One probe family: members agreeing on every input of one component
/// but `field`, and the output of that component.
struct Probe<'d> {
    field: &'static str,
    dataset: &'d Dataset,
    members: Vec<TrainingConfig>,
    output: fn(&PerfEstimate) -> f64,
}

fn config(sampler: SamplerKind, fanouts: &[usize], batch_size: usize) -> TrainingConfig {
    TrainingConfig { sampler, fanouts: fanouts.to_vec(), batch_size, ..TrainingConfig::default() }
}

/// The probe families: over `explored`, whose mean degree caps no
/// fanout of the skeleton collisions; over `profiled`, where `|V_i|`
/// ranges over the top of `|V|`, the part the accuracy forest reads;
/// and over `tiny`, smaller than every batch, where `|V_i|` is `|V|`
/// whatever the batch size.
fn probes<'d>(explored: &'d Dataset, profiled: &'d Dataset, tiny: &'d Dataset) -> Vec<Probe<'d>> {
    use SamplerKind::{LayerWise, NodeWise, SubgraphWise};
    assert!(explored.stats().degrees.mean >= 10.0, "no fanout below is capped");
    assert!(tiny.num_nodes() < 128, "every batch below covers the graph");
    let vi = |e: &PerfEstimate| e.batch_nodes;
    let accuracy = |e: &PerfEstimate| e.accuracy;
    let with = |fanouts: &[&[usize]], batch_size| {
        fanouts.iter().map(|f| config(NodeWise, f, batch_size)).collect::<Vec<_>>()
    };
    vec![
        // Skeletons `|B^0| · (1 + k¹ + k¹k²)`, `|B^0| · (1 + Σk)` and
        // `|B^0| + Σ k|B^0|/4`, every one 9 · 128 exactly.
        Probe {
            field: "BatchSizeInput::sampler",
            dataset: explored,
            members: vec![
                config(NodeWise, &[2, 3], 128),
                config(SubgraphWise, &[4, 4], 128),
                config(LayerWise, &[16, 16], 128),
            ],
            output: vi,
        },
        // Node-wise skeletons of 768 from three batch sizes.
        Probe {
            field: "BatchSizeInput::batch_size",
            dataset: explored,
            members: vec![
                config(NodeWise, &[1, 10], 64),
                config(NodeWise, &[1, 4], 128),
                config(NodeWise, &[1, 1], 256),
            ],
            output: vi,
        },
        // The same cache and `η` from batches of 16 to 16 384: `|V_i|`
        // from a few hundred nodes to the whole graph.
        Probe {
            field: "HitRateInput::batch_nodes",
            dataset: explored,
            members: [16, 64, 256, 1024, 4096, 16_384]
                .map(|b| config(NodeWise, &[5, 5], b))
                .to_vec(),
            output: |e| e.hit_rate,
        },
        // One Σk and one |B^0|, another |V_i| each.
        Probe {
            field: "AccuracyInput::batch_nodes",
            dataset: profiled,
            members: with(&[&[1, 9], &[2, 8], &[3, 7], &[4, 6]], 64),
            output: accuracy,
        },
        Probe {
            field: "AccuracyInput::batch_size",
            dataset: tiny,
            members: [128, 256, 512, 1024].map(|b| config(NodeWise, &[5, 5], b)).to_vec(),
            output: accuracy,
        },
        Probe {
            field: "AccuracyInput::model",
            dataset: explored,
            members: ModelKind::ALL
                .iter()
                .map(|&model| TrainingConfig { model, ..TrainingConfig::default() })
                .collect(),
            output: accuracy,
        },
    ]
}

#[test]
fn inputs_that_differ_in_one_field_are_predicted_apart() {
    let (datasets, estimator) = fixture();
    let platform = Platform::default_rtx4090();
    let profiled = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let tiny = Dataset::synthetic(48, 4, 16, 4, 3).expect("synthetic");
    for probe in probes(&datasets[0], &profiled, &tiny) {
        let alone: Vec<PerfEstimate> = probe
            .members
            .iter()
            .map(|c| {
                let pctx = PredictionContext::new(probe.dataset, &platform);
                estimator.predict(&pctx.context(c.clone()))
            })
            .collect();
        let outputs: Vec<u64> = alone.iter().map(|e| (probe.output)(e).to_bits()).collect();
        assert!(
            outputs.iter().any(|&o| o != outputs[0]),
            "{}: the probe's members are answered alike, {outputs:x?}",
            probe.field
        );
        let mut pctx = PredictionContext::new(probe.dataset, &platform);
        let shared = estimator.predict_batch(&mut pctx, &probe.members);
        for ((got, want), c) in shared.iter().zip(&alone).zip(&probe.members) {
            assert_eq!(bits(got), bits(want), "{}: {}", probe.field, c.summary());
        }
    }
}

//! Locality-biased executions against golden reports.
//!
//! At `η > 0` one hot set (the top `r·|V|` nodes by degree) feeds two
//! consumers: the sampler's `p(η)` and the per-epoch target swap that
//! replaces cold training targets with hot ones. `golden_execute.rs`
//! pins whole reports at `η = 0` only, and `sample_pins.rs` pins the
//! sampler alone; this file pins what the two consumers do together.
//! The golden file holds the `Debug` rendering of every report below
//! (Rust prints floats shortest-round-trip, so equal text is equal
//! bits):
//!
//! - every sampler family × `η` ∈ {0.25, 1} × a static-degree and a
//!   dynamic (LRU) cache, two epochs each, plus one run with no cache
//!   (the hot set is then the top 10 % by degree);
//! - a device too small for the batch, so the degradation ladder
//!   shrinks the cache, micro-batches and finally rebuilds the sampler
//!   at reduced fanouts — straight through, and checkpointed after
//!   epoch 0 and resumed (the resumed session rebuilds that sampler
//!   from the checkpoint);
//! - one `switch_config` between two `η > 0` configs of different
//!   families, cache policies and ratios, with its migration charge.
//!
//! There is deliberately no regeneration switch: if a later change
//! moves these numbers on purpose, print `render()` from a scratch
//! test, review the diff, and replace the file by hand.

use gnnav_cache::CachePolicy;
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::{DeviceProfile, Platform};
use gnnav_runtime::{
    DegradationStep, ExecutionOptions, ExecutionSession, RuntimeBackend, SamplerKind,
    TrainingConfig,
};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/locality_reports.txt");

/// Device memory that holds the model but not a full-fanout
/// layer-wise batch even at the largest micro-batch factor: the
/// ladder walks every rung down to `ReduceFanout`.
const LADDER_CAPACITY_BYTES: usize = 40_000;

fn biased(sampler: SamplerKind, eta: f64, policy: CachePolicy, ratio: f64) -> TrainingConfig {
    TrainingConfig {
        sampler,
        fanouts: vec![10, 10],
        locality_eta: eta,
        batch_size: 64,
        cache_policy: policy,
        cache_ratio: ratio,
        hidden_dim: 16,
        ..TrainingConfig::default()
    }
}

fn opts() -> ExecutionOptions {
    ExecutionOptions { epochs: 2, seed: 0x10CA1, ..Default::default() }
}

fn render() -> String {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
    let platform = Platform::default_rtx4090();
    let backend = RuntimeBackend::new(platform.clone());
    let mut out = String::new();
    for sampler in SamplerKind::ALL {
        for eta in [0.25, 1.0] {
            for policy in [CachePolicy::StaticDegree, CachePolicy::Lru] {
                let config = biased(sampler, eta, policy, 0.1);
                let report = backend.execute(&dataset, &config, &opts()).expect("run");
                writeln!(out, "{sampler} eta {eta} {policy}: {report:?}").expect("write");
            }
        }
    }
    let config = biased(SamplerKind::NodeWise, 1.0, CachePolicy::None, 0.0);
    let report = backend.execute(&dataset, &config, &opts()).expect("run");
    writeln!(out, "node-wise eta 1 no cache: {report:?}").expect("write");

    // The ladder, straight through and resumed after epoch 0.
    let mut small = platform.clone();
    small.device = DeviceProfile { mem_capacity_bytes: LADDER_CAPACITY_BYTES, ..small.device };
    let config = biased(SamplerKind::LayerWise, 1.0, CachePolicy::Lru, 0.1);
    let report = RuntimeBackend::new(small.clone())
        .execute(&dataset, &config, &opts())
        .expect("the ladder absorbs the pressure");
    assert!(
        report
            .recovery
            .degradations
            .iter()
            .any(|s| matches!(s, DegradationStep::ReduceFanout { .. })),
        "the ladder must reach a fanout rebuild: {:?}",
        report.recovery.degradations
    );
    writeln!(out, "ladder: {report:?}").expect("write");
    let mut session =
        ExecutionSession::new(small.clone(), &dataset, &config, &opts()).expect("open");
    session.run_epoch().expect("epoch 0");
    let checkpoint = session.checkpoint();
    let mut resumed =
        ExecutionSession::resume(small, &dataset, &opts(), &checkpoint).expect("resume");
    resumed.run_epoch().expect("epoch 1");
    let report = resumed.finish().expect("finish");
    writeln!(out, "ladder resumed: {report:?}").expect("write");

    // A switch between two biased configs.
    let from = biased(SamplerKind::NodeWise, 0.25, CachePolicy::Lru, 0.1);
    let to = biased(SamplerKind::SubgraphWise, 1.0, CachePolicy::StaticDegree, 0.2);
    let mut session = ExecutionSession::new(platform, &dataset, &from, &opts()).expect("open");
    session.run_epoch().expect("epoch 0");
    let migration = session.switch_config(&to).expect("compatible and fits");
    session.run_epoch().expect("epoch 1");
    let report = session.finish().expect("finish");
    writeln!(out, "switch ({migration:?}): {report:?}").expect("write");
    out
}

#[test]
fn locality_biased_reports_match_the_golden_capture() {
    let got = render();
    let (mut got_lines, mut want_lines) = (got.lines(), GOLDEN.lines());
    loop {
        match (got_lines.next(), want_lines.next()) {
            (None, None) => break,
            (g, w) => assert_eq!(g, w, "report differs from the golden capture"),
        }
    }
}

//! A trace re-charged for a platform is that platform's execution.
//!
//! `ExecutionTrace::recharge` claims to return, without running
//! anything, the report `RuntimeBackend::execute` would return on
//! another platform — bit for bit, or `None` when that platform could
//! not have run the recorded execution unchanged. This file checks the
//! claim against real executions on the three presets, over a sample
//! of the design space chosen to cover every setting the cost model or
//! the cache reads, and checks each way a run stops being replayable.

use gnnav_cache::CachePolicy;
use gnnav_faults::{FaultKind, FaultPlan, FaultSpec};
use gnnav_graph::{Dataset, DatasetId, Split};
use gnnav_hwsim::{DeviceProfile, Platform, Precision};
use gnnav_nn::ModelKind;
use gnnav_runtime::{
    DesignSpace, ExecutionOptions, ExecutionSession, RuntimeBackend, SamplerKind, TrainingConfig,
};

fn presets() -> [Platform; 3] {
    [Platform::default_rtx4090(), Platform::default_a100(), Platform::default_m90()]
}

/// A few configs out of `DesignSpace::standard().sample(..)` for every
/// model kind that between them have every property below — picked
/// first-match from a larger sample, so the set is small and the
/// coverage is asserted rather than hoped for.
fn covering_sample() -> Vec<TrainingConfig> {
    let space = DesignSpace::standard();
    let sampled: Vec<TrainingConfig> = ModelKind::ALL
        .iter()
        .enumerate()
        .flat_map(|(m, &model)| space.sample(40, model, 0x21 + m as u64))
        .collect();
    type Want = (&'static str, Box<dyn Fn(&TrainingConfig) -> bool>);
    let cache = |policy: CachePolicy, update: bool| -> Box<dyn Fn(&TrainingConfig) -> bool> {
        Box::new(move |c| c.cache_policy == policy && c.cache_update == update)
    };
    let wants: Vec<Want> = vec![
        ("GCN", Box::new(|c| c.model == ModelKind::Gcn)),
        ("SAGE", Box::new(|c| c.model == ModelKind::Sage)),
        ("GAT", Box::new(|c| c.model == ModelKind::Gat)),
        ("node-wise", Box::new(|c| c.sampler == SamplerKind::NodeWise)),
        ("layer-wise", Box::new(|c| c.sampler == SamplerKind::LayerWise)),
        ("subgraph-wise", Box::new(|c| c.sampler == SamplerKind::SubgraphWise)),
        ("pipelined", Box::new(|c| c.pipelined)),
        ("serial", Box::new(|c| !c.pipelined)),
        ("eta > 0", Box::new(|c| c.locality_eta > 0.0)),
        ("FP16", Box::new(|c| c.precision == Precision::Fp16)),
        ("no cache", cache(CachePolicy::None, false)),
        ("static cache", cache(CachePolicy::StaticDegree, false)),
        ("LRU, updating", cache(CachePolicy::Lru, true)),
        ("LRU, frozen", cache(CachePolicy::Lru, false)),
        ("LFU, updating", cache(CachePolicy::Lfu, true)),
        ("LFU, frozen", cache(CachePolicy::Lfu, false)),
        ("three layers", Box::new(|c| c.fanouts.len() == 3)),
    ];
    let mut picked: Vec<TrainingConfig> = Vec::new();
    for (what, want) in &wants {
        if !picked.iter().any(want) {
            let config = sampled.iter().find(|c| want(c));
            picked.push(config.unwrap_or_else(|| panic!("no sampled config is {what}")).clone());
        }
    }
    picked
}

/// 1 and 2 epochs, with and without a training cap.
fn option_variants() -> [ExecutionOptions; 4] {
    let opts = |epochs, train_batches_cap| ExecutionOptions {
        epochs,
        train_batches_cap,
        seed: 0x7A51,
        ..ExecutionOptions::default()
    };
    [opts(1, Some(2)), opts(2, None), opts(1, None), opts(2, Some(1))]
}

#[test]
fn recharged_reports_equal_executed_reports_on_every_preset() {
    let configs = covering_sample();
    let variants = option_variants();
    let datasets = [
        Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load RD2"),
        Dataset::load_scaled(DatasetId::OgbnProducts, 0.05).expect("load PR"),
    ];
    for (d, dataset) in datasets.iter().enumerate() {
        for (i, config) in configs.iter().enumerate() {
            // Each config meets two of the four option variants, one
            // per dataset.
            let opts = &variants[(i + d) % variants.len()];
            let what = format!("{:?} {} {opts:?}", dataset.id(), config.summary());
            let executed: Vec<_> = presets()
                .into_iter()
                .map(|platform| {
                    let (report, trace) = RuntimeBackend::new(platform)
                        .execute_traced(dataset, config, opts)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    (report, trace.unwrap_or_else(|| panic!("{what}: a clean run has a trace")))
                })
                .collect();
            for (recorded_on, (_, trace)) in executed.iter().enumerate() {
                assert_eq!(trace, &executed[0].1, "{what}: the trace is platform-free");
                for (platform, (report, _)) in presets().iter().zip(&executed) {
                    assert_eq!(
                        trace.recharge(platform).as_ref(),
                        Some(report),
                        "{what}: recorded on preset {recorded_on}, re-charged on {}",
                        platform.device.name
                    );
                }
            }
        }
    }
}

fn small_config() -> TrainingConfig {
    TrainingConfig { batch_size: 64, fanouts: vec![5, 5], hidden_dim: 16, ..Default::default() }
}

fn capped_opts() -> ExecutionOptions {
    ExecutionOptions { epochs: 1, train_batches_cap: Some(2), ..Default::default() }
}

fn with_capacity(mem_capacity_bytes: usize) -> Platform {
    let mut platform = Platform::default_rtx4090();
    platform.device = DeviceProfile { mem_capacity_bytes, ..platform.device };
    platform
}

#[test]
fn recharge_declines_exactly_the_platforms_that_would_have_degraded() {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
    let (config, opts) = (small_config(), capped_opts());
    let (clean, trace) = RuntimeBackend::new(Platform::default_rtx4090())
        .execute_traced(&dataset, &config, &opts)
        .expect("clean run");
    let trace = trace.expect("clean run has a trace");
    let peak = clean.perf.peak_mem_bytes;
    assert_eq!(trace.peak_mem_bytes(), peak);

    // Capacity == peak: every claim still fits, the run is unchanged.
    let snug = with_capacity(peak);
    let (report, snug_trace) =
        RuntimeBackend::new(snug.clone()).execute_traced(&dataset, &config, &opts).expect("snug");
    assert_eq!(trace.recharge(&snug), Some(report));
    assert_eq!(snug_trace.as_ref(), Some(&trace));

    // One byte less: the claim that set the peak fails, the ladder
    // walks — a different run, which `recharge` will not impersonate
    // and which leaves no trace of its own.
    let tight = with_capacity(peak - 1);
    assert_eq!(trace.recharge(&tight), None);
    let (report, tight_trace) =
        RuntimeBackend::new(tight).execute_traced(&dataset, &config, &opts).expect("degraded");
    assert!(report.recovery.retries > 0 && !report.recovery.degradations.is_empty());
    assert_eq!(report.recovery.faults_injected, 0, "real pressure, nothing injected");
    assert_eq!(tight_trace, None);
}

#[test]
fn faulted_retried_switched_and_resumed_runs_leave_no_trace() {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
    let backend = RuntimeBackend::new(Platform::default_rtx4090());
    let config = small_config();
    let traced = |opts: &ExecutionOptions| {
        backend.execute_traced(&dataset, &config, opts).expect("run survives")
    };

    // A plan with no rules is no plan.
    let (report, trace) =
        traced(&ExecutionOptions { fault_plan: Some(FaultPlan::new(3)), ..capped_opts() });
    assert!(report.recovery.is_clean() && trace.is_some());

    // A non-empty plan rules the trace out even when it never fires.
    let silent =
        FaultPlan::new(3).with_fault(FaultSpec::new(FaultKind::LinkDegrade).with_probability(0.0));
    let (report, trace) = traced(&ExecutionOptions { fault_plan: Some(silent), ..capped_opts() });
    assert!(report.recovery.is_clean());
    assert_eq!(trace, None);

    // Retried, no ladder step: the backoff pauses are on the clock.
    let spikes = FaultPlan::new(11).with_fault(
        FaultSpec::new(FaultKind::TransientOom)
            .with_magnitude(1e12)
            .with_window(0, 2)
            .with_duration_attempts(2),
    );
    let (report, trace) = traced(&ExecutionOptions { fault_plan: Some(spikes), ..capped_opts() });
    assert!(report.recovery.retries > 0 && report.recovery.degradations.is_empty());
    assert_eq!(trace, None);

    // A config switch charges a migration that is not a mini-batch.
    let opts = ExecutionOptions { epochs: 2, ..capped_opts() };
    let platform = Platform::default_rtx4090();
    let mut session =
        ExecutionSession::new(platform.clone(), &dataset, &config, &opts).expect("open");
    session.run_epoch().expect("epoch 0");
    session.switch_config(&TrainingConfig { pipelined: false, ..config.clone() }).expect("switch");
    session.run_epoch().expect("epoch 1");
    assert_eq!(session.finish_traced().expect("finish").1, None);

    // A resumed session never saw the earlier epochs' batches.
    let mut session =
        ExecutionSession::new(platform.clone(), &dataset, &config, &opts).expect("open");
    session.run_epoch().expect("epoch 0");
    let checkpoint = session.checkpoint();
    let mut resumed =
        ExecutionSession::resume(platform, &dataset, &opts, &checkpoint).expect("resume");
    resumed.run_epoch().expect("epoch 1");
    let (report, trace) = resumed.finish_traced().expect("finish");
    assert_eq!(trace, None);
    assert_eq!(report, traced(&opts).0, "while the resumed report is the straight run's");
}

#[test]
fn zero_batch_runs_round_trip() {
    let base = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
    let test = base.split().test.clone();
    let dataset =
        base.with_split(Split { train: Vec::new(), val: Vec::new(), test }).expect("split");
    let opts = ExecutionOptions::timing_only();
    let (_, trace) = RuntimeBackend::new(Platform::default_a100())
        .execute_traced(&dataset, &small_config(), &opts)
        .expect("run");
    let trace = trace.expect("no batches is still a clean run");
    assert_eq!(trace.num_batches(), 0);
    for platform in presets() {
        let executed = RuntimeBackend::new(platform.clone())
            .execute(&dataset, &small_config(), &opts)
            .expect("run");
        assert_eq!(executed.perf.n_iter, 0);
        assert_eq!(trace.recharge(&platform), Some(executed));
    }
}

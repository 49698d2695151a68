//! Overhead of the gnnav-obs instrumentation compiled into
//! `RuntimeBackend::execute`.
//!
//! The disabled registry must be near-free (one relaxed atomic load
//! per instrumented site): the `disabled` and `enabled` groups time
//! the identical workload with the global registry off and on, and the
//! `registry_primitives` group pins the per-call cost of the disabled
//! recording paths themselves.
//!
//! The `enabled` primitive group pins the cost ceiling of the
//! recording paths on an enabled registry: each `add`, `observe` and
//! span drop takes the registry's one lock and updates a plain value
//! found by name, copying the name only when the series is new.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_runtime::{ExecutionOptions, RuntimeBackend, TrainingConfig};

fn bench_execute_disabled_vs_enabled(c: &mut Criterion) {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.1).expect("load");
    let backend = RuntimeBackend::new(Platform::default_rtx4090());
    let opts = ExecutionOptions::timing_only();
    let config = TrainingConfig::default();
    let mut group = c.benchmark_group("obs_overhead_execute");
    group.sample_size(10);
    group.bench_function("disabled", |b| {
        gnnav_obs::global().enable(false);
        b.iter(|| backend.execute(&dataset, &config, &opts).expect("run"));
    });
    group.bench_function("enabled", |b| {
        gnnav_obs::global().enable(true);
        b.iter(|| backend.execute(&dataset, &config, &opts).expect("run"));
        gnnav_obs::global().enable(false);
        gnnav_obs::global().reset();
    });
    group.finish();
}

fn bench_registry_primitives(c: &mut Criterion) {
    let registry = gnnav_obs::Registry::new();
    let mut group = c.benchmark_group("obs_registry_primitives");
    group.bench_function("disabled_counter_add", |b| {
        b.iter(|| registry.add(black_box("bench.counter"), black_box(1)));
    });
    group.bench_function("disabled_gauge_set", |b| {
        b.iter(|| registry.gauge_set(black_box("bench.gauge"), black_box(1.5)));
    });
    group.bench_function("disabled_span", |b| {
        b.iter(|| drop(registry.span(black_box("bench.span"))));
    });
    group.finish();
}

fn bench_registry_enabled_paths(c: &mut Criterion) {
    let registry = gnnav_obs::Registry::new();
    registry.enable(true);
    let mut group = c.benchmark_group("obs_registry_enabled");
    group.bench_function("enabled_counter_add", |b| {
        b.iter(|| registry.add(black_box("bench.counter"), black_box(1)));
    });
    group.bench_function("enabled_observe", |b| {
        // The first call creates the series; steady state is one lock,
        // one name lookup and one bucket increment.
        b.iter(|| registry.observe(black_box("bench.hist"), black_box(1.5e-3)));
    });
    group.bench_function("enabled_span", |b| {
        b.iter(|| drop(registry.span(black_box("bench.span"))));
    });
    group.finish();
}

fn bench_alloc_tracking(c: &mut Criterion) {
    // The counting global allocator wraps every workspace allocation,
    // so its passthrough (tracking off: one relaxed load) and
    // tracking (four atomic RMWs per alloc/free pair) costs bound
    // what `Registry::enable` adds to *all* code, not just
    // instrumented sites. The workload is one Vec round trip — the
    // hot-path shape the steady-state gate cares about.
    let mut group = c.benchmark_group("obs_alloc_tracking");
    group.bench_function("passthrough_alloc_free", |b| {
        gnnav_obs::alloc::set_tracking(false);
        b.iter(|| drop(black_box(Vec::<u8>::with_capacity(black_box(256)))));
    });
    group.bench_function("tracking_alloc_free", |b| {
        gnnav_obs::alloc::set_tracking(true);
        b.iter(|| drop(black_box(Vec::<u8>::with_capacity(black_box(256)))));
        gnnav_obs::alloc::set_tracking(false);
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_execute_disabled_vs_enabled,
    bench_registry_primitives,
    bench_registry_enabled_paths,
    bench_alloc_tracking
);
criterion_main!(benches);

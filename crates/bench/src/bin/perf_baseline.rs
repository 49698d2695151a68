//! Regenerates the committed metrics-diff baselines.
//!
//! ```sh
//! cargo run --release -p gnnav-bench --bin perf_baseline -- .
//! ```
//!
//! Writes `BENCH_backend.json` (a seeded `RuntimeBackend::execute`
//! run) and `BENCH_explorer.json` (a seeded single-threaded
//! profile → fit → explore pipeline) into the output directory —
//! CI replays the same workloads and gates them with
//! `gnnavigate metrics-diff`.
//!
//! Both workloads are fully deterministic: fixed seeds, fixed scales,
//! and a single profiler thread (the threaded sweep's gauge
//! last-write-wins order is scheduler-dependent). Wall-clock series
//! (anything named `*wall*`, `*latency*`, `*per_s*`, `*utilization*`)
//! and histograms (which summarize wall durations) are stripped
//! before writing: only simulator-determined counters and gauges are
//! stable enough to gate.

use gnnav_estimator::{GrayBoxEstimator, Profiler};
use gnnav_explorer::{
    explore_fingerprint, ExplorationResult, ExploreCache, Explorer, Priority, RuntimeConstraints,
};
use gnnav_graph::{Dataset, DatasetId, FeatureSpec, Features, GraphBuilder};
use gnnav_hwsim::Platform;
use gnnav_nn::{Adam, GnnModel, Matrix, ModelKind};
use gnnav_obs::names as metric;
use gnnav_obs::Snapshot;
use gnnav_runtime::{
    DesignSpace, DurabilityOptions, ExecutionOptions, RuntimeBackend, TrainingConfig,
};
use std::path::Path;

const SCALE: f64 = 0.02;
const SEED: u64 = 0x7A51;

/// Counters that must stay at zero on a clean (fault-free) run; a
/// non-zero value means recovery machinery fired where none should
/// have, which would silently shift every other series in the
/// baseline. `alloc.steady_state_allocs_per_epoch` rides along: the
/// training hot path's zero-allocation steady state is a gated
/// invariant, not just a claim.
const PINNED_ZERO: [&str; 16] = [
    metric::FAULTS_INJECTED,
    metric::BACKEND_RETRIES,
    metric::BACKEND_DEGRADATIONS,
    metric::BACKEND_NAN_SKIPS,
    metric::PROFILER_RETRIES,
    metric::PROFILER_QUARANTINED,
    metric::EXPLORER_FALLBACKS,
    metric::EXPLORER_NONFINITE,
    metric::ALLOC_STEADY_PER_EPOCH,
    // The baseline workloads run on the ephemeral path: nothing may
    // touch the durable store. The checkpoint cost that *is* gated
    // rides along under `bench.checkpoint.*` (see `durable_probe`).
    metric::STORE_WAL_APPENDS,
    metric::STORE_WAL_REPLAYED,
    metric::STORE_WAL_TORN_TRUNCATED,
    metric::STORE_WAL_CRC_FAILURES,
    metric::STORE_CHECKPOINT_WRITES,
    metric::STORE_CHECKPOINT_RESUMES,
    metric::STORE_CHECKPOINT_REJECTED,
];

/// Per-epoch checkpoint write cost, measured by `durable_probe` in an
/// isolated metrics window and folded into `BENCH_backend.json` under
/// these names (so the `store.*` series proper stay pinned at zero).
const BENCH_CHECKPOINT_WRITES: &str = "bench.checkpoint.writes";
const BENCH_CHECKPOINT_BYTES_PER_WRITE: &str = "bench.checkpoint.bytes_per_write";

/// Repeat-navigation cost, measured by `navigation_probe` in an
/// isolated metrics window and folded into `BENCH_explorer.json`:
/// a warm run against the exploration-result cache must evaluate zero
/// candidates (`warm_evaluated` pinned at 0, `cache_hits` at 1) while
/// the cold run's effort and cache writes are gated alongside.
const BENCH_NAV_COLD_EVALUATED: &str = "bench.navigation.cold_evaluated";
const BENCH_NAV_WARM_EVALUATED: &str = "bench.navigation.warm_evaluated";
const BENCH_NAV_CACHE_HITS: &str = "bench.navigation.cache_hits";
const BENCH_NAV_CACHE_MISSES: &str = "bench.navigation.cache_misses";
const BENCH_NAV_CACHE_INSERTS: &str = "bench.navigation.cache_inserts";

fn assert_clean(name: &str, snapshot: &Snapshot) {
    for key in PINNED_ZERO {
        let v = snapshot.counters.get(key).copied().unwrap_or(0);
        assert_eq!(v, 0, "{name}: zero-pinned counter {key} = {v} on a clean run");
    }
}

fn deterministic(snapshot: Snapshot) -> Snapshot {
    let mut kept = snapshot.filtered(|name| {
        !["wall", "latency", "per_s", "utilization"].iter().any(|frag| name.contains(frag))
    });
    kept.histograms.clear();
    // Whole-run allocator gauges track every Vec the process grows —
    // too incidental to gate (any refactor shifts them). The gated
    // allocation series is the steady-state counter pinned above.
    kept.gauges.retain(|name, _| !name.starts_with("alloc."));
    kept
}

/// Runs the backend workload once on the durable path in a throwaway
/// checkpoint directory and returns `(writes, bytes_per_write)` — the
/// per-epoch checkpoint write cost. Measured in its own metrics window
/// so the `store.*` series stay zero-pinned on the snapshot proper.
fn durable_probe(dataset: &Dataset) -> (u64, u64) {
    let metrics = gnnav_obs::global();
    metrics.reset();
    let dir = std::env::temp_dir().join(format!("gnnav-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = RuntimeBackend::new(Platform::default_rtx4090());
    let opts = ExecutionOptions { epochs: 2, seed: SEED, ..Default::default() };
    let dur = DurabilityOptions::new(&dir, 1);
    backend
        .execute_durable(dataset, &TrainingConfig::default(), &opts, &dur)
        .expect("durable backend run");
    let snap = metrics.snapshot();
    let writes = snap.counters.get(metric::STORE_CHECKPOINT_WRITES).copied().unwrap_or(0);
    let bytes = snap.gauges.get(metric::STORE_CHECKPOINT_BYTES).copied().unwrap_or(0.0) as u64;
    let _ = std::fs::remove_dir_all(&dir);
    assert!(writes > 0, "durable probe wrote no checkpoints");
    (writes, bytes)
}

fn backend_baseline(dataset: &Dataset) -> Snapshot {
    let (ckpt_writes, ckpt_bytes) = durable_probe(dataset);
    let metrics = gnnav_obs::global();
    metrics.reset();
    let backend = RuntimeBackend::new(Platform::default_rtx4090());
    let opts = ExecutionOptions { epochs: 2, seed: SEED, ..Default::default() };
    backend.execute(dataset, &TrainingConfig::default(), &opts).expect("backend run");
    metrics.add(BENCH_CHECKPOINT_WRITES, ckpt_writes);
    metrics.add(BENCH_CHECKPOINT_BYTES_PER_WRITE, ckpt_bytes);
    deterministic(metrics.snapshot())
}

/// Runs the exploration workload cold (fresh DSE appended to a
/// throwaway exploration-result cache) and warm (served back from it)
/// in an isolated metrics window, asserting the repeat-navigation
/// contract: zero candidates evaluated on the warm path, a
/// byte-identical result, and a warm wall time that beats the cold
/// exploration outright. Returns the `bench.navigation.*` counters to
/// fold into `BENCH_explorer.json`.
fn navigation_probe(dataset: &Dataset, estimator: &GrayBoxEstimator) -> [(&'static str, u64); 5] {
    let metrics = gnnav_obs::global();
    metrics.reset();
    let dir = std::env::temp_dir().join(format!("gnnav-bench-ecache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache dir");
    let mut cache = ExploreCache::open(dir.join("explore.wal")).expect("open cache");

    let explorer = Explorer::new(estimator, 300).with_seed(SEED);
    let platform = Platform::default_rtx4090();
    let constraints = RuntimeConstraints::none();
    let fingerprint = explore_fingerprint(
        dataset,
        &platform,
        ModelKind::Sage,
        &DesignSpace::standard(),
        Priority::Balance,
        &constraints,
        explorer.budget(),
        explorer.seed(),
        "perf_baseline",
    );

    let counter =
        |name: &str| gnnav_obs::global().snapshot().counters.get(name).copied().unwrap_or(0);
    let cold_t0 = std::time::Instant::now();
    assert!(cache.lookup(fingerprint).is_none(), "throwaway cache must start cold");
    let cold = explorer
        .explore(dataset, &platform, ModelKind::Sage, Priority::Balance, &constraints)
        .expect("cold explore");
    cache.insert(fingerprint, &cold).expect("insert");
    let cold_wall = cold_t0.elapsed();
    let cold_evaluated = counter(metric::EXPLORER_EVALUATED);

    let warm_t0 = std::time::Instant::now();
    let warm = cache.lookup(fingerprint).expect("warm hit").clone();
    let warm_wall = warm_t0.elapsed();
    let warm_evaluated = counter(metric::EXPLORER_EVALUATED) - cold_evaluated;
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        format!("{warm:?}"),
        format!("{cold:?}"),
        "cached result must round-trip byte-identically"
    );
    assert_eq!(warm_evaluated, 0, "warm navigation must not evaluate a single candidate");
    assert!(
        warm_wall * 10 < cold_wall,
        "warm navigation ({warm_wall:?}) must beat cold exploration ({cold_wall:?}) outright"
    );
    [
        (BENCH_NAV_COLD_EVALUATED, cold_evaluated),
        (BENCH_NAV_WARM_EVALUATED, warm_evaluated),
        (BENCH_NAV_CACHE_HITS, cache.hits()),
        (BENCH_NAV_CACHE_MISSES, cache.misses()),
        (BENCH_NAV_CACHE_INSERTS, cache.inserts()),
    ]
}

fn explorer_baseline(dataset: &Dataset) -> Snapshot {
    let metrics = gnnav_obs::global();
    metrics.reset();
    let profiler = Profiler::new(
        RuntimeBackend::new(Platform::default_rtx4090()),
        ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(2),
            seed: SEED,
            ..Default::default()
        },
    )
    .with_threads(1);
    let configs = DesignSpace::standard().sample(24, ModelKind::Sage, SEED);
    let db = profiler.profile(dataset, &configs).expect("profile sweep");
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");
    let explorer = Explorer::new(&estimator, 300).with_seed(SEED);
    let open = explorer
        .explore(
            dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            Priority::Balance,
            &RuntimeConstraints::none(),
        )
        .expect("explore");
    let mut snapshot = deterministic(metrics.snapshot());
    // The repeat-navigation and constrained probes run in their own
    // metrics windows (the baseline snapshot above is already taken);
    // only their gated counters are folded in.
    for (name, value) in navigation_probe(dataset, &estimator)
        .into_iter()
        .chain(constrained_probe(dataset, &explorer, &open))
    {
        snapshot.counters.insert(name.to_string(), value);
    }
    snapshot
}

/// Linear-interpolated lower quartile of a non-empty sample.
fn lower_quartile(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let pos = 0.25 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Re-runs the exploration under the two caps `benchmark`'s
/// `explore_sweep` sets, in an isolated metrics window, and returns its
/// pruned, rejected and fallback counts: time at the lower quartile of
/// what the unconstrained run `open` evaluated (candidates get
/// rejected), memory at 0.9 × the largest cache's Eq. 10 lower bound
/// (that subtree gets pruned; the lower quartile of memory sits above
/// every cache's bound here and prunes nothing). The unconstrained
/// baseline prunes and rejects nothing, so without this probe no
/// committed series would move if constraint handling broke.
fn constrained_probe(
    dataset: &Dataset,
    explorer: &Explorer<'_>,
    open: &ExplorationResult,
) -> [(&'static str, u64); 3] {
    let metrics = gnnav_obs::global();
    metrics.reset();
    let largest_ratio = DesignSpace::standard().cache_ratios.into_iter().fold(0.0, f64::max);
    let largest_cache =
        largest_ratio * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0;
    let constraints = RuntimeConstraints {
        max_time_s: Some(lower_quartile(open.evaluated.iter().map(|c| c.estimate.time_s))),
        max_mem_bytes: Some(0.9 * largest_cache),
        min_accuracy: None,
    };
    explorer
        .explore(
            dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            Priority::Balance,
            &constraints,
        )
        .expect("constrained explore");
    let counters = metrics.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let pruned = counter(metric::EXPLORER_PRUNED);
    let rejected = counter(metric::EXPLORER_REJECTED);
    assert!(pruned > 0 && rejected > 0, "constrained probe pruned {pruned}, rejected {rejected}");
    [
        (metric::BENCH_CONSTRAINED_PRUNED, pruned),
        (metric::BENCH_CONSTRAINED_REJECTED, rejected),
        (metric::BENCH_CONSTRAINED_FALLBACKS, counter(metric::EXPLORER_FALLBACKS)),
    ]
}

/// A fixed training workload over all three model kinds, recording the
/// kernel-level counters (matmul calls/flops, pool regions/tasks) that
/// `gnnavigate metrics-diff` gates as `BENCH_nn.json`.
fn nn_baseline() -> Snapshot {
    let metrics = gnnav_obs::global();
    metrics.reset();
    // Two deterministic communities, large enough that every kernel
    // takes its blocked path at least once.
    let n = 192usize;
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        b.add_edge(v, (v + 1) % n as u32);
        b.add_edge(v, (v + 7) % n as u32);
    }
    let g = b.symmetrize().build().expect("build");
    let comm: Vec<u32> = (0..n as u32).map(|v| v % 4).collect();
    let feats = Features::synthesize(&comm, &FeatureSpec::new(32, 4).with_noise(0.5), SEED);
    let x = Matrix::from_vec(n, 32, feats.matrix().to_vec());
    let labels = feats.labels().to_vec();
    let targets: Vec<u32> = (0..n as u32).collect();

    let ks0 = gnnav_nn::kernel_stats();
    let ps0 = gnnav_par::stats();
    for kind in ModelKind::ALL {
        let mut model = GnnModel::new(kind, 32, 32, 4, 2, SEED);
        let mut opt = Adam::new(0.01);
        for _ in 0..4 {
            gnnav_nn::train::train_step(&mut model, &mut opt, &g, &x, &labels, &targets);
        }
    }
    let ks = gnnav_nn::kernel_stats();
    let ps = gnnav_par::stats();
    metrics.add(metric::NN_MATMUL_CALLS, ks.matmul_calls - ks0.matmul_calls);
    metrics.add(metric::NN_MATMUL_FLOPS, ks.matmul_flops - ks0.matmul_flops);
    metrics.add(metric::NN_KERNEL_PAR_REGIONS, ps.regions - ps0.regions);
    // Deterministic only because the pool is pinned to one thread: a
    // region's task count equals its worker count.
    metrics.add(metric::NN_KERNEL_PAR_TASKS, ps.tasks - ps0.tasks);
    // The committed throughput floor rides along as a gated counter so
    // metrics-diff flags any change to the performance bar itself; the
    // measured-vs-floor assertion runs in the `gflops_sweep` binary.
    metrics.add(metric::NN_MATMUL_GFLOPS_FLOOR, gnnav_bench::MATMUL_GFLOPS_FLOOR as u64);
    metrics.gauge_set(metric::PAR_POOL_THREADS, gnnav_par::effective_threads() as f64);
    deterministic(metrics.snapshot())
}

fn main() {
    // Pin the kernel pool to a single thread before the first
    // gnnav-par call (the GNNAV_THREADS read is cached): pool-width
    // dependent series (par task counts, the pool gauge) must not vary
    // with the machine that regenerates a baseline. Kernel results
    // themselves are bitwise identical at any width; this pins only
    // the *counters*.
    std::env::set_var("GNNAV_THREADS", "1");
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let out_dir = Path::new(&out_dir);
    gnnav_obs::global().enable(true);
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, SCALE).expect("load dataset");

    for (name, snapshot) in [
        ("BENCH_backend.json", backend_baseline(&dataset)),
        ("BENCH_explorer.json", explorer_baseline(&dataset)),
        ("BENCH_nn.json", nn_baseline()),
    ] {
        assert_clean(name, &snapshot);
        let path = out_dir.join(name);
        if let Err(e) = std::fs::write(&path, snapshot.to_json()) {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "{} written ({} counters, {} gauges)",
            path.display(),
            snapshot.counters.len(),
            snapshot.gauges.len()
        );
    }
}

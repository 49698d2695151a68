//! The six workloads. Names are fixed: later issues cite them.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::calib::{Calibrator, Interval};
use crate::cpu::Cpus;
use crate::trace::Tracer;

pub mod explore;
pub mod navigate;
pub mod serve;
pub mod train;

/// Workload names with the reason each exists (mirrored in
/// `BENCHMARK.json`; `tests::benchmark_json_matches_the_code` keeps
/// the two in step).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "cold_navigate",
        "first-time user: fresh stores, profile sweep + fit + DSE + apply; backend, nn, sampler \
         and cache do the work, explorer and serve almost none",
    ),
    (
        "warm_navigate",
        "repeat user: stores populated, zero configs profiled; WAL replay, fingerprinting and \
         estimator fit dominate, the backend is bypassed",
    ),
    (
        "explore_sweep",
        "DSE alone over 2 datasets x 4 priorities x 3 constraint sets (pruned>0, rejected>0); \
         no profiling, no store, no backend",
    ),
    (
        "serve_zipf",
        "operator steady state: zipf 1.1 tenants, burst 80 > queue 64; cache hits dominate, 20% \
         rejected by design, no durable stores",
    ),
    (
        "serve_durable_uniform",
        "same server the other way: every tenant asks once, burst 32, durable stores; mostly fresh \
         explorations with one WAL append each, result cache mostly missed",
    ),
    (
        "train_apply",
        "applying a guideline: PaGraphFull on PR@0.1 for GCN, SAGE, GAT; steady-state sample, \
         gather, fwd/bwd with no estimator and no explorer",
    ),
];

/// Run-wide inputs every workload derives its own inputs from.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Smoke mode: inputs, request counts and budgets cut about 10x.
    pub quick: bool,
    /// The CPUs the process started on; the workloads run pinned to
    /// one of them, at thread width 1.
    pub cpus: Cpus,
    /// Scratch directory inside the checkout, removed on exit.
    pub dir: PathBuf,
    /// The calibration kernel, sampling the machine's speed on a
    /// thread of its own: the clock every interval is timed on.
    pub calib: Calibrator,
}

impl Ctx {
    /// Runs `f(width)` on every CPU the process started on, at that
    /// thread width, then returns to the measuring CPU: for the rows
    /// that compare one thread with all of them.
    pub fn on_all_cpus<R>(&self, f: impl FnOnce(usize) -> R) -> R {
        self.cpus.unpin();
        let width = self.cpus.count();
        let out = gnnavigator::par::with_thread_limit(width, || f(width));
        self.cpus.pin();
        out
    }

    /// Runs `f` and returns when it ran and the CPU time it took;
    /// `Calibrator::scaled_s` turns that into seconds.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (Interval, R) {
        let start = self.calib.stamp();
        let out = f();
        (Interval::between(start, self.calib.stamp()), out)
    }
}

/// What one repeat (fresh state, then `N` operations) measured.
#[derive(Debug, Default)]
pub struct Repeat {
    /// One latency sample per operation as its caller sees it.
    pub latencies: Vec<Interval>,
    /// The timed regions; together, the wall time of the repeat.
    pub wall: Vec<Interval>,
    /// Units of work completed in `wall` (see `work_unit`).
    pub work: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed output check or errored operation.
    pub failures: Vec<String>,
    /// Everything deterministic the repeat produced; must be the same
    /// string on every repeat of a run.
    pub digest: String,
    /// Deterministic counts and simulated-clock results, by per-layer
    /// metric name.
    pub counts: BTreeMap<String, f64>,
}

impl Repeat {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A set-up workload: owns its inputs and runs repeats on demand.
pub trait Workload {
    /// The unit `Repeat::work` counts, for the human table.
    fn work_unit(&self) -> &'static str;

    /// Runs one repeat: fresh state, then the workload's operations.
    /// With an enabled tracer the operations are driven layer by
    /// layer under spans; otherwise through the plain public API.
    ///
    /// # Errors
    ///
    /// An operation that cannot complete at all (as opposed to one
    /// that completes with a wrong output, which is a `failures` row).
    fn repeat(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<Repeat, String>;
}

/// Sets `name` up from `ctx` (dataset generation, store
/// pre-population, estimator fit): everything `setup_s` times.
///
/// # Errors
///
/// Unknown workload names and set-up failures.
pub fn setup(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cold_navigate" => Box::new(navigate::Navigate::setup(ctx, false)?),
        "warm_navigate" => Box::new(navigate::Navigate::setup(ctx, true)?),
        "explore_sweep" => Box::new(explore::ExploreSweep::setup(ctx)?),
        "serve_zipf" => Box::new(serve::Serve::setup(ctx, false)?),
        "serve_durable_uniform" => Box::new(serve::Serve::setup(ctx, true)?),
        "train_apply" => Box::new(train::TrainApply::setup(ctx)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// CRC-32 of a value's `Debug` rendering: the byte-identity digest.
pub fn digest_of(value: &impl std::fmt::Debug) -> String {
    format!("{:08x}", gnnavigator::store::crc32(format!("{value:?}").as_bytes()))
}

/// `e.to_string()` with the failing step named.
pub fn ctx_err<E: std::fmt::Display>(step: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{step}: {e}")
}

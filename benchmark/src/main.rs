//! The repository's wall-clock benchmark.
//!
//! ```sh
//! # one workload, one run (what the driver calls):
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_zipf --seed 31313 --seconds 10 --trace 0
//! # all six workloads, end-to-end and traced, with a table:
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run [--seed N] [--runs K]
//! # two result sets against the bounds:
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare a.json b.json
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics, and how
//! to read the trace.

mod calib;
mod cpu;
mod probes;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{RunResult, END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::{Ctx, Repeat};

/// Default workload seed (the seed `NavigatorOptions`, `ServeOptions`
/// and `LoadGenOptions` default to).
pub const DEFAULT_SEED: u64 = 0x7A51;
/// Default measuring time per run; `BENCHMARK.json` says the same.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Set-up is repeated until this many rounds or this many seconds,
/// whichever comes first, and `setup_s` is the median round: short
/// set-ups are noisy and cheap to repeat, long ones are neither.
const SETUP_ROUNDS: usize = 3;
const SETUP_SECONDS: f64 = 3.0;
/// Every run makes at least this many repeats, however long one
/// takes, so that each reported median has two sides.
const MIN_REPEATS: usize = 2;

/// Arguments of one measuring run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// `benchmark/out`, inside the checkout: the only place the benchmark
/// writes.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Removes the run's scratch directory when the run ends, however it
/// ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A repeat's timings: on the reference machine (see `calib.rs`), and
/// as this machine ran it.
struct Timings {
    latencies_s: Vec<f64>,
    /// The timed regions on the reference machine.
    work_s: f64,
    /// The CPU seconds they took here.
    cpu_s: f64,
    /// The wall seconds they took here, waits and bursts included.
    wall_s: f64,
}

impl Timings {
    /// Call once the bursts that follow the repeat have run.
    fn of(rep: &Repeat, calib: &calib::Calibrator) -> Self {
        Timings {
            latencies_s: rep.latencies.iter().map(|&l| calib.scaled_s(l)).collect(),
            work_s: rep.wall.iter().map(|&w| calib.scaled_s(w)).sum(),
            cpu_s: rep.wall.iter().map(|w| w.cpu_s).sum(),
            wall_s: rep.wall.iter().map(calib::Interval::wall_s).sum(),
        }
    }
}

/// Per-repeat statistics, then the median over repeats.
fn end_to_end(reps: &[(Repeat, Timings)], setup_s: &[f64]) -> BTreeMap<String, f64> {
    let over_repeats = |f: &dyn Fn(&Repeat, &Timings) -> f64| {
        stats::median(&reps.iter().map(|(r, t)| f(r, t)).collect::<Vec<_>>())
    };
    [
        ("latency_p50_ms", over_repeats(&|_, t| stats::median(&t.latencies_s) * 1e3)),
        (
            "latency_tail_ms",
            over_repeats(&|_, t| {
                let p = stats::tail_percentile(t.latencies_s.len());
                stats::percentile(&t.latencies_s, p) * 1e3
            }),
        ),
        ("throughput_per_s", over_repeats(&|r, t| r.work / t.work_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", stats::median(setup_s)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The per-layer table of a trace pass: span rows per operation of
/// the traced repeats, the last traced repeat's counts, the probes.
fn per_layer(
    args: &RunArgs,
    ctx: &Ctx,
    tracer: &Tracer,
    reps: &[(Repeat, Timings)],
) -> Result<BTreeMap<String, f64>, String> {
    let spans = tracer.spans();
    // Repeats alternate plain (even) and traced (odd). The latencies
    // of the two sides are on the calibrated clock, so they compare;
    // the span rows below stay raw seconds, with `obs.speed_factor`
    // next to them.
    let side = |odd: usize| reps.iter().skip(odd).step_by(2);
    let pooled = |odd: usize| -> Vec<f64> {
        side(odd).flat_map(|(_, t)| t.latencies_s.iter().copied()).collect()
    };
    let (plain, traced_latencies) = (pooled(0), pooled(1));
    let speed_factor =
        side(1).map(|(_, t)| t.work_s).sum::<f64>() / side(1).map(|(_, t)| t.cpu_s).sum::<f64>();
    let (traced, _) = reps.last().expect("a trace pass ends on a traced repeat");
    let ops = traced_latencies.len().max(1) as f64;
    let per_op = |name: &str| trace::total_seconds(&spans, name) / ops;
    // Smoke mode skips the probes (their rows read 0): they are sized
    // for a full trace pass and take longer than the rest of it.
    let mut out = if ctx.quick { BTreeMap::new() } else { probes::run(ctx)? };
    out.insert("obs.speed_factor".into(), speed_factor);
    out.extend(traced.counts.clone());
    for phase in ["open_stores", "prepare", "generate", "apply"] {
        out.insert(format!("core.{phase}_s"), per_op(&format!("core.{phase}")));
    }
    out.insert("estimator.profile_sweep_s".into(), per_op("estimator.profile"));
    for model in ["gcn", "sage", "gat"] {
        let name = format!("runtime.execute.{model}");
        let executes = trace::durations_seconds(&spans, &name);
        if !executes.is_empty() {
            out.insert(format!("runtime.execute_s.{model}"), stats::median(&executes));
        }
    }
    let explores = trace::durations_seconds(&spans, "explorer.explore");
    if !explores.is_empty() {
        out.insert("explorer.explore_s_p50".into(), stats::median(&explores));
    }
    let submits = trace::durations_seconds(&spans, "serve.submit");
    let drains = trace::durations_seconds(&spans, "serve.drain");
    if !drains.is_empty() {
        out.insert("serve.submit_us".into(), stats::median(&submits) * 1e6);
        out.insert("serve.drain_s_p50".into(), stats::median(&drains));
        out.insert("serve.drain_s_max".into(), drains.iter().copied().fold(0.0, f64::max));
        out.insert(
            "serve.hit_ratio".into(),
            traced.counts["serve.cache_hits"] / traced.counts["serve.responses"],
        );
    }
    for (layer, self_s) in trace::self_seconds_by_layer(&spans) {
        out.insert(format!("self_s.{layer}"), self_s / ops);
    }
    out.insert("obs.self_time_gap".into(), trace::worst_self_time_gap(&spans));
    out.insert(
        "obs.trace_overhead_share".into(),
        stats::median(&traced_latencies) / stats::median(&plain) - 1.0,
    );

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, trace::chrome_trace_json(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace: {} spans -> {}", spans.len(), path.display());
    Ok(out)
}

/// One measuring run of one workload.
///
/// # Errors
///
/// Set-up failures and operations that could not complete; failed
/// output checks are counted in the result instead.
pub fn measure(args: &RunArgs) -> Result<RunResult, String> {
    let cpus = cpu::Cpus::detect();
    let pinned = cpus.pin();
    eprintln!(
        "{}: {} CPUs, {}",
        args.workload,
        cpus.count(),
        if pinned { "pinned to one" } else { "pinning failed: one thread on any of them" }
    );
    let scratch = Scratch(out_dir().join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        quick: args.quick,
        cpus,
        dir: scratch.0.clone(),
        calib: calib::Calibrator::start(),
    };

    gnnavigator::par::with_thread_limit(1, || {
        let mut setup_s = Vec::new();
        let mut workload = None;
        let setting_up = Instant::now();
        let rounds = if args.quick { 1 } else { SETUP_ROUNDS };
        while setup_s.len() < rounds
            && (setup_s.is_empty() || setting_up.elapsed().as_secs_f64() < SETUP_SECONDS)
        {
            drop(workload.take());
            let (round, set_up) = ctx.time(|| {
                calib::warm_up();
                workloads::setup(&args.workload, &ctx)
            });
            workload = Some(set_up?);
            setup_s.push(ctx.calib.scaled_s(round));
        }
        let mut workload = workload.expect("at least one set-up round");

        // A trace pass alternates plain and traced repeats, so the two
        // sides of `obs.trace_overhead_share` see the same machine.
        let (quiet, tracer) = (Tracer::new(false), Tracer::new(true));
        let mut reps: Vec<(Repeat, Timings)> = Vec::new();
        let mut timed = 0.0;
        loop {
            let traced = args.trace && reps.len() % 2 == 1;
            let rep = workload.repeat(&ctx, if traced { &tracer } else { &quiet })?;
            let timings = Timings::of(&rep, &ctx.calib);
            eprintln!(
                "{} repeat {}: {:.3} s, {:.3} s of them on the CPU, {} samples, p50 {:.3} ms, \
                 machine at {:.2}x the reference, peak RSS {:.1} MiB{}",
                args.workload,
                reps.len(),
                timings.wall_s,
                timings.cpu_s,
                timings.latencies_s.len(),
                stats::median(&timings.latencies_s) * 1e3,
                timings.work_s / timings.cpu_s,
                peak_rss_mb(),
                if traced { ", traced" } else { "" }
            );
            let last = timings.wall_s;
            timed += last;
            reps.push((rep, timings));
            // Go on while another repeat (or pair) mostly fits.
            let enough = if args.trace {
                reps.len().is_multiple_of(2) && timed + last >= args.seconds
            } else {
                let min_repeats = if args.quick { 1 } else { MIN_REPEATS };
                reps.len() >= min_repeats && timed + last / 2.0 >= args.seconds
            };
            if enough {
                break;
            }
        }

        let values = if args.trace {
            per_layer(args, &ctx, &tracer, &reps)?
        } else {
            end_to_end(&reps, &setup_s)
        };

        let mut failures: Vec<String> = reps.iter().flat_map(|(r, _)| r.failures.clone()).collect();
        for (i, (rep, _)) in reps.iter().enumerate().skip(1) {
            if rep.digest != reps[0].0.digest {
                failures.push(format!(
                    "repeat {i} produced {} where repeat 0 produced {}",
                    rep.digest, reps[0].0.digest
                ));
            }
        }
        if args.trace && values["obs.self_time_gap"] > 0.05 {
            failures.push(format!(
                "layer self times miss their operation's wall by {:.1}%",
                values["obs.self_time_gap"] * 100.0
            ));
        }
        for failure in &failures {
            eprintln!("FAILED {}: {failure}", args.workload);
        }
        eprintln!(
            "{}: {} repeats, {:.2} s timed, {} set-up rounds, {} {}",
            args.workload,
            reps.len(),
            timed,
            setup_s.len(),
            reps.iter().map(|(r, _)| r.work).sum::<f64>(),
            workload.work_unit(),
        );
        let table: &[report::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let attempted = reps.iter().map(|(r, _)| r.attempted).sum::<u64>().max(1);
        Ok(RunResult::new(table, &values, attempted, failures.len() as u64))
    })
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage:\n  gnnav-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n  \
         gnnav-benchmark run [--seed N] [--seconds S] [--runs K] [--quick] [--out FILE]\n  \
         gnnav-benchmark compare <a.json> <b.json>\n  \
         gnnav-benchmark manifest   (prints BENCHMARK.json from the tables in the code)\n\
         workloads: {}",
        names.join(", ")
    )
}

/// Parses `--flag value` pairs (and the valueless `--quick`).
fn parse_flags(argv: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected `{flag}`"))?;
        let value = if name == "quick" {
            "1".to_string()
        } else {
            it.next().ok_or_else(|| format!("`{flag}` needs a value"))?.clone()
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

/// Seeds parse as decimal or `0x` hexadecimal.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("bad seed `{s}`: {e}"))
}

fn flag<T>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    flags.get(name).map_or(Ok(default), |v| parse(v))
}

fn run_args(flags: &BTreeMap<String, String>) -> Result<RunArgs, String> {
    let known = ["workload", "seed", "seconds", "trace", "quick"];
    if let Some(unknown) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag `--{unknown}`"));
    }
    let workload = flags.get("workload").ok_or("`--workload` is required")?.clone();
    if !workloads::WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = flag(flags, "seconds", DEFAULT_SECONDS, |s| {
        s.parse::<f64>().map_err(|e| format!("bad --seconds `{s}`: {e}"))
    })?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(RunArgs {
        workload,
        seed: flag(flags, "seed", DEFAULT_SEED, parse_seed)?,
        seconds,
        trace: flag(flags, "trace", false, |s| match s {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("--trace takes 0 or 1, got `{s}`")),
        })?,
        quick: flags.contains_key("quick"),
    })
}

fn real_main(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("run") => suite::run(&parse_flags(&argv[1..])?),
        Some("manifest") => {
            print!("{}", suite::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &argv[1..] {
            [a, b] => suite::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".into()),
        },
        Some(first) if first.starts_with("--") => {
            let args = run_args(&parse_flags(argv)?)?;
            let result = measure(&args)?;
            suite::print_result(&args, &result);
            // A failed check is in the result line (`correct`, `failed`);
            // the exit code says only that the line was printed.
            println!("{}", result.to_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    real_main(&argv).unwrap_or_else(|message| {
        eprintln!("gnnav-benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let flags = parse_flags(&strings(&[
            "--workload",
            "serve_zipf",
            "--seed",
            "0x7A51",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("flags");
        let args = run_args(&flags).expect("args");
        assert_eq!(
            args,
            RunArgs {
                workload: "serve_zipf".into(),
                seed: 0x7A51,
                seconds: 3.0,
                trace: true,
                quick: false
            }
        );
        assert_eq!(parse_seed("31313"), Ok(31313));
        assert!(run_args(&parse_flags(&strings(&["--workload", "nope"])).unwrap()).is_err());
        assert!(run_args(&parse_flags(&strings(&["--seed", "1"])).unwrap()).is_err());
        assert!(parse_flags(&strings(&["--seed"])).is_err());
    }

    /// `BENCHMARK.json` is the contract the driver reads; the tables
    /// in the code are what the program emits. They must not drift.
    #[test]
    fn benchmark_json_matches_the_code() {
        use gnnavigator::obs::json::{parse, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = parse(&text).expect("valid JSON");
        let rows = |key: &str| v.get(key).and_then(Value::as_arr).expect(key).to_vec();
        let field = |row: &Value, key: &str| {
            row.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("{key}")).to_string()
        };

        let declared: Vec<(String, String)> =
            rows("workloads").iter().map(|r| (field(r, "name"), field(r, "why"))).collect();
        let coded: Vec<(String, String)> =
            workloads::WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(declared, coded);
        assert!(coded.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared: Vec<(String, String, String, Option<f64>)> = rows(key)
                .iter()
                .map(|r| {
                    let bound = r.get("bound").and_then(Value::as_f64);
                    (field(r, "name"), field(r, "unit"), field(r, "better"), bound)
                })
                .collect();
            let coded: Vec<(String, String, String, Option<f64>)> = table
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
                .collect();
            assert_eq!(declared, coded, "{key}");
        }
        assert_eq!(v.get("run_seconds").and_then(Value::as_f64), Some(DEFAULT_SECONDS));
    }
}

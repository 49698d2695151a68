//! `run` (every workload, one child process each, a table and a
//! result file) and `compare` (two result files against the bounds).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use gnnavigator::obs::json::{self, Value};

use crate::report::{judge, RunResult, Verdict, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{out_dir, parse_seed, stats, RunArgs, DEFAULT_SECONDS, DEFAULT_SEED};

/// Prints every metric of one run by name, with its unit.
pub fn print_result(args: &RunArgs, result: &RunResult) {
    println!(
        "{} seed={:#x} trace={} correct={} attempted={} failed={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        result.correct,
        result.attempted,
        result.failed
    );
    let table: &[crate::report::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in table {
        println!("  {:<36} {:>16.6} {}", m.name, result.metrics[m.name].0, m.unit);
    }
}

/// Runs one workload in a child process through the driver's own
/// command line and parses its last stdout line.
fn child(args: &RunArgs) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {}: {e}", args.workload))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed no result ({})", args.workload, output.status))?;
    let value = json::parse(line).map_err(|e| format!("{}: {}", args.workload, e.message))?;
    RunResult::from_value(&value)
}

/// `HEAD` of the repository the benchmark lives in, whatever the
/// working directory (`unknown` in a checkout without `.git`).
fn git_head() -> String {
    let repo = out_dir().parent().map(Path::to_path_buf).unwrap_or_default();
    Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// `run`: the six workloads in turn, `--runs` end-to-end runs each at
/// consecutive seeds plus one trace pass at the first seed.
pub fn run(flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let known = ["seed", "seconds", "runs", "quick", "out"];
    if let Some(unknown) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag `--{unknown}`"));
    }
    let seed = flags.get("seed").map_or(Ok(DEFAULT_SEED), |s| parse_seed(s))?;
    let quick = flags.contains_key("quick");
    let seconds = match flags.get("seconds") {
        Some(s) => s.parse::<f64>().map_err(|e| format!("bad --seconds `{s}`: {e}"))?,
        None if quick => 1.0,
        None => DEFAULT_SECONDS,
    };
    let runs = match flags.get("runs") {
        Some(s) => s.parse::<u64>().map_err(|e| format!("bad --runs `{s}`: {e}"))?.max(1),
        None => 1,
    };
    let nproc = gnnavigator::par::hardware_threads();
    let head = git_head();
    println!("seed={seed:#x} runs={runs} seconds={seconds} quick={quick} nproc={nproc} git={head}");

    let mut all_correct = true;
    let mut file = String::new();
    let mut traced: Vec<RunResult> = Vec::new();
    for (name, _) in WORKLOADS {
        let mut args = RunArgs { workload: name.into(), seed, seconds, trace: false, quick };
        let mut results = Vec::new();
        for k in 0..runs {
            args.seed = seed.wrapping_add(k);
            results.push(child(&args)?);
        }
        args.seed = seed;
        args.trace = true;
        let layers = child(&args)?;
        all_correct &= layers.correct && results.iter().all(|r| r.correct);

        println!("\n{name}");
        for m in &END_TO_END {
            let values: Vec<f64> = results.iter().map(|r| r.metrics[m.name].0).collect();
            let (q1, median, q3) = stats::quartiles(&values);
            println!(
                "  {:<20} {median:>14.4} {:<6} [q1 {q1:.4}, q3 {q3:.4}, n={}]",
                m.name,
                m.unit,
                values.len()
            );
        }
        let failed: u64 = results.iter().map(|r| r.failed).sum::<u64>() + layers.failed;
        let attempted: u64 = results.iter().map(|r| r.attempted).sum::<u64>() + layers.attempted;
        println!("  {:<20} {failed:>14} of {attempted} operations", "failed");

        if !file.is_empty() {
            file.push_str(",\n");
        }
        let lines: Vec<String> = results.iter().map(RunResult::to_json).collect();
        file.push_str(&format!(
            "    \"{name}\": {{\"end_to_end\": [\n      {}\n    ], \"per_layer\": {}}}",
            lines.join(",\n      "),
            layers.to_json()
        ));
        traced.push(layers);
    }

    println!("\nper-layer (trace pass, seed {seed:#x})");
    print!("  {:<34} {:<8}", "metric", "unit");
    for (name, _) in WORKLOADS {
        print!(" {:>14.14}", name);
    }
    println!();
    for m in &PER_LAYER {
        print!("  {:<34} {:<8}", m.name, m.unit);
        for layers in &traced {
            print!(" {:>14.6}", layers.metrics[m.name].0);
        }
        println!();
    }

    let calib = traced[0].metrics["nn.calib_gflops"].0;
    let out = format!(
        "{{\n  \"seed\": {seed}, \"runs\": {runs}, \"seconds\": {seconds}, \"quick\": {quick}, \
         \"nproc\": {nproc},\n  \"git_head\": \"{head}\", \"calib_gflops\": {calib},\n  \
         \"workloads\": {{\n{file}\n  }}\n}}\n"
    );
    let path = match flags.get("out") {
        Some(p) => p.into(),
        None => out_dir().join(format!("run-{seed:#x}.json")),
    };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults -> {}", path.display());
    println!("{}", if all_correct { "all output checks passed" } else { "OUTPUT CHECKS FAILED" });
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `manifest`: `BENCHMARK.json` as the tables in the code define it.
/// The file at the repository root is this output, committed.
pub fn manifest() -> String {
    let rows = |table: &[crate::report::Metric]| {
        let lines: Vec<String> = table
            .iter()
            .map(|m| {
                let bound = m.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name, m.unit, m.better
                )
            })
            .collect();
        lines.join(",\n")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        rows(&END_TO_END),
        rows(&PER_LAYER),
    )
}

/// The end-to-end results of every workload in a `run` file.
fn load(path: &Path) -> Result<(f64, BTreeMap<String, Vec<RunResult>>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {}", path.display(), e.message))?;
    let seed = v.get("seed").and_then(Value::as_f64).unwrap_or(f64::NAN);
    let Some(Value::Obj(workloads)) = v.get("workloads") else {
        return Err(format!("{}: no `workloads` object", path.display()));
    };
    let mut out = BTreeMap::new();
    for (name, entry) in workloads {
        let runs = entry
            .get("end_to_end")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{}: `{name}` has no end_to_end runs", path.display()))?;
        out.insert(name.clone(), runs.iter().map(RunResult::from_value).collect::<Result<_, _>>()?);
    }
    Ok((seed, out))
}

/// `compare`: one row per end-to-end metric × workload, each metric's
/// bound applied to the medians of the two run sets. Exit 1 on any
/// `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let ((_, base), (_, cand)) = (load(a)?, load(b)?);
    println!(
        "{:<22} {:<18} {:<10} {:>12} {:>12} {:>9} {:>8} {:>6}",
        "workload", "metric", "verdict", "base", "candidate", "cand/base", "spread", "bound"
    );
    let mut any_worse = false;
    for (name, _) in WORKLOADS {
        let (Some(base), Some(cand)) = (base.get(name), cand.get(name)) else {
            println!("{name:<22} missing from one side");
            any_worse = true;
            continue;
        };
        for m in &END_TO_END {
            let values =
                |runs: &[RunResult]| runs.iter().map(|r| r.metrics[m.name].0).collect::<Vec<_>>();
            let (verdict, bm, cm, spread) = judge(m, &values(base), &values(cand));
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{name:<22} {:<18} {:<10} {bm:>12.4} {cm:>12.4} {:>9.4} {:>7.1}% {:>5.0}%",
                m.name,
                verdict.label(),
                cm / bm,
                spread * 100.0,
                m.bound.unwrap_or(0.0) * 100.0
            );
        }
        let failed = |runs: &[RunResult]| runs.iter().map(|r| r.failed).sum::<u64>();
        let (bf, cf) = (failed(base), failed(cand));
        let verdict = if cf > bf { Verdict::Worse } else { Verdict::Ok };
        any_worse |= verdict == Verdict::Worse;
        println!("{name:<22} {:<18} {:<10} {bf:>12} {cf:>12}", "failed", verdict.label());
    }
    Ok(if any_worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

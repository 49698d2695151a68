//! `gnnavigate metrics-diff` and `gnnavigate trace-diff`: the CI perf
//! and trace gates. Both take `<BASELINE.json> <CURRENT.json>
//! [--threshold <PCT>]`.

use crate::args::Flags;
use crate::USAGE;
use gnnavigator::obs::diff::diff_snapshots;
use gnnavigator::obs::tracediff::diff_traces;
use gnnavigator::obs::tree::import_chrome_trace;
use gnnavigator::obs::Snapshot;
use std::error::Error;
use std::fmt::Display;
use std::process::ExitCode;

/// The two documents to compare and the gate's threshold.
struct Compared<T> {
    baseline: T,
    current: T,
    threshold: f64,
}

/// Parses the arguments of subcommand `verb` and loads both files
/// (`kind`s, e.g. "snapshot") with `parse`. `None` after `--help`.
fn load_pair<T, E: Display>(
    verb: &str,
    kind: &str,
    argv: &[String],
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Option<Compared<T>>, Box<dyn Error>> {
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 10.0_f64;
    let mut flags = Flags::new(argv);
    while let Some(arg) = flags.next() {
        match arg {
            "--threshold" => threshold = flags.parsed("--threshold")?,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown {verb} flag `{flag}`").into());
            }
            path => paths.push(path),
        }
    }
    let [baseline, current] = paths[..] else {
        return Err(format!("{verb} expects exactly two {kind} paths (try --help)").into());
    };
    let load = |path: &str| -> Result<T, Box<dyn Error>> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: invalid {kind}: {e}").into())
    };
    Ok(Some(Compared { baseline: load(baseline)?, current: load(current)?, threshold }))
}

/// `gnnavigate metrics-diff <baseline.json> <current.json> [--threshold pct]`:
/// the CI perf gate. Exits non-zero when a gated series regressed.
pub fn run_metrics_diff(argv: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let Some(c) = load_pair("metrics-diff", "snapshot", argv, Snapshot::from_json)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let report = diff_snapshots(&c.baseline, &c.current, c.threshold);
    print!("{}", report.to_table());
    Ok(if report.has_breach() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `gnnavigate trace-diff <baseline.json> <current.json> [--threshold pct]`:
/// the CI trace gate. Exit 0 clean, 1 on a gated sim-time regression,
/// 2 (refusing to gate) when either journal was truncated.
pub fn run_trace_diff(argv: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let Some(c) = load_pair("trace-diff", "trace", argv, import_chrome_trace)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let report = diff_traces(&c.baseline, &c.current, c.threshold);
    print!("{}", report.to_table());
    Ok(if report.truncated() {
        ExitCode::from(2)
    } else if report.has_breach() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

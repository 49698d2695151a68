//! Integration tests for the `gnnavigate` CLI binary.

use std::process::Command;

fn gnnavigate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gnnavigate"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = gnnavigate().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--priority"));
}

#[test]
fn unknown_flag_fails_with_message() {
    let out = gnnavigate().arg("--bogus").output().expect("spawn");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown flag"), "{text}");
}

#[test]
fn out_of_range_numbers_are_rejected_before_any_work() {
    // A zero budget used to panic after the profiling sweep; a NaN
    // bound used to be accepted and constrain nothing; a limit at or
    // below zero, or an accuracy outside [0, 100] %, used to run a
    // whole sweep before falling back to the nearest-feasible guideline.
    // A NaN or infinite diff threshold used to switch the gate off, a
    // negative one flagged series that did not move, and a zero
    // serve-bench count used to run as 1 while the header printed 0.
    let cases: [&[&str]; 20] = [
        &["--explore-budget", "0"],
        &["--epochs", "0"],
        &["--profile-samples", "0"],
        &["--max-time-ms", "nan"],
        &["--max-mem-mb", "NaN"],
        &["--min-acc", "nan"],
        &["--max-mem-mb", "inf"],
        &["--max-mem-mb", "-5"],
        &["--max-mem-mb", "0"],
        &["--max-time-ms", "-1"],
        &["--max-time-ms", "0"],
        &["--min-acc", "150"],
        &["--min-acc", "-0.5"],
        &["serve-bench", "--zipf", "nan"],
        &["metrics-diff", "a", "b", "--threshold", "nan"],
        &["trace-diff", "a", "b", "--threshold", "inf"],
        &["metrics-diff", "a", "b", "--threshold", "-1"],
        &["serve-bench", "--tenants", "0"],
        &["serve-bench", "--burst", "0"],
        &["serve-bench", "--workers", "0"],
    ];
    for args in cases {
        let started = std::time::Instant::now();
        let out = gnnavigate().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(started.elapsed().as_secs_f64() < 1.0, "{args:?} did work before failing");
        let text = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        let message = text.lines().next().unwrap_or_default();
        assert!(message.starts_with("error: ") && message.contains(flag), "{args:?}: {text}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn bad_dataset_fails() {
    let out = gnnavigate().args(["--dataset", "nope"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
}

#[test]
fn missing_value_fails() {
    let out = gnnavigate().arg("--scale").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value"));
}

#[test]
fn tiny_end_to_end_run_succeeds() {
    // A very small full-pipeline run: profile, explore, apply.
    let out = gnnavigate()
        .args(["--dataset", "RD2", "--scale", "0.01", "--priority", "bal"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("guideline:"), "{text}");
    assert!(text.contains("speedup"), "{text}");
}

#[test]
fn metrics_out_writes_schema_with_phase_cache_and_explorer_series() {
    let dir = std::env::temp_dir().join(format!("gnnav-cli-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("metrics.json");
    let out = gnnavigate()
        .args([
            "--dataset",
            "RD2",
            "--scale",
            "0.01",
            "--priority",
            "bal",
            "--verbose",
            "--metrics-out",
        ])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_dir_all(&dir).ok();

    // Envelope.
    assert!(json.contains("\"version\": 2"), "{json}");
    assert!(json.contains("\"enabled\": true"), "{json}");
    for section in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
        assert!(json.contains(section), "missing {section} in {json}");
    }
    // Version-2 histograms carry log-bucket percentiles.
    for field in ["\"p50\"", "\"p95\"", "\"p99\""] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
    // The four phase timers of the paper's Eq. 4.
    for phase in [
        "\"backend.phase.sample_s\"",
        "\"backend.phase.transfer_s\"",
        "\"backend.phase.replace_s\"",
        "\"backend.phase.compute_s\"",
    ] {
        assert!(json.contains(phase), "missing {phase} in {json}");
    }
    // Cache hit/miss counters and explorer candidate counts.
    assert!(json.contains("\"backend.cache.hits\""), "{json}");
    assert!(json.contains("\"backend.cache.misses\""), "{json}");
    assert!(json.contains("\"explorer.candidates.evaluated\""), "{json}");
    assert!(json.contains("\"explorer.candidates.rejected\""), "{json}");

    // --verbose prints the metrics table and the phase breakdown.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("phase breakdown"), "{text}");
    assert!(text.contains("backend.cache.hits"), "{text}");

    // Gauge cells use adaptive formatting: round-trippable, and
    // magnitudes outside [1e-4, 1e7) rendered in scientific notation
    // rather than a mangled fixed-point expansion.
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("backend.peak_mem_bytes"))
        .expect("peak_mem_bytes gauge in verbose table");
    let cell = line.split_whitespace().last().expect("value cell");
    let value: f64 = cell.parse().expect("table cell parses back to f64");
    assert!(value > 0.0, "{line}");
    let fixed_range = value == 0.0 || (1e-4..1e7).contains(&value.abs());
    assert_eq!(cell.contains('e'), !fixed_range, "adaptive formatting violated: {cell}");
}

#[test]
fn trace_and_audit_outputs_are_valid() {
    use gnnavigator::obs::json::{parse, Value};

    let dir = std::env::temp_dir().join(format!("gnnav-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let trace_path = dir.join("trace.json");
    let audit_path = dir.join("audit.json");
    let out = gnnavigate()
        .args(["--dataset", "RD2", "--scale", "0.01", "--seed", "7"])
        .args(["--profile-samples", "24", "--explore-budget", "300", "--epochs", "2"])
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--audit-out")
        .arg(&audit_path)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let audit = std::fs::read_to_string(&audit_path).expect("audit written");
    std::fs::remove_dir_all(&dir).ok();

    // The trace must be valid JSON with complete (X) events on both
    // the wall-clock (pid 1) and sim-clock (pid 2) processes.
    let doc = parse(&trace).expect("trace parses as JSON");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
    let ph = |e: &Value| e.get("ph").and_then(Value::as_str).map(str::to_string);
    let pid = |e: &Value| e.get("pid").and_then(Value::as_f64);
    assert!(events.iter().any(|e| ph(e).as_deref() == Some("X") && pid(e) == Some(1.0)));
    assert!(events.iter().any(|e| ph(e).as_deref() == Some("X") && pid(e) == Some(2.0)));
    for e in events.iter().filter(|e| ph(e).as_deref() == Some("X")) {
        assert!(e.get("dur").and_then(Value::as_f64).is_some(), "X event without dur");
    }
    // Phase tracks, the profiler workers, and the explorer all leave
    // named threads behind.
    let thread_names: Vec<String> = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
        .collect();
    for expected in ["wall clock", "sim clock", "backend", "phase.sample", "explorer"] {
        assert!(thread_names.iter().any(|n| n == expected), "missing track {expected}");
    }
    assert!(thread_names.iter().any(|n| n.starts_with("profiler.worker-")), "{thread_names:?}");

    // The audit trail records a reason for every decision and ends
    // with the selected guideline.
    let doc = parse(&audit).expect("audit parses as JSON");
    let records = doc.get("records").and_then(Value::as_arr).expect("records array");
    assert!(!records.is_empty());
    for r in records {
        let action = r.get("action").and_then(Value::as_str).expect("action");
        assert!(
            ["accepted", "rejected", "pruned_subtree", "selected"].contains(&action),
            "{action}"
        );
        let reason = r.get("reason").and_then(Value::as_str).expect("reason");
        assert!(!reason.is_empty(), "empty reason for {action}");
        assert!(r.get("config").and_then(Value::as_str).is_some());
    }
    assert_eq!(
        records.last().and_then(|r| r.get("action")).and_then(Value::as_str),
        Some("selected")
    );
    assert!(records.iter().any(|r| r.get("action").and_then(Value::as_str) == Some("accepted")));
}

#[test]
fn metrics_diff_gates_regressions() {
    let dir = std::env::temp_dir().join(format!("gnnav-cli-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let write = |name: &str, batches: u64| {
        let path = dir.join(name);
        let json = format!(
            "{{\"version\": 2, \"enabled\": true, \
             \"counters\": {{\"backend.batches\": {batches}}}, \
             \"gauges\": {{}}, \"histograms\": {{}}}}"
        );
        std::fs::write(&path, json).expect("write snapshot");
        path
    };
    let baseline = write("baseline.json", 100);
    let regressed = write("regressed.json", 200);
    let ok = write("ok.json", 110);

    // An injected 100% regression breaches the 20% threshold.
    let out = gnnavigate()
        .arg("metrics-diff")
        .args([&baseline, &regressed])
        .args(["--threshold", "20"])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "regression must exit non-zero");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BREACH"), "{text}");
    assert!(text.contains("backend.batches"), "{text}");
    assert!(text.contains("1 breach"), "{text}");

    // A 10% move passes the same gate.
    let out = gnnavigate()
        .arg("metrics-diff")
        .args([&baseline, &ok])
        .args(["--threshold", "20"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 breach"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_diff_rejects_bad_invocations() {
    // Wrong arity.
    let out = gnnavigate().args(["metrics-diff", "only-one.json"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly two"));

    // Missing file.
    let out = gnnavigate()
        .args(["metrics-diff", "/nonexistent/a.json", "/nonexistent/b.json"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/a.json"));
}

/// Every `--flag` token in `text` (letters and dashes after the `--`,
/// at least one letter — markdown table rules like `|---|` and long
/// dashes don't count).
fn extract_flags(text: &str) -> std::collections::BTreeSet<String> {
    let mut flags = std::collections::BTreeSet::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 2 < bytes.len() {
        if &bytes[i..i + 2] == b"--" {
            let start = i + 2;
            let mut end = start;
            while end < bytes.len() && (bytes[end].is_ascii_lowercase() || bytes[end] == b'-') {
                end += 1;
            }
            if end > start && bytes[start..end].iter().any(u8::is_ascii_lowercase) {
                flags.insert(format!("--{}", &text[start..end]));
            }
            i = end.max(i + 1);
        } else {
            i += 1;
        }
    }
    flags
}

fn help_text() -> String {
    let out = gnnavigate().arg("--help").output().expect("run gnnavigate --help");
    assert!(out.status.success(), "--help must exit 0");
    String::from_utf8(out.stdout).expect("utf-8 help")
}

/// A value that parses for each value-taking flag; empty for
/// booleans. Flags missing from this table fail the parse-audit test,
/// which is the point: adding a flag means documenting how to
/// exercise it.
fn sample_args(flag: &str) -> Option<Vec<&'static str>> {
    Some(match flag {
        "--dataset" => vec!["RD2"],
        "--model" => vec!["sage"],
        "--priority" => vec!["bal"],
        "--platform" => vec!["rtx4090"],
        "--scale" => vec!["0.05"],
        "--max-time-ms" => vec!["100"],
        "--max-mem-mb" => vec!["100"],
        "--min-acc" => vec!["50"],
        "--profile-samples" => vec!["4"],
        "--explore-budget" => vec!["10"],
        "--epochs" => vec!["1"],
        "--seed" => vec!["1"],
        "--fault-plan" => vec!["plan.json"],
        "--profile-db" => vec!["profiles.db"],
        "--explore-cache" => vec!["ecache"],
        "--checkpoint-dir" => vec!["ckpts"],
        "--checkpoint-every" => vec!["2"],
        "--resume" => vec![],
        "--adapt" => vec![],
        "--drift-threshold" => vec!["0.5"],
        "--metrics-out" => vec!["metrics.json"],
        "--trace-out" => vec!["trace.json"],
        "--trace-summary" => vec![],
        "--flame-out" => vec!["flame.txt"],
        "--flame-weight" => vec!["sim"],
        "--audit-out" => vec!["audit.json"],
        "--verbose" => vec![],
        "--help" => vec![],
        _ => return None,
    })
}

/// serve-bench's own flags, which live behind the subcommand.
/// `--seed` and `--metrics-out` are shared with the main command and
/// sampled in [`sample_args`].
fn serve_bench_sample_args(flag: &str) -> Option<Vec<&'static str>> {
    Some(match flag {
        "--tenants" => vec!["8"],
        "--requests" => vec!["4"],
        "--burst" => vec!["2"],
        "--zipf" => vec!["1.1"],
        "--workers" => vec!["2"],
        "--queue-capacity" => vec!["8"],
        "--tenant-budget" => vec!["2"],
        "--transcript-out" => vec!["transcript.txt"],
        "--baseline-out" => vec!["baseline.json"],
        _ => return None,
    })
}

#[test]
fn every_help_flag_parses() {
    // Each flag is parsed in sequence before `--help` short-circuits,
    // so `<flag> [value] --help` exiting 0 proves the flag parses.
    for flag in extract_flags(&help_text()) {
        if flag == "--help" {
            continue;
        }
        let (mut cmd, args) = if flag == "--threshold" {
            // metrics-diff's own flag lives behind the subcommand.
            let mut c = gnnavigate();
            c.arg("metrics-diff");
            (c, vec!["5"])
        } else if let Some(args) = serve_bench_sample_args(&flag) {
            let mut c = gnnavigate();
            c.arg("serve-bench");
            (c, args)
        } else {
            let args = sample_args(&flag)
                .unwrap_or_else(|| panic!("{flag} appears in --help but has no sample value"));
            (gnnavigate(), args)
        };
        let out = cmd.arg(&flag).args(args).arg("--help").output().expect("spawn");
        assert!(
            out.status.success(),
            "{flag} failed to parse: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn readme_flag_table_matches_help() {
    let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme_path).expect("read README.md");
    let section = readme
        .split("## Command line")
        .nth(1)
        .expect("README must keep its `## Command line` section")
        .split("\n## ")
        .next()
        .expect("non-empty section");
    // Only the table rows count as documentation; the invocation
    // snippet above the table mentions cargo's own flags.
    let table: String =
        section.lines().filter(|l| l.starts_with('|')).collect::<Vec<_>>().join("\n");
    let documented = extract_flags(&table);
    let in_help = extract_flags(&help_text());
    let missing_from_help: Vec<_> = documented.difference(&in_help).collect();
    assert!(
        missing_from_help.is_empty(),
        "README documents flags --help does not know: {missing_from_help:?}"
    );
    let undocumented: Vec<_> =
        in_help.iter().filter(|f| !documented.contains(*f) && **f != "--help").collect();
    assert!(
        undocumented.is_empty(),
        "--help knows flags the README flag table omits: {undocumented:?}"
    );
}

#[test]
fn warm_profile_db_invocation_performs_zero_redundant_profiling() {
    use gnnavigator::obs::json::{parse, Value};

    let dir = std::env::temp_dir().join(format!("gnnav-cli-psdb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let db = dir.join("profiles.db");

    let run = |metrics_name: &str| {
        let metrics_path = dir.join(metrics_name);
        let out = gnnavigate()
            .args(["--dataset", "RD2", "--scale", "0.01", "--seed", "3"])
            .args(["--profile-samples", "12", "--explore-budget", "200"])
            .arg("--profile-db")
            .arg(&db)
            .arg("--metrics-out")
            .arg(&metrics_path)
            .output()
            .expect("spawn");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let guideline = stdout
            .lines()
            .find(|l| l.starts_with("guideline:"))
            .expect("guideline line")
            .to_string();
        let json = std::fs::read_to_string(&metrics_path).expect("metrics written");
        let doc = parse(&json).expect("metrics parse");
        let profiled = doc
            .get("counters")
            .and_then(|c| c.get("profiler.records"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        (guideline, profiled)
    };

    let (cold_guideline, cold_profiled) = run("cold.json");
    assert!(cold_profiled > 0.0, "cold run must profile ({cold_profiled})");
    let (warm_guideline, warm_profiled) = run("warm.json");
    assert_eq!(warm_profiled, 0.0, "warm run must not profile a single config");
    assert_eq!(warm_guideline, cold_guideline, "warm run reaches the cold guideline");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_explore_cache_invocation_skips_dse_with_identical_stdout() {
    use gnnavigator::obs::json::{parse, Value};

    let dir = std::env::temp_dir().join(format!("gnnav-cli-ecache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let db = dir.join("profiles.db");
    let cache = dir.join("ecache");

    // --profile-db keeps the estimator inputs identical between the
    // runs, so the exploration fingerprint matches and the second run
    // hits the cache.
    let run = |metrics_name: &str| {
        let metrics_path = dir.join(metrics_name);
        let out = gnnavigate()
            .args(["--dataset", "RD2", "--scale", "0.01", "--seed", "3"])
            .args(["--profile-samples", "12", "--explore-budget", "200"])
            .arg("--profile-db")
            .arg(&db)
            .arg("--explore-cache")
            .arg(&cache)
            .arg("--metrics-out")
            .arg(&metrics_path)
            .output()
            .expect("spawn");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let json = std::fs::read_to_string(&metrics_path).expect("metrics written");
        let doc = parse(&json).expect("metrics parse");
        let counter = |name: &str| {
            doc.get("counters").and_then(|c| c.get(name)).and_then(Value::as_f64).unwrap_or(0.0)
        };
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        (
            stdout,
            stderr,
            counter("explorer.candidates.evaluated"),
            counter("explorer.cache.hits"),
            counter("explorer.cache.inserts"),
        )
    };

    let (cold_stdout, cold_stderr, cold_evaluated, cold_hits, cold_inserts) = run("cold.json");
    assert!(cold_evaluated > 0.0, "cold run must explore ({cold_evaluated})");
    assert_eq!(cold_hits, 0.0, "cold run cannot hit an empty cache");
    assert_eq!(cold_inserts, 1.0, "cold run appends its result");
    assert!(cold_stderr.contains("explore cache miss"), "{cold_stderr}");

    let (warm_stdout, warm_stderr, warm_evaluated, warm_hits, warm_inserts) = run("warm.json");
    assert_eq!(warm_evaluated, 0.0, "warm run must not evaluate a single candidate");
    assert!(warm_hits >= 1.0, "warm run must be served from the cache");
    assert_eq!(warm_inserts, 0.0, "warm run appends nothing");
    assert!(warm_stderr.contains("explore cache hit"), "{warm_stderr}");
    assert_eq!(warm_stdout, cold_stdout, "cached guideline must be byte-identical on stdout");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_bench_rejects_unknown_flags() {
    let out = gnnavigate().args(["serve-bench", "--bogus"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown serve-bench flag"));

    let out = gnnavigate().args(["serve-bench", "--tenants"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value"));
}

#[test]
fn serve_bench_is_byte_identical_across_worker_counts() {
    use gnnavigator::obs::json::{parse, Value};

    let dir = std::env::temp_dir().join(format!("gnnav-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");

    // A small closed loop: 12 requests over 40 zipf tenants in two
    // bursts. Everything observable — transcript file, counters-only
    // baseline, stdout — must be a pure function of the flags, so the
    // width-1 and width-4 runs are compared byte for byte.
    let run = |width: &str| {
        let transcript = dir.join(format!("transcript-{width}.txt"));
        let baseline = dir.join(format!("baseline-{width}.json"));
        let out = gnnavigate()
            .arg("serve-bench")
            .args(["--tenants", "40", "--requests", "12", "--burst", "6", "--seed", "11"])
            .args(["--queue-capacity", "16", "--tenant-budget", "6"])
            .args(["--workers", width])
            .arg("--transcript-out")
            .arg(&transcript)
            .arg("--baseline-out")
            .arg(&baseline)
            .output()
            .expect("spawn");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            std::fs::read_to_string(&transcript).expect("transcript written"),
            std::fs::read_to_string(&baseline).expect("baseline written"),
        )
    };

    let (stdout_1, transcript_1, baseline_1) = run("1");
    let (stdout_4, transcript_4, baseline_4) = run("4");
    assert_eq!(transcript_1, transcript_4, "transcript must not depend on worker width");
    assert_eq!(baseline_1, baseline_4, "baseline must not depend on worker width");
    assert_eq!(stdout_1, stdout_4, "stdout must not depend on worker width");

    // Transcript shape: header, responses in commit order, footer.
    assert!(transcript_1.starts_with("# serve-bench "), "{transcript_1}");
    assert!(transcript_1.contains("resp seq=0 "), "{transcript_1}");
    assert!(transcript_1.lines().last().unwrap_or("").starts_with("# done "), "{transcript_1}");

    // The counters-only baseline is internally consistent: every
    // admitted request answered, and zipf repeats served from the
    // cache tiers rather than fresh explorations.
    let doc = parse(&baseline_1).expect("baseline parses as JSON");
    let counter = |name: &str| {
        doc.get("counters").and_then(|c| c.get(name)).and_then(Value::as_f64).unwrap_or(0.0)
    };
    assert!(doc.get("gauges").is_some(), "{baseline_1}");
    assert!(!baseline_1.contains("serve.queue.depth"), "baseline must drop gauges");
    let admitted = counter("serve.requests.admitted");
    assert!(admitted > 0.0, "{baseline_1}");
    assert_eq!(counter("serve.responses"), admitted, "every admitted request is answered");
    assert_eq!(counter("serve.waves"), 2.0, "12 requests in bursts of 6");
    let explorations = counter("serve.explorations");
    assert!(explorations > 0.0, "{baseline_1}");
    assert!(
        explorations < admitted,
        "zipf repeats must hit the cache tiers: {explorations} explorations \
         for {admitted} admissions"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durability_flags_require_checkpoint_dir() {
    let out = gnnavigate().args(["--checkpoint-every", "2"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("requires --checkpoint-dir"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = gnnavigate().arg("--resume").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --checkpoint-dir"));

    // Same rule for the adaptive knob: a threshold nothing reads is an
    // error, not a silent no-op.
    let out = gnnavigate().args(["--drift-threshold", "0.5"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --adapt"));
}

#[test]
fn refused_checkpoints_count_as_rejections_not_resumes() {
    use gnnavigator::obs::json::{parse, Value};
    use gnnavigator::store::write_checkpoint;

    let dir = std::env::temp_dir().join(format!("gnnav-cli-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpts = dir.join("ckpts");
    std::fs::create_dir_all(&ckpts).expect("tmpdir");
    // Two checkpoints whose frames verify but whose payloads no session
    // decoder takes.
    for epoch in [1, 2] {
        let path = ckpts.join(format!("session-{epoch:06}.ckpt"));
        write_checkpoint(&path, b"not a session checkpoint").expect("write");
    }
    let metrics_path = dir.join("metrics.json");
    let out = gnnavigate()
        .args(["--dataset", "RD2", "--scale", "0.01", "--seed", "7", "--epochs", "2"])
        .args(["--profile-samples", "8", "--explore-budget", "50"])
        .arg("--checkpoint-dir")
        .arg(&ckpts)
        .arg("--resume")
        .arg("--metrics-out")
        .arg(&metrics_path)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let doc = parse(&std::fs::read_to_string(&metrics_path).expect("metrics written"))
        .expect("metrics parse");
    let counter = |name: &str| {
        doc.get("counters").and_then(|c| c.get(name)).and_then(Value::as_f64).unwrap_or(0.0)
    };
    assert_eq!(counter("store.checkpoint.resumes"), 0.0, "a refused checkpoint is no resume");
    assert_eq!(counter("store.checkpoint.rejected"), 2.0, "both refusals are rejections");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_every_zero_is_rejected() {
    let out = gnnavigate()
        .args(["--checkpoint-dir", "ckpts", "--checkpoint-every", "0"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("must be >= 1"));
}

#[test]
fn bad_drift_threshold_is_rejected() {
    for bad in ["0", "-1", "nan", "apple"] {
        let out = gnnavigate().args(["--drift-threshold", bad]).output().expect("spawn");
        assert!(!out.status.success(), "--drift-threshold {bad} must be rejected");
    }
}

#[test]
fn drift_threshold_reaches_the_drift_detector() {
    let run = |threshold: &str| {
        let out = gnnavigate()
            .args(["--dataset", "RD2", "--scale", "0.01", "--epochs", "3"])
            .args(["--profile-samples", "8", "--explore-budget", "50"])
            .args(["--adapt", "--drift-threshold", threshold])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--drift-threshold {threshold}: {stderr}");
        format!("{}{stderr}", String::from_utf8_lossy(&out.stdout))
    };
    // Any deviation at all is drift past a near-zero threshold ...
    let text = run("1e-9");
    assert!(
        text.contains("adaptive switch after epoch") || text.contains("drift triggered"),
        "{text}"
    );
    // ... and none reaches a huge one.
    let text = run("1e9");
    assert!(text.contains("no drift past the threshold"), "{text}");
}

#[test]
fn metrics_disabled_by_default() {
    // Without --metrics-out/--verbose, no metrics table appears.
    let out = gnnavigate().args(["--dataset", "RD2", "--scale", "0.01"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("backend.cache.hits"), "{text}");
}

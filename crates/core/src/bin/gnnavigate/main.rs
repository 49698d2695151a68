//! `gnnavigate` — command-line front end for the navigator.
//!
//! ```sh
//! gnnavigate --dataset RD2 --model sage --priority ex-tm --scale 0.2
//! gnnavigate --dataset PR --platform m90 --max-mem-mb 20 --min-acc 75
//! gnnavigate --scale 0.02 --trace-out trace.json --audit-out audit.json
//! gnnavigate metrics-diff BENCH_backend.json current.json --threshold 20
//! ```
//!
//! Runs the full pipeline (profile → fit → explore → apply) and prints
//! the guideline next to the PyG baseline. The `metrics-diff`
//! subcommand compares two metrics snapshots and exits non-zero when a
//! gated series regressed past the threshold — the CI perf gate.

mod args;
mod diff;
mod navigate;
mod serve_bench;

use std::process::ExitCode;

const USAGE: &str = "\
gnnavigate — adaptive GNN training guideline exploration

USAGE:
    gnnavigate [OPTIONS]
    gnnavigate metrics-diff <BASELINE.json> <CURRENT.json> [--threshold <PCT>]
    gnnavigate trace-diff <BASELINE.json> <CURRENT.json> [--threshold <PCT>]
    gnnavigate serve-bench [SERVE-BENCH OPTIONS]

OPTIONS:
    --dataset <AR|PR|RD|RD2>       dataset stand-in        [default: RD2]
    --model <gcn|sage|gat>         GNN architecture        [default: sage]
    --priority <bal|ex-tm|ex-ma|ex-ta>  explore priority   [default: bal]
    --platform <rtx4090|a100|m90>  hardware platform       [default: rtx4090]
    --scale <FLOAT>                dataset scale factor    [default: 0.2]
    --max-time-ms <FLOAT>          epoch-time constraint (> 0)
    --max-mem-mb <FLOAT>           device-memory constraint (> 0)
    --min-acc <PERCENT>            accuracy constraint (0-100)
    --profile-samples <N>          configs profiled for the estimator
    --explore-budget <N>           DFS leaf-evaluation budget
    --epochs <N>                   training epochs when applying guidelines
    --seed <N>                     pipeline seed (profiling + exploration)
    --fault-plan <PATH>            inject deterministic faults from a JSON plan
                                   (chaos testing; see EXPERIMENTS.md)
    --profile-db <PATH>            durable WAL-backed profile store: configs it
                                   already covers are not re-profiled; fresh
                                   records are appended. Its key ignores the
                                   profiling options (--fault-plan included):
                                   use one store per set of them
                                   (see docs/DURABILITY.md)
    --explore-cache <DIR>          durable WAL-backed exploration-result cache:
                                   a repeat invocation with identical inputs
                                   skips the DSE and returns the byte-identical
                                   guideline; fresh explorations are appended
    --checkpoint-dir <PATH>        write crash-safe training checkpoints into
                                   this directory while applying the guideline
    --checkpoint-every <N>         checkpoint every N completed epochs
                                   (requires --checkpoint-dir)  [default: 1]
    --resume                       resume from the newest valid checkpoint in
                                   --checkpoint-dir; cold-starts when none
                                   survives. A killed run resumed this way ends
                                   with a byte-identical report
    --adapt                        apply the guideline adaptively: watch drift
                                   against the estimate, re-explore, and switch
                                   guidelines mid-training
    --drift-threshold <FLOAT>      EWMA drift level that triggers adaptive
                                   re-exploration           [default: 0.75]
    --metrics-out <PATH>           write a metrics snapshot as JSON
    --trace-out <PATH>             write the event journal as Chrome trace JSON
                                   (open in Perfetto / chrome://tracing)
    --trace-summary                print span-tree rollups, the critical path,
                                   and the per-epoch phase-attribution table
    --flame-out <PATH>             write folded stacks for flamegraph.pl /
                                   inferno (one `track;span… weight` per line)
    --flame-weight <sim|wall>      folded-stack weighting    [default: sim]
    --audit-out <PATH>             write the explorer decision audit as JSON
    --verbose                      print the metrics table and phase breakdown
    -h, --help                     print this help

METRICS-DIFF:
    Compares CURRENT against BASELINE series-by-series and prints a
    regression table sorted by relative change. Exits 1 when any gated
    series (counters; non-wall gauges) moved more than the threshold
    [default: 10] percent. The threshold must be finite and >= 0.

SERVE-BENCH:
    Deterministic closed-loop load generator over the in-process
    multi-tenant NavService (see docs/SERVING.md): zipf-distributed
    synthetic tenants submit navigation requests in bursts; each burst
    drains as one plan → parallel-explore → commit wave. The
    request/response transcript is byte-identical at every --workers
    width.

    --tenants <N>                  tenant population (>= 1)     [default: 1000]
    --requests <N>                 total requests submitted     [default: 2000]
    --burst <N>                    submissions per wave (>= 1)  [default: 80]
    --zipf <FLOAT>                 tenant popularity exponent   [default: 1.1]
    --workers <N>                  worker width for the parallel exploration
                                   phase (>= 1)                 [default: 1]
    --queue-capacity <N>           admission queue bound; admissions degrade
                                   at 1/2 and 3/4 of it         [default: 64]
    --tenant-budget <N>            per-tenant token-bucket capacity (tokens
                                   refill each wave)            [default: 8]
    --transcript-out <PATH>        write the deterministic transcript (one line
                                   per rejection and per response)
    --baseline-out <PATH>          write the counters-only deterministic
                                   baseline snapshot (the committed
                                   BENCH_serve.json gated in CI)
    plus --seed and --metrics-out as above

TRACE-DIFF:
    Aligns two Chrome traces (written by --trace-out) span-path by
    span-path on the sim clock and prints a regression table. Exits 1
    when any path's inclusive sim time grew more than the threshold
    [default: 10] percent (finite, >= 0), and 2 — refusing to gate — when either
    journal was truncated by ring eviction.
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("metrics-diff") => diff::run_metrics_diff(&argv[1..]),
        Some("trace-diff") => diff::run_trace_diff(&argv[1..]),
        Some("serve-bench") => serve_bench::run(&argv[1..]),
        _ => match navigate::parse_args(&argv) {
            Ok(args) => navigate::run(args).map(|()| ExitCode::SUCCESS),
            Err(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

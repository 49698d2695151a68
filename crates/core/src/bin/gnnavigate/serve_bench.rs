//! `gnnavigate serve-bench [flags]`: the deterministic multi-tenant
//! load generator. Everything printed to stdout (and written to
//! `--transcript-out` / `--baseline-out`) is a pure function of the
//! flags — worker width never changes a byte.

use crate::args::{write_file, Flags};
use crate::USAGE;
use gnnavigator::serve::{run_load, LoadGenOptions, NavService, ServeOptions};
use std::path::PathBuf;
use std::process::ExitCode;

pub fn run(argv: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut load = LoadGenOptions::default();
    let mut serve = ServeOptions::default();
    let mut workers = 1usize;
    let mut transcript_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut baseline_out: Option<PathBuf> = None;
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next() {
        match flag {
            "--tenants" => load.tenants = flags.at_least_one(flag)?,
            "--requests" => load.requests = flags.parsed(flag)?,
            "--burst" => load.burst = flags.at_least_one(flag)?,
            "--zipf" => load.zipf_exponent = flags.finite(flag)?,
            "--workers" => workers = flags.at_least_one(flag)?,
            "--seed" => {
                let seed: u64 = flags.parsed(flag)?;
                load.seed = seed;
                serve.seed = seed;
            }
            "--queue-capacity" => serve.queue_capacity = flags.parsed(flag)?,
            "--tenant-budget" => serve.tenant_budget = flags.parsed(flag)?,
            "--transcript-out" => transcript_out = Some(flags.value(flag)?.into()),
            "--metrics-out" => metrics_out = Some(flags.value(flag)?.into()),
            "--baseline-out" => baseline_out = Some(flags.value(flag)?.into()),
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown serve-bench flag `{other}`").into()),
        }
    }

    let metrics = gnnavigator::obs::global();
    metrics.enable(true);
    metrics.reset();

    let mut service = NavService::new(serve);
    let summary = gnnavigator::par::with_thread_limit(workers, || run_load(&mut service, &load))?;

    if let Some(path) = &transcript_out {
        write_file(path, &summary.transcript)?;
    }
    let snapshot = metrics.snapshot();
    if let Some(path) = &metrics_out {
        write_file(path, snapshot.to_json())?;
    }
    if let Some(path) = &baseline_out {
        // Counters only: counters are wave sums, identical at every
        // worker width; gauges (last-write) and histograms (wall
        // time) are not, so the committed baseline drops them.
        let mut deterministic =
            snapshot.filtered(|name| name.starts_with("serve.") || name.starts_with("explorer."));
        deterministic.gauges.clear();
        deterministic.histograms.clear();
        write_file(path, deterministic.to_json())?;
    }

    // The stdout summary is deliberately wall-time free: CI byte-diffs
    // it across worker widths alongside the transcript.
    println!(
        "serve-bench: tenants={} requests={} burst={} zipf={:?} seed={:#x}",
        load.tenants, load.requests, load.burst, load.zipf_exponent, load.seed
    );
    println!(
        "  submitted={} admitted={} rejected={} responses={} waves={}",
        summary.submitted, summary.admitted, summary.rejected, summary.responses, summary.waves
    );
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    println!(
        "  explorations={} coalesced={} cache_hits={} neighbor_served={} degraded={}",
        counter("serve.explorations"),
        counter("serve.requests.coalesced"),
        counter("serve.cache.hits"),
        counter("serve.neighbor.served"),
        counter("serve.requests.degraded"),
    );
    println!(
        "  pool: hits={} misses={} evictions={}",
        counter("serve.pool.hits"),
        counter("serve.pool.misses"),
        counter("serve.pool.evictions"),
    );
    Ok(ExitCode::SUCCESS)
}

//! The default command: profile → fit → explore → apply, printing the
//! guideline next to the PyG baseline. With `--explore-cache` holding
//! the exploration, profile → fit → explore is one lookup.

use crate::args::{write_file, Flags};
use crate::USAGE;
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::obs::tree::Clock;
use gnnavigator::store::RecoveryStats;
use gnnavigator::{Navigator, NavigatorOptions, Priority, RuntimeConstraints, Template};
use std::path::{Path, PathBuf};

#[derive(Debug)]
pub struct Args {
    dataset: DatasetId,
    model: ModelKind,
    priority: Priority,
    platform: Platform,
    scale: f64,
    constraints: RuntimeConstraints,
    profile_samples: Option<usize>,
    explore_budget: Option<usize>,
    epochs: Option<usize>,
    seed: Option<u64>,
    fault_plan: Option<PathBuf>,
    profile_db: Option<PathBuf>,
    explore_cache: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    resume: bool,
    adapt: bool,
    drift_threshold: Option<f64>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    trace_summary: bool,
    flame_out: Option<PathBuf>,
    flame_weight: Clock,
    audit_out: Option<PathBuf>,
    verbose: bool,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        dataset: DatasetId::Reddit2,
        model: ModelKind::Sage,
        priority: Priority::Balance,
        platform: Platform::default_rtx4090(),
        scale: 0.2,
        constraints: RuntimeConstraints::none(),
        profile_samples: None,
        explore_budget: None,
        epochs: None,
        seed: None,
        fault_plan: None,
        profile_db: None,
        explore_cache: None,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        adapt: false,
        drift_threshold: None,
        metrics_out: None,
        trace_out: None,
        trace_summary: false,
        flame_out: None,
        flame_weight: Clock::Sim,
        audit_out: None,
        verbose: false,
    };
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next() {
        match flag {
            "--dataset" => {
                args.dataset = match flags.value(flag)?.to_uppercase().as_str() {
                    "AR" => DatasetId::OgbnArxiv,
                    "PR" => DatasetId::OgbnProducts,
                    "RD" => DatasetId::Reddit,
                    "RD2" => DatasetId::Reddit2,
                    other => return Err(format!("unknown dataset `{other}`")),
                };
            }
            "--model" => {
                args.model = match flags.value(flag)?.to_lowercase().as_str() {
                    "gcn" => ModelKind::Gcn,
                    "sage" => ModelKind::Sage,
                    "gat" => ModelKind::Gat,
                    other => return Err(format!("unknown model `{other}`")),
                };
            }
            "--priority" => {
                args.priority = match flags.value(flag)?.to_lowercase().as_str() {
                    "bal" | "balance" => Priority::Balance,
                    "ex-tm" => Priority::ExTimeMemory,
                    "ex-ma" => Priority::ExMemoryAccuracy,
                    "ex-ta" => Priority::ExTimeAccuracy,
                    other => return Err(format!("unknown priority `{other}`")),
                };
            }
            "--platform" => {
                args.platform = match flags.value(flag)?.to_lowercase().as_str() {
                    "rtx4090" => Platform::default_rtx4090(),
                    "a100" => Platform::default_a100(),
                    "m90" => Platform::default_m90(),
                    other => return Err(format!("unknown platform `{other}`")),
                };
            }
            "--scale" => args.scale = flags.parsed(flag)?,
            "--max-time-ms" => args.constraints.max_time_s = Some(flags.finite(flag)? * 1e-3),
            "--max-mem-mb" => args.constraints.max_mem_bytes = Some(flags.finite(flag)? * 1e6),
            "--min-acc" => args.constraints.min_accuracy = Some(flags.finite(flag)? / 100.0),
            "--profile-samples" => args.profile_samples = Some(flags.at_least_one(flag)?),
            "--explore-budget" => args.explore_budget = Some(flags.at_least_one(flag)?),
            "--epochs" => args.epochs = Some(flags.at_least_one(flag)?),
            "--seed" => args.seed = Some(flags.parsed(flag)?),
            "--fault-plan" => args.fault_plan = Some(flags.value(flag)?.into()),
            "--profile-db" => args.profile_db = Some(flags.value(flag)?.into()),
            "--explore-cache" => args.explore_cache = Some(flags.value(flag)?.into()),
            "--checkpoint-dir" => args.checkpoint_dir = Some(flags.value(flag)?.into()),
            "--checkpoint-every" => args.checkpoint_every = Some(flags.at_least_one(flag)?),
            "--resume" => args.resume = true,
            "--adapt" => args.adapt = true,
            "--drift-threshold" => {
                let t: f64 = flags.parsed(flag)?;
                if !(t.is_finite() && t > 0.0) {
                    return Err(format!("--drift-threshold {t} must be finite and > 0"));
                }
                args.drift_threshold = Some(t);
            }
            "--metrics-out" => args.metrics_out = Some(flags.value(flag)?.into()),
            "--trace-out" => args.trace_out = Some(flags.value(flag)?.into()),
            "--trace-summary" => args.trace_summary = true,
            "--flame-out" => args.flame_out = Some(flags.value(flag)?.into()),
            "--flame-weight" => {
                args.flame_weight = match flags.value(flag)?.to_lowercase().as_str() {
                    "sim" => Clock::Sim,
                    "wall" => Clock::Wall,
                    other => return Err(format!("unknown --flame-weight `{other}`")),
                };
            }
            "--audit-out" => args.audit_out = Some(flags.value(flag)?.into()),
            "--verbose" => args.verbose = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.checkpoint_dir.is_none() {
        if args.checkpoint_every.is_some() {
            return Err("--checkpoint-every requires --checkpoint-dir".into());
        }
        if args.resume {
            return Err("--resume requires --checkpoint-dir".into());
        }
    }
    if args.drift_threshold.is_some() && !args.adapt {
        return Err("--drift-threshold requires --adapt".into());
    }
    Ok(args)
}

/// What opening a WAL-backed store found: the log-level recovery, the
/// frames that would not decode, and the `unit`s that did.
fn report_store_open(
    what: &str,
    unit: &str,
    path: &Path,
    recovery: RecoveryStats,
    undecodable: usize,
    loaded: usize,
) {
    let path = path.display();
    if !recovery.is_clean() {
        eprintln!(
            "warning: {what} {path} recovered: {} torn {unit}(s) truncated, \
             {} {unit}(s) failed CRC and were dropped",
            recovery.torn_truncated, recovery.crc_failures
        );
    }
    if undecodable > 0 {
        eprintln!(
            "warning: {what} {path} holds {undecodable} undecodable {unit}(s) \
             (foreign version?); they are ignored"
        );
    }
    eprintln!("{what} {path}: {loaded} {unit}(s) loaded");
}

/// Whether the navigator has fitted its gray-box estimator: only an
/// exploration needs one, so a run the explore cache serves fits none.
fn report_fit(nav: &Navigator) {
    let records = nav.profile_db().len();
    if records == 0 {
        eprintln!("gray-box estimator not needed: no exploration ran");
        return;
    }
    eprintln!("gray-box estimator fitted on {records} profile record(s)");
    if let Some(store) = nav.profile_store() {
        eprintln!("profile db now holds {} record(s)", store.len());
    }
}

pub fn run(args: Args) -> Result<(), Box<dyn std::error::Error>> {
    let metrics = gnnavigator::obs::global();
    let tracing = args.trace_out.is_some() || args.trace_summary || args.flame_out.is_some();
    if args.metrics_out.is_some() || args.audit_out.is_some() || args.verbose || tracing {
        metrics.enable(true);
    }
    if tracing {
        metrics.journal().enable(true);
    }
    let dataset = Dataset::load_scaled(args.dataset, args.scale)?;
    println!(
        "dataset {} ({} nodes) | model {} | platform {} | priority {}",
        args.dataset,
        dataset.num_nodes(),
        args.model,
        args.platform.device.name,
        args.priority
    );
    let mut options = NavigatorOptions::default();
    if let Some(n) = args.profile_samples {
        options.profile_samples = n;
    }
    if let Some(n) = args.explore_budget {
        options.explore_budget = n;
    }
    if let Some(n) = args.epochs {
        options.apply_exec.epochs = n;
    }
    if let Some(s) = args.seed {
        options.seed = s;
    }
    if let Some(path) = &args.fault_plan {
        let plan = gnnavigator::faults::FaultPlan::load(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "fault plan loaded from {} (seed {}, {} spec(s))",
            path.display(),
            plan.seed,
            plan.specs.len()
        );
        options.profile_exec.fault_plan = Some(plan.clone());
        options.apply_exec.fault_plan = Some(plan);
    }
    let mut nav = Navigator::new(dataset, args.platform, args.model).with_options(options);
    if let Some(path) = &args.profile_db {
        let store = gnnavigator::estimator::ProfileStore::open(path)?;
        report_store_open(
            "profile db",
            "record",
            path,
            store.recovery(),
            store.undecodable(),
            store.len(),
        );
        nav = nav.with_profile_store(store);
    }
    if let Some(dir) = &args.explore_cache {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let cache = gnnavigator::ExploreCache::open(dir.join("explore.wal"))?;
        report_store_open(
            "explore cache",
            "result",
            dir,
            cache.recovery(),
            cache.undecodable(),
            cache.len(),
        );
        nav = nav.with_explore_cache(cache);
    }
    eprintln!("exploring guidelines (profiling + fitting the gray-box estimator on a miss)...");
    let result = nav.generate_guideline(args.priority, &args.constraints)?;
    report_fit(&nav);
    if let Some(cache) = nav.explore_cache() {
        if cache.hits() > 0 {
            eprintln!("explore cache hit: exploration skipped, cached result returned");
        } else {
            eprintln!("explore cache miss: fresh exploration appended");
        }
    }
    println!("\nguideline: {}", result.guideline.config.summary());
    println!(
        "explored {} candidates ({} rejected by constraints, {} subtrees pruned)",
        result.stats.evaluated, result.stats.rejected, result.stats.pruned_subtrees
    );
    if let Some(reason) = &result.fallback {
        eprintln!("warning: {reason}");
    }

    if let Some(dir) = &args.checkpoint_dir {
        let d = gnnavigator::runtime::DurabilityOptions {
            dir: dir.clone(),
            every: args.checkpoint_every.unwrap_or(1),
            resume: args.resume,
        };
        eprintln!(
            "durability: checkpointing into {} every {} epoch(s){}",
            d.dir.display(),
            d.every,
            if d.resume { ", resuming from the newest valid checkpoint" } else { "" }
        );
        nav = nav.with_checkpoints(d);
    }

    let mut adapt_audit = Vec::new();
    let guided = if args.adapt {
        let mut adapt = gnnavigator::adapt::AdaptOptions::default();
        if let Some(t) = args.drift_threshold {
            adapt.drift_threshold = t;
        }
        let fitted = !nav.profile_db().is_empty();
        let outcome = nav.apply_adaptive(&result, &args.constraints, adapt)?;
        if !fitted {
            report_fit(&nav);
        }
        if outcome.switches.is_empty() {
            if outcome.reexplorations == 0 {
                eprintln!(
                    "adaptive: no drift past the threshold over {} epoch(s); guideline kept",
                    outcome.drift_scores.len()
                );
            } else {
                eprintln!(
                    "adaptive: drift triggered {} re-exploration(s) over {} epoch(s), \
                     but no candidate beat the current guideline; guideline kept",
                    outcome.reexplorations,
                    outcome.drift_scores.len()
                );
            }
        } else {
            for s in &outcome.switches {
                println!(
                    "adaptive switch after epoch {}: {} -> {} \
                     (drift EWMA {:.3}, migration {:.3}s sim)",
                    s.epoch,
                    s.from.summary(),
                    s.to.summary(),
                    s.drift_ewma,
                    s.migration_sim_s
                );
            }
        }
        adapt_audit = outcome.audit;
        outcome.report
    } else {
        nav.apply(&result.guideline)?
    };
    let rec = &guided.recovery;
    if !rec.is_clean() {
        eprintln!(
            "recovery: {} fault(s) injected, {} retrie(s), {} degradation step(s), \
             {} NaN step(s) skipped, {} LR halving(s)",
            rec.faults_injected,
            rec.retries,
            rec.degradations.len(),
            rec.nan_steps_skipped,
            rec.lr_halvings
        );
        for step in &rec.degradations {
            eprintln!("  degraded: {step:?}");
        }
    }
    let pyg = nav.run_template(Template::Pyg)?;
    println!("\n              {:>12} {:>10} {:>9}", "time/epoch", "memory", "accuracy");
    for (name, perf) in [("guideline", guided.perf), ("PyG", pyg.perf)] {
        println!(
            "{name:<12} {:>12} {:>8.1}MB {:>8.2}%",
            perf.epoch_time.to_string(),
            perf.peak_mem_mb(),
            perf.accuracy * 100.0
        );
    }
    println!(
        "\nspeedup {:.2}x | memory {:+.1}% | accuracy {:+.2}% vs PyG",
        guided.perf.speedup_vs(&pyg.perf),
        guided.perf.mem_delta_vs(&pyg.perf) * 100.0,
        (guided.perf.accuracy - pyg.perf.accuracy) * 100.0
    );

    if args.verbose {
        let phases = &guided.perf.phases;
        let total = phases.total().as_secs().max(f64::MIN_POSITIVE);
        println!("\nguideline epoch phase breakdown (simulated):");
        for (name, d) in [
            ("sample", phases.sample),
            ("transfer", phases.transfer),
            ("replace", phases.replace),
            ("compute", phases.compute),
        ] {
            println!("  {name:<10} {:>12} {:>5.1}%", d.to_string(), d.as_secs() / total * 100.0);
        }
        println!("\nmetrics:\n{}", metrics.snapshot().to_table());
    }
    if let Some(path) = &args.metrics_out {
        write_file(path, metrics.snapshot().to_json())?;
        eprintln!("metrics written to {}", path.display());
    }
    if tracing {
        let journal = metrics.journal().snapshot();
        if journal.dropped > 0 {
            eprintln!(
                "warning: journal ring dropped {} event(s); the exported trace is \
                 truncated and trace-diff will refuse to gate on it",
                journal.dropped
            );
        }
        if let Some(path) = &args.trace_out {
            write_file(path, journal.to_chrome_trace())?;
            eprintln!(
                "chrome trace written to {} (open in https://ui.perfetto.dev)",
                path.display()
            );
        }
        if let Some(path) = &args.flame_out {
            write_file(path, gnnavigator::obs::flame::folded_stacks(&journal, args.flame_weight))?;
            eprintln!(
                "folded stacks ({}-weighted) written to {}",
                args.flame_weight.label(),
                path.display()
            );
        }
        if args.trace_summary {
            println!("\n{}", gnnavigator::obs::critical::render_summary(&journal, 10));
        }
    }
    if let Some(path) = &args.audit_out {
        let mut audit = result.audit.to_vec();
        audit.extend(adapt_audit);
        write_file(path, gnnavigator::explorer::audit_to_json(&audit))?;
        eprintln!("decision audit ({} records) written to {}", audit.len(), path.display());
    }
    Ok(())
}

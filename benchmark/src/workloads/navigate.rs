//! `cold_navigate` and `warm_navigate`: one whole navigation on
//! RD2@0.05 / SAGE / RTX4090, against fresh stores (cold) or stores a
//! cold navigation populated during set-up (warm).

use std::path::{Path, PathBuf};

use gnnavigator::estimator::{
    profile_fingerprint, GrayBoxEstimator, ProfileDb, ProfileStore, Profiler,
};
use gnnavigator::explorer::{explore_fingerprint, ExplorationResult, Explorer};
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::{ExecutionOptions, ExecutionReport, RuntimeBackend, TrainingConfig};
use gnnavigator::{
    ExploreCache, Navigator, NavigatorOptions, Priority, RuntimeConstraints, Template,
};

use super::{ctx_err, digest_of, Ctx, Repeat, Workload};
use crate::trace::Tracer;

const MODEL: ModelKind = ModelKind::Sage;
/// Warm navigations per repeat (each ~25 ms): enough for a p75.
const WARM_OPS: usize = 40;

/// What a navigation returns: the four guidelines and, cold only, the
/// applied Balance guideline next to the PyG template.
#[derive(Debug)]
struct Outcome {
    results: Vec<ExplorationResult>,
    applied: Option<(ExecutionReport, ExecutionReport)>,
    profiled: usize,
    explored: u64,
}

pub struct Navigate {
    warm: bool,
    scale: f64,
    options: NavigatorOptions,
    platform: Platform,
    /// Cold only: the dataset is an input. A warm navigation loads it.
    dataset: Option<Dataset>,
    /// Warm only: the populated stores and what the cold run returned.
    warm_dir: Option<(PathBuf, String)>,
    repeats: usize,
}

/// Default `NavigatorOptions` with the profile sweep cut to 24 + 12
/// configurations (from 60 + 2 × 30), which keeps a cold navigation
/// near 2.5 s on one CPU and its stage balance (sweep 80 %, apply
/// 15 %, DSE 2 %) where the default's is. The design-space sample keeps
/// the default seed on every run: which configurations are swept
/// decides how long the sweep takes (±15 % across seeds). `--seed`
/// seeds every profiled and applied execution instead (mini-batch
/// order, neighbour sampling, model initialisation).
fn options(ctx: &Ctx) -> NavigatorOptions {
    let mut o = NavigatorOptions {
        profile_samples: if ctx.quick { 12 } else { 24 },
        augmentation_graphs: 1,
        ..NavigatorOptions::default()
    };
    o.profile_exec.seed = ctx.seed;
    o.apply_exec.seed = ctx.seed;
    if ctx.quick {
        o.augmentation_nodes = 400;
        o.explore_budget = 200;
        o.apply_exec.epochs = 1;
    }
    o
}

fn store_paths(dir: &Path) -> (PathBuf, PathBuf) {
    (dir.join("profiles.db"), dir.join("explore.wal"))
}

fn load(scale: f64) -> Result<Dataset, String> {
    Dataset::load_scaled(DatasetId::Reddit2, scale).map_err(ctx_err("load dataset"))
}

impl Navigate {
    pub fn setup(ctx: &Ctx, warm: bool) -> Result<Self, String> {
        let scale = if ctx.quick { 0.03 } else { 0.05 };
        let mut w = Navigate {
            warm,
            scale,
            options: options(ctx),
            platform: Platform::default_rtx4090(),
            dataset: None,
            warm_dir: None,
            repeats: 0,
        };
        if warm {
            let dir = ctx.dir.join("warm-stores");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(ctx_err("create warm store dir"))?;
            let cold = w.navigate(&dir, load(scale)?, false)?;
            w.warm_dir = Some((dir, format!("{:?}", cold.results)));
        } else {
            w.dataset = Some(load(scale)?);
        }
        Ok(w)
    }

    fn navigator(&self, dir: &Path, dataset: Dataset) -> Result<Navigator, String> {
        let (db, wal) = store_paths(dir);
        let store = ProfileStore::open(db).map_err(ctx_err("open profile store"))?;
        let cache = ExploreCache::open(wal).map_err(ctx_err("open explore cache"))?;
        Ok(Navigator::new(dataset, self.platform.clone(), MODEL)
            .with_options(self.options.clone())
            .with_profile_store(store)
            .with_explore_cache(cache))
    }

    /// One navigation through the `Navigator` API, as a user runs it.
    fn navigate(&self, dir: &Path, dataset: Dataset, apply: bool) -> Result<Outcome, String> {
        let mut nav = self.navigator(dir, dataset)?;
        let stored_before = nav.profile_store().map_or(0, ProfileStore::len);
        nav.prepare().map_err(ctx_err("prepare"))?;
        let results =
            nav.generate_all(&RuntimeConstraints::none()).map_err(ctx_err("generate_all"))?;
        let applied = if apply {
            let balance = &results[0].guideline;
            let report = nav.apply(balance).map_err(ctx_err("apply"))?;
            let pyg = nav.run_template(Template::Pyg).map_err(ctx_err("run_template"))?;
            Some((report, pyg))
        } else {
            None
        };
        let profiled = nav.profile_store().map_or(0, ProfileStore::len) - stored_before;
        let explored = nav.explore_cache().map_or(0, |c| c.inserts());
        Ok(Outcome { results, applied, profiled, explored })
    }

    /// The same navigation driven layer by layer: every public call
    /// `Navigator` makes, each under its own span.
    fn navigate_traced(
        &self,
        t: &Tracer,
        dir: &Path,
        dataset: Dataset,
        apply: bool,
    ) -> Result<Outcome, String> {
        let o = &self.options;
        let platform = &self.platform;
        let (db_path, wal_path) = store_paths(dir);
        let (mut store, mut cache) = t.time("core.open_stores", || {
            let store = t
                .time("estimator.store_open", || ProfileStore::open(db_path))
                .map_err(ctx_err("open profile store"))?;
            let cache = t
                .time("explorer.cache_open", || ExploreCache::open(wal_path))
                .map_err(ctx_err("open explore cache"))?;
            Ok::<_, String>((store, cache))
        })?;
        let stored_before = store.len();

        let backend = RuntimeBackend::new(platform.clone());
        let estimator = t.time("core.prepare", || {
            let profiler = Profiler::new(backend.clone(), o.profile_exec.clone());
            let configs =
                t.time("runtime.space_sample", || o.space.sample(o.profile_samples, MODEL, o.seed));
            let mut db = ProfileDb::new();
            db.merge(sweep(t, &profiler, platform, &mut store, &dataset, &configs)?);
            if o.augmentation_graphs > 0 {
                let aug_configs = t.time("runtime.space_sample", || {
                    o.space.sample((o.profile_samples / 2).max(4), MODEL, o.seed ^ 0xA06)
                });
                for i in 0..o.augmentation_graphs {
                    let aug = t
                        .time("graph.synthetic", || {
                            Dataset::synthetic(
                                o.augmentation_nodes,
                                3 + (i % 5),
                                64,
                                16,
                                (o.seed ^ 0x9999).wrapping_add(i as u64),
                            )
                        })
                        .map_err(ctx_err("augmentation graph"))?;
                    db.merge(sweep(t, &profiler, platform, &mut store, &aug, &aug_configs)?);
                }
            }
            let mut estimator = GrayBoxEstimator::new();
            t.time("estimator.fit", || estimator.fit(&db)).map_err(ctx_err("fit"))?;
            Ok::<_, String>(estimator)
        })?;

        let salt = format!(
            "samples={} aug={}x{} seed={:#x} profile_exec={:?}",
            o.profile_samples, o.augmentation_graphs, o.augmentation_nodes, o.seed, o.profile_exec,
        );
        let constraints = RuntimeConstraints::none();
        let results = t.time("core.generate", || {
            let explorer = Explorer::new(&estimator, o.explore_budget).with_space(o.space.clone());
            Priority::ALL
                .iter()
                .map(|&priority| {
                    let fp = t.time("explorer.fingerprint", || {
                        explore_fingerprint(
                            &dataset,
                            platform,
                            MODEL,
                            &o.space,
                            priority,
                            &constraints,
                            explorer.budget(),
                            explorer.seed(),
                            &salt,
                        )
                    });
                    if let Some(hit) = t.time("explorer.cache_lookup", || cache.lookup(fp).cloned())
                    {
                        return Ok(hit);
                    }
                    let result = t
                        .time("explorer.explore", || {
                            explorer.explore(&dataset, platform, MODEL, priority, &constraints)
                        })
                        .map_err(ctx_err("explore"))?;
                    t.time("explorer.cache_insert", || cache.insert(fp, &result))
                        .map_err(ctx_err("cache insert"))?;
                    Ok(result)
                })
                .collect::<Result<Vec<_>, String>>()
        })?;

        let applied = if apply {
            Some(t.time("core.apply", || {
                let report = t
                    .time("runtime.execute", || {
                        backend.execute(&dataset, &results[0].guideline.config, &o.apply_exec)
                    })
                    .map_err(ctx_err("apply"))?;
                let opts = ExecutionOptions { journal: false, ..o.apply_exec.clone() };
                let pyg = t
                    .time("runtime.execute", || {
                        backend.execute(&dataset, &Template::Pyg.config(MODEL), &opts)
                    })
                    .map_err(ctx_err("run_template"))?;
                Ok::<_, String>((report, pyg))
            })?)
        } else {
            None
        };
        Ok(Outcome {
            results,
            applied,
            profiled: store.len() - stored_before,
            explored: cache.inserts(),
        })
    }
}

/// `Navigator::profile_with_store`, span by span: fingerprint every
/// config, profile the ones the store lacks, append them, and
/// assemble the database in config order.
fn sweep(
    t: &Tracer,
    profiler: &Profiler,
    platform: &Platform,
    store: &mut ProfileStore,
    dataset: &Dataset,
    configs: &[TrainingConfig],
) -> Result<ProfileDb, String> {
    let fps: Vec<u64> = t.time("estimator.fingerprint", || {
        configs.iter().map(|c| profile_fingerprint(dataset, platform, c)).collect()
    });
    let uncovered: Vec<usize> = (0..configs.len()).filter(|&i| !store.contains(fps[i])).collect();
    if !uncovered.is_empty() {
        let cfgs: Vec<TrainingConfig> = uncovered.iter().map(|&i| configs[i].clone()).collect();
        let fresh = t
            .time("estimator.profile", || profiler.profile(dataset, &cfgs))
            .map_err(ctx_err("profile"))?;
        t.time("estimator.store_insert", || {
            fresh.records().iter().try_for_each(|rec| store.insert(rec).map(|_| ()))
        })
        .map_err(ctx_err("store insert"))?;
    }
    let mut db = ProfileDb::new();
    for fp in &fps {
        if let Some(rec) = store.get(*fp) {
            db.push(rec.clone());
        }
    }
    Ok(db)
}

impl Workload for Navigate {
    fn work_unit(&self) -> &'static str {
        "navigations"
    }

    fn repeat(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<Repeat, String> {
        self.repeats += 1;
        let mut rep = Repeat::default();
        let ops = match (self.warm, ctx.quick || tracer.enabled()) {
            (false, _) => 1,
            (true, false) => WARM_OPS,
            (true, true) => WARM_OPS / 10,
        };
        let cold_dir = ctx.dir.join(format!("cold-{}", self.repeats));
        if !self.warm {
            let _ = std::fs::remove_dir_all(&cold_dir);
            std::fs::create_dir_all(&cold_dir).map_err(ctx_err("create cold store dir"))?;
        }
        let mut last = None;
        for op in 0..ops {
            tracer.set_op(op as u64);
            let (latency, outcome) = ctx.time(|| {
                tracer.time("core.navigate", || match &self.warm_dir {
                    Some((dir, _)) => {
                        let dataset = tracer.time("graph.load", || load(self.scale))?;
                        if tracer.enabled() {
                            self.navigate_traced(tracer, dir, dataset, false)
                        } else {
                            self.navigate(dir, dataset, false)
                        }
                    }
                    None => {
                        let dataset = self.dataset.clone().expect("cold set-up loads the dataset");
                        if tracer.enabled() {
                            self.navigate_traced(tracer, &cold_dir, dataset, true)
                        } else {
                            self.navigate(&cold_dir, dataset, true)
                        }
                    }
                })
            });
            let outcome = outcome?;
            rep.latencies.push(latency);
            rep.attempted += 1;
            if self.warm {
                rep.check(outcome.profiled == 0 && outcome.explored == 0, || {
                    format!(
                        "warm navigation {op} profiled {} configs and explored {} priorities",
                        outcome.profiled, outcome.explored
                    )
                });
            }
            last = Some(outcome);
        }
        rep.wall = rep.latencies.clone();
        rep.work = ops as f64;
        let outcome = last.expect("at least one navigation");
        // Rendering four results takes as long as a warm navigation,
        // so only the repeat's last one is compared byte for byte.
        if let Some((_, cold)) = &self.warm_dir {
            rep.check(&format!("{:?}", outcome.results) == cold, || {
                "the last warm navigation is not byte-identical to the cold one".into()
            });
        }
        rep.check(outcome.results.len() == Priority::ALL.len(), || {
            format!("{} guidelines for {} priorities", outcome.results.len(), Priority::ALL.len())
        });
        rep.digest = digest_of(&(&outcome.results, &outcome.applied));
        rep.counts.insert("core.configs_profiled".into(), outcome.profiled as f64);
        if let Some((report, pyg)) = &outcome.applied {
            let speedup = report.perf.speedup_vs(&pyg.perf);
            let mem = pyg.perf.peak_mem_bytes as f64 / report.perf.peak_mem_bytes as f64;
            let acc_pp = (report.perf.accuracy - pyg.perf.accuracy) * 100.0;
            // The simulated-clock anchor: host time may not be bought
            // by profiling less or exploring less and so landing on a
            // guideline that no longer beats the PyG template. Accuracy
            // is reported, not checked: after two epochs on 230 test
            // nodes it moves ±6 pp with the execution seed. (The
            // 12-config estimator of smoke mode is not held to this.)
            rep.check(ctx.quick || (speedup > 1.0 && mem >= 1.0), || {
                format!("Balance guideline vs PyG: {speedup:.3}x faster, {mem:.3}x less memory")
            });
            let swept = self.options.profile_samples
                + self.options.augmentation_graphs * (self.options.profile_samples / 2).max(4);
            rep.check(outcome.profiled == swept && outcome.explored == 4, || {
                format!(
                    "cold navigation profiled {} of {swept} configs and explored {} of 4 priorities",
                    outcome.profiled, outcome.explored
                )
            });
            rep.counts.insert("core.sim_speedup_vs_pyg".into(), speedup);
            rep.counts.insert("core.sim_mem_reduction_vs_pyg".into(), mem);
            rep.counts.insert("core.acc_delta_pp".into(), acc_pp);
        }
        if !self.warm {
            let _ = std::fs::remove_dir_all(&cold_dir);
        }
        Ok(rep)
    }
}

//! Per-layer probes: small fixed inputs timed around one layer's
//! public functions. They run in every trace pass and do not depend
//! on the workload, so a layer has a number even on a workload that
//! never reaches it. Like the workloads they run on one CPU; each
//! `*.par_eff` row times its call once more on every CPU.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use gnnavigator::cache::{build_cache, CachePolicy};
use gnnavigator::estimator::{
    profile_fingerprint, GrayBoxEstimator, PredictionContext, ProfileStore, Profiler,
};
use gnnavigator::explorer::{explore_fingerprint, Explorer};
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::{train, Adam, GnnModel, Matrix, ModelKind};
use gnnavigator::runtime::{
    DesignSpace, DurabilityOptions, ExecutionOptions, RuntimeBackend, SamplerKind, TrainingConfig,
};
use gnnavigator::sampler::{batch_targets, MiniBatch};
use gnnavigator::serve::{tenant_request, NavService, ServeOptions};
use gnnavigator::store::{read_checkpoint, write_checkpoint, Wal};
use gnnavigator::{
    ExploreCache, Navigator, NavigatorOptions, Priority, RuntimeConstraints, Template,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;
use crate::workloads::{ctx_err, Ctx};

const MODEL: ModelKind = ModelKind::Sage;

/// Seconds `f` takes, once.
fn once<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Median seconds of `k` calls of `f`.
fn median_of(k: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..k).map(|_| once(&mut f).0).collect::<Vec<_>>())
}

struct Probe<'a> {
    ctx: &'a Ctx,
    out: BTreeMap<String, f64>,
    platform: Platform,
}

impl Probe<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.out.insert(name.to_string(), value);
    }

    fn graph(&mut self) -> Result<Dataset, String> {
        let load = || Dataset::load_scaled(DatasetId::Reddit2, 0.1);
        self.put("graph.load_s", median_of(3, || drop(std::hint::black_box(load()))));
        let spec = tenant_request(self.ctx.seed, 0).workload;
        self.put("graph.materialize_s", median_of(3, || drop(spec.materialize())));
        let dataset = load().map_err(ctx_err("load RD2@0.1"))?;
        self.put(
            "graph.stats_s",
            median_of(5, || {
                std::hint::black_box(dataset.stats());
            }),
        );
        self.put("graph.nodes", dataset.num_nodes() as f64);
        self.put("graph.edges", dataset.graph().num_edges() as f64);
        Ok(dataset)
    }

    /// Sampler, cache and nn on PR@0.2 mini-batches of 256 targets.
    fn batch_layers(&mut self) -> Result<(), String> {
        let dataset =
            Dataset::load_scaled(DatasetId::OgbnProducts, 0.2).map_err(ctx_err("load PR@0.2"))?;
        let graph = dataset.graph();
        let mut rng = StdRng::seed_from_u64(self.ctx.seed);
        let targets = batch_targets(&dataset.split().train, 256, &mut rng);
        let targets = &targets[..targets.len().min(12)];

        let mut node_batches: Vec<MiniBatch> = Vec::new();
        for (kind, label) in [
            (SamplerKind::NodeWise, "node"),
            (SamplerKind::LayerWise, "layer"),
            (SamplerKind::SubgraphWise, "subgraph"),
        ] {
            let config = TrainingConfig { sampler: kind, ..Template::Pyg.config(MODEL) };
            let sampler = config.build_sampler(graph).map_err(ctx_err("build sampler"))?;
            let mut secs = Vec::new();
            let mut nodes = 0usize;
            for t in targets {
                let (s, batch) = once(|| sampler.sample(graph, t, &mut rng));
                let batch = batch.map_err(ctx_err("sample"))?;
                secs.push(s);
                nodes += batch.num_nodes();
                if kind == SamplerKind::NodeWise {
                    node_batches.push(batch);
                }
            }
            self.put(&format!("sampler.batch_s.{label}"), median(&secs));
            if kind == SamplerKind::NodeWise {
                self.put("sampler.nodes_per_s", nodes as f64 / secs.iter().sum::<f64>());
            }
        }

        for (policy, label) in [
            (CachePolicy::StaticDegree, "static"),
            (CachePolicy::Lru, "lru"),
            (CachePolicy::Lfu, "lfu"),
        ] {
            let mut cache = build_cache(policy, graph.num_nodes() / 5, graph);
            let mut looked_up = 0usize;
            let (secs, ()) = once(|| {
                for batch in &node_batches {
                    let outcome = cache.lookup(&batch.nodes);
                    cache.update(&outcome.misses);
                    looked_up += batch.nodes.len();
                }
            });
            self.put(&format!("cache.lookup_ns.{label}"), secs * 1e9 / looked_up as f64);
        }

        let batch = &node_batches[0];
        let features = dataset.features();
        let x = Matrix::from_vec(batch.num_nodes(), features.dim(), features.gather(&batch.nodes));
        let labels = features.gather_labels(&batch.nodes);
        let rows = batch.target_locals();
        let seed = self.ctx.seed;
        let step_s = |kind: ModelKind| {
            let mut model =
                GnnModel::new(kind, features.dim(), 64, features.num_classes(), 2, seed);
            let mut opt = Adam::new(0.01);
            median_of(5, || {
                train::train_step(&mut model, &mut opt, &batch.subgraph, &x, &labels, &rows);
            })
        };
        let flops_before = gnnavigator::nn::kernel_stats().matmul_flops;
        let serial = step_s(MODEL);
        let flops = gnnavigator::nn::kernel_stats().matmul_flops - flops_before;
        self.put("nn.matmul_flops", flops as f64 / 5.0);
        self.put("nn.train_step_s.sage", serial);
        self.put("nn.train_step_s.gcn", step_s(ModelKind::Gcn));
        self.put("nn.train_step_s.gat", step_s(ModelKind::Gat));
        let (wide, width) = self.ctx.on_all_cpus(|width| (step_s(MODEL), width));
        self.put("nn.par_eff", serial / (wide * width as f64));

        // The repository's own 256³ product, next to the benchmark's
        // calibration kernel (`obs.speed_factor`).
        let a = Matrix::from_vec(256, 256, (0..256 * 256).map(|i| (i % 7) as f32 * 0.25).collect());
        let b = Matrix::from_vec(256, 256, (0..256 * 256).map(|i| (i % 5) as f32 * 0.5).collect());
        let mut c = Matrix::zeros(256, 256);
        let product_s = median_of(15, || a.matmul_into(std::hint::black_box(&b), &mut c));
        self.put("nn.calib_gflops", 2.0 * 256f64.powi(3) / product_s / 1e9);
        Ok(())
    }

    fn runtime(&mut self, dataset: &Dataset, dir: &Path) -> Result<(), String> {
        let backend = RuntimeBackend::new(self.platform.clone());
        let config = Template::PaGraphFull.config(MODEL);
        let timing = ExecutionOptions::timing_only();
        self.put(
            "runtime.timing_only_execute_s",
            median_of(5, || drop(backend.execute(dataset, &config, &timing))),
        );
        let opts = ExecutionOptions {
            epochs: 2,
            train_batches_cap: Some(4),
            journal: false,
            ..ExecutionOptions::default()
        };
        // Paired, so that machine drift between the two cancels.
        let mut overhead = Vec::new();
        for i in 0..5 {
            let (plain_s, _) = once(|| backend.execute(dataset, &config, &opts));
            let dur = DurabilityOptions::new(dir.join(format!("ckpt-{i}")), 1);
            let (s, report) = once(|| backend.execute_durable(dataset, &config, &opts, &dur));
            report.map_err(ctx_err("execute_durable"))?;
            overhead.push(s - plain_s);
        }
        self.put("runtime.checkpoint_overhead_s", median(&overhead));
        Ok(())
    }

    /// Profiler, fit, prediction, fingerprints and the profile store.
    fn estimator(&mut self, dataset: &Dataset, dir: &Path) -> Result<GrayBoxEstimator, String> {
        let exec = NavigatorOptions::default().profile_exec;
        let profiler = Profiler::new(RuntimeBackend::new(self.platform.clone()), exec);
        let space = DesignSpace::standard();
        let configs = space.sample(8, MODEL, self.ctx.seed);
        let serial = profiler.clone().with_threads(1);
        let mut per_config = Vec::new();
        for config in &configs {
            let (s, db) = once(|| serial.profile(dataset, std::slice::from_ref(config)));
            db.map_err(ctx_err("profile one config"))?;
            per_config.push(s);
        }
        let ((wide_s, db), width) = self.ctx.on_all_cpus(|width| {
            let wide = profiler.clone().with_threads(width);
            (once(|| wide.profile(dataset, &configs)), width)
        });
        let mut db = db.map_err(ctx_err("profile"))?;
        self.put("estimator.profile_config_s_p50", median(&per_config));
        self.put(
            "estimator.profile_par_eff",
            per_config.iter().sum::<f64>() / (wide_s * width as f64),
        );
        let held_out = profiler
            .profile(dataset, &space.sample(8, MODEL, self.ctx.seed ^ 0xB))
            .map_err(ctx_err("profile held-out"))?;
        // A second dataset keeps the fit from being degenerate in the
        // dataset-shape features.
        let small = Dataset::load_scaled(DatasetId::Reddit2, 0.05).map_err(ctx_err("load"))?;
        db.merge(profiler.profile(&small, &configs).map_err(ctx_err("profile small"))?);

        let mut estimator = GrayBoxEstimator::new();
        estimator.fit(&db).map_err(ctx_err("fit"))?;
        self.put("estimator.fit_s", median_of(5, || drop(GrayBoxEstimator::new().fit(&db))));
        let mape = |truth: &dyn Fn(usize) -> f64, pred: &dyn Fn(usize) -> f64| {
            let n = held_out.len();
            (0..n).map(|i| ((pred(i) - truth(i)) / truth(i)).abs()).sum::<f64>() / n as f64
        };
        let records = held_out.records();
        let preds: Vec<_> = records.iter().map(|r| estimator.predict(&r.context)).collect();
        self.put("estimator.mape.time", mape(&|i| records[i].epoch_time_s, &|i| preds[i].time_s));
        self.put("estimator.mape.memory", mape(&|i| records[i].mem_bytes, &|i| preds[i].mem_bytes));
        self.put(
            "estimator.mape.accuracy",
            mape(&|i| records[i].accuracy.max(1e-9), &|i| preds[i].accuracy),
        );

        let many = space.sample(2000, MODEL, self.ctx.seed ^ 0x2000);
        let (s, n) = once(|| {
            let mut pctx = PredictionContext::new(dataset, &self.platform);
            estimator.predict_batch(&mut pctx, &many).len()
        });
        self.put("estimator.predict_batch_us", s * 1e6 / n as f64);
        let (s, ()) = once(|| {
            for config in &configs {
                std::hint::black_box(profile_fingerprint(dataset, &self.platform, config));
            }
        });
        self.put("estimator.fingerprint_us", s * 1e6 / configs.len() as f64);

        // 128 records, about what one cold navigation stores.
        let path = dir.join("probe-profiles.db");
        let mut store = ProfileStore::open(&path).map_err(ctx_err("open store"))?;
        let template = &db.records()[0];
        let (s, result) = once(|| {
            (0..128).try_for_each(|i| {
                let mut record = template.clone();
                record.context.config.batch_size = 10_000 + i;
                store.insert(&record).map(|_| ())
            })
        });
        result.map_err(ctx_err("store insert"))?;
        self.put("estimator.store_insert_ms", s * 1e3 / 128.0);
        drop(store);
        self.put("estimator.store_open_s", median_of(3, || drop(ProfileStore::open(&path))));
        Ok(estimator)
    }

    fn explorer(
        &mut self,
        estimator: &GrayBoxEstimator,
        dataset: &Dataset,
        dir: &Path,
    ) -> Result<(), String> {
        let none = RuntimeConstraints::none();
        let platform = self.platform.clone();
        let explore = |budget: usize| {
            once(|| {
                Explorer::new(estimator, budget).explore(
                    dataset,
                    &platform,
                    MODEL,
                    Priority::Balance,
                    &none,
                )
            })
        };
        let (serial_s, _) = explore(4000);
        let ((wide_s, _), width) = self.ctx.on_all_cpus(|width| (explore(4000), width));
        self.put("explorer.par_eff", serial_s / (wide_s * width as f64));

        let space = DesignSpace::standard();
        let fingerprint = |seed: u64| {
            explore_fingerprint(
                dataset,
                &platform,
                MODEL,
                &space,
                Priority::Balance,
                &none,
                400,
                seed,
                "probe",
            )
        };
        self.put(
            "explorer.fingerprint_us",
            median_of(9, || {
                std::hint::black_box(fingerprint(1));
            }) * 1e6,
        );

        // 64 entries the size `NavService` stores (budget 400).
        let result = explore(400).1.map_err(ctx_err("explore"))?;
        let path = dir.join("probe-explore.wal");
        let mut cache = ExploreCache::open(&path).map_err(ctx_err("open cache"))?;
        let (s, inserted) = once(|| {
            (0..64).try_for_each(|seed| cache.insert(fingerprint(seed), &result).map(drop))
        });
        inserted.map_err(ctx_err("cache insert"))?;
        // The fingerprints are computed inside the timed loop; take
        // them back out.
        let insert_ms = s * 1e3 / 64.0 - self.out["explorer.fingerprint_us"] / 1e3;
        self.put("explorer.cache_insert_ms", insert_ms);
        let keys: Vec<u64> = (0..64).map(fingerprint).collect();
        let (s, hits) = once(|| keys.iter().filter(|&&k| cache.lookup(k).is_some()).count());
        if hits != keys.len() {
            return Err(format!("explore cache probe: {hits} of {} lookups hit", keys.len()));
        }
        self.put("explorer.cache_lookup_us", s * 1e6 / keys.len() as f64);
        drop(cache);
        self.put("explorer.cache_open_s", median_of(3, || drop(ExploreCache::open(&path))));
        Ok(())
    }

    fn store(&mut self, dir: &Path) -> Result<(), String> {
        let path = dir.join("probe.wal");
        let mut wal = Wal::open(&path).map_err(ctx_err("open wal"))?;
        let record = vec![0xA5u8; 1024];
        let mut append_s = Vec::with_capacity(1030);
        for _ in 0..1029 {
            let (s, appended) = once(|| wal.append(&record));
            appended.map_err(ctx_err("wal append"))?;
            append_s.push(s);
        }
        for at in [0usize, 256, 1024] {
            self.put(&format!("store.wal_append_ms_at.{at}"), median(&append_s[at..at + 5]) * 1e3);
        }
        drop(wal);
        let bytes = std::fs::metadata(&path).map_err(ctx_err("stat wal"))?.len();
        self.put("store.wal_bytes", bytes as f64);
        self.put("store.wal_open_s", median_of(3, || drop(Wal::open(&path))));

        let payload = vec![0x5Au8; 300_000];
        let ckpt = dir.join("probe.ckpt");
        self.put(
            "store.checkpoint_write_ms",
            median_of(5, || drop(write_checkpoint(&ckpt, &payload))) * 1e3,
        );
        self.put(
            "store.checkpoint_read_ms",
            median_of(5, || drop(std::hint::black_box(read_checkpoint(&ckpt)))) * 1e3,
        );
        Ok(())
    }

    /// Calibration cost from outside: a one-request wave on a fresh
    /// service against one on a warm estimator pool.
    fn serve(&mut self) -> Result<(), String> {
        let seed = self.ctx.seed;
        let mut service = NavService::new(ServeOptions { seed, ..ServeOptions::default() });
        let first = tenant_request(seed, 0);
        // Same platform, another tenant and shape: a pool hit that
        // still has to explore.
        let second = (1..1000)
            .map(|t| tenant_request(seed, t))
            .find(|r| r.platform == first.platform && r.workload != first.workload)
            .ok_or("no second tenant on the first tenant's platform")?;
        for (name, request) in [("serve.cold_wave_s", first), ("serve.warm_pool_wave_s", second)] {
            service.submit(request).map_err(|e| format!("submit: {}", e.reason()))?;
            let (s, responses) = once(|| service.drain());
            responses.map_err(ctx_err("drain"))?;
            self.put(name, s);
        }
        Ok(())
    }

    /// `apply_adaptive` without drift against plain `apply`.
    fn adapt(&mut self) -> Result<(), String> {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.03).map_err(ctx_err("load"))?;
        let options = NavigatorOptions {
            profile_samples: 12,
            augmentation_graphs: 1,
            augmentation_nodes: 400,
            explore_budget: 200,
            apply_exec: ExecutionOptions { epochs: 2, ..ExecutionOptions::default() },
            seed: self.ctx.seed,
            ..NavigatorOptions::default()
        };
        let mut nav = Navigator::new(dataset, self.platform.clone(), MODEL).with_options(options);
        nav.prepare().map_err(ctx_err("prepare"))?;
        let none = RuntimeConstraints::none();
        let result =
            nav.generate_guideline(Priority::Balance, &none).map_err(ctx_err("explore"))?;
        let plain = median_of(3, || drop(nav.apply(&result.guideline)));
        let adaptive =
            median_of(3, || drop(nav.apply_adaptive(&result, &none, Default::default())));
        self.put("adapt.overhead_ratio", adaptive / plain);
        Ok(())
    }
}

/// Runs every probe.
pub fn run(ctx: &Ctx) -> Result<BTreeMap<String, f64>, String> {
    let dir = ctx.dir.join("probes");
    std::fs::create_dir_all(&dir).map_err(ctx_err("create probe dir"))?;
    let mut p = Probe { ctx, out: BTreeMap::new(), platform: Platform::default_rtx4090() };
    let dataset = p.graph()?;
    p.batch_layers()?;
    p.runtime(&dataset, &dir)?;
    let estimator = p.estimator(&dataset, &dir)?;
    p.explorer(&estimator, &dataset, &dir)?;
    p.store(&dir)?;
    p.serve()?;
    p.adapt()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(p.out)
}

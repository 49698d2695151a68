//! `train_apply`: applying a guideline for real — two full epochs of
//! the Pa-Full template on PR@0.1 for each of GCN, SAGE and GAT.

use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::{ExecutionOptions, ExecutionReport, RuntimeBackend};
use gnnavigator::Template;

use super::{ctx_err, digest_of, Ctx, Repeat, Workload};
use crate::trace::Tracer;

const EPOCHS: usize = 2;

pub struct TrainApply {
    dataset: Dataset,
    backend: RuntimeBackend,
    opts: ExecutionOptions,
}

impl TrainApply {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let scale = if ctx.quick { 0.03 } else { 0.1 };
        Ok(TrainApply {
            dataset: Dataset::load_scaled(DatasetId::OgbnProducts, scale)
                .map_err(ctx_err("load dataset"))?,
            backend: RuntimeBackend::new(Platform::default_rtx4090()),
            opts: ExecutionOptions {
                epochs: EPOCHS,
                seed: ctx.seed,
                journal: false,
                ..ExecutionOptions::default()
            },
        })
    }
}

impl Workload for TrainApply {
    fn work_unit(&self) -> &'static str {
        "epochs"
    }

    fn repeat(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<Repeat, String> {
        let mut rep = Repeat::default();
        let mut reports: Vec<ExecutionReport> = Vec::new();
        for (op, model) in ModelKind::ALL.into_iter().enumerate() {
            tracer.set_op(op as u64);
            let config = Template::PaGraphFull.config(model);
            let name = format!("runtime.execute.{}", model.short_name().to_lowercase());
            let (execute, report) = ctx.time(|| {
                tracer.time(&name, || self.backend.execute(&self.dataset, &config, &self.opts))
            });
            rep.latencies.push(execute);
            reports.push(report.map_err(ctx_err("execute"))?);
        }
        rep.wall = rep.latencies.clone();
        rep.attempted = reports.len() as u64;
        // Host wall per training epoch is wall ÷ work: session set-up
        // and the final evaluation amortised over the epochs.
        rep.work = (reports.len() * EPOCHS) as f64;
        for (model, report) in ModelKind::ALL.iter().zip(&reports) {
            rep.check(
                !report.loss_history.is_empty()
                    && report.loss_history.iter().all(|l| l.is_finite()),
                || format!("{model:?}: loss history is empty or not finite"),
            );
            rep.check(report.recovery.is_clean(), || format!("{model:?}: recovery log not clean"));
        }
        let mean = |f: &dyn Fn(&ExecutionReport) -> f64| {
            reports.iter().map(f).sum::<f64>() / reports.len() as f64
        };
        let phases = |r: &ExecutionReport| r.perf.phases.total().as_secs();
        let counts = [
            ("hwsim.sim_epoch_s", mean(&|r| r.perf.epoch_time.as_secs())),
            ("hwsim.sim_peak_mem_mb", mean(&|r| r.perf.peak_mem_mb())),
            ("hwsim.phase_share.sample", mean(&|r| r.perf.phases.sample.as_secs() / phases(r))),
            ("hwsim.phase_share.transfer", mean(&|r| r.perf.phases.transfer.as_secs() / phases(r))),
            ("hwsim.phase_share.replace", mean(&|r| r.perf.phases.replace.as_secs() / phases(r))),
            ("hwsim.phase_share.compute", mean(&|r| r.perf.phases.compute.as_secs() / phases(r))),
            ("cache.hit_ratio", mean(&|r| r.perf.hit_rate)),
            ("runtime.batches", reports.iter().map(|r| (r.perf.n_iter * EPOCHS) as f64).sum()),
        ];
        rep.counts = counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let stats: Vec<_> = reports.iter().map(|r| (&r.perf, &r.loss_history)).collect();
        rep.digest = digest_of(&stats);
        Ok(rep)
    }
}

//! Epoch-time estimation — Eq. 4–8 with learned coefficients.
//!
//! Each phase time has a known analytic *form* (white box); the
//! coefficients are learned from profiles (black box) — the definition
//! of the paper's "gray-box" estimator:
//!
//! - `t_sample  ≈ w · (|V_i| - |B^0|) / host_throughput`  (Eq. 7)
//! - `t_transfer ≈ w · n_attr |V_i| (1 - hit) / link_bw`  (Eq. 6)
//! - `t_replace ≈ w · replaced_bytes / device_bw + w' ln(cache)` (Eq. 5)
//! - `t_compute ≈ w · FLOPs / (peak · util(|V_i|))`       (Eq. 8)
//!
//! composed by Eq. 4 (`max` when pipelined, sum otherwise). The hit
//! rate itself is predicted by a small random forest (cache dynamics
//! resist clean closed forms).

use crate::context::Context;
use crate::features::{DatasetTerms, HitRateInput};
use crate::profile::ProfileDb;
use crate::{fitted, EstimatorError};
use gnnav_ml::{ForestParams, RandomForestRegressor, Regressor, RidgeRegressor, Table, TreeParams};

/// Predicts the cumulative cache hit rate for a candidate.
#[derive(Debug, Clone)]
pub struct HitRatePredictor {
    model: RandomForestRegressor,
}

impl HitRatePredictor {
    /// Fits on profiled hit rates with `vi` as each record's batch
    /// size: the batch predictor's own estimates when stacking (see
    /// [`crate::GrayBoxEstimator`]), the measured ones otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] when `db` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `vi.len() != db.len()`.
    pub fn fit(db: &ProfileDb, vi: &[f64]) -> Result<Self, EstimatorError> {
        if db.is_empty() {
            return Err(EstimatorError::EmptyProfile);
        }
        assert_eq!(vi.len(), db.len(), "one batch size per record");
        let mut table = Table::with_dims(10);
        for (r, &v) in db.records().iter().zip(vi) {
            let input = HitRateInput::of(&r.context, v);
            table.push_row(&input.features(&DatasetTerms::of(&r.context)), r.hit_rate)?;
        }
        let params = ForestParams {
            num_trees: 20,
            tree: TreeParams { max_depth: 7, ..TreeParams::default() },
            feature_fraction: 0.8,
            seed: 11,
        };
        Ok(HitRatePredictor { model: fitted(RandomForestRegressor::new(params), &table)? })
    }

    /// Predicts the hit rate in `[0, 1]` given the predicted `|V_i|`.
    pub fn predict(&self, ctx: &Context, vi_pred: f64) -> f64 {
        self.predict_input(&HitRateInput::of(ctx, vi_pred), &DatasetTerms::of(ctx))
    }

    /// [`predict`](Self::predict) from the candidate's input alone.
    pub(crate) fn predict_input(&self, input: &HitRateInput, dataset: &DatasetTerms) -> f64 {
        if input.cache_ratio.get() == 0.0 {
            return 0.0;
        }
        self.model.predict(&input.features(dataset)).clamp(0.0, 1.0)
    }
}

/// The four phase-time coefficient models plus Eq. 4 composition.
#[derive(Debug, Clone)]
pub struct TimeEstimator {
    sample: RidgeRegressor,
    transfer: RidgeRegressor,
    replace: RidgeRegressor,
    compute: RidgeRegressor,
}

/// Analytic per-iteration feature for each phase, shared between fit
/// and predict.
fn sample_features(ctx: &Context, vi: f64) -> [f64; 2] {
    let mvps = ctx.platform.host.sample_mvps * 1e6;
    let expansion = (vi - ctx.config.batch_size as f64).max(0.0);
    let edges = vi * ctx.avg_degree;
    [expansion / mvps, edges / mvps]
}

fn transfer_features(ctx: &Context, vi: f64, hit: f64) -> [f64; 1] {
    let bytes = vi * (1.0 - hit) * ctx.row_bytes();
    [bytes / (ctx.platform.link.bandwidth_gbs * 1e9)]
}

fn replace_features(ctx: &Context, vi: f64, hit: f64) -> [f64; 2] {
    // Only dynamic, updating caches replace entries.
    let active = ctx.config.cache_policy.is_dynamic() && ctx.config.cache_update;
    if !active {
        return [0.0, 0.0];
    }
    let bytes = vi * (1.0 - hit) * ctx.row_bytes();
    let entries = ctx.config.cache_ratio * ctx.num_nodes;
    [bytes / (ctx.platform.device.mem_bandwidth_gbs * 1e9), (entries + 1.0).ln() * 1e-6]
}

fn compute_features(ctx: &Context, vi: f64) -> [f64; 1] {
    let dev = &ctx.platform.device;
    let speed = match ctx.config.precision {
        gnnav_hwsim::Precision::Fp16 => dev.fp16_speedup,
        _ => 1.0,
    };
    let util = vi / (vi + 8192.0);
    [ctx.flops_proxy(vi) / (dev.compute_tflops * 1e12 * util.max(1e-4) * speed)]
}

impl TimeEstimator {
    /// Fits the four phase coefficient models on profiled phase times,
    /// with `vi` and `hit` as each record's batch size and hit rate:
    /// the upstream predictors' own estimates when stacking (see
    /// [`crate::GrayBoxEstimator`]), the measured ones otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] when `db` is empty.
    ///
    /// # Panics
    ///
    /// Panics if the input lengths disagree with `db.len()`.
    pub fn fit(db: &ProfileDb, vi: &[f64], hit: &[f64]) -> Result<Self, EstimatorError> {
        if db.is_empty() {
            return Err(EstimatorError::EmptyProfile);
        }
        assert_eq!(vi.len(), db.len(), "one batch size per record");
        assert_eq!(hit.len(), db.len(), "one hit rate per record");
        let mut t_sample = Table::with_dims(2);
        let mut t_transfer = Table::with_dims(1);
        let mut t_replace = Table::with_dims(2);
        let mut t_compute = Table::with_dims(1);
        for ((r, &v), &h) in db.records().iter().zip(vi).zip(hit) {
            t_sample.push_row(&sample_features(&r.context, v), r.phase_s[0])?;
            t_transfer.push_row(&transfer_features(&r.context, v, h), r.phase_s[1])?;
            t_replace.push_row(&replace_features(&r.context, v, h), r.phase_s[2])?;
            t_compute.push_row(&compute_features(&r.context, v), r.phase_s[3])?;
        }
        let ridge = |table: &Table| fitted(RidgeRegressor::new(1e-6), table);
        Ok(TimeEstimator {
            sample: ridge(&t_sample)?,
            transfer: ridge(&t_transfer)?,
            replace: ridge(&t_replace)?,
            compute: ridge(&t_compute)?,
        })
    }

    /// Predicts the epoch time in seconds from the predicted batch
    /// size and hit rate, composing Eq. 4.
    pub fn predict(&self, ctx: &Context, vi_pred: f64, hit_pred: f64) -> f64 {
        let ts = self.sample.predict(&sample_features(ctx, vi_pred)).max(0.0);
        let tt = self.transfer.predict(&transfer_features(ctx, vi_pred, hit_pred)).max(0.0);
        let tr = self.replace.predict(&replace_features(ctx, vi_pred, hit_pred)).max(0.0);
        let tc = self.compute.predict(&compute_features(ctx, vi_pred)).max(0.0);
        let iter = if ctx.config.pipelined { (ts + tt).max(tr + tc) } else { ts + tt + tr + tc };
        ctx.n_iter() * iter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_size::BatchSizePredictor;
    use crate::profile::Profiler;
    use gnnav_graph::{Dataset, DatasetId};
    use gnnav_hwsim::Platform;
    use gnnav_ml::r2_score;
    use gnnav_nn::ModelKind;
    use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};

    fn profiled(seed: u64, n: usize) -> ProfileDb {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let profiler = Profiler::new(
            RuntimeBackend::new(Platform::default_rtx4090()),
            ExecutionOptions::timing_only(),
        )
        .with_threads(4);
        let cfgs = DesignSpace::standard().sample(n, ModelKind::Sage, seed);
        profiler.profile(&dataset, &cfgs).expect("profile")
    }

    /// The measured batch sizes and hit rates, one per record.
    fn measured(db: &ProfileDb) -> (Vec<f64>, Vec<f64>) {
        db.records().iter().map(|r| (r.avg_batch_nodes, r.hit_rate)).unzip()
    }

    #[test]
    fn time_estimator_generalizes() {
        let train = profiled(1, 40);
        let test = profiled(77, 12);
        let bsz = BatchSizePredictor::fit(&train).expect("fit vi");
        let (vi, h) = measured(&train);
        let hit = HitRatePredictor::fit(&train, &vi).expect("fit hit");
        let time = TimeEstimator::fit(&train, &vi, &h).expect("fit time");

        let truth: Vec<f64> = test.records().iter().map(|r| r.epoch_time_s).collect();
        let pred: Vec<f64> = test
            .records()
            .iter()
            .map(|r| {
                let vi = bsz.predict(&r.context);
                let h = hit.predict(&r.context, vi);
                time.predict(&r.context, vi, h)
            })
            .collect();
        let r2 = r2_score(&truth, &pred);
        assert!(r2 > 0.5, "epoch-time r2 = {r2}");
    }

    #[test]
    fn hit_rate_zero_without_cache() {
        let train = profiled(2, 25);
        let hit = HitRatePredictor::fit(&train, &measured(&train).0).expect("fit");
        // Build the cacheless context explicitly instead of relying on
        // the random design-space sample to contain one.
        let mut ctx = train.records()[0].context.clone();
        ctx.config.cache_policy = gnnav_cache::CachePolicy::None;
        ctx.config.cache_ratio = 0.0;
        assert_eq!(hit.predict(&ctx, 1000.0), 0.0);
    }

    #[test]
    fn hit_rate_in_unit_interval() {
        let train = profiled(3, 25);
        let hit = HitRatePredictor::fit(&train, &measured(&train).0).expect("fit");
        for r in train.records() {
            let h = hit.predict(&r.context, r.avg_batch_nodes);
            assert!((0.0..=1.0).contains(&h));
        }
    }

    #[test]
    fn empty_profile_rejected() {
        assert!(matches!(
            TimeEstimator::fit(&ProfileDb::new(), &[], &[]),
            Err(EstimatorError::EmptyProfile)
        ));
        assert!(matches!(
            HitRatePredictor::fit(&ProfileDb::new(), &[]),
            Err(EstimatorError::EmptyProfile)
        ));
    }
}

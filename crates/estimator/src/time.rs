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
use crate::features::hit_rate_features;
use crate::profile::ProfileDb;
use crate::EstimatorError;
use gnnav_ml::{ForestParams, RandomForestRegressor, Regressor, RidgeRegressor, Table, TreeParams};

/// Predicts the cumulative cache hit rate for a candidate.
#[derive(Debug, Clone)]
pub struct HitRatePredictor {
    model: RandomForestRegressor,
    fitted: bool,
}

impl Default for HitRatePredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl HitRatePredictor {
    /// Creates an unfitted predictor.
    pub fn new() -> Self {
        let params = ForestParams {
            num_trees: 20,
            tree: TreeParams { max_depth: 7, ..TreeParams::default() },
            feature_fraction: 0.8,
            seed: 11,
        };
        HitRatePredictor { model: RandomForestRegressor::new(params), fitted: false }
    }

    /// Fits on profiled hit rates, using the *measured* batch size as
    /// the coverage feature.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] when `db` is empty.
    pub fn fit(&mut self, db: &ProfileDb) -> Result<(), EstimatorError> {
        let vi: Vec<f64> = db.records().iter().map(|r| r.avg_batch_nodes).collect();
        self.fit_with_vi(db, &vi)
    }

    /// Fits against externally supplied batch sizes (the batch
    /// predictor's own estimates — stacking; see
    /// [`crate::GrayBoxEstimator`]).
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] when `db` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `vi.len() != db.len()`.
    pub fn fit_with_vi(&mut self, db: &ProfileDb, vi: &[f64]) -> Result<(), EstimatorError> {
        if db.is_empty() {
            return Err(EstimatorError::EmptyProfile);
        }
        assert_eq!(vi.len(), db.len(), "one batch size per record");
        let mut table = Table::with_dims(10);
        for (r, &v) in db.records().iter().zip(vi) {
            table.push_row(&hit_rate_features(&r.context, v), r.hit_rate)?;
        }
        self.model.fit(&table)?;
        self.fitted = true;
        Ok(())
    }

    /// Predicts the hit rate in `[0, 1]` given the predicted `|V_i|`.
    ///
    /// # Panics
    ///
    /// Panics if unfitted.
    pub fn predict(&self, ctx: &Context, vi_pred: f64) -> f64 {
        assert!(self.fitted, "predictor not fitted");
        if ctx.config.cache_ratio == 0.0 {
            return 0.0;
        }
        self.model.predict(&hit_rate_features(ctx, vi_pred)).clamp(0.0, 1.0)
    }
}

/// The four phase-time coefficient models plus Eq. 4 composition.
#[derive(Debug, Clone)]
pub struct TimeEstimator {
    sample: RidgeRegressor,
    transfer: RidgeRegressor,
    replace: RidgeRegressor,
    compute: RidgeRegressor,
    fitted: bool,
}

impl Default for TimeEstimator {
    fn default() -> Self {
        Self::new()
    }
}

/// Analytic per-iteration feature for each phase, shared between fit
/// (with measured `vi`/`hit`) and predict (with estimated ones).
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
    /// Creates an unfitted time estimator.
    pub fn new() -> Self {
        TimeEstimator {
            sample: RidgeRegressor::new(1e-6),
            transfer: RidgeRegressor::new(1e-6),
            replace: RidgeRegressor::new(1e-6),
            compute: RidgeRegressor::new(1e-6),
            fitted: false,
        }
    }

    /// Fits the four phase coefficient models on profiled phase times,
    /// using the *measured* batch sizes and hit rates as inputs.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] when `db` is empty.
    pub fn fit(&mut self, db: &ProfileDb) -> Result<(), EstimatorError> {
        let vi: Vec<f64> = db.records().iter().map(|r| r.avg_batch_nodes).collect();
        let hit: Vec<f64> = db.records().iter().map(|r| r.hit_rate).collect();
        self.fit_with_inputs(db, &vi, &hit)
    }

    /// Fits against externally supplied batch sizes and hit rates (the
    /// upstream predictors' own estimates — stacking; see
    /// [`crate::GrayBoxEstimator`]).
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] when `db` is empty.
    ///
    /// # Panics
    ///
    /// Panics if the input lengths disagree with `db.len()`.
    pub fn fit_with_inputs(
        &mut self,
        db: &ProfileDb,
        vi: &[f64],
        hit: &[f64],
    ) -> Result<(), EstimatorError> {
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
        self.sample.fit(&t_sample)?;
        self.transfer.fit(&t_transfer)?;
        self.replace.fit(&t_replace)?;
        self.compute.fit(&t_compute)?;
        self.fitted = true;
        Ok(())
    }

    /// Predicts the epoch time in seconds from the predicted batch
    /// size and hit rate, composing Eq. 4.
    ///
    /// # Panics
    ///
    /// Panics if unfitted.
    pub fn predict(&self, ctx: &Context, vi_pred: f64, hit_pred: f64) -> f64 {
        assert!(self.fitted, "estimator not fitted");
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

    #[test]
    fn time_estimator_generalizes() {
        let train = profiled(1, 40);
        let test = profiled(77, 12);
        let mut bsz = BatchSizePredictor::new();
        bsz.fit(&train).expect("fit vi");
        let mut hit = HitRatePredictor::new();
        hit.fit(&train).expect("fit hit");
        let mut time = TimeEstimator::new();
        time.fit(&train).expect("fit time");

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
        let mut hit = HitRatePredictor::new();
        hit.fit(&train).expect("fit");
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
        let mut hit = HitRatePredictor::new();
        hit.fit(&train).expect("fit");
        for r in train.records() {
            let h = hit.predict(&r.context, r.avg_batch_nodes);
            assert!((0.0..=1.0).contains(&h));
        }
    }

    #[test]
    fn empty_profile_rejected() {
        assert!(matches!(
            TimeEstimator::new().fit(&ProfileDb::new()),
            Err(EstimatorError::EmptyProfile)
        ));
        assert!(matches!(
            HitRatePredictor::new().fit(&ProfileDb::new()),
            Err(EstimatorError::EmptyProfile)
        ));
    }
}

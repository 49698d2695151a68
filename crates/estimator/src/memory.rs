//! Peak-memory estimation — Eq. 9–10 with learned coefficients.
//!
//! `Γ = Γ_model + Γ_cache + Γ_runtime`: the decomposition is exact, so
//! a ridge regression on the three analytic component skeletons
//! recovers near-perfect predictions (the paper reports R² up to 0.98
//! for Γ).

use crate::context::Context;
use crate::profile::ProfileDb;
use crate::{fitted, EstimatorError};
use gnnav_ml::{Regressor, RidgeRegressor, Table};

fn memory_features(ctx: &Context, vi: f64) -> [f64; 3] {
    [
        ctx.param_count() * ctx.config.precision.bytes() as f64,
        ctx.cache_bytes_proxy(),
        ctx.activation_proxy(vi),
    ]
}

/// Gray-box peak-memory estimator.
#[derive(Debug, Clone)]
pub struct MemoryEstimator {
    model: RidgeRegressor,
}

impl MemoryEstimator {
    /// Fits the component coefficients on profiled peak memory with
    /// `vi` as each record's activation input: the batch predictor's
    /// own estimates when stacking, which is how
    /// [`crate::GrayBoxEstimator`] wires it, the measured ones
    /// otherwise.
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
        let mut table = Table::with_dims(3);
        for (r, &v) in db.records().iter().zip(vi) {
            table.push_row(&memory_features(&r.context, v), r.mem_bytes)?;
        }
        Ok(MemoryEstimator { model: fitted(RidgeRegressor::new(1e-6), &table)? })
    }

    /// Predicts peak device memory in bytes from the predicted batch
    /// size.
    pub fn predict(&self, ctx: &Context, vi_pred: f64) -> f64 {
        self.model.predict(&memory_features(ctx, vi_pred)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn measured_vi(db: &ProfileDb) -> Vec<f64> {
        db.records().iter().map(|r| r.avg_batch_nodes).collect()
    }

    #[test]
    fn memory_estimation_is_nearly_exact() {
        let train = profiled(5, 30);
        let test = profiled(55, 10);
        let mem = MemoryEstimator::fit(&train, &measured_vi(&train)).expect("fit");
        let truth: Vec<f64> = test.records().iter().map(|r| r.mem_bytes).collect();
        let pred: Vec<f64> =
            test.records().iter().map(|r| mem.predict(&r.context, r.avg_batch_nodes)).collect();
        let r2 = r2_score(&truth, &pred);
        assert!(r2 > 0.9, "memory r2 = {r2}");
    }

    #[test]
    fn cache_heavy_config_predicts_more_memory() {
        let train = profiled(6, 30);
        let mem = MemoryEstimator::fit(&train, &measured_vi(&train)).expect("fit");
        let mut small = train.records()[0].context.clone();
        small.config.cache_policy = gnnav_cache::CachePolicy::StaticDegree;
        small.config.cache_ratio = 0.05;
        let mut big = small.clone();
        big.config.cache_ratio = 0.5;
        let vi = 2000.0;
        assert!(mem.predict(&big, vi) > mem.predict(&small, vi));
    }

    #[test]
    fn empty_profile_rejected() {
        assert!(matches!(
            MemoryEstimator::fit(&ProfileDb::new(), &[]),
            Err(EstimatorError::EmptyProfile)
        ));
    }
}

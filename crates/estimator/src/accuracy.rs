//! Accuracy estimation — Eq. 11.
//!
//! The paper concedes that accuracy prediction "is still more like a
//! black box": the estimator conditions on the quantities Eq. 11
//! names (degree summaries, batch size, sampling bias) but the mapping
//! itself is a random forest. Validation uses MSE, matching Tab. 2.

use crate::context::Context;
use crate::features::{AccuracyInput, DatasetTerms};
use crate::profile::ProfileDb;
use crate::{fitted, EstimatorError};
use gnnav_ml::{ForestParams, RandomForestRegressor, Regressor, Table, TreeParams};

/// Black-box-leaning accuracy estimator.
#[derive(Debug, Clone)]
pub struct AccuracyEstimator {
    model: RandomForestRegressor,
}

impl AccuracyEstimator {
    /// Fits on profiled accuracies (records where training was skipped
    /// — accuracy 0 — are excluded).
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] if no trained records
    /// are present.
    pub fn fit(db: &ProfileDb) -> Result<Self, EstimatorError> {
        let mut table = Table::with_dims(17);
        for r in db.records().iter().filter(|r| r.accuracy > 0.0) {
            let input = AccuracyInput::of(&r.context, r.avg_batch_nodes);
            table.push_row(&input.features(&DatasetTerms::of(&r.context)), r.accuracy)?;
        }
        if table.is_empty() {
            return Err(EstimatorError::EmptyProfile);
        }
        let params = ForestParams {
            num_trees: 40,
            tree: TreeParams { max_depth: 9, min_samples_leaf: 2, ..TreeParams::default() },
            feature_fraction: 0.7,
            seed: 23,
        };
        Ok(AccuracyEstimator { model: fitted(RandomForestRegressor::new(params), &table)? })
    }

    /// Predicts test accuracy in `[0, 1]` from the predicted batch
    /// size.
    pub fn predict(&self, ctx: &Context, vi_pred: f64) -> f64 {
        self.predict_input(&AccuracyInput::of(ctx, vi_pred), &DatasetTerms::of(ctx))
    }

    /// [`predict`](Self::predict) from the candidate's input alone.
    pub(crate) fn predict_input(&self, input: &AccuracyInput, dataset: &DatasetTerms) -> f64 {
        self.model.predict(&input.features(dataset)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiler;
    use gnnav_graph::{Dataset, DatasetId};
    use gnnav_hwsim::Platform;
    use gnnav_ml::mse;
    use gnnav_nn::ModelKind;
    use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};

    fn trained_profiles(seed: u64, n: usize) -> ProfileDb {
        let dataset = Dataset::load_scaled(DatasetId::OgbnProducts, 0.015).expect("load");
        let opts = ExecutionOptions {
            epochs: 2,
            train: true,
            train_batches_cap: Some(3),
            ..Default::default()
        };
        let profiler =
            Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), opts).with_threads(4);
        let cfgs: Vec<_> = DesignSpace::standard()
            .sample(n, ModelKind::Sage, seed)
            .into_iter()
            .map(|mut c| {
                c.batch_size = c.batch_size.min(128);
                c.hidden_dim = 16;
                c
            })
            .collect();
        profiler.profile(&dataset, &cfgs).expect("profile")
    }

    #[test]
    fn accuracy_mse_is_low() {
        let train = trained_profiles(1, 16);
        let test = trained_profiles(91, 6);
        let acc = AccuracyEstimator::fit(&train).expect("fit");
        let truth: Vec<f64> = test.records().iter().map(|r| r.accuracy).collect();
        let pred: Vec<f64> =
            test.records().iter().map(|r| acc.predict(&r.context, r.avg_batch_nodes)).collect();
        let err = mse(&truth, &pred);
        // Paper Tab. 2 keeps accuracy MSE <= 0.03.
        assert!(err < 0.05, "accuracy MSE = {err}");
    }

    #[test]
    fn rejects_profiles_without_training() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let profiler = Profiler::new(
            RuntimeBackend::new(Platform::default_rtx4090()),
            ExecutionOptions::timing_only(),
        )
        .with_threads(2);
        let cfgs = DesignSpace::standard().sample(3, ModelKind::Sage, 4);
        let db = profiler.profile(&dataset, &cfgs).expect("profile");
        assert!(matches!(AccuracyEstimator::fit(&db), Err(EstimatorError::EmptyProfile)));
    }
}

//! Mini-batch size prediction `E(|V_i|)` — Eq. 12 and Fig. 5.
//!
//! The gray-box model fits the *log* of the analytic skeleton
//! `|B^0| · Π_l (1 + k^l)` against the log of the measured batch size:
//! the learned weights play the role of the paper's `f_overlapping`
//! penalty. Fig. 5 compares this against a pure black-box decision
//! tree on raw features — both live here.

use crate::context::Context;
use crate::features::{batch_size_raw_features, BatchSizeInput, DatasetTerms};
use crate::profile::ProfileDb;
use crate::{fitted, EstimatorError};
use gnnav_ml::{DecisionTreeRegressor, Regressor, RidgeRegressor, Table, TreeParams};
use gnnav_runtime::SamplerKind;

fn family_index(kind: SamplerKind) -> usize {
    match kind {
        SamplerKind::NodeWise => 0,
        SamplerKind::LayerWise => 1,
        SamplerKind::SubgraphWise => 2,
        _ => 0,
    }
}

/// Gray-box `|V_i|` predictor (analytic skeleton + learned overlap
/// penalty).
///
/// Eq. 2 unifies all sampler families under one abstraction, but the
/// overlap penalty `f_overlapping` has family-specific constants, so
/// one ridge model is fitted per family (falling back to a global
/// model for families without profiles).
#[derive(Debug, Clone)]
pub struct BatchSizePredictor {
    global: RidgeRegressor,
    per_family: [Option<RidgeRegressor>; 3],
}

impl BatchSizePredictor {
    /// Fits the overlap penalty on profiled ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] when `db` is empty, or
    /// a fitting error.
    pub fn fit(db: &ProfileDb) -> Result<Self, EstimatorError> {
        if db.is_empty() {
            return Err(EstimatorError::EmptyProfile);
        }
        let mut global = Table::with_dims(4);
        let mut family_tables = [Table::with_dims(4), Table::with_dims(4), Table::with_dims(4)];
        for r in db.records() {
            let features = BatchSizeInput::of(&r.context).features(&DatasetTerms::of(&r.context));
            let target = r.avg_batch_nodes.max(1.0).ln();
            global.push_row(&features, target)?;
            family_tables[family_index(r.context.config.sampler)].push_row(&features, target)?;
        }
        let global = fitted(RidgeRegressor::new(1e-4), &global)?;
        let mut per_family = [None, None, None];
        for (slot, table) in per_family.iter_mut().zip(&family_tables) {
            // A family model needs enough rows to beat the global fit.
            if table.num_rows() >= 8 {
                *slot = Some(fitted(RidgeRegressor::new(1e-4), table)?);
            }
        }
        Ok(BatchSizePredictor { global, per_family })
    }

    /// Predicts `E(|V_i|)`, clamped to `[|B^0|, |V|]`.
    pub fn predict(&self, ctx: &Context) -> f64 {
        self.predict_input(&BatchSizeInput::of(ctx), &DatasetTerms::of(ctx))
    }

    /// [`predict`](Self::predict) from the candidate's input alone.
    pub(crate) fn predict_input(&self, input: &BatchSizeInput, dataset: &DatasetTerms) -> f64 {
        let model = self.per_family[family_index(input.sampler)].as_ref().unwrap_or(&self.global);
        let ln_vi = model.predict(&input.features(dataset));
        // On small graphs |B^0| may exceed |V| (the backend dedups), so
        // the lower clamp is min(|B^0|, |V|).
        let lo = (input.batch_size as f64).min(dataset.num_nodes);
        ln_vi.exp().clamp(lo, dataset.num_nodes)
    }
}

/// Pure black-box baseline of Fig. 5: decision-tree regression on raw
/// configuration features.
#[derive(Debug, Clone)]
pub struct BlackBoxBatchSize {
    model: DecisionTreeRegressor,
}

impl BlackBoxBatchSize {
    /// Fits the tree on profiled ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] when `db` is empty, or
    /// a fitting error.
    pub fn fit(db: &ProfileDb) -> Result<Self, EstimatorError> {
        if db.is_empty() {
            return Err(EstimatorError::EmptyProfile);
        }
        let mut table = Table::with_dims(9);
        for r in db.records() {
            table.push_row(&batch_size_raw_features(&r.context), r.avg_batch_nodes)?;
        }
        Ok(BlackBoxBatchSize {
            model: fitted(DecisionTreeRegressor::new(TreeParams::default()), &table)?,
        })
    }

    /// Predicts `E(|V_i|)`.
    pub fn predict(&self, ctx: &Context) -> f64 {
        self.model.predict(&batch_size_raw_features(ctx)).max(0.0)
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

    fn profiled() -> (ProfileDb, ProfileDb) {
        // A non-saturated regime (|V_i| well below |V|) so batch size
        // has real dynamic range, as on the paper's full-size graphs.
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load");
        let opts = ExecutionOptions::timing_only();
        let profiler =
            Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), opts).with_threads(4);
        let cap = |mut c: gnnav_runtime::TrainingConfig| {
            c.batch_size = c.batch_size.min(64);
            c
        };
        let train_cfgs: Vec<_> =
            DesignSpace::standard().sample(30, ModelKind::Sage, 1).into_iter().map(cap).collect();
        let test_cfgs: Vec<_> =
            DesignSpace::standard().sample(10, ModelKind::Sage, 99).into_iter().map(cap).collect();
        let train = profiler.profile(&dataset, &train_cfgs).expect("profile");
        let test = profiler.profile(&dataset, &test_cfgs).expect("profile");
        (train, test)
    }

    #[test]
    fn gray_box_beats_naive_and_tracks_truth() {
        let (train, test) = profiled();
        let gray = BatchSizePredictor::fit(&train).expect("fit");
        let truth: Vec<f64> = test.records().iter().map(|r| r.avg_batch_nodes).collect();
        let pred: Vec<f64> = test.records().iter().map(|r| gray.predict(&r.context)).collect();
        let r2 = r2_score(&truth, &pred);
        assert!(r2 > 0.6, "gray-box batch size r2 = {r2}");
    }

    #[test]
    fn black_box_fits_in_sample() {
        let (train, _) = profiled();
        let bb = BlackBoxBatchSize::fit(&train).expect("fit");
        let truth: Vec<f64> = train.records().iter().map(|r| r.avg_batch_nodes).collect();
        let pred: Vec<f64> = train.records().iter().map(|r| bb.predict(&r.context)).collect();
        assert!(r2_score(&truth, &pred) > 0.5);
    }

    #[test]
    fn empty_profile_rejected() {
        assert!(matches!(
            BatchSizePredictor::fit(&ProfileDb::new()),
            Err(EstimatorError::EmptyProfile)
        ));
        assert!(matches!(
            BlackBoxBatchSize::fit(&ProfileDb::new()),
            Err(EstimatorError::EmptyProfile)
        ));
    }
}

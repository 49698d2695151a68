//! The assembled gray-box performance estimator.

use crate::accuracy::AccuracyEstimator;
use crate::batch_size::BatchSizePredictor;
use crate::context::{Context, PredictionContext};
use crate::features::{AccuracyInput, BatchSizeInput, DatasetTerms, HitRateInput};
use crate::memory::MemoryEstimator;
use crate::profile::ProfileDb;
use crate::reuse::{Reuse, Tables};
use crate::time::{HitRatePredictor, TimeEstimator};
use crate::EstimatorError;
use gnnav_graph::DatasetId;
use gnnav_ml::{mse, r2_score};
use gnnav_obs::names as metric;
use gnnav_runtime::TrainingConfig;
use std::sync::Arc;
use std::time::Instant;

/// A predicted performance triple plus intermediate quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEstimate {
    /// Predicted epoch time in seconds.
    pub time_s: f64,
    /// Predicted peak device memory in bytes.
    pub mem_bytes: f64,
    /// Predicted test accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Predicted mean batch size `E(|V_i|)`.
    pub batch_nodes: f64,
    /// Predicted cache hit rate.
    pub hit_rate: f64,
}

/// Validation metrics per the paper's Tab. 2: R² for the analytically
/// grounded predictions (time, memory), MSE for accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationReport {
    /// R² of epoch-time prediction.
    pub r2_time: f64,
    /// R² of peak-memory prediction.
    pub r2_memory: f64,
    /// MSE of accuracy prediction.
    pub mse_accuracy: f64,
    /// Number of held-out records evaluated.
    pub num_records: usize,
}

/// The paper's gray-box estimator: analytic skeletons (Eq. 4–12) with
/// black-box coefficient functions fitted on profiled ground truth.
///
/// # Example
///
/// ```no_run
/// use gnnav_estimator::{Context, GrayBoxEstimator, Profiler};
/// use gnnav_graph::{Dataset, DatasetId};
/// use gnnav_hwsim::Platform;
/// use gnnav_nn::ModelKind;
/// use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend, TrainingConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.05)?;
/// let backend = RuntimeBackend::new(Platform::default_rtx4090());
/// let profiler = Profiler::new(backend.clone(), ExecutionOptions::default());
/// let configs = DesignSpace::standard().sample(40, ModelKind::Sage, 1);
/// let db = profiler.profile(&dataset, &configs)?;
///
/// let mut estimator = GrayBoxEstimator::new();
/// estimator.fit(&db)?;
/// let ctx = Context::new(&dataset, backend.platform(), TrainingConfig::default());
/// let est = estimator.predict(&ctx);
/// println!("predicted epoch time: {:.3}s", est.time_s);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct GrayBoxEstimator {
    components: Option<Arc<Components>>,
}

/// Every fitted component; the estimator holds all of them or none.
/// Shared, never mutated: a refit builds a new one, and the reuse
/// tables of a [`PredictionContext`] tell fits apart by address.
#[derive(Debug, Clone)]
pub(crate) struct Components {
    batch: BatchSizePredictor,
    hit: HitRatePredictor,
    time: TimeEstimator,
    memory: MemoryEstimator,
    accuracy: Option<AccuracyEstimator>,
}

impl Components {
    /// Stacked fitting: downstream components are fitted against the
    /// *upstream predictors' own outputs* (not the measured values) so
    /// training matches the prediction pipeline exactly — the batch
    /// predictor's bias is absorbed by the coefficients of the time
    /// and memory models instead of surfacing as error.
    fn fit(db: &ProfileDb) -> Result<Self, EstimatorError> {
        let batch = BatchSizePredictor::fit(db)?;
        let vi_hat: Vec<f64> = db.records().iter().map(|r| batch.predict(&r.context)).collect();
        let hit = HitRatePredictor::fit(db, &vi_hat)?;
        let hit_hat: Vec<f64> =
            db.records().iter().zip(&vi_hat).map(|(r, &v)| hit.predict(&r.context, v)).collect();
        let time = TimeEstimator::fit(db, &vi_hat, &hit_hat)?;
        let memory = MemoryEstimator::fit(db, &vi_hat)?;
        let accuracy = match AccuracyEstimator::fit(db) {
            Ok(acc) => Some(acc),
            Err(EstimatorError::EmptyProfile) => None,
            Err(e) => return Err(e),
        };
        Ok(Components { batch, hit, time, memory, accuracy })
    }
}

impl GrayBoxEstimator {
    /// Creates an unfitted estimator.
    pub fn new() -> Self {
        GrayBoxEstimator { components: None }
    }

    /// Fits every component on `db`. The accuracy component is fitted
    /// only when the database contains trained records; otherwise
    /// accuracy predictions fall back to 0 (timing-only mode).
    ///
    /// A refit replaces all components or none: when `db` is refused,
    /// the estimator keeps its previous fit.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] when `db` is empty, or
    /// a fitting error.
    pub fn fit(&mut self, db: &ProfileDb) -> Result<(), EstimatorError> {
        let metrics = gnnav_obs::global();
        let fit_started = metrics.is_enabled().then(Instant::now);
        self.components = Some(Arc::new(Components::fit(db)?));
        if let Some(started) = fit_started {
            metrics.add(metric::ESTIMATOR_FITS, 1);
            metrics.gauge_set(metric::ESTIMATOR_FIT_WALL, started.elapsed().as_secs_f64());
            self.record_in_sample_mape(db);
        }
        Ok(())
    }

    /// Publishes in-sample MAPE gauges for each fitted target. Records
    /// whose measured value is zero are skipped (relative error is
    /// undefined there).
    fn record_in_sample_mape(&self, db: &ProfileDb) {
        let metrics = gnnav_obs::global();
        let mut time = (0.0f64, 0usize);
        let mut mem = (0.0f64, 0usize);
        let mut acc = (0.0f64, 0usize);
        for r in db.records() {
            let est = self.predict(&r.context);
            if r.epoch_time_s > 0.0 {
                time.0 += ((est.time_s - r.epoch_time_s) / r.epoch_time_s).abs();
                time.1 += 1;
            }
            if r.mem_bytes > 0.0 {
                mem.0 += ((est.mem_bytes - r.mem_bytes) / r.mem_bytes).abs();
                mem.1 += 1;
            }
            if r.accuracy > 0.0 && self.predicts_accuracy() {
                acc.0 += ((est.accuracy - r.accuracy) / r.accuracy).abs();
                acc.1 += 1;
            }
        }
        for (name, (sum, n)) in [
            (metric::ESTIMATOR_MAPE_TIME, time),
            (metric::ESTIMATOR_MAPE_MEMORY, mem),
            (metric::ESTIMATOR_MAPE_ACCURACY, acc),
        ] {
            if n > 0 {
                metrics.gauge_set(name, sum / n as f64);
            }
        }
    }

    /// Whether the accuracy component was fitted.
    pub fn predicts_accuracy(&self) -> bool {
        self.components.as_ref().is_some_and(|c| c.accuracy.is_some())
    }

    /// Predicts the full performance triple for a candidate.
    ///
    /// # Panics
    ///
    /// Panics if the estimator is unfitted.
    pub fn predict(&self, ctx: &Context) -> PerfEstimate {
        gnnav_obs::global().add(metric::ESTIMATOR_PREDICTIONS, 1);
        self.compose(ctx, None)
    }

    /// The one composition of the components for a candidate, reading
    /// `|V_i|`, the hit rate and the accuracy through `reuse`'s tables:
    /// an input already predicted by this fit is read back, a new one
    /// predicted and stored. With no tables every input is predicted.
    /// Does not bump `estimator.predictions`: a batch or a search adds
    /// its count once, not per candidate.
    fn compose(&self, ctx: &Context, reuse: Option<&mut Reuse<Components>>) -> PerfEstimate {
        let c = self.components.as_ref().expect("estimator not fitted");
        let mut tables = reuse.map_or_else(Tables::none, |r| r.for_fit(c));
        let dataset = DatasetTerms::of(ctx);
        let input = BatchSizeInput::of(ctx);
        let vi = tables.batch(input, || c.batch.predict_input(&input, &dataset));
        let input = HitRateInput::of(ctx, vi);
        let hit = tables.hit(input, || c.hit.predict_input(&input, &dataset));
        let time_s = c.time.predict(ctx, vi, hit);
        let mem_bytes = c.memory.predict(ctx, vi);
        let accuracy = c.accuracy.as_ref().map_or(0.0, |a| {
            let input = AccuracyInput::of(ctx, vi);
            tables.accuracy(input, || a.predict_input(&input, &dataset))
        });
        PerfEstimate { time_s, mem_bytes, accuracy, batch_nodes: vi, hit_rate: hit }
    }

    /// Predicts one candidate the caller owns against a precomputed
    /// [`PredictionContext`]: the configuration moves into its
    /// [`Context`] and back out beside its estimate, never copied.
    /// `|V_i|`, the hit rate and the accuracy go through the context's
    /// reuse tables, so an input an earlier candidate shared is read
    /// back instead of predicted again — the same bits either way.
    ///
    /// Unlike [`predict`](Self::predict) this does not advance
    /// `estimator.predictions`: a caller that asks once per candidate
    /// of a search adds its total once, when the search ends.
    ///
    /// # Panics
    ///
    /// Panics if the estimator is unfitted.
    pub fn predict_owned(
        &self,
        pctx: &mut PredictionContext,
        config: TrainingConfig,
    ) -> (TrainingConfig, PerfEstimate) {
        let ctx = pctx.context(config);
        let estimate = self.compose(&ctx, Some(&mut pctx.reuse));
        (ctx.config, estimate)
    }

    /// Predicts a batch of candidates against one precomputed
    /// [`PredictionContext`], one after the other through
    /// [`predict_owned`](Self::predict_owned): building each
    /// candidate's [`Context`] is O(1), and `estimator.predictions`
    /// advances once, by the batch's length.
    ///
    /// Returns one estimate per entry of `configs`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the estimator is unfitted and `configs` is not empty.
    pub fn predict_batch(
        &self,
        pctx: &mut PredictionContext,
        configs: &[TrainingConfig],
    ) -> Vec<PerfEstimate> {
        if !configs.is_empty() {
            gnnav_obs::global().add(metric::ESTIMATOR_PREDICTIONS, configs.len() as u64);
        }
        configs.iter().map(|c| self.predict_owned(pctx, c.clone()).1).collect()
    }

    /// Evaluates prediction quality on held-out records (Tab. 2's
    /// metrics).
    ///
    /// # Panics
    ///
    /// Panics if the estimator is unfitted or `held_out` is empty.
    pub fn validate(&self, held_out: &ProfileDb) -> ValidationReport {
        assert!(!held_out.is_empty(), "validation requires records");
        let mut t_truth = Vec::new();
        let mut t_pred = Vec::new();
        let mut m_truth = Vec::new();
        let mut m_pred = Vec::new();
        let mut a_truth = Vec::new();
        let mut a_pred = Vec::new();
        for r in held_out.records() {
            let est = self.predict(&r.context);
            t_truth.push(r.epoch_time_s);
            t_pred.push(est.time_s);
            m_truth.push(r.mem_bytes);
            m_pred.push(est.mem_bytes);
            if r.accuracy > 0.0 && self.predicts_accuracy() {
                a_truth.push(r.accuracy);
                a_pred.push(est.accuracy);
            }
        }
        ValidationReport {
            r2_time: r2_score(&t_truth, &t_pred),
            r2_memory: r2_score(&m_truth, &m_pred),
            mse_accuracy: if a_truth.is_empty() { f64::NAN } else { mse(&a_truth, &a_pred) },
            num_records: held_out.len(),
        }
    }

    /// The paper's leave-one-dataset-out protocol: fits on every
    /// record *not* from `held_out` and validates on the rest.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::EmptyProfile`] if either partition is
    /// empty.
    pub fn leave_one_dataset_out(
        db: &ProfileDb,
        held_out: DatasetId,
    ) -> Result<(GrayBoxEstimator, ValidationReport), EstimatorError> {
        let (train, test) = db.leave_one_out(held_out);
        if train.is_empty() || test.is_empty() {
            return Err(EstimatorError::EmptyProfile);
        }
        let mut est = GrayBoxEstimator::new();
        est.fit(&train)?;
        let report = est.validate(&test);
        Ok((est, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileRecord, Profiler};
    use gnnav_graph::Dataset;
    use gnnav_hwsim::Platform;
    use gnnav_nn::ModelKind;
    use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};

    fn db_for(id: DatasetId, seed: u64, n: usize) -> ProfileDb {
        let dataset = Dataset::load_scaled(id, 0.05).expect("load");
        let opts = ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(2),
            ..Default::default()
        };
        let profiler =
            Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), opts).with_threads(4);
        let cfgs: Vec<_> = DesignSpace::standard()
            .sample(n, ModelKind::Sage, seed)
            .into_iter()
            .map(|mut c| {
                c.batch_size = c.batch_size.min(64);
                c.hidden_dim = 16;
                c
            })
            .collect();
        profiler.profile(&dataset, &cfgs).expect("profile")
    }

    #[test]
    fn end_to_end_fit_predict_validate() {
        let mut db = db_for(DatasetId::Reddit2, 1, 20);
        db.merge(db_for(DatasetId::OgbnArxiv, 2, 20));
        let (est, report) =
            GrayBoxEstimator::leave_one_dataset_out(&db, DatasetId::OgbnArxiv).expect("loo");
        assert!(est.predicts_accuracy());
        assert!(report.num_records > 0);
        assert!(report.r2_memory > 0.5, "memory r2 = {}", report.r2_memory);
        assert!(report.r2_time > 0.0, "time r2 = {}", report.r2_time);
        assert!(report.mse_accuracy < 0.2, "acc mse = {}", report.mse_accuracy);
    }

    #[test]
    fn predictions_are_positive_and_finite() {
        let db = db_for(DatasetId::Reddit2, 3, 18);
        let mut est = GrayBoxEstimator::new();
        est.fit(&db).expect("fit");
        for r in db.records() {
            let p = est.predict(&r.context);
            assert!(p.time_s.is_finite() && p.time_s > 0.0);
            assert!(p.mem_bytes > 0.0);
            assert!((0.0..=1.0).contains(&p.accuracy));
            assert!((0.0..=1.0).contains(&p.hit_rate));
        }
    }

    #[test]
    fn predict_batch_matches_serial_predict() {
        let db = db_for(DatasetId::Reddit2, 3, 18);
        let mut est = GrayBoxEstimator::new();
        est.fit(&db).expect("fit");
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load");
        let platform = Platform::default_rtx4090();
        // Twelve distinct configs, one of them twice, and a pair that
        // differs only in the sign of a zero: each entry is answered
        // for itself, in place.
        let mut configs: Vec<_> = DesignSpace::standard().sample(12, ModelKind::Sage, 7);
        configs.push(configs[3].clone());
        let zero = TrainingConfig { locality_eta: 0.0, ..configs[1].clone() };
        configs.extend([TrainingConfig { locality_eta: -0.0, ..zero.clone() }, zero]);
        let serial: Vec<PerfEstimate> = configs
            .iter()
            .map(|c| est.predict(&Context::new(&dataset, &platform, c.clone())))
            .collect();
        let mut pctx = PredictionContext::new(&dataset, &platform);
        let batch = est.predict_batch(&mut pctx, &configs);
        assert_eq!(format!("{batch:?}"), format!("{serial:?}"), "bit-exact vs serial");
        // So is a candidate handed over by value, which comes back,
        // now read from the tables the batch filled.
        for (config, want) in configs.iter().zip(&serial) {
            let (back, got) = est.predict_owned(&mut pctx, config.clone());
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(back, *config);
        }
    }

    #[test]
    fn a_context_asked_by_another_fit_predicts_with_that_fit() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load");
        let platform = Platform::default_rtx4090();
        let configs = DesignSpace::standard().sample(12, ModelKind::Sage, 7);
        let fitted = |seed| {
            let mut est = GrayBoxEstimator::new();
            est.fit(&db_for(DatasetId::Reddit2, seed, 18)).expect("fit");
            est
        };
        let (first, second) = (fitted(3), fitted(4));
        let alone: Vec<PerfEstimate> = configs
            .iter()
            .map(|c| second.predict(&Context::new(&dataset, &platform, c.clone())))
            .collect();
        // One context, its tables filled by the first fit, then asked
        // by the second: every estimate is the second fit's own.
        let mut pctx = PredictionContext::new(&dataset, &platform);
        let stale = first.predict_batch(&mut pctx, &configs);
        assert_ne!(format!("{stale:?}"), format!("{alone:?}"), "the fits differ");
        let got = second.predict_batch(&mut pctx, &configs);
        assert_eq!(format!("{got:?}"), format!("{alone:?}"));
    }

    #[test]
    fn empty_db_rejected() {
        let mut est = GrayBoxEstimator::new();
        assert!(matches!(est.fit(&ProfileDb::new()), Err(EstimatorError::EmptyProfile)));
    }

    #[test]
    #[should_panic(expected = "estimator not fitted")]
    fn unfitted_predict_panics() {
        let db = db_for(DatasetId::Reddit2, 3, 2);
        let _ = GrayBoxEstimator::new().predict(&db.records()[0].context);
    }

    #[test]
    fn refused_refit_keeps_the_previous_fit() {
        let db = db_for(DatasetId::Reddit2, 3, 18);
        let mut est = GrayBoxEstimator::new();
        est.fit(&db).expect("fit");
        let predictions = |est: &GrayBoxEstimator| {
            let all: Vec<PerfEstimate> =
                db.records().iter().map(|r| est.predict(&r.context)).collect();
            format!("{all:?} {}", est.predicts_accuracy())
        };
        let before = predictions(&est);
        // Another sweep, which the batch-size component fits; the
        // hit-rate component, fitted after it, refuses the NaN target.
        let mut poisoned = ProfileDb::new();
        for (i, r) in db_for(DatasetId::Reddit2, 4, 18).records().iter().enumerate() {
            let hit_rate = if i == 5 { f64::NAN } else { r.hit_rate };
            poisoned.push(ProfileRecord { hit_rate, ..r.clone() });
        }
        assert!(matches!(est.fit(&poisoned), Err(EstimatorError::Ml(_))));
        assert_eq!(predictions(&est), before);
    }
}

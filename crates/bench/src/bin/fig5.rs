//! Regenerates **Figure 5**: accuracy comparison between estimator
//! models for mini-batch-size prediction.
//!
//! The paper's Fig. 5 scatters predicted vs. measured `|V_i|` for
//! (a) the gray-box model (Eq. 12: analytic skeleton + learned
//! `f_overlapping`) and (b) a pure black-box decision-tree regressor.
//! Matching the estimator's deployment protocol (§4.1), both models
//! are fitted on profiles from the *other* datasets plus power-law
//! augmentation graphs and evaluated on the held-out dataset — the
//! regime where the analytic skeleton extrapolates and a raw decision
//! tree cannot (its leaf values are bounded by the training graphs'
//! batch sizes). Closeness to the `y = x` line is the criterion; we
//! print the paired series plus R² for both models.
//!
//! Run with `cargo run --release -p gnnav-bench --bin fig5`.
//! `GNNAV_SCALE` (default 0.3).

use gnnav_bench::{env_scale, print_table};
use gnnav_estimator::{BatchSizePredictor, BlackBoxBatchSize, ProfileDb, Profiler};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_ml::r2_score;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend, TrainingConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = env_scale(0.3);
    let profiler = Profiler::new(
        RuntimeBackend::new(Platform::default_rtx4090()),
        ExecutionOptions::timing_only(),
    );
    // Keep |B^0| below saturation so |V_i| has dynamic range.
    let shrink = |mut c: TrainingConfig| {
        c.batch_size = c.batch_size.min(256);
        c
    };

    // Fit on every dataset except the held-out Reddit2, plus
    // power-law augmentation (the estimator's leave-one-out protocol).
    let mut train = ProfileDb::new();
    for (i, id) in
        [DatasetId::OgbnArxiv, DatasetId::OgbnProducts, DatasetId::Reddit].iter().enumerate()
    {
        let d = Dataset::load_scaled(*id, scale)?;
        let cfgs: Vec<_> = DesignSpace::standard()
            .sample(30, ModelKind::Sage, 41 + i as u64)
            .into_iter()
            .map(shrink)
            .collect();
        train.merge(profiler.profile(&d, &cfgs)?);
    }
    let aug_cfgs: Vec<_> =
        DesignSpace::standard().sample(12, ModelKind::Sage, 404).into_iter().map(shrink).collect();
    train.merge(profiler.profile_augmentation(None, 2, 3000, &aug_cfgs, 77)?);

    // Test configurations span the FULL design space (batch sizes the
    // profiling grid never covered): this is how the DFS explorer
    // actually queries the estimator.
    let held_out = Dataset::load_scaled(DatasetId::Reddit2, scale)?;
    let test_configs: Vec<_> = DesignSpace::standard().sample(25, ModelKind::Sage, 4242);
    let test = profiler.profile(&held_out, &test_configs)?;

    let gray = BatchSizePredictor::fit(&train)?;
    let tree = BlackBoxBatchSize::fit(&train)?;

    println!("# Figure 5: batch-size estimator comparison");
    println!(
        "# fitted on AR/PR/RD + power-law augmentation ({} records), \
         validated on held-out Reddit2 (scale {scale})",
        train.len()
    );
    println!("# Each row is one held-out configuration; ideal predictions lie on y=x.\n");
    let mut rows = Vec::new();
    let mut truth = Vec::new();
    let mut gray_pred = Vec::new();
    let mut tree_pred = Vec::new();
    for r in test.records() {
        let g = gray.predict(&r.context);
        let t = tree.predict(&r.context);
        truth.push(r.avg_batch_nodes);
        gray_pred.push(g);
        tree_pred.push(t);
        rows.push(vec![
            format!("{:8.0}", r.avg_batch_nodes),
            format!("{g:8.0}"),
            format!("{t:8.0}"),
        ]);
    }
    print_table(&["measured |Vi|", "gray-box", "decision tree"], &rows);
    let r2_gray = r2_score(&truth, &gray_pred);
    let r2_tree = r2_score(&truth, &tree_pred);
    println!("\ngray-box R2 = {r2_gray:.4}   decision-tree R2 = {r2_tree:.4}");
    println!(
        "(paper: gray-box predictions are 'far better than the pure black-box model'; \
         here gray-box {} decision tree)",
        if r2_gray > r2_tree { "beats" } else { "does NOT beat" }
    );
    Ok(())
}

//! Whole `ExplorationResult`s against pinned digests.
//!
//! What one evaluated candidate costs (forest walk, memo key, audit
//! summary, the front handed to `decide`) is optimised under one rule:
//! no exploration result moves by one byte. Each constant below is the
//! FNV-1a digest of `format!("{result:?}")` — guideline, every accepted
//! candidate, front, stats, every audit string, fallback — for one
//! `Explorer::explore`, as produced by the commit *before* the flat
//! trees, the hashed memo key, the per-axis summary pieces and the
//! front-taking `decide`; this test re-explores and compares.
//! `golden_frame.rs` pins one cache frame and `prediction_count.rs` one
//! counter; this pins audit strings and rejected lists as well, over
//! both datasets, every priority, three constraint shapes, two budgets
//! and two restart seeds, on an estimator with all five components
//! fitted.
//!
//! There is deliberately no regeneration switch: if a later change
//! moves a result on purpose, print `digests()` from a scratch test,
//! review why, and replace the table by hand.

use gnnav_estimator::{GrayBoxEstimator, ProfileDb, Profiler};
use gnnav_explorer::{ExplorationResult, Explorer, Priority, RuntimeConstraints};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend, Template};
use gnnav_store::fnv1a64;

const MODEL: ModelKind = ModelKind::Sage;
/// Stand-ins small enough for a debug run; explored at a larger scale
/// than profiled so a memory cap can prune a cache subtree and still
/// leave feasible leaves.
const DATASETS: [(DatasetId, &str); 2] =
    [(DatasetId::Reddit2, "RD2"), (DatasetId::OgbnProducts, "PR")];
const PROFILED_SCALE: f64 = 0.02;
const EXPLORED_SCALE: f64 = 0.25;
const SETS: [&str; 3] = ["none", "mem_prunes", "time_falls_back"];
const BUDGETS: [usize; 2] = [100, 400];
const SEEDS: [u64; 2] = [0xDF5, 0x7A51];

/// One row per (dataset, priority, constraint set, budget) in that
/// nesting order, one column per restart seed.
const PINS: [[u64; 2]; 48] = [
    [0x28d4_5808_a3fa_5fe3, 0xb973_aaa9_d6ed_47b3], // 0: RD2 Bal none budget 100
    [0xade3_5904_511c_6b43, 0x7e52_f827_fc96_0cd3], // 1: RD2 Bal none budget 400
    [0xc7e1_1e40_f2b2_392d, 0x8409_bf26_23d1_bf66], // 2: RD2 Bal mem_prunes budget 100
    [0x86cd_92b5_a347_c39c, 0xff0d_2359_ddb7_1805], // 3: RD2 Bal mem_prunes budget 400
    [0x4b4f_858b_403e_6529, 0x9394_77b0_107d_c415], // 4: RD2 Bal time_falls_back budget 100
    [0x0be9_85c0_f059_b35b, 0xd018_6219_d892_732d], // 5: RD2 Bal time_falls_back budget 400
    [0x16ac_9936_cce1_758f, 0x3f44_2778_8011_4c41], // 6: RD2 Ex-TM none budget 100
    [0x8b07_6ff8_dae0_1896, 0x16bc_ea76_7937_c613], // 7: RD2 Ex-TM none budget 400
    [0xeedd_5f45_b18a_ce00, 0x615d_2cc9_7750_07ae], // 8: RD2 Ex-TM mem_prunes budget 100
    [0xdbf8_5837_79d4_ba85, 0xcd24_a9b1_491c_0ff4], // 9: RD2 Ex-TM mem_prunes budget 400
    [0x5303_7330_ddca_b0de, 0xfc1a_01cb_e758_feea], // 10: RD2 Ex-TM time_falls_back budget 100
    [0x4481_ad5b_af35_fc20, 0x199c_02ba_18d1_b8a8], // 11: RD2 Ex-TM time_falls_back budget 400
    [0xe543_cbf1_4e94_b876, 0x7616_c87f_7212_11de], // 12: RD2 Ex-MA none budget 100
    [0xb0cf_cc93_b85d_b3e1, 0x9743_3eef_d478_3d92], // 13: RD2 Ex-MA none budget 400
    [0x8335_bceb_ce51_d0b3, 0x25b6_1fb0_1f13_0194], // 14: RD2 Ex-MA mem_prunes budget 100
    [0xd017_124b_4e2f_57ac, 0x692d_9bc1_fa94_e0f1], // 15: RD2 Ex-MA mem_prunes budget 400
    [0x1b10_4162_d97e_f89a, 0xf34a_ac65_0599_ec06], // 16: RD2 Ex-MA time_falls_back budget 100
    [0xf3b2_fed7_d077_1784, 0x7523_53c8_af91_9c74], // 17: RD2 Ex-MA time_falls_back budget 400
    [0xca94_aa18_3fc8_9b94, 0x7285_148a_e39a_ab9f], // 18: RD2 Ex-TA none budget 100
    [0xcad1_6315_8908_4aec, 0xcf10_d08e_2966_cda9], // 19: RD2 Ex-TA none budget 400
    [0xccec_d47c_fd19_e160, 0x2f88_3250_ba73_c82f], // 20: RD2 Ex-TA mem_prunes budget 100
    [0x3e09_92b8_30ec_2675, 0xecfa_fee4_ca96_3774], // 21: RD2 Ex-TA mem_prunes budget 400
    [0x82de_bb1d_66df_2eb4, 0x9480_815c_4b30_dd04], // 22: RD2 Ex-TA time_falls_back budget 100
    [0xe4a3_311a_0481_f9ba, 0x3650_2cf6_bffa_c8a2], // 23: RD2 Ex-TA time_falls_back budget 400
    [0x442f_5eb3_62c0_27ca, 0xade3_648e_2719_7a21], // 24: PR Bal none budget 100
    [0xb6ab_f9a5_f18d_9f82, 0x9e58_310c_8fcd_9237], // 25: PR Bal none budget 400
    [0x8bee_57d1_846d_d25d, 0x0705_b32d_acbd_a5db], // 26: PR Bal mem_prunes budget 100
    [0xe374_7262_cd65_dee4, 0x5336_da09_73b8_83a2], // 27: PR Bal mem_prunes budget 400
    [0xe5fc_e0ed_e936_317c, 0x6525_2ec9_273b_c811], // 28: PR Bal time_falls_back budget 100
    [0xd394_5a5e_fa0a_4c5c, 0x2e27_e566_f466_b1c3], // 29: PR Bal time_falls_back budget 400
    [0x9cf4_416a_2791_63be, 0x7daa_a463_6517_c0aa], // 30: PR Ex-TM none budget 100
    [0xb239_8861_4db4_98bf, 0xe56f_c7db_ca96_3ca0], // 31: PR Ex-TM none budget 400
    [0xa9c7_ba36_cd99_99b4, 0x2045_c592_a6ea_cbcb], // 32: PR Ex-TM mem_prunes budget 100
    [0x2c6c_65e4_3b09_1a8b, 0x8914_649f_69ab_55e1], // 33: PR Ex-TM mem_prunes budget 400
    [0xe3a7_587d_1bcf_5f77, 0x62cc_7dd3_46d6_8334], // 34: PR Ex-TM time_falls_back budget 100
    [0x074f_ae03_6831_2a05, 0x03d2_1a22_c358_eb1a], // 35: PR Ex-TM time_falls_back budget 400
    [0xb8a4_38b1_51fe_1ead, 0x8bc2_7f8c_f31f_505d], // 36: PR Ex-MA none budget 100
    [0x718a_5418_4a19_2356, 0xbffd_1ee8_afac_00f1], // 37: PR Ex-MA none budget 400
    [0xa195_04ad_6748_2be4, 0x5521_9073_2bd0_c762], // 38: PR Ex-MA mem_prunes budget 100
    [0x2a8a_fac7_b472_eff4, 0x1c68_fa44_6542_365c], // 39: PR Ex-MA mem_prunes budget 400
    [0xb54b_3bf6_510f_6f07, 0x3037_76ed_d3b8_0094], // 40: PR Ex-MA time_falls_back budget 100
    [0xae1e_bccd_2453_7895, 0xe76b_72f4_7673_c17a], // 41: PR Ex-MA time_falls_back budget 400
    [0x264e_0372_dd6e_4e18, 0xbc7e_f9e1_10e9_3e41], // 42: PR Ex-TA none budget 100
    [0xd9da_270b_0257_e94b, 0x96dd_6410_008d_e7ad], // 43: PR Ex-TA none budget 400
    [0xa653_03e7_ec20_af46, 0xb155_6804_174f_12e8], // 44: PR Ex-TA mem_prunes budget 100
    [0x22bc_13f9_d548_f11f, 0x920d_3d2b_3dba_1b85], // 45: PR Ex-TA mem_prunes budget 400
    [0x3b96_5459_599e_e659, 0x9d2a_1da8_792a_5cea], // 46: PR Ex-TA time_falls_back budget 100
    [0xea6c_882a_e5de_71e3, 0x1605_e943_9899_2220], // 47: PR Ex-TA time_falls_back budget 400
];

/// `explore_from` with the PyG template handed in three times: the one
/// path on which a candidate repeats.
const DUPLICATED_SEED_PIN: u64 = 0xcdd3_08fa_8833_5070;

fn fixture() -> (Vec<Dataset>, GrayBoxEstimator) {
    let platform = Platform::default_rtx4090();
    let exec = ExecutionOptions {
        epochs: 1,
        train: true,
        train_batches_cap: Some(1),
        ..Default::default()
    };
    let profiler = Profiler::new(RuntimeBackend::new(platform), exec).with_threads(2);
    let configs = DesignSpace::standard().sample(12, MODEL, 5);
    let mut db = ProfileDb::new();
    let mut explored = Vec::new();
    for (id, _) in DATASETS {
        let small = Dataset::load_scaled(id, PROFILED_SCALE).expect("load");
        db.merge(profiler.profile(&small, &configs).expect("profile"));
        explored.push(Dataset::load_scaled(id, EXPLORED_SCALE).expect("load"));
    }
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");
    assert!(estimator.predicts_accuracy(), "the pins cover the accuracy forest");
    (explored, estimator)
}

fn constraints(set: &str, dataset: &Dataset) -> RuntimeConstraints {
    match set {
        "none" => RuntimeConstraints::none(),
        // Just under the Eq. 10 bound of the largest cache (r = 0.5 at
        // FP16): that subtree is pruned, smaller caches are estimated
        // and most of them rejected (all of them, in one PR column:
        // a fallback over a trail that holds prunes).
        "mem_prunes" => RuntimeConstraints {
            max_mem_bytes: Some(
                0.9 * 0.5 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0,
            ),
            ..RuntimeConstraints::none()
        },
        // Nothing trains an epoch in a picosecond: every candidate is
        // rejected and the nearest-feasible fallback fires.
        _ => RuntimeConstraints { max_time_s: Some(1e-12), ..RuntimeConstraints::none() },
    }
}

fn digest(result: &ExplorationResult) -> u64 {
    fnv1a64(format!("{result:?}").as_bytes())
}

/// The digest of every case, labelled, in the order of [`PINS`].
fn digests(datasets: &[Dataset], estimator: &GrayBoxEstimator) -> Vec<(String, u64)> {
    let platform = Platform::default_rtx4090();
    let mut out = Vec::new();
    for (dataset, (_, name)) in datasets.iter().zip(DATASETS) {
        for priority in Priority::ALL {
            for set in SETS {
                let constraints = constraints(set, dataset);
                for budget in BUDGETS {
                    for seed in SEEDS {
                        let label =
                            format!("{name} {priority} {set} budget {budget} seed {seed:#x}");
                        let result = Explorer::new(estimator, budget)
                            .with_seed(seed)
                            .explore(dataset, &platform, MODEL, priority, &constraints)
                            .expect("explore");
                        let (pruned, rejected) =
                            (result.stats.pruned_subtrees, result.stats.rejected);
                        let as_designed = match set {
                            "none" => pruned == 0 && rejected == 0 && result.fallback.is_none(),
                            "mem_prunes" => pruned > 0 && rejected > 0,
                            _ => result.evaluated.is_empty() && result.fallback.is_some(),
                        };
                        assert!(as_designed, "{label}: pruned {pruned}, rejected {rejected}");
                        out.push((label, digest(&result)));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn explorations_reproduce_the_pinned_results() {
    let (datasets, estimator) = fixture();
    let got = digests(&datasets, &estimator);
    assert_eq!(got.len(), PINS.len() * SEEDS.len());
    for (case, (label, digest)) in got.iter().enumerate() {
        let (row, column) = (case / SEEDS.len(), case % SEEDS.len());
        assert_eq!(*digest, PINS[row][column], "{label} (row {row}, column {column})");
    }

    let pyg = Template::Pyg.config(MODEL);
    let result = Explorer::new(&estimator, 100)
        .explore_from(
            &datasets[0],
            &Platform::default_rtx4090(),
            MODEL,
            Priority::Balance,
            &RuntimeConstraints::none(),
            &[pyg.clone(), pyg.clone(), pyg],
        )
        .expect("explore");
    assert_eq!(result.audit.iter().filter(|r| r.seed_candidate).count(), 3);
    assert_eq!(digest(&result), DUPLICATED_SEED_PIN, "duplicated template seed");
}

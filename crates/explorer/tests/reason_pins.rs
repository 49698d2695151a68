//! The rendered reason of a rejected candidate, pinned per limit kind.
//!
//! A rejection names the runtime constraint it broke, the value the
//! estimator predicted and the constraint's bound: `{:.4}` for epoch
//! time and accuracy, `{:.2}` of bytes divided by 1e6 for memory. Each
//! bound below sits on a rounding edge of that format, in decimal
//! (0.00045 s, 0.685 MB, 0.04685) though not in binary, so rendering
//! the bound any other way than the explorer always has (rounding its
//! decimal digits half up, or scaling bytes by `* 1e-6`) moves a
//! pinned string.
//!
//! The reason is read through the public renderings only, the JSON of
//! `audit_to_json` and the record's `Debug`, which must agree. The
//! accuracy walk is also pinned whole (`explore_pins.rs` covers memory
//! and time rejections but none on accuracy): the FNV-1a digest of
//! `format!("{result:?}")` and the CRC-32 of its audit JSON.
//!
//! There is deliberately no regeneration switch: if a later change
//! moves a reason on purpose, review why and replace the pins by hand.

use gnnav_estimator::{GrayBoxEstimator, ProfileDb, Profiler};
use gnnav_explorer::{
    audit_to_json, AuditAction, AuditRecord, ExplorationResult, Explorer, Priority,
    RuntimeConstraints,
};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_obs::json;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use gnnav_store::{crc32, fnv1a64};

const MODEL: ModelKind = ModelKind::Sage;
const BUDGET: usize = 400;

/// Epoch time in seconds: `{:.4}` renders 0.0004, not 0.0005.
const MAX_TIME_S: f64 = 0.000_45;
/// Peak memory in bytes: `{:.2}` of `/ 1e6` renders 0.69; of `* 1e-6`,
/// 0.68.
const MAX_MEM_BYTES: f64 = 685_000.0;
/// Accuracy: `{:.4}` renders 0.0469 (the binary value lies above).
const MIN_ACCURACY: f64 = 0.046_85;

/// The first rejected record's reason, per limit kind.
const TIME_REASON: &str = "predicted epoch time 0.0005s > max 0.0004s";
const MEMORY_REASON: &str = "predicted peak memory 0.95 MB > max 0.69 MB";
const ACCURACY_REASON: &str = "predicted accuracy 0.0463 < min 0.0469";

/// The accuracy walk whole: `fnv1a64` of its `Debug` rendering and
/// `crc32` of its audit JSON.
const ACCURACY_WALK_DIGEST: u64 = 0x6e53_4e38_8a1a_8bea;
const ACCURACY_AUDIT_CRC: u32 = 0x3d74_8825;

fn fixture() -> (Dataset, GrayBoxEstimator) {
    let platform = Platform::default_rtx4090();
    let exec = ExecutionOptions {
        epochs: 1,
        train: true,
        train_batches_cap: Some(1),
        ..Default::default()
    };
    let profiler = Profiler::new(RuntimeBackend::new(platform), exec).with_threads(2);
    let configs = DesignSpace::standard().sample(12, MODEL, 5);
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let mut db = ProfileDb::new();
    db.merge(profiler.profile(&dataset, &configs).expect("profile"));
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");
    assert!(estimator.predicts_accuracy(), "the accuracy walk needs the accuracy forest");
    (dataset, estimator)
}

fn explore(
    dataset: &Dataset,
    estimator: &GrayBoxEstimator,
    constraints: RuntimeConstraints,
) -> ExplorationResult {
    Explorer::new(estimator, BUDGET)
        .explore(dataset, &Platform::default_rtx4090(), MODEL, Priority::Balance, &constraints)
        .expect("explore")
}

/// The reason of `record` as its audit JSON holds it, checked against
/// the quoted string its `Debug` rendering holds.
fn rendered_reason(record: &AuditRecord) -> String {
    let doc = json::parse(&audit_to_json(std::slice::from_ref(record))).expect("valid JSON");
    let records = doc.get("records").and_then(|r| r.as_arr()).expect("records");
    let reason = records[0].get("reason").and_then(json::Value::as_str).expect("reason");
    let debug = format!("{record:?}");
    assert!(debug.contains(&format!("reason: {reason:?}")), "{debug} vs {reason:?}");
    reason.to_owned()
}

fn first_rejected(result: &ExplorationResult) -> &AuditRecord {
    let n = result.stats.rejected;
    assert!(n > 0 && n < result.stats.evaluated, "{n} of {} rejected", result.stats.evaluated);
    result.audit.iter().find(|r| r.action == AuditAction::Rejected).expect("a rejected record")
}

#[test]
fn rejections_render_the_pinned_reasons() {
    let (dataset, estimator) = fixture();
    let none = RuntimeConstraints::none();
    let time =
        explore(&dataset, &estimator, RuntimeConstraints { max_time_s: Some(MAX_TIME_S), ..none });
    let memory = explore(
        &dataset,
        &estimator,
        RuntimeConstraints { max_mem_bytes: Some(MAX_MEM_BYTES), ..none },
    );
    let accuracy = explore(
        &dataset,
        &estimator,
        RuntimeConstraints { min_accuracy: Some(MIN_ACCURACY), ..none },
    );
    let got = [
        rendered_reason(first_rejected(&time)),
        rendered_reason(first_rejected(&memory)),
        rendered_reason(first_rejected(&accuracy)),
    ];
    let digest = fnv1a64(format!("{accuracy:?}").as_bytes());
    let crc = crc32(audit_to_json(&accuracy.audit.to_vec()).as_bytes());
    assert_eq!(got, [TIME_REASON, MEMORY_REASON, ACCURACY_REASON]);
    assert_eq!(digest, ACCURACY_WALK_DIGEST, "accuracy walk, Debug");
    assert_eq!(crc, ACCURACY_AUDIT_CRC, "accuracy walk, audit JSON");
}

//! Fuzzing of the decoders that read bytes back from disk: the WAL
//! segment scan behind every durable store, and the four JSON readers
//! (`json::parse`, `Snapshot::from_json`, `FaultPlan::from_json` and
//! `tree::import_chrome_trace`) behind `--fault-plan`, `metrics-diff`
//! and `trace-diff`.
//!
//! Each decoder gets arbitrary input, and every truncation and
//! mutations of a document the workspace itself wrote. Whatever the
//! input, the answer is `Ok` or a typed error: no panic, no abort, no
//! error offset past the end of the input.

use gnnavigator::estimator::{GrayBoxEstimator, Profiler};
use gnnavigator::explorer::{ExploreCache, Explorer, RuntimeConstraints};
use gnnavigator::faults::{FaultKind, FaultPlan, FaultSpec};
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::obs::journal::{ArgValue, Journal};
use gnnavigator::obs::{json, tree, Snapshot};
use gnnavigator::runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use gnnavigator::store::{Wal, WAL_FORMAT_VERSION, WAL_MAGIC};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A fresh file path in a directory of its own.
fn temp_path() -> (PathBuf, PathBuf) {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("gnnav-decoder-fuzz-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("segment.wal");
    (dir, path)
}

/// Replays `bytes` as a segment: `Ok` or a typed `StoreError`, and
/// after an `Ok` the torn tail is gone from disk, so a second replay
/// finds none. Returns how many records the first replay served.
fn replay(path: &PathBuf, bytes: &[u8]) -> Option<u64> {
    std::fs::write(path, bytes).expect("write segment");
    let first = Wal::replay(path, |_| {}).ok()?.recovery();
    let second = Wal::replay(path, |_| {}).expect("a recovered segment reopens").recovery();
    assert_eq!(second.torn_truncated, 0, "{} bytes: {first:?} then {second:?}", bytes.len());
    assert_eq!(second.replayed, first.replayed, "{} bytes", bytes.len());
    Some(first.replayed)
}

/// The header of a segment this build writes.
fn header() -> Vec<u8> {
    let mut header = WAL_MAGIC.to_vec();
    header.extend_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
    header
}

/// A segment an `ExploreCache` wrote: one base frame (a whole walk)
/// and one decision frame over it.
fn cache_segment() -> &'static Vec<u8> {
    static SEGMENT: OnceLock<Vec<u8>> = OnceLock::new();
    SEGMENT.get_or_init(|| {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let platform = Platform::default_rtx4090();
        let profiler =
            Profiler::new(RuntimeBackend::new(platform.clone()), ExecutionOptions::timing_only());
        let configs = DesignSpace::standard().sample(12, ModelKind::Sage, 5);
        let db = profiler.profile(&dataset, &configs).expect("profile");
        let mut estimator = GrayBoxEstimator::new();
        estimator.fit(&db).expect("fit");
        let results = Explorer::new(&estimator, 6)
            .explore_all(&dataset, &platform, ModelKind::Sage, &RuntimeConstraints::none())
            .expect("explore");
        let (dir, path) = temp_path();
        let mut cache = ExploreCache::open(&path).expect("open");
        for (fingerprint, result) in (1u64..).zip(&results[..2]) {
            cache.insert(fingerprint, result).expect("insert");
        }
        drop(cache);
        let segment = std::fs::read(&path).expect("read segment");
        let _ = std::fs::remove_dir_all(&dir);
        segment
    })
}

#[test]
fn every_truncation_of_a_cache_segment_replays() {
    let segment = cache_segment();
    let (dir, path) = temp_path();
    assert_eq!(replay(&path, segment), Some(2));
    let mut served = 0;
    for len in 0..segment.len() {
        // A strict prefix holds the base frame at most.
        served = served.max(replay(&path, &segment[..len]).expect("a torn tail is recovered"));
    }
    assert_eq!(served, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_byte_mutation_of_a_cache_segment_replays() {
    let segment = cache_segment();
    let (dir, path) = temp_path();
    for at in 0..segment.len() {
        for flip in [1u8 << (at % 8), 0xFF] {
            let mut mutated = segment.clone();
            mutated[at] ^= flip;
            // A mutated header is refused; anywhere else a frame is
            // skipped, cut or (a length grown past the end) torn.
            let replayed = replay(&path, &mutated);
            assert_eq!(replayed.is_none(), at < header().len(), "byte {at} ^ {flip:#04x}");
            if replayed.is_some() {
                let cache = ExploreCache::open(&path).expect("the segment reopens");
                assert!(cache.len() + cache.undecodable() <= 2);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Input drawn from JSON's alphabet: structural characters, literals,
/// escapes and the keys the schema readers look for, so the readers
/// get past `json::parse` often enough to be exercised.
fn json_like() -> impl Strategy<Value = String> {
    const TOKENS: &str = r#"{ } [ ] , : " \ \u00e9 \ud800 é 0 7 - . e + 1e308 true false null
        "version" "faults" "counters" "traceEvents" "ph" "kind" "args""#;
    let tokens: Vec<&str> = TOKENS.split_whitespace().chain([" ", "\n"]).collect();
    proptest::collection::vec(0..tokens.len(), 0..48)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

/// Feeds `text` to all four JSON readers; each returns `Ok` or its
/// typed error. Returns whether `json::parse` accepted it.
fn read_json(text: &str) -> bool {
    let parsed = json::parse(text);
    if let Err(e) = &parsed {
        assert!(e.offset <= text.len(), "offset {} past {} bytes", e.offset, text.len());
    }
    let _ = Snapshot::from_json(text);
    let _ = FaultPlan::from_json(text);
    let _ = tree::import_chrome_trace(text);
    parsed.is_ok()
}

/// Documents the workspace writes: a committed metrics snapshot, a
/// fault plan holding every kind, and a Chrome trace export with spans
/// on both clocks, an instant and args of every type.
fn real_documents() -> &'static Vec<String> {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let snapshot = std::fs::read_to_string(
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_serve.json"),
        )
        .expect("committed snapshot");
        assert!(Snapshot::from_json(&snapshot).is_ok());

        let plan = FaultKind::ALL
            .iter()
            .fold(FaultPlan::new(u64::MAX), |plan, &kind| {
                plan.with_fault(FaultSpec::new(kind).with_probability(0.5).with_window(1, 3))
            })
            .to_json();
        assert!(FaultPlan::from_json(&plan).is_ok());

        let journal = Journal::new();
        journal.enable(true);
        let args = || {
            vec![
                ("text".into(), ArgValue::Str("a \"quoted\"\nline".into())),
                ("count".into(), 3u64.into()),
                ("share".into(), 0.25.into()),
                ("done".into(), true.into()),
            ]
        };
        journal.span_complete(
            "backend.run",
            "backend",
            10.0,
            Some(5.0),
            Some(0.0),
            Some(2.0),
            args(),
        );
        journal.span_complete("phase.sample", "phase.sample", 11.0, Some(1.0), None, None, args());
        journal.instant("explorer.candidate", "explorer", Some(1.0), args());
        let trace = journal.snapshot().to_chrome_trace();
        assert!(tree::import_chrome_trace(&trace).is_ok());

        vec![snapshot, plan, trace]
    })
}

#[test]
fn every_truncation_of_a_real_document_reads() {
    for doc in real_documents() {
        let whole = doc.trim_end().len();
        for (len, _) in doc.char_indices() {
            // Every document is one object: no strict prefix of it is
            // JSON.
            assert_eq!(read_json(&doc[..len]), len >= whole, "prefix of {len} bytes");
        }
        assert!(read_json(doc));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_replay_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        headed in any::<bool>(),
    ) {
        let bytes = if headed { [header(), bytes].concat() } else { bytes };
        let (dir, path) = temp_path();
        let _ = replay(&path, &bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_alphabet_strings_read_or_fail_typed(text in json_like()) {
        read_json(&text);
    }

    #[test]
    fn mutated_real_documents_read_or_fail_typed(
        which in 0usize..3,
        edits in proptest::collection::vec((any::<u64>(), json_like()), 1..4),
    ) {
        let mut doc = real_documents()[which].clone();
        for (at, with) in edits {
            // Replace one character with a short run of tokens.
            let starts: Vec<usize> = doc.char_indices().map(|(i, _)| i).collect();
            let start = starts[(at % starts.len() as u64) as usize];
            let end = doc[start..].chars().next().map_or(start, |c| start + c.len_utf8());
            doc.replace_range(start..end, &with);
        }
        read_json(&doc);
    }
}

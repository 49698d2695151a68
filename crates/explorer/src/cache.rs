//! Durable exploration-result caching: repeat navigation as a lookup
//! instead of a search.
//!
//! A design-space exploration is the most expensive step of a
//! navigator invocation, and it is pure: the DFS is seeded
//! deterministically and the estimator's predictions are functions of
//! the (dataset, platform, estimator) triple, so the same exploration
//! inputs always produce the same [`ExplorationResult`] — guideline,
//! candidate list, Pareto front, stats, and audit trail alike.
//! [`ExploreCache`] persists each result to an append-only write-ahead
//! log keyed by a canonical *fingerprint* of every input the search
//! conditions on, so a repeated invocation skips the DSE entirely and
//! hands back a byte-identical result.
//!
//! # A walk is stored once
//!
//! Only the last step of an exploration looks at the priority: the
//! four results of one navigation agree in `evaluated`, `front`,
//! `stats` and every audit record but the last. The log therefore
//! holds two kinds of frame. The first result over a walk is written
//! whole, as a *base frame* ([`EXPLORE_RESULT_TAG`], the only kind
//! earlier builds wrote, byte for byte what they wrote). Every later
//! result over an equal walk is a *decision frame*
//! ([`EXPLORE_DECISION_TAG`]): its fingerprint, the base's
//! fingerprint, the guideline, its own final audit record and the
//! fallback — a few hundred bytes against the base's hundreds of
//! kilobytes. Replay resolves a decision frame against the base that
//! precedes it and shares the base's `Arc`s, so a walk is written,
//! decoded and held once however many priorities were decided over it.
//!
//! Whether two results share a walk is decided on their contents, not
//! on how they arrived: pointer-equal `Arc`s (the results of one
//! [`Explorer::explore_all`](crate::Explorer::explore_all)) settle it
//! at once; otherwise a digest of a few summary fields finds the
//! candidate bases and a field-by-field comparison, floats by bit
//! pattern, confirms one. Four separate `explore` calls therefore
//! leave the same log as one `explore_all`.
//!
//! What it costs, measured by the `benchmark/` trace pass on one
//! pinned CPU: a hit is a hash probe returning a reference, 0.02–0.08
//! µs, and cloning it copies a guideline, one audit record and three
//! reference counts; an insert of a base frame is one encoded frame
//! appended, 0.18 ms for a budget-400 result, and of a decision frame
//! a few microseconds; reopening the log is a CRC check per frame and
//! a decode per walk, 0.71–0.88 ms for the one budget-2 000 walk
//! (555 KB) and three decisions of a navigation
//! (`store/explore_cache_open_one_walk`), of which the CRC is about
//! 30 µs (about 450 µs before it moved to carry-less multiplication),
//! and 0.18–0.25 ms for one budget-400 walk and 63 decisions over it.
//! The fingerprint needs no fitted estimator, so a repeat
//! navigation over all four priorities through `Navigator` loads the
//! dataset, opens both stores and looks up four fingerprints: it
//! neither replays the profile store nor refits. EXPERIMENTS.md "One
//! walk, four decisions" has the stage split of the path that still
//! refits.
//!
//! Durability semantics match the profile store's: torn tails are
//! truncated and checksum-failed frames dropped at WAL open; a
//! CRC-valid frame that fails decoding (a foreign format version, say)
//! is skipped and counted in [`ExploreCache::undecodable`] — the
//! exploration then simply reruns. So is an *orphan*: a decision frame
//! whose base is not among the frames before it (dropped by the CRC
//! scan, torn away, undecodable, or written later). It has no walk to
//! serve, and nothing is inferred for it.
//!
//! Hits, misses, and inserts are metered both on the cache instance
//! (for tests, immune to the shared global registry) and under
//! `explorer.cache.*` in the global registry, with `explore.cache`
//! instants on the explorer journal track.

use crate::audit::{AuditAction, AuditRecord, AuditTrail, SATISFIES_ALL};
use crate::decision::Guideline;
use crate::dfs::{DfsStats, EvaluatedCandidate};
use crate::explorer::ExplorationResult;
use crate::targets::{Priority, RuntimeConstraints};
use gnnav_estimator::PerfEstimate;
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_obs::names as metric;
use gnnav_runtime::checkpoint::put_platform;
use gnnav_runtime::{DesignSpace, TrainingConfig};
use gnnav_store::{
    decode_tagged, encode_tagged, fnv1a64, wire_enum, wire_struct, ByteReader, ByteWriter,
    StoreError, Wal, Wire,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;

/// Leading byte of a base frame — a whole result, walk included;
/// bumped on layout changes so old caches are skipped (and
/// re-explored) rather than misread.
pub const EXPLORE_RESULT_TAG: u8 = 1;

/// Leading byte of a decision frame — one more result over the walk of
/// a base frame earlier in the log.
pub const EXPLORE_DECISION_TAG: u8 = 2;

wire_enum!(impl Wire for Priority as "priority" {
    Balance = 0, ExTimeMemory = 1, ExMemoryAccuracy = 2, ExTimeAccuracy = 3,
});
wire_enum!(impl Wire for AuditAction as "audit-action" {
    Accepted = 0, Rejected = 1, PrunedSubtree = 2, Selected = 3, Fallback = 4, Switched = 5,
});

/// By hand, for the reason: it is written as the words it renders to
/// with the record's estimate, and read back as text, the explorer's
/// fixed phrase for an accepted candidate borrowed rather than copied.
impl Wire for AuditRecord {
    // Fewest bytes: two empty strings, no estimate, the action and the flag.
    const MIN_BYTES: usize = 8 + 1 + 1 + 8 + 1;

    fn put(&self, w: &mut ByteWriter) {
        self.config.put(w);
        self.estimate.put(w);
        self.action.put(w);
        w.put_str(&self.reason_text());
        self.seed_candidate.put(w);
    }

    fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
        Ok(AuditRecord {
            config: Wire::get(r)?,
            estimate: Wire::get(r)?,
            action: Wire::get(r)?,
            reason: match r.get_str_ref()? {
                SATISFIES_ALL => SATISFIES_ALL.into(),
                text => text.to_owned().into(),
            },
            seed_candidate: Wire::get(r)?,
        })
    }
}

/// The records as one list: the walk's, then the decision's.
impl Wire for AuditTrail {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut ByteWriter) {
        self.len().put(w);
        self.iter().for_each(|record| record.put(w));
    }

    fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
        Vec::<AuditRecord>::get(r).map(AuditTrail::from)
    }
}

wire_struct!(Guideline, TrainingConfig::MIN_BYTES + PerfEstimate::MIN_BYTES + 1, {
    config,
    estimate,
    priority,
});
wire_struct!(EvaluatedCandidate, TrainingConfig::MIN_BYTES + PerfEstimate::MIN_BYTES, {
    config,
    estimate,
});
wire_struct!(DfsStats, 3 * 8, { evaluated, rejected, pruned_subtrees });

// A base frame's body: the whole result, in the layout every build so
// far has written under `EXPLORE_RESULT_TAG`.
wire_struct!(ExplorationResult, Guideline::MIN_BYTES + 8 + 8 + DfsStats::MIN_BYTES + 8 + 1, {
    guideline,
    evaluated,
    front,
    stats,
    audit,
    fallback,
});

/// The canonical fingerprint of one exploration: everything the search
/// conditions on must be covered, or two different explorations would
/// collide and serve each other's results.
///
/// Covered: the dataset's identity and shape statistics, the platform,
/// the model, the full design space, the runtime-constraint bucket,
/// the priority, the traversal seed and leaf budget, and an opaque
/// `estimator_salt` describing how the estimator was fitted (sample
/// counts, augmentation, profiling mode) — the predictions themselves
/// depend on the fit, so the salt keeps differently-fitted estimators
/// from sharing entries.
#[allow(clippy::too_many_arguments)] // the fingerprint *is* the full input list
pub fn explore_fingerprint(
    dataset: &Dataset,
    platform: &Platform,
    model: ModelKind,
    space: &DesignSpace,
    priority: Priority,
    constraints: &RuntimeConstraints,
    budget: usize,
    seed: u64,
    estimator_salt: &str,
) -> u64 {
    let mut w = ByteWriter::new();
    let stats = dataset.stats();
    w.put_str(&format!("{:?}", dataset.id()));
    w.put_f64(stats.num_nodes as f64);
    w.put_f64(stats.num_edges as f64);
    w.put_f64(stats.degrees.mean);
    w.put_f64(stats.degrees.skew);
    w.put_f64(stats.intra_community_fraction.unwrap_or(0.0));
    w.put_f64(dataset.feat_dim() as f64);
    w.put_f64(dataset.num_classes() as f64);
    w.put_f64(dataset.split().train.len() as f64);
    put_platform(&mut w, platform);
    w.put_str(&format!("{model:?}"));
    // The design space and constraints are structs of plain values with
    // derived Debug — the rendering is canonical and covers every axis
    // list exactly (floats print exhaustively via `{:?}`).
    w.put_str(&format!("{space:?}"));
    w.put_str(&format!("{constraints:?}"));
    priority.put(&mut w);
    w.put_u64(budget as u64);
    w.put_u64(seed);
    w.put_str(estimator_salt);
    fnv1a64(&w.finish())
}

/// The priority's share of a result: everything a decision frame holds
/// beside the two fingerprints.
struct Decision {
    guideline: Guideline,
    record: AuditRecord,
    fallback: Option<String>,
}

impl Decision {
    /// The result of this decision over the walk `base` holds, sharing
    /// it.
    fn over(self, base: &ExplorationResult) -> ExplorationResult {
        ExplorationResult {
            guideline: self.guideline,
            evaluated: Arc::clone(&base.evaluated),
            front: Arc::clone(&base.front),
            stats: base.stats,
            audit: AuditTrail::new(Arc::clone(base.audit.walk()), self.record),
            fallback: self.fallback,
        }
    }
}

// A decision frame's body.
wire_struct!(Decision, Guideline::MIN_BYTES + AuditRecord::MIN_BYTES + 1, {
    guideline,
    record,
    fallback,
});

/// A base frame: `result`, under `fingerprint`.
fn encode_base(fingerprint: u64, result: &ExplorationResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(EXPLORE_RESULT_TAG);
    fingerprint.put(&mut w);
    result.put(&mut w);
    w.finish()
}

/// One decoded frame of the log.
enum Frame {
    Base(u64, ExplorationResult),
    Decision { fingerprint: u64, base: u64, decision: Decision },
}

fn decode_frame(payload: &[u8]) -> Result<Frame, StoreError> {
    match ByteReader::new(payload).get_u8()? {
        EXPLORE_RESULT_TAG => {
            let (fingerprint, result) =
                decode_tagged(payload, EXPLORE_RESULT_TAG, "an exploration result")?;
            Ok(Frame::Base(fingerprint, result))
        }
        EXPLORE_DECISION_TAG => {
            let (fingerprint, base, decision) =
                decode_tagged(payload, EXPLORE_DECISION_TAG, "a decision frame")?;
            Ok(Frame::Decision { fingerprint, base, decision })
        }
        tag => Err(StoreError::decode(format!(
            "frame tag {tag} is neither an exploration result ({EXPLORE_RESULT_TAG}) nor a \
             decision over one ({EXPLORE_DECISION_TAG})"
        ))),
    }
}

/// A digest of the walk `result` was decided over, from fields cheap
/// to read: it only narrows which cached walks [`same_walk`] compares.
fn walk_digest(result: &ExplorationResult) -> u64 {
    let mut h = DefaultHasher::new();
    let stats = result.stats;
    (stats.evaluated, stats.rejected, stats.pruned_subtrees).hash(&mut h);
    (result.evaluated.len(), result.audit.walk().len()).hash(&mut h);
    result.front.hash(&mut h);
    for c in result.evaluated.first().into_iter().chain(result.evaluated.last()) {
        estimate_bits(&c.estimate).hash(&mut h);
    }
    h.finish()
}

fn estimate_bits(e: &PerfEstimate) -> [u64; 5] {
    [e.time_s, e.mem_bytes, e.accuracy, e.batch_nodes, e.hit_rate].map(f64::to_bits)
}

/// Whether `a` and `b` were decided over equal walks: everything of a
/// result but its guideline, its decision's audit record and its
/// fallback, compared exactly — floats by bit pattern, since that is
/// what a frame stores and `Debug` renders.
fn same_walk(a: &ExplorationResult, b: &ExplorationResult) -> bool {
    fn same_candidate(a: &EvaluatedCandidate, b: &EvaluatedCandidate) -> bool {
        let floats =
            |c: &TrainingConfig| [c.locality_eta, c.cache_ratio, c.dropout].map(f64::to_bits);
        estimate_bits(&a.estimate) == estimate_bits(&b.estimate)
            && a.config == b.config
            && floats(&a.config) == floats(&b.config)
    }
    fn same_record(a: &AuditRecord, b: &AuditRecord) -> bool {
        a.config == b.config
            && a.estimate.as_ref().map(estimate_bits) == b.estimate.as_ref().map(estimate_bits)
            && a.action == b.action
            && a.reason_text() == b.reason_text()
            && a.seed_candidate == b.seed_candidate
    }
    fn same_list<T>(a: &Arc<Vec<T>>, b: &Arc<Vec<T>>, same: impl Fn(&T, &T) -> bool) -> bool {
        Arc::ptr_eq(a, b) || (a.len() == b.len() && a.iter().zip(b.iter()).all(|(a, b)| same(a, b)))
    }
    a.stats == b.stats
        && same_list(&a.front, &b.front, usize::eq)
        && same_list(&a.evaluated, &b.evaluated, same_candidate)
        && same_list(a.audit.walk(), b.audit.walk(), same_record)
}

/// A WAL-backed, fingerprint-indexed cache of exploration results.
///
/// # Example
///
/// ```no_run
/// use gnnav_explorer::ExploreCache;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cache = ExploreCache::open("explore.wal")?;
/// println!("{} cached explorations survived recovery", cache.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ExploreCache {
    wal: Wal,
    index: HashMap<u64, usize>,
    /// Every result served, in log order; the results over one walk
    /// share its `Arc`s.
    results: Vec<(u64, ExplorationResult)>,
    /// The base-frame results (as indices into `results`) by
    /// [`walk_digest`]: where an insert looks for an equal walk.
    bases: HashMap<u64, Vec<usize>>,
    undecodable: usize,
    hits: u64,
    misses: u64,
    inserts: u64,
}

impl ExploreCache {
    /// Opens (or creates) the cache at `path`, replaying its log.
    ///
    /// Frame-level damage (torn tail, CRC failure) is handled by the
    /// WAL recovery scan; CRC-valid frames that fail decoding, and
    /// decision frames whose base is not among the frames before them,
    /// are skipped and counted in [`undecodable`](Self::undecodable).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] with the offending path when the log cannot
    /// be read, or [`StoreError::BadMagic`] /
    /// [`StoreError::VersionMismatch`] on an alien file header.
    pub fn open(path: impl Into<PathBuf>) -> Result<ExploreCache, StoreError> {
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut results: Vec<(u64, ExplorationResult)> = Vec::new();
        let mut bases: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut undecodable = 0usize;
        let wal = Wal::replay(path, |frame| {
            let (fingerprint, result) = match decode_frame(frame) {
                Ok(Frame::Base(fingerprint, result)) => {
                    bases.entry(walk_digest(&result)).or_default().push(results.len());
                    (fingerprint, result)
                }
                Ok(Frame::Decision { fingerprint, base, decision }) => match index.get(&base) {
                    Some(&i) => (fingerprint, decision.over(&results[i].1)),
                    None => return undecodable += 1,
                },
                Err(_) => return undecodable += 1,
            };
            index.insert(fingerprint, results.len());
            results.push((fingerprint, result));
        })?;
        Ok(ExploreCache { wal, index, results, bases, undecodable, hits: 0, misses: 0, inserts: 0 })
    }

    /// Number of cached explorations.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// CRC-valid frames that served nothing at open — foreign format
    /// versions and decision frames without their base; their
    /// explorations will simply rerun.
    pub fn undecodable(&self) -> usize {
        self.undecodable
    }

    /// The WAL recovery scan's outcome (torn-tail truncation, CRC
    /// drops) from open.
    pub fn recovery(&self) -> gnnav_store::RecoveryStats {
        self.wal.recovery()
    }

    /// Lookups served from the cache since open.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing since open.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Results appended since open, base and decision frames alike.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    fn meter(&self, outcome: &str, fingerprint: u64, counter: &'static str) {
        let metrics = gnnav_obs::global();
        if metrics.is_enabled() {
            metrics.add(counter, 1);
        }
        let journal = metrics.journal();
        if journal.is_enabled() {
            journal.instant(
                metric::EVENT_EXPLORE_CACHE,
                metric::TRACK_EXPLORER,
                None,
                vec![
                    ("outcome".into(), outcome.into()),
                    ("fingerprint".into(), format!("{fingerprint:016x}").into()),
                ],
            );
        }
    }

    /// The cached result for `fingerprint`, if any; meters the hit or
    /// miss.
    pub fn lookup(&mut self, fingerprint: u64) -> Option<&ExplorationResult> {
        match self.index.get(&fingerprint) {
            Some(&i) => {
                self.hits += 1;
                self.meter("hit", fingerprint, metric::EXPLORER_CACHE_HITS);
                Some(&self.results[i].1)
            }
            None => {
                self.misses += 1;
                self.meter("miss", fingerprint, metric::EXPLORER_CACHE_MISSES);
                None
            }
        }
    }

    /// Durably appends `result` under `fingerprint`: as a decision
    /// frame when the cache already holds a result over an equal walk,
    /// as a base frame otherwise. A fingerprint already cached is
    /// skipped (exploration is deterministic, so the stored result is
    /// identical); returns whether an append happened.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the log cannot be written.
    pub fn insert(
        &mut self,
        fingerprint: u64,
        result: &ExplorationResult,
    ) -> Result<bool, StoreError> {
        if self.index.contains_key(&fingerprint) {
            return Ok(false);
        }
        let digest = walk_digest(result);
        // A trail without a decision (empty: only a hand-built result
        // has one) has nothing a decision frame could carry.
        let base = result.audit.last().and_then(|record| {
            let candidates = self.bases.get(&digest)?;
            let &i = candidates.iter().find(|&&i| same_walk(&self.results[i].1, result))?;
            Some((i, record))
        });
        let slot = self.results.len();
        let cached = match base {
            Some((i, record)) => {
                let (base_fingerprint, base) = &self.results[i];
                let decision = Decision {
                    guideline: result.guideline.clone(),
                    record: record.clone(),
                    fallback: result.fallback.clone(),
                };
                let frame = (fingerprint, *base_fingerprint, decision);
                self.wal.append(&encode_tagged(EXPLORE_DECISION_TAG, &frame))?;
                frame.2.over(base)
            }
            None => {
                self.wal.append(&encode_base(fingerprint, result))?;
                self.bases.entry(digest).or_default().push(slot);
                result.clone()
            }
        };
        self.index.insert(fingerprint, slot);
        self.results.push((fingerprint, cached));
        self.inserts += 1;
        self.meter("insert", fingerprint, metric::EXPLORER_CACHE_INSERTS);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_estimator::{GrayBoxEstimator, Profiler};
    use gnnav_graph::DatasetId;
    use gnnav_runtime::{ExecutionOptions, RuntimeBackend, TrainingConfig};

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gnnav-ec-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("explore.wal");
        let _ = std::fs::remove_file(&path);
        path
    }

    fn explored() -> (Dataset, ExplorationResult) {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let profiler = Profiler::new(
            RuntimeBackend::new(Platform::default_rtx4090()),
            ExecutionOptions::timing_only(),
        )
        .with_threads(4);
        let cfgs = DesignSpace::standard().sample(25, ModelKind::Sage, 5);
        let db = profiler.profile(&dataset, &cfgs).expect("profile");
        let mut est = GrayBoxEstimator::new();
        est.fit(&db).expect("fit");
        let explorer = crate::Explorer::new(&est, 150);
        // Tight memory bound so the result exercises prunes, rejects,
        // and estimate-free audit records.
        let constraints = RuntimeConstraints {
            max_mem_bytes: Some(0.2 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0),
            ..RuntimeConstraints::none()
        };
        let result = explorer
            .explore(
                &dataset,
                &Platform::default_rtx4090(),
                ModelKind::Sage,
                Priority::Balance,
                &constraints,
            )
            .expect("explore");
        (dataset, result)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let (dataset, result) = explored();
        let fp = explore_fingerprint(
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &DesignSpace::standard(),
            Priority::Balance,
            &RuntimeConstraints::none(),
            150,
            0xDF5,
            "salt",
        );
        let path = temp_wal("rt");
        {
            let mut cache = ExploreCache::open(&path).expect("open");
            assert!(cache.insert(fp, &result).expect("insert"));
            assert!(!cache.insert(fp, &result).expect("dup skipped"));
            assert_eq!(cache.inserts(), 1);
        }
        let mut cache = ExploreCache::open(&path).expect("reopen");
        assert_eq!(cache.len(), 1);
        assert!(cache.recovery().is_clean());
        assert_eq!(cache.undecodable(), 0);
        assert!(cache.lookup(fp ^ 1).is_none());
        let got = cache.lookup(fp).expect("present");
        // Bit-exact round trip: identical Debug rendering covers every
        // f64 payload (floats print exhaustively via {:?}) and every
        // audit string.
        assert_eq!(format!("{got:?}"), format!("{result:?}"));
        // A fresh rejection keeps its limit, a decoded one its words:
        // the two are the same walk.
        assert!(result.stats.rejected > 0);
        assert!(same_walk(got, &result));
        for record in result.audit.iter() {
            gnnav_store::laws::assert_laws(record);
        }
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// A base, three decisions over it, and their fingerprints.
    fn one_walk_four_ways() -> Vec<(u64, ExplorationResult)> {
        let (_, result) = explored();
        Priority::ALL
            .iter()
            .zip(1u64..)
            .map(|(&priority, fingerprint)| {
                let mut r = result.clone();
                r.guideline.priority = priority;
                (fingerprint, r)
            })
            .collect()
    }

    #[test]
    fn a_walk_is_written_and_held_once() {
        let results = one_walk_four_ways();
        let path = temp_wal("once");
        let mut cache = ExploreCache::open(&path).expect("open");
        for (fp, r) in &results {
            // Equal walks, not shared ones: as four `explore` calls
            // hand them in.
            let copy = ExplorationResult {
                evaluated: Arc::new(r.evaluated.to_vec()),
                front: Arc::new(r.front.to_vec()),
                audit: r.audit.to_vec().into(),
                ..r.clone()
            };
            assert!(cache.insert(*fp, &copy).expect("insert"));
        }
        assert_eq!(cache.inserts(), 4);
        drop(cache);
        let mut sizes = Vec::new();
        Wal::replay(&path, |frame| sizes.push((frame[0], frame.len()))).expect("plain log");
        let tags: Vec<u8> = sizes.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(tags, [EXPLORE_RESULT_TAG, EXPLORE_DECISION_TAG, 2, 2]);
        assert!(sizes[1..].iter().all(|&(_, len)| len * 20 < sizes[0].1), "{sizes:?}");

        let mut cache = ExploreCache::open(&path).expect("reopen");
        assert_eq!((cache.len(), cache.undecodable()), (4, 0));
        let base = cache.lookup(1).expect("base").clone();
        for (fp, r) in &results {
            let got = cache.lookup(*fp).expect("present");
            assert_eq!(format!("{got:?}"), format!("{r:?}"));
            assert!(Arc::ptr_eq(&got.evaluated, &base.evaluated));
            assert!(Arc::ptr_eq(&got.front, &base.front));
            assert!(Arc::ptr_eq(got.audit.walk(), base.audit.walk()));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn orphaned_decisions_are_counted_and_rerun() {
        let results = one_walk_four_ways();
        let path = temp_wal("orphans");
        {
            let mut cache = ExploreCache::open(&path).expect("open");
            for (fp, r) in &results {
                cache.insert(*fp, r).expect("insert");
            }
        }
        // A flipped bit inside the base frame: the CRC scan drops it,
        // and the three decisions after it have no walk to serve.
        gnnav_store::corrupt::bit_flip(&path, 64, 3).expect("flip");
        let mut cache = ExploreCache::open(&path).expect("recover");
        assert_eq!(cache.recovery().crc_failures, 1);
        assert_eq!((cache.len(), cache.undecodable()), (0, 3));
        for (fp, r) in &results {
            assert!(cache.lookup(*fp).is_none(), "an orphan serves nothing");
            assert!(cache.insert(*fp, r).expect("the exploration reruns and is re-inserted"));
        }
        drop(cache);
        // The orphans precede the base written after them: still
        // orphans, still counted, beside the four results served.
        let mut cache = ExploreCache::open(&path).expect("reopen");
        assert!(cache.recovery().is_clean());
        assert_eq!((cache.len(), cache.undecodable()), (4, 3));
        for (fp, r) in &results {
            let got = cache.lookup(*fp).expect("present");
            assert_eq!(format!("{got:?}"), format!("{r:?}"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_distinguishes_every_input() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let platform = Platform::default_rtx4090();
        let space = DesignSpace::standard();
        let none = RuntimeConstraints::none();
        let fp = |priority, constraints: &RuntimeConstraints, budget, seed, salt: &str| {
            explore_fingerprint(
                &dataset,
                &platform,
                ModelKind::Sage,
                &space,
                priority,
                constraints,
                budget,
                seed,
                salt,
            )
        };
        let base = fp(Priority::Balance, &none, 200, 7, "s");
        assert_eq!(base, fp(Priority::Balance, &none, 200, 7, "s"), "deterministic");
        assert_ne!(base, fp(Priority::ExTimeMemory, &none, 200, 7, "s"));
        let tight = RuntimeConstraints { max_time_s: Some(1.0), ..none };
        assert_ne!(base, fp(Priority::Balance, &tight, 200, 7, "s"));
        assert_ne!(base, fp(Priority::Balance, &none, 201, 7, "s"));
        assert_ne!(base, fp(Priority::Balance, &none, 200, 8, "s"));
        assert_ne!(base, fp(Priority::Balance, &none, 200, 7, "other"));
        let other = Dataset::load_scaled(DatasetId::OgbnArxiv, 0.01).expect("load");
        assert_ne!(
            base,
            explore_fingerprint(
                &other,
                &platform,
                ModelKind::Sage,
                &space,
                Priority::Balance,
                &none,
                200,
                7,
                "s",
            )
        );
        assert_ne!(
            base,
            explore_fingerprint(
                &dataset,
                &Platform::default_m90(),
                ModelKind::Sage,
                &space,
                Priority::Balance,
                &none,
                200,
                7,
                "s",
            )
        );
        assert_ne!(
            base,
            explore_fingerprint(
                &dataset,
                &platform,
                ModelKind::Sage,
                &DesignSpace::reduced(),
                Priority::Balance,
                &none,
                200,
                7,
                "s",
            )
        );
    }

    #[test]
    fn foreign_frames_are_skipped_not_fatal() {
        let path = temp_wal("alien");
        {
            let mut wal = Wal::open(&path).expect("open");
            wal.append(b"\xFFnot an exploration result").expect("append");
        }
        let cache = ExploreCache::open(&path).expect("open survives");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.undecodable(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_drops_damaged_results_only() {
        let (dataset, result) = explored();
        let mut results = Vec::new();
        for (i, seed) in [1u64, 2, 3].iter().enumerate() {
            let mut r = result.clone();
            r.guideline.config = TrainingConfig { batch_size: 64 << i, ..r.guideline.config };
            let fp = explore_fingerprint(
                &dataset,
                &Platform::default_rtx4090(),
                ModelKind::Sage,
                &DesignSpace::standard(),
                Priority::Balance,
                &RuntimeConstraints::none(),
                150,
                *seed,
                "salt",
            );
            results.push((fp, r));
        }
        let path = temp_wal("corrupt");
        {
            let mut cache = ExploreCache::open(&path).expect("open");
            for (fp, r) in &results {
                assert!(cache.insert(*fp, r).expect("insert"));
            }
        }
        // Torn tail: the last frame loses bytes and is truncated away.
        gnnav_store::corrupt::torn_write(&path, 5).expect("tear");
        let mut cache = ExploreCache::open(&path).expect("recover");
        assert_eq!(cache.len(), results.len() - 1, "only the torn result is lost");
        assert_eq!(cache.recovery().torn_truncated, 1);
        for (fp, _) in &results[..results.len() - 1] {
            assert!(cache.lookup(*fp).is_some());
        }
        std::fs::remove_file(&path).ok();
    }
}

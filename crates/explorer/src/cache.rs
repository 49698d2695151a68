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
//! What that costs, measured by the `benchmark/` trace pass on one
//! pinned CPU: a hit is a hash probe returning a reference, 0.05–0.08
//! µs; an insert is one encoded frame appended, 0.22 ms for a
//! budget-400 result; reopening the log is a CRC check and a decode per
//! result, 17 ms for 64 of them. A whole repeat navigation — open both
//! stores, refit, look up, apply — is 16 ms at the median
//! (`warm_navigate`), 4.9 ms of it opening the stores.
//!
//! Durability semantics match the profile store's: torn tails are
//! truncated and checksum-failed frames dropped at WAL open; a
//! CRC-valid frame that fails result decoding (a foreign format
//! version, say) is skipped and counted in
//! [`ExploreCache::undecodable`] — the exploration then simply reruns.
//!
//! Hits, misses, and inserts are metered both on the cache instance
//! (for tests, immune to the shared global registry) and under
//! `explorer.cache.*` in the global registry, with `explore.cache`
//! instants on the explorer journal track.

use crate::audit::{AuditAction, AuditRecord};
use crate::decision::Guideline;
use crate::dfs::{DfsStats, EvaluatedCandidate};
use crate::explorer::ExplorationResult;
use crate::targets::{Priority, RuntimeConstraints};
use gnnav_estimator::PerfEstimate;
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_obs::names as metric;
use gnnav_runtime::checkpoint::{get_config, put_config, put_platform};
use gnnav_runtime::DesignSpace;
use gnnav_store::{fnv1a64, ByteReader, ByteWriter, StoreError, Wal};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Leading byte of every cached-result frame; bumped on layout changes
/// so old caches are skipped (and re-explored) rather than misread.
pub const EXPLORE_RESULT_TAG: u8 = 1;

fn priority_tag(p: Priority) -> u8 {
    match p {
        Priority::Balance => 0,
        Priority::ExTimeMemory => 1,
        Priority::ExMemoryAccuracy => 2,
        Priority::ExTimeAccuracy => 3,
    }
}

fn priority_from_tag(t: u8) -> Result<Priority, StoreError> {
    Ok(match t {
        0 => Priority::Balance,
        1 => Priority::ExTimeMemory,
        2 => Priority::ExMemoryAccuracy,
        3 => Priority::ExTimeAccuracy,
        t => return Err(StoreError::decode(format!("unknown priority tag {t}"))),
    })
}

fn action_tag(a: AuditAction) -> u8 {
    match a {
        AuditAction::Accepted => 0,
        AuditAction::Rejected => 1,
        AuditAction::PrunedSubtree => 2,
        AuditAction::Selected => 3,
        AuditAction::Fallback => 4,
        AuditAction::Switched => 5,
    }
}

fn action_from_tag(t: u8) -> Result<AuditAction, StoreError> {
    Ok(match t {
        0 => AuditAction::Accepted,
        1 => AuditAction::Rejected,
        2 => AuditAction::PrunedSubtree,
        3 => AuditAction::Selected,
        4 => AuditAction::Fallback,
        5 => AuditAction::Switched,
        t => return Err(StoreError::decode(format!("unknown audit-action tag {t}"))),
    })
}

/// Appends a [`PerfEstimate`] in the stable field order (shared with
/// the adaptive layer's checkpoint format).
pub fn put_estimate(w: &mut ByteWriter, e: &PerfEstimate) {
    w.put_f64(e.time_s);
    w.put_f64(e.mem_bytes);
    w.put_f64(e.accuracy);
    w.put_f64(e.batch_nodes);
    w.put_f64(e.hit_rate);
}

/// Reads back a [`PerfEstimate`] written by [`put_estimate`].
pub fn get_estimate(r: &mut ByteReader) -> Result<PerfEstimate, StoreError> {
    Ok(PerfEstimate {
        time_s: r.get_f64()?,
        mem_bytes: r.get_f64()?,
        accuracy: r.get_f64()?,
        batch_nodes: r.get_f64()?,
        hit_rate: r.get_f64()?,
    })
}

/// Appends a length-prefixed audit trail (shared with the adaptive
/// layer's checkpoint format).
pub fn put_audit(w: &mut ByteWriter, audit: &[AuditRecord]) {
    w.put_usize(audit.len());
    for r in audit {
        w.put_str(&r.config);
        w.put_bool(r.estimate.is_some());
        if let Some(e) = &r.estimate {
            put_estimate(w, e);
        }
        w.put_u8(action_tag(r.action));
        w.put_str(&r.reason);
        w.put_bool(r.seed_candidate);
    }
}

/// Reads back an audit trail written by [`put_audit`], rejecting
/// unknown action tags with a typed decode error.
pub fn get_audit(r: &mut ByteReader) -> Result<Vec<AuditRecord>, StoreError> {
    let n = r.get_usize()?;
    let mut audit = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let config = r.get_str()?;
        let estimate = if r.get_bool()? { Some(get_estimate(r)?) } else { None };
        let action = action_from_tag(r.get_u8()?)?;
        let reason = r.get_str()?.into();
        let seed_candidate = r.get_bool()?;
        audit.push(AuditRecord { config, estimate, action, reason, seed_candidate });
    }
    Ok(audit)
}

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
    w.put_u8(priority_tag(priority));
    w.put_u64(budget as u64);
    w.put_u64(seed);
    w.put_str(estimator_salt);
    fnv1a64(&w.finish())
}

fn encode_result(fingerprint: u64, result: &ExplorationResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(EXPLORE_RESULT_TAG);
    w.put_u64(fingerprint);
    put_config(&mut w, &result.guideline.config);
    put_estimate(&mut w, &result.guideline.estimate);
    w.put_u8(priority_tag(result.guideline.priority));
    w.put_usize(result.evaluated.len());
    for c in &result.evaluated {
        put_config(&mut w, &c.config);
        put_estimate(&mut w, &c.estimate);
    }
    w.put_usize_slice(&result.front);
    w.put_usize(result.stats.evaluated);
    w.put_usize(result.stats.rejected);
    w.put_usize(result.stats.pruned_subtrees);
    put_audit(&mut w, &result.audit);
    w.put_bool(result.fallback.is_some());
    if let Some(f) = &result.fallback {
        w.put_str(f);
    }
    w.finish()
}

fn decode_result(payload: &[u8]) -> Result<(u64, ExplorationResult), StoreError> {
    let mut r = ByteReader::new(payload);
    let tag = r.get_u8()?;
    if tag != EXPLORE_RESULT_TAG {
        return Err(StoreError::decode(format!(
            "frame tag {tag} is not an exploration result (want {EXPLORE_RESULT_TAG})"
        )));
    }
    let fingerprint = r.get_u64()?;
    let config = get_config(&mut r)?;
    let estimate = get_estimate(&mut r)?;
    let priority = priority_from_tag(r.get_u8()?)?;
    let guideline = Guideline { config, estimate, priority };
    let n = r.get_usize()?;
    let mut evaluated = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let config = get_config(&mut r)?;
        let estimate = get_estimate(&mut r)?;
        evaluated.push(EvaluatedCandidate { config, estimate });
    }
    let front = r.get_usize_vec()?;
    let stats = DfsStats {
        evaluated: r.get_usize()?,
        rejected: r.get_usize()?,
        pruned_subtrees: r.get_usize()?,
    };
    let audit = get_audit(&mut r)?;
    let fallback = if r.get_bool()? { Some(r.get_str()?) } else { None };
    if !r.is_exhausted() {
        return Err(StoreError::decode(format!(
            "{} trailing bytes after exploration result",
            r.remaining()
        )));
    }
    Ok((fingerprint, ExplorationResult { guideline, evaluated, front, stats, audit, fallback }))
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
    results: Vec<(u64, ExplorationResult)>,
    undecodable: usize,
    hits: u64,
    misses: u64,
    inserts: u64,
}

impl ExploreCache {
    /// Opens (or creates) the cache at `path`, replaying its log.
    ///
    /// Frame-level damage (torn tail, CRC failure) is handled by the
    /// WAL recovery scan; CRC-valid frames that fail result decoding
    /// are skipped and counted in [`undecodable`](Self::undecodable).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] with the offending path when the log cannot
    /// be read, or [`StoreError::BadMagic`] /
    /// [`StoreError::VersionMismatch`] on an alien file header.
    pub fn open(path: impl Into<PathBuf>) -> Result<ExploreCache, StoreError> {
        let mut index = HashMap::new();
        let mut results = Vec::new();
        let mut undecodable = 0usize;
        let wal = Wal::replay(path, |frame| match decode_result(frame) {
            Ok((fp, result)) => {
                index.insert(fp, results.len());
                results.push((fp, result));
            }
            Err(_) => undecodable += 1,
        })?;
        Ok(ExploreCache { wal, index, results, undecodable, hits: 0, misses: 0, inserts: 0 })
    }

    /// The backing log's path.
    pub fn path(&self) -> &Path {
        self.wal.path()
    }

    /// Number of cached explorations.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// CRC-valid frames that failed result decoding at open (foreign
    /// format versions); their explorations will simply rerun.
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

    /// Results appended since open.
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

    /// Durably appends `result` under `fingerprint`. A fingerprint
    /// already cached is skipped (exploration is deterministic, so the
    /// stored result is identical); returns whether an append happened.
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
        self.wal.append(&encode_result(fingerprint, result))?;
        self.index.insert(fingerprint, self.results.len());
        self.results.push((fingerprint, result.clone()));
        self.inserts += 1;
        self.meter("insert", fingerprint, metric::EXPLORER_CACHE_INSERTS);
        Ok(true)
    }

    /// Rewrites the log with only the frames that decode as exploration
    /// results, purging dead bytes and undecodable frames. Returns the
    /// number of frames dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the rewrite fails.
    pub fn compact(&mut self) -> Result<usize, StoreError> {
        let dropped = self.wal.compact(|_, frame| decode_result(frame).is_ok())?;
        self.undecodable = 0;
        Ok(dropped)
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
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
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

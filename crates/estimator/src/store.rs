//! Durable, WAL-backed profile storage.
//!
//! A profiling sweep is the most expensive step of the navigator
//! pipeline, and it is pure: the backend is deterministic, so a
//! `(dataset, platform, config)` triple measured under the same
//! profiling `ExecutionOptions` always measures the same record.
//! [`ProfileStore`] persists each [`ProfileRecord`] to an append-only
//! write-ahead log keyed by a canonical *fingerprint* of that triple,
//! so a repeated invocation skips every configuration it has already
//! profiled and still assembles a byte-identical database (f64
//! measurements round-trip as raw IEEE-754 bits).
//!
//! The key does not cover the `ExecutionOptions`: a store filled under
//! one set of them (a fault plan, other epochs or seed) answers a sweep
//! under another with its records. Use one store per set of profiling
//! options.
//!
//! Durability semantics are the WAL's: torn tails are truncated and
//! checksum-failed frames dropped at open (metered under
//! `store.wal.*`); a CRC-valid frame that fails record decoding (a
//! foreign format version, say) is skipped and counted in
//! [`ProfileStore::undecodable`] — the sweep then simply re-profiles
//! whatever was lost.

use crate::context::Context;
use crate::estimator::PerfEstimate;
use crate::profile::ProfileRecord;
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_runtime::checkpoint::{get_platform, put_platform};
use gnnav_runtime::TrainingConfig;
use gnnav_store::{
    decode_tagged, encode_tagged, fnv1a64, wire_enum, wire_struct, ByteReader, ByteWriter,
    StoreError, Wal, Wire,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Leading byte of every profile-record frame; bumped on layout
/// changes so old stores are skipped (and re-profiled) rather than
/// misread.
pub const PROFILE_RECORD_TAG: u8 = 1;

wire_enum!(fn put_dataset, get_dataset for DatasetId as "dataset" {
    Synthetic = 0, OgbnArxiv = 1, OgbnProducts = 2, Reddit = 3, Reddit2 = 4,
});

// The stable field order the exploration cache and the adaptive
// checkpoint share.
wire_struct!(PerfEstimate, 5 * 8, { time_s, mem_bytes, accuracy, batch_nodes, hit_rate });

fn put_shared_platform(w: &mut ByteWriter, platform: &Arc<Platform>) {
    put_platform(w, platform);
}

fn get_shared_platform(r: &mut ByteReader) -> Result<Arc<Platform>, StoreError> {
    get_platform(r).map(Arc::new)
}

// The fingerprint key, after the dataset's tag: everything a prediction
// conditions on (config, dataset statistics, platform), so a store is
// only reused when all of them match. Fewest bytes: a platform with
// empty names is three prefixes and ten numbers.
wire_struct!(Context, TrainingConfig::MIN_BYTES + 8 * 8 + (3 + 10) * 8, {
    config,
    num_nodes,
    num_edges,
    avg_degree,
    skew,
    intra_fraction,
    feat_dim,
    num_classes,
    num_train,
    platform with put_shared_platform, get_shared_platform,
});

/// Appends the canonical encoding of `(dataset_id, context)` — the
/// fingerprint key.
fn put_key(w: &mut ByteWriter, id: DatasetId, ctx: &Context) {
    put_dataset(w, &id);
    ctx.put(w);
}

/// The platform-free part of [`put_key`]: the dataset's identity and
/// statistics and the config. What an [`ExecutionTrace`] is keyed by,
/// together with the execution options.
///
/// [`ExecutionTrace`]: gnnav_runtime::ExecutionTrace
pub(crate) fn put_workload_key(w: &mut ByteWriter, id: DatasetId, ctx: &Context) {
    put_dataset(w, &id);
    ctx.config.put(w);
    [
        ctx.num_nodes,
        ctx.num_edges,
        ctx.avg_degree,
        ctx.skew,
        ctx.intra_fraction,
        ctx.feat_dim,
        ctx.num_classes,
        ctx.num_train,
    ]
    .put(w);
}

/// The canonical fingerprint of profiling `config` on `dataset` over
/// `platform`.
pub fn profile_fingerprint(dataset: &Dataset, platform: &Platform, config: &TrainingConfig) -> u64 {
    let ctx = Context::new(dataset, platform, config.clone());
    fingerprint_of(dataset.id(), &ctx)
}

/// Fingerprint of an already-built context.
pub fn fingerprint_of(id: DatasetId, ctx: &Context) -> u64 {
    let mut w = ByteWriter::new();
    put_key(&mut w, id, ctx);
    fnv1a64(&w.finish())
}

// A profile-record frame's body: the key, then the measurements.
wire_struct!(ProfileRecord, 1 + Context::MIN_BYTES + 11 * 8, {
    dataset_id with put_dataset, get_dataset,
    context,
    epoch_time_s,
    mem_bytes,
    accuracy,
    hit_rate,
    avg_batch_nodes,
    avg_batch_edges,
    phase_s,
    n_iter,
});

fn decode_record(payload: &[u8]) -> Result<ProfileRecord, StoreError> {
    decode_tagged(payload, PROFILE_RECORD_TAG, "a profile record")
}

/// A WAL-backed, fingerprint-indexed store of profile records.
///
/// # Example
///
/// ```no_run
/// use gnnav_estimator::{profile_fingerprint, ProfileStore};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = ProfileStore::open("profiles.wal")?;
/// println!("{} records survived recovery", store.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProfileStore {
    wal: Wal,
    index: HashMap<u64, usize>,
    records: Vec<(u64, ProfileRecord)>,
    undecodable: usize,
}

impl ProfileStore {
    /// Opens (or creates) the store at `path`, replaying its log.
    ///
    /// Frame-level damage (torn tail, CRC failure) is handled by the
    /// WAL recovery scan; CRC-valid frames that fail record decoding
    /// are skipped and counted in [`undecodable`](Self::undecodable).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] with the offending path when the log cannot
    /// be read, or [`StoreError::BadMagic`] /
    /// [`StoreError::VersionMismatch`] on an alien file header.
    pub fn open(path: impl Into<PathBuf>) -> Result<ProfileStore, StoreError> {
        let mut index = HashMap::new();
        let mut records = Vec::new();
        let mut undecodable = 0usize;
        let wal = Wal::replay(path, |frame| match decode_record(frame) {
            Ok(record) => {
                let fp = fingerprint_of(record.dataset_id, &record.context);
                index.insert(fp, records.len());
                records.push((fp, record));
            }
            Err(_) => undecodable += 1,
        })?;
        Ok(ProfileStore { wal, index, records, undecodable })
    }

    /// The backing log's path.
    pub fn path(&self) -> &Path {
        self.wal.path()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// CRC-valid frames that failed record decoding at open (foreign
    /// format versions); their configs will simply be re-profiled.
    pub fn undecodable(&self) -> usize {
        self.undecodable
    }

    /// The WAL recovery scan's outcome (torn-tail truncation, CRC
    /// drops) from open.
    pub fn recovery(&self) -> gnnav_store::RecoveryStats {
        self.wal.recovery()
    }

    /// Whether a record with this fingerprint is stored.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.index.contains_key(&fingerprint)
    }

    /// The stored record for `fingerprint`, if any.
    pub fn get(&self, fingerprint: u64) -> Option<&ProfileRecord> {
        self.index.get(&fingerprint).map(|&i| &self.records[i].1)
    }

    /// Durably appends `record`, keyed by its fingerprint. A record
    /// whose fingerprint is already stored is skipped (the sweep is
    /// deterministic, so the stored measurement is identical); returns
    /// whether an append happened.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the log cannot be written.
    pub fn insert(&mut self, record: &ProfileRecord) -> Result<bool, StoreError> {
        let fp = fingerprint_of(record.dataset_id, &record.context);
        if self.index.contains_key(&fp) {
            return Ok(false);
        }
        self.wal.append(&encode_tagged(PROFILE_RECORD_TAG, record))?;
        self.index.insert(fp, self.records.len());
        self.records.push((fp, record.clone()));
        Ok(true)
    }

    /// Rewrites the log with only the frames that decode as profile
    /// records, purging dead bytes and undecodable frames. Returns the
    /// number of frames dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the rewrite fails.
    pub fn compact(&mut self) -> Result<usize, StoreError> {
        let dropped = self.wal.compact(|_, frame| decode_record(frame).is_ok())?;
        self.undecodable = 0;
        Ok(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_runtime::{ExecutionOptions, RuntimeBackend};

    fn records(n: usize) -> Vec<ProfileRecord> {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let opts = ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(1),
            ..Default::default()
        };
        let profiler = crate::Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), opts)
            .with_threads(2);
        let cfgs: Vec<TrainingConfig> = gnnav_runtime::DesignSpace::standard()
            .sample(n, gnnav_nn::ModelKind::Sage, 11)
            .into_iter()
            .map(|mut c| {
                c.batch_size = 32;
                c.fanouts = vec![4, 4];
                c.hidden_dim = 16;
                c
            })
            .collect();
        profiler.profile(&dataset, &cfgs).expect("profile").records().to_vec()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let recs = records(3);
        let dir = std::env::temp_dir().join(format!("gnnav-ps-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("profiles.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = ProfileStore::open(&path).expect("open");
            for r in &recs {
                assert!(store.insert(r).expect("insert"));
            }
            // Duplicate inserts are skipped.
            assert!(!store.insert(&recs[0]).expect("dup"));
        }
        let store = ProfileStore::open(&path).expect("reopen");
        assert_eq!(store.len(), recs.len());
        assert!(store.recovery().is_clean());
        assert_eq!(store.undecodable(), 0);
        for r in &recs {
            let fp = fingerprint_of(r.dataset_id, &r.context);
            let got = store.get(fp).expect("present");
            // Bit-exact round trip: identical Debug rendering covers
            // every f64 payload (floats print exhaustively via {:?}).
            assert_eq!(format!("{got:?}"), format!("{r:?}"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_records_hold_the_codec_laws() {
        for record in records(3) {
            gnnav_store::laws::assert_laws(&record);
        }
        let mut platform = Platform::default_m90();
        platform.host.name.clear();
        platform.device.name.clear();
        platform.link.name.clear();
        let config = TrainingConfig { fanouts: Vec::new(), ..TrainingConfig::default() };
        let record = &records(1)[0];
        gnnav_store::laws::assert_smallest(&ProfileRecord {
            context: Context { config, platform: Arc::new(platform), ..record.context.clone() },
            ..record.clone()
        });
    }

    #[test]
    fn fingerprint_distinguishes_config_dataset_platform() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let other = Dataset::load_scaled(DatasetId::OgbnArxiv, 0.01).expect("load");
        let platform = Platform::default_rtx4090();
        let config = TrainingConfig::default();
        let base = profile_fingerprint(&dataset, &platform, &config);
        assert_eq!(base, profile_fingerprint(&dataset, &platform, &config), "deterministic");
        let mut c2 = config.clone();
        c2.batch_size += 1;
        assert_ne!(base, profile_fingerprint(&dataset, &platform, &c2));
        assert_ne!(base, profile_fingerprint(&other, &platform, &config));
        assert_ne!(base, profile_fingerprint(&dataset, &Platform::default_m90(), &config));
    }

    #[test]
    fn foreign_frames_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("gnnav-ps-alien-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("alien.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).expect("open");
            wal.append(b"\xFFnot a profile record").expect("append");
        }
        let store = ProfileStore::open(&path).expect("open survives");
        assert_eq!(store.len(), 0);
        assert_eq!(store.undecodable(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_store_drops_damaged_records_only() {
        let recs = records(3);
        let dir = std::env::temp_dir().join(format!("gnnav-ps-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("profiles.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = ProfileStore::open(&path).expect("open");
            for r in &recs {
                store.insert(r).expect("insert");
            }
        }
        // Torn tail: the last frame loses bytes and is truncated away.
        gnnav_store::corrupt::torn_write(&path, 5).expect("tear");
        let store = ProfileStore::open(&path).expect("recover");
        assert_eq!(store.len(), recs.len() - 1, "only the torn record is lost");
        assert_eq!(store.recovery().torn_truncated, 1);
        for r in &recs[..recs.len() - 1] {
            assert!(store.contains(fingerprint_of(r.dataset_id, &r.context)));
        }
        std::fs::remove_file(&path).ok();
    }
}

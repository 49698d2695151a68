//! Durable, WAL-backed profile storage.
//!
//! A profiling sweep is the most expensive step of the navigator
//! pipeline, and it is pure: the backend is deterministic, so a
//! `(dataset, platform, config)` triple always measures the same
//! record. [`ProfileStore`] persists each [`ProfileRecord`] to an
//! append-only write-ahead log keyed by a canonical *fingerprint* of
//! that triple, so a repeated invocation skips every configuration it
//! has already profiled and still assembles a byte-identical database
//! (f64 measurements round-trip as raw IEEE-754 bits).
//!
//! Durability semantics are the WAL's: torn tails are truncated and
//! checksum-failed frames dropped at open (metered under
//! `store.wal.*`); a CRC-valid frame that fails record decoding (a
//! foreign format version, say) is skipped and counted in
//! [`ProfileStore::undecodable`] — the sweep then simply re-profiles
//! whatever was lost.

use crate::context::Context;
use crate::profile::ProfileRecord;
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_runtime::checkpoint::{get_config, get_platform, put_config, put_platform};
use gnnav_runtime::TrainingConfig;
use gnnav_store::{fnv1a64, ByteReader, ByteWriter, StoreError, Wal};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Leading byte of every profile-record frame; bumped on layout
/// changes so old stores are skipped (and re-profiled) rather than
/// misread.
pub const PROFILE_RECORD_TAG: u8 = 1;

fn dataset_tag(id: DatasetId) -> u8 {
    match id {
        DatasetId::Synthetic => 0,
        DatasetId::OgbnArxiv => 1,
        DatasetId::OgbnProducts => 2,
        DatasetId::Reddit => 3,
        DatasetId::Reddit2 => 4,
        _ => unreachable!("dataset {id:?} needs a profile-store tag"),
    }
}

fn dataset_from_tag(t: u8) -> Result<DatasetId, StoreError> {
    Ok(match t {
        0 => DatasetId::Synthetic,
        1 => DatasetId::OgbnArxiv,
        2 => DatasetId::OgbnProducts,
        3 => DatasetId::Reddit,
        4 => DatasetId::Reddit2,
        t => return Err(StoreError::decode(format!("unknown dataset tag {t}"))),
    })
}

/// Appends the canonical encoding of `(dataset_id, context)` — the
/// fingerprint key. Everything a prediction conditions on is included
/// (config, dataset statistics, platform), so a store is only reused
/// when all of them match.
fn put_key(w: &mut ByteWriter, id: DatasetId, ctx: &Context) {
    put_workload_key(w, id, ctx);
    put_platform(w, &ctx.platform);
}

/// The platform-free part of [`put_key`]: the dataset's identity and
/// statistics and the config. What an [`ExecutionTrace`] is keyed by,
/// together with the execution options.
///
/// [`ExecutionTrace`]: gnnav_runtime::ExecutionTrace
pub(crate) fn put_workload_key(w: &mut ByteWriter, id: DatasetId, ctx: &Context) {
    w.put_u8(dataset_tag(id));
    put_config(w, &ctx.config);
    w.put_f64(ctx.num_nodes);
    w.put_f64(ctx.num_edges);
    w.put_f64(ctx.avg_degree);
    w.put_f64(ctx.skew);
    w.put_f64(ctx.intra_fraction);
    w.put_f64(ctx.feat_dim);
    w.put_f64(ctx.num_classes);
    w.put_f64(ctx.num_train);
}

fn get_key(r: &mut ByteReader) -> Result<(DatasetId, Context), StoreError> {
    let id = dataset_from_tag(r.get_u8()?)?;
    let config = get_config(r)?;
    let num_nodes = r.get_f64()?;
    let num_edges = r.get_f64()?;
    let avg_degree = r.get_f64()?;
    let skew = r.get_f64()?;
    let intra_fraction = r.get_f64()?;
    let feat_dim = r.get_f64()?;
    let num_classes = r.get_f64()?;
    let num_train = r.get_f64()?;
    let platform = Arc::new(get_platform(r)?);
    Ok((
        id,
        Context {
            config,
            num_nodes,
            num_edges,
            avg_degree,
            skew,
            intra_fraction,
            feat_dim,
            num_classes,
            num_train,
            platform,
        },
    ))
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

fn encode_record(record: &ProfileRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(PROFILE_RECORD_TAG);
    put_key(&mut w, record.dataset_id, &record.context);
    w.put_f64(record.epoch_time_s);
    w.put_f64(record.mem_bytes);
    w.put_f64(record.accuracy);
    w.put_f64(record.hit_rate);
    w.put_f64(record.avg_batch_nodes);
    w.put_f64(record.avg_batch_edges);
    for p in record.phase_s {
        w.put_f64(p);
    }
    w.put_f64(record.n_iter);
    w.finish()
}

fn decode_record(payload: &[u8]) -> Result<ProfileRecord, StoreError> {
    let mut r = ByteReader::new(payload);
    let tag = r.get_u8()?;
    if tag != PROFILE_RECORD_TAG {
        return Err(StoreError::decode(format!(
            "frame tag {tag} is not a profile record (want {PROFILE_RECORD_TAG})"
        )));
    }
    let (dataset_id, context) = get_key(&mut r)?;
    let record = ProfileRecord {
        dataset_id,
        context,
        epoch_time_s: r.get_f64()?,
        mem_bytes: r.get_f64()?,
        accuracy: r.get_f64()?,
        hit_rate: r.get_f64()?,
        avg_batch_nodes: r.get_f64()?,
        avg_batch_edges: r.get_f64()?,
        phase_s: [r.get_f64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?],
        n_iter: r.get_f64()?,
    };
    if !r.is_exhausted() {
        return Err(StoreError::decode(format!(
            "{} trailing bytes after profile record",
            r.remaining()
        )));
    }
    Ok(record)
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
        self.wal.append(&encode_record(record))?;
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

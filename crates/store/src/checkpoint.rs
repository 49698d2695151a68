//! Atomic checkpoint files: one whole-payload frame per file.
//!
//! # Byte layout (format v1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GNVC"
//! 4       4     format version (u32 LE, currently 1)
//! 8       4     CRC-32 of payload (u32 LE)
//! 12      ...   payload bytes
//! ```
//!
//! Unlike WAL records, a checkpoint is all-or-nothing: a torn or
//! bit-flipped file is *rejected as a whole* (metered as
//! `store.checkpoint.rejected`) and the caller falls back to an older
//! checkpoint or a cold start. Writes go through the same
//! write-temp-then-atomic-rename as WAL segments.

use crate::crc::crc32;
use crate::wal::atomic_write;
use crate::StoreError;
use gnnav_obs::names as metric;
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"GNVC";
/// Checkpoint format version this build reads and writes.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;
/// Bytes of the checkpoint header (magic + version + CRC).
pub const CHECKPOINT_HEADER_LEN: usize = 12;

/// Writes `payload` to `path` as a framed checkpoint, atomically.
/// Metered as `store.checkpoint.writes`.
///
/// # Errors
///
/// Propagates I/O failures with the offending path.
pub fn write_checkpoint(path: &Path, payload: &[u8]) -> Result<(), StoreError> {
    let mut image = Vec::with_capacity(CHECKPOINT_HEADER_LEN + payload.len());
    image.extend_from_slice(&CHECKPOINT_MAGIC);
    image.extend_from_slice(&CHECKPOINT_FORMAT_VERSION.to_le_bytes());
    image.extend_from_slice(&crc32(payload).to_le_bytes());
    image.extend_from_slice(payload);
    atomic_write(path, &image)?;
    let metrics = gnnav_obs::global();
    if metrics.is_enabled() {
        metrics.add(metric::STORE_CHECKPOINT_WRITES, 1);
        let journal = metrics.journal();
        if journal.is_enabled() {
            journal.instant(
                metric::EVENT_CHECKPOINT,
                metric::TRACK_STORE,
                None,
                vec![
                    ("path".into(), path.display().to_string().into()),
                    ("bytes".into(), payload.len().into()),
                ],
            );
        }
    }
    Ok(())
}

/// Reads and verifies the checkpoint at `path`, returning its
/// payload. A verified read is metered as `store.checkpoint.resumes`;
/// a bad magic, version, or checksum is metered as
/// `store.checkpoint.rejected` before the typed error is returned.
///
/// # Errors
///
/// I/O failures, foreign magic, unsupported version, or checksum
/// mismatch — all carrying `path`.
pub fn read_checkpoint(path: &Path) -> Result<Vec<u8>, StoreError> {
    let raw = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
    let metrics = gnnav_obs::global();
    let reject = |err: StoreError| {
        if metrics.is_enabled() {
            metrics.add(metric::STORE_CHECKPOINT_REJECTED, 1);
        }
        Err(err)
    };
    if raw.len() < CHECKPOINT_HEADER_LEN || raw[..4] != CHECKPOINT_MAGIC {
        return reject(StoreError::BadMagic { path: path.to_path_buf() });
    }
    let version = u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]);
    if version != CHECKPOINT_FORMAT_VERSION {
        return reject(StoreError::VersionMismatch {
            path: path.to_path_buf(),
            found: version,
            expected: CHECKPOINT_FORMAT_VERSION,
        });
    }
    let want = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]);
    let payload = &raw[CHECKPOINT_HEADER_LEN..];
    if crc32(payload) != want {
        return reject(StoreError::ChecksumMismatch { path: path.to_path_buf() });
    }
    if metrics.is_enabled() {
        metrics.add(metric::STORE_CHECKPOINT_RESUMES, 1);
        let journal = metrics.journal();
        if journal.is_enabled() {
            journal.instant(
                metric::EVENT_RESUME,
                metric::TRACK_STORE,
                None,
                vec![
                    ("path".into(), path.display().to_string().into()),
                    ("bytes".into(), payload.len().into()),
                ],
            );
        }
    }
    Ok(payload.to_vec())
}

/// A directory of epoch-stamped checkpoints for one logical run.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
    label: String,
}

impl CheckpointDir {
    /// Binds `dir` for checkpoints labelled `label` (e.g. `"train"`),
    /// creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures with the path.
    pub fn create(dir: impl Into<PathBuf>, label: impl Into<String>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        Ok(CheckpointDir { dir, label: label.into() })
    }

    /// The bound directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the checkpoint taken after `epoch` epochs completed.
    pub fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("{}-{epoch:06}.ckpt", self.label))
    }

    /// Existing checkpoint epochs, ascending. Files that do not match
    /// the `label-NNNNNN.ckpt` pattern are ignored.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures with the path.
    pub fn epochs(&self) -> Result<Vec<usize>, StoreError> {
        let mut found = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".ckpt") else { continue };
            let Some(num) = stem.strip_prefix(&format!("{}-", self.label)) else { continue };
            if let Ok(epoch) = num.parse::<usize>() {
                found.push(epoch);
            }
        }
        found.sort_unstable();
        Ok(found)
    }

    /// Writes `payload` as the checkpoint for `epoch`.
    ///
    /// # Errors
    ///
    /// See [`write_checkpoint`].
    pub fn write(&self, epoch: usize, payload: &[u8]) -> Result<(), StoreError> {
        write_checkpoint(&self.path_for(epoch), payload)
    }

    /// Restores from the newest checkpoint that verifies *and* that
    /// `accept` recognises, walking backwards over the rest. `accept`
    /// sees each CRC-valid payload, newest first, and returns the
    /// restored run, or `Ok(None)` for "not mine" — a payload it cannot
    /// decode or that belongs to a different run. Both a damaged file
    /// and a declined one are metered as `store.checkpoint.rejected`.
    /// Returns `Ok(None)` when no checkpoint is accepted.
    ///
    /// # Errors
    ///
    /// Propagates directory-read and file-read I/O failures and any
    /// error `accept` returns; damaged and declined checkpoints are
    /// skipped, not errors.
    pub fn load_latest<T, E: From<StoreError>>(
        &self,
        mut accept: impl FnMut(&[u8]) -> Result<Option<T>, E>,
    ) -> Result<Option<(usize, T)>, E> {
        for epoch in self.epochs()?.into_iter().rev() {
            match read_checkpoint(&self.path_for(epoch)) {
                Ok(payload) => {
                    if let Some(run) = accept(&payload)? {
                        return Ok(Some((epoch, run)));
                    }
                    let metrics = gnnav_obs::global();
                    if metrics.is_enabled() {
                        metrics.add(metric::STORE_CHECKPOINT_REJECTED, 1);
                    }
                }
                Err(StoreError::Io { path, source }) => {
                    return Err(StoreError::Io { path, source }.into())
                }
                // Damaged (torn, flipped, foreign, wrong version):
                // fall back to the next-older checkpoint.
                Err(_) => continue,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts every payload as it is.
    fn any(payload: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(Some(payload.to_vec()))
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gnnav-store-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmpdir("rt");
        let cd = CheckpointDir::create(&dir, "train").expect("create");
        cd.write(3, b"payload").expect("write");
        let (epoch, payload) = cd.load_latest(any).expect("load").expect("some");
        assert_eq!(epoch, 3);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn latest_wins_and_damaged_falls_back() {
        let dir = tmpdir("fallback");
        let cd = CheckpointDir::create(&dir, "train").expect("create");
        cd.write(1, b"old").expect("write");
        cd.write(2, b"new").expect("write");
        // Flip a payload bit in the newest checkpoint.
        let p = cd.path_for(2);
        let mut bytes = std::fs::read(&p).expect("read");
        let off = CHECKPOINT_HEADER_LEN + 1;
        bytes[off] ^= 0x40;
        std::fs::write(&p, &bytes).expect("write corrupted");
        let (epoch, payload) = cd.load_latest(any).expect("load").expect("some");
        assert_eq!(epoch, 1, "damaged newest falls back to older");
        assert_eq!(payload, b"old");
    }

    #[test]
    fn torn_checkpoint_rejected() {
        let dir = tmpdir("torn");
        let cd = CheckpointDir::create(&dir, "train").expect("create");
        cd.write(5, b"will be torn").expect("write");
        let p = cd.path_for(5);
        let len = std::fs::metadata(&p).expect("meta").len();
        let f = std::fs::OpenOptions::new().write(true).open(&p).expect("open rw");
        f.set_len(len - 3).expect("truncate");
        drop(f);
        let err = read_checkpoint(&p).expect_err("torn");
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }));
        assert!(cd.load_latest(any).expect("load").is_none());
    }

    #[test]
    fn declined_payloads_are_walked_past() {
        let dir = tmpdir("declined");
        let cd = CheckpointDir::create(&dir, "train").expect("create");
        cd.write(1, b"mine").expect("write");
        cd.write(2, b"theirs").expect("write");
        cd.write(3, b"garbage").expect("write");
        let mut seen = Vec::new();
        let got = cd
            .load_latest(|p| {
                seen.push(p.to_vec());
                Ok::<_, StoreError>((p == b"mine").then_some(p.len()))
            })
            .expect("load");
        assert_eq!(got, Some((1, 4)), "newest accepted checkpoint wins");
        assert_eq!(seen, [b"garbage".to_vec(), b"theirs".to_vec(), b"mine".to_vec()]);
        // Declining everything is a cold start, not an error.
        assert!(cd.load_latest(|_| Ok::<Option<()>, StoreError>(None)).expect("load").is_none());
        // An error from `accept` stops the walk and is returned.
        let err = cd.load_latest(|_| Err::<Option<()>, _>(StoreError::decode("no fit")));
        assert!(err.expect_err("propagated").to_string().contains("no fit"));
    }

    #[test]
    fn empty_dir_is_none() {
        let dir = tmpdir("empty");
        let cd = CheckpointDir::create(&dir, "train").expect("create");
        assert!(cd.load_latest(any).expect("load").is_none());
    }

    #[test]
    fn version_mismatch_rejected_with_path() {
        let dir = tmpdir("ver");
        let cd = CheckpointDir::create(&dir, "train").expect("create");
        let p = cd.path_for(0);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        std::fs::write(&p, &bytes).expect("write");
        let err = read_checkpoint(&p).expect_err("version");
        assert!(err.to_string().contains("version 7"));
        assert!(err.to_string().contains("train-000000.ckpt"));
    }
}

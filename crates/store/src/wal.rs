//! Write-ahead log segments: versioned, CRC-framed, torn-tail
//! tolerant.
//!
//! # Byte layout (format v1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GNVW"
//! 4       4     format version (u32 LE, currently 1)
//! 8       ...   records, back to back:
//!               u32 LE  payload length
//!               u32 LE  CRC-32 of payload
//!               [len]   payload bytes
//! ```
//!
//! # Write path
//!
//! A record lands as **one `write_all` of one frame** on an
//! append-mode handle the [`Wal`] holds for its lifetime, so an append
//! costs the frame, not the segment. A write that fails or comes up
//! short is rolled back by cutting the file to the last good end; the
//! log then reads exactly as before the call. If that cut fails too,
//! the tail is unknown and the `Wal` refuses further appends — the
//! next [`Wal::open`] recovers it. Only whole-segment writes still go
//! through [`atomic_write`] (write-temp-then-rename): the 8-byte
//! header of a new segment, and the rewrite that purges dead frames.
//!
//! A crash mid-append therefore leaves a *torn tail* (the file ends
//! inside a frame), which the recovery scan in [`Wal::open`] cuts
//! away, down to a header-torn or empty file. A frame whose payload
//! fails its CRC is skipped. Both are loud: metered as
//! `store.wal.torn_truncated` / `store.wal.crc_failures` and journaled
//! on the `store` track.
//!
//! The `Wal` keeps no payloads in memory: [`Wal::replay`] hands each
//! surviving record to its caller once, during the scan.

use crate::crc::crc32;
use crate::StoreError;
use gnnav_obs::names as metric;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: [u8; 4] = *b"GNVW";
/// Format version this build reads and writes.
pub const WAL_FORMAT_VERSION: u32 = 1;
/// Bytes of the segment header (magic + version).
pub const WAL_HEADER_LEN: usize = 8;
/// Bytes of a record frame before its payload (length + CRC).
pub const WAL_FRAME_LEN: usize = 8;

/// The segment header this build writes.
const HEADER: [u8; WAL_HEADER_LEN] = {
    let v = WAL_FORMAT_VERSION.to_le_bytes();
    [WAL_MAGIC[0], WAL_MAGIC[1], WAL_MAGIC[2], WAL_MAGIC[3], v[0], v[1], v[2], v[3]]
};

/// What the recovery scan found while opening a segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records replayed intact.
    pub replayed: u64,
    /// Torn tails truncated (0 or 1 per open).
    pub torn_truncated: u64,
    /// Records dropped on checksum failure.
    pub crc_failures: u64,
}

impl RecoveryStats {
    /// Whether the segment was fully intact.
    pub fn is_clean(&self) -> bool {
        self.torn_truncated == 0 && self.crc_failures == 0
    }
}

/// Writes `bytes` to `path` atomically: the content lands in a
/// sibling `.tmp` file first and is renamed over the target, so
/// readers only ever observe a complete file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| StoreError::io(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| StoreError::io(path, e))
}

/// Appends `[len | crc | payload]` to `buf`.
fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "record exceeds the 4 GiB frame limit")
    })?;
    buf.reserve(WAL_FRAME_LEN + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Walks the frames of `raw` (a whole segment, header included),
/// calling `live(frame, payload)` for each one whose CRC holds.
/// Returns what it found and the offset just past the last complete
/// frame.
fn scan(raw: &[u8], mut live: impl FnMut(&[u8], &[u8])) -> (RecoveryStats, usize) {
    let mut stats = RecoveryStats::default();
    let mut pos = WAL_HEADER_LEN.min(raw.len());
    while pos < raw.len() {
        let Some(head) = raw.get(pos..pos + WAL_FRAME_LEN) else {
            // The file ends inside a frame header: torn tail.
            stats.torn_truncated += 1;
            break;
        };
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let want = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
        let start = pos + WAL_FRAME_LEN;
        if raw.len() - start < len {
            // The file ends inside this record's payload.
            stats.torn_truncated += 1;
            break;
        }
        let payload = &raw[start..start + len];
        if crc32(payload) == want {
            live(&raw[pos..start + len], payload);
            stats.replayed += 1;
        } else {
            stats.crc_failures += 1;
        }
        pos = start + len;
    }
    (stats, pos)
}

/// What the append path needs of a file. A trait so the tests can
/// substitute a device that fills up mid-frame.
trait SegmentFile: Write {
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

impl SegmentFile for File {
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
}

/// The writable end of a segment: an append-mode handle and the
/// offset of the last good frame boundary.
#[derive(Debug)]
struct Tail<F> {
    file: F,
    end: u64,
    /// A failed write could not be rolled back: bytes of unknown
    /// extent follow `end` on disk.
    poisoned: bool,
}

impl Tail<File> {
    fn open(path: &Path, end: u64) -> Result<Self, StoreError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| StoreError::io(path, e))?;
        Ok(Tail { file, end, poisoned: false })
    }
}

impl<F: SegmentFile> Tail<F> {
    /// Writes one frame; on failure the file is cut back to `end`.
    fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "an earlier failed append could not be rolled back; reopen the log to recover",
            ));
        }
        let mut frame = Vec::new();
        put_frame(&mut frame, payload)?;
        if let Err(e) = self.file.write_all(&frame) {
            self.poisoned = self.file.set_len(self.end).is_err();
            return Err(e);
        }
        self.end += frame.len() as u64;
        Ok(())
    }
}

/// One append-only segment of CRC-framed records.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    tail: Tail<File>,
    /// Live records on disk: replayed at open plus appended since.
    live: usize,
    recovery: RecoveryStats,
}

impl Wal {
    /// Opens (or creates) the segment at `path`, running the recovery
    /// scan and discarding the payloads — for logs whose length is the
    /// message. See [`Wal::replay`].
    ///
    /// # Errors
    ///
    /// I/O failures, foreign magic, or an unsupported format version.
    pub fn open(path: impl Into<PathBuf>) -> Result<Wal, StoreError> {
        Wal::replay(path, |_| {})
    }

    /// Opens (or creates) the segment at `path`, handing every intact
    /// record to `visit` in append order. Torn tails — down to a torn
    /// or missing header — are cut from disk immediately; CRC-failed
    /// records are skipped and removed from disk at the next append or
    /// [`Wal::compact`].
    ///
    /// # Errors
    ///
    /// I/O failures, foreign magic, or an unsupported format version.
    pub fn replay(
        path: impl Into<PathBuf>,
        mut visit: impl FnMut(&[u8]),
    ) -> Result<Wal, StoreError> {
        let path = path.into();
        let raw = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                atomic_write(&path, &HEADER)?;
                let tail = Tail::open(&path, WAL_HEADER_LEN as u64)?;
                return Ok(Wal { path, tail, live: 0, recovery: RecoveryStats::default() });
            }
            Err(e) => return Err(StoreError::io(&path, e)),
        };
        let (stats, good_end) = if let Some(header) = raw.get(..WAL_HEADER_LEN) {
            if header[..4] != WAL_MAGIC {
                return Err(StoreError::BadMagic { path });
            }
            let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if version != WAL_FORMAT_VERSION {
                return Err(StoreError::VersionMismatch {
                    path,
                    found: version,
                    expected: WAL_FORMAT_VERSION,
                });
            }
            scan(&raw, |_, payload| visit(payload))
        } else if HEADER.starts_with(&raw) {
            // A crash between create and header: an empty log whose
            // tail was torn inside the header.
            atomic_write(&path, &HEADER)?;
            (RecoveryStats { torn_truncated: 1, ..RecoveryStats::default() }, WAL_HEADER_LEN)
        } else {
            return Err(StoreError::BadMagic { path });
        };
        let metrics = gnnav_obs::global();
        if metrics.is_enabled() {
            metrics.add(metric::STORE_WAL_REPLAYED, stats.replayed);
            metrics.add(metric::STORE_WAL_TORN_TRUNCATED, stats.torn_truncated);
            metrics.add(metric::STORE_WAL_CRC_FAILURES, stats.crc_failures);
            let journal = metrics.journal();
            if journal.is_enabled() && !stats.is_clean() {
                journal.instant(
                    metric::EVENT_WAL_RECOVERY,
                    metric::TRACK_STORE,
                    None,
                    vec![
                        ("path".into(), path.display().to_string().into()),
                        ("replayed".into(), stats.replayed.into()),
                        ("torn_truncated".into(), stats.torn_truncated.into()),
                        ("crc_failures".into(), stats.crc_failures.into()),
                    ],
                );
            }
        }
        let tail = Tail::open(&path, good_end as u64)?;
        if good_end < raw.len() {
            // Drop the torn frame from disk right away so a subsequent
            // crash-free reader sees a clean segment. CRC-failed
            // records keep their disk bytes until the next rewrite.
            tail.file.set_len(tail.end).map_err(|e| StoreError::io(&path, e))?;
        }
        Ok(Wal { path, tail, live: stats.replayed as usize, recovery: stats })
    }

    /// The segment path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the segment holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// What the opening recovery scan found.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Rewrites the segment from its on-disk frames: those that pass
    /// their CRC and `keep`, then `extra` framed at the end.
    fn rewrite(
        &mut self,
        mut keep: impl FnMut(usize, &[u8]) -> bool,
        extra: Option<&[u8]>,
    ) -> Result<(), StoreError> {
        let raw = std::fs::read(&self.path).map_err(|e| StoreError::io(&self.path, e))?;
        let mut image = Vec::with_capacity(raw.len().max(WAL_HEADER_LEN));
        image.extend_from_slice(&HEADER);
        let mut seen = 0usize;
        let mut kept = 0usize;
        scan(&raw, |frame, payload| {
            if keep(seen, payload) {
                image.extend_from_slice(frame);
                kept += 1;
            }
            seen += 1;
        });
        if let Some(payload) = extra {
            put_frame(&mut image, payload).map_err(|e| StoreError::io(&self.path, e))?;
            kept += 1;
        }
        atomic_write(&self.path, &image)?;
        // The rename put a new inode under the name; the held handle
        // still appends to the old one, so it must not be used again
        // even if reopening fails.
        self.tail.poisoned = true;
        self.tail = Tail::open(&self.path, image.len() as u64)?;
        self.live = kept;
        self.recovery.crc_failures = 0;
        Ok(())
    }

    /// Appends one record: one write of one frame.
    ///
    /// If the opening scan dropped CRC-failed records, the first
    /// append rewrites the whole segment once (purging the dead
    /// bytes) and appending resumes on the clean file.
    ///
    /// # Errors
    ///
    /// I/O failures, after which the log — on disk and in this view —
    /// is exactly what it was before the call. Should rolling a failed
    /// write back fail as well, every later append is refused until
    /// the log is reopened.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        if self.recovery.crc_failures > 0 {
            self.rewrite(|_, _| true, Some(payload))?;
        } else {
            self.tail.append(payload).map_err(|e| StoreError::io(&self.path, e))?;
            self.live += 1;
        }
        let metrics = gnnav_obs::global();
        if metrics.is_enabled() {
            metrics.add(metric::STORE_WAL_APPENDS, 1);
        }
        Ok(())
    }

    /// Rewrites the segment keeping only records for which `keep`
    /// returns `true`, compacting away dead bytes. Returns the number
    /// of records dropped.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn compact(&mut self, keep: impl FnMut(usize, &[u8]) -> bool) -> Result<usize, StoreError> {
        let before = self.live;
        self.rewrite(keep, None)?;
        Ok(before - self.live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gnnav-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn replayed(path: &Path) -> (Wal, Vec<Vec<u8>>) {
        let mut records = Vec::new();
        let wal = Wal::replay(path, |p| records.push(p.to_vec())).expect("open");
        (wal, records)
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("seg.wal");
        let mut wal = Wal::open(&path).expect("open");
        wal.append(b"alpha").expect("append");
        wal.append(b"beta").expect("append");
        assert_eq!(wal.len(), 2);
        drop(wal);
        let (wal, records) = replayed(&path);
        assert_eq!(records, [b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(wal.len(), 2);
        assert!(wal.recovery().is_clean());
        assert_eq!(wal.recovery().replayed, 2);
    }

    #[test]
    fn a_segment_is_its_header_plus_one_frame_per_record() {
        let dir = tmpdir("layout");
        let path = dir.join("seg.wal");
        let mut wal = Wal::open(&path).expect("open");
        wal.append(b"alpha").expect("append");
        wal.append(b"").expect("append");
        let mut want = b"GNVW\x01\0\0\0".to_vec();
        want.extend_from_slice(&5u32.to_le_bytes());
        want.extend_from_slice(&crc32(b"alpha").to_le_bytes());
        want.extend_from_slice(b"alpha");
        want.extend_from_slice(&[0u8; 8]); // empty payload: len 0, CRC 0
        assert_eq!(std::fs::read(&path).expect("read"), want);
    }

    #[test]
    fn torn_tail_truncated_and_survivors_kept() {
        let dir = tmpdir("torn");
        let path = dir.join("seg.wal");
        let mut wal = Wal::open(&path).expect("open");
        wal.append(b"keep-me").expect("append");
        wal.append(b"the-last-record-gets-torn").expect("append");
        drop(wal);
        let len = std::fs::metadata(&path).expect("meta").len();
        // Chop 5 bytes off the final record's payload.
        let f = std::fs::OpenOptions::new().write(true).open(&path).expect("open rw");
        f.set_len(len - 5).expect("truncate");
        drop(f);
        let (wal, records) = replayed(&path);
        assert_eq!(records, [b"keep-me".to_vec()]);
        assert_eq!(wal.recovery().torn_truncated, 1);
        assert_eq!(wal.recovery().replayed, 1);
        // The torn frame is gone from disk: a second open is clean.
        let again = Wal::open(&path).expect("clean reopen");
        assert!(again.recovery().is_clean());
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn bit_flip_drops_exactly_the_damaged_record() {
        let dir = tmpdir("flip");
        let path = dir.join("seg.wal");
        let mut wal = Wal::open(&path).expect("open");
        wal.append(b"first").expect("append");
        wal.append(b"second").expect("append");
        wal.append(b"third").expect("append");
        drop(wal);
        // Flip one bit inside record 1's payload ("second"): it sits
        // after the header (8) + record 0's frame (8 + 5).
        let mut bytes = std::fs::read(&path).expect("read");
        let off = WAL_HEADER_LEN + WAL_FRAME_LEN + 5 + WAL_FRAME_LEN + 2;
        bytes[off] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let (wal, records) = replayed(&path);
        assert_eq!(records, [b"first".to_vec(), b"third".to_vec()]);
        assert_eq!(wal.recovery().crc_failures, 1);
        assert_eq!(wal.recovery().replayed, 2);
    }

    #[test]
    fn append_after_crc_failure_purges_dead_bytes() {
        let dir = tmpdir("purge");
        let path = dir.join("seg.wal");
        let mut wal = Wal::open(&path).expect("open");
        wal.append(b"aaaa").expect("append");
        wal.append(b"bbbb").expect("append");
        drop(wal);
        let mut bytes = std::fs::read(&path).expect("read");
        let off = WAL_HEADER_LEN + WAL_FRAME_LEN + 1; // inside "aaaa"
        bytes[off] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let mut wal = Wal::open(&path).expect("recover");
        assert_eq!(wal.recovery().crc_failures, 1);
        wal.append(b"cccc").expect("append rewrites");
        // The rewrite renamed a new file into place; the next append
        // must land in it, not in the unlinked one.
        wal.append(b"dddd").expect("append on the fresh handle");
        assert_eq!(wal.len(), 3);
        drop(wal);
        let (wal, records) = replayed(&path);
        assert!(wal.recovery().is_clean(), "dead bytes purged on append");
        assert_eq!(records, [b"bbbb".to_vec(), b"cccc".to_vec(), b"dddd".to_vec()]);
    }

    #[test]
    fn compact_keeps_selected_records() {
        let dir = tmpdir("compact");
        let path = dir.join("seg.wal");
        let mut wal = Wal::open(&path).expect("open");
        for i in 0..6u8 {
            wal.append(&[i]).expect("append");
        }
        let dropped = wal.compact(|i, _| i % 2 == 0).expect("compact");
        assert_eq!(dropped, 3);
        wal.append(&[6]).expect("append after compact");
        assert_eq!(wal.len(), 4);
        drop(wal);
        let (_, records) = replayed(&path);
        assert_eq!(records, [vec![0u8], vec![2], vec![4], vec![6]]);
    }

    #[test]
    fn foreign_file_rejected_with_path() {
        let dir = tmpdir("foreign");
        let path = dir.join("not-a-wal.bin");
        std::fs::write(&path, b"JSON{}!!").expect("write");
        let err = Wal::open(&path).expect_err("bad magic");
        assert!(matches!(err, StoreError::BadMagic { .. }));
        assert!(err.to_string().contains("not-a-wal.bin"));
        // Short and not a prefix of our header: still foreign.
        std::fs::write(&path, b"GNVX").expect("write");
        assert!(matches!(Wal::open(&path), Err(StoreError::BadMagic { .. })));
    }

    #[test]
    fn future_version_rejected() {
        let dir = tmpdir("version");
        let path = dir.join("seg.wal");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        let err = Wal::open(&path).expect_err("version");
        assert!(matches!(err, StoreError::VersionMismatch { found: 99, .. }));
    }

    /// A device that accepts `budget` more bytes and then errors, and
    /// whose truncate can be made to fail as well.
    struct FlakyFile {
        inner: File,
        budget: usize,
        cut_fails: bool,
    }

    impl Write for FlakyFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("no space left on device"));
            }
            let n = self.inner.write(&buf[..buf.len().min(self.budget)])?;
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl SegmentFile for FlakyFile {
        fn set_len(&mut self, len: u64) -> io::Result<()> {
            if self.cut_fails {
                return Err(io::Error::other("truncate refused"));
            }
            self.inner.set_len(len)
        }
    }

    /// A two-record segment and a flaky tail over it.
    fn flaky_tail(path: &Path, budget: usize, cut_fails: bool) -> Tail<FlakyFile> {
        let mut wal = Wal::open(path).expect("open");
        wal.append(b"one").expect("append");
        wal.append(b"two").expect("append");
        let Tail { file, end, .. } = wal.tail;
        Tail { file: FlakyFile { inner: file, budget, cut_fails }, end, poisoned: false }
    }

    #[test]
    fn short_write_leaves_the_log_exactly_as_it_was() {
        let dir = tmpdir("short");
        let path = dir.join("seg.wal");
        // Every way a 13-byte frame can come up short.
        for budget in 0..WAL_FRAME_LEN + 5 {
            let _ = std::fs::remove_file(&path);
            let mut tail = flaky_tail(&path, budget, false);
            let before = std::fs::read(&path).expect("read");
            let err = tail.append(b"three").expect_err("device full");
            assert_eq!(err.to_string(), "no space left on device");
            assert_eq!(std::fs::read(&path).expect("read"), before, "budget {budget}");
            assert_eq!(tail.end, before.len() as u64);
            assert!(!tail.poisoned);
            // Space comes back: the same handle appends cleanly.
            tail.file.budget = usize::MAX;
            tail.append(b"three").expect("append");
            drop(tail);
            let (wal, records) = replayed(&path);
            assert!(wal.recovery().is_clean());
            assert_eq!(records, [b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]);
        }
    }

    #[test]
    fn a_failed_rollback_refuses_appends_until_reopen() {
        let dir = tmpdir("poison");
        let path = dir.join("seg.wal");
        let mut tail = flaky_tail(&path, 6, true);
        let good_end = tail.end;
        tail.append(b"three").expect_err("device full");
        assert!(tail.poisoned);
        assert_eq!(tail.end, good_end);
        tail.file.budget = usize::MAX;
        let refused = tail.append(b"four").expect_err("tail unknown");
        assert!(refused.to_string().contains("reopen the log"));
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), good_end + 6);
        drop(tail);
        // Reopening is the recovery: the partial frame is a torn tail.
        let (mut wal, records) = replayed(&path);
        assert_eq!(records, [b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(wal.recovery().torn_truncated, 1);
        wal.append(b"three").expect("append");
        drop(wal);
        let (wal, records) = replayed(&path);
        assert!(wal.recovery().is_clean());
        assert_eq!(records.len(), 3);
    }
}

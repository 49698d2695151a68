//! Crash-point sweep: a segment cut at *every* byte length must open,
//! replay exactly its complete frames, leave a clean file behind and
//! take appends again.

use gnnav_store::{Wal, WAL_FRAME_LEN, WAL_HEADER_LEN};
use std::path::{Path, PathBuf};

const RECORDS: [&[u8]; 3] = [b"first", b"", b"the third record is the longest"];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnav-store-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn replayed(path: &Path) -> (Wal, Vec<Vec<u8>>) {
    let mut records = Vec::new();
    let wal = Wal::replay(path, |p| records.push(p.to_vec())).expect("open");
    (wal, records)
}

/// The full three-record segment and the offset each frame ends at.
fn segment(path: &Path) -> (Vec<u8>, Vec<usize>) {
    let mut wal = Wal::open(path).expect("open");
    let mut ends = vec![WAL_HEADER_LEN];
    for r in RECORDS {
        wal.append(r).expect("append");
        ends.push(ends[ends.len() - 1] + WAL_FRAME_LEN + r.len());
    }
    let bytes = std::fs::read(path).expect("read");
    assert_eq!(bytes.len(), ends[RECORDS.len()]);
    (bytes, ends)
}

/// Opens `path` after a crash left `cut` there; `survivors` complete
/// frames must replay, the file must be cut to `good_end`, and the log
/// must take an append that a clean reopen then sees.
fn recover(path: &Path, cut: &[u8], survivors: usize, good_end: usize) {
    std::fs::write(path, cut).expect("write cut");
    let (mut wal, records) = replayed(path);
    assert_eq!(records, RECORDS[..survivors], "cut at {}", cut.len());
    assert_eq!(wal.len(), survivors);
    let stats = wal.recovery();
    assert_eq!(stats.replayed, survivors as u64);
    assert_eq!(stats.crc_failures, 0);
    assert_eq!(stats.torn_truncated, u64::from(cut.len() != good_end), "cut at {}", cut.len());
    assert_eq!(std::fs::metadata(path).expect("meta").len(), good_end as u64);

    wal.append(b"after the crash").expect("append");
    drop(wal);
    let (wal, records) = replayed(path);
    assert!(wal.recovery().is_clean(), "cut at {}", cut.len());
    let mut want: Vec<&[u8]> = RECORDS[..survivors].to_vec();
    want.push(b"after the crash");
    assert_eq!(records, want, "cut at {}", cut.len());
}

#[test]
fn every_cut_from_the_header_to_eof_recovers() {
    let dir = tmpdir("sweep");
    let (full, ends) = segment(&dir.join("full.wal"));
    let path = dir.join("cut.wal");
    for cut in WAL_HEADER_LEN..=full.len() {
        let survivors = ends.iter().filter(|&&e| e <= cut).count() - 1;
        recover(&path, &full[..cut], survivors, ends[survivors]);
    }
}

#[test]
fn a_cut_inside_the_header_recovers_as_an_empty_log() {
    let dir = tmpdir("header");
    let (full, _) = segment(&dir.join("full.wal"));
    let path = dir.join("cut.wal");
    for cut in 0..WAL_HEADER_LEN {
        recover(&path, &full[..cut], 0, WAL_HEADER_LEN);
    }
}

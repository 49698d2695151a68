//! Crash-safe persistence for GNNavigator.
//!
//! Everything the pipeline produces is cheap to recompute *once* —
//! and expensive to recompute *every time*. This crate makes the
//! expensive artifacts durable:
//!
//! - [`Wal`] — append-only segments of CRC-framed records (the
//!   on-disk ProfileDb substrate). An append is one write of one
//!   frame; recovery truncates torn tails and skips checksum-failed
//!   records, loudly.
//! - [`write_checkpoint`] / [`read_checkpoint`] / [`CheckpointDir`] —
//!   atomic whole-state checkpoint files for the training and
//!   adaptive-navigation resume paths.
//! - [`ByteWriter`] / [`ByteReader`] — the raw-bits binary codec both
//!   formats share (floats as IEEE-754 bits, so resume is byte-exact).
//! - [`fnv1a64`] — the fingerprint hash every content key shares.
//! - [`corrupt`] — deterministic storage-corruption applicators
//!   backing the `TornWrite`/`BitFlip` fault kinds.
//!
//! All durability traffic is metered (`store.wal.*`,
//! `store.checkpoint.*`) and journaled on the `store` track; see
//! `docs/DURABILITY.md` for the format specs and invariants.

mod checkpoint;
mod codec;
pub mod corrupt;
mod crc;
mod error;
mod fnv;
mod wal;

pub use checkpoint::{
    read_checkpoint, write_checkpoint, CheckpointDir, CHECKPOINT_FORMAT_VERSION,
    CHECKPOINT_HEADER_LEN, CHECKPOINT_MAGIC,
};
pub use codec::{ByteReader, ByteWriter};
pub use crc::crc32;
pub use error::StoreError;
pub use fnv::fnv1a64;
pub use wal::{
    atomic_write, RecoveryStats, Wal, WAL_FORMAT_VERSION, WAL_FRAME_LEN, WAL_HEADER_LEN, WAL_MAGIC,
};

//! The device feature cache of the GNNavigator reproduction.
//!
//! Transmission strategies (paper §3.2) all reduce to: initialize a
//! device cache within the free memory budget, split each mini-batch
//! into hits and misses, transfer only the misses, then update the
//! cache per policy. This crate provides that one operation as
//! [`FeatureCache`], built by [`build_cache`] for any [`CachePolicy`]:
//! PaGraph's static degree-ordered cache, FIFO, LRU, LFU, and the
//! no-cache baseline. The policies differ only in what a hit touches
//! and what an admission evicts.
//!
//! # Example
//!
//! ```
//! use gnnav_cache::{build_cache, CachePolicy};
//! use gnnav_graph::generators::barabasi_albert;
//!
//! # fn main() -> Result<(), gnnav_graph::GraphError> {
//! let g = barabasi_albert(100, 3, 1)?;
//! let mut cache = build_cache(CachePolicy::Lru, 16, &g);
//! let outcome = cache.lookup(&[0, 1, 2]);
//! cache.update(&outcome.misses);
//! assert!(cache.len() <= 16);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod policy;

pub use cache::{
    build_cache, entries_for_budget, CacheSnapshot, CacheStats, FeatureCache, LookupOutcome,
};
pub use policy::{CachePolicy, ParsePolicyError};

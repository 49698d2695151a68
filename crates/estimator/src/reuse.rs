//! Reuse tables: each distinct component input of one exploration is
//! predicted once.
//!
//! Neighbouring DFS leaves differ in one or two axes, and each learned
//! component reads only a few of them, so most of its inputs recur
//! from leaf to leaf. There is one table per costly learned component
//! — `|V_i|` (Eq. 12), the hit-rate forest and the accuracy forest —
//! keyed by exactly the input its features are built from
//! ([`crate::features`]). A later leaf with an equal input reads the
//! stored value back, bit for bit the value a fresh prediction would
//! compute.
//!
//! The tables live in a [`crate::PredictionContext`], one per
//! exploration, and are dropped with it. They are filled by one fit:
//! asked by another (a refit, another estimator), they empty
//! themselves first. A prediction without a context
//! (`GrayBoxEstimator::predict`) runs the same composition with no
//! tables.
//!
//! [`WordHasher`] is the tables' hasher, and the DFS's visited set's:
//! both hash a few machine words per key, where SipHash's per-key
//! setup and finalisation would cost more than the lookup saves.

use crate::features::{AccuracyInput, BatchSizeInput, HitRateInput};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// A multiplicative hasher over machine words: one add and one
/// multiply per word (the rustc-hash v2 mixer), and one folded
/// 64 × 64 → 128-bit multiply on [`finish`](Hasher::finish), whose
/// high half carries every input bit into the low bits a table indexes
/// by. It is not DoS-resistant; every key it sees is computed by this
/// program.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

const SEED: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * u128::from(SEED);
        product as u64 ^ (product >> 64) as u64
    }
}

/// Builds [`WordHasher`]s.
pub(crate) type BuildWordHasher = BuildHasherDefault<WordHasher>;

/// A `HashSet` hashed by [`WordHasher`].
pub type WordSet<T> = HashSet<T, BuildWordHasher>;

type Table<K> = HashMap<K, f64, BuildWordHasher>;

/// The reuse tables of one exploration, and the fit that filled them.
///
/// `O` is the fitted state the stored values came from; the tables hold
/// it, so it cannot be dropped and its address reused while they do.
#[derive(Debug, Clone)]
pub(crate) struct Reuse<O> {
    filled_by: Option<Arc<O>>,
    stored: Stored,
}

/// One table per reused component.
#[derive(Debug, Clone, Default)]
struct Stored {
    batch: Table<BatchSizeInput>,
    hit: Table<HitRateInput>,
    accuracy: Table<AccuracyInput>,
}

impl<O> Default for Reuse<O> {
    fn default() -> Self {
        Reuse { filled_by: None, stored: Stored::default() }
    }
}

impl<O> Reuse<O> {
    /// The tables for predictions by `fit`: these, emptied first when
    /// another fit filled them.
    pub(crate) fn for_fit(&mut self, fit: &Arc<O>) -> Tables<'_> {
        if !self.filled_by.as_ref().is_some_and(|o| Arc::ptr_eq(o, fit)) {
            self.stored = Stored::default();
            self.filled_by = Some(Arc::clone(fit));
        }
        Tables(Some(&mut self.stored))
    }
}

/// One fit's view of the tables, or [`none`](Tables::none).
pub(crate) struct Tables<'a>(Option<&'a mut Stored>);

impl Tables<'_> {
    /// No tables: every input is predicted and none is stored (a
    /// single prediction would only pay for allocating them).
    pub(crate) fn none() -> Self {
        Tables(None)
    }

    /// The `|V_i|` of `input`, predicted by `predict` on first sight.
    pub(crate) fn batch(&mut self, input: BatchSizeInput, predict: impl FnOnce() -> f64) -> f64 {
        reuse(self.0.as_deref_mut().map(|s| &mut s.batch), input, predict)
    }

    /// The hit rate of `input`, predicted by `predict` on first sight.
    pub(crate) fn hit(&mut self, input: HitRateInput, predict: impl FnOnce() -> f64) -> f64 {
        reuse(self.0.as_deref_mut().map(|s| &mut s.hit), input, predict)
    }

    /// The accuracy of `input`, predicted by `predict` on first sight.
    pub(crate) fn accuracy(&mut self, input: AccuracyInput, predict: impl FnOnce() -> f64) -> f64 {
        reuse(self.0.as_deref_mut().map(|s| &mut s.accuracy), input, predict)
    }
}

fn reuse<K: Hash + Eq>(table: Option<&mut Table<K>>, key: K, predict: impl FnOnce() -> f64) -> f64 {
    match table {
        Some(table) => *table.entry(key).or_insert_with(predict),
        None => predict(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Bits;
    use std::hash::BuildHasher;

    #[test]
    fn byte_writes_hash_as_their_little_endian_words() {
        let build = BuildWordHasher::default();
        let mut words = build.build_hasher();
        words.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        words.write_u64(u64::from_le_bytes(*b"ij\0\0\0\0\0\0"));
        let mut bytes = build.build_hasher();
        bytes.write(b"abcdefghij");
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn packed_leaf_keys_spread_over_the_low_bits() {
        // The DFS's visited keys are small mixed-radix integers; a
        // table indexes by the hash's low bits, which must not all
        // agree for consecutive keys (uniform hashing fills ≈ 2 589).
        let build = BuildWordHasher::default();
        let buckets: HashSet<u64> = (0..4096u64).map(|k| build.hash_one(k) & 4095).collect();
        assert!(buckets.len() > 2400, "{} of 4096 buckets", buckets.len());
    }

    #[test]
    fn another_fit_empties_the_tables() {
        let (a, b) = (Arc::new(1u8), Arc::new(2u8));
        let mut reuse = Reuse::default();
        let input = BatchSizeInput {
            sampler: gnnav_runtime::SamplerKind::NodeWise,
            skeleton: Bits::new(3.0),
            locality_eta: Bits::new(0.0),
            batch_size: 1,
        };
        assert_eq!(reuse.for_fit(&a).batch(input, || 1.0), 1.0);
        assert_eq!(reuse.for_fit(&a).batch(input, || unreachable!("stored")), 1.0);
        assert_eq!(reuse.for_fit(&Arc::clone(&a)).batch(input, || unreachable!()), 1.0);
        assert_eq!(reuse.for_fit(&b).batch(input, || 2.0), 2.0);
        assert_eq!(reuse.for_fit(&a).batch(input, || 3.0), 3.0);
    }
}

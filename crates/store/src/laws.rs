//! The laws every [`Wire`] impl must hold, as assertions a test runs
//! over any value of any `T: Wire + Debug`:
//!
//! - the round trip is bit-exact: decoding the encoding consumes all of
//!   it and renders under `Debug` as the value did (so NaN payloads
//!   count, and `PartialEq` is not needed);
//! - the encoding takes at least `T::MIN_BYTES`, and exactly that for
//!   the type's smallest value ([`assert_smallest`]);
//! - every truncation of the encoding is an `Err`;
//! - every single-byte mutation decodes or is a typed
//!   [`StoreError::Decode`], never a panic: at every position of an
//!   encoding of up to 4 096 bytes, at 4 096 evenly spaced positions of
//!   a longer one.

use crate::{ByteReader, ByteWriter, StoreError, Wire};
use std::fmt::Debug;

/// Longest encoding whose every byte position is mutated; a longer one
/// is mutated at this many evenly spaced positions.
const EVERY_POSITION_UP_TO: usize = 4096;

/// The values each mutated byte is XORed with: its low bit, its high
/// bit, and all of it.
const FLIPS: [u8; 3] = [0x01, 0x80, 0xFF];

fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.put(&mut w);
    w.finish()
}

/// Asserts every law for `value`.
///
/// # Panics
///
/// On the first law broken, naming it and the offending position.
pub fn assert_laws<T: Wire + Debug>(value: &T) {
    let bytes = encode(value);
    assert!(
        bytes.len() >= T::MIN_BYTES,
        "{} bytes encode {value:?}, below MIN_BYTES {}",
        bytes.len(),
        T::MIN_BYTES
    );

    let mut r = ByteReader::new(&bytes);
    let decoded = T::get(&mut r).unwrap_or_else(|e| panic!("{value:?} does not decode: {e}"));
    assert!(r.is_exhausted(), "{} bytes of {value:?} left undecoded", r.remaining());
    assert_eq!(format!("{decoded:?}"), format!("{value:?}"), "the round trip moved a bit");

    for len in 0..bytes.len() {
        let got = T::get(&mut ByteReader::new(&bytes[..len]));
        assert!(got.is_err(), "the first {len} of {} bytes decode: {got:?}", bytes.len());
    }

    let stride = bytes.len().div_ceil(EVERY_POSITION_UP_TO).max(1);
    let mut mutated = bytes.clone();
    for at in (0..bytes.len()).step_by(stride) {
        for flip in FLIPS {
            mutated[at] ^= flip;
            if let Err(e) = T::get(&mut ByteReader::new(&mutated)) {
                assert!(
                    matches!(e, StoreError::Decode { .. }),
                    "byte {at} ^ {flip:#04x} is not a decode error: {e}"
                );
            }
            mutated[at] = bytes[at];
        }
    }
}

/// Asserts every law for `value`, the smallest value of its type: it
/// encodes to exactly `T::MIN_BYTES`.
///
/// # Panics
///
/// On a broken law, or when `value` encodes longer than `MIN_BYTES`.
pub fn assert_smallest<T: Wire + Debug>(value: &T) {
    assert_eq!(encode(value).len(), T::MIN_BYTES, "{value:?} is not the smallest encoding");
    assert_laws(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_library_impls_hold_the_laws() {
        assert_smallest(&0u8);
        assert_smallest(&false);
        assert_smallest(&0u32);
        assert_smallest(&0u64);
        assert_smallest(&0usize);
        assert_smallest(&0f32);
        assert_smallest(&0f64);
        assert_smallest(&String::new());
        assert_smallest(&None::<f64>);
        assert_smallest(&Vec::<u32>::new());
        assert_smallest(&[0u64; 4]);
        assert_smallest(&(0u32, 0u64, 0u32));
        assert_smallest(&std::sync::Arc::new(0u8));
        assert_laws(&Some(f64::from_bits(0x7FF8_0000_0000_1234)));
        assert_laws(&"hëllo ✓".to_string());
        assert_laws(&vec![vec![1.5f32, f32::NAN], vec![], vec![-0.0]]);
        assert_laws(&(Some("a".to_string()), [1u8, 2, 3], vec![(7u32, true)]));
    }

    #[test]
    #[should_panic(expected = "round trip")]
    fn a_lossy_codec_breaks_a_law() {
        #[derive(Debug)]
        struct Halved(u32);
        impl Wire for Halved {
            const MIN_BYTES: usize = 4;
            fn put(&self, w: &mut ByteWriter) {
                w.put_u32(self.0 / 2);
            }
            fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
                Ok(Halved(r.get_u32()? * 2))
            }
        }
        assert_laws(&Halved(3));
    }
}

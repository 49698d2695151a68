//! FNV-1a 64-bit: the one fingerprint hash behind every content key
//! (profile records, exploration results, platforms, serve neighbors).
//!
//! Stable across runs and platforms as long as the caller hashes a
//! canonical byte encoding ([`ByteWriter`](crate::ByteWriter):
//! little-endian, raw float bits). The values are persisted in WAL
//! frames, so the constants can never change.

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values of the FNV-1a 64-bit specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}

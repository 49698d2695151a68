//! CRC-32 (IEEE 802.3 polynomial, reflected) over byte slices.
//!
//! Two paths compute the same bits. On an x86-64 that reports
//! PCLMULQDQ, inputs of 128 bytes or more are folded 64 bytes per
//! step by carry-less multiplication (module `clmul`),
//! following Intel's "Fast CRC Computation for Generic Polynomials
//! Using PCLMULQDQ Instruction"; the last 0–15 bytes go to the table
//! path. Everywhere else the table path does it all: slice-by-8, eight
//! tables built at compile time, eight independent lookups XORed
//! together per eight input bytes instead of one dependent lookup per
//! byte. `TABLES[0]` *is* the bytewise algorithm's table and the
//! bytewise step finishes the tail, so every frame and checkpoint ever
//! written verifies unchanged; the unit tests hold both paths to the
//! bytewise reference. The crate stays dependency-free.
//!
//! What it costs, on the two-vCPU Xeon the repository's benchmark runs
//! on: slice-by-8 checksums 1.2 GB/s and the carry-less path 16–20
//! GB/s, so the 555 651-byte log one navigation leaves takes 28–34 µs
//! instead of 450 µs, and a 295 348-byte session checkpoint 16–18 µs
//! instead of 250 µs (`cargo bench -p gnnav-bench --bench store`,
//! `store/crc32_*`).

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][i] is the CRC state after byte `i` followed by `k`
    // zero bytes: one more bytewise step applied to tables[k - 1][i].
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Advances the raw (pre-inversion) CRC state over `bytes` one table
/// lookup per byte.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Advances the raw CRC state over `bytes` eight bytes per step
/// (module docs), the tail bytewise.
fn update_slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    update_bytewise(crc, chunks.remainder())
}

/// CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `clmul::update` is safe code whose one requirement
        // is a CPU with PCLMULQDQ, which the line above just
        // established.
        return !unsafe { clmul::update(0xFFFF_FFFF, bytes) };
    }
    !update_slice8(0xFFFF_FFFF, bytes)
}

/// The carry-less multiplication path. Each 128-bit lane holds 16
/// input bytes; multiplying its two 64-bit halves by `x^(d+32) mod P`
/// and `x^(d-32) mod P` and XORing both products into the lane `d`
/// bits further on moves its contribution there without changing the
/// remainder mod `P`. Four lanes fold 64 bytes per step (`d` = 512),
/// then fold into one, which takes the remaining 16-byte blocks
/// (`d` = 128); two more multiplications bring 128 bits to 64 and a
/// Barrett reduction brings those to the 32-bit state. The constants
/// are for the reflected IEEE polynomial, as 33-bit values
/// (bit-reflected and shifted left by one, as the Intel paper gives
/// them for reflected CRCs).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input this path takes: two 64-byte blocks, so that its
    /// setup and final reduction are paid over enough folds.
    pub(super) const MIN_LEN: usize = 128;

    /// `x^(4·128+32) mod P` and `x^(4·128-32) mod P`: fold by four lanes.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P` and `x^(128-32) mod P`: fold by one lane.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// `x^64 mod P`: 96 bits to 64.
    const K5: i64 = 0x1_63CD_6124;
    /// The polynomial `P′` and the Barrett quotient `μ = x^64 / P`.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// One 16-byte block as a lane, little-endian like the table path.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn lane(block: &[u8; 16]) -> __m128i {
        let lo = u64::from_le_bytes([
            block[0], block[1], block[2], block[3], block[4], block[5], block[6], block[7],
        ]);
        let hi = u64::from_le_bytes([
            block[8], block[9], block[10], block[11], block[12], block[13], block[14], block[15],
        ]);
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// The four lanes of a 64-byte block.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn lanes(block: &[u8]) -> [__m128i; 4] {
        std::array::from_fn(|i| lane(block[16 * i..16 * i + 16].try_into().expect("16 bytes")))
    }

    /// `a` folded over one fold distance (`keys`) onto `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Advances the raw CRC state over `bytes` (at least 64 of them);
    /// the same value as `update_slice8`. Call it only on a CPU with
    /// PCLMULQDQ: outside a function with that target feature, the
    /// call is `unsafe`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(crc: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let mut x = lanes(blocks.next().expect("at least 64 bytes"));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            let y = lanes(block);
            for (xi, yi) in x.iter_mut().zip(y) {
                *xi = fold(*xi, yi, k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut rest = blocks.remainder().chunks_exact(16);
        for block in &mut rest {
            acc = fold(acc, lane(block.try_into().expect("16 bytes")), k3k4);
        }

        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // 128 bits to 96: the low half times K4 onto the high half.
        let acc = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, k3k4), _mm_srli_si128::<8>(acc));
        // 96 bits to 64: the low 32 bits times K5 onto the rest.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P′, and the
        // reflected remainder is bits 32..64 of R ^ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let state = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(acc, t2))) as u32;
        super::update_slice8(state, rest.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-lookup-per-byte algorithm every stored checksum was
    /// written with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !update_bytewise(0xFFFF_FFFF, bytes)
    }

    /// xorshift64 bytes: a fixed, well-mixed buffer.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        };
        (0..len).map(|_| next()).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"gnnavigator");
        let mut flipped = b"gnnavigator".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }

    #[test]
    fn matches_bytewise_at_every_short_length_and_alignment() {
        let buf = noise(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn matches_bytewise_on_a_mebibyte() {
        let buf = noise(1 << 20);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        assert_eq!(crc32(&buf[3..]), crc32_bytewise(&buf[3..]));
    }

    /// The two paths, each held to the bytewise reference: `crc32`,
    /// which takes the carry-less path from 128 bytes on where the CPU
    /// has it, and the table path, which such a CPU never dispatches.
    fn assert_both_paths_match(s: &[u8], what: &str) {
        let want = crc32_bytewise(s);
        assert_eq!(crc32(s), want, "crc32, {what}");
        assert_eq!(!update_slice8(0xFFFF_FFFF, s), want, "slice-by-8, {what}");
    }

    #[test]
    fn both_paths_match_bytewise_at_every_length_to_1024_and_alignment() {
        let buf = noise(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                assert_both_paths_match(
                    &buf[start..start + len],
                    &format!("start {start}, len {len}"),
                );
            }
        }
    }

    #[test]
    fn both_paths_match_bytewise_at_a_checkpoint_and_a_navigation_log() {
        // A session checkpoint's payload and the log one navigation
        // leaves, in bytes.
        for len in [295_348, 555_651] {
            let buf = noise(len);
            assert_both_paths_match(&buf, &format!("len {len}"));
        }
    }
}

//! Register-tiled reduction kernels, one source for every vector ISA.
//!
//! Every reduction the training step spends its time in — the three
//! dense products of [`crate::tensor`] and the sparse row gathers of
//! [`crate::layers`] — is built from the three tile bodies below. A
//! tile is a small block of *output* elements whose accumulators are a
//! fixed-size local array: after inlining and unrolling they live in
//! vector registers for the **whole** reduction (all of `k`, all of a
//! neighbor list), start at `+0.0`, take one term at a time in
//! ascending reduction order, and are stored exactly once. Nothing
//! reads the output buffer, so no kernel needs it zero-filled first.
//!
//! # Why tile shape and vector width cannot reach an output bit
//!
//! Each accumulator belongs to exactly one output element (one lane of
//! one partial sum for [`dot_block`]). The value it ends with is a
//! function of that element's own chain — `+0.0`, then `acc += c * x`
//! for its terms in reduction order, every multiply and every add
//! rounded on its own — and of nothing else. Which other elements
//! share its tile, how many of them one instruction updates, and in
//! which order tiles are visited change which chains advance
//! together, never a chain. So `MR`/`NR`, 128- versus 256-bit
//! vectors, the slid tail tile of [`tile_starts`] (which recomputes
//! a few columns to identical bits) and the thread count are all
//! invisible in the result. Two things would not be: fusing the
//! multiply into the add (one rounding instead of two), which Rust
//! never does unasked and which the `fma` target feature — the only
//! way to get it — is deliberately not enabled for; and reassociating
//! a chain, which only [`dot_block`] does, in the one fixed
//! [`LANE`]-way split it has always had.
//!
//! # One source, two ISAs, one `unsafe`
//!
//! The bodies are `#[inline(always)]` and contain no intrinsics; the
//! compiler vectorizes their constant-bound lane loops for whatever
//! function they are inlined into. [`dispatch`] inlines a body into
//! two such functions — an ordinary one (the portable build: SSE2 on
//! x86-64, NEON on aarch64) and, on x86-64, one compiled with
//! `#[target_feature(enable = "avx2")]` — and picks between them with
//! `is_x86_feature_detected!`. That call is the crate's only `unsafe`.
//! The CPU is the only input to the choice: there is no flag, option
//! or environment variable, and tests reach the portable build by
//! calling a body directly from ordinary code. AVX-512 is not built —
//! a third copy and a frequency licence for at most a quarter more on
//! the dense products alone.

use crate::tensor::LANE;

/// Output rows per register tile of the dense kernels.
const MR: usize = 4;

/// Widest register tile (output columns) of [`matmul_block`]: `MR x
/// NR` accumulators are 8 of the 16 AVX2 registers — enough
/// independent chains to hide the add latency — leaving room for the
/// `B` row, the broadcast `A` element and the unfused product.
const NR: usize = 2 * LANE;

/// `B` rows per register tile of [`dot_block`]: `MR x NB` outputs of
/// [`LANE`] partial sums each, again 8 AVX2 registers.
const NB: usize = 2;

/// Widest register tile of [`gather_row`], which has one output row
/// per reduction and needs all 8 chains from its columns.
const GATHER_NR: usize = 8 * LANE;

/// Runs `body` compiled for the widest vector ISA this CPU has of the
/// ones the crate builds: AVX2 on an x86-64 that reports it, the
/// target's baseline otherwise. `body` must be an `#[inline(always)]`
/// closure over `#[inline(always)]` kernel bodies, so that both copies
/// are generated from the one source (module docs).
#[inline(always)]
pub(crate) fn dispatch<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2` is safe code whose one requirement is a
            // CPU with AVX2, which the line above just established.
            return unsafe { avx2(body) };
        }
    }
    body()
}

/// First columns of the width-`w` register tiles that cover columns
/// `0..n` of a row (`n >= w`): every `w` columns, with the last tile
/// slid left to end at `n`. The columns it then shares with its
/// neighbor are computed twice, to the same bits (module docs) —
/// cheaper than a masked or zero-padded tail, and no second tile body.
#[inline(always)]
fn tile_starts(n: usize, w: usize) -> impl Iterator<Item = usize> {
    debug_assert!(n >= w);
    (0..n).step_by(w).map(move |j| j.min(n - w))
}

/// The left operand of a saxpy-form product, as the tiles read it.
pub(crate) trait Lhs: Copy {
    /// For each reduction index `k` ascending, the `M` elements the
    /// output rows `r..r + M` multiply that step's `B` row by.
    fn columns<const M: usize>(self, r: usize) -> impl Iterator<Item = [f32; M]>;
}

/// `A` in `A·B`: row-major with `k_dim` columns, one output row per
/// row.
#[derive(Clone, Copy)]
pub(crate) struct RowMajor<'a> {
    pub data: &'a [f32],
    pub k_dim: usize,
}

impl Lhs for RowMajor<'_> {
    #[inline(always)]
    fn columns<const M: usize>(self, r: usize) -> impl Iterator<Item = [f32; M]> {
        let rows: [&[f32]; M] =
            std::array::from_fn(|i| &self.data[(r + i) * self.k_dim..][..self.k_dim]);
        (0..self.k_dim).map(move |k| std::array::from_fn(|i| rows[i][k]))
    }
}

/// `A` in `Aᵀ·B`: the same row-major buffer (`cols > 0` columns) read
/// down its columns — one output row per *column*, the reduction over
/// rows — so the transpose is never materialized.
#[derive(Clone, Copy)]
pub(crate) struct Transposed<'a> {
    pub data: &'a [f32],
    pub cols: usize,
}

impl Lhs for Transposed<'_> {
    #[inline(always)]
    fn columns<const M: usize>(self, r: usize) -> impl Iterator<Item = [f32; M]> {
        self.data
            .chunks_exact(self.cols)
            .map(move |row| row[r..r + M].try_into().expect("slice of M elements"))
    }
}

/// One block of output rows of a saxpy-form product:
/// `out_block[i][j] = Σ_k lhs(r0 + i, k) · b[k][j]`, `k` ascending
/// from `+0.0`, for the `out_block.len() / n` rows the block holds and
/// all `n > 0` columns (`b` is row-major with `n` columns and one row
/// per reduction step).
#[inline(always)]
pub(crate) fn matmul_block(lhs: impl Lhs, r0: usize, b: &[f32], n: usize, out_block: &mut [f32]) {
    if n >= NR {
        saxpy_panels::<NR>(lhs, r0, b, n, out_block);
    } else if n >= LANE {
        saxpy_panels::<LANE>(lhs, r0, b, n, out_block);
    } else {
        // No tile fits: one row at a time, the `n` columns on the
        // front lanes of a single accumulator.
        for (i, out_row) in out_block.chunks_exact_mut(n).enumerate() {
            let mut acc = [0.0f32; LANE];
            for ([av], b_row) in lhs.columns::<1>(r0 + i).zip(b.chunks_exact(n)) {
                for (o, &bv) in acc.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
            out_row.copy_from_slice(&acc[..n]);
        }
    }
}

/// [`matmul_block`] over width-`W` tiles. Column tiles outermost: the
/// panel of `b` a tile streams stays cache-resident for every row
/// group of the block.
#[inline(always)]
fn saxpy_panels<const W: usize>(
    lhs: impl Lhs,
    r0: usize,
    b: &[f32],
    n: usize,
    out_block: &mut [f32],
) {
    let rows = out_block.len() / n;
    for j0 in tile_starts(n, W) {
        let mut i = 0;
        while i + MR <= rows {
            saxpy_tile::<MR, W>(lhs.columns(r0 + i), b, n, j0, &mut out_block[i * n..]);
            i += MR;
        }
        while i < rows {
            saxpy_tile::<1, W>(lhs.columns(r0 + i), b, n, j0, &mut out_block[i * n..]);
            i += 1;
        }
    }
}

/// The `M x W` register tile of [`matmul_block`]: columns `j0..j0 + W`
/// of the `M` output rows `out` starts at (row stride `n`).
#[inline(always)]
fn saxpy_tile<const M: usize, const W: usize>(
    a_columns: impl Iterator<Item = [f32; M]>,
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; M];
    for (a_k, b_row) in a_columns.zip(b.chunks_exact(n)) {
        let b_k: &[f32; W] = b_row[j0..j0 + W].try_into().expect("slice of W elements");
        for i in 0..M {
            for l in 0..W {
                acc[i][l] += a_k[i] * b_k[l];
            }
        }
    }
    for (acc_row, out_row) in acc.iter().zip(out.chunks_mut(n)) {
        out_row[j0..j0 + W].copy_from_slice(acc_row);
    }
}

/// One block of output rows of `A·Bᵀ`: `out_block[i][j]` is the
/// [`LANE`]-way split dot product of row `r0 + i` of `a` with row `j`
/// of `b` (both row-major with `k_dim` columns; `b` has `m > 0` rows)
/// — lane `l` sums elements `l, l + LANE, …` ascending from `+0.0`,
/// the sub-[`LANE`] tail lands on lanes `0..`, and the lanes are added
/// left to right into `+0.0`. The split depends on `k_dim` alone.
#[inline(always)]
pub(crate) fn dot_block(
    a: &[f32],
    r0: usize,
    k_dim: usize,
    b: &[f32],
    m: usize,
    out_block: &mut [f32],
) {
    let rows = out_block.len() / m;
    let mut i = 0;
    while i + MR <= rows {
        dot_panels::<MR>(&a[(r0 + i) * k_dim..], k_dim, b, m, &mut out_block[i * m..]);
        i += MR;
    }
    while i < rows {
        dot_panels::<1>(&a[(r0 + i) * k_dim..], k_dim, b, m, &mut out_block[i * m..]);
        i += 1;
    }
}

/// [`dot_block`] for the `M` rows `a` and `out` start at.
#[inline(always)]
fn dot_panels<const M: usize>(a: &[f32], k_dim: usize, b: &[f32], m: usize, out: &mut [f32]) {
    let a: [&[f32]; M] = std::array::from_fn(|i| &a[i * k_dim..][..k_dim]);
    let mut j = 0;
    while j + NB <= m {
        let sums = dot_tile::<M, NB>(a, std::array::from_fn(|t| &b[(j + t) * k_dim..][..k_dim]));
        for (i, row) in sums.iter().enumerate() {
            out[i * m + j..][..NB].copy_from_slice(row);
        }
        j += NB;
    }
    while j < m {
        let sums = dot_tile::<M, 1>(a, [&b[j * k_dim..][..k_dim]]);
        for (i, row) in sums.iter().enumerate() {
            out[i * m + j] = row[0];
        }
        j += 1;
    }
}

/// The `M x N` register tile of [`dot_block`]: every row of `a`
/// against every row of `b`, all of one length.
// Plain index loops over the fixed-size accumulator arrays are the
// shape the vectorizer keeps in registers; the iterator chains clippy
// suggests here compile to scalar code with the tile in memory.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn dot_tile<const M: usize, const N: usize>(a: [&[f32]; M], b: [&[f32]; N]) -> [[f32; N]; M] {
    let a = a.map(|row| row.as_chunks::<LANE>());
    let b = b.map(|row| row.as_chunks::<LANE>());
    let mut acc = [[[0.0f32; LANE]; N]; M];
    for c in 0..a[0].0.len() {
        for i in 0..M {
            for j in 0..N {
                for l in 0..LANE {
                    acc[i][j][l] += a[i].0[c][l] * b[j].0[c][l];
                }
            }
        }
    }
    for t in 0..a[0].1.len() {
        for i in 0..M {
            for j in 0..N {
                acc[i][j][t] += a[i].1[t] * b[j].1[t];
            }
        }
    }
    // Lane-outermost so the M x N left-to-right sums advance together;
    // each is still `((0 + lane 0) + lane 1) + …`.
    let mut sums = [[0.0f32; N]; M];
    for l in 0..LANE {
        for i in 0..M {
            for j in 0..N {
                sums[i][j] += acc[i][j][l];
            }
        }
    }
    sums
}

/// One output row (or column window of one) of a weighted row gather:
/// `dst[j] = Σ_t c_t · row_t[j0 + j]` over `(c_t, row_t) = term(t)`
/// for `t` in `0..terms` ascending, from `+0.0`. `term` is called once
/// per term *and register tile*, so it must be cheap and pure; it is
/// an index function rather than an iterator because a chained
/// iterator's state machine keeps the accumulators out of registers.
/// An unweighted sum passes `c_t = 1.0`: `1.0 · x` is `x` exactly.
#[inline(always)]
pub(crate) fn gather_row<'a>(
    dst: &mut [f32],
    j0: usize,
    terms: usize,
    term: impl Fn(usize) -> (f32, &'a [f32]),
) {
    // The widest tile that fits the row, so that a row narrower than
    // `GATHER_NR` still gets as many independent chains as it has.
    match dst.len() {
        GATHER_NR.. => gather_tiles::<GATHER_NR>(dst, j0, terms, term),
        32.. => gather_tiles::<32>(dst, j0, terms, term),
        16.. => gather_tiles::<16>(dst, j0, terms, term),
        LANE.. => gather_tiles::<LANE>(dst, j0, terms, term),
        w => {
            let mut acc = [0.0f32; LANE];
            for t in 0..terms {
                let (c, row) = term(t);
                for (o, &s) in acc.iter_mut().zip(&row[j0..j0 + w]) {
                    *o += c * s;
                }
            }
            dst.copy_from_slice(&acc[..w]);
        }
    }
}

/// [`gather_row`] over width-`W` tiles.
#[inline(always)]
fn gather_tiles<'a, const W: usize>(
    dst: &mut [f32],
    j0: usize,
    terms: usize,
    term: impl Fn(usize) -> (f32, &'a [f32]),
) {
    for j in tile_starts(dst.len(), W) {
        let mut acc = [0.0f32; W];
        for t in 0..terms {
            let (c, row) = term(t);
            let src: &[f32; W] = row[j0 + j..][..W].try_into().expect("slice of W elements");
            for l in 0..W {
                acc[l] += c * src[l];
            }
        }
        dst[j..j + W].copy_from_slice(&acc);
    }
}

//! Minimal dense row-major f32 matrix used by the NN substrate.
//!
//! This is deliberately small: the GNN layers need matmul, transpose
//! variants, elementwise maps, and row reductions — nothing more. The
//! three products run on the register-tile bodies of `kernel.rs`:
//! a small block of output elements keeps its accumulators in vector
//! registers across the whole reduction and is stored once, and each
//! body is compiled twice from one source — for the target's baseline
//! and, on x86-64, for AVX2 — with the CPU picking at run time
//! (throughput is gated by `gnnav-bench`'s `nn_kernels` bench). The
//! ReLU passes are branch-free selects over pre-sized buffers
//! (`x = if mask { x } else { 0.0 }`), the form the compiler vectorises.
//!
//! # Parallelism and determinism
//!
//! The three matmul kernels are row-parallel over `gnnav_par`: output
//! rows are split into static `ROW_BLOCK`-row chunks and each chunk
//! runs the identical serial tile loop. Per output element, `matmul`
//! and `matmul_at_b` start at `+0.0` and add one reduction term at a
//! time with the reduction index ascending, each product and each sum
//! rounded separately (no FMA) — bit for bit the naive i-k-j loop —
//! and `matmul_a_bt` reduces a fixed [`LANE`]-way partial-sum split
//! whose layout depends only on the reduction length. An accumulator
//! never depends on which other elements share its tile or its vector
//! instruction, so tile shape, vector width and worker count are all
//! invisible: the three kernels are **bitwise identical** on either
//! ISA path at any thread count (the full argument is in
//! `kernel.rs`'s module docs).

use crate::kernel::{dispatch, dot_block, matmul_block, RowMajor, Transposed};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Width (f32 elements) of `matmul_a_bt`'s partial-sum split, and the
/// narrowest register tile of every kernel: one AVX2 register or two
/// SSE2/NEON registers. Part of the numerics — changing it changes
/// `matmul_a_bt`'s bits — unlike the tile shapes in `kernel.rs`.
pub const LANE: usize = 8;

/// Output rows per parallel chunk unit of the matmuls. Chunk
/// boundaries are static (every `ROW_BLOCK` rows, final block short),
/// which fixes the `nn.kernel.par_*` counters; within a chunk the
/// `B` panel a column tile streams is reused by every row group.
const ROW_BLOCK: usize = 8;

/// Minimum FLOPs a worker must have before the kernels fan out.
const PAR_GRAIN_FLOPS: u64 = 65_536;

/// Dot product over a fixed [`LANE`]-way partial-sum split: lane `l`
/// accumulates elements `l, l+LANE, l+2*LANE, ...`, the scalar tail is
/// folded in per-lane, and the partial sums are combined left to
/// right. The split depends only on `a.len()`, never on the thread
/// count, so the result is a pure function of the inputs.
#[inline]
pub(crate) fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let b = &b[..a.len()];
    let mut acc = [0.0f32; LANE];
    let mut a_it = a.chunks_exact(LANE);
    let mut b_it = b.chunks_exact(LANE);
    for (ca, cb) in a_it.by_ref().zip(b_it.by_ref()) {
        for l in 0..LANE {
            acc[l] += ca[l] * cb[l];
        }
    }
    for (j, (&x, &y)) in a_it.remainder().iter().zip(b_it.remainder()).enumerate() {
        acc[j] += x * y;
    }
    let mut sum = 0.0f32;
    for &v in &acc {
        sum += v;
    }
    sum
}

static MATMUL_CALLS: AtomicU64 = AtomicU64::new(0);
static MATMUL_FLOPS: AtomicU64 = AtomicU64::new(0);

/// Cumulative process-wide dense-kernel counters; see [`kernel_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Matmul-family kernel invocations.
    pub matmul_calls: u64,
    /// Multiply-add FLOPs issued by the matmul family (`2 * m * k * n`
    /// per call — the classical bound).
    pub matmul_flops: u64,
}

/// Snapshot of the dense-kernel counters. Deltas around a workload
/// give its compute volume; divided by wall time, its GFLOP/s.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        matmul_calls: MATMUL_CALLS.load(Ordering::Relaxed),
        matmul_flops: MATMUL_FLOPS.load(Ordering::Relaxed),
    }
}

#[inline]
fn record_matmul(m: usize, k: usize, n: usize) {
    MATMUL_CALLS.fetch_add(1, Ordering::Relaxed);
    MATMUL_FLOPS.fetch_add(2 * (m as u64) * (k as u64) * (n as u64), Ordering::Relaxed);
}

/// Rows per worker needed to amortize a spawn, given per-row FLOPs.
#[inline]
fn grain_rows(flops_per_row: u64) -> usize {
    (PAR_GRAIN_FLOPS / flops_per_row.max(1)).max(1) as usize
}

/// A dense row-major `rows x cols` matrix of `f32`.
///
/// # Example
///
/// ```
/// use gnnav_nn::tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

/// A borrowed row-major `rows x cols` matrix: the read-only operand
/// form of [`Matrix`]. It lets a kernel read rows it does not own — a
/// feature buffer the caller keeps, or the leading rows of a taller
/// activation ([`MatrixView::prefix_rows`]) — without copying them
/// into an owned `Matrix` first. `Copy`, two words plus a slice.
#[derive(Clone, Copy)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl fmt::Debug for MatrixView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatrixView({}x{})", self.rows, self.cols)
    }
}

impl<'a> MatrixView<'a> {
    /// Views `data` as a row-major `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        MatrixView { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(self) -> &'a [f32] {
        self.data
    }

    /// The leading `rows` rows, still borrowed — row-major storage
    /// makes a row prefix a plain sub-slice.
    ///
    /// # Panics
    ///
    /// Panics if `rows > self.rows()`.
    pub fn prefix_rows(self, rows: usize) -> MatrixView<'a> {
        assert!(rows <= self.rows, "row prefix {rows} exceeds {} rows", self.rows);
        MatrixView { rows, cols: self.cols, data: &self.data[..rows * self.cols] }
    }

    /// `self * other`, written into `out` (fully overwritten, never
    /// read). The allocation-free form of [`Matrix::matmul`];
    /// row-parallel over register tiles — per element, terms are
    /// added one at a time with `k` ascending, so the result is
    /// bitwise identical to the naive i-k-j loop at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `out` has the wrong
    /// shape.
    pub fn matmul_into(self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dim mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, other.cols), "matmul out shape mismatch");
        record_matmul(self.rows, self.cols, other.cols);
        let n = other.cols;
        let k_dim = self.cols;
        if n == 0 || self.rows == 0 {
            return;
        }
        let lhs = RowMajor { data: self.data, k_dim };
        let b = &other.data;
        let grain = grain_rows(2 * (ROW_BLOCK * k_dim) as u64 * n as u64);
        gnnav_par::par_chunks(&mut out.data, ROW_BLOCK * n, grain, |off, out_block| {
            dispatch(
                #[inline(always)]
                || matmul_block(lhs, off / n, b, n, out_block),
            );
        });
    }

    /// `self^T * other`, written into `out` (fully overwritten, never
    /// read).
    ///
    /// Parallel over *output* rows (columns of `self`): each output
    /// row gathers down its column of `self` with `r` ascending —
    /// exactly the per-element order of the serial scatter kernel, so
    /// results are bitwise identical (and bitwise equal to
    /// `self.transpose().matmul(other)`, which runs the same tile body
    /// over the materialized transpose).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `out` has the wrong
    /// shape.
    pub fn matmul_at_b_into(self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_at_b dim mismatch");
        assert_eq!((out.rows, out.cols), (self.cols, other.cols), "matmul_at_b out shape mismatch");
        record_matmul(self.cols, self.rows, other.cols);
        let n = other.cols;
        let rows = self.rows;
        if n == 0 || self.cols == 0 {
            return;
        }
        let lhs = Transposed { data: self.data, cols: self.cols };
        let b = &other.data;
        let grain = grain_rows(2 * (ROW_BLOCK * rows) as u64 * n as u64);
        gnnav_par::par_chunks(&mut out.data, ROW_BLOCK * n, grain, |off, out_block| {
            dispatch(
                #[inline(always)]
                || matmul_block(lhs, off / n, b, n, out_block),
            );
        });
    }
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from an owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices (for tests and examples).
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The whole matrix as a borrowed [`MatrixView`].
    #[inline]
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView { rows: self.rows, cols: self.cols, data: &self.data }
    }

    /// `self * other` (standard matmul).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self * other`, written into `out` (fully overwritten): the
    /// allocation-free form of [`Matrix::matmul`], run by
    /// [`MatrixView::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `out` has the wrong
    /// shape.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.view().matmul_into(other, out);
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_at_b_into(other, &mut out);
        out
    }

    /// `self^T * other`, written into `out` (fully overwritten); run
    /// by [`MatrixView::matmul_at_b_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `out` has the wrong
    /// shape.
    pub fn matmul_at_b_into(&self, other: &Matrix, out: &mut Matrix) {
        self.view().matmul_at_b_into(other, out);
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_a_bt_into(other, &mut out);
        out
    }

    /// `self * other^T`, written into `out` (fully overwritten).
    /// Row-parallel; each element is the dot product `dot_lanes`
    /// defines — [`LANE`] independent partial sums whose split depends
    /// only on the reduction length, combined in a fixed order —
    /// computed a register tile of elements at a time. Unlike the
    /// saxpy-form kernels this is *not* a sequential reduction, so the
    /// result matches `self.matmul(&other.transpose())` numerically
    /// (to rounding) but not bitwise; across thread counts it is still
    /// bitwise identical.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols` or `out` has the wrong
    /// shape.
    pub fn matmul_a_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_a_bt dim mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, other.rows), "matmul_a_bt out shape mismatch");
        record_matmul(self.rows, self.cols, other.rows);
        let m = other.rows;
        let k_dim = self.cols;
        if m == 0 || self.rows == 0 {
            return;
        }
        let a = &self.data;
        let b = &other.data;
        let grain = grain_rows(2 * (ROW_BLOCK * k_dim) as u64 * m as u64);
        gnnav_par::par_chunks(&mut out.data, ROW_BLOCK * m, grain, |off, out_block| {
            dispatch(
                #[inline(always)]
                || dot_block(a, off / m, k_dim, b, m, out_block),
            );
        });
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `other` elementwise in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds the row vector `bias` to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// ReLU forward in place, writing the activation mask into `mask`
    /// (resized to the element count). Reuses `mask`'s capacity so the
    /// training hot path does not allocate. Anything that is not
    /// `> 0` — negatives, `-0.0`, NaN — becomes `+0.0`.
    pub fn relu_inplace_with(&mut self, mask: &mut Vec<bool>) {
        mask.resize(self.data.len(), false);
        for (x, m) in self.data.iter_mut().zip(mask.iter_mut()) {
            *m = *x > 0.0;
            *x = if *m { *x } else { 0.0 };
        }
    }

    /// ReLU backward: zeroes gradient entries (NaN included) where
    /// `mask` is false.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len()` differs from the element count.
    pub fn relu_backward_inplace(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.data.len(), "mask length mismatch");
        for (x, &m) in self.data.iter_mut().zip(mask) {
            *x = if m { *x } else { 0.0 };
        }
    }

    /// Row-wise softmax in place (numerically stabilized).
    pub fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            if sum > 0.0 {
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Asserts two matrices equal bit for bit (`-0.0` is not `+0.0`), for
/// the kernel tests here and in [`crate::layers`].
#[cfg(test)]
#[track_caller]
pub(crate) fn assert_bits_eq(got: &Matrix, expect: &Matrix, what: &str) {
    assert_eq!((got.rows(), got.cols()), (expect.rows(), expect.cols()), "{what}: shape");
    for (i, (x, y)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x:e} vs {y:e}");
    }
}

/// A `rows x cols` matrix built to make a reordered, fused or flushed
/// reduction visible: mixed signs and magnitudes, `-0.0` and
/// subnormals. Shared with the gather tests in [`crate::layers`].
#[cfg(test)]
pub(crate) fn awkward_values(rows: usize, cols: usize, salt: usize) -> Matrix {
    let value = |i: usize| match (i + salt) % 13 {
        0 => -0.0,
        5 => f32::from_bits(1 + (i as u32 % 97)),
        9 => -1.0e-39,
        r => ((i * 37 + salt * 11) % 23) as f32 * 0.21 * (r as f32 - 6.0) - 1.3,
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(value).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::eye(3)), a);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.matmul_at_b(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        // matmul_a_bt reduces over LANE-way partial sums, so it agrees
        // with the sequential-reduction matmul to rounding, not bits.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 1.0]]);
        let got = a.matmul_a_bt(&b);
        let expect = a.matmul(&b.transpose());
        for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul dim mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn relu_roundtrip() {
        let mut m = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.0]]);
        let mut mask = Vec::new();
        m.relu_inplace_with(&mut mask);
        assert_eq!(m.row(0), &[0.0, 2.0]);
        assert_eq!(mask, vec![false, true, false, false]);
        let mut g = Matrix::from_rows(&[&[5.0, 5.0], &[5.0, 5.0]]);
        g.relu_backward_inplace(&mask);
        assert_eq!(g.row(0), &[0.0, 5.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[100.0, 100.0, 100.0]]);
        m.softmax_rows_inplace();
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!((m.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn broadcast_and_scale() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&[1.0, 2.0, 3.0]);
        m.scale(2.0);
        assert_eq!(m.row(1), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn norm_of_unit() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_checks_size() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::from_rows(&[&[9.9, 9.9], &[9.9, 9.9]]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.matmul_at_b_into(&b, &mut out);
        assert_eq!(out, a.matmul_at_b(&b));
        a.matmul_a_bt_into(&b, &mut out);
        assert_eq!(out, a.matmul_a_bt(&b));
    }

    /// Naive triple-loop reference with the same per-element
    /// reduction order as the saxpy-form kernels.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a.get(i, k);
                for j in 0..b.cols() {
                    out.set(i, j, out.get(i, j) + av * b.get(k, j));
                }
            }
        }
        out
    }

    /// [`awkward_values`] as a left operand: its second column negates
    /// the first, so that against [`awkward_rhs`] the first two terms
    /// of every reduction cancel to exactly `+0.0`.
    fn awkward(rows: usize, cols: usize, salt: usize) -> Matrix {
        let mut m = awkward_values(rows, cols, salt);
        if cols >= 2 {
            for r in 0..rows {
                m.set(r, 1, -m.get(r, 0));
            }
        }
        m
    }

    /// The right operand that pairs with [`awkward`]: rows 0 and 1 are
    /// equal, so `a[i][0]·b[0][j] + a[i][1]·b[1][j]` is `x + (-x)`.
    fn awkward_rhs(rows: usize, cols: usize, salt: usize) -> Matrix {
        let mut m = awkward(rows, cols, salt);
        if rows >= 2 {
            for c in 0..cols {
                m.set(1, c, m.get(0, c));
            }
        }
        m
    }

    /// `lhs`'s product run serially through `block`, a kernel body
    /// *called directly*: inlined into this ordinary function it is
    /// the portable build, whatever the CPU — the reference the
    /// dispatched public entry points must match bit for bit.
    fn portable(m: usize, n: usize, block: impl Fn(usize, &mut [f32])) -> Matrix {
        let mut out = Matrix::from_vec(m, n, vec![f32::NAN; m * n]);
        for (ci, out_block) in out.data.chunks_mut(ROW_BLOCK * n).enumerate() {
            block(ci * ROW_BLOCK, out_block);
        }
        out
    }

    #[test]
    fn lane_kernels_match_naive_bitwise_across_shapes() {
        // Shapes straddling every tile boundary — rows below, at and
        // above MR and ROW_BLOCK, columns below LANE (no tile fits), at
        // LANE/NR and one off either side (slid tail tile), reduction
        // lengths with and without a LANE tail. Three ways each: the
        // naive loop, the portable tile body, the dispatched entry.
        for &m in &[1usize, 3, 4, 5, 8, 9, 33] {
            for &n in &[1usize, 7, 8, 15, 16, 17, 41, 47, 64, 129] {
                for &k in &[1usize, 3, 32, 33, 150] {
                    let shape = format!("{m}x{k}x{n}");
                    let a = awkward(m, k, m + n);
                    let b = awkward_rhs(k, n, k);
                    let naive = naive_matmul(&a, &b);
                    assert!(naive.as_slice().iter().all(|v| v.is_finite()), "{shape}");
                    let lhs = RowMajor { data: a.as_slice(), k_dim: k };
                    let direct = portable(m, n, |r0, out| {
                        matmul_block(lhs, r0, b.as_slice(), n, out);
                    });
                    assert_bits_eq(&direct, &naive, &format!("matmul {shape} portable"));
                    assert_bits_eq(&a.matmul(&b), &naive, &format!("matmul {shape} dispatched"));

                    // Aᵀ·B reduces over the shared *row* count `k`; the
                    // transpose turns the negated column into a row.
                    let a_t = awkward(m, k, n).transpose();
                    let naive = naive_matmul(&a_t.transpose(), &b);
                    let lhs = Transposed { data: a_t.as_slice(), cols: m };
                    let direct = portable(m, n, |r0, out| {
                        matmul_block(lhs, r0, b.as_slice(), n, out);
                    });
                    assert_bits_eq(&direct, &naive, &format!("at_b {shape} portable"));
                    assert_bits_eq(
                        &a_t.matmul_at_b(&b),
                        &naive,
                        &format!("at_b {shape} dispatched"),
                    );

                    // A·Bᵀ: every element is `dot_lanes` by definition.
                    let bt = awkward(n, k, k + 2);
                    let mut naive = Matrix::zeros(m, n);
                    for i in 0..m {
                        for j in 0..n {
                            naive.set(i, j, dot_lanes(a.row(i), bt.row(j)));
                        }
                    }
                    let direct = portable(m, n, |r0, out| {
                        dot_block(a.as_slice(), r0, k, bt.as_slice(), n, out);
                    });
                    assert_bits_eq(&direct, &naive, &format!("a_bt {shape} portable"));
                    assert_bits_eq(
                        &a.matmul_a_bt(&bt),
                        &naive,
                        &format!("a_bt {shape} dispatched"),
                    );
                }
            }
        }
    }

    #[test]
    fn row_prefix_view_multiplies_like_the_rows_it_keeps() {
        let (m, k, n) = (9usize, 33usize, 17usize);
        let a = awkward(m, k, 1);
        let b = awkward_rhs(k, n, 2);
        let full = a.matmul(&b);
        for rows in [0usize, 1, 5, 8] {
            let mut out = Matrix::from_vec(rows, n, vec![f32::NAN; rows * n]);
            a.view().prefix_rows(rows).matmul_into(&b, &mut out);
            assert_eq!(out.as_slice(), &full.as_slice()[..rows * n], "prefix {rows}");
        }
    }

    #[test]
    fn cancelling_and_signed_zero_terms_leave_positive_zero() {
        // `x + (-x)` is `+0.0`, and `+0.0 + (-0.0)` is `+0.0`: an
        // accumulator that starts at `+0.0` can never be `-0.0`. A
        // kernel that seeded its accumulator with the first product
        // instead would store `-0.0` here.
        let a = Matrix::from_rows(&[&[-0.0, -0.0], &[1.5, -1.5]]);
        let b = Matrix::from_vec(2, 9, vec![2.0; 18]);
        for v in a.matmul(&b).as_slice() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
        for v in a.matmul_a_bt(&b.transpose()).as_slice() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn degenerate_shapes_do_not_panic() {
        // Zero rows / zero cols / zero reduction dims on all variants.
        for &(m, k, n) in &[(0usize, 3usize, 4usize), (3, 0, 4), (3, 4, 0), (0, 0, 0)] {
            let a = Matrix::zeros(m, k);
            let b = Matrix::zeros(k, n);
            let c = a.matmul(&b);
            assert_eq!((c.rows(), c.cols()), (m, n));
            assert!(c.as_slice().iter().all(|&x| x == 0.0));
            let atb = a.matmul_at_b(&Matrix::zeros(m, n));
            assert_eq!((atb.rows(), atb.cols()), (k, n));
            let abt = a.matmul_a_bt(&Matrix::zeros(n, k));
            assert_eq!((abt.rows(), abt.cols()), (m, n));
            assert!(abt.as_slice().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn dot_lanes_handles_short_and_tail_lengths() {
        for len in [0usize, 1, 3, super::LANE - 1, super::LANE, super::LANE + 1, 37] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32) * 0.5 - 1.0).collect();
            let b: Vec<f32> = (0..len).map(|i| ((i * 7 % 5) as f32) - 2.0).collect();
            let expect: f64 =
                a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum::<f64>();
            let got = super::dot_lanes(&a, &b);
            assert!((f64::from(got) - expect).abs() < 1e-4, "len {len}: {got} vs {expect}");
        }
    }

    #[test]
    fn kernel_stats_count_flops() {
        let before = kernel_stats();
        let a = Matrix::zeros(4, 5);
        let b = Matrix::zeros(5, 6);
        let _ = a.matmul(&b);
        let after = kernel_stats();
        assert!(after.matmul_calls > before.matmul_calls);
        assert!(after.matmul_flops >= before.matmul_flops + 2 * 4 * 5 * 6);
    }

    /// The loops the select forms replaced: a `push` per element, and
    /// a store under a branch on the mask.
    fn relu_push_reference(data: &mut [f32]) -> Vec<bool> {
        let mut mask = Vec::new();
        for x in data {
            let active = *x > 0.0;
            mask.push(active);
            if !active {
                *x = 0.0;
            }
        }
        mask
    }

    fn relu_backward_branch_reference(grad: &mut [f32], mask: &[bool]) {
        for (x, &m) in grad.iter_mut().zip(mask) {
            if !m {
                *x = 0.0;
            }
        }
    }

    #[test]
    fn relu_inplace_with_reuses_mask() {
        let mut m = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let mut mask = Vec::with_capacity(16);
        let buffer = mask.as_ptr();
        m.relu_inplace_with(&mut mask);
        assert_eq!(mask, vec![false, true]);
        let mut m2 = Matrix::from_rows(&[&[3.0, -4.0, 5.0]]);
        m2.relu_inplace_with(&mut mask);
        assert_eq!(mask, vec![true, false, true]);
        // A shorter matrix shrinks the mask; no stale tail survives.
        let mut m3 = Matrix::from_rows(&[&[-6.0]]);
        m3.relu_inplace_with(&mut mask);
        assert_eq!(mask, vec![false]);
        assert_eq!((mask.as_ptr(), mask.capacity()), (buffer, 16), "same allocation throughout");
    }

    #[test]
    fn relu_selects_match_the_push_and_branch_loops() {
        let special = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
        ];
        // Longest first: every later pass must fit the same buffer.
        let mut mask = Vec::with_capacity(4099);
        let buffer = (mask.as_ptr(), mask.capacity());
        for len in [4099].into_iter().chain(0..=67) {
            // Awkward magnitudes with a special value every third slot,
            // at a phase that moves with the length.
            let fill = |salt: usize| {
                let mut v = awkward_values(1, len, salt).as_slice().to_vec();
                for (i, x) in v.iter_mut().enumerate().skip(salt % 3).step_by(3) {
                    *x = special[(i + salt) % special.len()];
                }
                v
            };
            let mut expect = fill(len);
            let expect_mask = relu_push_reference(&mut expect);
            let mut got = Matrix::from_vec(1, len, fill(len));
            got.relu_inplace_with(&mut mask);
            assert_bits_eq(&got, &Matrix::from_vec(1, len, expect), "forward");
            assert_eq!(mask, expect_mask, "len {len}: mask");
            assert_eq!((mask.as_ptr(), mask.capacity()), buffer, "len {len}: mask reallocated");

            let mut expect = fill(len + 5);
            relu_backward_branch_reference(&mut expect, &expect_mask);
            let mut got = Matrix::from_vec(1, len, fill(len + 5));
            got.relu_backward_inplace(&mask);
            assert_bits_eq(&got, &Matrix::from_vec(1, len, expect), "backward");
        }
    }
}

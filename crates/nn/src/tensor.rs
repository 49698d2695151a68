//! Minimal dense row-major f32 matrix used by the NN substrate.
//!
//! This is deliberately small: the GNN layers need matmul, transpose
//! variants, elementwise maps, and row reductions — nothing more. The
//! matmul kernels process fixed-width [`LANE`]-element f32 chunks with
//! explicit accumulator arrays plus a scalar tail, a shape LLVM
//! autovectorizes on any x86-64 / aarch64 baseline target (verified by
//! the throughput gate in `gnnav-bench`'s `nn_kernels` bench).
//!
//! # Parallelism and determinism
//!
//! The three matmul kernels are cache-blocked over output-column tiles
//! and row-parallel over `gnnav_par`: output rows are split into
//! static chunks and each chunk runs the identical serial inner loop.
//! Per output element, `matmul` and `matmul_at_b` accumulate one
//! reduction term at a time with the reduction index ascending (lanes
//! run across *columns*, so lane width never touches the per-element
//! order), and `matmul_a_bt` reduces a fixed [`LANE`]-way partial-sum
//! split whose layout depends only on the reduction length. All three
//! are therefore **bitwise identical** for any worker count — the
//! thread pool only changes wall time, never a single bit of output.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Vector lane width (f32 elements) the kernels are written around:
/// wide enough for one AVX2 register or two SSE2/NEON registers, and
/// small enough that the scalar tail never dominates.
pub const LANE: usize = 8;

/// Reduction-axis unroll of the saxpy-form kernels: each pass streams
/// `KU` rows of `B` against one resident output tile, cutting
/// output-tile load/store traffic by `KU`x.
const KU: usize = 4;

/// Output-column tile width (f32 elements) for the blocked matmuls:
/// one tile of the output row plus [`KU`] tiles of `B` rows stay
/// resident in L1 while the kernel streams over `k`.
const COL_TILE: usize = 128;

/// Output rows per parallel chunk unit in the saxpy-form matmuls. A
/// reduction-axis tile of `B` ([`K_TILE`]` x `[`COL_TILE`]) is swept
/// once per row *block* instead of once per row, dividing `B` cache
/// traffic by `ROW_BLOCK`. Chunk boundaries stay static (every
/// `ROW_BLOCK` rows, final block short), so the thread-count
/// invariance is untouched.
const ROW_BLOCK: usize = 8;

/// Reduction-axis tile depth: `K_TILE x COL_TILE` f32 of `B` (16 KiB)
/// stays L1-resident while every row of the current [`ROW_BLOCK`]
/// sweeps it. Per output element the reduction still walks `k`
/// ascending — tile-ascending outer, `k`-ascending inner — so tiling
/// is bitwise invisible.
const K_TILE: usize = 32;

/// Minimum FLOPs a worker must have before the kernels fan out.
const PAR_GRAIN_FLOPS: u64 = 65_536;

/// `out[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]` with the four
/// terms added *sequentially* per element (reduction index ascending),
/// lane-vectorized across `j` with a scalar tail. The sequential adds
/// keep every output element's accumulation order identical to the
/// one-term-at-a-time loop, so unrolling is bitwise invisible.
#[inline]
fn axpy4(out: &mut [f32], a: [f32; KU], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    // Equal-length reslices up front so the chunk iterators below are
    // provably in lockstep and the indexing stays bounds-check-free.
    let n = out.len();
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    let mut o_it = out.chunks_exact_mut(LANE);
    let mut c0_it = b0.chunks_exact(LANE);
    let mut c1_it = b1.chunks_exact(LANE);
    let mut c2_it = b2.chunks_exact(LANE);
    let mut c3_it = b3.chunks_exact(LANE);
    for ((((o, c0), c1), c2), c3) in o_it
        .by_ref()
        .zip(c0_it.by_ref())
        .zip(c1_it.by_ref())
        .zip(c2_it.by_ref())
        .zip(c3_it.by_ref())
    {
        let mut acc = [0.0f32; LANE];
        acc.copy_from_slice(o);
        for l in 0..LANE {
            acc[l] += a[0] * c0[l];
        }
        for l in 0..LANE {
            acc[l] += a[1] * c1[l];
        }
        for l in 0..LANE {
            acc[l] += a[2] * c2[l];
        }
        for l in 0..LANE {
            acc[l] += a[3] * c3[l];
        }
        o.copy_from_slice(&acc);
    }
    for ((((o, &v0), &v1), &v2), &v3) in o_it
        .into_remainder()
        .iter_mut()
        .zip(c0_it.remainder())
        .zip(c1_it.remainder())
        .zip(c2_it.remainder())
        .zip(c3_it.remainder())
    {
        let mut acc = *o;
        acc += a[0] * v0;
        acc += a[1] * v1;
        acc += a[2] * v2;
        acc += a[3] * v3;
        *o = acc;
    }
}

/// `out[j] += a * b[j]`, lane-vectorized with a scalar tail.
#[inline]
pub(crate) fn axpy1(out: &mut [f32], a: f32, b: &[f32]) {
    let b = &b[..out.len()];
    let mut o_it = out.chunks_exact_mut(LANE);
    let mut b_it = b.chunks_exact(LANE);
    for (o, c) in o_it.by_ref().zip(b_it.by_ref()) {
        for l in 0..LANE {
            o[l] += a * c[l];
        }
    }
    for (o, &bv) in o_it.into_remainder().iter_mut().zip(b_it.remainder()) {
        *o += a * bv;
    }
}

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

    /// `self * other`, written into `out` (fully overwritten). The
    /// allocation-free form of [`Matrix::matmul`]; row-parallel,
    /// column-tiled, and lane-vectorized with a `KU`-deep reduction
    /// unroll — per element, terms are still added one at a time with
    /// `k` ascending, so the result is bitwise identical to the naive
    /// i-k-j loop at any thread count.
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
        out.data.fill(0.0);
        if n == 0 || self.rows == 0 {
            return;
        }
        let a = self.data;
        let b = &other.data;
        let grain = grain_rows(2 * (ROW_BLOCK * k_dim) as u64 * n as u64);
        gnnav_par::par_chunks(&mut out.data, ROW_BLOCK * n, grain, |off, out_block| {
            let i0 = off / n;
            // Tiling (columns, reduction depth, row blocks) only
            // reorders work *across* elements; within an element the
            // k loop below stays ascending.
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + COL_TILE).min(n);
                let mut k0 = 0;
                while k0 < k_dim {
                    let k1 = (k0 + K_TILE).min(k_dim);
                    let kb = k0 + (k1 - k0) / KU * KU;
                    for (r, out_row) in out_block.chunks_mut(n).enumerate() {
                        let a_row = &a[(i0 + r) * k_dim..(i0 + r + 1) * k_dim];
                        let out_tile = &mut out_row[j0..j1];
                        let mut k = k0;
                        while k < kb {
                            axpy4(
                                out_tile,
                                [a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]],
                                &b[k * n + j0..k * n + j1],
                                &b[(k + 1) * n + j0..(k + 1) * n + j1],
                                &b[(k + 2) * n + j0..(k + 2) * n + j1],
                                &b[(k + 3) * n + j0..(k + 3) * n + j1],
                            );
                            k += KU;
                        }
                        for k in kb..k1 {
                            axpy1(out_tile, a_row[k], &b[k * n + j0..k * n + j1]);
                        }
                    }
                    k0 = k1;
                }
                j0 = j1;
            }
        });
    }

    /// `self^T * other`, written into `out` (fully overwritten).
    ///
    /// Parallel over *output* rows (columns of `self`): each output
    /// row gathers down its column of `self` with `r` ascending —
    /// exactly the per-element order of the serial scatter kernel, so
    /// results are bitwise identical (and bitwise equal to
    /// `self.transpose().matmul(other)`, whose reduction also walks
    /// one term at a time in ascending order).
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
        let k_dim = self.cols;
        let rows = self.rows;
        out.data.fill(0.0);
        if n == 0 || k_dim == 0 {
            return;
        }
        let a = self.data;
        let b = &other.data;
        let grain = grain_rows(2 * (ROW_BLOCK * rows) as u64 * n as u64);
        gnnav_par::par_chunks(&mut out.data, ROW_BLOCK * n, grain, |off, out_block| {
            let kk0 = off / n;
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + COL_TILE).min(n);
                let mut r0 = 0;
                while r0 < rows {
                    let r1 = (r0 + K_TILE).min(rows);
                    let rb = r0 + (r1 - r0) / KU * KU;
                    for (dk, out_row) in out_block.chunks_mut(n).enumerate() {
                        let k = kk0 + dk;
                        let out_tile = &mut out_row[j0..j1];
                        let mut r = r0;
                        while r < rb {
                            axpy4(
                                out_tile,
                                [
                                    a[r * k_dim + k],
                                    a[(r + 1) * k_dim + k],
                                    a[(r + 2) * k_dim + k],
                                    a[(r + 3) * k_dim + k],
                                ],
                                &b[r * n + j0..r * n + j1],
                                &b[(r + 1) * n + j0..(r + 1) * n + j1],
                                &b[(r + 2) * n + j0..(r + 2) * n + j1],
                                &b[(r + 3) * n + j0..(r + 3) * n + j1],
                            );
                            r += KU;
                        }
                        for r in rb..r1 {
                            axpy1(out_tile, a[r * k_dim + k], &b[r * n + j0..r * n + j1]);
                        }
                    }
                    r0 = r1;
                }
                j0 = j1;
            }
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
    /// Row-parallel; each element is one `dot_lanes` dot product —
    /// [`LANE`] independent partial sums whose split depends only on
    /// the reduction length, combined in a fixed order. Unlike the
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
            let i0 = off / m;
            // `j` outer so one `B` row is reused by the whole row
            // block while it is still cache-resident. Every element
            // is an independent dot product, so the walk order is
            // free.
            for j in 0..m {
                let b_row = &b[j * k_dim..(j + 1) * k_dim];
                for (r, out_row) in out_block.chunks_mut(m).enumerate() {
                    let a_row = &a[(i0 + r) * k_dim..(i0 + r + 1) * k_dim];
                    out_row[j] = dot_lanes(a_row, b_row);
                }
            }
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

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// ReLU forward in place; returns the activation mask for backward.
    pub fn relu_inplace(&mut self) -> Vec<bool> {
        let mut mask = Vec::new();
        self.relu_inplace_with(&mut mask);
        mask
    }

    /// ReLU forward in place, writing the activation mask into `mask`
    /// (cleared first). Reuses `mask`'s capacity so the training hot
    /// path does not allocate.
    pub fn relu_inplace_with(&mut self, mask: &mut Vec<bool>) {
        mask.clear();
        mask.reserve(self.data.len());
        for x in &mut self.data {
            let active = *x > 0.0;
            mask.push(active);
            if !active {
                *x = 0.0;
            }
        }
    }

    /// ReLU backward: zeroes gradient entries where `mask` is false.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len()` differs from the element count.
    pub fn relu_backward_inplace(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.data.len(), "mask length mismatch");
        for (x, &m) in self.data.iter_mut().zip(mask) {
            if !m {
                *x = 0.0;
            }
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
        let mask = m.relu_inplace();
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

    #[test]
    fn wide_matmul_exercises_column_tiles() {
        // cols > COL_TILE so the tiled path takes more than one tile.
        let k = 3;
        let n = super::COL_TILE + 37;
        let a = Matrix::from_vec(2, k, (0..2 * k).map(|i| (i as f32) * 0.5 - 1.0).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| ((i % 17) as f32) * 0.25).collect());
        let c = a.matmul(&b);
        // Reference: naive triple loop.
        for i in 0..2 {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                assert_eq!(c.get(i, j), acc, "mismatch at ({i},{j})");
            }
        }
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

    #[test]
    fn lane_kernels_match_naive_bitwise_across_shapes() {
        // Shapes straddling every lane/unroll boundary: k and n below,
        // at, and above LANE and KU, including scalar-tail-only cases.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 5),
            (3, super::KU, super::LANE),
            (2, super::KU + 1, super::LANE - 1),
            (2, 2 * super::KU + 3, super::LANE + 3),
            (5, 17, 2 * super::LANE + 7),
            (2, 3, super::COL_TILE + 9),
        ] {
            let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i as f32) * 0.37 - 1.1).collect());
            let b = Matrix::from_vec(
                k,
                n,
                (0..k * n).map(|i| ((i % 23) as f32) * 0.21 - 2.0).collect(),
            );
            let got = a.matmul(&b);
            let expect = naive_matmul(&a, &b);
            for (i, (x, y)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "({m}x{k}x{n}) element {i}: {x} vs {y}");
            }
            // at_b keeps the same sequential reduction order.
            let atb = a.matmul_at_b(&got);
            let atb_expect = naive_matmul(&a.transpose(), &got);
            for (x, y) in atb.as_slice().iter().zip(atb_expect.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "at_b ({m}x{k}x{n})");
            }
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

    #[test]
    fn relu_inplace_with_reuses_mask() {
        let mut m = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let mut mask = Vec::with_capacity(16);
        m.relu_inplace_with(&mut mask);
        assert_eq!(mask, vec![false, true]);
        let mut m2 = Matrix::from_rows(&[&[3.0, -4.0]]);
        m2.relu_inplace_with(&mut mask);
        assert_eq!(mask, vec![true, false]);
    }
}

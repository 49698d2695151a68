//! Reusable buffer arena for the training hot path.
//!
//! Every matrix the forward/backward passes produce per batch —
//! activations, aggregation temporaries, gradients — cycles through a
//! [`ScratchArena`] instead of the global allocator. After a warm-up
//! batch at the largest shapes, `take`/`recycle` round-trips reuse
//! pooled capacity and steady-state training performs zero heap
//! allocation per batch (tracked by `ScratchArena::fresh_allocs`).
//!
//! The arena is deliberately dumb: a flat pool of `Vec<f32>` buffers
//! with best-fit reuse. Kernel outputs are written fully or
//! zero-initialized by `take`, so stale contents can never leak into
//! results — reusing a buffer is arithmetically invisible.

use crate::tensor::{Matrix, MatrixView};

const MAX_POOLED: usize = 64;

/// A recycling pool of `f32` buffers backing [`Matrix`] temporaries.
#[derive(Debug, Default)]
pub struct ScratchArena {
    pool: Vec<Vec<f32>>,
    fresh_allocs: u64,
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// A zero-filled `rows x cols` matrix, reusing pooled capacity
    /// when possible.
    pub(crate) fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_raw(rows * cols))
    }

    /// A zero-filled buffer of `len` floats.
    pub(crate) fn take_raw(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<(usize, usize)> = None;
        let mut largest: Option<(usize, usize)> = None;
        for (i, buf) in self.pool.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
            if largest.is_none_or(|(_, c)| cap > c) {
                largest = Some((i, cap));
            }
        }
        let mut buf = match best.or(largest) {
            Some((i, _)) => self.pool.swap_remove(i),
            None => Vec::new(),
        };
        if buf.capacity() < len {
            self.fresh_allocs += 1;
        }
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a matrix to the pool.
    pub(crate) fn recycle(&mut self, m: Matrix) {
        self.recycle_raw(m.into_vec());
    }

    /// Returns a raw buffer to the pool.
    pub(crate) fn recycle_raw(&mut self, mut buf: Vec<f32>) {
        if buf.capacity() == 0 || self.pool.len() >= MAX_POOLED {
            return;
        }
        buf.clear();
        self.pool.push(buf);
    }

    /// Reuses `m`'s storage as a zero-filled `rows x cols` matrix.
    pub(crate) fn reshape_zeroed(&mut self, m: Matrix, rows: usize, cols: usize) -> Matrix {
        let mut buf = m.into_vec();
        let len = rows * cols;
        if buf.capacity() < len {
            self.fresh_allocs += 1;
        }
        buf.clear();
        buf.resize(len, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Copies `src` into `slot`, reusing `slot`'s previous storage (or
    /// a pooled buffer) instead of cloning. `src` is a view so a layer
    /// can keep just the row prefix its backward pass will read.
    pub(crate) fn cache_copy(&mut self, slot: &mut Option<Matrix>, src: MatrixView<'_>) {
        let mut buf = match slot.take() {
            Some(m) => m.into_vec(),
            None => {
                let len = src.as_slice().len();
                let mut best: Option<(usize, usize)> = None;
                for (i, b) in self.pool.iter().enumerate() {
                    let cap = b.capacity();
                    if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                        best = Some((i, cap));
                    }
                }
                match best {
                    Some((i, _)) => self.pool.swap_remove(i),
                    None => Vec::new(),
                }
            }
        };
        if buf.capacity() < src.as_slice().len() {
            self.fresh_allocs += 1;
        }
        buf.clear();
        buf.extend_from_slice(src.as_slice());
        *slot = Some(Matrix::from_vec(src.rows(), src.cols(), buf));
    }

    /// Takes that had to grow or allocate backing storage. Flat across
    /// two identical batches == zero allocation in steady state.
    #[cfg(test)]
    pub(crate) fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reuses_capacity() {
        let mut arena = ScratchArena::new();
        let m = arena.take(8, 8);
        assert_eq!(arena.fresh_allocs(), 1);
        arena.recycle(m);
        let m2 = arena.take(4, 4);
        assert_eq!(arena.fresh_allocs(), 1, "smaller take reuses the pooled buffer");
        assert!(m2.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_zeroes_recycled_contents() {
        let mut arena = ScratchArena::new();
        let mut m = arena.take(2, 2);
        m.as_mut_slice().fill(7.0);
        arena.recycle(m);
        let m2 = arena.take(2, 2);
        assert!(m2.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cache_copy_reuses_slot_storage() {
        let mut arena = ScratchArena::new();
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut slot: Option<Matrix> = None;
        arena.cache_copy(&mut slot, src.view());
        let allocs = arena.fresh_allocs();
        arena.cache_copy(&mut slot, src.view());
        assert_eq!(arena.fresh_allocs(), allocs, "second copy reuses the slot buffer");
        assert_eq!(slot.expect("filled").as_slice(), src.as_slice());
    }

    #[test]
    fn reshape_reuses_storage_when_it_fits() {
        let mut arena = ScratchArena::new();
        let m = arena.take(4, 4);
        let allocs = arena.fresh_allocs();
        let m2 = arena.reshape_zeroed(m, 2, 8);
        assert_eq!(arena.fresh_allocs(), allocs);
        assert_eq!((m2.rows(), m2.cols()), (2, 8));
    }
}

//! Deterministic fork-join parallelism for the compute kernels.
//!
//! Every helper in this crate partitions work into **fixed, static
//! chunks** whose boundaries do not depend on the number of worker
//! threads, and every chunk is processed by exactly one serial call of
//! the user closure. A kernel written on top of [`par_chunks`] or
//! [`par_map_indexed`] therefore produces *bitwise identical* results
//! whether it runs on 1 thread or 8 — the only thing the thread count
//! changes is which OS thread executes which chunk. This is the
//! property the determinism suite and the `(seed, plan)` fault
//! reproducibility contract rely on.
//!
//! # Pool sizing
//!
//! The worker budget is resolved per parallel region, in order:
//!
//! 1. `1` if the calling thread is itself a pool worker (nested
//!    regions degrade to serial instead of exploding thread counts);
//! 2. an explicit [`with_thread_limit`] override on the calling
//!    thread (used by tests and the perf baseline);
//! 3. the `GNNAV_THREADS` environment variable, read once, clamped to
//!    `1..=`[`MAX_POOL_THREADS`];
//! 4. `std::thread::available_parallelism()` otherwise.
//!
//! Independently, an active [`PoolClaim`] (registered by e.g. the
//! profiler before it fans out its own worker threads) divides the
//! budget so that `outer workers x inner kernel threads` never exceeds
//! the hardware parallelism.
//!
//! Threads are scoped (forked and joined per region) rather than kept
//! in a persistent pool: regions below the work threshold run inline
//! on the caller with zero scheduling overhead, and there is no global
//! mutable executor state to poison.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard upper bound on the per-region worker budget, whatever
/// `GNNAV_THREADS` says.
pub const MAX_POOL_THREADS: usize = 64;

thread_local! {
    static THREAD_LIMIT: Cell<usize> = const { Cell::new(0) };
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Outer worker threads registered through [`PoolClaim`].
static OUTER_CLAIM: AtomicUsize = AtomicUsize::new(0);

static REGIONS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static HELPERS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Hardware parallelism (1 if it cannot be queried).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("GNNAV_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .map_or_else(hardware_threads, |n| n.clamp(1, MAX_POOL_THREADS))
            .clamp(1, MAX_POOL_THREADS)
    })
}

/// Runs `f` with the calling thread's worker budget overridden to `n`
/// (clamped to `1..=`[`MAX_POOL_THREADS`]), restoring the previous
/// override afterwards — also when `f` unwinds, so a caught panic does
/// not leave the thread on `f`'s budget. The override may exceed the
/// hardware thread count — the determinism proptests use that to sweep
/// 1/2/4/8 workers on any machine.
pub fn with_thread_limit<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            // `try_with`: a drop must not panic, even during thread
            // teardown, when the slot is already gone.
            let _ = THREAD_LIMIT.try_with(|limit| limit.set(self.0));
        }
    }
    let _restore = Restore(THREAD_LIMIT.with(|limit| limit.replace(n.clamp(1, MAX_POOL_THREADS))));
    f()
}

/// A registration of `workers` externally managed threads (e.g. the
/// profiler sweep) that will each call into the kernels. While any
/// claim is alive, per-region budgets are divided by the total claimed
/// worker count so the process never oversubscribes the hardware.
#[derive(Debug)]
pub struct PoolClaim {
    workers: usize,
}

impl PoolClaim {
    /// Registers `workers` outer threads; the claim is released on
    /// drop.
    pub fn register(workers: usize) -> Self {
        let workers = workers.max(1);
        OUTER_CLAIM.fetch_add(workers, Ordering::SeqCst);
        PoolClaim { workers }
    }

    /// Number of outer workers this claim registered.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Drop for PoolClaim {
    fn drop(&mut self) {
        OUTER_CLAIM.fetch_sub(self.workers, Ordering::SeqCst);
    }
}

/// Total outer workers currently claimed (0 when no sweep is active).
pub fn claimed_workers() -> usize {
    OUTER_CLAIM.load(Ordering::SeqCst)
}

/// The worker budget a parallel region started on this thread would
/// get right now.
pub fn effective_threads() -> usize {
    if IN_POOL_WORKER.with(Cell::get) {
        return 1;
    }
    let base = {
        let explicit = THREAD_LIMIT.with(Cell::get);
        if explicit > 0 {
            explicit
        } else {
            env_threads()
        }
    };
    let claimed = claimed_workers();
    if claimed > 1 {
        // Keep outer x inner <= max(hardware, outer): each of the
        // `claimed` outer workers gets an equal share of the machine.
        base.min((hardware_threads() / claimed).max(1))
    } else {
        base
    }
}

/// Cumulative counters for observability; see [`stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Parallel regions entered (including ones that ran inline).
    pub regions: u64,
    /// Chunk-run tasks executed across all regions.
    pub tasks: u64,
    /// Helper threads actually spawned (0 when everything ran inline).
    pub helpers_spawned: u64,
}

/// Snapshot of the process-wide counters.
pub fn stats() -> Stats {
    Stats {
        regions: REGIONS.load(Ordering::Relaxed),
        tasks: TASKS.load(Ordering::Relaxed),
        helpers_spawned: HELPERS_SPAWNED.load(Ordering::Relaxed),
    }
}

/// Marks the current thread as a pool worker until dropped, so nested
/// regions (including on the caller's own thread while it chews its
/// chunk) run inline.
struct WorkerFlagGuard {
    prev: bool,
}

impl WorkerFlagGuard {
    fn set() -> Self {
        WorkerFlagGuard { prev: IN_POOL_WORKER.with(|w| w.replace(true)) }
    }
}

impl Drop for WorkerFlagGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL_WORKER.with(|w| w.set(prev));
    }
}

/// Plans how many workers a region over `items` units (with at least
/// `grain` units per worker) should use.
fn plan_width(items: usize, grain: usize) -> usize {
    if items <= 1 {
        return 1;
    }
    let budget = effective_threads();
    if budget <= 1 {
        return 1;
    }
    let max_useful = items / grain.max(1);
    budget.min(max_useful.max(1)).min(items)
}

/// Splits `0..len` into `parts` balanced contiguous ranges; part `t`.
fn split_range(len: usize, parts: usize, t: usize) -> Range<usize> {
    let base = len / parts;
    let rem = len % parts;
    let start = t * base + t.min(rem);
    let extra = usize::from(t < rem);
    start..start + base + extra
}

/// Processes `data` in contiguous `chunk_len`-sized pieces (the final
/// piece may be shorter), calling `f(item_offset, chunk)` once per
/// piece. Chunk boundaries depend only on `chunk_len`, never on the
/// thread count, so `f`'s view of the data is identical however many
/// workers run.
///
/// `grain` is the minimum number of chunks per worker before an extra
/// worker is worth spawning.
///
/// # Panics
///
/// Panics if `chunk_len == 0` or if `f` panics on any chunk.
pub fn par_chunks<T, F>(data: &mut [T], chunk_len: usize, grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if data.is_empty() {
        return;
    }
    let nchunks = data.len().div_ceil(chunk_len);
    REGIONS.fetch_add(1, Ordering::Relaxed);
    let width = plan_width(nchunks, grain);
    if width <= 1 {
        TASKS.fetch_add(1, Ordering::Relaxed);
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci * chunk_len, chunk);
        }
        return;
    }
    TASKS.fetch_add(width as u64, Ordering::Relaxed);
    HELPERS_SPAWNED.fetch_add(width as u64 - 1, Ordering::Relaxed);

    // Carve the slice into `width` runs aligned to chunk boundaries.
    let mut runs: Vec<(usize, &mut [T])> = Vec::with_capacity(width);
    let mut rest = data;
    let mut offset = 0usize;
    for t in 0..width {
        let run_chunks = split_range(nchunks, width, t).len();
        let run_len = (run_chunks * chunk_len).min(rest.len());
        let (head, tail) = rest.split_at_mut(run_len);
        runs.push((offset, head));
        offset += run_len;
        rest = tail;
    }

    let f = &f;
    crossbeam::thread::scope(|s| {
        let mut runs = runs.into_iter();
        let (first_off, first_run) = runs.next().expect("width >= 1");
        for (off, run) in runs {
            s.spawn(move |_| {
                let _worker = WorkerFlagGuard::set();
                for (ci, chunk) in run.chunks_mut(chunk_len).enumerate() {
                    f(off + ci * chunk_len, chunk);
                }
            });
        }
        let _worker = WorkerFlagGuard::set();
        for (ci, chunk) in first_run.chunks_mut(chunk_len).enumerate() {
            f(first_off + ci * chunk_len, chunk);
        }
    })
    .expect("pool worker panicked");
}

/// Runs `f` over every `(weight, task)` pair `build` emits, in
/// contiguous ascending runs of roughly equal *total weight* distributed
/// across the worker budget. Weighted scheduling is what the
/// degree-bucketed aggregation schedules need: groups carry wildly
/// uneven work (a hub row vs. a batch of leaves), so splitting by task
/// *count* would leave one worker holding all the heavy groups.
///
/// `build` streams the pairs in schedule order into the sink it is
/// handed. When the pool cannot go parallel at all (single-thread
/// budget or a nested region), each task runs inline as it is emitted
/// and nothing is collected — a serial weighted region performs zero
/// heap allocation, which the runtime's allocation-telemetry gate
/// measures. Otherwise the pairs are collected with `len_hint` capacity
/// and carved into runs.
///
/// Each task executes exactly once, serially, inside one worker — only
/// the run boundaries (never the task contents or any per-task
/// iteration order) depend on the worker budget, so kernels built on
/// this keep their bitwise thread-count invariance.
///
/// `grain_weight` is the minimum total weight per worker before an
/// extra worker is worth spawning. Zero-weight tasks are legal and run
/// with whichever run they land in.
pub fn par_for_weighted_tasks<T, F>(
    len_hint: usize,
    build: impl FnOnce(&mut dyn FnMut(u64, T)),
    grain_weight: u64,
    f: F,
) where
    T: Send,
    F: Fn(T) + Sync,
{
    if plan_width(usize::MAX, 1) <= 1 {
        let mut any = false;
        build(&mut |_w, task| {
            any = true;
            f(task);
        });
        // Same counter footprint as a collected region at width 1.
        if any {
            REGIONS.fetch_add(1, Ordering::Relaxed);
            TASKS.fetch_add(1, Ordering::Relaxed);
        }
        return;
    }
    let mut tasks = Vec::with_capacity(len_hint);
    build(&mut |w, task| tasks.push((w, task)));
    if tasks.is_empty() {
        return;
    }
    REGIONS.fetch_add(1, Ordering::Relaxed);
    let total: u64 = tasks.iter().map(|(w, _)| *w).sum();
    let budget = {
        let by_weight = (total / grain_weight.max(1)).max(1);
        let by_weight = usize::try_from(by_weight).unwrap_or(usize::MAX);
        plan_width(tasks.len(), 1).min(by_weight)
    };
    if budget <= 1 {
        TASKS.fetch_add(1, Ordering::Relaxed);
        for (_, task) in tasks {
            f(task);
        }
        return;
    }

    // Greedy contiguous carve: each run takes tasks until it reaches
    // its share of the remaining weight, so a single oversized task
    // simply becomes a run of its own.
    let mut runs: Vec<Vec<T>> = Vec::with_capacity(budget);
    let mut run: Vec<T> = Vec::new();
    let mut run_weight = 0u64;
    let mut remaining = total;
    for (w, task) in tasks {
        let workers_left = budget - runs.len();
        let target = remaining.div_ceil(workers_left as u64);
        if !run.is_empty() && run_weight + w > target && workers_left > 1 {
            runs.push(std::mem::take(&mut run));
            run_weight = 0;
        }
        remaining = remaining.saturating_sub(w);
        run_weight += w;
        run.push(task);
    }
    if !run.is_empty() {
        runs.push(run);
    }
    let width = runs.len();
    TASKS.fetch_add(width as u64, Ordering::Relaxed);
    if width <= 1 {
        for task in runs.remove(0) {
            f(task);
        }
        return;
    }
    HELPERS_SPAWNED.fetch_add(width as u64 - 1, Ordering::Relaxed);

    let f = &f;
    crossbeam::thread::scope(|s| {
        let mut runs = runs.into_iter();
        let first = runs.next().expect("width >= 1");
        for run in runs {
            s.spawn(move |_| {
                let _worker = WorkerFlagGuard::set();
                for task in run {
                    f(task);
                }
            });
        }
        let _worker = WorkerFlagGuard::set();
        for task in first {
            f(task);
        }
    })
    .expect("pool worker panicked");
}

/// Maps `f(index, &item)` over `items` in parallel, returning results
/// in input order. Like every helper here, the output is independent
/// of the worker count.
pub fn par_map_indexed<T, R, F>(items: &[T], grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    par_chunks(&mut out, 1, grain, |idx, slot| {
        slot[0] = Some(f(idx, &items[idx]));
    });
    out.into_iter().map(|r| r.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The claim registry and stats counters are process-global, so
    /// tests that assert on them must not interleave.
    fn serialize() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn par_chunks_visits_every_chunk_once() {
        let _guard = serialize();
        let mut data = vec![0u32; 103];
        with_thread_limit(4, || {
            par_chunks(&mut data, 10, 1, |off, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = (off + i) as u32;
                }
            });
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u32);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _guard = serialize();
        let items: Vec<u64> = (0..257).collect();
        let reference = with_thread_limit(1, || {
            par_map_indexed(&items, 1, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64))
        });
        for threads in [2, 4, 8] {
            let got = with_thread_limit(threads, || {
                par_map_indexed(&items, 1, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64))
            });
            assert_eq!(got, reference, "thread count {threads} changed the result");
        }
    }

    #[test]
    fn nested_regions_run_inline() {
        let _guard = serialize();
        let before = stats();
        let mut outer = vec![0u8; 64];
        with_thread_limit(4, || {
            par_chunks(&mut outer, 16, 1, |_, chunk| {
                // Nested region inside a pool worker: must not spawn.
                let mut inner = vec![0u8; 64];
                par_chunks(&mut inner, 16, 1, |_, c| c.fill(1));
                chunk[0] = 1;
            });
        });
        let after = stats();
        // Outer spawned at most 3 helpers; nested regions spawned
        // none beyond those (4 inner regions, all inline).
        assert!(after.helpers_spawned - before.helpers_spawned <= 3);
        assert_eq!(after.regions - before.regions, 5);
    }

    #[test]
    fn claim_divides_budget() {
        let _guard = serialize();
        let hw = hardware_threads();
        let claim = PoolClaim::register(16);
        assert_eq!(claim.workers(), 16);
        let eff = effective_threads();
        assert_eq!(eff, (hw / 16).max(1).min(env_threads_for_test()));
        // outer x inner never exceeds max(hardware, outer).
        assert!(claim.workers() * eff <= 16.max(hw));
        drop(claim);
        assert_eq!(claimed_workers(), 0);
    }

    fn env_threads_for_test() -> usize {
        super::env_threads()
    }

    #[test]
    fn claim_beats_explicit_limit() {
        let _guard = serialize();
        let claim = PoolClaim::register(MAX_POOL_THREADS * 2);
        with_thread_limit(8, || {
            assert_eq!(effective_threads(), 1);
        });
        drop(claim);
    }

    #[test]
    fn small_regions_spawn_no_helpers() {
        let _guard = serialize();
        let before = stats();
        let mut data = vec![0u8; 8];
        with_thread_limit(8, || {
            // grain 8 means a second worker needs >= 16 chunks.
            par_chunks(&mut data, 1, 8, |_, c| c[0] = 1);
        });
        let after = stats();
        assert_eq!(after.helpers_spawned, before.helpers_spawned);
        assert_eq!(after.tasks - before.tasks, 1);
    }

    /// [`par_for_weighted_tasks`] over an already collected task list.
    fn run_weighted<T: Send>(tasks: Vec<(u64, T)>, grain_weight: u64, f: impl Fn(T) + Sync) {
        let len = tasks.len();
        par_for_weighted_tasks(
            len,
            |emit| tasks.into_iter().for_each(|(w, t)| emit(w, t)),
            grain_weight,
            f,
        );
    }

    #[test]
    fn weighted_tasks_run_each_exactly_once() {
        let _guard = serialize();
        let (tx, rx) = std::sync::mpsc::channel();
        // Skewed weights: one hub task dominating a tail of leaves.
        let tasks: Vec<(u64, usize)> =
            (0..53).map(|i| (if i == 0 { 10_000 } else { 3 }, i)).collect();
        with_thread_limit(4, || {
            run_weighted(tasks, 1, |t| tx.send(t).expect("send"));
        });
        drop(tx);
        let mut seen: Vec<usize> = rx.into_iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..53).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_tasks_degenerate_inputs() {
        let _guard = serialize();
        // Empty task list, zero weights, fewer tasks than workers:
        // none of these may panic or drop a task.
        with_thread_limit(8, || {
            run_weighted(Vec::<(u64, usize)>::new(), 1, |_| unreachable!());
        });
        let (tx, rx) = std::sync::mpsc::channel();
        with_thread_limit(8, || {
            run_weighted(vec![(0u64, 1usize), (0, 2)], 1, |t| {
                tx.send(t).expect("send");
            });
        });
        drop(tx);
        let mut seen: Vec<usize> = rx.into_iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
        let hit = std::sync::atomic::AtomicUsize::new(0);
        with_thread_limit(8, || {
            run_weighted(vec![(7u64, ())], 1, |()| {
                hit.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn weighted_tasks_below_grain_stay_serial() {
        let _guard = serialize();
        let before = stats();
        with_thread_limit(8, || {
            run_weighted(vec![(1u64, 0usize), (1, 1), (1, 2)], 1_000, |_| {});
        });
        let after = stats();
        assert_eq!(after.helpers_spawned, before.helpers_spawned);
        assert_eq!(after.tasks - before.tasks, 1);
    }

    #[test]
    fn split_range_partitions_exactly() {
        for len in [0usize, 1, 7, 64, 103] {
            for parts in 1..=8 {
                let mut total = 0;
                let mut next = 0;
                for t in 0..parts {
                    let r = split_range(len, parts, t);
                    assert_eq!(r.start, next);
                    next = r.end;
                    total += r.len();
                }
                assert_eq!(total, len);
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn limit_is_restored_after_panic_free_use() {
        let _guard = serialize();
        with_thread_limit(2, || {
            assert_eq!(effective_threads(), 2);
            with_thread_limit(5, || assert_eq!(effective_threads(), 5));
            assert_eq!(effective_threads(), 2);
        });
    }

    #[test]
    fn limit_is_restored_after_a_caught_panic() {
        let _guard = serialize();
        with_thread_limit(2, || {
            let caught = std::panic::catch_unwind(|| {
                with_thread_limit(5, || panic!("inside the override"));
            });
            assert!(caught.is_err());
            assert_eq!(effective_threads(), 2);
        });
    }
}

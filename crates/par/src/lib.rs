//! Deterministic fork-join parallelism for the compute kernels and the
//! profile sweep.
//!
//! Every unit of work is processed by exactly one serial call of the
//! user closure. [`par_chunks`] and [`par_for_weighted_tasks`] cut their
//! input into **fixed, static chunks** whose boundaries do not depend on
//! the number of worker threads; [`par_map_indexed`] lets its workers
//! claim items one at a time and puts each result back at its item's
//! position. A kernel written on top of these helpers therefore
//! produces *bitwise identical* results whether it runs on 1 thread or
//! 8 — the only thing the thread count changes is which OS thread
//! executes which chunk or item. This is the property the determinism
//! suite and the `(seed, plan)` fault reproducibility contract rely on.
//!
//! # Pool sizing
//!
//! The worker budget of a parallel region is resolved, in order, from:
//!
//! 1. the calling thread's own budget: an explicit [`with_thread_limit`]
//!    override (used by tests and the perf baseline), or the share an
//!    enclosing region handed the thread as one of its workers;
//! 2. the `GNNAV_THREADS` environment variable, read once, clamped to
//!    `1..=`[`MAX_POOL_THREADS`];
//! 3. `std::thread::available_parallelism()` otherwise.
//!
//! A region of width `w` splits its budget: each of its workers, the
//! caller included, runs with a budget of `max(budget / w, 1)` while it
//! works. A region as wide as its budget leaves its workers one thread
//! each, so their nested regions run inline; a narrower one (the
//! profiler's sweep over fewer configs than cores) leaves its workers'
//! kernels the rest. Outer × inner never exceeds the budget.
//!
//! One private function, `fork_join`, spawns every thread. It forks per
//! region and joins every helper — whose OS thread has then exited —
//! before the region returns, and re-raises a worker's panic on the
//! caller. Regions below the work threshold run inline on the caller
//! with zero scheduling overhead. A worker's budget and slot live in
//! thread-locals that the region restores, so there is no global
//! mutable executor state to poison: the only globals are the
//! statistics counters of [`stats`].

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::LocalKey;

/// Hard upper bound on the per-region worker budget, whatever
/// `GNNAV_THREADS` says.
pub const MAX_POOL_THREADS: usize = 64;

thread_local! {
    /// This thread's worker budget; 0 defers to `GNNAV_THREADS`.
    static THREAD_LIMIT: Cell<usize> = const { Cell::new(0) };
    /// The slot this thread runs as in the innermost forked region.
    static WORKER_INDEX: Cell<usize> = const { Cell::new(0) };
}

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

/// Holds a thread-local cell at a value until dropped, then restores
/// the previous one — also when the holder unwinds.
struct Scoped {
    key: &'static LocalKey<Cell<usize>>,
    prev: usize,
}

impl Scoped {
    fn set(key: &'static LocalKey<Cell<usize>>, value: usize) -> Self {
        Scoped { key, prev: key.with(|cell| cell.replace(value)) }
    }
}

impl Drop for Scoped {
    fn drop(&mut self) {
        // `try_with`: a drop must not panic, even during thread
        // teardown, when the slot is already gone.
        let _ = self.key.try_with(|cell| cell.set(self.prev));
    }
}

/// Runs `f` with the calling thread's worker budget overridden to `n`
/// (clamped to `1..=`[`MAX_POOL_THREADS`]), restoring the previous
/// override afterwards — also when `f` unwinds, so a caught panic does
/// not leave the thread on `f`'s budget. The override may exceed the
/// hardware thread count — the determinism proptests use that to sweep
/// 1/2/4/8 workers on any machine.
pub fn with_thread_limit<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _limit = Scoped::set(&THREAD_LIMIT, n.clamp(1, MAX_POOL_THREADS));
    f()
}

/// The worker budget a parallel region started on this thread would
/// get right now.
pub fn effective_threads() -> usize {
    match THREAD_LIMIT.with(Cell::get) {
        0 => env_threads(),
        budget => budget,
    }
}

/// The slot (`0..width`) of the worker running the calling code in the
/// innermost region that forked threads; 0 outside every such region.
/// A region that runs inline leaves its caller's slot as it is.
pub fn worker_index() -> usize {
    WORKER_INDEX.with(Cell::get)
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

/// Runs `work` once per share, as a region as wide as `shares`: share
/// 0 on the calling thread, every other share on a helper thread of its
/// own. Worker `t` runs as slot `t` with a budget of
/// `max(budget / width, 1)`. Returns the workers' outputs in share
/// order once every helper has been joined, re-raising a worker's
/// panic here. A region of one runs inline, on the caller's budget and
/// slot.
fn fork_join<S: Send, O: Send>(shares: Vec<S>, work: impl Fn(S) -> O + Sync) -> Vec<O> {
    let width = shares.len();
    let mut shares = shares.into_iter();
    if width <= 1 {
        return shares.map(work).collect();
    }
    HELPERS_SPAWNED.fetch_add(width as u64 - 1, Ordering::Relaxed);
    let budget = (effective_threads() / width).max(1);
    let run = |t: usize, share: S| {
        let _limit = Scoped::set(&THREAD_LIMIT, budget);
        let _slot = Scoped::set(&WORKER_INDEX, t);
        work(share)
    };
    let run = &run;
    std::thread::scope(|scope| {
        let first = shares.next().expect("width > 1");
        // A scope waits for its closures to return, not for their
        // threads to exit; the explicit joins do. A helper still on its
        // way out holds its allocator arena, so the next region's
        // helpers would sometimes be handed fresh ones.
        let helpers: Vec<_> =
            shares.enumerate().map(|(t, share)| scope.spawn(move || run(t + 1, share))).collect();
        let mut outputs = Vec::with_capacity(width);
        outputs.push(run(0, first));
        for helper in helpers {
            outputs.push(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        outputs
    })
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
    TASKS.fetch_add(width as u64, Ordering::Relaxed);
    if width <= 1 {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci * chunk_len, chunk);
        }
        return;
    }

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
    fork_join(runs, |(off, run)| {
        for (ci, chunk) in run.chunks_mut(chunk_len).enumerate() {
            f(off + ci * chunk_len, chunk);
        }
    });
}

/// Runs `f` over every `(weight, task)` pair `build` emits, in
/// contiguous ascending runs of roughly equal *total weight* distributed
/// across the worker budget. Weighted scheduling is what the
/// degree-bucketed aggregation schedules need: groups carry wildly
/// uneven work (a hub row vs. a batch of leaves), so splitting by task
/// *count* would leave one worker holding all the heavy groups.
///
/// `build` streams the pairs in schedule order into the sink it is
/// handed. When the pool cannot go parallel at all (a single-thread
/// budget, as inside the workers of a region as wide as its budget),
/// each task runs inline as it is emitted and nothing is collected — a
/// serial weighted region performs zero heap allocation, which the
/// runtime's allocation-telemetry gate measures. Otherwise the pairs
/// are collected with `len_hint` capacity and carved into runs.
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

    // Greedy contiguous carve: each run takes tasks until it reaches
    // its share of the remaining weight, so a single oversized task
    // simply becomes a run of its own. A budget of one is one run.
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
    runs.push(run);
    TASKS.fetch_add(runs.len() as u64, Ordering::Relaxed);
    fork_join(runs, |run| run.into_iter().for_each(&f));
}

/// Maps `f(index, &item)` over `items` in parallel, returning results
/// in input order. Each worker claims the next unclaimed item whenever
/// it finishes one, so a slow item holds up one worker rather than a
/// fixed share of the input; every item is still mapped exactly once,
/// and the output is independent of the worker count. `grain` is the
/// minimum number of items per worker before an extra worker is worth
/// spawning.
pub fn par_map_indexed<T, R, F>(items: &[T], grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    REGIONS.fetch_add(1, Ordering::Relaxed);
    let width = plan_width(items.len(), grain);
    TASKS.fetch_add(width as u64, Ordering::Relaxed);
    if width <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let claimed = fork_join(vec![(); width], |()| {
        let mut mapped = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break mapped };
            mapped.push((i, f(i, item)));
        }
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in claimed.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("every item claimed once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// The stats counters are process-global, so tests that assert on
    /// them must not interleave.
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
    fn a_region_splits_its_budget_among_its_workers() {
        let _guard = serialize();
        for (budget, width) in [(8, 2), (8, 8), (4, 3), (3, 2)] {
            with_thread_limit(budget, || {
                // The barrier holds every worker on its first item until
                // all `width` items are claimed, so each runs on its own.
                let all_claimed = Barrier::new(width);
                let seen = par_map_indexed(&vec![(); width], 1, |_, _| {
                    all_claimed.wait();
                    (worker_index(), effective_threads())
                });
                let mut slots: Vec<usize> = seen.iter().map(|&(slot, _)| slot).collect();
                slots.sort_unstable();
                assert_eq!(slots, (0..width).collect::<Vec<_>>(), "{budget}/{width}");
                let share = (budget / width).max(1);
                assert!(seen.iter().all(|&(_, threads)| threads == share), "{budget}/{width}");
                assert_eq!((worker_index(), effective_threads()), (0, budget), "restored");
            });
        }
    }

    #[test]
    fn workers_claim_items_as_they_free_up() {
        let _guard = serialize();
        // Item 0 waits for every other item. A static split would queue
        // items 1..4 behind it on its own worker; claiming lets the
        // second worker take all eight.
        let items: Vec<usize> = (0..9).collect();
        let finished = AtomicUsize::new(0);
        let others_done_first = with_thread_limit(2, || {
            par_map_indexed(&items, 1, |i, _| {
                if i > 0 {
                    finished.fetch_add(1, Ordering::SeqCst);
                    return true;
                }
                let waited = Instant::now();
                while finished.load(Ordering::SeqCst) < items.len() - 1 {
                    if waited.elapsed() > Duration::from_secs(5) {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                true
            })
        });
        assert!(others_done_first[0], "item 0 timed out waiting for items 1..9");
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

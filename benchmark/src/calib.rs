//! The in-run calibration kernel.
//!
//! The sandbox this benchmark runs on changes speed under it: over
//! seconds to tens of seconds the same single-threaded work takes 0.8×
//! to 1.5× as long, with no steal time reported. A fixed kernel,
//! written here so that no change to the repository's own kernels moves
//! it, runs for about 5 ms every 50 ms on a thread of its own, on the
//! CPU the workload is pinned to, for the whole run: the scheduler
//! slices it in between the workload's instructions, so it samples the
//! machine while an operation is running, not only between two of
//! them. Each burst is stamped with when it ran and how much CPU time
//! it took. A timed interval is then reported as the time its work
//! would have taken had the machine run the kernel at its reference
//! speed throughout: the CPU time the process used inside it, this
//! thread's left out (so neither the bursts nor a wait for the disk
//! count), divided by the kernel's mean slowness over the interval.
//!
//! The disk is left out because nothing here can calibrate it: for
//! minutes at a time the sandbox's disk answers two to four times
//! slower, and a `serve_durable_uniform` repeat of 1.4 CPU seconds then
//! takes 3 s of wall where it took 1.7.
//! What a write costs the CPU — framing, CRC, copying the segment into
//! the page cache, the file system's own work — is system time of the
//! thread that writes and stays in.
//!
//! The kernel has three parts, because the machine does not slow all
//! code alike: a 256³ `f32` matrix product (768 KB of operands, so L2
//! and L3 traffic), seven 128³ ones (L1-resident, pure arithmetic),
//! and a loop of dependent multiplies, unpredictable branches and
//! random reads and writes over 512 KB. Over a fourteen-minute trace
//! of an `explore` call and a backend `execute` next to the three, 10 s
//! window medians of the raw times spread 23 % and 25 %; divided by the
//! window's mean slowness 8 % and 10 %; each call divided by the
//! slowness within a second of it 3 % and 7 %.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cpu::{process_cpu_s, thread_cpu_s, ThreadCpuClock};

/// Seconds each part takes on the reference machine — the sandbox at
/// its usual speed, so scaled and raw times read alike.
const REFERENCE_S: [f64; 3] = [1.8e-3, 1.9e-3, 1.75e-3];
const LARGE: usize = 256;
const SMALL: usize = 128;
const SMALL_RUNS: usize = 7;
const SCALAR_STEPS: usize = 200_000;
const TABLE: usize = 1 << 16;
/// Kernel runs that open every set-up round and count into `setup_s`:
/// they keep `setup_s` of a workload whose own set-up is microseconds
/// from being timer noise.
const WARM_UP: usize = 6;
/// One burst per this long, so that calibrating takes a tenth of the
/// run however long or short the operations are.
const PACE_S: f64 = 0.05;
/// An interval is scaled by the bursts that ran inside it or within
/// this long of it: the machine changes speed within a second, and a
/// quarter of a second holds five bursts on either side.
const NEAR_S: f64 = 0.25;

/// `c = a · b` for `n×n` row-major matrices: the plain i-k-j loop,
/// which the compiler vectorises along `j`.
fn matmul(n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for (a_row, c_row) in a[..n * n].chunks_exact(n).zip(c[..n * n].chunks_exact_mut(n)) {
        c_row.fill(0.0);
        for (&a_ik, b_row) in a_row.iter().zip(b[..n * n].chunks_exact(n)) {
            for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
                *c_ij += a_ik * b_kj;
            }
        }
    }
}

/// The scalar part: each step's table index hangs on the previous
/// step's multiply, its branch on the value read.
fn scalar(table: &mut [u64], mut x: u64) -> u64 {
    let (mut odd, mut roots) = (0u64, 0.0f64);
    for _ in 0..SCALAR_STEPS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 40) as usize % TABLE;
        let v = table[i];
        if v & 1 == 1 {
            odd = odd.wrapping_add(v);
        } else {
            roots += (v as f64).sqrt();
        }
        table[i] = v.rotate_left(3) ^ x;
    }
    std::hint::black_box((odd, roots));
    x
}

#[derive(Debug)]
struct Operands {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    table: Vec<u64>,
    x: u64,
}

impl Operands {
    fn new() -> Self {
        let n = LARGE * LARGE;
        Operands {
            a: (0..n).map(|i| (i % 7) as f32 * 0.25).collect(),
            b: (0..n).map(|i| (i % 5) as f32 * 0.5).collect(),
            c: vec![0.0; n],
            table: (0..TABLE as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
            x: 1,
        }
    }

    /// Runs the three parts and returns the CPU seconds each took: the
    /// thread's own, because the workload's slices in between are not
    /// the kernel's time.
    fn run(&mut self) -> [f64; 3] {
        let mut took = [0.0; 3];
        let t0 = thread_cpu_s();
        matmul(LARGE, std::hint::black_box(&self.a), &self.b, &mut self.c);
        std::hint::black_box(&self.c);
        let t1 = thread_cpu_s();
        for _ in 0..SMALL_RUNS {
            matmul(SMALL, std::hint::black_box(&self.a), &self.b, &mut self.c);
            std::hint::black_box(&self.c);
        }
        let t2 = thread_cpu_s();
        self.x = scalar(&mut self.table, self.x);
        took[0] = t1 - t0;
        took[1] = t2 - t1;
        took[2] = thread_cpu_s() - t2;
        took
    }
}

/// `WARM_UP` kernel runs on the calling thread, operands and all: part
/// of every set-up round, timed by the caller as set-up work.
pub fn warm_up() {
    let mut operands = Operands::new();
    for _ in 0..WARM_UP {
        operands.run();
    }
}

/// A moment of the run: seconds since the calibrator was made, and the
/// CPU seconds the workload's threads (every thread but the sampler)
/// have used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamp {
    at_s: f64,
    cpu_s: f64,
}

/// A stretch of the run, in seconds since the calibrator was made, and
/// the CPU seconds the workload's threads used inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub start_s: f64,
    pub end_s: f64,
    pub cpu_s: f64,
}

impl Interval {
    /// From `start` to `end`.
    pub fn between(start: Stamp, end: Stamp) -> Self {
        Interval { start_s: start.at_s, end_s: end.at_s, cpu_s: end.cpu_s - start.cpu_s }
    }

    /// Wall seconds from start to end.
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// One run of the kernel: when, and the mean over the three parts of
/// CPU seconds taken ÷ reference seconds.
#[derive(Debug, Clone, Copy)]
struct Burst {
    start_s: f64,
    end_s: f64,
    slowness: f64,
}

#[derive(Debug, Default)]
struct Shared {
    /// In the order they ran.
    bursts: Mutex<Vec<Burst>>,
    /// The sampling thread's CPU clock, set before its first burst.
    sampler_cpu: OnceLock<ThreadCpuClock>,
    stop: AtomicBool,
}

/// The sampling thread and every burst it has run.
#[derive(Debug)]
pub struct Calibrator {
    t0: Instant,
    shared: Arc<Shared>,
    sampler: Option<JoinHandle<()>>,
}

impl Calibrator {
    /// Starts the sampling thread and waits for its first bursts. It
    /// inherits the caller's CPU affinity: pin first.
    pub fn start() -> Self {
        let t0 = Instant::now();
        let shared = Arc::new(Shared::default());
        let theirs = Arc::clone(&shared);
        let sampler = std::thread::spawn(move || {
            theirs.sampler_cpu.get_or_init(ThreadCpuClock::of_current_thread);
            let mut operands = Operands::new();
            operands.run();
            // `stop` publishes nothing: the bursts are behind the mutex.
            while !theirs.stop.load(Ordering::Relaxed) {
                let start_s = t0.elapsed().as_secs_f64();
                let took = operands.run();
                let end_s = t0.elapsed().as_secs_f64();
                let burst = Burst {
                    start_s,
                    end_s,
                    slowness: took.iter().zip(REFERENCE_S).map(|(t, r)| t / r).sum::<f64>() / 3.0,
                };
                theirs.bursts.lock().expect("no holder of the burst log panics").push(burst);
                std::thread::sleep(Duration::from_secs_f64((PACE_S - (end_s - start_s)).max(0.0)));
            }
        });
        let calibrator = Calibrator { t0, shared, sampler: Some(sampler) };
        // The first interval timed should already have bursts before it.
        while calibrator.shared.bursts.lock().expect("no holder of the burst log panics").len() < 3
        {
            std::thread::sleep(Duration::from_secs_f64(PACE_S));
        }
        calibrator
    }

    /// Now: the two ends of an `Interval`.
    pub fn stamp(&self) -> Stamp {
        // `start` waited for the sampler's first bursts, and the sampler
        // lives until `drop` joins it.
        let sampler = self.shared.sampler_cpu.get().expect("set before the first burst");
        Stamp { at_s: self.t0.elapsed().as_secs_f64(), cpu_s: process_cpu_s() - sampler.read_s() }
    }

    /// Seconds the work of `interval` would have taken on the reference
    /// machine. Call once the bursts that follow the interval have run.
    pub fn scaled_s(&self, interval: Interval) -> f64 {
        let bursts = self.shared.bursts.lock().expect("no holder of the burst log panics");
        scaled_s(&bursts, interval)
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}

fn scaled_s(bursts: &[Burst], interval: Interval) -> f64 {
    interval.cpu_s / slowness_near(bursts, interval)
}

/// Mean slowness of the bursts inside `interval` or within `NEAR_S`
/// of it, or of the nearest one on each side where there are fewer
/// than two. A time is work × slowness averaged over time, so a mean
/// of the slownesses (not of the speeds) is what scales it: the mean
/// of the middle half, because a millisecond's hiccup doubles one
/// sample and is nothing to an operation.
fn slowness_near(bursts: &[Burst], interval: Interval) -> f64 {
    let (from, to) = (interval.start_s - NEAR_S, interval.end_s + NEAR_S);
    let mut near: Vec<f64> =
        bursts.iter().filter(|b| b.end_s >= from && b.start_s <= to).map(|b| b.slowness).collect();
    if near.len() < 2 {
        let before = bursts.iter().rev().find(|b| b.end_s <= interval.start_s);
        let after = bursts.iter().find(|b| b.start_s >= interval.end_s);
        near = before.into_iter().chain(after).map(|b| b.slowness).collect();
    }
    // Before the sampler's first burst there is nothing to go by.
    if near.is_empty() {
        return 1.0;
    }
    near.sort_by(|a, b| a.partial_cmp(b).expect("kernel times are finite"));
    let middle = &near[near.len() / 4..near.len() - near.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_multiplies() {
        for n in [SMALL, LARGE] {
            let identity: Vec<f32> = (0..n * n).map(|i| f32::from(i / n == i % n)).collect();
            let a: Vec<f32> = (0..n * n).map(|i| (i % 11) as f32).collect();
            let mut c = vec![1.0; n * n];
            matmul(n, &a, &identity, &mut c);
            assert_eq!(c, a);
        }
    }

    fn burst(start_s: f64, slowness: f64) -> Burst {
        Burst { start_s, end_s: start_s + 0.01, slowness }
    }

    /// An interval whose work was on the CPU for `cpu_s` of it.
    fn interval(start_s: f64, end_s: f64, cpu_s: f64) -> Interval {
        Interval { start_s, end_s, cpu_s }
    }

    #[test]
    fn an_interval_is_scaled_by_the_bursts_in_and_around_it() {
        // Fast until 10 s, twice as slow from then on.
        let bursts = [
            burst(0.9, 1.0),
            burst(2.0, 1.0),
            burst(9.9, 1.0),
            burst(10.5, 2.0),
            burst(11.0, 2.0),
            burst(12.1, 2.0),
        ];
        let scaled = |start_s, end_s, cpu_s| scaled_s(&bursts, interval(start_s, end_s, cpu_s));
        assert!((scaled(1.0, 2.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((scaled(11.05, 12.05, 1.0) - 0.5).abs() < 1e-12);
        // Only the CPU seconds count: a wait inside the interval is
        // nobody's work.
        assert!((scaled(11.05, 12.05, 0.4) - 0.2).abs() < 1e-12);
        // Two bursts inside count towards the slowness with the two
        // around them (the middle half of 1, 2, 2, 2).
        assert!((scaled(10.0, 12.0, 1.9) - 0.95).abs() < 1e-12);
        // Far from any burst: the nearest on each side.
        assert!((scaled(5.0, 6.0, 1.0) - 1.0).abs() < 1e-12);
        assert_eq!(scaled_s(&[], interval(0.0, 1.0, 1.0)), 1.0);
    }

    #[test]
    fn hiccups_are_dropped() {
        let samples: Vec<Burst> =
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0].iter().map(|&s| burst(0.0, s)).collect();
        assert_eq!(slowness_near(&samples, interval(0.0, 0.1, 0.1)), 1.0);
    }

    #[test]
    fn the_sampler_runs_and_stops() {
        // As a run does: with both threads on one CPU the sampler is
        // never mid-burst while this thread reads the clocks.
        crate::cpu::Cpus::detect().pin();
        let c = Calibrator::start();
        let start = c.stamp();
        std::thread::sleep(Duration::from_millis(200));
        let (t0, mut x) = (thread_cpu_s(), 1u64);
        while thread_cpu_s() - t0 < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        let timed = Interval::between(start, c.stamp());
        // Asleep for most of it, and the sampler's bursts are not its
        // work (other tests' threads are, hence the loose upper end).
        assert!(timed.cpu_s >= 0.01 && timed.wall_s() >= 0.2, "{timed:?}");
        let scaled = c.scaled_s(timed);
        assert!(scaled > 0.0 && scaled.is_finite());
        let shared = Arc::clone(&c.shared);
        drop(c);
        let kept = shared.bursts.lock().unwrap().clone();
        assert!(kept.len() >= 2, "{} bursts in 200 ms", kept.len());
        assert!(kept.windows(2).all(|w| w[0].end_s <= w[1].start_s));
        assert!(kept.iter().all(|b| b.slowness > 0.0));
    }
}

//! Pinning the benchmark to one CPU, and the CPU clocks.
//!
//! On the shared two-vCPU sandbox a run that keeps both vCPUs busy
//! waits, at every fork-join, for whichever vCPU the host has taken
//! away: 8 s window means of `explore` and `execute` spread 34–53 % at
//! two threads and 12–14 % at one (the same seven-minute trace). The
//! workloads are therefore measured with the process confined to one
//! CPU, which the program sees as a one-core machine
//! (`available_parallelism() == 1`, so `Profiler` and `gnnav_par` both
//! run serial). The `*.par_eff` probes of the trace pass lift the pin.

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn pthread_self() -> usize;
    fn pthread_getcpuclockid(thread: usize, clock: *mut i32) -> i32;
}

/// Seconds on CPU clock `clock`, where it can be read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_s(clock: i32) -> Option<f64> {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a writable `struct timespec` of the layout
    // 64-bit Linux declares; an id the kernel does not know is an error
    // return, not undefined behaviour.
    (unsafe { clock_gettime(clock, &mut time) } == 0)
        .then_some(time.sec as f64 + time.nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_s(_clock: i32) -> Option<f64> {
    None
}

/// Wall seconds since the first call: what the CPU clocks read where
/// they cannot be read.
fn wall_s() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed().as_secs_f64()
}

/// CPU seconds the calling thread has used: what a piece of work took
/// of the CPU, whatever else was scheduled in between.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID).unwrap_or_else(wall_s)
}

/// CPU seconds every thread of the process has used, user and system.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID).unwrap_or_else(wall_s)
}

/// The CPU clock of one thread, readable from any other.
#[derive(Debug, Clone, Copy)]
pub struct ThreadCpuClock(Option<i32>);

impl ThreadCpuClock {
    /// The calling thread's clock; one that always reads 0 where the
    /// platform has none.
    pub fn of_current_thread() -> Self {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            let mut clock = 0i32;
            // SAFETY: `pthread_self` has no preconditions, the handle it
            // returns is the live calling thread's, and `clock` is a
            // writable `clockid_t`.
            if unsafe { pthread_getcpuclockid(pthread_self(), &mut clock) } == 0 {
                return ThreadCpuClock(Some(clock));
            }
        }
        ThreadCpuClock(None)
    }

    /// CPU seconds the thread has used. The thread must still be alive.
    pub fn read_s(self) -> f64 {
        self.0.and_then(cpu_clock_s).unwrap_or(0.0)
    }
}

/// The CPUs the process started on, and the one it measures on.
#[derive(Debug)]
pub struct Cpus {
    all: [u64; WORDS],
}

impl Cpus {
    /// Reads the calling thread's affinity mask; empty where that is
    /// not possible (pinning is then a no-op and the caller relies on
    /// `with_thread_limit(1)` alone).
    pub fn detect() -> Self {
        let mut all = [0u64; WORDS];
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `all` is WORDS * 8 writable bytes, the size passed;
            // pid 0 is the calling thread.
            if unsafe { sched_getaffinity(0, WORDS * 8, all.as_mut_ptr()) } != 0 {
                all = [0u64; WORDS];
            }
        }
        Cpus { all }
    }

    /// CPUs available before pinning (at least 1).
    pub fn count(&self) -> usize {
        (self.all.iter().map(|w| w.count_ones()).sum::<u32>() as usize).max(1)
    }

    fn apply(&self, mask: &[u64; WORDS]) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `mask` is WORDS * 8 readable bytes, the size passed.
            // Threads spawned afterwards inherit the calling thread's mask.
            mask.iter().any(|&w| w != 0)
                && unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) } == 0
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = mask;
            false
        }
    }

    /// Confines the calling thread, and every thread it spawns from
    /// now on, to the highest-numbered available CPU (CPU 0 takes the
    /// guest's interrupts). Returns whether it did.
    pub fn pin(&self) -> bool {
        let mut one = [0u64; WORDS];
        if let Some(word) = self.all.iter().rposition(|&w| w != 0) {
            one[word] = 1 << (63 - self.all[word].leading_zeros());
        }
        self.apply(&one)
    }

    /// Back to every CPU the process started on.
    pub fn unpin(&self) -> bool {
        self.apply(&self.all)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_advances_with_work_not_with_sleep() {
        let t0 = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_s() - t0;
        assert!((0.0..0.02).contains(&slept), "{slept} CPU seconds asleep");
        let mut x = 1u64;
        while thread_cpu_s() - t0 < 0.03 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
    }

    #[test]
    fn another_threads_clock_reads_from_here() {
        let (clock_tx, clock_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            clock_tx.send(ThreadCpuClock::of_current_thread()).unwrap();
            let t0 = thread_cpu_s();
            let mut x = 1u64;
            while thread_cpu_s() - t0 < 0.03 {
                x = std::hint::black_box(x.wrapping_mul(3));
            }
            // Stay alive until the clock has been read.
            let _ = done_rx.recv();
        });
        let clock = clock_rx.recv().unwrap();
        let before = process_cpu_s();
        while clock.read_s() < 0.03 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // The process clock counts the worker's seconds too.
        assert!(process_cpu_s() - before > 0.0);
        assert!(process_cpu_s() >= clock.read_s());
        done_tx.send(()).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn pinning_leaves_one_cpu_and_unpinning_restores() {
        // Affinity is per thread, so this touches only the test's own.
        let cpus = Cpus::detect();
        let before = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(cpus.count(), before);
        assert!(cpus.pin());
        assert_eq!(std::thread::available_parallelism().map_or(0, |n| n.get()), 1);
        assert!(cpus.unpin());
        assert_eq!(std::thread::available_parallelism().map_or(0, |n| n.get()), before);
    }
}

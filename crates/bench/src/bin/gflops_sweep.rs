//! Dense-kernel throughput sweep: GFLOP/s at pool widths 1/2/4/8.
//!
//! ```sh
//! cargo run --release -p gnnav-bench --bin gflops_sweep
//! ```
//!
//! Prints which vector ISA build of the kernels this process runs, a
//! table of measured matmul GFLOP/s per problem size and thread count
//! (best of three samples per cell — see
//! [`gnnav_bench::best_matmul_gflops`]) and checks the single-thread
//! 256-point against [`gnnav_bench::MATMUL_GFLOPS_FLOOR`], the same
//! gate the `kernel-bench` CI job enforces. Exits non-zero if the
//! floor is missed.

use gnnav_bench::{best_matmul_gflops, print_table, MATMUL_GFLOPS_FLOOR};

/// The kernel build `gnnav-nn` selects on this CPU. The CPU is the
/// only input to that choice, so asking it the same question here
/// needs no hook into the crate: AVX2 on an x86-64 that reports it,
/// the target's baseline otherwise.
fn vector_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

fn main() {
    println!("vector ISA: {} ({})", vector_isa(), std::env::consts::ARCH);
    let sizes = [64usize, 128, 256];
    let widths = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut single_thread_256 = 0.0f64;
    for &n in &sizes {
        let mut row = vec![format!("{n}x{n}x{n}")];
        for &t in &widths {
            let gflops = best_matmul_gflops(n, t, 3);
            if n == 256 && t == 1 {
                single_thread_256 = gflops;
            }
            row.push(format!("{gflops:.2}"));
        }
        rows.push(row);
    }
    print_table(&["matmul", "1 thread", "2 threads", "4 threads", "8 threads"], &rows);
    println!(
        "single-thread floor: {MATMUL_GFLOPS_FLOOR:.2} GFLOP/s (measured {single_thread_256:.2})"
    );
    if single_thread_256 < MATMUL_GFLOPS_FLOOR {
        eprintln!("FAIL: single-thread 256-point below the committed floor");
        std::process::exit(1);
    }
}

//! Criterion benches for the NN substrate: dense matmul and per-model
//! forward+backward training steps (the computation axis the paper's
//! `f_compute` models).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnnav_graph::generators::barabasi_albert;
use gnnav_nn::init::glorot_uniform;
use gnnav_nn::{train, Adam, GnnModel, Matrix, ModelKind};

/// Hard throughput gate, not a measurement: single-thread 256³ matmul
/// must clear [`gnnav_bench::MATMUL_GFLOPS_FLOOR`] GFLOP/s (set ~30%
/// below what the register-tile kernels measure when built for the
/// x86-64 baseline, and above 2× the scalar kernels of PR 4). Takes
/// the best of a few samples so one descheduled run can't fail the
/// gate; a genuine regression — e.g. bounds checks back in the tile
/// loop, or accumulators falling out of registers — still lands far
/// below the floor on every sample.
fn assert_matmul_throughput_floor(_c: &mut Criterion) {
    let gflops = gnnav_bench::best_matmul_gflops(256, 1, 3);
    println!(
        "matmul_floor/256x256x256 (1 thread): {gflops:.2} GFLOP/s (floor {:.1})",
        gnnav_bench::MATMUL_GFLOPS_FLOOR
    );
    assert!(
        gflops >= gnnav_bench::MATMUL_GFLOPS_FLOOR,
        "single-thread matmul throughput {gflops:.2} GFLOP/s fell below the \
         committed floor of {:.1} — the tile kernels regressed",
        gnnav_bench::MATMUL_GFLOPS_FLOOR
    );
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    for n in [64usize, 128, 256] {
        let a = glorot_uniform(n, n, 1);
        let b = glorot_uniform(n, n, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b));
        });
    }
    group.finish();
}

fn bench_train_step_per_model(c: &mut Criterion) {
    let g = barabasi_albert(2000, 6, 3).expect("gen");
    let feat_dim = 64;
    let classes = 8;
    let x = glorot_uniform(g.num_nodes(), feat_dim, 4);
    let labels: Vec<u16> = (0..g.num_nodes()).map(|v| (v % classes) as u16).collect();
    let targets: Vec<u32> = (0..256).collect();
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    for kind in ModelKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |bench, &kind| {
            let mut model = GnnModel::new(kind, feat_dim, 32, classes, 2, 5);
            let mut opt = Adam::new(0.01);
            bench.iter(|| train::train_step(&mut model, &mut opt, &g, &x, &labels, &targets));
        });
    }
    group.finish();
}

/// The speedup axis: the same matmul and full training step at pool
/// widths 1/2/4/8. On a multi-core runner the wider variants should
/// approach `min(width, cores)`x; results stay bitwise identical
/// regardless (see `crates/nn/tests/parallel_identity.rs`).
fn bench_thread_sweep(c: &mut Criterion) {
    let n = 256usize;
    let a = glorot_uniform(n, n, 1);
    let b = glorot_uniform(n, n, 2);
    let mut group = c.benchmark_group("matmul_threads");
    group.sample_size(20);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |bench, &t| {
            bench.iter(|| gnnav_par::with_thread_limit(t, || a.matmul(&b)));
        });
    }
    group.finish();

    let g = barabasi_albert(2000, 6, 3).expect("gen");
    let x = glorot_uniform(g.num_nodes(), 64, 4);
    let labels: Vec<u16> = (0..g.num_nodes()).map(|v| (v % 8) as u16).collect();
    let targets: Vec<u32> = (0..256).collect();
    let mut group = c.benchmark_group("train_step_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |bench, &t| {
            let mut model = GnnModel::new(ModelKind::Gat, 64, 32, 8, 2, 5);
            let mut opt = Adam::new(0.01);
            bench.iter(|| {
                gnnav_par::with_thread_limit(t, || {
                    train::train_step(&mut model, &mut opt, &g, &x, &labels, &targets)
                })
            });
        });
    }
    group.finish();
}

fn bench_forward_only(c: &mut Criterion) {
    let g = barabasi_albert(2000, 6, 7).expect("gen");
    let x = glorot_uniform(g.num_nodes(), 64, 8);
    let mut group = c.benchmark_group("forward");
    group.sample_size(10);
    for kind in ModelKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |bench, &kind| {
            let mut model = GnnModel::new(kind, 64, 32, 8, 2, 9);
            bench.iter(|| {
                let out: Matrix = model.forward(&g, &x);
                out
            });
        });
    }
    group.finish();
}

/// The two activation-mask passes at the height and width of a hidden
/// layer over a benchmark batch; about half the entries are active.
fn bench_relu_masks(c: &mut Criterion) {
    let mut group = c.benchmark_group("relu_masks");
    group.sample_size(20);
    let mut x = glorot_uniform(2048, 256, 10);
    let mut mask = Vec::new();
    group.bench_function("relu_forward/2048x256", |b| b.iter(|| x.relu_inplace_with(&mut mask)));
    let mut grad = glorot_uniform(2048, 256, 11);
    group.bench_function("relu_backward/2048x256", |b| {
        b.iter(|| grad.relu_backward_inplace(&mask));
    });
    group.finish();
}

criterion_group!(
    benches,
    assert_matmul_throughput_floor,
    bench_matmul,
    bench_relu_masks,
    bench_train_step_per_model,
    bench_thread_sweep,
    bench_forward_only
);
criterion_main!(benches);

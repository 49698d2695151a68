//! Criterion benches for the sampling substrate: throughput of the
//! three sampler families, unbiased and biased, a fanout ablation for
//! the node-wise sampler (the sampling axis of the design space), and
//! subgraph induction on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnnav_graph::generators::barabasi_albert;
use gnnav_sampler::{LocalityBias, Sampler};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn bench_sampler_families(c: &mut Criterion) {
    let g = barabasi_albert(20_000, 8, 1).expect("gen");
    let targets: Vec<u32> = (0..256).collect();
    let none = || LocalityBias::none(g.num_nodes());
    // BA's early ids are its hubs: the set a degree-ordered cache holds.
    let hot: Vec<u32> = (0..2000).collect();
    let biased = |eta| LocalityBias::new(g.num_nodes(), &hot, eta);
    let mut group = c.benchmark_group("sampler_families");
    group.sample_size(20);
    group.bench_function("node_wise_25_10", |b| {
        let s = Sampler::node_wise(vec![25, 10], none());
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| s.sample(&g, &targets, &mut rng).expect("sample"));
    });
    group.bench_function("node_wise_25_10_eta075", |b| {
        let s = Sampler::node_wise(vec![25, 10], biased(0.75));
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| s.sample(&g, &targets, &mut rng).expect("sample"));
    });
    group.bench_function("layer_wise_1600x2", |b| {
        let s = Sampler::layer_wise(vec![1600, 1600], none());
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| s.sample(&g, &targets, &mut rng).expect("sample"));
    });
    group.bench_function("subgraph_wise_walk35", |b| {
        let s = Sampler::subgraph_wise(35, none());
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| s.sample(&g, &targets, &mut rng).expect("sample"));
    });
    // Biased walks key every neighbour of every hub they pass through.
    group.bench_function("subgraph_wise_walk35_eta1", |b| {
        let s = Sampler::subgraph_wise(35, biased(1.0));
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| s.sample(&g, &targets, &mut rng).expect("sample"));
    });
    group.finish();
}

/// Induction alone, on a tenth, a third and nine tenths of the graph:
/// a node-wise batch at the benchmark's scales covers most of it, and
/// a third is about where filling rows through the in-edges draws
/// level with scanning and sorting them.
fn bench_induced_subgraph(c: &mut Criterion) {
    let g = barabasi_albert(20_000, 8, 1).expect("gen");
    // Built once per parent graph, by the first induction: keep it out
    // of the per-call figure.
    let _ = g.transpose_csr();
    let mut order: Vec<u32> = (0..g.num_nodes() as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(10));
    let mut group = c.benchmark_group("induced_subgraph");
    group.sample_size(20);
    for (name, share) in [("sparse", 10), ("third", 30), ("dense", 90)] {
        let nodes = &order[..g.num_nodes() * share / 100];
        group.bench_function(name, |b| b.iter(|| g.induced_subgraph(nodes).expect("induce")));
    }
    group.finish();
}

fn bench_fanout_ablation(c: &mut Criterion) {
    let g = barabasi_albert(20_000, 8, 5).expect("gen");
    let targets: Vec<u32> = (0..256).collect();
    let mut group = c.benchmark_group("node_wise_fanout_ablation");
    group.sample_size(20);
    for k in [5usize, 10, 15, 25] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let s = Sampler::node_wise(vec![k, k], LocalityBias::none(g.num_nodes()));
            let mut rng = StdRng::seed_from_u64(6);
            b.iter(|| s.sample(&g, &targets, &mut rng).expect("sample"));
        });
    }
    group.finish();
}

fn bench_locality_bias_overhead(c: &mut Criterion) {
    let g = barabasi_albert(20_000, 8, 7).expect("gen");
    let targets: Vec<u32> = (0..256).collect();
    let hot: Vec<u32> = (0..2000).collect();
    let mut group = c.benchmark_group("locality_bias_overhead");
    group.sample_size(20);
    group.bench_function("unbiased", |b| {
        let s = Sampler::node_wise(vec![10, 10], LocalityBias::none(g.num_nodes()));
        let mut rng = StdRng::seed_from_u64(8);
        b.iter(|| s.sample(&g, &targets, &mut rng).expect("sample"));
    });
    group.bench_function("biased_eta_075", |b| {
        let s = Sampler::node_wise(vec![10, 10], LocalityBias::new(g.num_nodes(), &hot, 0.75));
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| s.sample(&g, &targets, &mut rng).expect("sample"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sampler_families,
    bench_induced_subgraph,
    bench_fanout_ablation,
    bench_locality_bias_overhead
);
criterion_main!(benches);

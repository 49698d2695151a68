//! Criterion benches for graph construction: a dataset load, the
//! navigator's augmentation graph, and `GraphBuilder::build` alone on
//! an edge list shaped like the generator's.

use criterion::{criterion_group, criterion_main, Criterion};
use gnnav_graph::{Dataset, DatasetId, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A raw edge list like the one `community_preferential` hands the
/// builder for RD2@0.05: every edge of the dataset once, from the later
/// node to the earlier, sources ascending and each row in a seeded
/// order, plus seeded repeats up to the generator's 16 664 raw edges
/// (its draws repeat about a quarter of their edges).
fn rd2_raw_edges() -> (usize, Vec<(NodeId, NodeId)>) {
    const RAW_EDGES: usize = 16_664;
    let d = Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load");
    let g = d.graph();
    let mut rng = StdRng::seed_from_u64(0x6EA9);
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().filter(|&(u, v)| v < u).collect();
    while edges.len() < RAW_EDGES {
        let e = edges[rng.gen_range(0..edges.len())];
        edges.push(e);
    }
    edges.shuffle(&mut rng);
    edges.sort_by_key(|&(u, _)| u);
    (g.num_nodes(), edges)
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    group.sample_size(50);
    group.bench_function("load_scaled_rd2_0.05", |b| {
        b.iter(|| Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load"));
    });
    // The first augmentation graph of a default navigation.
    group.bench_function("synthetic_1500x3", |b| {
        b.iter(|| Dataset::synthetic(1500, 3, 64, 16, 0x7A51 ^ 0x9999).expect("gen"));
    });
    let (n, edges) = rd2_raw_edges();
    let mut builder = GraphBuilder::new(n);
    builder.add_edges(edges).symmetrize();
    group.bench_function("build_symmetrized_rd2", |b| {
        b.iter(|| builder.build().expect("build"));
    });
    group.finish();
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);

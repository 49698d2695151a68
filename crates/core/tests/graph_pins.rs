//! Every graph the pipeline builds, pinned against a golden capture.
//!
//! `GraphBuilder::build` sits under every generator, so every dataset
//! load, augmentation graph, serve calibration graph and serve tenant
//! dataset goes through it. This file pins its output for each of
//! those callers: the node and edge counts, and one FNV-1a digest of
//! the CSR `offsets` and `targets`, the communities and the
//! train/val/test split (each array prefixed by its length, every
//! integer little-endian). Equal lines mean equal bytes.
//!
//! Covered:
//! - every `DatasetId`, `Synthetic` included, at scales 0.02 and 0.05;
//! - `Dataset::synthetic` at the navigator's augmentation shape
//!   (1 500 nodes, 3–7 edges per node, 64 features, 16 classes) over
//!   the seeds a default navigation draws, and a few more;
//! - serve's two calibration graphs at `ServeOptions::default()`;
//! - one tenant dataset per workload shape of the load generator;
//! - `barabasi_albert(300, 3, 7)`.
//!
//! There is deliberately no regeneration switch: if a later change
//! moves these graphs on purpose, print `render()` from a scratch
//! test, review the diff, and replace the file by hand.

use gnnavigator::graph::generators::barabasi_albert;
use gnnavigator::graph::{Dataset, DatasetId, Graph, Split};
use gnnavigator::serve::{tenant_request, LoadGenOptions, ServeOptions};
use gnnavigator::store::fnv1a64;
use gnnavigator::NavigatorOptions;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/graph_pins.txt");

fn put_usizes(bytes: &mut Vec<u8>, xs: &[usize]) {
    bytes.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    for &x in xs {
        bytes.extend_from_slice(&(x as u64).to_le_bytes());
    }
}

fn put_u32s(bytes: &mut Vec<u8>, xs: &[u32]) {
    bytes.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    for &x in xs {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
}

fn graph_line(
    out: &mut String,
    label: &str,
    g: &Graph,
    communities: &[u32],
    split: Option<&Split>,
) {
    let mut bytes = Vec::new();
    put_usizes(&mut bytes, g.offsets());
    put_u32s(&mut bytes, g.targets());
    put_u32s(&mut bytes, communities);
    if let Some(s) = split {
        for part in [&s.train, &s.val, &s.test] {
            put_u32s(&mut bytes, part);
        }
    }
    writeln!(
        out,
        "{label} nodes={} edges={} digest={:016x}",
        g.num_nodes(),
        g.num_edges(),
        fnv1a64(&bytes)
    )
    .expect("write");
}

fn dataset_line(out: &mut String, label: &str, d: &Dataset) {
    graph_line(out, label, d.graph(), d.communities(), Some(d.split()));
}

fn render() -> String {
    let mut out = String::new();
    for scale in [0.02, 0.05] {
        for id in [DatasetId::Synthetic].into_iter().chain(DatasetId::ALL) {
            let d = Dataset::load_scaled(id, scale).expect("load");
            dataset_line(&mut out, &format!("load_scaled {id} {scale}"), &d);
        }
    }

    // The navigator's augmentation graphs: graph i of a navigation
    // seeded `s` has `3 + i % 5` edges per node and seed
    // `(s ^ 0x9999) + i`.
    let nav = NavigatorOptions::default();
    for base in [nav.seed, 0xC0FFEE, 0x0BAD_5EED] {
        for i in 0..5u64 {
            let seed = (base ^ 0x9999).wrapping_add(i);
            let epn = 3 + (i as usize % 5);
            let d = Dataset::synthetic(nav.augmentation_nodes, epn, 64, 16, seed).expect("gen");
            dataset_line(
                &mut out,
                &format!("augmentation {} x{epn} seed={seed:#x}", nav.augmentation_nodes),
                &d,
            );
        }
    }

    // Serve's calibration graphs, as `NavService` draws them: its
    // private `CALIBRATION_GRAPHS` (2) graphs, the first of
    // `CALIBRATION_NODES` (400) nodes.
    let serve = ServeOptions::default();
    for g in 0..2 {
        let nodes = 400 + g * 137;
        let seed = serve.seed ^ 0x5E21 ^ (g as u64).wrapping_mul(0x9E37_79B9);
        let d = Dataset::synthetic(nodes, 3 + g % 3, 32, 8, seed).expect("gen");
        dataset_line(&mut out, &format!("calibration {nodes} x{}", 3 + g % 3), &d);
    }

    // One tenant dataset per workload shape: tenants sharing a shape
    // share one dataset.
    let seed = LoadGenOptions::default().seed;
    let mut shapes = BTreeMap::new();
    for t in 0..200 {
        let w = tenant_request(seed, t).workload;
        shapes
            .entry((w.num_nodes, w.edges_per_node, w.feat_dim, w.num_classes, w.graph_seed))
            .or_insert(w);
    }
    assert_eq!(shapes.len(), 12, "200 tenants reach every workload shape");
    for w in shapes.values() {
        let d = w.materialize().expect("materialize");
        let label = format!(
            "tenant {}x{} {}/{} seed={:#x}",
            w.num_nodes, w.edges_per_node, w.feat_dim, w.num_classes, w.graph_seed
        );
        dataset_line(&mut out, &label, &d);
    }

    let ba = barabasi_albert(300, 3, 7).expect("gen");
    graph_line(&mut out, "barabasi_albert 300 3 7", &ba, &[], None);
    out
}

#[test]
fn every_graph_matches_the_golden_capture() {
    let got = render();
    let (mut got_lines, mut want_lines) = (got.lines(), GOLDEN.lines());
    loop {
        match (got_lines.next(), want_lines.next()) {
            (None, None) => break,
            (g, w) => assert_eq!(g, w, "graph differs from the golden capture"),
        }
    }
}

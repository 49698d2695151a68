//! Every sampler's output and RNG stream against pinned checksums.
//!
//! The host side of a mini-batch (neighbour selection, frontier dedup,
//! subgraph induction) is optimised under one rule: the `MiniBatch` and
//! the generator state after the call do not move by one bit. Each
//! constant below is the CRC-32 of one `sample` call — `layers`,
//! `nodes`, the subgraph's CSR arrays and `rng.state()` afterwards —
//! as produced by the commit *before* the selection loops, the top-k
//! and the induction were rewritten; this test re-samples and compares.
//! `golden_execute.rs` pins whole reports for nine default configs;
//! this pins the sampler alone, at `η > 0` too, on a graph built to
//! reach the branches a power-law benchmark graph rarely does.
//!
//! There is deliberately no regeneration switch: if a later change
//! moves a sampler's draws on purpose, print `checksum` for every case
//! from a scratch test, review why, and replace the table by hand.

use gnnav_graph::generators::barabasi_albert;
use gnnav_graph::{Graph, GraphBuilder, NodeId};
use gnnav_sampler::{LocalityBias, MiniBatch, Sampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ETAS: [f64; 3] = [0.0, 0.25, 1.0];
const FANOUTS: [[usize; 2]; 3] = [[1, 1], [5, 5], [25, 10]];
const SEEDS: [u64; 3] = [3, 1337, 0x7A51];
const KINDS: [&str; 3] = ["node", "layer", "subgraph"];

/// One row per (graph, sampler kind, `η`, fanouts) in that nesting
/// order, one column per seed.
const PINS: [[u32; 3]; 54] = [
    [0xf0ffb314, 0x24c8c097, 0x3b66f7f0], // 0: ba node eta 0 [1, 1]
    [0xe13abad9, 0xb0c8692f, 0xe0e4461c], // 1: ba node eta 0 [5, 5]
    [0xda47c497, 0x8caef8e2, 0x7ef21d1d], // 2: ba node eta 0 [25, 10]
    [0x57bd9653, 0x05348819, 0xfab1aa67], // 3: ba node eta 0.25 [1, 1]
    [0x1fd3f767, 0x9111d73f, 0x0af5de9c], // 4: ba node eta 0.25 [5, 5]
    [0x37242fa0, 0x83f8b6f9, 0x3ed63906], // 5: ba node eta 0.25 [25, 10]
    [0x84755165, 0x23d763e6, 0x1d5cf879], // 6: ba node eta 1 [1, 1]
    [0x9a2ded1a, 0x99139094, 0x781bfaa4], // 7: ba node eta 1 [5, 5]
    [0x4b810c39, 0xa51be973, 0x5bfe04d4], // 8: ba node eta 1 [25, 10]
    [0x9df6f5b5, 0x91dbe7dd, 0xd3f8c703], // 9: ba layer eta 0 [1, 1]
    [0x4dc388be, 0x51bafd1b, 0x4e5d66aa], // 10: ba layer eta 0 [5, 5]
    [0x35c770d3, 0x49cb51a4, 0x0281ff57], // 11: ba layer eta 0 [25, 10]
    [0xcb81e716, 0xbfb43cfe, 0xfcdd6144], // 12: ba layer eta 0.25 [1, 1]
    [0x1ff4251b, 0x1de6a079, 0x9e680a4f], // 13: ba layer eta 0.25 [5, 5]
    [0x3dcea7f0, 0xb4186c1b, 0x975fae88], // 14: ba layer eta 0.25 [25, 10]
    [0xdeceda6c, 0x1ed60d5b, 0x7df330ad], // 15: ba layer eta 1 [1, 1]
    [0xa6aa2d85, 0x46a45fae, 0x7aa581b4], // 16: ba layer eta 1 [5, 5]
    [0xf1b5bb1b, 0xb6a7950f, 0xe4a086b0], // 17: ba layer eta 1 [25, 10]
    [0x36a62266, 0xc0fa5724, 0x266c693f], // 18: ba subgraph eta 0 [1, 1]
    [0xb6ee46d2, 0x1d0e0eb6, 0x9175e229], // 19: ba subgraph eta 0 [5, 5]
    [0x1b1aabae, 0xdccd7c2c, 0x9c80105a], // 20: ba subgraph eta 0 [25, 10]
    [0xc3b7671b, 0x94c2a498, 0x062dc98c], // 21: ba subgraph eta 0.25 [1, 1]
    [0x89f17170, 0x395a66f3, 0x231cff89], // 22: ba subgraph eta 0.25 [5, 5]
    [0x304eefb7, 0x4783a47f, 0x269812ab], // 23: ba subgraph eta 0.25 [25, 10]
    [0x31a17b44, 0xbcce26fe, 0xfd4022e9], // 24: ba subgraph eta 1 [1, 1]
    [0xa625d8ea, 0x9e677889, 0x7170a90e], // 25: ba subgraph eta 1 [5, 5]
    [0x1e073637, 0x62be736f, 0xf5337d30], // 26: ba subgraph eta 1 [25, 10]
    [0x6a914abb, 0xe070c812, 0xa65aa2d0], // 27: directed node eta 0 [1, 1]
    [0x22a9e670, 0xb4a34040, 0xb5656c94], // 28: directed node eta 0 [5, 5]
    [0x2cdeb7f8, 0x44c12864, 0xfceb0761], // 29: directed node eta 0 [25, 10]
    [0x4d1ff32e, 0x6be02031, 0xa0ab0d18], // 30: directed node eta 0.25 [1, 1]
    [0x2096525e, 0x6b8b1927, 0x4aa8c4c2], // 31: directed node eta 0.25 [5, 5]
    [0x51f190f6, 0x748fe787, 0x2291186d], // 32: directed node eta 0.25 [25, 10]
    [0xb7fe8c6a, 0xa351862d, 0x580abcaa], // 33: directed node eta 1 [1, 1]
    [0xfcaafa86, 0x21f7476d, 0x21bd3418], // 34: directed node eta 1 [5, 5]
    [0x496b09ff, 0x43128ec0, 0x382303f7], // 35: directed node eta 1 [25, 10]
    [0x377db355, 0x3bc48ccd, 0xfae9ef95], // 36: directed layer eta 0 [1, 1]
    [0x9f23d05c, 0xa4e7b55e, 0x83c0794f], // 37: directed layer eta 0 [5, 5]
    [0xf5cc19fd, 0xd639f83e, 0xceb3bfe2], // 38: directed layer eta 0 [25, 10]
    [0x76a9a8f5, 0xe5a35ae8, 0x45a2e27f], // 39: directed layer eta 0.25 [1, 1]
    [0x5ff12fc3, 0x514e3c65, 0xde15a909], // 40: directed layer eta 0.25 [5, 5]
    [0x381a5e10, 0x1bc9815c, 0xfba73894], // 41: directed layer eta 0.25 [25, 10]
    [0x76a9a8f5, 0xda101d92, 0xd601eea1], // 42: directed layer eta 1 [1, 1]
    [0x19c7f757, 0x36263d54, 0x54321a9c], // 43: directed layer eta 1 [5, 5]
    [0xc79a92cf, 0x52ebfd32, 0x16e3700e], // 44: directed layer eta 1 [25, 10]
    [0x30662df2, 0x9875bab1, 0xa15b22c9], // 45: directed subgraph eta 0 [1, 1]
    [0xa248628d, 0x3faf0bd6, 0xf37b5bbd], // 46: directed subgraph eta 0 [5, 5]
    [0x3ef75195, 0x2e4e40c9, 0x43b110e6], // 47: directed subgraph eta 0 [25, 10]
    [0x547501ef, 0x1ac15c49, 0x1e814c79], // 48: directed subgraph eta 0.25 [1, 1]
    [0x748f5fef, 0x4dacbe21, 0x1161f140], // 49: directed subgraph eta 0.25 [5, 5]
    [0x5eeb613e, 0x73a4aeba, 0xd1b3af4c], // 50: directed subgraph eta 0.25 [25, 10]
    [0x32e896ea, 0x53d57e99, 0x1e424896], // 51: directed subgraph eta 1 [1, 1]
    [0xd825d078, 0xb42b52e2, 0x45b86825], // 52: directed subgraph eta 1 [5, 5]
    [0x36b0f107, 0x8a36c1a1, 0xf7409496], // 53: directed subgraph eta 1 [25, 10]
];

/// 240 nodes, directed and not symmetric. Node 0 is a hub pointing at
/// every node, itself included; `v % 12` sets the out-degree of nodes
/// `1..200` (0: none, 1: a lone neighbour, up to 11), every tenth of
/// them also points back at the hub; node 5 carries a self-loop;
/// `200..240` have no out-edge at all.
fn directed() -> Graph {
    const N: u32 = 240;
    let mut b = GraphBuilder::new(N as usize);
    b.keep_self_loops();
    b.add_edges((0..N).map(|v| (0, v)));
    for v in 1..200u32 {
        b.add_edges((0..v % 12).map(|j| (v, (v * (2 * j + 3) + j * j + 1) % N)));
        if v % 10 == 0 {
            b.add_edge(v, 0);
        }
    }
    b.add_edge(5, 5);
    b.build().expect("edges in range")
}

fn sampler(kind: &str, fanouts: [usize; 2], bias: LocalityBias) -> Sampler {
    match kind {
        "node" => Sampler::node_wise(fanouts.to_vec(), bias),
        // Budgets that reach all three shapes of the layer-wise pick:
        // a lone pick ([8, 1]), a true top-k, and a budget that
        // covers every candidate (200 on the directed graph).
        "layer" => Sampler::layer_wise(vec![fanouts[0] * 8, fanouts[1]], bias),
        _ => Sampler::subgraph_wise(fanouts.iter().sum(), bias),
    }
}

/// CRC-32 (IEEE, reflected), bit at a time: the sampler crate has no
/// edge to `gnnav-store`, and a test must not add one.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

fn checksum(mb: &MiniBatch, rng: &StdRng) -> u32 {
    let mut bytes = Vec::new();
    let mut ids = |list: &[NodeId]| {
        bytes.extend_from_slice(&(list.len() as u64).to_le_bytes());
        bytes.extend(list.iter().flat_map(|v| v.to_le_bytes()));
    };
    ids(&[mb.layers.len() as u32, mb.targets_len as u32]);
    mb.layers.iter().for_each(|layer| ids(layer));
    ids(&mb.nodes);
    ids(mb.subgraph.targets());
    bytes.extend(mb.subgraph.offsets().iter().flat_map(|&o| (o as u64).to_le_bytes()));
    bytes.extend(rng.state().iter().flat_map(|s| s.to_le_bytes()));
    crc32(&bytes)
}

#[test]
fn crc32_check_value() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn directed_graph_has_the_shapes_the_pins_rely_on() {
    let g = directed();
    assert_eq!(g.degree(0), g.num_nodes(), "hub reaches everything");
    assert!(g.has_edge(5, 5) && g.has_edge(10, 0) && g.has_edge(0, 0));
    assert_eq!((g.degree(12), g.degree(13), g.degree(230)), (0, 1, 0));
    assert!(g.edges().any(|(u, v)| !g.has_edge(v, u)), "not symmetric");
}

/// The checksum of every case, labelled, in the order of [`PINS`].
fn checksums() -> Vec<(String, u32)> {
    let ba = barabasi_albert(500, 4, 1).expect("gen");
    let ba_hot: Vec<NodeId> = (0..50).collect();
    let di = directed();
    let di_hot: Vec<NodeId> = (0..240).filter(|v| v % 5 == 0).collect();
    let mut out = Vec::new();
    for (name, g, hot, count, stride) in
        [("ba", &ba, &ba_hot, 48u32, 11u32), ("directed", &di, &di_hot, 40, 7)]
    {
        let n = g.num_nodes() as u32;
        for kind in KINDS {
            for eta in ETAS {
                for fanouts in FANOUTS {
                    for (i, seed) in SEEDS.into_iter().enumerate() {
                        // Distinct ids (the strides are coprime to n);
                        // the first seed's set starts at node 0, the
                        // hub of the directed graph.
                        let targets: Vec<NodeId> =
                            (0..count).map(|t| (i as u32 * 17 + t * stride) % n).collect();
                        let bias = LocalityBias::new(g.num_nodes(), hot, eta);
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mb = sampler(kind, fanouts, bias)
                            .sample(g, &targets, &mut rng)
                            .expect("targets in range");
                        let label = format!("{name} {kind} eta {eta} {fanouts:?} seed {seed}");
                        out.push((label, checksum(&mb, &rng)));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn samplers_reproduce_the_pinned_batches_and_rng_streams() {
    let got = checksums();
    assert_eq!(got.len(), PINS.len() * SEEDS.len());
    let moved: Vec<String> = got
        .iter()
        .zip(PINS.iter().flatten())
        .filter(|((_, crc), pin)| crc != *pin)
        .map(|((label, crc), pin)| format!("{label}: {crc:#010x}, pinned {pin:#010x}"))
        .collect();
    assert!(moved.is_empty(), "{} of {} moved:\n{}", moved.len(), got.len(), moved.join("\n"));
}

//! Bitwise identity of the parallel kernels across thread counts.
//!
//! Every parallel kernel in the NN substrate partitions *output*
//! elements over workers while keeping the per-element accumulation
//! order identical to the serial loop. That makes results bitwise
//! reproducible regardless of pool width — the property the
//! determinism suite and `(seed, plan)` fault replay depend on. These
//! tests pin it down: each kernel is run under
//! [`gnnav_par::with_thread_limit`] at widths 1/2/4/8 and the outputs
//! are compared bit-for-bit against the single-threaded reference.
//!
//! Thread limits above the core count still exercise real worker
//! threads (the limit overrides the hardware budget), so this suite is
//! meaningful even on single-core CI runners.
//!
//! The row-restricted forms of the kernels (an output layer computing
//! only the loss rows; see `gnnav_nn::layers`) run over the degree
//! schedule *clamped* to a row prefix, so they get the same sweep: at
//! every width, and against the matching rows of the full-height
//! result.

use gnnav_graph::generators::barabasi_albert;
use gnnav_graph::{Graph, GraphBuilder};
use gnnav_nn::layers::{
    gcn_aggregate, gcn_aggregate_into, mean_aggregate, mean_aggregate_backward,
    mean_aggregate_backward_into, mean_aggregate_into, GatLayer, Layer,
};
use gnnav_nn::scratch::ScratchArena;
use gnnav_nn::tensor::Matrix;
use gnnav_nn::{Adam, GnnModel, ModelKind};
use proptest::prelude::*;

const WIDTHS: [usize; 3] = [2, 4, 8];

/// All widths including the serial reference — the degree-bucketed
/// tests sweep 1/2/4/8 explicitly so width 1 also runs through the
/// weighted-task scheduler (single-run path) rather than being assumed.
const ALL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn assert_bits_eq(label: &str, a: &Matrix, b: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.rows(), b.rows(), "{} rows", label);
    prop_assert_eq!(a.cols(), b.cols(), "{} cols", label);
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        prop_assert!(
            x.to_bits() == y.to_bits(),
            "{}: element {} differs bitwise: {:?} vs {:?}",
            label,
            i,
            x,
            y
        );
    }
    Ok(())
}

/// Builds a symmetric graph from a raw (possibly duplicated) edge
/// list; self-loops are dropped.
fn build_graph(n: usize, edges: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    // A ring keeps every node connected so degrees are never zero.
    for v in 0..n as u32 {
        b.add_edge(v, (v + 1) % n as u32);
    }
    for &(u, v) in edges {
        let (u, v) = (u % n, v % n);
        if u != v {
            b.add_edge(u as u32, v as u32);
        }
    }
    b.symmetrize().build().expect("build")
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// A skewed power-law graph whose degree sequence actually exercises
/// the bucketed schedule: Barabási–Albert preferential attachment plus
/// a star overlay on node 0 guarantees at least one hub row above the
/// heavy-degree threshold while the leaf tail batches into light
/// groups.
fn skewed_graph(n: usize, seed: u64) -> Graph {
    let ba = barabasi_albert(n, 3, seed).expect("gen");
    let mut b = GraphBuilder::new(n);
    for (u, v) in ba.edges() {
        b.add_edge(u, v);
    }
    for v in 1..(n as u32).min(100) {
        b.add_edge(0, v);
    }
    b.symmetrize().build().expect("build")
}

#[test]
fn bucketed_aggregations_identical_across_widths() {
    // Wide feature dimension (128 >= 2 * FEAT_TILE) so hub rows split
    // into column tiles — the full degree-aware schedule, not just the
    // light-group path.
    let g = skewed_graph(300, 5);
    let sched = g.agg_schedule();
    assert!(sched.fwd.heavy_groups > 0, "graph must produce heavy groups");
    assert!(sched.fwd.groups.len() > sched.fwd.heavy_groups, "and light groups");
    for d in [1usize, 3, 128] {
        let x = gnnav_nn::init::glorot_uniform(300, d, 6);
        let reference = gnnav_par::with_thread_limit(1, || {
            (gcn_aggregate(&g, &x), mean_aggregate(&g, &x), mean_aggregate_backward(&g, &x))
        });
        for w in ALL_WIDTHS {
            let (gc, me, mb) = gnnav_par::with_thread_limit(w, || {
                (gcn_aggregate(&g, &x), mean_aggregate(&g, &x), mean_aggregate_backward(&g, &x))
            });
            let check = |label: &str, a: &Matrix, b: &Matrix| {
                for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "{label} d={d} width={w}: element {i} differs: {x:?} vs {y:?}"
                    );
                }
            };
            check("gcn_aggregate", &reference.0, &gc);
            check("mean_aggregate", &reference.1, &me);
            check("mean_aggregate_backward", &reference.2, &mb);
        }
    }
}

#[test]
fn bucketed_gat_identical_across_widths() {
    // GAT exercises every scheduled code path at once: the span-carved
    // softmax pass, the column-tiled output pass (out_dim 128), and
    // the transpose-grouped backward gather.
    let g = skewed_graph(200, 9);
    assert!(g.agg_schedule().fwd.heavy_groups > 0);
    let x = gnnav_nn::init::glorot_uniform(200, 8, 10);
    let r = gnnav_nn::init::glorot_uniform(200, 128, 11);
    let run = |w: usize| {
        gnnav_par::with_thread_limit(w, || {
            let mut layer = GatLayer::new(8, 128, 12);
            let mut scratch = ScratchArena::new();
            let out = layer.forward(&g, x.view(), 200, &mut scratch);
            layer.zero_grad();
            let gx = layer.backward(&g, &r, true, &mut scratch).expect("input gradient");
            (out, gx)
        })
    };
    let reference = run(1);
    for w in ALL_WIDTHS {
        let (out, gx) = run(w);
        for (label, a, b) in [("forward", &reference.0, &out), ("backward", &reference.1, &gx)] {
            for (i, (p, q)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                assert!(
                    p.to_bits() == q.to_bits(),
                    "gat {label} width={w}: element {i} differs: {p:?} vs {q:?}"
                );
            }
        }
    }
}

fn assert_slices_bit_equal(label: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert!(p.to_bits() == q.to_bits(), "{label}: element {i} differs: {p:?} vs {q:?}");
    }
}

#[test]
fn restricted_aggregations_identical_across_widths_and_to_full_height() {
    // Row prefixes that stop at the hub row alone (1), inside a light
    // group (37, 150) and one short of everything (299); narrow and
    // column-tiled feature widths.
    let n = 300;
    let g = skewed_graph(n, 5);
    for d in [3usize, 128] {
        let x = gnnav_nn::init::glorot_uniform(n, d, 6);
        let full = gnnav_par::with_thread_limit(1, || {
            (gcn_aggregate(&g, &x), mean_aggregate(&g, &x), mean_aggregate_backward(&g, &x))
        });
        for rows in [1usize, 37, 150, 299, n] {
            // A zero-extended input: rows `>= rows` of `x` cleared, so
            // the full-height kernels see the matrix the short input
            // stands for.
            let short = Matrix::from_vec(rows, d, x.as_slice()[..rows * d].to_vec());
            let mut padded = Matrix::zeros(n, d);
            padded.as_mut_slice()[..rows * d].copy_from_slice(short.as_slice());
            let (pad_gcn, pad_mean_bwd) = gnnav_par::with_thread_limit(1, || {
                (gcn_aggregate(&g, &padded), mean_aggregate_backward(&g, &padded))
            });
            for w in ALL_WIDTHS {
                let label = format!("d={d} rows={rows} width={w}");
                gnnav_par::with_thread_limit(w, || {
                    // Output prefix: the leading rows of the full result.
                    let mut out = Matrix::zeros(rows, d);
                    gcn_aggregate_into(&g, x.view(), &mut out);
                    assert_slices_bit_equal(
                        &format!("gcn out-prefix {label}"),
                        out.as_slice(),
                        &full.0.as_slice()[..rows * d],
                    );
                    mean_aggregate_into(&g, x.view(), &mut out);
                    assert_slices_bit_equal(
                        &format!("mean out-prefix {label}"),
                        out.as_slice(),
                        &full.1.as_slice()[..rows * d],
                    );
                    // Input prefix: the full result on the zero-extended input.
                    let mut back = Matrix::zeros(n, d);
                    gcn_aggregate_into(&g, short.view(), &mut back);
                    assert_slices_bit_equal(
                        &format!("gcn in-prefix {label}"),
                        back.as_slice(),
                        pad_gcn.as_slice(),
                    );
                    mean_aggregate_backward_into(&g, &short, &mut back);
                    assert_slices_bit_equal(
                        &format!("mean_bwd in-prefix {label}"),
                        back.as_slice(),
                        pad_mean_bwd.as_slice(),
                    );
                });
            }
        }
    }
}

#[test]
fn restricted_gat_identical_across_widths_and_to_full_height() {
    // The destination-side GAT passes (softmax spans, output rows,
    // dpre/ds_r) on a row prefix; source-side passes at full height
    // gathering only from that prefix.
    let n = 200;
    let g = skewed_graph(n, 9);
    let x = gnnav_nn::init::glorot_uniform(n, 8, 10);
    let r = gnnav_nn::init::glorot_uniform(n, 128, 11);
    let grads = |layer: &mut GatLayer| -> Vec<f32> {
        let mut flat = Vec::new();
        layer.for_each_param(&mut |p| match p {
            gnnav_nn::layers::ParamRef::Linear(lin) => {
                flat.extend_from_slice(lin.gw.as_slice());
                flat.extend_from_slice(&lin.gb);
            }
            gnnav_nn::layers::ParamRef::Vector(v) => flat.extend_from_slice(&v.g),
        });
        flat
    };
    for rows in [1usize, 77, n] {
        // Full-height reference on the zero-extended output gradient.
        let mut r_padded = Matrix::zeros(n, 128);
        r_padded.as_mut_slice()[..rows * 128].copy_from_slice(&r.as_slice()[..rows * 128]);
        let r_short = Matrix::from_vec(rows, 128, r.as_slice()[..rows * 128].to_vec());
        let (full_out, full_gx, full_grads) = gnnav_par::with_thread_limit(1, || {
            let mut layer = GatLayer::new(8, 128, 12);
            let mut scratch = ScratchArena::new();
            let out = layer.forward(&g, x.view(), n, &mut scratch);
            layer.zero_grad();
            let gx = layer.backward(&g, &r_padded, true, &mut scratch).expect("input gradient");
            (out, gx, grads(&mut layer))
        });
        for w in ALL_WIDTHS {
            let label = format!("gat rows={rows} width={w}");
            let (out, gx, got_grads) = gnnav_par::with_thread_limit(w, || {
                let mut layer = GatLayer::new(8, 128, 12);
                let mut scratch = ScratchArena::new();
                let out = layer.forward(&g, x.view(), rows, &mut scratch);
                layer.zero_grad();
                let gx = layer.backward(&g, &r_short, true, &mut scratch).expect("input gradient");
                (out, gx, grads(&mut layer))
            });
            assert_slices_bit_equal(
                &format!("{label} forward"),
                out.as_slice(),
                &full_out.as_slice()[..rows * 128],
            );
            assert_slices_bit_equal(&format!("{label} gx"), gx.as_slice(), full_gx.as_slice());
            assert_slices_bit_equal(&format!("{label} param grads"), &got_grads, &full_grads);
        }
    }
}

#[test]
fn restricted_training_identical_across_widths() {
    // Whole training steps on a prefix target set (T < n), every model
    // kind, on the skewed graph so heavy groups, light groups and the
    // clamped cut are all in play.
    let n = 200;
    let g = skewed_graph(n, 13);
    let x = gnnav_nn::init::glorot_uniform(n, 12, 14);
    let labels: Vec<u16> = (0..n as u16).map(|v| v % 5).collect();
    let targets: Vec<u32> = (0..61).collect();
    for kind in ModelKind::ALL {
        let run = |w: usize| {
            gnnav_par::with_thread_limit(w, || {
                let mut m = GnnModel::new(kind, 12, 128, 5, 2, 15);
                m.set_dropout(0.2);
                let mut opt = Adam::new(0.01);
                let losses: Vec<f32> = (0..3)
                    .map(|_| {
                        gnnav_nn::train::train_step(&mut m, &mut opt, &g, &x, &labels, &targets)
                    })
                    .collect();
                (losses, m.param_vector())
            })
        };
        let reference = run(1);
        for w in WIDTHS {
            let (losses, params) = run(w);
            assert_slices_bit_equal(&format!("{kind} losses width={w}"), &losses, &reference.0);
            assert_slices_bit_equal(&format!("{kind} params width={w}"), &params, &reference.1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn matmul_variants_identical_across_widths(
        a in matrix(9, 7),
        b in matrix(7, 5),
        c in matrix(9, 5),
    ) {
        let reference = gnnav_par::with_thread_limit(1, || {
            (a.matmul(&b), a.matmul_at_b(&c), b.matmul_a_bt(&c))
        });
        for w in WIDTHS {
            let (ab, atb, abt) = gnnav_par::with_thread_limit(w, || {
                (a.matmul(&b), a.matmul_at_b(&c), b.matmul_a_bt(&c))
            });
            assert_bits_eq("matmul", &reference.0, &ab)?;
            assert_bits_eq("matmul_at_b", &reference.1, &atb)?;
            assert_bits_eq("matmul_a_bt", &reference.2, &abt)?;
        }
    }

    #[test]
    fn aggregations_identical_across_widths(
        n in 2usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
        vals in proptest::collection::vec(-3.0f32..3.0, 12 * 6),
    ) {
        let g = build_graph(n, &edges);
        let x = Matrix::from_vec(n, 6, vals[..n * 6].to_vec());
        let reference = gnnav_par::with_thread_limit(1, || {
            (gcn_aggregate(&g, &x), mean_aggregate(&g, &x), mean_aggregate_backward(&g, &x))
        });
        for w in WIDTHS {
            let (gc, me, mb) = gnnav_par::with_thread_limit(w, || {
                (gcn_aggregate(&g, &x), mean_aggregate(&g, &x), mean_aggregate_backward(&g, &x))
            });
            assert_bits_eq("gcn_aggregate", &reference.0, &gc)?;
            assert_bits_eq("mean_aggregate", &reference.1, &me)?;
            assert_bits_eq("mean_aggregate_backward", &reference.2, &mb)?;
        }
    }

    #[test]
    fn model_forward_and_training_identical_across_widths(
        kind_idx in 0usize..3,
        seed in 0u64..20,
        n in 4usize..10,
        edges in proptest::collection::vec((0usize..10, 0usize..10), 0..25),
    ) {
        let kind = ModelKind::ALL[kind_idx];
        let g = build_graph(n, &edges);
        let x = gnnav_nn::init::glorot_uniform(n, 5, seed);
        let labels: Vec<u16> = (0..n as u16).map(|v| v % 3).collect();
        let targets: Vec<u32> = (0..n as u32).collect();

        // Forward + three full training steps (forward, loss,
        // backward, Adam) under each width: any single bit of
        // divergence in a gradient would compound into the weights and
        // show up in the final logits.
        let run = |w: usize| {
            gnnav_par::with_thread_limit(w, || {
                let mut m = GnnModel::new(kind, 5, 8, 3, 2, seed);
                let first = m.forward(&g, &x);
                let mut opt = Adam::new(0.01);
                let mut losses = Vec::new();
                for _ in 0..3 {
                    losses.push(gnnav_nn::train::train_step(
                        &mut m, &mut opt, &g, &x, &labels, &targets,
                    ));
                }
                m.set_train_mode(false);
                (first, losses, m.forward(&g, &x))
            })
        };
        let reference = run(1);
        for w in WIDTHS {
            let (first, losses, last) = run(w);
            assert_bits_eq("forward", &reference.0, &first)?;
            for (i, (a, b)) in reference.1.iter().zip(&losses).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "loss {} differs at width {}: {:?} vs {:?}",
                    i,
                    w,
                    a,
                    b
                );
            }
            assert_bits_eq("post-training forward", &reference.2, &last)?;
        }
    }
}

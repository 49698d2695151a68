//! A training step that computes only what the loss reads changes no
//! bit of what it still computes.
//!
//! [`train::train_step`] runs the output layer on the target-row prefix
//! `0..T` and declines the first layer's input gradient. The reference
//! here is the *same code* driven the long way round: every layer at
//! full subgraph height (`out_rows = n`) and every layer asked for its
//! input gradient (`need_input_grad = true`), through the public
//! [`GnnModel::forward`] / [`GnnModel::backward_with_input_grad`]. Over
//! five optimizer steps on changing batches the two must agree
//! `to_bits` for `to_bits` on every loss, every parameter scalar and
//! the whole Adam state — for every architecture, depth and dropout
//! setting, on induced subgraphs with `T < n`, `T = n`, `T = 1`,
//! isolated targets, and features that contain `-0.0`.

use gnnav_graph::{Graph, GraphBuilder};
use gnnav_nn::loss::softmax_cross_entropy;
use gnnav_nn::tensor::Matrix;
use gnnav_nn::{train, Adam, GnnModel, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const IN_DIM: usize = 7;
const HIDDEN: usize = 9;
const CLASSES: usize = 4;
const STEPS: usize = 5;

fn build_model(kind: ModelKind, layers: usize, dropout: f32, seed: u64) -> GnnModel {
    let mut m = GnnModel::new(kind, IN_DIM, HIDDEN, CLASSES, layers, seed);
    m.set_dropout(dropout);
    m
}

/// One mini-batch: an induced subgraph whose first `targets` local ids
/// are the loss rows.
struct Batch {
    g: Graph,
    x: Matrix,
    labels: Vec<u16>,
    targets: usize,
}

/// How many of the subgraph's nodes are targets.
#[derive(Debug, Clone, Copy)]
enum Targets {
    Some,
    All,
    One,
}

/// A random sparse base graph in which nodes `0..isolated` have no
/// edges at all, induced on a shuffled node subset that starts with a
/// few of those isolated nodes — so the batch has isolated *targets*
/// as well as connected ones.
fn random_batch(rng: &mut StdRng, targets: Targets) -> Batch {
    let base_n = rng.gen_range(24usize..60);
    let isolated = 3usize;
    let mut b = GraphBuilder::new(base_n);
    for _ in 0..rng.gen_range(base_n..4 * base_n) {
        let u = rng.gen_range(isolated..base_n) as u32;
        let v = rng.gen_range(isolated..base_n) as u32;
        if u != v {
            b.add_edge(u, v);
        }
    }
    let base = b.symmetrize().build().expect("build");

    // Fisher–Yates over the connected ids, then two isolated nodes up
    // front (they become the first targets) and one at the very end (an
    // isolated non-target whenever T < n).
    let mut pool: Vec<u32> = (isolated as u32..base_n as u32).collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    pool.truncate(rng.gen_range(8..=pool.len()));
    let mut nodes = vec![0u32, 1];
    nodes.extend(pool);
    nodes.push(2);
    let (g, _) = base.induced_subgraph(&nodes).expect("induce");
    let n = g.num_nodes();

    let t = match targets {
        Targets::Some => rng.gen_range(3..n),
        Targets::All => n,
        Targets::One => 1,
    };
    // Features in [-1, 1) with exact zeros of both signs mixed in.
    let data = (0..n * IN_DIM)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => -0.0f32,
            1 => 0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect();
    let labels = (0..n).map(|_| rng.gen_range(0..CLASSES as u16)).collect();
    Batch { g, x: Matrix::from_vec(n, IN_DIM, data), labels, targets: t }
}

/// `train_step` spelled out at full height with every input gradient
/// requested — the path the restricted step must reproduce.
fn reference_step(model: &mut GnnModel, opt: &mut Adam, batch: &Batch) -> f32 {
    let target_rows: Vec<u32> = (0..batch.targets as u32).collect();
    model.set_train_mode(true);
    let logits = model.forward(&batch.g, &batch.x);
    assert_eq!(logits.rows(), batch.g.num_nodes(), "reference runs at full height");
    let (loss, grad) = softmax_cross_entropy(&logits, &batch.labels, &target_rows);
    model.zero_grad();
    let gx = model.backward_with_input_grad(&batch.g, &grad);
    assert_eq!((gx.rows(), gx.cols()), (batch.g.num_nodes(), IN_DIM));
    opt.step_with(|f| model.for_each_param_mut(f));
    loss
}

fn assert_bits_match(what: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert!(p.to_bits() == q.to_bits(), "{what}: scalar {i} differs: {p:?} vs {q:?}");
    }
}

fn check(kind: ModelKind, layers: usize, dropout: f32, seed: u64) {
    let what = format!("{kind:?} L={layers} dropout={dropout} seed={seed}");
    let mut rng = StdRng::seed_from_u64(seed);
    // Every step sees a new batch, and the three target shapes rotate,
    // so the arena and the layer caches are reshaped between steps.
    let batches: Vec<Batch> = (0..STEPS)
        .map(|s| {
            let targets = [Targets::Some, Targets::One, Targets::All][(s + seed as usize) % 3];
            random_batch(&mut rng, targets)
        })
        .collect();

    let mut fast = build_model(kind, layers, dropout, seed);
    let mut slow = build_model(kind, layers, dropout, seed);
    let mut fast_opt = Adam::new(0.01);
    let mut slow_opt = Adam::new(0.01);
    for (s, batch) in batches.iter().enumerate() {
        let target_rows: Vec<u32> = (0..batch.targets as u32).collect();
        let got = train::train_step(
            &mut fast,
            &mut fast_opt,
            &batch.g,
            &batch.x,
            &batch.labels,
            &target_rows,
        );
        let want = reference_step(&mut slow, &mut slow_opt, batch);
        assert!(want.is_finite(), "{what}: step {s} loss {want}");
        assert!(
            got.to_bits() == want.to_bits(),
            "{what}: step {s} (T={} of n={}) loss {got:?} vs {want:?}",
            batch.targets,
            batch.g.num_nodes()
        );
    }
    assert_bits_match(&format!("{what}: parameters"), &fast.param_vector(), &slow.param_vector());
    let (fs, ss) = (fast_opt.state(), slow_opt.state());
    assert_eq!(fs.t, ss.t, "{what}: Adam step count");
    assert_eq!(fs.m.len(), ss.m.len(), "{what}: Adam slots");
    for (i, ((fm, sm), (fv, sv))) in fs.m.iter().zip(&ss.m).zip(fs.v.iter().zip(&ss.v)).enumerate()
    {
        assert_bits_match(&format!("{what}: Adam m[{i}]"), fm, sm);
        assert_bits_match(&format!("{what}: Adam v[{i}]"), fv, sv);
    }
    assert_eq!(
        fast.dropout_rng_state(),
        slow.dropout_rng_state(),
        "{what}: the restricted step must draw the same dropout masks"
    );
}

#[test]
fn restricted_step_matches_full_height_reference_bit_for_bit() {
    for kind in ModelKind::ALL {
        for layers in 1..=3 {
            for dropout in [0.0f32, 0.4] {
                for seed in [3u64, 17, 101] {
                    check(kind, layers, dropout, seed);
                }
            }
        }
    }
}

#[test]
fn batches_really_contain_the_hard_cases() {
    // The generator is only as good as what it produces: isolated
    // targets, an isolated non-target, both zero signs, and T strictly
    // inside 1..n.
    let mut rng = StdRng::seed_from_u64(7);
    let b = random_batch(&mut rng, Targets::Some);
    let n = b.g.num_nodes();
    assert!(b.targets > 2 && b.targets < n);
    assert_eq!(b.g.degree(0) + b.g.degree(1), 0, "first two targets are isolated");
    assert_eq!(b.g.degree(n as u32 - 1), 0, "last node is an isolated non-target");
    assert!((2..b.targets as u32).any(|v| b.g.degree(v) > 0), "and some target has neighbors");
    let bits: Vec<u32> = b.x.as_slice().iter().map(|v| v.to_bits()).collect();
    assert!(bits.contains(&(-0.0f32).to_bits()) && bits.contains(&0.0f32.to_bits()));
}

#[test]
fn non_prefix_targets_run_the_same_code_at_full_height() {
    // A target set that is not `0..T` (here: reversed) cannot use the
    // prefix, so `train_step` runs the output layer at full height. It
    // must still agree with the reference driven on the same rows.
    for kind in ModelKind::ALL {
        let mut rng = StdRng::seed_from_u64(23);
        let batch = random_batch(&mut rng, Targets::Some);
        let rows: Vec<u32> = (0..batch.targets as u32).rev().collect();
        let mut fast = build_model(kind, 2, 0.0, 5);
        let mut slow = build_model(kind, 2, 0.0, 5);
        let (mut fo, mut so) = (Adam::new(0.01), Adam::new(0.01));
        let got = train::train_step(&mut fast, &mut fo, &batch.g, &batch.x, &batch.labels, &rows);
        slow.set_train_mode(true);
        let logits = slow.forward(&batch.g, &batch.x);
        let (want, grad) = softmax_cross_entropy(&logits, &batch.labels, &rows);
        slow.zero_grad();
        slow.backward(&batch.g, &grad);
        so.step_with(|f| slow.for_each_param_mut(f));
        assert!(got.to_bits() == want.to_bits(), "{kind:?}: loss {got:?} vs {want:?}");
        assert_bits_match(&format!("{kind:?}"), &fast.param_vector(), &slow.param_vector());
    }
}

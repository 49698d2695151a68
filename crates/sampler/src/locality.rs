//! Locality-aware neighbor selection bias — the `p(η)` of Eq. 2.
//!
//! Biased samplers (2PGraph's cache-aware sampling) prefer neighbors
//! that are already resident on the device. We model this with a *hot
//! set* of node ids (typically the cache-resident, high-degree nodes)
//! and a bias strength `η ∈ [0, 1]`: at `η = 0` selection is uniform;
//! as `η → 1` hot neighbors become up to `1 + HOT_WEIGHT_MAX`× more
//! likely to be selected.
//!
//! # Selection, and what it is allowed to skip
//!
//! Weighted selection without replacement is Efraimidis–Spirakis:
//! candidate `i` draws one uniform `u_i` (in candidate order, always,
//! so the generator's stream is a function of the candidate count
//! alone) and is keyed `u_i^(1/w_i)`; the `k` largest keys win, listed
//! by key descending and, among equal keys, by candidate position
//! ascending — the order a stable descending sort leaves. Ties are
//! real: an infinite extra weight keys everything at 1.0 and a
//! vanishing one underflows keys to 0.0. The picks and the stream are
//! outputs (they reach every `MiniBatch`); the `powf` calls and the
//! sort are not, and are paid only where a pick depends on them:
//!
//! - **Unit weight.** At `w == 1.0` the key is `u` itself and `powf` is
//!   not called. `u^1 = u` is representable, so a `powf` accurate to
//!   under one ULP returns exactly `u`;
//!   `unit_weight_key_is_the_draw_bit_for_bit` checks the platform's
//!   on 10⁶ draws and at the `1e-12` clamp.
//! - **The single pick without an extra weight** has two weights only,
//!   1 and `w = 1 + HOT_WEIGHT_MAX·η`. A hot candidate can take the
//!   lead only if `u^(1/w) > best`, i.e. `u > best^w`, so a hot draw
//!   with `u < best.powf(w) · (1 − 1e-9)` is dropped without being
//!   keyed. The margin is what makes that exact rather than likely:
//!   assuming `powf` is within 1 ULP (at most `2.3e-16` relative),
//!   the computed floor is below `best^w · (1 + 2.3e-16)(1 − 1e-9)`,
//!   so such a draw has a true key below `best · (1 − 1e-9)^(1/w) ≤
//!   best · (1 − 4.9e-11)` for `w ≤ 20`; the correctly rounded `1/w`
//!   moves the key by at most `|ln u| · 1.2e-16 ≤ 3.1e-15` relative
//!   (`u ≥ 1e-12`) and the key's own `powf` by another `2.3e-16` —
//!   four orders of magnitude short of bridging the gap, so the
//!   computed key would have lost the `key > best` comparison too.
//!   Everything at or above the floor is keyed and compared exactly
//!   as before.
//!   `single_pick_matches_the_general_form_and_its_rng_stream` holds
//!   the pruned pick to the key-everything form on 10⁶ cases, a
//!   quarter of them with draws scripted to within `±1e-8` relative of
//!   the floor.
//! - **Top-k** (`1 < k < n`) keys every candidate but orders only what
//!   it keeps: `select_nth_unstable_by` around the `k`-th entry, then a
//!   sort of the kept prefix, both under the total order above
//!   (`top_k_matches_the_stable_sort_under_ties`).

use gnnav_graph::NodeId;

/// Maximum selection-weight multiplier a hot node can receive
/// (reached at `η = 1`).
pub const HOT_WEIGHT_MAX: f64 = 19.0;

/// A locality bias: hot-node membership plus a strength `η`.
#[derive(Debug, Clone)]
pub struct LocalityBias {
    hot: Vec<bool>,
    eta: f64,
}

impl LocalityBias {
    /// Creates a bias over `num_nodes` nodes marking `hot_nodes` as
    /// hot, with strength `eta`.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not in `[0, 1]` or a hot id is out of range.
    pub fn new(num_nodes: usize, hot_nodes: &[NodeId], eta: f64) -> Self {
        assert!((0.0..=1.0).contains(&eta), "eta must be in [0, 1]");
        let mut hot = vec![false; num_nodes];
        for &v in hot_nodes {
            hot[v as usize] = true;
        }
        LocalityBias { hot, eta }
    }

    /// An unbiased placeholder (`η = 0`, empty hot set).
    pub fn none(num_nodes: usize) -> Self {
        LocalityBias { hot: vec![false; num_nodes], eta: 0.0 }
    }

    /// Bias strength `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Whether node `v` is hot.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_hot(&self, v: NodeId) -> bool {
        self.hot[v as usize]
    }

    /// Selection weight of node `v`: `1 + η·(HOT_WEIGHT_MAX)` when hot,
    /// `1` otherwise.
    pub fn weight(&self, v: NodeId) -> f64 {
        if self.hot[v as usize] {
            1.0 + self.eta * HOT_WEIGHT_MAX
        } else {
            1.0
        }
    }

    /// Samples `k` items from `candidates` without replacement,
    /// proportional to [`LocalityBias::weight`] (times `extra_weight`
    /// per candidate when provided, e.g. degree importance).
    ///
    /// Returns all candidates when `k >= candidates.len()`.
    pub fn weighted_sample_without_replacement(
        &self,
        candidates: &[NodeId],
        extra_weight: Option<&dyn Fn(NodeId) -> f64>,
        k: usize,
        rng: &mut impl rand::Rng,
    ) -> Vec<NodeId> {
        let mut picked = Vec::with_capacity(k.min(candidates.len()));
        self.sample_each(candidates, extra_weight, k, rng, &mut Vec::new(), |v| picked.push(v));
        picked
    }

    /// [`LocalityBias::weighted_sample_without_replacement`] handing
    /// each pick to `emit` in the order the `Vec` form lists them.
    /// `keyed` is scratch for the top-k keys: a caller that selects
    /// once per frontier vertex passes the same buffer every time.
    fn sample_each(
        &self,
        candidates: &[NodeId],
        extra_weight: Option<&dyn Fn(NodeId) -> f64>,
        k: usize,
        rng: &mut impl rand::Rng,
        keyed: &mut Vec<(f64, u32)>,
        mut emit: impl FnMut(NodeId),
    ) {
        if k >= candidates.len() {
            candidates.iter().copied().for_each(emit);
        } else if k == 1 {
            emit(self.weighted_pick(candidates, extra_weight, rng));
        } else {
            // Key every candidate, keep the top `k`: partition around
            // the k-th key, then order only the kept prefix.
            keyed.clear();
            keyed.extend(
                candidates
                    .iter()
                    .zip(0u32..)
                    .map(|(&v, at)| (self.draw_key(v, extra_weight, rng), at)),
            );
            // `k = 0` keeps nothing but has drawn every key.
            let Some(last) = k.checked_sub(1) else { return };
            keyed.select_nth_unstable_by(last, by_key_then_position);
            keyed[..k].sort_unstable_by(by_key_then_position);
            keyed[..k].iter().for_each(|&(_, at)| emit(candidates[at as usize]));
        }
    }

    /// One weighted draw: what
    /// [`LocalityBias::weighted_sample_without_replacement`] returns
    /// for `k = 1`, without the `Vec` — a lone candidate is returned
    /// as is and consumes no randomness, otherwise every candidate
    /// draws in order and the first strict maximum of the keys wins
    /// (the head of [`by_key_then_position`]).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub(crate) fn weighted_pick(
        &self,
        candidates: &[NodeId],
        extra_weight: Option<&dyn Fn(NodeId) -> f64>,
        rng: &mut impl rand::Rng,
    ) -> NodeId {
        let (&first, rest) = candidates.split_first().expect("at least one candidate");
        if rest.is_empty() {
            return first;
        }
        let mut best = (self.draw_key(first, extra_weight, rng), first);
        if extra_weight.is_some() {
            for &v in rest {
                let key = self.draw_key(v, extra_weight, rng);
                if key > best.0 {
                    best = (key, v);
                }
            }
            return best.1;
        }
        // Two weights only, 1 and `hot`: a cold key is its draw, and a
        // hot draw under `floor` keys below the best so far whatever
        // `powf` rounds to (module docs), so it is dropped unkeyed.
        // The floor moves only inside the branch that moves the best
        // (O(log n) times a pick). Updated lazily instead — on the
        // next hot candidate — it measured as slow as no pruning: the
        // compiler hoists that `powf` and pays it per candidate.
        let hot = 1.0 + self.eta * HOT_WEIGHT_MAX;
        let mut floor = best.0.powf(hot) * PRUNE_MARGIN;
        for &v in rest {
            let u = draw(rng);
            let key = if !self.is_hot(v) {
                u
            } else if u < floor {
                continue;
            } else {
                Self::key(u, hot)
            };
            if key > best.0 {
                best = (key, v);
                floor = key.powf(hot) * PRUNE_MARGIN;
            }
        }
        best.1
    }

    /// Efraimidis–Spirakis reservoir key `u^(1/w)` of one uniform draw
    /// `u`. Finite and in `[0, 1]` for `u ∈ [1e-12, 1)` and `w > 0`;
    /// at unit weight it is the draw itself, which is also what `powf`
    /// returns there (module docs).
    fn key(u: f64, w: f64) -> f64 {
        if w == 1.0 {
            return u;
        }
        u.powf(1.0 / w)
    }

    /// One draw for `v`, keyed at its full weight.
    fn draw_key(
        &self,
        v: NodeId,
        extra_weight: Option<&dyn Fn(NodeId) -> f64>,
        rng: &mut impl rand::Rng,
    ) -> f64 {
        let mut w = self.weight(v);
        if let Some(f) = extra_weight {
            w *= f(v).max(1e-12);
        }
        Self::key(draw(rng), w)
    }

    /// Biased selection of up to `k` candidates.
    ///
    /// When `k < candidates.len()` this is
    /// [`LocalityBias::weighted_sample_without_replacement`]. When the
    /// fanout covers the whole candidate set, an unbiased sampler
    /// returns everything — but a cache-aware sampler (2PGraph) still
    /// prunes: hot candidates are always kept while each cold
    /// candidate is dropped with probability
    /// [`COLD_DROP_AT_FULL_ETA`]` · η`, shrinking the mini-batch
    /// toward cache-resident vicinity (the accuracy/time trade of the
    /// paper's Fig. 1b). At least one candidate is always kept when
    /// the input is non-empty.
    pub fn select(
        &self,
        candidates: &[NodeId],
        extra_weight: Option<&dyn Fn(NodeId) -> f64>,
        k: usize,
        rng: &mut impl rand::Rng,
    ) -> Vec<NodeId> {
        let mut kept = Vec::with_capacity(k.min(candidates.len()));
        self.select_each(candidates, extra_weight, k, rng, &mut Vec::new(), |v| kept.push(v));
        kept
    }

    /// [`LocalityBias::select`] handing each kept candidate to `emit`
    /// in order, with the caller's key scratch (see
    /// [`LocalityBias::sample_each`]).
    pub(crate) fn select_each(
        &self,
        candidates: &[NodeId],
        extra_weight: Option<&dyn Fn(NodeId) -> f64>,
        k: usize,
        rng: &mut impl rand::Rng,
        keyed: &mut Vec<(f64, u32)>,
        mut emit: impl FnMut(NodeId),
    ) {
        if k < candidates.len() {
            return self.sample_each(candidates, extra_weight, k, rng, keyed, emit);
        }
        if self.eta == 0.0 {
            return candidates.iter().copied().for_each(emit);
        }
        let drop_p = COLD_DROP_AT_FULL_ETA * self.eta;
        let mut kept_any = false;
        for &v in candidates {
            if self.is_hot(v) || rng.gen::<f64>() >= drop_p {
                kept_any = true;
                emit(v);
            }
        }
        if !kept_any && !candidates.is_empty() {
            emit(candidates[rng.gen_range(0..candidates.len())]);
        }
    }
}

/// One uniform draw, clamped away from 0 so that every key is finite.
fn draw(rng: &mut impl rand::Rng) -> f64 {
    rng.gen::<f64>().max(1e-12)
}

/// Key descending, then candidate position ascending: a total order
/// (positions are distinct), and the one a stable descending sort by
/// key leaves. Keys lie in `[0, 1]` and are never NaN or `-0.0`, so
/// `total_cmp` is the numeric order.
fn by_key_then_position(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Safety factor on the pruning floor of [`LocalityBias::weighted_pick`].
const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

/// Probability that a cold (non-resident) candidate is pruned when the
/// fanout already covers the whole neighborhood, at `η = 1`.
pub const COLD_DROP_AT_FULL_ETA: f64 = 0.6;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn weight_reflects_eta() {
        let b = LocalityBias::new(4, &[1], 0.5);
        assert_eq!(b.weight(0), 1.0);
        assert!((b.weight(1) - (1.0 + 0.5 * HOT_WEIGHT_MAX)).abs() < 1e-12);
        assert!(b.is_hot(1) && !b.is_hot(2));
        assert_eq!(b.eta(), 0.5);
    }

    #[test]
    fn none_is_uniform() {
        let b = LocalityBias::none(3);
        assert_eq!(b.weight(0), 1.0);
        assert_eq!(b.eta(), 0.0);
    }

    #[test]
    #[should_panic(expected = "eta must be in [0, 1]")]
    fn rejects_bad_eta() {
        let _ = LocalityBias::new(3, &[], 1.5);
    }

    #[test]
    fn sample_returns_all_when_k_large() {
        let b = LocalityBias::none(5);
        let mut rng = StdRng::seed_from_u64(1);
        let out = b.weighted_sample_without_replacement(&[0, 1, 2], None, 10, &mut rng);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn sample_without_replacement_has_no_duplicates() {
        let b = LocalityBias::new(100, &[0, 1, 2], 1.0);
        let candidates: Vec<u32> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let out = b.weighted_sample_without_replacement(&candidates, None, 30, &mut rng);
        assert_eq!(out.len(), 30);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
    }

    #[test]
    fn strong_bias_prefers_hot_nodes() {
        let hot: Vec<u32> = (0..10).collect();
        let b = LocalityBias::new(100, &hot, 1.0);
        let candidates: Vec<u32> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut hot_picks = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let out = b.weighted_sample_without_replacement(&candidates, None, 10, &mut rng);
            hot_picks += out.iter().filter(|&&v| v < 10).count();
        }
        // Uniform would pick ~1 hot node per draw of 10 (10% of 10);
        // with 10x weight the hot share must be much higher.
        let avg = hot_picks as f64 / trials as f64;
        assert!(avg > 3.0, "avg hot picks {avg}");
    }

    /// The form every selection path here replaced: key every
    /// candidate through an unconditional `powf`, stable-sort all of
    /// them by key descending, keep the first `k`.
    fn top_k_by_stable_sort(
        bias: &LocalityBias,
        candidates: &[NodeId],
        extra_weight: Option<&dyn Fn(NodeId) -> f64>,
        k: usize,
        rng: &mut impl rand::Rng,
    ) -> Vec<NodeId> {
        let mut keyed: Vec<(f64, NodeId)> = candidates
            .iter()
            .map(|&v| {
                let mut w = bias.weight(v);
                if let Some(f) = extra_weight {
                    w *= f(v).max(1e-12);
                }
                let u: f64 = rng.gen::<f64>().max(1e-12);
                (u.powf(1.0 / w), v)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
        keyed.truncate(k);
        keyed.into_iter().map(|(_, v)| v).collect()
    }

    /// A generator that replays chosen draws, so a test can put one
    /// exactly where the pruning floor is.
    #[derive(Clone)]
    struct Scripted {
        draws: Vec<u64>,
        at: usize,
    }

    impl Scripted {
        /// The word `gen::<f64>()` maps back to `u` (exact for any
        /// multiple of 2^-53 in `[0, 1)`).
        fn word(u: f64) -> u64 {
            ((u * (1u64 << 53) as f64) as u64).min((1 << 53) - 1) << 11
        }
    }

    impl rand::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.at += 1;
            self.draws[self.at - 1]
        }
    }

    #[test]
    fn unit_weight_key_is_the_draw_bit_for_bit() {
        // `u^1 = u` is representable, so a `powf` within 1 ULP returns
        // it exactly: skipping the call at `w == 1.0` changes no bit.
        let mut rng = StdRng::seed_from_u64(0x0123_4567);
        for _ in 0..1_000_000 {
            let u = draw(&mut rng);
            assert_eq!(u.powf(1.0 / 1.0).to_bits(), u.to_bits(), "{u:e}");
            assert_eq!(LocalityBias::key(u, 1.0).to_bits(), u.to_bits());
        }
        for u in [1e-12, f64::from_bits(1e-12f64.to_bits() + 1), 1.0 - f64::EPSILON / 2.0] {
            assert_eq!(u.powf(1.0 / 1.0).to_bits(), u.to_bits(), "{u:e}");
        }
        // The clamp: a zero draw keys as 1e-12, never as 0.
        let mut zero = Scripted { draws: vec![0, u64::MAX], at: 0 };
        assert_eq!(draw(&mut zero), 1e-12);
        assert_eq!(draw(&mut zero), 1.0 - f64::EPSILON / 2.0);
        // Any other weight still goes through `powf`, as it always did.
        assert_eq!(LocalityBias::key(0.25, 2.0), 0.5);
        assert_eq!(LocalityBias::key(0.3, 20.0).to_bits(), 0.3f64.powf(1.0 / 20.0).to_bits());
    }

    #[test]
    fn single_pick_matches_the_general_form_and_its_rng_stream() {
        // Random candidate lists (duplicates allowed), hot sets, eta and
        // extra weights — including ones that tie every key at 1.0
        // (`w = inf`) so that "first strict maximum" is what decides.
        let mut meta = StdRng::seed_from_u64(0x5eed);
        for case in 0..400u64 {
            let n = meta.gen_range(2usize..40);
            let candidates: Vec<NodeId> = (0..n).map(|_| meta.gen_range(0u32..64)).collect();
            let hot: Vec<NodeId> = (0..64).filter(|_| meta.gen_bool(0.3)).collect();
            let bias = LocalityBias::new(64, &hot, meta.gen_range(0.0f64..1.0));
            let scale = meta.gen_range(0.0f64..3.0);
            let ties = case % 7 == 0;
            let extra =
                move |v: NodeId| if ties { f64::INFINITY } else { f64::from(v % 5) * scale };
            let extra: Option<&dyn Fn(NodeId) -> f64> =
                if case % 3 == 0 { None } else { Some(&extra) };
            let mut general_rng = StdRng::seed_from_u64(case);
            let mut pick_rng = general_rng.clone();
            let general = top_k_by_stable_sort(&bias, &candidates, extra, 1, &mut general_rng);
            let pick = bias.weighted_pick(&candidates, extra, &mut pick_rng);
            assert_eq!(general, vec![pick], "case {case}");
            assert_eq!(general_rng.state(), pick_rng.state(), "case {case}: rng stream");
            let mut public_rng = StdRng::seed_from_u64(case);
            let public =
                bias.weighted_sample_without_replacement(&candidates, extra, 1, &mut public_rng);
            assert_eq!((public, public_rng.state()), (general, general_rng.state()));
        }
        // A lone candidate is returned without a draw, like `k >= len`.
        let mut rng = StdRng::seed_from_u64(9);
        let before = rng.state();
        assert_eq!(LocalityBias::none(8).weighted_pick(&[5], None, &mut rng), 5);
        assert_eq!(rng.state(), before);

        // The pruned two-weight pick (`extra_weight = None`): a million
        // cases over hot shares 0–100 %, eta log-uniform in [1e-6, 1],
        // three in four on a seeded generator (same pick, same state
        // after), the fourth on scripted draws placed within ±1e-8
        // relative of the decision they could flip: a hot draw at the
        // pruning floor `best^w`, a cold one at the best key itself.
        let mut pruned = 0u64;
        for case in 0..1_000_000u64 {
            let n = meta.gen_range(2usize..24);
            let candidates: Vec<NodeId> = (0..n).map(|_| meta.gen_range(0u32..32)).collect();
            let hot_share = f64::from(meta.gen_range(0u32..=4)) / 4.0;
            let hot: Vec<NodeId> = (0..32).filter(|_| meta.gen_bool(hot_share)).collect();
            let eta = if case % 16 == 0 { 1.0 } else { 10f64.powf(-6.0 * meta.gen::<f64>()) };
            let bias = LocalityBias::new(32, &hot, eta);
            if case % 4 != 3 {
                let mut general_rng = StdRng::seed_from_u64(case);
                let mut pick_rng = general_rng.clone();
                let general = top_k_by_stable_sort(&bias, &candidates, None, 1, &mut general_rng);
                let pick = bias.weighted_pick(&candidates, None, &mut pick_rng);
                assert_eq!(general, vec![pick], "case {case}");
                assert_eq!(general_rng.state(), pick_rng.state(), "case {case}: rng stream");
                continue;
            }
            let mut best = 0.0f64;
            let mut draws = Vec::with_capacity(n);
            for &v in &candidates {
                let w = bias.weight(v);
                let mut u: f64 = meta.gen();
                if best > 0.0 && meta.gen_bool(0.5) {
                    let nudge = 1.0 + 1e-8 * meta.gen_range(-1.0f64..=1.0);
                    let edge = if bias.is_hot(v) { best.powf(w) } else { best };
                    u = if meta.gen_bool(0.1) { edge } else { edge * nudge };
                    pruned += u64::from(bias.is_hot(v) && u < edge * PRUNE_MARGIN);
                }
                draws.push(Scripted::word(u));
                let u: f64 = Scripted { draws: vec![draws[draws.len() - 1]], at: 0 }.gen();
                best = best.max(u.max(1e-12).powf(1.0 / w));
            }
            let mut general_rng = Scripted { draws, at: 0 };
            let mut pick_rng = general_rng.clone();
            let general = top_k_by_stable_sort(&bias, &candidates, None, 1, &mut general_rng);
            let pick = bias.weighted_pick(&candidates, None, &mut pick_rng);
            assert_eq!(general, vec![pick], "case {case}: {candidates:?} eta {eta:e}");
            assert_eq!((general_rng.at, pick_rng.at), (n, n), "case {case}: draws consumed");
        }
        assert!(pruned > 100_000, "only {pruned} scripted draws landed just under the floor");
    }

    #[test]
    fn top_k_matches_the_stable_sort_under_ties() {
        // `extra = inf` keys everything at 1.0 and `extra = 0` (clamped
        // to 1e-12) underflows nearly every key to 0.0, so the order
        // among equal keys — candidate position — is what decides.
        let mut meta = StdRng::seed_from_u64(0x70b);
        for case in 0..20_000u64 {
            let n = meta.gen_range(3usize..48);
            let candidates: Vec<NodeId> = (0..n).map(|_| meta.gen_range(0u32..40)).collect();
            let hot: Vec<NodeId> = (0..40).filter(|_| meta.gen_bool(0.3)).collect();
            let bias = LocalityBias::new(40, &hot, meta.gen_range(0.0f64..=1.0));
            let scale = meta.gen_range(0.0f64..3.0);
            let extra = move |v: NodeId| match case % 5 {
                0 => f64::INFINITY,
                1 => 0.0,
                2 => [0.0, 1.0, f64::INFINITY][v as usize % 3],
                _ => f64::from(v % 5) * scale,
            };
            let extra: Option<&dyn Fn(NodeId) -> f64> =
                if case % 5 == 4 { None } else { Some(&extra) };
            for k in [0, 2, n - 1, meta.gen_range(2..n)] {
                let mut sort_rng = StdRng::seed_from_u64(case);
                let mut top_rng = sort_rng.clone();
                let sorted = top_k_by_stable_sort(&bias, &candidates, extra, k, &mut sort_rng);
                let top =
                    bias.weighted_sample_without_replacement(&candidates, extra, k, &mut top_rng);
                assert_eq!(top, sorted, "case {case}, k {k} of {n}");
                assert_eq!(top_rng.state(), sort_rng.state(), "case {case}, k {k}: rng stream");
            }
        }
    }

    #[test]
    fn extra_weight_composes() {
        let b = LocalityBias::none(10);
        let candidates: Vec<u32> = (0..10).collect();
        let degree_like = |v: NodeId| if v == 7 { 1000.0 } else { 0.001 };
        let mut rng = StdRng::seed_from_u64(4);
        let mut hits = 0;
        for _ in 0..50 {
            let out =
                b.weighted_sample_without_replacement(&candidates, Some(&degree_like), 1, &mut rng);
            if out[0] == 7 {
                hits += 1;
            }
        }
        assert!(hits > 40, "node 7 picked {hits}/50");
    }
}

#[cfg(test)]
mod select_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn select_falls_back_to_weighted_sampling_below_full_fanout() {
        let b = LocalityBias::new(10, &[0], 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let out = b.select(&[0, 1, 2, 3, 4], None, 2, &mut rng);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn select_unbiased_keeps_everything_at_full_fanout() {
        let b = LocalityBias::none(5);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(b.select(&[0, 1, 2], None, 10, &mut rng), vec![0, 1, 2]);
    }

    #[test]
    fn select_biased_prunes_cold_keeps_hot_at_full_fanout() {
        let hot: Vec<u32> = vec![0, 1];
        let b = LocalityBias::new(40, &hot, 1.0);
        let candidates: Vec<u32> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut cold_total = 0usize;
        for _ in 0..50 {
            let out = b.select(&candidates, None, 100, &mut rng);
            assert!(out.contains(&0) && out.contains(&1), "hot always kept");
            cold_total += out.iter().filter(|&&v| v >= 2).count();
        }
        let avg_cold = cold_total as f64 / 50.0;
        // 38 cold candidates, kept with prob 1 - 0.6 = 0.4 -> ~15.2.
        assert!(avg_cold > 10.0 && avg_cold < 21.0, "avg cold kept {avg_cold}");
    }

    #[test]
    fn select_never_returns_empty_for_nonempty_input() {
        let b = LocalityBias::new(3, &[], 1.0); // all cold, max drop
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..30 {
            assert!(!b.select(&[0, 1, 2], None, 5, &mut rng).is_empty());
        }
    }
}

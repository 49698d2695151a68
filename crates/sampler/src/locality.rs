//! Locality-aware neighbor selection bias — the `p(η)` of Eq. 2.
//!
//! Biased samplers (2PGraph's cache-aware sampling) prefer neighbors
//! that are already resident on the device. We model this with a *hot
//! set* of node ids (typically the cache-resident, high-degree nodes)
//! and a bias strength `η ∈ [0, 1]`: at `η = 0` selection is uniform;
//! as `η → 1` hot neighbors become up to `1 + HOT_WEIGHT_MAX`× more
//! likely to be selected.

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
        if k >= candidates.len() {
            return candidates.to_vec();
        }
        if k == 1 {
            return vec![self.weighted_pick(candidates, extra_weight, rng)];
        }
        self.top_k_by_key(candidates, extra_weight, k, rng)
    }

    /// One weighted draw: what
    /// [`LocalityBias::weighted_sample_without_replacement`] returns
    /// for `k = 1`, without the `Vec` — a lone candidate is returned
    /// as is and consumes no randomness, otherwise every candidate
    /// draws its key in order and the first strict maximum wins (where
    /// the stable descending sort of the general form puts it).
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
        let mut best = (self.key(first, extra_weight, rng), first);
        for &v in rest {
            let key = self.key(v, extra_weight, rng);
            if key > best.0 {
                best = (key, v);
            }
        }
        best.1
    }

    /// Efraimidis–Spirakis reservoir key of `v`: `u^(1/w)` for one
    /// uniform draw `u`. Finite: `u ∈ [1e-12, 1)` and `w > 0`.
    fn key(
        &self,
        v: NodeId,
        extra_weight: Option<&dyn Fn(NodeId) -> f64>,
        rng: &mut impl rand::Rng,
    ) -> f64 {
        let mut w = self.weight(v);
        if let Some(f) = extra_weight {
            w *= f(v).max(1e-12);
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        u.powf(1.0 / w)
    }

    /// The general form: key every candidate, take the top `k`.
    fn top_k_by_key(
        &self,
        candidates: &[NodeId],
        extra_weight: Option<&dyn Fn(NodeId) -> f64>,
        k: usize,
        rng: &mut impl rand::Rng,
    ) -> Vec<NodeId> {
        let mut keyed: Vec<(f64, NodeId)> =
            candidates.iter().map(|&v| (self.key(v, extra_weight, rng), v)).collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
        keyed.truncate(k);
        keyed.into_iter().map(|(_, v)| v).collect()
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
        if k < candidates.len() {
            return self.weighted_sample_without_replacement(candidates, extra_weight, k, rng);
        }
        if self.eta == 0.0 || candidates.is_empty() {
            return candidates.to_vec();
        }
        let drop_p = COLD_DROP_AT_FULL_ETA * self.eta;
        let mut kept: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&v| self.is_hot(v) || rng.gen::<f64>() >= drop_p)
            .collect();
        if kept.is_empty() {
            kept.push(candidates[rng.gen_range(0..candidates.len())]);
        }
        kept
    }
}

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
            let general = bias.top_k_by_key(&candidates, extra, 1, &mut general_rng);
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

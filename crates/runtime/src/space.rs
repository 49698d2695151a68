//! The design space: discretized axes over every reconfigurable
//! backend setting.
//!
//! "All reconfigurable parameters in the runtime backend make up the
//! design space" (paper §3.2). The explorer walks this space with DFS;
//! the estimator trains on samples from it.

use crate::config::{summary_piece, SamplerKind, TrainingConfig};
use gnnav_cache::CachePolicy;
use gnnav_hwsim::Precision;
use gnnav_nn::ModelKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Axis numbering of a [`DesignSpace`]: the position of each option
/// list in a per-axis index vector (as taken by
/// [`DesignSpace::config_at`] and walked by the explorer's DFS).
pub mod axis {
    /// Sampler family.
    pub(crate) const SAMPLER: usize = 0;
    /// Per-layer fanouts.
    pub const FANOUTS: usize = 1;
    /// Locality-bias strength `η`.
    pub(crate) const ETA: usize = 2;
    /// Mini-batch target count.
    pub(crate) const BATCH_SIZE: usize = 3;
    /// Cache ratio `r`.
    pub const CACHE_RATIO: usize = 4;
    /// Cache policy.
    pub const CACHE_POLICY: usize = 5;
    /// Cache-update flag.
    pub const CACHE_UPDATE: usize = 6;
    /// Pipelining flag.
    pub(crate) const PIPELINED: usize = 7;
    /// Precision.
    pub(crate) const PRECISION: usize = 8;
    /// Hidden width.
    pub(crate) const HIDDEN_DIM: usize = 9;
    /// Dropout probability.
    pub(crate) const DROPOUT: usize = 10;
    /// Number of axes.
    pub const COUNT: usize = 11;
}

/// Discretized option lists for every configuration axis.
///
/// # Example
///
/// ```
/// use gnnav_runtime::DesignSpace;
/// use gnnav_nn::ModelKind;
///
/// let space = DesignSpace::reduced();
/// let configs = space.enumerate(ModelKind::Sage);
/// assert!(!configs.is_empty());
/// assert!(configs.len() <= space.size());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Sampler families.
    pub samplers: Vec<SamplerKind>,
    /// Per-layer fanout vectors `k^l`.
    pub fanout_options: Vec<Vec<usize>>,
    /// Locality-bias strengths `η`.
    pub etas: Vec<f64>,
    /// Mini-batch target counts `|B^0|`.
    pub batch_sizes: Vec<usize>,
    /// Cache ratios `r`.
    pub cache_ratios: Vec<f64>,
    /// Cache policies.
    pub cache_policies: Vec<CachePolicy>,
    /// Cache-update flags.
    pub cache_updates: Vec<bool>,
    /// Pipelining flags.
    pub pipelined: Vec<bool>,
    /// Precisions.
    pub precisions: Vec<Precision>,
    /// Hidden widths.
    pub hidden_dims: Vec<usize>,
    /// Dropout probabilities.
    pub dropouts: Vec<f64>,
}

impl DesignSpace {
    /// The full space used by the guideline explorer.
    pub fn standard() -> Self {
        DesignSpace {
            samplers: SamplerKind::ALL.to_vec(),
            fanout_options: vec![
                vec![5, 5],
                vec![10, 5],
                vec![10, 10],
                vec![15, 10],
                vec![25, 10],
                vec![25, 25],
                vec![10, 10, 5],
            ],
            etas: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            batch_sizes: vec![128, 256, 512, 1024],
            cache_ratios: vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.5],
            cache_policies: CachePolicy::ALL.to_vec(),
            cache_updates: vec![false, true],
            pipelined: vec![false, true],
            precisions: vec![Precision::Fp32, Precision::Fp16],
            hidden_dims: vec![32, 64],
            dropouts: vec![0.0, 0.2, 0.5],
        }
    }

    /// A small space whose *valid* configurations can be exhaustively
    /// executed (used by the Fig. 6 ground-truth sweep).
    pub fn reduced() -> Self {
        DesignSpace {
            samplers: vec![SamplerKind::NodeWise],
            fanout_options: vec![vec![5, 5], vec![10, 10], vec![25, 10]],
            etas: vec![0.0, 0.5, 1.0],
            batch_sizes: vec![128, 512],
            cache_ratios: vec![0.0, 0.1, 0.3],
            cache_policies: vec![CachePolicy::None, CachePolicy::StaticDegree],
            cache_updates: vec![true],
            pipelined: vec![false, true],
            precisions: vec![Precision::Fp32],
            hidden_dims: vec![32],
            dropouts: vec![0.0],
        }
    }

    /// Number of raw axis combinations (including invalid ones that
    /// [`DesignSpace::enumerate`] filters out).
    pub fn size(&self) -> usize {
        self.samplers.len()
            * self.fanout_options.len()
            * self.etas.len()
            * self.batch_sizes.len()
            * self.cache_ratios.len()
            * self.cache_policies.len()
            * self.cache_updates.len()
            * self.pipelined.len()
            * self.precisions.len()
            * self.hidden_dims.len()
            * self.dropouts.len()
    }

    /// Number of axes (for DFS traversal).
    pub fn num_axes(&self) -> usize {
        axis::COUNT
    }

    /// Length of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= 11` ([`axis::COUNT`]).
    pub fn axis_len(&self, axis: usize) -> usize {
        match axis {
            axis::SAMPLER => self.samplers.len(),
            axis::FANOUTS => self.fanout_options.len(),
            axis::ETA => self.etas.len(),
            axis::BATCH_SIZE => self.batch_sizes.len(),
            axis::CACHE_RATIO => self.cache_ratios.len(),
            axis::CACHE_POLICY => self.cache_policies.len(),
            axis::CACHE_UPDATE => self.cache_updates.len(),
            axis::PIPELINED => self.pipelined.len(),
            axis::PRECISION => self.precisions.len(),
            axis::HIDDEN_DIM => self.hidden_dims.len(),
            axis::DROPOUT => self.dropouts.len(),
            // Internal invariant, not user input: axis indices come
            // from DFS loops bounded by num_axes(), so an
            // out-of-range axis is a caller bug.
            other => panic!("axis {other} out of range (11 axes)"),
        }
    }

    /// Human-readable axis name (diagnostics and ablation tables).
    pub fn axis_name(&self, axis: usize) -> &'static str {
        match axis {
            axis::SAMPLER => "sampler",
            axis::FANOUTS => "fanouts",
            axis::ETA => "eta",
            axis::BATCH_SIZE => "batch_size",
            axis::CACHE_RATIO => "cache_ratio",
            axis::CACHE_POLICY => "cache_policy",
            axis::CACHE_UPDATE => "cache_update",
            axis::PIPELINED => "pipelined",
            axis::PRECISION => "precision",
            axis::HIDDEN_DIM => "hidden_dim",
            axis::DROPOUT => "dropout",
            // Internal invariant, same bound as axis_len above.
            other => panic!("axis {other} out of range (11 axes)"),
        }
    }

    /// Whether the cache axes fixed so far can still be completed into
    /// a valid configuration. Each argument is that axis's index, or
    /// `None` while it is not fixed; a rule is applied once every axis
    /// it reads is fixed, so with all three fixed this is exactly the
    /// cache-axis validity of [`DesignSpace::config_at`].
    pub fn cache_axes_valid(
        &self,
        ratio: Option<usize>,
        policy: Option<usize>,
        update: Option<usize>,
    ) -> bool {
        let Some(policy) = policy.map(|p| self.cache_policies[p]) else {
            return true;
        };
        // Canonical validity: no-cache ⇔ ratio 0 (avoids duplicate
        // equivalent points in the space).
        if ratio.is_some_and(|r| (policy == CachePolicy::None) != (self.cache_ratios[r] == 0.0)) {
            return false;
        }
        // A frozen *static* cache is the same point as update=true for
        // non-dynamic policies; keep only update=false there. A space
        // that offers a single update value keeps it either way.
        !(self.cache_updates.len() > 1
            && !policy.is_dynamic()
            && update.is_some_and(|u| self.cache_updates[u]))
    }

    /// Builds the configuration at the given per-axis indices, or
    /// `None` when the combination is invalid (e.g. a positive cache
    /// ratio with the `none` policy, or `r = 0` with a real policy).
    ///
    /// # Panics
    ///
    /// Panics if `indices` has the wrong length or an index is out of
    /// range.
    pub fn config_at(&self, indices: &[usize], model: ModelKind) -> Option<TrainingConfig> {
        // Internal invariant: index vectors are produced by the
        // explorer's own traversal, never parsed from user input.
        assert_eq!(indices.len(), self.num_axes(), "one index per axis");
        if !self.cache_axes_valid(
            Some(indices[axis::CACHE_RATIO]),
            Some(indices[axis::CACHE_POLICY]),
            Some(indices[axis::CACHE_UPDATE]),
        ) {
            return None;
        }
        let config = TrainingConfig {
            sampler: self.samplers[indices[axis::SAMPLER]],
            fanouts: self.fanout_options[indices[axis::FANOUTS]].clone(),
            locality_eta: self.etas[indices[axis::ETA]],
            batch_size: self.batch_sizes[indices[axis::BATCH_SIZE]],
            cache_ratio: self.cache_ratios[indices[axis::CACHE_RATIO]],
            cache_policy: self.cache_policies[indices[axis::CACHE_POLICY]],
            cache_update: self.cache_updates[indices[axis::CACHE_UPDATE]],
            pipelined: self.pipelined[indices[axis::PIPELINED]],
            precision: self.precisions[indices[axis::PRECISION]],
            model,
            hidden_dim: self.hidden_dims[indices[axis::HIDDEN_DIM]],
            dropout: self.dropouts[indices[axis::DROPOUT]],
        };
        config.validate().ok().map(|()| config)
    }

    /// Renders the `summary_piece` of every value on every axis,
    /// once: [`SummaryTable::summary_at`] then assembles the summary of
    /// any leaf of this space from its index vector alone.
    pub fn summary_table(&self) -> SummaryTable {
        fn render<T>(values: &[T], piece: impl Fn(&mut String, &T)) -> Vec<String> {
            let one = |value| {
                let mut out = String::new();
                piece(&mut out, value);
                out
            };
            values.iter().map(one).collect()
        }
        let mut pieces: [Vec<String>; axis::COUNT] = Default::default();
        pieces[axis::SAMPLER] = render(&self.samplers, |o, &v| summary_piece::sampler(o, v));
        pieces[axis::FANOUTS] = render(&self.fanout_options, |o, v| summary_piece::fanouts(o, v));
        pieces[axis::ETA] = render(&self.etas, |o, &v| summary_piece::eta(o, v));
        pieces[axis::BATCH_SIZE] =
            render(&self.batch_sizes, |o, &v| summary_piece::batch_size(o, v));
        pieces[axis::CACHE_RATIO] =
            render(&self.cache_ratios, |o, &v| summary_piece::cache_ratio(o, v));
        pieces[axis::CACHE_POLICY] =
            render(&self.cache_policies, |o, &v| summary_piece::cache_policy(o, v));
        pieces[axis::CACHE_UPDATE] =
            render(&self.cache_updates, |o, &v| summary_piece::cache_update(o, v));
        pieces[axis::PIPELINED] = render(&self.pipelined, |o, &v| summary_piece::pipelined(o, v));
        pieces[axis::PRECISION] = render(&self.precisions, |o, &v| summary_piece::precision(o, v));
        pieces[axis::HIDDEN_DIM] =
            render(&self.hidden_dims, |o, &v| summary_piece::hidden_dim(o, v));
        pieces[axis::DROPOUT] = render(&self.dropouts, |o, &v| summary_piece::dropout(o, v));
        SummaryTable { pieces }
    }

    /// Every valid configuration, in lexicographic axis order.
    pub fn enumerate(&self, model: ModelKind) -> Vec<TrainingConfig> {
        let mut out = Vec::new();
        let mut indices = vec![0usize; self.num_axes()];
        loop {
            if let Some(c) = self.config_at(&indices, model) {
                out.push(c);
            }
            // Odometer increment.
            let mut axis = self.num_axes();
            loop {
                if axis == 0 {
                    return out;
                }
                axis -= 1;
                indices[axis] += 1;
                if indices[axis] < self.axis_len(axis) {
                    break;
                }
                indices[axis] = 0;
            }
        }
    }

    /// `count` valid configurations sampled uniformly at random
    /// (rejection sampling over the axis grid), seeded.
    pub fn sample(&self, count: usize, model: ModelKind, seed: u64) -> Vec<TrainingConfig> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(count);
        let mut guard = 0usize;
        while out.len() < count && guard < count * 1000 {
            guard += 1;
            let indices: Vec<usize> =
                (0..self.num_axes()).map(|a| rng.gen_range(0..self.axis_len(a))).collect();
            if let Some(c) = self.config_at(&indices, model) {
                out.push(c);
            }
        }
        out
    }
}

/// Every axis value's piece of [`TrainingConfig::summary`], rendered
/// ahead of time by [`DesignSpace::summary_table`].
#[derive(Debug, Clone)]
pub struct SummaryTable {
    /// Indexed by axis, then by the value's index on that axis.
    pieces: [Vec<String>; axis::COUNT],
}

/// The order `summary()` lists the fields in: design-space order,
/// except that the cache policy comes before the ratio it qualifies.
const SUMMARY_ORDER: [usize; axis::COUNT] = [
    axis::SAMPLER,
    axis::FANOUTS,
    axis::ETA,
    axis::BATCH_SIZE,
    axis::CACHE_POLICY,
    axis::CACHE_RATIO,
    axis::CACHE_UPDATE,
    axis::PIPELINED,
    axis::PRECISION,
    axis::HIDDEN_DIM,
    axis::DROPOUT,
];

impl SummaryTable {
    /// The bytes of `space.config_at(indices, model).summary()`, for
    /// the space this table was rendered from and any model (the
    /// summary does not print it), without building the configuration
    /// or formatting a number.
    ///
    /// # Panics
    ///
    /// Panics if `indices` has the wrong length or an index is out of
    /// range.
    pub fn summary_at(&self, indices: &[usize]) -> String {
        assert_eq!(indices.len(), axis::COUNT, "one index per axis");
        let pieces = SUMMARY_ORDER.map(|axis| self.pieces[axis][indices[axis]].as_str());
        // Sized exactly: an exploration keeps one of these per
        // candidate for as long as its audit trail lives.
        let mut out = String::with_capacity(pieces.iter().map(|piece| piece.len()).sum());
        pieces.iter().for_each(|piece| out.push_str(piece));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_space_is_large() {
        let s = DesignSpace::standard();
        assert!(s.size() > 100_000);
        assert_eq!(s.num_axes(), 11);
    }

    #[test]
    fn reduced_space_enumerates_valid_configs() {
        let s = DesignSpace::reduced();
        let configs = s.enumerate(ModelKind::Sage);
        assert!(!configs.is_empty());
        assert!(configs.len() < s.size());
        for c in &configs {
            c.validate().expect("every enumerated config validates");
        }
    }

    #[test]
    fn enumerate_has_no_duplicates() {
        let s = DesignSpace::reduced();
        let configs = s.enumerate(ModelKind::Sage);
        let mut summaries: Vec<String> = configs.iter().map(TrainingConfig::summary).collect();
        let before = summaries.len();
        summaries.sort();
        summaries.dedup();
        assert_eq!(summaries.len(), before);
    }

    #[test]
    fn config_at_rejects_inconsistent_cache_combo() {
        let s = DesignSpace::standard();
        // ratio > 0 with policy None (policy index of None = 0).
        let none_idx = s.cache_policies.iter().position(|&p| p == CachePolicy::None).expect("none");
        let ratio_idx = s.cache_ratios.iter().position(|&r| r > 0.0).expect("pos ratio");
        let mut indices = vec![0usize; 11];
        indices[4] = ratio_idx;
        indices[5] = none_idx;
        assert!(s.config_at(&indices, ModelKind::Gcn).is_none());
    }

    /// The cache-axis rule as `config_at` spelled it inline before it
    /// became [`DesignSpace::cache_axes_valid`], kept as the reference.
    fn inline_rule(s: &DesignSpace, indices: &[usize]) -> bool {
        let policy = s.cache_policies[indices[5]];
        let ratio = s.cache_ratios[indices[4]];
        if (policy == CachePolicy::None) != (ratio == 0.0) {
            return false;
        }
        !(!policy.is_dynamic() && s.cache_updates[indices[6]] && s.cache_updates.len() > 1)
    }

    #[test]
    fn enumerate_is_unchanged_in_count_and_order() {
        // Count and FNV-1a digest of the `summary()` lines in order, as
        // enumerated when the rule was still inline in `config_at`.
        for (s, count, digest) in [
            (DesignSpace::standard(), 362_880, 0x038c_54a6_fc82_7185u64),
            (DesignSpace::reduced(), 108, 0x561b_ccee_5365_2405),
        ] {
            let configs = s.enumerate(ModelKind::Sage);
            assert_eq!(configs.len(), count);
            let lines: String = configs.iter().map(TrainingConfig::summary).collect();
            assert_eq!(gnnav_store::fnv1a64(lines.as_bytes()), digest);
            // And the inline rule agrees leaf by leaf, as does the
            // summary assembled from the per-axis pieces with the one
            // `summary()` formats.
            let table = s.summary_table();
            let mut indices = vec![0usize; s.num_axes()];
            let mut valid = 0usize;
            for raw in 0..s.size() {
                let mut rest = raw;
                for axis in (0..s.num_axes()).rev() {
                    indices[axis] = rest % s.axis_len(axis);
                    rest /= s.axis_len(axis);
                }
                let config = s.config_at(&indices, ModelKind::Sage);
                assert_eq!(config.is_some(), inline_rule(&s, &indices));
                if let Some(config) = config {
                    assert_eq!(config, configs[valid], "enumeration order");
                    let assembled = table.summary_at(&indices);
                    assert_eq!(assembled, config.summary(), "{indices:?}");
                    assert_eq!(assembled.capacity(), assembled.len());
                    valid += 1;
                }
            }
            assert_eq!(valid, count);
        }
    }

    #[test]
    fn partial_cache_assignments_are_cut_only_when_no_completion_is_valid() {
        for s in [DesignSpace::standard(), DesignSpace::reduced()] {
            let opts = |n: usize| std::iter::once(None).chain((0..n).map(Some));
            for r in opts(s.cache_ratios.len()) {
                for p in opts(s.cache_policies.len()) {
                    for u in opts(s.cache_updates.len()) {
                        let fixed = |o: Option<usize>, n: usize| o.map_or(0..n, |i| i..i + 1);
                        let completable = fixed(r, s.cache_ratios.len()).any(|r| {
                            fixed(p, s.cache_policies.len()).any(|p| {
                                fixed(u, s.cache_updates.len()).any(|u| {
                                    let mut indices = vec![0usize; s.num_axes()];
                                    indices[axis::CACHE_RATIO] = r;
                                    indices[axis::CACHE_POLICY] = p;
                                    indices[axis::CACHE_UPDATE] = u;
                                    inline_rule(&s, &indices)
                                })
                            })
                        });
                        // Never cuts a completable prefix; with all
                        // three fixed it is exactly the leaf rule.
                        if completable {
                            assert!(s.cache_axes_valid(r, p, u), "{r:?} {p:?} {u:?}");
                        }
                        if r.is_some() && p.is_some() && u.is_some() {
                            assert_eq!(s.cache_axes_valid(r, p, u), completable);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sample_yields_valid_unique_seeded() {
        let s = DesignSpace::standard();
        let a = s.sample(50, ModelKind::Sage, 7);
        let b = s.sample(50, ModelKind::Sage, 7);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
        for c in &a {
            c.validate().expect("sampled configs validate");
        }
    }

    #[test]
    fn axis_names_cover_all_axes() {
        let s = DesignSpace::standard();
        for axis in 0..s.num_axes() {
            assert!(!s.axis_name(axis).is_empty());
            assert!(s.axis_len(axis) > 0);
        }
    }

    #[test]
    #[should_panic(expected = "axis 11 out of range")]
    fn axis_len_bounds_checked() {
        let _ = DesignSpace::standard().axis_len(11);
    }
}

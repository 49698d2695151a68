//! Node feature and label synthesis.
//!
//! Features are drawn around per-class Gaussian centroids so that a GNN
//! can genuinely learn the labels; the `noise` level controls how hard
//! the task is (and therefore the attainable accuracy of a trained
//! model, which is what the dataset stand-ins tune to match the paper's
//! accuracy ranges).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification for synthesizing node features and labels.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpec {
    /// Feature dimensionality `n_attr`.
    pub dim: usize,
    /// Number of label classes.
    pub num_classes: usize,
    /// Standard deviation of per-node noise around the class centroid.
    /// Larger values make the task harder.
    pub noise: f32,
    /// Fraction of nodes whose label is flipped to a random class
    /// (irreducible error, caps attainable accuracy).
    pub label_noise: f32,
}

impl FeatureSpec {
    /// Creates a spec with the given dimensionality and class count,
    /// moderate feature noise, and no label noise.
    pub fn new(dim: usize, num_classes: usize) -> Self {
        FeatureSpec { dim, num_classes, noise: 1.0, label_noise: 0.0 }
    }

    /// Sets the feature noise level.
    pub fn with_noise(mut self, noise: f32) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the label-flip fraction.
    pub(crate) fn with_label_noise(mut self, label_noise: f32) -> Self {
        self.label_noise = label_noise;
        self
    }
}

/// Dense node features plus labels.
///
/// Row `v` of [`Features::matrix`] is the `dim`-dimensional feature of
/// node `v`; [`Features::labels`] holds one class id per node.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    dim: usize,
    num_classes: usize,
    data: Vec<f32>,
    labels: Vec<u16>,
}

impl Features {
    /// Synthesizes features for `communities.len()` nodes.
    ///
    /// Each community maps to a class (`community % num_classes`); the
    /// node's feature is the class centroid plus Gaussian noise.
    ///
    /// # Panics
    ///
    /// Panics if `spec.num_classes == 0` or `spec.dim == 0`.
    pub fn synthesize(communities: &[u32], spec: &FeatureSpec, seed: u64) -> Self {
        assert!(spec.num_classes > 0, "num_classes must be > 0");
        assert!(spec.dim > 0, "dim must be > 0");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = communities.len();
        // Class centroids: unit-ish random vectors scaled to separate.
        let mut centroids = vec![0.0f32; spec.num_classes * spec.dim];
        for x in centroids.iter_mut() {
            *x = gaussian(&mut rng) * 2.0;
        }
        let mut data = vec![0.0f32; n * spec.dim];
        let mut labels = vec![0u16; n];
        for v in 0..n {
            let class = (communities[v] as usize) % spec.num_classes;
            // Label noise flips only the *label*: the feature stays at
            // the community centroid, so flipped nodes are genuinely
            // irreducible errors that cap attainable accuracy.
            labels[v] = if spec.label_noise > 0.0 && rng.gen::<f32>() < spec.label_noise {
                rng.gen_range(0..spec.num_classes) as u16
            } else {
                class as u16
            };
            let c = &centroids[class * spec.dim..(class + 1) * spec.dim];
            let row = &mut data[v * spec.dim..(v + 1) * spec.dim];
            for (r, &cv) in row.iter_mut().zip(c) {
                *r = cv + gaussian(&mut rng) * spec.noise;
            }
        }
        Features { dim: spec.dim, num_classes: spec.num_classes, data, labels }
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of label classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Feature row of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub(crate) fn row(&self, v: u32) -> &[f32] {
        let v = v as usize;
        &self.data[v * self.dim..(v + 1) * self.dim]
    }

    /// All features as a row-major `num_nodes x dim` slice.
    #[inline]
    pub fn matrix(&self) -> &[f32] {
        &self.data
    }

    /// Per-node class labels.
    #[inline]
    pub fn labels(&self) -> &[u16] {
        &self.labels
    }

    /// Gathers the feature rows of `nodes` into a dense row-major
    /// matrix (`nodes.len() x dim`), the layout the NN substrate
    /// consumes for a mini-batch.
    pub fn gather(&self, nodes: &[u32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(nodes.len() * self.dim);
        for &v in nodes {
            out.extend_from_slice(self.row(v));
        }
        out
    }

    /// Gathers the labels of `nodes`.
    pub fn gather_labels(&self, nodes: &[u32]) -> Vec<u16> {
        nodes.iter().map(|&v| self.labels[v as usize]).collect()
    }

    /// Like [`Features::gather`], but reuses `out` (cleared first) so
    /// steady-state batch loops allocate nothing.
    pub fn gather_into(&self, nodes: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(nodes.len() * self.dim);
        for &v in nodes {
            out.extend_from_slice(self.row(v));
        }
    }

    /// Like [`Features::gather_labels`], but reuses `out`.
    pub fn gather_labels_into(&self, nodes: &[u32], out: &mut Vec<u16>) {
        out.clear();
        out.extend(nodes.iter().map(|&v| self.labels[v as usize]));
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen::<f32>().max(1e-7);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FeatureSpec {
        FeatureSpec::new(8, 4).with_noise(0.5)
    }

    #[test]
    fn synthesize_shapes() {
        let comm: Vec<u32> = (0..100).map(|v| v % 4).collect();
        let f = Features::synthesize(&comm, &spec(), 1);
        assert_eq!(f.num_nodes(), 100);
        assert_eq!(f.dim(), 8);
        assert_eq!(f.matrix().len(), 800);
        assert_eq!(f.labels().len(), 100);
    }

    #[test]
    fn labels_follow_communities_without_noise() {
        let comm: Vec<u32> = (0..40).map(|v| v % 4).collect();
        let f = Features::synthesize(&comm, &spec(), 2);
        for v in 0..40u32 {
            assert_eq!(f.labels()[v as usize] as u32, comm[v as usize] % 4);
        }
    }

    #[test]
    fn label_noise_flips_some() {
        let comm: Vec<u32> = vec![0; 2000];
        let f = Features::synthesize(&comm, &spec().with_label_noise(0.3), 3);
        let flipped = f.labels().iter().filter(|&&l| l != 0).count();
        // ~30% * 3/4 should differ from class 0.
        assert!(flipped > 200 && flipped < 800, "flipped = {flipped}");
    }

    #[test]
    fn same_class_features_cluster() {
        let comm: Vec<u32> = (0..200).map(|v| v % 2).collect();
        let f = Features::synthesize(&comm, &FeatureSpec::new(16, 2).with_noise(0.1), 4);
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>().sqrt()
        };
        // Nodes 0 and 2 share a class; 0 and 1 do not.
        let same = dist(f.row(0), f.row(2));
        let diff = dist(f.row(0), f.row(1));
        assert!(same < diff, "same {same} diff {diff}");
    }

    #[test]
    fn gather_concatenates_rows() {
        let comm: Vec<u32> = (0..10).collect();
        let f = Features::synthesize(&comm, &spec(), 5);
        let g = f.gather(&[3, 7]);
        assert_eq!(&g[0..8], f.row(3));
        assert_eq!(&g[8..16], f.row(7));
        assert_eq!(f.gather_labels(&[3, 7]), vec![f.labels()[3], f.labels()[7]]);
    }

    #[test]
    fn deterministic_given_seed() {
        let comm: Vec<u32> = (0..50).map(|v| v % 3).collect();
        let a = Features::synthesize(&comm, &spec(), 9);
        let b = Features::synthesize(&comm, &spec(), 9);
        assert_eq!(a, b);
    }
}

//! Optimizers over model parameters.

use crate::layers::ParamRef;

/// Adam optimizer with bias correction.
///
/// Moment buffers are keyed by the position of each parameter in the
/// model's stable `for_each_param_mut` traversal order, so a single
/// `Adam` instance must only ever be used with one model.
///
/// # Example
///
/// ```
/// use gnnav_nn::{Adam, GnnModel, ModelKind};
///
/// let mut model = GnnModel::new(ModelKind::Gcn, 4, 8, 2, 2, 1);
/// let mut opt = Adam::new(1e-2);
/// // ... forward / backward ...
/// opt.step_with(|f| model.for_each_param_mut(f));
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and the
    /// standard betas `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate mid-run (moment estimates are kept).
    /// Used by recovery guards that anneal the LR after bad steps.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update step to the parameters `visit` streams (for
    /// example `GnnModel::for_each_param_mut`) using their accumulated
    /// gradients, then leaves the gradients untouched (call
    /// `zero_grad` on the model afterwards). Nothing is collected, so a
    /// steady-state step performs zero heap allocations.
    pub fn step_with(&mut self, visit: impl FnOnce(&mut dyn FnMut(ParamRef<'_>))) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut slot = 0usize;
        visit(&mut |p| self.apply_param(&mut slot, p, bc1, bc2));
    }

    /// Updates one parameter, advancing the moment-buffer slot cursor
    /// exactly as the stable traversal order dictates.
    fn apply_param(&mut self, slot: &mut usize, p: ParamRef<'_>, bc1: f32, bc2: f32) {
        match p {
            ParamRef::Linear(lin) => {
                // Destructuring splits the borrows, so the bias update
                // reads `gb` directly instead of cloning it.
                let crate::layers::LinearParam { w, b, gw, gb } = lin;
                self.update_slot(*slot, w.as_mut_slice(), gw.as_slice(), bc1, bc2);
                *slot += 1;
                if !b.is_empty() {
                    self.update_slot(*slot, b, gb, bc1, bc2);
                }
                *slot += 1;
            }
            ParamRef::Vector(vp) => {
                let crate::layers::VecParam { v, g } = vp;
                self.update_slot(*slot, v, g, bc1, bc2);
                *slot += 1;
            }
        }
    }

    fn update_slot(&mut self, slot: usize, w: &mut [f32], g: &[f32], bc1: f32, bc2: f32) {
        while self.m.len() <= slot {
            self.m.push(Vec::new());
            self.v.push(Vec::new());
        }
        if self.m[slot].len() != w.len() {
            self.m[slot] = vec![0.0; w.len()];
            self.v[slot] = vec![0.0; w.len()];
        }
        let m = &mut self.m[slot];
        let v = &mut self.v[slot];
        for i in 0..w.len() {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g[i] * g[i];
            let mh = m[i] / bc1;
            let vh = v[i] / bc2;
            w[i] -= self.lr * mh / (vh.sqrt() + self.eps);
        }
    }
}

/// A snapshot of an [`Adam`] instance's mutable state, for
/// checkpointing. Moment buffers are keyed by traversal-order slot
/// (see [`Adam`]), so a snapshot only restores correctly onto the
/// same model shape it was captured from.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Current learning rate (recovery guards may have annealed it).
    pub lr: f32,
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// First-moment buffers, per slot.
    pub m: Vec<Vec<f32>>,
    /// Second-moment buffers, per slot.
    pub v: Vec<Vec<f32>>,
}

impl Adam {
    /// Captures the optimizer's mutable state.
    pub fn state(&self) -> AdamState {
        AdamState { lr: self.lr, t: self.t, m: self.m.clone(), v: self.v.clone() }
    }

    /// Restores state captured by [`Adam::state`].
    pub fn restore(&mut self, state: AdamState) {
        self.lr = state.lr;
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LinearParam;

    #[test]
    fn adam_reduces_quadratic() {
        // Minimize f(w) = 0.5 * w^2 on a 1x1 linear param.
        let mut p = LinearParam::new_no_bias(1, 1, 1);
        p.w.set(0, 0, 3.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            let w = p.w.get(0, 0);
            p.gw.set(0, 0, w);
            opt.step_with(|f| f(ParamRef::Linear(&mut p)));
        }
        assert!(p.w.get(0, 0).abs() < 0.05, "w = {}", p.w.get(0, 0));
    }

    #[test]
    fn adam_updates_bias_too() {
        let mut p = LinearParam::new(1, 1, 1);
        p.b[0] = 1.0;
        let mut opt = Adam::new(0.05);
        for _ in 0..300 {
            p.gb[0] = p.b[0];
            p.gw.set(0, 0, 0.0);
            opt.step_with(|f| f(ParamRef::Linear(&mut p)));
        }
        assert!(p.b[0].abs() < 0.05, "b = {}", p.b[0]);
    }

    #[test]
    fn lr_accessor() {
        assert_eq!(Adam::new(0.01).lr(), 0.01);
    }
}

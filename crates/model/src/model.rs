//! The [`Model`] trait: everything the CHEF pipeline needs from a
//! classifier.
//!
//! The sample selector (Infl/Increm-Infl), the model constructor
//! (Retrain/DeltaGrad-L) and every baseline consume models exclusively
//! through this interface. Losses/gradients here are per-sample
//! cross-entropy terms (Eq. 8) *without* regularization or γ-weighting —
//! those belong to [`crate::WeightedObjective`], which owns Eq. 1.

use crate::label::SoftLabel;
use crate::store::DatasetStore;
use chef_linalg::{vector, KernelBackend, Workspace};

/// Which kernel implementation served a batched [`Model`] call.
///
/// The batched entry points ([`Model::score_block`],
/// [`Model::hvp_block`]) report which path actually ran so the caller
/// can surface it in telemetry; [`Model::scoring_kernel`] advertises it
/// up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Structure-aware closed form: block GEMMs, no per-sample gradient
    /// vectors ever materialized ([`crate::LogisticRegression`]).
    Gemm,
    /// Generic fallback looping per-sample `grad`/`class_grad`/`hvp`
    /// (any model without a closed form, e.g. [`crate::Mlp`]).
    #[default]
    PerSample,
}

impl KernelPath {
    /// Stable lowercase name used in telemetry documents.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Gemm => "gemm",
            KernelPath::PerSample => "per_sample",
        }
    }
}

/// A differentiable C-class classifier with flattened parameters `w`.
pub trait Model: Send + Sync {
    /// Total number of parameters (dimension of `w`).
    fn num_params(&self) -> usize;

    /// Number of classes `C`.
    fn num_classes(&self) -> usize;

    /// Expected feature dimension (without bias; models append their own).
    fn feature_dim(&self) -> usize;

    /// Class-probability vector `p(w, x)` into `out` (length `C`).
    fn predict_proba(&self, w: &[f64], x: &[f64], out: &mut [f64]);

    /// Cross-entropy loss `F(w, z)` of one sample (Eq. 8).
    fn loss(&self, w: &[f64], x: &[f64], y: &SoftLabel) -> f64 {
        let mut p = vec![0.0; self.num_classes()];
        self.predict_proba(w, x, &mut p);
        y.cross_entropy(&p)
    }

    /// Per-sample gradient `∇_w F(w, z)` into `out` (length
    /// `num_params()`), overwriting it.
    fn grad(&self, w: &[f64], x: &[f64], y: &SoftLabel, out: &mut [f64]);

    /// Per-sample Hessian-vector product `H(w, z) · v` into `out`,
    /// overwriting it.
    fn hvp(&self, w: &[f64], x: &[f64], y: &SoftLabel, v: &[f64], out: &mut [f64]);

    /// Per-class gradient `∇_w (−log p⁽ᶜ⁾(w, x))` — column `c` of the
    /// mixed derivative `∇_y ∇_w F` (Eq. 9).
    ///
    /// For cross-entropy this equals the ordinary gradient with a one-hot
    /// label, which is the default implementation.
    fn class_grad(&self, w: &[f64], x: &[f64], class: usize, out: &mut [f64]) {
        let y = SoftLabel::onehot(class, self.num_classes());
        self.grad(w, x, &y, out);
    }

    /// Scratch-routed [`Model::grad`]: identical result, but any
    /// per-call buffers come from `ws` instead of fresh heap
    /// allocations. Hot loops (objective reductions, influence scoring,
    /// provenance) call this; the default forwards to `grad`.
    fn grad_ws(&self, w: &[f64], x: &[f64], y: &SoftLabel, out: &mut [f64], ws: &mut Workspace) {
        let _ = ws;
        self.grad(w, x, y, out);
    }

    /// Scratch-routed [`Model::hvp`] (see [`Model::grad_ws`]).
    fn hvp_ws(
        &self,
        w: &[f64],
        x: &[f64],
        y: &SoftLabel,
        v: &[f64],
        out: &mut [f64],
        ws: &mut Workspace,
    ) {
        let _ = ws;
        self.hvp(w, x, y, v, out);
    }

    /// Scratch-routed [`Model::class_grad`] (see [`Model::grad_ws`]).
    fn class_grad_ws(
        &self,
        w: &[f64],
        x: &[f64],
        class: usize,
        out: &mut [f64],
        ws: &mut Workspace,
    ) {
        let _ = ws;
        self.class_grad(w, x, class, out);
    }

    /// Which kernel [`Model::score_block`] / [`Model::hvp_block`] will
    /// run for this model. Purely informational (telemetry); the block
    /// entry points also report it from each call.
    fn scoring_kernel(&self) -> KernelPath {
        KernelPath::PerSample
    }

    /// Which panel-kernel family the model's GEMM panels run on. Purely
    /// informational (telemetry), and only meaningful when
    /// [`Model::scoring_kernel`] is [`KernelPath::Gemm`]. There is one
    /// family, so every model reports [`KernelBackend::Reference`].
    fn kernel_backend(&self) -> KernelBackend {
        KernelBackend::Reference
    }

    /// Batched influence dot products for a block of samples.
    ///
    /// For every `r` (indexing `block`) and class `c` this fills
    ///
    /// * `class_dots[r*C + c] = vᵀ ∇_w(−log p⁽ᶜ⁾)(w, x_r)` — the
    ///   per-class gradient dots of Eq. 9, and
    /// * `label_dots[r] = vᵀ ∇_w F(w, z_r)` — the observed-label
    ///   gradient dot driving the `(1−γ)` upweighting term of Eq. 6,
    ///
    /// without the caller ever seeing a gradient vector. The default
    /// loops the per-sample scratch-routed gradients and returns
    /// [`KernelPath::PerSample`]; structured models override it with a
    /// closed form (logistic regression: two block GEMMs then O(C) per
    /// sample) and return [`KernelPath::Gemm`]. Overrides must agree
    /// with this default to ~1e-10.
    #[allow(clippy::too_many_arguments)]
    fn score_block(
        &self,
        w: &[f64],
        data: &dyn DatasetStore,
        block: &[usize],
        v: &[f64],
        class_dots: &mut [f64],
        label_dots: &mut [f64],
        ws: &mut Workspace,
    ) -> KernelPath {
        let c = self.num_classes();
        debug_assert_eq!(class_dots.len(), block.len() * c);
        debug_assert_eq!(label_dots.len(), block.len());
        let mut g = ws.take(self.num_params());
        for (r, &i) in block.iter().enumerate() {
            let x = data.feature(i);
            for k in 0..c {
                self.class_grad_ws(w, x, k, &mut g, ws);
                class_dots[r * c + k] = vector::dot(v, &g);
            }
            self.grad_ws(w, x, data.label(i), &mut g, ws);
            label_dots[r] = vector::dot(v, &g);
        }
        ws.put(g);
        KernelPath::PerSample
    }

    /// Batched weighted gradient over an index set: overwrites `out`
    /// with `Σ_{i∈batch} γ_{z_i} ∇_w F(w, z_i)` — the raw weighted sum,
    /// with no `1/|batch|` normalization and no L2 term (both belong to
    /// [`crate::WeightedObjective`], which is the caller). This is the
    /// minibatch-SGD / DeltaGrad-replay twin of [`Model::hvp_block`]:
    /// the default loops per-sample [`Model::grad_ws`] and returns
    /// [`KernelPath::PerSample`]; structured models override it with a
    /// blocked closed form (logistic regression: one `B×C` probability
    /// panel, then `C` axpys per sample — the `Xᵀ·P̃` accumulation) and
    /// return [`KernelPath::Gemm`]. Overrides must agree with this
    /// default to ~1e-10.
    fn grad_block(
        &self,
        w: &[f64],
        data: &dyn DatasetStore,
        batch: &[usize],
        gamma: f64,
        out: &mut [f64],
        ws: &mut Workspace,
    ) -> KernelPath {
        out.fill(0.0);
        let mut g = ws.take(self.num_params());
        for &i in batch {
            self.grad_ws(w, data.feature(i), data.label(i), &mut g, ws);
            vector::axpy(data.weight(i, gamma), &g, out);
        }
        ws.put(g);
        KernelPath::PerSample
    }

    /// Batched weighted Hessian-vector product over an index set:
    /// overwrites `out` with `Σ_{i∈batch} γ_{z_i} H(w, z_i) v` — the raw
    /// weighted sum, with no `1/|batch|` normalization and no L2 term
    /// (both belong to [`crate::WeightedObjective`], which is the
    /// caller). The default loops per-sample [`Model::hvp_ws`];
    /// structured models override it with a blocked closed form.
    /// Overrides must agree with this default to ~1e-10.
    #[allow(clippy::too_many_arguments)]
    fn hvp_block(
        &self,
        w: &[f64],
        data: &dyn DatasetStore,
        batch: &[usize],
        gamma: f64,
        v: &[f64],
        out: &mut [f64],
        ws: &mut Workspace,
    ) -> KernelPath {
        out.fill(0.0);
        let mut h = ws.take(self.num_params());
        for &i in batch {
            self.hvp_ws(w, data.feature(i), data.label(i), v, &mut h, ws);
            vector::axpy(data.weight(i, gamma), &h, out);
        }
        ws.put(h);
        KernelPath::PerSample
    }

    /// Spectral norm of the per-sample cross-entropy Hessian
    /// `‖H(w, z)‖₂` (pre-computed as provenance by Increm-Infl,
    /// Appendix D).
    fn hessian_norm(&self, w: &[f64], x: &[f64], y: &SoftLabel) -> f64;

    /// Spectral norm of the per-class Hessian
    /// `‖−∇²_w log p⁽ʲ⁾(w, x)‖₂` (Theorem 1).
    ///
    /// For softmax cross-entropy `−log p⁽ʲ⁾ = −w_jᵀx̃ + logsumexp(Wx̃)`,
    /// whose Hessian is the logsumexp Hessian — identical for every class —
    /// so the default forwards to [`Model::hessian_norm`] with an
    /// arbitrary one-hot label (the CE Hessian is label-independent for
    /// the models in this crate).
    fn class_hessian_norm(&self, w: &[f64], x: &[f64], _class: usize) -> f64 {
        self.hessian_norm(w, x, &SoftLabel::onehot(0, self.num_classes()))
    }

    /// Initial parameter vector for training. Convex models start at
    /// zero; non-convex models must break symmetry (seeded).
    fn initial_params(&self, seed: u64) -> Vec<f64> {
        let _ = seed;
        vec![0.0; self.num_params()]
    }

    /// Convenience: probability vector as a fresh `Vec`.
    fn predict(&self, w: &[f64], x: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.num_classes()];
        self.predict_proba(w, x, &mut p);
        p
    }

    /// Convenience: predicted class (argmax probability).
    fn predict_class(&self, w: &[f64], x: &[f64]) -> usize {
        chef_linalg::vector::argmax(&self.predict(w, x))
    }
}

/// Finite-difference gradient check helper shared by model tests.
///
/// Returns the maximum absolute difference between `grad` and a central
/// finite difference of `loss` over all coordinates.
pub fn grad_check<M: Model + ?Sized>(
    model: &M,
    w: &[f64],
    x: &[f64],
    y: &SoftLabel,
    eps: f64,
) -> f64 {
    let mut g = vec![0.0; model.num_params()];
    model.grad(w, x, y, &mut g);
    let mut wbuf = w.to_vec();
    let mut max_err = 0.0f64;
    for i in 0..w.len() {
        wbuf[i] = w[i] + eps;
        let lp = model.loss(&wbuf, x, y);
        wbuf[i] = w[i] - eps;
        let lm = model.loss(&wbuf, x, y);
        wbuf[i] = w[i];
        let fd = (lp - lm) / (2.0 * eps);
        max_err = max_err.max((fd - g[i]).abs());
    }
    max_err
}

/// Finite-difference Hessian-vector-product check helper.
///
/// Compares `hvp` against `(∇F(w+εv) − ∇F(w−εv)) / 2ε`.
pub fn hvp_check<M: Model + ?Sized>(
    model: &M,
    w: &[f64],
    x: &[f64],
    y: &SoftLabel,
    v: &[f64],
    eps: f64,
) -> f64 {
    let m = model.num_params();
    let mut hv = vec![0.0; m];
    model.hvp(w, x, y, v, &mut hv);
    let wp: Vec<f64> = w.iter().zip(v).map(|(wi, vi)| wi + eps * vi).collect();
    let wm: Vec<f64> = w.iter().zip(v).map(|(wi, vi)| wi - eps * vi).collect();
    let mut gp = vec![0.0; m];
    let mut gm = vec![0.0; m];
    model.grad(&wp, x, y, &mut gp);
    model.grad(&wm, x, y, &mut gm);
    let mut max_err = 0.0f64;
    for i in 0..m {
        let fd = (gp[i] - gm[i]) / (2.0 * eps);
        max_err = max_err.max((fd - hv[i]).abs());
    }
    max_err
}

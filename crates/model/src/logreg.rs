//! Multiclass logistic (softmax) regression with closed-form calculus.
//!
//! This is the model class the paper's theory requires: with L2
//! regularization (added by [`crate::WeightedObjective`]) the training
//! objective is μ-strongly convex (§3.2), which Increm-Infl and
//! DeltaGrad-L rely on. Parameters are a `C × (d+1)` weight matrix
//! flattened row-major (class-major), with the bias folded in as a last
//! implicit all-ones feature.
//!
//! Closed forms used throughout (with `x̃ = [x; 1]`, `p = softmax(Wx̃)`):
//!
//! * loss: `F(W, z) = −Σ_k y⁽ᵏ⁾ log p⁽ᵏ⁾` (Eq. 8);
//! * gradient: `∇_W F = (p − y) x̃ᵀ`;
//! * per-class gradient (Eq. 9): `−∇_W log p⁽ᶜ⁾ = (p − e_c) x̃ᵀ`;
//! * Hessian: `H = (diag(p) − ppᵀ) ⊗ x̃x̃ᵀ` — label-independent, so the
//!   per-class Hessians of Theorem 1 coincide with it;
//! * Hessian norm: `λ_max(diag(p) − ppᵀ) · ‖x̃‖²`, with the `C × C`
//!   eigenproblem solved by the power method (the paper runs the power
//!   method on the full `m × m` Hessian via autodiff HVPs; running it on
//!   the Kronecker core is algebraically identical and far cheaper).

use crate::label::SoftLabel;
use crate::model::{KernelPath, Model};
use crate::store::DatasetStore;
use chef_linalg::power::{power_method, PowerConfig};
use chef_linalg::{kernels, vector, Matrix, Workspace};

/// Samples per block in the batched [`Model::hvp_block`] override —
/// keeps one block's gathered features plus its `P`/`U` panels inside
/// cache while the accumulator row stays hot.
const HVP_BLOCK: usize = 256;

/// Samples per block in the batched [`Model::grad_block`] override —
/// same cache story as [`HVP_BLOCK`], with only the `P` panel live.
const GRAD_BLOCK: usize = 256;

/// Softmax regression over `dim` raw features and `num_classes` classes.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    dim: usize,
    num_classes: usize,
}

impl LogisticRegression {
    /// Create a model description (parameters live outside the model).
    ///
    /// # Panics
    /// Panics unless `dim ≥ 1` and `num_classes ≥ 2`.
    pub fn new(dim: usize, num_classes: usize) -> Self {
        assert!(dim >= 1, "LogisticRegression: dim must be ≥ 1");
        assert!(num_classes >= 2, "LogisticRegression: need ≥ 2 classes");
        Self { dim, num_classes }
    }

    /// Columns per class: `dim + 1` (bias folded in).
    #[inline]
    pub fn cols(&self) -> usize {
        self.dim + 1
    }

    /// Zero-initialized parameter vector.
    pub fn init_params(&self) -> Vec<f64> {
        vec![0.0; self.num_params()]
    }

    /// Logits `Wx̃` into `out` (length `C`).
    fn logits(&self, w: &[f64], x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(w.len(), self.num_params());
        debug_assert_eq!(x.len(), self.dim);
        let cols = self.cols();
        for (c, o) in out.iter_mut().enumerate() {
            let row = &w[c * cols..(c + 1) * cols];
            *o = vector::dot(&row[..self.dim], x) + row[self.dim];
        }
    }

    /// Largest eigenvalue of the softmax core `diag(p) − ppᵀ`.
    fn core_norm(p: &[f64]) -> f64 {
        let c = p.len();
        if c == 2 {
            // Exact: trace = 2p₀p₁ splits into {0, p₀(1−p₀)+p₁(1−p₁)}.
            return p[0] * (1.0 - p[0]) + p[1] * (1.0 - p[1]);
        }
        let mut core = Matrix::zeros(c, c);
        for i in 0..c {
            for j in 0..c {
                core[(i, j)] = if i == j {
                    p[i] * (1.0 - p[i])
                } else {
                    -p[i] * p[j]
                };
            }
        }
        power_method(&core, &PowerConfig::default()).eigenvalue
    }

    /// `∇_W F = (p − y) x̃ᵀ` with caller-provided probability scratch
    /// `p` (length `C`) — the shared body of [`Model::grad`] and
    /// [`Model::grad_ws`].
    fn grad_with_scratch(
        &self,
        w: &[f64],
        x: &[f64],
        y: &SoftLabel,
        out: &mut [f64],
        p: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), self.num_params());
        self.predict_proba(w, x, p);
        let cols = self.cols();
        for c in 0..self.num_classes {
            let coeff = p[c] - y.prob(c);
            let row = &mut out[c * cols..(c + 1) * cols];
            for (ri, xi) in row[..self.dim].iter_mut().zip(x) {
                *ri = coeff * xi;
            }
            row[self.dim] = coeff;
        }
    }

    /// `Hv = ((diag(p) − ppᵀ) Vx̃) x̃ᵀ` with caller-provided scratch `p`
    /// and `u` (each length `C`) — the shared body of [`Model::hvp`]
    /// and [`Model::hvp_ws`].
    fn hvp_with_scratch(
        &self,
        w: &[f64],
        x: &[f64],
        v: &[f64],
        out: &mut [f64],
        p: &mut [f64],
        u: &mut [f64],
    ) {
        debug_assert_eq!(v.len(), self.num_params());
        debug_assert_eq!(out.len(), self.num_params());
        self.predict_proba(w, x, p);
        let cols = self.cols();
        // u_c = v_c · x̃ for each class row of V.
        for (c, uc) in u.iter_mut().enumerate() {
            let row = &v[c * cols..(c + 1) * cols];
            *uc = vector::dot(&row[..self.dim], x) + row[self.dim];
        }
        // s = (diag(p) − ppᵀ) u = p ∘ u − p (pᵀu).
        let pu = vector::dot(p, u);
        for c in 0..self.num_classes {
            let s = p[c] * (u[c] - pu);
            let row = &mut out[c * cols..(c + 1) * cols];
            for (ri, xi) in row[..self.dim].iter_mut().zip(x) {
                *ri = s * xi;
            }
            row[self.dim] = s;
        }
    }

    /// Fill `pb` (softmax probabilities) and `ub` (`U = X̃Vᵀ`), each
    /// `bsz×C` — the two GEMM panels scoring and HVPs consume, both
    /// through the sequential-reduction [`kernels::affine_nt`] (the
    /// bit-identity anchor of DESIGN.md §14). Consecutive blocks
    /// (full-dataset Hessian sweeps, gap-free runs of the ascending
    /// uncleaned pool) feed the dataset's contiguous feature storage
    /// straight into the GEMM; scattered blocks (subsampled Hessian
    /// batches, pools around cleaned rows, candidate sets) gather their
    /// rows into `xb` first. Returns the block's feature rows, so a
    /// caller that needs them again reads no row twice.
    #[allow(clippy::too_many_arguments)]
    fn block_panels<'a>(
        &self,
        w: &[f64],
        data: &'a dyn DatasetStore,
        block: &[usize],
        v: &[f64],
        xb: &'a mut [f64],
        pb: &mut [f64],
        ub: &mut [f64],
    ) -> &'a [f64] {
        let (d, c) = (self.dim, self.num_classes);
        let xs = block_features(data, block, d, xb);
        kernels::affine_nt(xs, w, d, pb);
        for r in 0..block.len() {
            vector::softmax_in_place(&mut pb[r * c..(r + 1) * c]);
        }
        kernels::affine_nt(xs, v, d, ub);
        xs
    }

    /// Fill `pb` (`bsz×C` softmax probabilities) from a pre-gathered
    /// feature block `xs` — the single panel [`Model::grad_block`]
    /// consumes. Unlike [`Self::block_panels`], this panel runs through
    /// the ILP-unrolled affine kernel ([`kernels::affine_nt_unrolled`]):
    /// the forward panel dominates the minibatch-gradient cost, and
    /// grad_block's contract is ≤1e-10 agreement with the per-sample
    /// path, not bit equality.
    fn proba_panel(&self, w: &[f64], xs: &[f64], pb: &mut [f64]) {
        let c = self.num_classes;
        kernels::affine_nt_unrolled(xs, w, self.dim, pb);
        for r in 0..pb.len() / c {
            vector::softmax_in_place(&mut pb[r * c..(r + 1) * c]);
        }
    }
}

/// Borrow a block's feature rows: the dataset's contiguous storage for
/// consecutive blocks (full-dataset sweeps, gap-free runs of the
/// ascending uncleaned pool), a gather into `xb` otherwise. `BatchPlan`
/// minibatches and subsampled Hessian batches are chunks of a shuffled
/// permutation, so SGD, DeltaGrad-L replay and the subsampled CG solve
/// always gather.
fn block_features<'a>(
    data: &'a dyn DatasetStore,
    block: &[usize],
    d: usize,
    xb: &'a mut [f64],
) -> &'a [f64] {
    let consecutive = block.windows(2).all(|pair| pair[1] == pair[0] + 1);
    // Zero-copy only when the run also stays inside one contiguous
    // storage unit (always true in memory; one chunk for a sharded
    // store). The gather fallback reads the same f64 bits row by row,
    // so which path runs can never change a result.
    if consecutive && !block.is_empty() && data.contiguous_limit(block[0]) >= block[0] + block.len()
    {
        return data.feature_rows(block[0], block[0] + block.len());
    }
    let copy_row = |r: usize| xb[r * d..(r + 1) * d].copy_from_slice(data.feature(block[r]));
    if data.contiguous_limit(0) < data.len() {
        // A sharded store keeps a residency window over its units, and
        // a shuffled block changes unit on almost every row. Copying in
        // ascending row order enters each unit once per block; every
        // row still lands in its own slot, so `xb` is the same either
        // way.
        let mut order: Vec<usize> = (0..block.len()).collect();
        order.sort_unstable_by_key(|&r| block[r]);
        order.into_iter().for_each(copy_row);
    } else {
        // One unit has no window to enter, and the sort costs more than
        // it saves: with it, `fashion-increm-retrain` and `serve-open20`
        // turned rounds around about 30% slower (9 and 10 of 10
        // benchmark pairs).
        (0..block.len()).for_each(copy_row);
    }
    xb
}

impl Model for LogisticRegression {
    fn num_params(&self) -> usize {
        self.num_classes * self.cols()
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn feature_dim(&self) -> usize {
        self.dim
    }

    fn predict_proba(&self, w: &[f64], x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.num_classes);
        self.logits(w, x, out);
        vector::softmax_in_place(out);
    }

    fn grad(&self, w: &[f64], x: &[f64], y: &SoftLabel, out: &mut [f64]) {
        let mut p = vec![0.0; self.num_classes];
        self.grad_with_scratch(w, x, y, out, &mut p);
    }

    fn hvp(&self, w: &[f64], x: &[f64], _y: &SoftLabel, v: &[f64], out: &mut [f64]) {
        let mut p = vec![0.0; self.num_classes];
        let mut u = vec![0.0; self.num_classes];
        self.hvp_with_scratch(w, x, v, out, &mut p, &mut u);
    }

    fn grad_ws(&self, w: &[f64], x: &[f64], y: &SoftLabel, out: &mut [f64], ws: &mut Workspace) {
        let mut p = ws.take(self.num_classes);
        self.grad_with_scratch(w, x, y, out, &mut p);
        ws.put(p);
    }

    fn hvp_ws(
        &self,
        w: &[f64],
        x: &[f64],
        _y: &SoftLabel,
        v: &[f64],
        out: &mut [f64],
        ws: &mut Workspace,
    ) {
        let mut p = ws.take(self.num_classes);
        let mut u = ws.take(self.num_classes);
        self.hvp_with_scratch(w, x, v, out, &mut p, &mut u);
        ws.put(u);
        ws.put(p);
    }

    fn class_grad_ws(
        &self,
        w: &[f64],
        x: &[f64],
        class: usize,
        out: &mut [f64],
        ws: &mut Workspace,
    ) {
        // coeff = p_c − [c = class]: identical arithmetic to grad with a
        // one-hot label, without materializing the label.
        debug_assert_eq!(out.len(), self.num_params());
        let mut p = ws.take(self.num_classes);
        self.predict_proba(w, x, &mut p);
        let cols = self.cols();
        for c in 0..self.num_classes {
            let coeff = p[c] - if c == class { 1.0 } else { 0.0 };
            let row = &mut out[c * cols..(c + 1) * cols];
            for (ri, xi) in row[..self.dim].iter_mut().zip(x) {
                *ri = coeff * xi;
            }
            row[self.dim] = coeff;
        }
        ws.put(p);
    }

    fn scoring_kernel(&self) -> KernelPath {
        KernelPath::Gemm
    }

    /// Closed form via the rank-1 gradient identity: every per-sample
    /// gradient is `(p − y) ⊗ x̃`, so its dot with `v` only needs
    /// `u_c = v_c · x̃` — one row of `U = X̃Vᵀ`. Two block GEMMs (`P`
    /// and `U`) then give all C class dots per sample in O(C).
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
        let (d, c) = (self.dim, self.num_classes);
        debug_assert_eq!(class_dots.len(), block.len() * c);
        debug_assert_eq!(label_dots.len(), block.len());
        let bsz = block.len();
        let mut xb = ws.take_uninit(bsz * d);
        let mut pb = ws.take_uninit(bsz * c);
        let mut ub = ws.take_uninit(bsz * c);
        self.block_panels(w, data, block, v, &mut xb, &mut pb, &mut ub);
        for (r, &i) in block.iter().enumerate() {
            let p = &pb[r * c..(r + 1) * c];
            let u = &ub[r * c..(r + 1) * c];
            // vᵀ(p − e_c)⊗x̃ = pᵀu − u_c; vᵀ(p − y)⊗x̃ = pᵀu − yᵀu.
            let pu = vector::dot(p, u);
            let y = data.label(i);
            let mut yu = 0.0;
            for (k, &uk) in u.iter().enumerate() {
                class_dots[r * c + k] = pu - uk;
                yu += y.prob(k) * uk;
            }
            label_dots[r] = pu - yu;
        }
        ws.put(ub);
        ws.put(pb);
        ws.put(xb);
        KernelPath::Gemm
    }

    /// Blocked closed-form minibatch gradient: every per-sample gradient
    /// is rank-1 (`(p − y) ⊗ x̃`), so a block needs exactly one `B×C`
    /// probability panel — the batched forward pass — after which the
    /// weighted sum `Σ_r γ_r (p_r − y_r) ⊗ x̃_r` is the `Xᵀ·P̃`
    /// accumulation with `P̃[r][k] = γ_r (p_r[k] − y_r[k])`, straight
    /// into `out`. No per-sample gradient vector is ever materialized,
    /// and the accumulation consumes two samples per pass so every
    /// `out`-row element is loaded and stored once per *pair* (two FMAs
    /// per round trip) instead of once per sample.
    #[allow(clippy::too_many_arguments)]
    fn grad_block(
        &self,
        w: &[f64],
        data: &dyn DatasetStore,
        batch: &[usize],
        gamma: f64,
        out: &mut [f64],
        ws: &mut Workspace,
    ) -> KernelPath {
        let (d, c, cols) = (self.dim, self.num_classes, self.cols());
        debug_assert_eq!(out.len(), self.num_params());
        out.fill(0.0);
        for chunk in batch.chunks(GRAD_BLOCK) {
            let bsz = chunk.len();
            let mut xb = ws.take_uninit(bsz * d);
            let mut pb = ws.take_uninit(bsz * c);
            let xs = block_features(data, chunk, d, &mut xb);
            self.proba_panel(w, xs, &mut pb[..bsz * c]);
            // Overwrite the probability panel with the weighted
            // coefficient panel P̃.
            for (r, &i) in chunk.iter().enumerate() {
                let weight = data.weight(i, gamma);
                let y = data.label(i);
                let p = &mut pb[r * c..(r + 1) * c];
                for (k, pk) in p.iter_mut().enumerate() {
                    *pk = weight * (*pk - y.prob(k));
                }
            }
            // out += X̃ᵀ·P̃, two samples per pass.
            let mut r = 0;
            while r + 1 < bsz {
                let x0 = &xs[r * d..(r + 1) * d];
                let x1 = &xs[(r + 1) * d..(r + 2) * d];
                for k in 0..c {
                    let s0 = pb[r * c + k];
                    let s1 = pb[(r + 1) * c + k];
                    let row = &mut out[k * cols..(k + 1) * cols];
                    for ((ri, &x0j), &x1j) in row[..d].iter_mut().zip(x0).zip(x1) {
                        *ri += s0 * x0j + s1 * x1j;
                    }
                    row[d] += s0 + s1;
                }
                r += 2;
            }
            if r < bsz {
                let x0 = &xs[r * d..(r + 1) * d];
                for k in 0..c {
                    let s0 = pb[r * c + k];
                    let row = &mut out[k * cols..(k + 1) * cols];
                    vector::axpy(s0, x0, &mut row[..d]);
                    row[d] += s0;
                }
            }
            ws.put(pb);
            ws.put(xb);
        }
        KernelPath::Gemm
    }

    /// Blocked closed-form HVP: for each sample the product is
    /// `s ⊗ x̃` with `s = γ_z · p ∘ (u − pᵀu)`, so one block reuses the
    /// same `P`/`U` panels as scoring and accumulates C axpys per
    /// sample, from the feature rows the panels were built on.
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
        let (d, c, cols) = (self.dim, self.num_classes, self.cols());
        debug_assert_eq!(out.len(), self.num_params());
        out.fill(0.0);
        for chunk in batch.chunks(HVP_BLOCK) {
            let bsz = chunk.len();
            let mut xb = ws.take_uninit(bsz * d);
            let mut pb = ws.take_uninit(bsz * c);
            let mut ub = ws.take_uninit(bsz * c);
            let xs = self.block_panels(w, data, chunk, v, &mut xb, &mut pb, &mut ub);
            for (r, &i) in chunk.iter().enumerate() {
                let weight = data.weight(i, gamma);
                let p = &pb[r * c..(r + 1) * c];
                let u = &ub[r * c..(r + 1) * c];
                let pu = vector::dot(p, u);
                let xrow = &xs[r * d..(r + 1) * d];
                for k in 0..c {
                    let s = weight * (p[k] * (u[k] - pu));
                    let row = &mut out[k * cols..(k + 1) * cols];
                    vector::axpy(s, xrow, &mut row[..d]);
                    row[d] += s;
                }
            }
            ws.put(ub);
            ws.put(pb);
            ws.put(xb);
        }
        KernelPath::Gemm
    }

    fn hessian_norm(&self, w: &[f64], x: &[f64], _y: &SoftLabel) -> f64 {
        let mut p = vec![0.0; self.num_classes];
        self.predict_proba(w, x, &mut p);
        let xt_norm_sq = vector::norm2_sq(x) + 1.0; // ‖x̃‖² with bias 1
        Self::core_norm(&p) * xt_norm_sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{grad_check, hvp_check};
    use chef_linalg::cg::LinearOperator;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(n: usize, rng: &mut SmallRng) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn zero_params_give_uniform_prediction() {
        let m = LogisticRegression::new(3, 4);
        let w = m.init_params();
        let p = m.predict(&w, &[0.5, -0.2, 1.0]);
        for v in &p {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(1);
        for trial in 0..10 {
            let m = LogisticRegression::new(4, 3);
            let w = rand_vec(m.num_params(), &mut rng);
            let x = rand_vec(4, &mut rng);
            let y = SoftLabel::from_weights(&[
                rng.gen_range(0.01..1.0),
                rng.gen_range(0.01..1.0),
                rng.gen_range(0.01..1.0),
            ]);
            let err = grad_check(&m, &w, &x, &y, 1e-6);
            assert!(err < 1e-6, "trial {trial}: grad error {err}");
        }
    }

    #[test]
    fn hvp_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(2);
        for trial in 0..10 {
            let m = LogisticRegression::new(3, 3);
            let w = rand_vec(m.num_params(), &mut rng);
            let x = rand_vec(3, &mut rng);
            let v = rand_vec(m.num_params(), &mut rng);
            let y = SoftLabel::uniform(3);
            let err = hvp_check(&m, &w, &x, &y, &v, 1e-5);
            assert!(err < 1e-6, "trial {trial}: hvp error {err}");
        }
    }

    #[test]
    fn class_grad_is_grad_with_onehot() {
        let mut rng = SmallRng::seed_from_u64(3);
        let m = LogisticRegression::new(3, 3);
        let w = rand_vec(m.num_params(), &mut rng);
        let x = rand_vec(3, &mut rng);
        let mut g1 = vec![0.0; m.num_params()];
        let mut g2 = vec![0.0; m.num_params()];
        for c in 0..3 {
            m.class_grad(&w, &x, c, &mut g1);
            m.grad(&w, &x, &SoftLabel::onehot(c, 3), &mut g2);
            assert_eq!(g1, g2);
        }
    }

    #[test]
    fn class_grad_matches_fd_of_neg_log_prob() {
        // ∇_w (−log p⁽ᶜ⁾) checked by central differences directly.
        let mut rng = SmallRng::seed_from_u64(4);
        let m = LogisticRegression::new(2, 3);
        let w = rand_vec(m.num_params(), &mut rng);
        let x = rand_vec(2, &mut rng);
        let c = 1;
        let mut g = vec![0.0; m.num_params()];
        m.class_grad(&w, &x, c, &mut g);
        let mut wbuf = w.clone();
        let eps = 1e-6;
        for i in 0..w.len() {
            wbuf[i] = w[i] + eps;
            let lp = -m.predict(&wbuf, &x)[c].ln();
            wbuf[i] = w[i] - eps;
            let lm = -m.predict(&wbuf, &x)[c].ln();
            wbuf[i] = w[i];
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - g[i]).abs() < 1e-6, "coord {i}");
        }
    }

    /// Dense per-sample Hessian assembled from HVPs (test oracle).
    struct SampleHessian<'a> {
        m: &'a LogisticRegression,
        w: &'a [f64],
        x: &'a [f64],
        y: &'a SoftLabel,
    }

    impl LinearOperator for SampleHessian<'_> {
        fn dim(&self) -> usize {
            self.m.num_params()
        }
        fn apply(&self, v: &[f64], out: &mut [f64]) {
            self.m.hvp(self.w, self.x, self.y, v, out);
        }
    }

    #[test]
    fn hessian_norm_matches_power_method_on_full_hessian() {
        let mut rng = SmallRng::seed_from_u64(5);
        for trial in 0..5 {
            let m = LogisticRegression::new(3, 3);
            let w = rand_vec(m.num_params(), &mut rng);
            let x = rand_vec(3, &mut rng);
            let y = SoftLabel::uniform(3);
            let closed = m.hessian_norm(&w, &x, &y);
            let op = SampleHessian {
                m: &m,
                w: &w,
                x: &x,
                y: &y,
            };
            let full = power_method(
                &op,
                &PowerConfig {
                    max_iters: 2000,
                    tol: 1e-13,
                    ..PowerConfig::default()
                },
            )
            .eigenvalue;
            assert!(
                (closed - full).abs() < 1e-6 * closed.max(1.0),
                "trial {trial}: closed {closed} vs full {full}"
            );
        }
    }

    #[test]
    fn binary_core_norm_matches_power_method() {
        let mut rng = SmallRng::seed_from_u64(6);
        let m = LogisticRegression::new(4, 2);
        let w = rand_vec(m.num_params(), &mut rng);
        let x = rand_vec(4, &mut rng);
        let y = SoftLabel::uniform(2);
        let closed = m.hessian_norm(&w, &x, &y);
        let op = SampleHessian {
            m: &m,
            w: &w,
            x: &x,
            y: &y,
        };
        let full = power_method(&op, &PowerConfig::default()).eigenvalue;
        assert!((closed - full).abs() < 1e-7 * closed.max(1.0));
    }

    #[test]
    fn loss_decreases_along_negative_gradient() {
        let mut rng = SmallRng::seed_from_u64(7);
        let m = LogisticRegression::new(3, 2);
        let w = rand_vec(m.num_params(), &mut rng);
        let x = rand_vec(3, &mut rng);
        let y = SoftLabel::onehot(0, 2);
        let mut g = vec![0.0; m.num_params()];
        m.grad(&w, &x, &y, &mut g);
        let l0 = m.loss(&w, &x, &y);
        let w2: Vec<f64> = w.iter().zip(&g).map(|(wi, gi)| wi - 0.01 * gi).collect();
        assert!(m.loss(&w2, &x, &y) < l0);
    }
}

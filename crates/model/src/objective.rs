//! The weighted training objective of paper Eq. 1.
//!
//! ```text
//! F(w) = (1/N) [ Σ_{z ∈ Z_d} F(w, z) + Σ_{z̃ ∈ Z_p} γ F(w, z̃) ] + (λ/2)‖w‖²
//! ```
//!
//! Uncleaned samples carry the user weight `γ ∈ (0, 1]`; cleaned samples
//! carry weight 1. The L2 term (weight decay `λ`) makes the objective
//! μ-strongly convex with μ = λ for [`crate::LogisticRegression`], which
//! is the assumption Increm-Infl and DeltaGrad-L need (§3.2). Minibatch
//! gradients follow the paper's convention of dividing by the batch size
//! (not the weight sum).

use crate::label::SoftLabel;
use crate::model::Model;
use crate::store::DatasetStore;
use chef_linalg::{vector, LinearOperator, Workspace};

/// Minimum number of per-sample terms before an accumulation splits into
/// `GRAD_CHUNK`-row partial sums (and, on a pool with more than one
/// worker, fans them out). Below it one block call runs. The gate
/// depends only on the input length — never the machine — so the
/// summation order is the same at every pool size.
pub const PAR_GRAIN: usize = 512;

/// Samples per partial sum when an accumulation reaches [`PAR_GRAIN`].
/// Half of [`PAR_GRAIN`] so a batch right at the threshold still yields
/// more than one chunk.
const GRAD_CHUNK: usize = PAR_GRAIN / 2;

/// The one reduction behind [`WeightedObjective::batch_grad`],
/// [`WeightedObjective::val_grad`] and [`WeightedObjective::batch_hvp`]:
/// overwrite `out` with the raw sum that `block` computes over `batch`
/// (a [`Model::grad_block`] or [`Model::hvp_block`] call, which
/// overwrites its output).
///
/// Below [`PAR_GRAIN`] this is one `block` call. At or above it the
/// [`GRAD_CHUNK`]-row partial sums are added in chunk order: serially
/// with one [`Workspace`] on a 1-worker pool, otherwise one task per
/// chunk across the pool. Either way every sum associates the same way,
/// so the result is bit-identical at every pool size.
fn chunked_sum<F>(batch: &[usize], out: &mut [f64], block: F)
where
    F: Fn(&[usize], &mut [f64], &mut Workspace) + Sync,
{
    if batch.len() < PAR_GRAIN {
        block(batch, out, &mut Workspace::new());
        return;
    }
    let m = out.len();
    out.fill(0.0);
    if rayon::current_num_threads() > 1 {
        use rayon::prelude::*;
        let nchunks = batch.len().div_ceil(GRAD_CHUNK);
        // map_init rather than fold: each task returns its partial sum
        // and keeps only a per-worker-chunk Workspace as state. (A fold
        // threading the accumulator through every step costs ~2x on the
        // HVP — the moved accumulator defeats the optimizer.)
        let parts: Vec<Vec<f64>> = (0..nchunks)
            .into_par_iter()
            .map_init(Workspace::new, |ws, ci| {
                let lo = ci * GRAD_CHUNK;
                let hi = (lo + GRAD_CHUNK).min(batch.len());
                let mut part = vec![0.0; m];
                block(&batch[lo..hi], &mut part, ws);
                part
            })
            .collect();
        for part in &parts {
            vector::axpy(1.0, part, out);
        }
    } else {
        let mut ws = Workspace::new();
        let mut part = vec![0.0; m];
        for chunk in batch.chunks(GRAD_CHUNK) {
            block(chunk, &mut part, &mut ws);
            vector::axpy(1.0, &part, out);
        }
    }
}

/// Weighted, L2-regularized empirical risk (paper Eq. 1).
#[derive(Debug, Clone, Copy)]
pub struct WeightedObjective {
    /// Weight `γ` on uncleaned training samples.
    pub gamma: f64,
    /// L2 regularization strength `λ` (the strong-convexity constant μ).
    pub l2: f64,
}

impl WeightedObjective {
    /// Create an objective description.
    ///
    /// # Panics
    /// Panics unless `0 ≤ γ ≤ 1` and `λ ≥ 0`.
    pub fn new(gamma: f64, l2: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        assert!(l2 >= 0.0, "l2 must be non-negative");
        Self { gamma, l2 }
    }

    /// Full-dataset objective value `F(w)`.
    pub fn loss<M: Model + ?Sized>(&self, model: &M, data: &dyn DatasetStore, w: &[f64]) -> f64 {
        let idx: Vec<usize> = (0..data.len()).collect();
        self.batch_loss(model, data, &idx, w)
    }

    /// Weighted mean loss over the index set plus the L2 term.
    pub fn batch_loss<M: Model + ?Sized>(
        &self,
        model: &M,
        data: &dyn DatasetStore,
        batch: &[usize],
        w: &[f64],
    ) -> f64 {
        if batch.is_empty() {
            return 0.5 * self.l2 * vector::norm2_sq(w);
        }
        let mut sum = 0.0;
        for &i in batch {
            sum += data.weight(i, self.gamma) * model.loss(w, data.feature(i), data.label(i));
        }
        sum / batch.len() as f64 + 0.5 * self.l2 * vector::norm2_sq(w)
    }

    /// Full-dataset gradient `∇F(w)` into `out` (overwrites).
    pub fn grad<M: Model + ?Sized>(
        &self,
        model: &M,
        data: &dyn DatasetStore,
        w: &[f64],
        out: &mut [f64],
    ) {
        let idx: Vec<usize> = (0..data.len()).collect();
        self.batch_grad(model, data, &idx, w, out);
    }

    /// Minibatch gradient
    /// `∇F(w, B) = (1/|B|) Σ_{z∈B} γ_z ∇F(w, z) + λw` into `out`.
    ///
    /// Runs the model's batched [`Model::grad_block`] kernel
    /// (closed-form GEMM panels for logistic regression, a per-sample
    /// fallback otherwise). Batches of at least [`PAR_GRAIN`] samples sum
    /// `GRAD_CHUNK`-sized partial sums in chunk order, fanned out on a
    /// pool with more than one worker, so the result is bit-identical at
    /// every pool size.
    pub fn batch_grad<M: Model + ?Sized>(
        &self,
        model: &M,
        data: &dyn DatasetStore,
        batch: &[usize],
        w: &[f64],
        out: &mut [f64],
    ) {
        chunked_sum(batch, out, |chunk, part, ws| {
            model.grad_block(w, data, chunk, self.gamma, part, ws);
        });
        if !batch.is_empty() {
            vector::scale(1.0 / batch.len() as f64, out);
        }
        vector::axpy(self.l2, w, out);
    }

    /// Full-dataset Hessian-vector product
    /// `H(w) v = (1/N) Σ γ_z H(w, z) v + λ v` into `out`.
    ///
    /// Runs the model's batched [`Model::hvp_block`] kernel (closed-form
    /// GEMM blocks for logistic regression, a per-sample fallback
    /// otherwise) through the same chunked reduction as
    /// [`Self::batch_grad`].
    pub fn hvp<M: Model + ?Sized>(
        &self,
        model: &M,
        data: &dyn DatasetStore,
        w: &[f64],
        v: &[f64],
        out: &mut [f64],
    ) {
        let idx: Vec<usize> = (0..data.len()).collect();
        self.batch_hvp(model, data, &idx, w, v, out)
    }

    /// [`Self::hvp`] restricted to an index subset (the subsampled-Hessian
    /// estimator of Koh & Liang): `(1/|batch|) Σ_{i∈batch} γ_z H(w, z_i) v
    /// + λ v` into `out`.
    ///
    /// At or above [`PAR_GRAIN`] samples the batch sums `GRAD_CHUNK`-row
    /// [`Model::hvp_block`] calls in chunk order — the same reduction as
    /// [`Self::batch_grad`], and like it bit-identical at every pool size.
    pub fn batch_hvp<M: Model + ?Sized>(
        &self,
        model: &M,
        data: &dyn DatasetStore,
        batch: &[usize],
        w: &[f64],
        v: &[f64],
        out: &mut [f64],
    ) {
        chunked_sum(batch, out, |chunk, part, ws| {
            model.hvp_block(w, data, chunk, self.gamma, v, part, ws);
        });
        if !batch.is_empty() {
            vector::scale(1.0 / batch.len() as f64, out);
        }
        vector::axpy(self.l2, v, out);
    }

    /// Unweighted, unregularized mean cross-entropy over a validation set
    /// — the `F(w, Z_val)` the influence functions differentiate.
    pub fn val_loss<M: Model + ?Sized>(&self, model: &M, val: &dyn DatasetStore, w: &[f64]) -> f64 {
        assert!(!val.is_empty(), "val_loss: empty validation set");
        let mut sum = 0.0;
        for i in 0..val.len() {
            sum += model.loss(w, val.feature(i), val.label(i));
        }
        sum / val.len() as f64
    }

    /// Gradient of [`Self::val_loss`]: `∇_w F(w, Z_val)` into `out`.
    ///
    /// Runs [`Model::grad_block`] with an explicit `γ = 1` (validation
    /// samples are never down-weighted, so the objective's own `γ` and
    /// `λ` are irrelevant here — any two objectives produce bitwise
    /// equal validation gradients), through the same chunked reduction
    /// as [`Self::batch_grad`].
    pub fn val_grad<M: Model + ?Sized>(
        &self,
        model: &M,
        val: &dyn DatasetStore,
        w: &[f64],
        out: &mut [f64],
    ) {
        assert!(!val.is_empty(), "val_grad: empty validation set");
        let batch: Vec<usize> = (0..val.len()).collect();
        chunked_sum(&batch, out, |chunk, part, ws| {
            model.grad_block(w, val, chunk, 1.0, part, ws);
        });
        vector::scale(1.0 / val.len() as f64, out);
    }

    /// Loss of a single *hypothetical* sample: feature of index `i` but an
    /// arbitrary label (used when scoring candidate cleaned labels).
    pub fn sample_loss_with_label<M: Model + ?Sized>(
        &self,
        model: &M,
        data: &dyn DatasetStore,
        i: usize,
        label: &SoftLabel,
        w: &[f64],
    ) -> f64 {
        model.loss(w, data.feature(i), label)
    }

    /// The training-set Hessian as a [`LinearOperator`] for the CG solver.
    pub fn hessian_operator<'a, M: Model + ?Sized>(
        &self,
        model: &'a M,
        data: &'a dyn DatasetStore,
        w: &'a [f64],
    ) -> HessianOperator<'a, M> {
        HessianOperator {
            objective: *self,
            model,
            data,
            w,
            batch: None,
            applies: std::cell::Cell::new(0),
        }
    }

    /// [`Self::hessian_operator`] over a subsampled index set — the
    /// stochastic Hessian estimator that keeps the conjugate-gradient
    /// solve cheap on large training sets.
    pub fn hessian_operator_on<'a, M: Model + ?Sized>(
        &self,
        model: &'a M,
        data: &'a dyn DatasetStore,
        w: &'a [f64],
        batch: Vec<usize>,
    ) -> HessianOperator<'a, M> {
        HessianOperator {
            objective: *self,
            model,
            data,
            w,
            batch: Some(batch),
            applies: std::cell::Cell::new(0),
        }
    }
}

/// `v ↦ H(w) v` for the weighted objective, fed to conjugate gradients to
/// form `H⁻¹(w) ∇F(w, Z_val)` without materializing `H` (§4.1.1).
pub struct HessianOperator<'a, M: Model + ?Sized> {
    objective: WeightedObjective,
    model: &'a M,
    data: &'a dyn DatasetStore,
    w: &'a [f64],
    batch: Option<Vec<usize>>,
    /// Hessian-vector products applied so far (telemetry: the CG solve's
    /// dominant cost, reported as `hvp_evals` in telemetry.v1).
    applies: std::cell::Cell<usize>,
}

impl<M: Model + ?Sized> HessianOperator<'_, M> {
    /// Number of times [`LinearOperator::apply`] ran on this operator.
    pub fn applies(&self) -> usize {
        self.applies.get()
    }
}

impl<M: Model + ?Sized> LinearOperator for HessianOperator<'_, M> {
    fn dim(&self) -> usize {
        self.model.num_params()
    }

    fn apply(&self, v: &[f64], out: &mut [f64]) {
        self.applies.set(self.applies.get() + 1);
        match &self.batch {
            Some(batch) => self
                .objective
                .batch_hvp(self.model, self.data, batch, self.w, v, out),
            None => self.objective.hvp(self.model, self.data, self.w, v, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::logreg::LogisticRegression;
    use chef_linalg::Matrix;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn toy_data(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut raw = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        let mut clean = Vec::with_capacity(n);
        for i in 0..n {
            for _ in 0..dim {
                raw.push(rng.gen_range(-1.0..1.0));
            }
            let p = rng.gen_range(0.05..0.95);
            labels.push(SoftLabel::new(vec![p, 1.0 - p]));
            clean.push(i % 3 == 0);
        }
        Dataset::new(
            Matrix::from_vec(n, dim, raw),
            labels,
            clean,
            vec![None; n],
            2,
        )
    }

    #[test]
    fn full_grad_matches_finite_differences() {
        let data = toy_data(12, 3, 1);
        let model = LogisticRegression::new(3, 2);
        let obj = WeightedObjective::new(0.8, 0.05);
        let mut rng = SmallRng::seed_from_u64(2);
        let w: Vec<f64> = (0..model.num_params())
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        let mut g = vec![0.0; model.num_params()];
        obj.grad(&model, &data, &w, &mut g);
        let eps = 1e-6;
        let mut wbuf = w.clone();
        for i in 0..w.len() {
            wbuf[i] = w[i] + eps;
            let lp = obj.loss(&model, &data, &wbuf);
            wbuf[i] = w[i] - eps;
            let lm = obj.loss(&model, &data, &wbuf);
            wbuf[i] = w[i];
            assert!(((lp - lm) / (2.0 * eps) - g[i]).abs() < 1e-6, "coord {i}");
        }
    }

    #[test]
    fn hvp_matches_fd_of_grad() {
        let data = toy_data(10, 2, 3);
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(0.7, 0.1);
        let mut rng = SmallRng::seed_from_u64(4);
        let w: Vec<f64> = (0..model.num_params())
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        let v: Vec<f64> = (0..model.num_params())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut hv = vec![0.0; model.num_params()];
        obj.hvp(&model, &data, &w, &v, &mut hv);
        let eps = 1e-6;
        let wp: Vec<f64> = w.iter().zip(&v).map(|(a, b)| a + eps * b).collect();
        let wm: Vec<f64> = w.iter().zip(&v).map(|(a, b)| a - eps * b).collect();
        let mut gp = vec![0.0; model.num_params()];
        let mut gm = vec![0.0; model.num_params()];
        obj.grad(&model, &data, &wp, &mut gp);
        obj.grad(&model, &data, &wm, &mut gm);
        for i in 0..w.len() {
            let fd = (gp[i] - gm[i]) / (2.0 * eps);
            assert!((fd - hv[i]).abs() < 1e-5, "coord {i}: {fd} vs {}", hv[i]);
        }
    }

    #[test]
    fn hessian_operator_is_strongly_convex() {
        // vᵀHv ≥ λ‖v‖² must hold for every v when the model's CE Hessian
        // is PSD.
        let data = toy_data(8, 3, 5);
        let model = LogisticRegression::new(3, 2);
        let l2 = 0.05;
        let obj = WeightedObjective::new(0.8, l2);
        let w = model.init_params();
        let op = obj.hessian_operator(&model, &data, &w);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..10 {
            let v: Vec<f64> = (0..model.num_params())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let mut hv = vec![0.0; model.num_params()];
            op.apply(&v, &mut hv);
            let quad = vector::dot(&v, &hv);
            assert!(quad >= l2 * vector::norm2_sq(&v) - 1e-10);
        }
    }

    #[test]
    fn gamma_weights_uncleaned_samples() {
        // With γ = 0 the uncleaned samples must not contribute.
        let mut data = toy_data(6, 2, 7);
        let model = LogisticRegression::new(2, 2);
        let w = vec![0.3; model.num_params()];
        let obj0 = WeightedObjective::new(0.0, 0.0);
        let clean_only: Vec<usize> = (0..data.len()).filter(|&i| data.is_clean(i)).collect();
        let loss_clean_only: f64 = clean_only
            .iter()
            .map(|&i| model.loss(&w, data.feature(i), data.label(i)))
            .sum::<f64>()
            / data.len() as f64;
        assert!((obj0.loss(&model, &data, &w) - loss_clean_only).abs() < 1e-12);

        // Cleaning a sample moves its weight from γ to 1.
        let obj = WeightedObjective::new(0.5, 0.0);
        let before = obj.loss(&model, &data, &w);
        let uncleaned = data.uncleaned_indices()[0];
        let keep_label = data.label(uncleaned).clone();
        data.clean_label(uncleaned, keep_label.rounded());
        let after = obj.loss(&model, &data, &w);
        // Weight went up; with the rounded label the contribution changed.
        assert_ne!(before, after);
        let _ = keep_label;
    }

    #[test]
    fn empty_batch_is_pure_regularization() {
        let data = toy_data(4, 2, 8);
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(0.8, 0.2);
        let w = vec![1.0; model.num_params()];
        assert!((obj.batch_loss(&model, &data, &[], &w) - 0.1 * w.len() as f64).abs() < 1e-12);
        let mut g = vec![0.0; model.num_params()];
        obj.batch_grad(&model, &data, &[], &w, &mut g);
        for gi in &g {
            assert!((gi - 0.2).abs() < 1e-12);
        }
    }

    fn pool(n: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    /// Every accumulation sums the same chunks in the same order at every
    /// pool size, so one worker and four agree bit-for-bit — the HVP
    /// included.
    #[test]
    fn parallel_accumulation_matches_serial() {
        let n = PAR_GRAIN * 2 + 17;
        let data = toy_data(n, 4, 11);
        let model = LogisticRegression::new(4, 2);
        let obj = WeightedObjective::new(0.7, 0.03);
        let m = model.num_params();
        let mut rng = SmallRng::seed_from_u64(12);
        let w: Vec<f64> = (0..m).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let v: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let batch: Vec<usize> = (0..n).collect();
        let all = |threads: usize| {
            pool(threads).install(|| {
                let mut out = vec![vec![0.0; m]; 4];
                obj.batch_grad(&model, &data, &batch, &w, &mut out[0]);
                obj.hvp(&model, &data, &w, &v, &mut out[1]);
                obj.batch_hvp(&model, &data, &batch[3..], &w, &v, &mut out[2]);
                obj.val_grad(&model, &data, &w, &mut out[3]);
                out
            })
        };
        let (one, four) = (all(1), all(4));
        for (what, (a, b)) in ["batch_grad", "hvp", "batch_hvp", "val_grad"]
            .iter()
            .zip(one.iter().zip(&four))
        {
            let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{what}");
        }
    }

    /// Exact pool-size equality at, below and above the chunking grain.
    #[test]
    fn batch_grad_dispatch_is_bit_identical_to_serial() {
        let model = LogisticRegression::new(3, 2);
        let obj = WeightedObjective::new(0.6, 0.02);
        let m = model.num_params();
        let mut rng = SmallRng::seed_from_u64(21);
        let w: Vec<f64> = (0..m).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let v: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for n in [PAR_GRAIN - 1, PAR_GRAIN, PAR_GRAIN * 2 + 17] {
            let data = toy_data(n, 3, n as u64);
            let batch: Vec<usize> = (0..n).collect();
            let all = |threads: usize| {
                pool(threads).install(|| {
                    let (mut g, mut vg, mut hv) = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
                    obj.batch_grad(&model, &data, &batch, &w, &mut g);
                    obj.val_grad(&model, &data, &w, &mut vg);
                    obj.batch_hvp(&model, &data, &batch, &w, &v, &mut hv);
                    (g, vg, hv)
                })
            };
            let (one, four) = (all(1), all(4));
            assert_eq!(one.0, four.0, "batch_grad at n={n}");
            assert_eq!(one.1, four.1, "val_grad at n={n}");
            assert_eq!(one.2, four.2, "batch_hvp at n={n}");
        }
    }

    #[test]
    fn val_loss_and_grad_ignore_weights() {
        let data = toy_data(5, 2, 9);
        let model = LogisticRegression::new(2, 2);
        let w = vec![0.1; model.num_params()];
        let a = WeightedObjective::new(0.1, 0.5);
        let b = WeightedObjective::new(1.0, 0.0);
        assert_eq!(a.val_loss(&model, &data, &w), b.val_loss(&model, &data, &w));
        let mut ga = vec![0.0; model.num_params()];
        let mut gb = vec![0.0; model.num_params()];
        a.val_grad(&model, &data, &w, &mut ga);
        b.val_grad(&model, &data, &w, &mut gb);
        assert_eq!(ga, gb);
    }
}

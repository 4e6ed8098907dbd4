//! **DUTI** — debugging training sets using trusted items
//! (Zhang, Zhu & Wright, AAAI 2018; paper §4.1.1 and Appendices F.3/G.4).
//!
//! DUTI poses label cleaning as the bi-level problem of Eq. S25: find
//! relaxed labels `Y′` minimizing the trusted-validation loss of the
//! model *trained on* `Y′`, plus a fidelity term `(γ_duti/n) Σ (1 −
//! y′_{i, ŷ_i})` that discourages moving labels away from the observed
//! ones (per Appendix F.3, `ŷ_i = argmax y_i` when the observed label is
//! probabilistic). Exactly solving the bi-level program is what makes
//! DUTI too slow for the iterative loop; like the original
//! implementation we *relax* it into alternating first-order steps:
//!
//! 1. inner: fit `ŵ(Y′)` with a few full-batch GD steps,
//! 2. outer: a hypergradient step on `Y′`, using the implicit-function
//!    hypergradient `∂L_val/∂y′_i = −(1/n) (H⁻¹∇L_val)ᵀ ∇_y∇_wF(ŵ, z_i)`
//!    (the same mixed derivative Infl uses) plus the fidelity
//!    subgradient, followed by projection onto the simplex.
//!
//! Samples are ranked by how far DUTI moved their label, `‖y′_i − y_i‖₁`
//! (descending), and `argmax y′_i` is the suggested cleaned label.

use chef_core::influence::{influence_vector, InflConfig};
use chef_core::selector::{SampleSelector, Selection, SelectorContext};
use chef_linalg::vector;

/// DUTI hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct DutiConfig {
    /// Outer (label) step size.
    pub label_lr: f64,
    /// Outer iterations.
    pub outer_iters: usize,
    /// Inner GD steps per outer iteration.
    pub inner_steps: usize,
    /// Inner GD learning rate.
    pub inner_lr: f64,
    /// Fidelity weight (the `γ` of Eq. S25 — unrelated to the pipeline γ).
    pub fidelity: f64,
    /// CG configuration for the hypergradient solve.
    pub cg: InflConfig,
}

impl Default for DutiConfig {
    fn default() -> Self {
        Self {
            label_lr: 2.0,
            outer_iters: 5,
            inner_steps: 40,
            inner_lr: 0.3,
            fidelity: 0.1,
            cg: InflConfig::default(),
        }
    }
}

/// Euclidean projection of a vector onto the probability simplex
/// (Held–Wolfe–Crowder via sorting).
pub fn project_to_simplex(y: &[f64]) -> Vec<f64> {
    let n = y.len();
    assert!(n > 0, "project_to_simplex: empty vector");
    let mut sorted = y.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut cum = 0.0;
    let mut rho = 0;
    let mut theta = 0.0;
    for (k, &v) in sorted.iter().enumerate() {
        cum += v;
        let t = (cum - 1.0) / (k + 1) as f64;
        if v - t > 0.0 {
            rho = k;
            theta = t;
        }
    }
    let _ = rho;
    y.iter().map(|&v| (v - theta).max(0.0)).collect()
}

/// The DUTI selector.
#[derive(Debug, Default)]
pub struct Duti {
    /// Solver hyperparameters.
    pub cfg: DutiConfig,
}

impl SampleSelector for Duti {
    fn name(&self) -> &str {
        "DUTI"
    }

    fn select(&mut self, ctx: &SelectorContext<'_>) -> Vec<Selection> {
        let model = ctx.model;
        let obj = ctx.objective;
        let m = model.num_params();
        let c_count = model.num_classes();
        let n = ctx.data.len() as f64;

        // Work on a private in-memory copy whose labels we relax
        // (DUTI's relaxation mutates every pool label, so an overlay
        // would not help; materializing is the honest cost).
        let mut relaxed = ctx.data.to_dataset();
        let mut w = ctx.w.to_vec();
        let mut g = vec![0.0; m];
        let all: Vec<usize> = (0..ctx.data.len()).collect();

        for _ in 0..self.cfg.outer_iters {
            // Inner: refit on the relaxed labels.
            for _ in 0..self.cfg.inner_steps {
                obj.batch_grad(model, &relaxed, &all, &w, &mut g);
                vector::axpy(-self.cfg.inner_lr, &g, &mut w);
            }
            // Outer: hypergradient on each pool label.
            let v = influence_vector(model, obj, &relaxed, ctx.val, &w, &self.cfg.cg);
            for &i in ctx.pool {
                let x = ctx.data.feature(i);
                let observed_argmax = ctx.data.label(i).argmax();
                let mut grad_y = vec![0.0; c_count];
                for (c, gy) in grad_y.iter_mut().enumerate() {
                    model.class_grad(&w, x, c, &mut g);
                    // d L_val / d y′_{i,c} = −(1/n) vᵀ (−∇_w log p⁽ᶜ⁾)
                    *gy = -vector::dot(&v, &g) / n;
                }
                // Fidelity: −(γ/n) y′_{i, ŷ_i} pushes that entry up.
                grad_y[observed_argmax] -= self.cfg.fidelity / n;
                let mut y_new: Vec<f64> = relaxed
                    .label(i)
                    .probs()
                    .iter()
                    .zip(&grad_y)
                    .map(|(&p, &gy)| p - self.cfg.label_lr * n * gy)
                    .collect();
                y_new = project_to_simplex(&y_new);
                relaxed.set_label(i, chef_model::SoftLabel::new(y_new));
            }
        }

        // Rank by L1 movement, descending.
        let mut scored: Vec<(usize, f64, usize)> = ctx
            .pool
            .iter()
            .map(|&i| {
                let before = ctx.data.label(i).probs();
                let after = relaxed.label(i).probs();
                let movement: f64 = before.iter().zip(after).map(|(a, b)| (a - b).abs()).sum();
                (i, movement, relaxed.label(i).argmax())
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        // Borrowing iterator: `into_iter` would let `collect` reuse the
        // pool-sized buffer (same 24-byte layout as `Selection`), and the
        // round report keeps the result for the rest of the run.
        scored
            .iter()
            .take(ctx.b)
            .map(|&(index, _, suggested)| Selection {
                index,
                suggested: Some(suggested),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::fixture;
    use chef_model::{Model, SoftLabel};

    #[test]
    fn simplex_projection_properties() {
        for input in [
            vec![0.5, 0.5],
            vec![2.0, -1.0],
            vec![0.2, 0.3, 0.9],
            vec![-5.0, -5.0, -5.0],
        ] {
            let p = project_to_simplex(&input);
            assert!(
                (p.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "{input:?} → {p:?}"
            );
            assert!(p.iter().all(|&v| v >= 0.0));
        }
        // Already on the simplex → unchanged.
        let p = project_to_simplex(&[0.3, 0.7]);
        assert!((p[0] - 0.3).abs() < 1e-12 && (p[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn suggests_labels_and_flags_poisoned_samples() {
        let (model, obj, mut data, val) = fixture(60, 21);
        // Make most labels mildly informative; poison two samples hard.
        for i in 0..data.len() {
            let t = data.ground_truth(i).unwrap();
            let l = if i < 2 {
                SoftLabel::onehot(1 - t, 2)
            } else {
                let mut p = vec![0.35, 0.35];
                p[t] = 0.65;
                SoftLabel::new(p)
            };
            data.set_label(i, l);
            data.mark_uncleaned(i);
        }
        let w = vec![0.0; model.num_params()];
        let pool = data.uncleaned_indices();
        let ctx = SelectorContext {
            model: &model,
            objective: &obj,
            data: &data,
            val: &val,
            w: &w,
            pool: &pool,
            b: 10,
            round: 0,
        };
        let mut sel = Duti::default();
        let picks = sel.select(&ctx);
        assert_eq!(picks.len(), 10);
        assert!(picks.iter().all(|p| p.suggested.is_some()));
        let picked: Vec<usize> = picks.iter().map(|s| s.index).collect();
        let hits = (0..2).filter(|i| picked.contains(i)).count();
        assert!(hits >= 1, "poisoned samples not flagged: {picked:?}");
    }
}

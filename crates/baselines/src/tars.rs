//! **TARS** — cleaning crowdsourced *deterministic* labels with oracles
//! (Dolatshah et al., VLDB 2018; paper Appendix G.3).
//!
//! TARS scores each noisily-labeled sample by the *expected* model
//! improvement of sending it to an oracle: the probability that the
//! oracle would flip the label, times the influence of that flip on the
//! model. The original estimates the flip probability from the joint
//! distribution of all annotators' labels — exponential in the number of
//! annotators, which is why the paper only compares on the datasets with
//! small panels.
//!
//! Adaptation (documented in DESIGN.md): TARS requires labels in {0, 1},
//! so probabilistic labels are *rounded* before scoring (the paper does
//! the same for the comparison). The flip probability of sample `z̃` with
//! rounded label `ŷ` is estimated from the model's own posterior,
//! `P(flip to c) ∝ p⁽ᶜ⁾(w, x)` for `c ≠ ŷ` — the calibrated stand-in for
//! the annotator-combination table we don't have — and the flip influence
//! is the same label-perturbation influence Infl uses, evaluated at the
//! rounded label. Samples with the most negative expected influence are
//! selected.

use chef_core::influence::{influence_vector, InflConfig};
use chef_core::selector::{SampleSelector, Selection, SelectorContext};
use chef_linalg::vector;

/// The TARS selector.
#[derive(Debug, Default)]
pub struct Tars {
    /// CG configuration for the `H⁻¹v` solve.
    pub cfg: InflConfig,
}

impl SampleSelector for Tars {
    fn name(&self) -> &str {
        "TARS"
    }

    fn select(&mut self, ctx: &SelectorContext<'_>) -> Vec<Selection> {
        let v = influence_vector(
            ctx.model,
            ctx.objective,
            ctx.data,
            ctx.val,
            ctx.w,
            &self.cfg,
        );
        let c_count = ctx.model.num_classes();
        let mut g = vec![0.0; ctx.model.num_params()];
        let mut scored: Vec<(usize, f64, usize)> = ctx
            .pool
            .iter()
            .map(|&i| {
                let x = ctx.data.feature(i);
                let rounded = ctx.data.label(i).rounded();
                let current = rounded.argmax();
                let posterior = ctx.model.predict(ctx.w, x);
                // Expected influence over oracle flips, weighted by the
                // estimated flip probabilities.
                let mut expected = 0.0;
                let mut best_flip = current;
                let mut best_score = f64::INFINITY;
                for (c, &p_c) in posterior.iter().enumerate().take(c_count) {
                    if c == current {
                        continue;
                    }
                    let delta = rounded.delta_to(c);
                    let mut infl = 0.0;
                    for (k, &d) in delta.iter().enumerate() {
                        if d == 0.0 {
                            continue;
                        }
                        ctx.model.class_grad(ctx.w, x, k, &mut g);
                        infl += d * vector::dot(&v, &g);
                    }
                    let flip_influence = -infl;
                    expected += p_c * flip_influence;
                    if flip_influence < best_score {
                        best_score = flip_influence;
                        best_flip = c;
                    }
                }
                (i, expected, best_flip)
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        // Borrowing iterator: `into_iter` would let `collect` reuse the
        // pool-sized buffer (same 24-byte layout as `Selection`), and the
        // round report keeps the result for the rest of the run.
        scored
            .iter()
            .take(ctx.b)
            .map(|&(index, _, _)| Selection {
                index,
                suggested: None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::fixture;
    use chef_model::Model;

    #[test]
    fn selects_b_samples() {
        let (model, obj, data, val) = fixture(50, 12);
        let w = vec![0.1; model.num_params()];
        let pool = data.uncleaned_indices();
        let ctx = SelectorContext {
            model: &model,
            objective: &obj,
            data: &data,
            val: &val,
            w: &w,
            pool: &pool,
            b: 8,
            round: 0,
        };
        let mut sel = Tars::default();
        let picks = sel.select(&ctx);
        assert_eq!(picks.len(), 8);
        assert_eq!(sel.name(), "TARS");
    }

    #[test]
    fn is_deterministic() {
        let (model, obj, data, val) = fixture(40, 13);
        let w = vec![0.2; model.num_params()];
        let pool = data.uncleaned_indices();
        let ctx = SelectorContext {
            model: &model,
            objective: &obj,
            data: &data,
            val: &val,
            w: &w,
            pool: &pool,
            b: 6,
            round: 0,
        };
        let mut sel = Tars::default();
        assert_eq!(sel.select(&ctx), sel.select(&ctx));
    }
}

//! DeltaGrad: incremental model updates by SGD replay (paper Algorithm 2).
//!
//! Given the provenance of the original training run — the minibatch plan,
//! the per-iteration parameters `w_t` and minibatch gradients
//! `∇F(w_t, B_t)` — DeltaGrad recomputes the trajectory `w_tᴵ` that SGD
//! *would* have produced on a modified dataset, without touching most of
//! the data:
//!
//! * **Explicit iterations** (the first `j₀`, then every `T₀`):
//!   `∇F(w_tᴵ, B_t)` is evaluated exactly on the old dataset and the pair
//!   `(Δw, Δg)` feeds the L-BFGS history.
//! * **Approximated iterations**: `∇F(w_tᴵ, B_t) ≈ B_t(w_tᴵ − w_t) +
//!   ∇F(w_t, B_t)` via the quasi-Hessian product (Eq. 5).
//! * Either way, the gradient on the *edited* batch follows Eq. 4: the
//!   contributions of modified samples are swapped out exactly — they are
//!   few by the small-cleaning-budget assumption, so this is cheap.
//!
//! The engine supports arbitrary per-sample *modifications* (label and/or
//! weight changes, which subsumes the deletion/insertion pair that
//! DeltaGrad-L needs) between an `old` and `new` dataset of equal size.

use crate::sgd::{TrainOutcome, TrainTrace};
use crate::trace::TraceStore;
use chef_linalg::{vector, LbfgsBuffer};
use chef_model::{DatasetStore, Model, WeightedObjective};

/// DeltaGrad hyperparameters (paper Appendix F.2 uses
/// `j₀ = 10, T₀ = 10, m₀ = 2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaGradConfig {
    /// Number of initial iterations with exact gradients.
    pub j0: usize,
    /// Period of exact gradient evaluations afterwards.
    pub t0: usize,
    /// L-BFGS history length.
    pub m0: usize,
}

impl Default for DeltaGradConfig {
    fn default() -> Self {
        Self {
            j0: 10,
            t0: 10,
            m0: 2,
        }
    }
}

impl DeltaGradConfig {
    /// Whether iteration `t` uses an exact gradient evaluation
    /// (Algorithm 2, line 3).
    #[inline]
    pub fn is_explicit(&self, t: usize) -> bool {
        t <= self.j0 || (t - self.j0).is_multiple_of(self.t0.max(1))
    }
}

/// Counters describing how much work the replay actually did.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaGradStats {
    /// Iterations with a full-batch exact gradient.
    pub explicit_iters: usize,
    /// Iterations served by the L-BFGS approximation.
    pub approx_iters: usize,
    /// Total per-sample gradient evaluations spent on corrections.
    pub correction_grads: usize,
}

/// Result of a DeltaGrad replay.
#[derive(Debug, Clone)]
pub struct DeltaGradOutcome {
    /// Updated final parameters `w_Tᴵ`.
    pub w: Vec<f64>,
    /// Fresh provenance on the *new* dataset (cache for the next round of
    /// loop 2, as §4.2 prescribes).
    pub trace: TrainTrace,
    /// Work counters.
    pub stats: DeltaGradStats,
}

impl From<DeltaGradOutcome> for TrainOutcome {
    fn from(o: DeltaGradOutcome) -> Self {
        TrainOutcome {
            w: o.w,
            trace: Some(o.trace),
        }
    }
}

/// Replay SGD on `new_data`, which differs from `old_data` only at the
/// `changed` indices (labels and/or clean flags), starting from the same
/// initialization the original run used.
///
/// # Panics
/// Panics if the datasets differ in size, the trace is empty, or a changed
/// index is out of range.
pub fn deltagrad_update<M: Model + ?Sized>(
    model: &M,
    objective: &WeightedObjective,
    old_data: &dyn DatasetStore,
    new_data: &dyn DatasetStore,
    changed: &[usize],
    trace: &TrainTrace,
    cfg: &DeltaGradConfig,
) -> DeltaGradOutcome {
    assert_eq!(old_data.len(), new_data.len(), "deltagrad: dataset sizes");
    assert!(!trace.params.is_empty(), "deltagrad: empty trace");
    assert_eq!(
        trace.params.len(),
        trace.plan.total_iterations(),
        "deltagrad: trace/plan mismatch"
    );
    let m = model.num_params();
    let mut is_changed = vec![false; old_data.len()];
    for &i in changed {
        assert!(i < old_data.len(), "deltagrad: changed index {i}");
        is_changed[i] = true;
    }

    let per_epoch = trace.plan.batches_per_epoch();
    let mut w = trace.params.row(0).to_vec();
    let mut lbfgs = LbfgsBuffer::new(cfg.m0.max(1), m);
    let mut stats = DeltaGradStats::default();

    let mut new_params = TraceStore::with_capacity(m, trace.params.len());
    let mut new_grads = TraceStore::with_capacity(m, trace.grads.len());
    let mut checkpoints = Vec::new();

    let mut g_base = vec![0.0; m];
    let mut g_sample = vec![0.0; m];

    for (t, batch) in trace.plan.iter() {
        if cfg.is_explicit(t) {
            // Exact gradient on the OLD dataset at the new parameters.
            objective.batch_grad(model, old_data, &batch, &w, &mut g_base);
            let s = vector::sub(&w, trace.params.row(t));
            let y = vector::sub(&g_base, trace.grads.row(t));
            lbfgs.push(&s, &y);
            stats.explicit_iters += 1;
        } else {
            // Eq. 5: ∇F(wᴵ, B_t) ≈ B(wᴵ − w_t) + ∇F(w_t, B_t).
            let s = vector::sub(&w, trace.params.row(t));
            let bv = lbfgs.hessian_vec(&s);
            g_base.copy_from_slice(trace.grads.row(t));
            vector::axpy(1.0, &bv, &mut g_base);
            stats.approx_iters += 1;
        }

        // Eq. 4 correction: swap the contributions of modified samples.
        // Old and new batch gradients share the L2 term, so only the data
        // terms differ.
        let inv_b = 1.0 / batch.len() as f64;
        for &i in &batch {
            if !is_changed[i] {
                continue;
            }
            let w_old = old_data.weight(i, objective.gamma);
            let w_new = new_data.weight(i, objective.gamma);
            model.grad(&w, old_data.feature(i), old_data.label(i), &mut g_sample);
            vector::axpy(-w_old * inv_b, &g_sample, &mut g_base);
            model.grad(&w, new_data.feature(i), new_data.label(i), &mut g_sample);
            vector::axpy(w_new * inv_b, &g_sample, &mut g_base);
            stats.correction_grads += 2;
        }

        new_params.push(&w);
        new_grads.push(&g_base);
        vector::axpy(-trace.lr, &g_base, &mut w);
        if (t + 1) % per_epoch == 0 {
            checkpoints.push(w.clone());
        }
    }

    DeltaGradOutcome {
        w,
        trace: TrainTrace {
            plan: trace.plan.clone(),
            params: new_params,
            grads: new_grads,
            epoch_checkpoints: checkpoints,
            lr: trace.lr,
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::{train, SgdConfig};
    use chef_linalg::Matrix;
    use chef_model::{Dataset, LogisticRegression, SoftLabel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn weak_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut raw = Vec::new();
        let mut labels = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..n {
            let c = usize::from(rng.gen_range(0.0..1.0) < 0.5);
            let sign = if c == 1 { 1.0 } else { -1.0 };
            raw.push(sign + rng.gen_range(-1.0..1.0));
            raw.push(sign + rng.gen_range(-1.0..1.0));
            let p = rng.gen_range(0.2..0.8);
            labels.push(SoftLabel::new(vec![p, 1.0 - p]));
            truth.push(Some(c));
        }
        Dataset::new(
            Matrix::from_vec(n, 2, raw),
            labels,
            vec![false; n],
            truth,
            2,
        )
    }

    fn clean_some(data: &Dataset, k: usize) -> (Dataset, Vec<usize>) {
        let mut new_data = data.clone();
        // Samples without a reference label abstain (are skipped) rather
        // than panicking — mirrors the production annotation policy.
        let mut changed = Vec::new();
        for i in 0..k {
            let Some(truth) = data.ground_truth(i) else {
                continue;
            };
            new_data.clean_label(i, SoftLabel::onehot(truth, 2));
            changed.push(i);
        }
        (new_data, changed)
    }

    fn setup(n: usize) -> (LogisticRegression, WeightedObjective, Dataset, SgdConfig) {
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(0.8, 0.05);
        let data = weak_data(n, 11);
        let cfg = SgdConfig {
            lr: 0.1,
            epochs: 8,
            batch_size: 25,
            seed: 3,
            cache_provenance: true,
        };
        (model, obj, data, cfg)
    }

    #[test]
    fn all_explicit_replay_equals_retraining() {
        // With T₀ = 1 every iteration is exact, so DeltaGrad must match a
        // from-scratch retrain on the new data bit-for-bit (same plan).
        let (model, obj, data, cfg) = setup(100);
        let base = train(&model, &obj, &data, &model.init_params(), &cfg);
        let (new_data, changed) = clean_some(&data, 5);
        let dg_cfg = DeltaGradConfig {
            j0: 0,
            t0: 1,
            m0: 2,
        };
        let dg = deltagrad_update(
            &model,
            &obj,
            &data,
            &new_data,
            &changed,
            base.trace.as_ref().unwrap(),
            &dg_cfg,
        );
        let retrain = train(&model, &obj, &new_data, &model.init_params(), &cfg);
        for (a, b) in dg.w.iter().zip(&retrain.w) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        assert_eq!(dg.stats.approx_iters, 0);
    }

    #[test]
    fn approximate_replay_is_close_to_retraining() {
        let (model, obj, data, cfg) = setup(200);
        let base = train(&model, &obj, &data, &model.init_params(), &cfg);
        let (new_data, changed) = clean_some(&data, 6);
        let dg = deltagrad_update(
            &model,
            &obj,
            &data,
            &new_data,
            &changed,
            base.trace.as_ref().unwrap(),
            &DeltaGradConfig::default(),
        );
        let retrain = train(&model, &obj, &new_data, &model.init_params(), &cfg);
        let dist = vector::distance(&dg.w, &retrain.w);
        let scale = vector::norm2(&retrain.w).max(1.0);
        assert!(dist / scale < 0.05, "relative distance {}", dist / scale);
        assert!(dg.stats.approx_iters > 0);
    }

    #[test]
    fn no_changes_replays_original_trajectory() {
        let (model, obj, data, cfg) = setup(80);
        let base = train(&model, &obj, &data, &model.init_params(), &cfg);
        let dg = deltagrad_update(
            &model,
            &obj,
            &data,
            &data,
            &[],
            base.trace.as_ref().unwrap(),
            &DeltaGradConfig::default(),
        );
        for (a, b) in dg.w.iter().zip(&base.w) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn new_trace_supports_a_second_round() {
        // Chain two DeltaGrad rounds and compare against retraining after
        // both cleanings.
        let (model, obj, data, cfg) = setup(150);
        let base = train(&model, &obj, &data, &model.init_params(), &cfg);
        let (data1, changed1) = clean_some(&data, 4);
        let dg1 = deltagrad_update(
            &model,
            &obj,
            &data,
            &data1,
            &changed1,
            base.trace.as_ref().unwrap(),
            &DeltaGradConfig::default(),
        );
        let mut data2 = data1.clone();
        let mut changed2 = Vec::new();
        for i in 4..8 {
            let Some(truth) = data.ground_truth(i) else {
                continue;
            };
            data2.clean_label(i, SoftLabel::onehot(truth, 2));
            changed2.push(i);
        }
        let dg2 = deltagrad_update(
            &model,
            &obj,
            &data1,
            &data2,
            &changed2,
            &dg1.trace,
            &DeltaGradConfig::default(),
        );
        let retrain = train(&model, &obj, &data2, &model.init_params(), &cfg);
        let dist = vector::distance(&dg2.w, &retrain.w);
        let scale = vector::norm2(&retrain.w).max(1.0);
        assert!(dist / scale < 0.08, "relative distance {}", dist / scale);
    }

    #[test]
    fn explicit_schedule_matches_paper_rule() {
        let cfg = DeltaGradConfig {
            j0: 3,
            t0: 4,
            m0: 2,
        };
        let explicit: Vec<usize> = (0..16).filter(|&t| cfg.is_explicit(t)).collect();
        // t ≤ j₀ → 0,1,2,3; then (t−3) % 4 == 0 → 7, 11, 15.
        assert_eq!(explicit, vec![0, 1, 2, 3, 7, 11, 15]);
    }

    #[test]
    fn stats_count_corrections() {
        let (model, obj, data, cfg) = setup(60);
        let base = train(&model, &obj, &data, &model.init_params(), &cfg);
        let (new_data, changed) = clean_some(&data, 3);
        let dg = deltagrad_update(
            &model,
            &obj,
            &data,
            &new_data,
            &changed,
            base.trace.as_ref().unwrap(),
            &DeltaGradConfig::default(),
        );
        // Each changed sample appears once per epoch; 2 gradient calls per
        // appearance.
        assert_eq!(dg.stats.correction_grads, 2 * 3 * cfg.epochs);
        assert_eq!(
            dg.stats.explicit_iters + dg.stats.approx_iters,
            base.trace.as_ref().unwrap().plan.total_iterations()
        );
    }
}

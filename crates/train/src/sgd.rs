//! SGD over the weighted objective, with provenance caching.
//!
//! The trainer mirrors the paper's model-constructor setup (§5.1): plain
//! minibatch SGD with a constant learning rate for a fixed number of
//! epochs, followed by early stopping *a posteriori* — the paper runs the
//! full epoch budget for fair timing, caches the parameters at every
//! epoch, and afterwards selects the checkpoint with the best validation
//! loss (Appendix F.2). When `cache_provenance` is on, the trainer also
//! records the per-iteration parameters `w_t` and minibatch gradients
//! `∇F(w_t, B_t)` that DeltaGrad replays against.

use crate::batch::BatchPlan;
use crate::trace::TraceStore;
use chef_linalg::vector;
use chef_model::{DatasetStore, Model, WeightedObjective};

/// SGD hyperparameters (paper Table 4 equivalents).
#[derive(Debug, Clone, Copy)]
pub struct SgdConfig {
    /// Constant learning rate.
    pub lr: f64,
    /// Number of epochs (the full budget; early stopping happens after).
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Seed for the minibatch plan.
    pub seed: u64,
    /// Whether to record per-iteration provenance for DeltaGrad.
    pub cache_provenance: bool,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            lr: 0.05,
            epochs: 30,
            batch_size: 200,
            seed: 1,
            cache_provenance: false,
        }
    }
}

/// Per-iteration provenance plus per-epoch checkpoints.
///
/// The per-iteration matrices live in flat [`TraceStore`] arenas (one
/// allocation each, rows at `t·m`); the handful of per-epoch checkpoints
/// stay as plain vectors since early stopping reads them individually.
#[derive(Debug, Clone)]
pub struct TrainTrace {
    /// The minibatch plan (replayable; stores no index lists).
    pub plan: BatchPlan,
    /// `w_t` for `t = 0..T` (parameters *entering* iteration `t`),
    /// row `t` of the arena.
    pub params: TraceStore,
    /// `∇F(w_t, B_t)` for `t = 0..T`, row `t` of the arena.
    pub grads: TraceStore,
    /// Parameters at the end of each epoch (for early stopping).
    pub epoch_checkpoints: Vec<Vec<f64>>,
    /// Learning rate used (the replay must match it).
    pub lr: f64,
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Final parameters after the full epoch budget.
    pub w: Vec<f64>,
    /// Provenance (present iff `cache_provenance` was set).
    pub trace: Option<TrainTrace>,
}

/// Train from `w0` with minibatch SGD on the weighted objective.
///
/// Equivalent to [`train_traced`] with a disabled telemetry handle.
pub fn train<M: Model + ?Sized>(
    model: &M,
    objective: &WeightedObjective,
    data: &dyn DatasetStore,
    w0: &[f64],
    cfg: &SgdConfig,
) -> TrainOutcome {
    train_traced(
        model,
        objective,
        data,
        w0,
        cfg,
        &chef_obs::Telemetry::disabled(),
    )
}

/// [`train`] with phase telemetry: the run is wrapped in a `train.sgd`
/// span, every iteration's wall-clock feeds the `train.batch_ms`
/// histogram, and the `train.batches` / `train.epochs` counters
/// accumulate across calls. A disabled handle skips even the per-batch
/// clock reads, so the instrumented loop is identical to the bare one.
pub fn train_traced<M: Model + ?Sized>(
    model: &M,
    objective: &WeightedObjective,
    data: &dyn DatasetStore,
    w0: &[f64],
    cfg: &SgdConfig,
    telemetry: &chef_obs::Telemetry,
) -> TrainOutcome {
    assert_eq!(w0.len(), model.num_params(), "train: w0 dimension");
    assert!(!data.is_empty(), "train: empty dataset");
    let _span = telemetry.span("train.sgd");
    let plan = BatchPlan::new(data.len(), cfg.batch_size, cfg.epochs, cfg.seed);
    let total = plan.total_iterations();
    let per_epoch = plan.batches_per_epoch();

    let mut w = w0.to_vec();
    let mut g = vec![0.0; model.num_params()];
    let mut params = TraceStore::new(model.num_params());
    let mut grads = TraceStore::new(model.num_params());
    let mut checkpoints = Vec::new();
    if cfg.cache_provenance {
        // Reserve the whole arena once: T rows of m parameters each, no
        // growth reallocations (and no per-iteration Vec clones) during
        // the training loop.
        params.reserve_rows(total);
        grads.reserve_rows(total);
    }

    for (t, batch) in plan.iter() {
        {
            let _batch_timer = telemetry.timer("train.batch_ms");
            objective.batch_grad(model, data, &batch, &w, &mut g);
            if cfg.cache_provenance {
                params.push(&w);
                grads.push(&g);
            }
            vector::axpy(-cfg.lr, &g, &mut w);
        }
        if (t + 1) % per_epoch == 0 {
            checkpoints.push(w.clone());
        }
    }
    telemetry.add("train.batches", total as u64);
    telemetry.add("train.epochs", cfg.epochs as u64);

    let trace = cfg.cache_provenance.then_some(TrainTrace {
        plan,
        params,
        grads,
        epoch_checkpoints: checkpoints,
        lr: cfg.lr,
    });
    TrainOutcome { w, trace }
}

/// The paper's early-stopping rule: among per-epoch checkpoints, pick the
/// parameters with the lowest validation loss.
///
/// Returns `(best_params, best_epoch)`. Falls back to `final_w` when the
/// checkpoint list is empty.
pub fn select_early_stop<M: Model + ?Sized>(
    model: &M,
    objective: &WeightedObjective,
    val: &dyn DatasetStore,
    checkpoints: &[Vec<f64>],
    final_w: &[f64],
) -> (Vec<f64>, usize) {
    if checkpoints.is_empty() {
        return (final_w.to_vec(), 0);
    }
    let mut best = 0;
    let mut best_loss = f64::INFINITY;
    for (e, w) in checkpoints.iter().enumerate() {
        let l = objective.val_loss(model, val, w);
        if l < best_loss {
            best_loss = l;
            best = e;
        }
    }
    (checkpoints[best].clone(), best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_linalg::Matrix;
    use chef_model::{Dataset, LogisticRegression, SoftLabel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn separable_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut raw = Vec::new();
        let mut labels = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..n {
            let c = usize::from(rng.gen_range(0.0..1.0) < 0.5);
            let sign = if c == 1 { 1.0 } else { -1.0 };
            raw.push(sign * 1.5 + rng.gen_range(-1.0..1.0));
            raw.push(sign * 1.5 + rng.gen_range(-1.0..1.0));
            labels.push(SoftLabel::onehot(c, 2));
            truth.push(Some(c));
        }
        Dataset::new(Matrix::from_vec(n, 2, raw), labels, vec![true; n], truth, 2)
    }

    #[test]
    fn training_reduces_objective() {
        let data = separable_data(200, 1);
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(1.0, 0.01);
        let w0 = model.init_params();
        let before = obj.loss(&model, &data, &w0);
        let out = train(&model, &obj, &data, &w0, &SgdConfig::default());
        let after = obj.loss(&model, &data, &out.w);
        assert!(after < before * 0.7, "loss {before} → {after}");
    }

    #[test]
    fn trained_model_classifies_separable_data() {
        let data = separable_data(300, 2);
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(1.0, 0.01);
        let out = train(
            &model,
            &obj,
            &data,
            &model.init_params(),
            &SgdConfig::default(),
        );
        let correct = (0..data.len())
            .filter(|&i| Some(model.predict_class(&out.w, data.feature(i))) == data.ground_truth(i))
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.9);
    }

    #[test]
    fn training_is_deterministic() {
        let data = separable_data(100, 3);
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(0.8, 0.05);
        let cfg = SgdConfig::default();
        let a = train(&model, &obj, &data, &model.init_params(), &cfg);
        let b = train(&model, &obj, &data, &model.init_params(), &cfg);
        assert_eq!(a.w, b.w);
    }

    #[test]
    fn provenance_has_one_entry_per_iteration() {
        let data = separable_data(90, 4);
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(0.8, 0.05);
        let cfg = SgdConfig {
            epochs: 3,
            batch_size: 20,
            cache_provenance: true,
            ..SgdConfig::default()
        };
        let out = train(&model, &obj, &data, &model.init_params(), &cfg);
        let trace = out.trace.unwrap();
        assert_eq!(trace.plan.total_iterations(), 3 * 5);
        assert_eq!(trace.params.len(), 15);
        assert_eq!(trace.grads.len(), 15);
        assert_eq!(trace.epoch_checkpoints.len(), 3);
        // First cached parameters are w0; last checkpoint is the final w.
        assert_eq!(trace.params.row(0), model.init_params().as_slice());
        assert_eq!(trace.params.row_len(), model.num_params());
        assert_eq!(trace.epoch_checkpoints[2], out.w);
    }

    #[test]
    fn cached_grads_replay_consistently() {
        // ∇F(w_t, B_t) recomputed from the plan matches the cache.
        let data = separable_data(60, 5);
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(0.9, 0.02);
        let cfg = SgdConfig {
            epochs: 2,
            batch_size: 16,
            cache_provenance: true,
            ..SgdConfig::default()
        };
        let out = train(&model, &obj, &data, &model.init_params(), &cfg);
        let trace = out.trace.unwrap();
        let mut g = vec![0.0; model.num_params()];
        for (t, batch) in trace.plan.iter() {
            obj.batch_grad(&model, &data, &batch, trace.params.row(t), &mut g);
            assert_eq!(g.as_slice(), trace.grads.row(t), "iteration {t}");
        }
    }

    #[test]
    fn early_stop_picks_lowest_val_loss() {
        let data = separable_data(120, 6);
        let val = separable_data(60, 7);
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(1.0, 0.01);
        let cfg = SgdConfig {
            epochs: 10,
            cache_provenance: true,
            ..SgdConfig::default()
        };
        let out = train(&model, &obj, &data, &model.init_params(), &cfg);
        let trace = out.trace.unwrap();
        let (best_w, best_e) =
            select_early_stop(&model, &obj, &val, &trace.epoch_checkpoints, &out.w);
        let best_loss = obj.val_loss(&model, &val, &best_w);
        for w in &trace.epoch_checkpoints {
            assert!(obj.val_loss(&model, &val, w) >= best_loss - 1e-12);
        }
        assert!(best_e < 10);
    }

    #[test]
    fn early_stop_falls_back_to_final() {
        let data = separable_data(30, 8);
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(1.0, 0.01);
        let w = vec![0.5; model.num_params()];
        let (chosen, e) = select_early_stop(&model, &obj, &data, &[], &w);
        assert_eq!(chosen, w);
        assert_eq!(e, 0);
    }
}

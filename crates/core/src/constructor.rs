//! The model-constructor phase (paper §4.2): **Retrain vs DeltaGrad-L**.
//!
//! After a round of cleaning changes the labels (and weights) of the set
//! `R⁽ᵏ⁾`, the model must reflect the new training set. The baseline
//! retrains from scratch; DeltaGrad-L instead treats the cleaning as
//! "delete the probabilistic copies of `R⁽ᵏ⁾` (weight γ), insert the
//! cleaned copies (weight 1)" and replays SGD incrementally with the
//! DeltaGrad engine, using the cached parameters and gradients from the
//! previous round as provenance and `A_t = B_t ∩ R⁽ᵏ⁾` with updated
//! labels (the paper's modifications 1–4 to Eq. 4).

use chef_model::{DatasetStore, Model, WeightedObjective};
use chef_train::{
    deltagrad_update, train_traced, DeltaGradConfig, DeltaGradStats, SgdConfig, TrainTrace,
};
use std::time::{Duration, Instant};

/// Which constructor to use after each cleaning round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstructorKind {
    /// Retrain from scratch on the updated dataset.
    Retrain,
    /// Incremental update with DeltaGrad-L.
    DeltaGradL(DeltaGradConfig),
}

/// Result of one model-constructor invocation.
#[derive(Debug, Clone)]
pub struct ConstructorOutcome {
    /// Final parameters after the full epoch budget.
    pub w: Vec<f64>,
    /// Provenance for the next round.
    pub trace: TrainTrace,
    /// Wall-clock time of the construction.
    pub elapsed: Duration,
    /// Replay counters (present iff the DeltaGrad-L path ran).
    pub stats: Option<DeltaGradStats>,
}

/// The model constructor: owns the SGD configuration shared by both paths
/// so timings are comparable (same plan, same epochs, same caching).
#[derive(Debug, Clone)]
pub struct ModelConstructor {
    /// Construction strategy.
    pub kind: ConstructorKind,
    /// SGD hyperparameters (provenance caching is forced on).
    pub sgd: SgdConfig,
    /// Telemetry handle the training runs report into (spans, per-batch
    /// histogram). Disabled by default; the pipeline threads its own
    /// handle through via [`Self::with_telemetry`].
    pub telemetry: chef_obs::Telemetry,
}

impl ModelConstructor {
    /// Create a constructor; provenance caching is enabled regardless of
    /// the flag in `sgd`. The per-iteration trace it records is read only
    /// by DeltaGrad-L's replay, but every run writes it into its
    /// checkpoints, so a Retrain run records it too and its checkpoint
    /// bytes do not depend on the constructor. (Increm-Infl reads none of
    /// it: its provenance is `w⁽⁰⁾` and the Hessian norms.)
    pub fn new(kind: ConstructorKind, mut sgd: SgdConfig) -> Self {
        sgd.cache_provenance = true;
        Self {
            kind,
            sgd,
            telemetry: chef_obs::Telemetry::disabled(),
        }
    }

    /// Route the constructor's training runs into a telemetry handle.
    pub fn with_telemetry(mut self, telemetry: chef_obs::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Initialization step: train from scratch (always — DeltaGrad-L only
    /// applies to *updates*).
    pub fn initial_train<M: Model + ?Sized>(
        &self,
        model: &M,
        objective: &WeightedObjective,
        data: &dyn DatasetStore,
    ) -> ConstructorOutcome {
        let start = Instant::now();
        let w0 = model.initial_params(self.sgd.seed);
        let out = train_traced(model, objective, data, &w0, &self.sgd, &self.telemetry);
        ConstructorOutcome {
            w: out.w,
            trace: out.trace.expect("provenance caching is forced on"),
            elapsed: start.elapsed(),
            stats: None,
        }
    }

    /// Post-cleaning update: either retrain on `new_data` or replay with
    /// DeltaGrad-L against the previous round's provenance.
    pub fn update<M: Model + ?Sized>(
        &self,
        model: &M,
        objective: &WeightedObjective,
        old_data: &dyn DatasetStore,
        new_data: &dyn DatasetStore,
        changed: &[usize],
        prev_trace: &TrainTrace,
    ) -> ConstructorOutcome {
        let start = Instant::now();
        match self.kind {
            ConstructorKind::Retrain => {
                let w0 = model.initial_params(self.sgd.seed);
                let out = train_traced(model, objective, new_data, &w0, &self.sgd, &self.telemetry);
                ConstructorOutcome {
                    w: out.w,
                    trace: out.trace.expect("provenance caching is forced on"),
                    elapsed: start.elapsed(),
                    stats: None,
                }
            }
            ConstructorKind::DeltaGradL(dg) => {
                let out = deltagrad_update(
                    model, objective, old_data, new_data, changed, prev_trace, &dg,
                );
                ConstructorOutcome {
                    w: out.w,
                    trace: out.trace,
                    elapsed: start.elapsed(),
                    stats: Some(out.stats),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_linalg::{vector, Matrix};
    use chef_model::{Dataset, LogisticRegression, SoftLabel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn fixture(n: usize) -> (LogisticRegression, WeightedObjective, Dataset) {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut raw = Vec::new();
        let mut labels = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..n {
            let c = usize::from(rng.gen_range(0.0..1.0) < 0.5);
            let sign = if c == 1 { 1.0 } else { -1.0 };
            raw.push(sign + rng.gen_range(-1.0..1.0));
            raw.push(sign + rng.gen_range(-1.0..1.0));
            let p = rng.gen_range(0.3..0.7);
            labels.push(SoftLabel::new(vec![p, 1.0 - p]));
            truth.push(Some(c));
        }
        (
            LogisticRegression::new(2, 2),
            WeightedObjective::new(0.8, 0.05),
            Dataset::new(
                Matrix::from_vec(n, 2, raw),
                labels,
                vec![false; n],
                truth,
                2,
            ),
        )
    }

    fn sgd() -> SgdConfig {
        SgdConfig {
            lr: 0.1,
            epochs: 6,
            batch_size: 25,
            seed: 2,
            cache_provenance: false, // constructor forces it on
        }
    }

    #[test]
    fn initial_train_produces_provenance() {
        let (model, obj, data) = fixture(100);
        let ctor = ModelConstructor::new(ConstructorKind::Retrain, sgd());
        let out = ctor.initial_train(&model, &obj, &data);
        assert_eq!(out.trace.params.len(), out.trace.plan.total_iterations());
        assert!(out.elapsed.as_nanos() > 0);
    }

    #[test]
    fn deltagrad_l_tracks_retrain() {
        let (model, obj, data) = fixture(150);
        let retrain_ctor = ModelConstructor::new(ConstructorKind::Retrain, sgd());
        let dg_ctor = ModelConstructor::new(
            ConstructorKind::DeltaGradL(DeltaGradConfig::default()),
            sgd(),
        );
        let init = retrain_ctor.initial_train(&model, &obj, &data);

        let mut cleaned = data.clone();
        // Clean to the reference label where one exists; a sample without
        // ground truth abstains (is skipped) instead of panicking, the
        // same policy as the production annotation phase.
        let mut changed = Vec::new();
        for i in 0..6 {
            let Some(t) = data.ground_truth(i) else {
                continue;
            };
            cleaned.clean_label(i, SoftLabel::onehot(t, 2));
            changed.push(i);
        }

        let a = retrain_ctor.update(&model, &obj, &data, &cleaned, &changed, &init.trace);
        let b = dg_ctor.update(&model, &obj, &data, &cleaned, &changed, &init.trace);
        let rel = vector::distance(&a.w, &b.w) / vector::norm2(&a.w).max(1.0);
        assert!(rel < 0.05, "relative parameter distance {rel}");
    }

    #[test]
    fn retrain_ignores_old_data() {
        let (model, obj, data) = fixture(60);
        let ctor = ModelConstructor::new(ConstructorKind::Retrain, sgd());
        let init = ctor.initial_train(&model, &obj, &data);
        let mut cleaned = data.clone();
        cleaned.clean_label(0, SoftLabel::onehot(0, 2));
        let from_old = ctor.update(&model, &obj, &data, &cleaned, &[0], &init.trace);
        // Retraining only depends on new_data; passing garbage old data
        // must not change the result.
        let garbage = cleaned.clone();
        let from_garbage = ctor.update(&model, &obj, &garbage, &cleaned, &[0], &init.trace);
        assert_eq!(from_old.w, from_garbage.w);
    }
}

//! The sample-selector abstraction of the pipeline's first phase.
//!
//! The pipeline is generic over *how* the next `b` samples are picked so
//! the experiment harness can swap **Infl** for the baselines (Infl-D,
//! Infl-Y, active learning, O2U, TARS, DUTI — see `chef-baselines`).
//! Selectors may also return a *suggested clean label*, which only Infl
//! and DUTI can produce; the annotation phase treats it as one more
//! independent labeler (§4.3).

use crate::increm::{IncremInfl, IncremSnapshot, IncremStats};
use crate::influence::{influence_vector_outcome_from, rank_infl_top_b_sharded, InflConfig};
use chef_model::{DatasetStore, Model, WeightedObjective};

/// Everything a selector may look at when ranking the uncleaned pool.
pub struct SelectorContext<'a> {
    /// The classifier (trait object so selectors stay object-safe).
    pub model: &'a dyn Model,
    /// The weighted objective (γ, λ).
    pub objective: &'a WeightedObjective,
    /// Current training data (any [`DatasetStore`]: the in-memory
    /// [`chef_model::Dataset`] or an out-of-core mmap store).
    pub data: &'a dyn DatasetStore,
    /// Trusted validation set.
    pub val: &'a dyn DatasetStore,
    /// Current model parameters.
    pub w: &'a [f64],
    /// Indices still eligible for cleaning.
    pub pool: &'a [usize],
    /// Number of samples to select this round.
    pub b: usize,
    /// Cleaning round number (0 = first round of loop 2).
    pub round: usize,
}

/// One selected sample, with the selector's suggested clean label if it
/// has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Training-set index.
    pub index: usize,
    /// Suggested deterministic label (Infl/DUTI only).
    pub suggested: Option<usize>,
}

/// Cost counters for one selection round, consumed by the pipeline's
/// telemetry layer (the `selector` object of telemetry.v1).
///
/// `pruned + scored == pool` always holds: Theorem 1's bound either
/// removes a candidate without scoring it (`pruned`) or lets it through
/// to a full Eq. 6 evaluation (`scored`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelectorStats {
    /// Size of the uncleaned pool this round.
    pub pool: usize,
    /// Candidates eliminated by the Theorem 1 bound without scoring.
    pub pruned: usize,
    /// Candidates that received a full Eq. 6 evaluation.
    pub scored: usize,
    /// Dense gradient evaluations spent scoring (`scored × (C + 1)` when
    /// γ < 1: `C` per-class gradients plus the up-weight term's gradient).
    pub grad_evals: usize,
    /// Hessian-vector products in the round's one CG solve.
    pub hvp_evals: usize,
    /// Fraction of the pool the bound eliminated (`pruned / pool`) — the
    /// quantity Exp2 (paper Table 2) measures as Increm-Infl's win.
    pub bound_hit_rate: f64,
    /// Gradient evaluations of the Increm-Infl initialization step
    /// (`n × (C + 1)` on the round the provenance cache is built, else 0).
    pub provenance_grads: usize,
    /// Which scoring kernel ran ([`chef_model::KernelPath::name`]:
    /// `"gemm"` for the batched closed form, `"per_sample"` for the
    /// generic fallback; empty when the selector doesn't report one).
    pub kernel_path: &'static str,
    /// Which panel-kernel backend the GEMM panels ran on
    /// ([`chef_linalg::KernelBackend::name`]: always `"reference"`;
    /// empty when the kernel path is not `"gemm"` — the per-sample
    /// fallback has no panel kernel).
    pub kernel_backend: &'static str,
    /// CG iterations the warm start saved this round, estimated against
    /// the selector's most recent *cold* solve (0 on cold rounds and
    /// whenever warm starting is off). Live telemetry only — never
    /// persisted, like `provenance_grads`.
    pub cg_iters_saved: usize,
}

/// Serializable selector state captured at a round boundary, so a
/// resumed pipeline re-enters the loop with the identical selector
/// (most importantly Increm-Infl's frozen `w⁽⁰⁾` provenance, which would
/// otherwise be re-initialized at the *restored* model and change every
/// subsequent Theorem 1 interval).
#[derive(Debug, Clone, PartialEq)]
pub enum SelectorCheckpoint {
    /// The selector carries no cross-round state worth persisting
    /// (baselines; also Full Infl before it diverges from this default).
    Stateless,
    /// The Infl family: the Increm-Infl initialization-step snapshot,
    /// `None` when pruning is off or not yet initialized.
    Infl {
        /// Frozen provenance, present once the initialization step ran.
        increm: Option<IncremSnapshot>,
    },
}

/// A sample-selection strategy.
pub trait SampleSelector {
    /// Short name used in experiment tables.
    fn name(&self) -> &str;

    /// Pick up to `ctx.b` samples from `ctx.pool`, most valuable first.
    fn select(&mut self, ctx: &SelectorContext<'_>) -> Vec<Selection>;

    /// Pruning counters of the most recent round, if the selector tracks
    /// any (only Increm-Infl does).
    fn stats(&self) -> Option<IncremStats> {
        None
    }

    /// Cost counters of the most recent round for telemetry, if the
    /// selector tracks them (the Infl family does; baselines report
    /// `None` and the pipeline falls back to pool-size-only counters).
    fn phase_stats(&self) -> Option<SelectorStats> {
        None
    }

    /// Serializable cross-round state for the checkpoint subsystem.
    /// Stateless selectors (the default) report
    /// [`SelectorCheckpoint::Stateless`].
    fn checkpoint_state(&self) -> SelectorCheckpoint {
        SelectorCheckpoint::Stateless
    }

    /// Restore state captured by [`Self::checkpoint_state`].
    ///
    /// # Errors
    /// Returns a description when `state` does not belong to this
    /// selector kind (e.g. a checkpoint written by an Infl run handed to
    /// a baseline).
    fn restore_checkpoint(&mut self, state: SelectorCheckpoint) -> Result<(), String> {
        match state {
            SelectorCheckpoint::Stateless => Ok(()),
            other => Err(format!(
                "selector {:?} cannot restore checkpoint state {other:?}",
                self.name()
            )),
        }
    }
}

/// The paper's Infl selector, optionally accelerated with Increm-Infl.
#[derive(Debug, Default)]
pub struct InflSelector {
    /// Influence configuration (CG settings).
    pub cfg: InflConfig,
    /// Whether to prune with Increm-Infl (initialized lazily on the first
    /// round, which is the paper's "initialization step").
    pub use_increm: bool,
    /// Whether to warm-start each round's CG solve from the previous
    /// round's iHVP solution (off by default; the solve still runs to the
    /// same fixed tolerance either way, only the iteration count moves).
    pub warm_start_cg: bool,
    increm: Option<IncremInfl>,
    /// Previous round's iHVP solution, cached for the warm start. Not
    /// persisted in [`SelectorCheckpoint`]: a resumed pipeline simply
    /// pays one cold solve on its first round.
    prev_v: Option<Vec<f64>>,
    /// Iteration count of the most recent cold solve (the baseline the
    /// `cg_iters_saved` estimate is measured against).
    cold_iters: Option<usize>,
    /// Pruning counters of the most recent round (None when running Full).
    pub last_stats: Option<IncremStats>,
    /// Telemetry counters of the most recent round.
    pub last_phase: Option<SelectorStats>,
}

impl InflSelector {
    /// Full (unpruned) Infl.
    pub fn full() -> Self {
        Self {
            use_increm: false,
            ..Self::default()
        }
    }

    /// Infl with Increm-Infl pruning.
    pub fn incremental() -> Self {
        Self {
            use_increm: true,
            ..Self::default()
        }
    }

    /// Enable warm-started CG solves across rounds.
    #[must_use]
    pub fn with_warm_start(mut self) -> Self {
        self.warm_start_cg = true;
        self
    }
}

impl SampleSelector for InflSelector {
    fn name(&self) -> &str {
        if self.use_increm {
            "Infl+Increm"
        } else {
            "Infl"
        }
    }

    fn select(&mut self, ctx: &SelectorContext<'_>) -> Vec<Selection> {
        // Re-mix the Hessian-subsample seed every round so successive CG
        // solves sketch different training rows (round 0 keeps the base
        // seed, so single-round behaviour is unchanged).
        let round_cfg = self.cfg.for_round(ctx.round);
        let warm = if self.warm_start_cg {
            self.prev_v.as_deref()
        } else {
            None
        };
        let warm_started = warm.is_some();
        let outcome = influence_vector_outcome_from(
            ctx.model,
            ctx.objective,
            ctx.data,
            ctx.val,
            ctx.w,
            &round_cfg,
            warm,
        );
        let cg_iters_saved = if warm_started {
            self.cold_iters
                .map_or(0, |cold| cold.saturating_sub(outcome.cg_iters))
        } else {
            self.cold_iters = Some(outcome.cg_iters);
            0
        };
        let v = outcome.v;
        if self.warm_start_cg {
            self.prev_v = Some(v.clone());
        }
        let mut provenance_grads = 0;
        if self.use_increm && self.increm.is_none() {
            // Initialization step: freeze provenance at w⁽⁰⁾. Costs one
            // full-label gradient plus C per-class gradients per sample.
            self.increm = Some(IncremInfl::initialize(ctx.model, ctx.data, ctx.w));
            provenance_grads = ctx.data.len() * (ctx.model.num_classes() + 1);
        }
        let scores = if let (true, Some(increm)) = (self.use_increm, self.increm.as_ref()) {
            let (scores, stats) = increm.select(
                ctx.model,
                ctx.data,
                ctx.w,
                &v,
                ctx.pool,
                ctx.b,
                ctx.objective.gamma,
            );
            self.last_stats = Some(stats);
            scores
        } else {
            self.last_stats = None;
            rank_infl_top_b_sharded(
                ctx.model,
                ctx.data,
                ctx.w,
                &v,
                ctx.pool,
                ctx.objective.gamma,
                ctx.b,
            )
        };
        let pool = ctx.pool.len();
        let scored = match self.last_stats {
            Some(stats) => stats.candidates,
            None => pool,
        };
        let pruned = pool - scored;
        // Eq. 6 per candidate: C class gradients, plus the up-weight
        // term's full gradient when γ < 1.
        let grads_per_score = ctx.model.num_classes() + usize::from(ctx.objective.gamma < 1.0);
        self.last_phase = Some(SelectorStats {
            pool,
            pruned,
            scored,
            grad_evals: scored * grads_per_score,
            hvp_evals: outcome.hvp_evals,
            bound_hit_rate: pruned as f64 / pool.max(1) as f64,
            provenance_grads,
            kernel_path: ctx.model.scoring_kernel().name(),
            kernel_backend: match ctx.model.scoring_kernel() {
                chef_model::KernelPath::Gemm => ctx.model.kernel_backend().name(),
                chef_model::KernelPath::PerSample => "",
            },
            cg_iters_saved,
        });
        scores
            .into_iter()
            .map(|s| Selection {
                index: s.index,
                suggested: Some(s.suggested),
            })
            .collect()
    }

    fn stats(&self) -> Option<IncremStats> {
        self.last_stats
    }

    fn phase_stats(&self) -> Option<SelectorStats> {
        self.last_phase
    }

    fn checkpoint_state(&self) -> SelectorCheckpoint {
        SelectorCheckpoint::Infl {
            increm: self.increm.as_ref().map(IncremInfl::snapshot),
        }
    }

    fn restore_checkpoint(&mut self, state: SelectorCheckpoint) -> Result<(), String> {
        match state {
            SelectorCheckpoint::Infl { increm } => {
                self.increm = match increm {
                    Some(snap) => Some(IncremInfl::from_snapshot(snap)?),
                    None => None,
                };
                Ok(())
            }
            SelectorCheckpoint::Stateless => Err(format!(
                "selector {:?} cannot restore a stateless checkpoint",
                self.name()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_linalg::Matrix;
    use chef_model::{Dataset, LogisticRegression, SoftLabel};

    fn toy() -> (LogisticRegression, WeightedObjective, Dataset, Dataset) {
        let n = 40;
        let mut raw = Vec::new();
        let mut labels = Vec::new();
        let mut truth = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let sign = if c == 1 { 1.0 } else { -1.0 };
            raw.push(sign * (1.0 + 0.01 * i as f64));
            raw.push(sign);
            labels.push(SoftLabel::new(vec![0.5, 0.5]));
            truth.push(Some(c));
        }
        let data = Dataset::new(
            Matrix::from_vec(n, 2, raw.clone()),
            labels,
            vec![false; n],
            truth.clone(),
            2,
        );
        let val = Dataset::new(
            Matrix::from_vec(n, 2, raw),
            (0..n).map(|i| SoftLabel::onehot(i % 2, 2)).collect(),
            vec![true; n],
            truth,
            2,
        );
        (
            LogisticRegression::new(2, 2),
            WeightedObjective::new(0.8, 0.05),
            data,
            val,
        )
    }

    #[test]
    fn full_and_incremental_agree_on_first_round() {
        let (model, obj, data, val) = toy();
        let w = vec![0.05; chef_model::Model::num_params(&model)];
        let pool = data.uncleaned_indices();
        let ctx = SelectorContext {
            model: &model,
            objective: &obj,
            data: &data,
            val: &val,
            w: &w,
            pool: &pool,
            b: 5,
            round: 0,
        };
        let mut full = InflSelector::full();
        let mut inc = InflSelector::incremental();
        let a = full.select(&ctx);
        let b = inc.select(&ctx);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(full.last_stats.is_none());
        assert!(inc.last_stats.is_some());
    }

    #[test]
    fn respects_budget_and_pool() {
        let (model, obj, data, val) = toy();
        let w = vec![0.0; chef_model::Model::num_params(&model)];
        let pool = vec![3, 9, 17];
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
        let mut sel = InflSelector::full();
        let picks = sel.select(&ctx);
        assert_eq!(picks.len(), 3);
        for p in &picks {
            assert!(pool.contains(&p.index));
            assert!(p.suggested.is_some());
        }
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(InflSelector::full().name(), "Infl");
        assert_eq!(InflSelector::incremental().name(), "Infl+Increm");
    }

    #[test]
    fn checkpoint_round_trip_restores_increm_state() {
        let (model, obj, data, val) = toy();
        let w = vec![0.05; chef_model::Model::num_params(&model)];
        let pool = data.uncleaned_indices();
        let ctx = SelectorContext {
            model: &model,
            objective: &obj,
            data: &data,
            val: &val,
            w: &w,
            pool: &pool,
            b: 5,
            round: 0,
        };
        let mut sel = InflSelector::incremental();
        let first = sel.select(&ctx);
        let state = sel.checkpoint_state();
        assert!(matches!(
            state,
            SelectorCheckpoint::Infl { increm: Some(_) }
        ));

        // A fresh selector restored from the checkpoint must not re-run
        // the initialization step and must pick the same samples.
        let mut restored = InflSelector::incremental();
        restored.restore_checkpoint(state).unwrap();
        let ctx1 = SelectorContext { round: 1, ..ctx };
        let a = sel.select(&ctx1);
        let b = restored.select(&ctx1);
        assert_eq!(a, b);
        assert!(!first.is_empty());
        // No provenance rebuild on the restored selector.
        assert_eq!(restored.last_phase.unwrap().provenance_grads, 0);
    }

    #[test]
    fn warm_start_saves_iterations_and_preserves_selection() {
        let (model, obj, data, val) = toy();
        let w = vec![0.05; chef_model::Model::num_params(&model)];
        let pool = data.uncleaned_indices();
        let ctx = SelectorContext {
            model: &model,
            objective: &obj,
            data: &data,
            val: &val,
            w: &w,
            pool: &pool,
            b: 5,
            round: 0,
        };
        let mut cold = InflSelector::full();
        let mut warm = InflSelector::full().with_warm_start();
        // Round 0: no cached solution yet, so both run the cold solve and
        // must agree exactly.
        let a = cold.select(&ctx);
        let b = warm.select(&ctx);
        assert_eq!(a, b);
        assert_eq!(warm.last_phase.unwrap().cg_iters_saved, 0);
        // Round 1 at the *same* parameters: the warm start begins at the
        // exact solution, so it must save every cold iteration (the toy
        // set is below the subsampling threshold, so the operator is
        // identical across rounds).
        let ctx1 = SelectorContext { round: 1, ..ctx };
        let a1 = cold.select(&ctx1);
        let b1 = warm.select(&ctx1);
        assert_eq!(a1, b1);
        let saved = warm.last_phase.unwrap().cg_iters_saved;
        assert!(saved > 0, "warm start at the solution saved {saved} iters");
        assert_eq!(cold.last_phase.unwrap().cg_iters_saved, 0);
    }

    #[test]
    fn restore_rejects_mismatched_checkpoint_kind() {
        let mut sel = InflSelector::incremental();
        assert!(sel
            .restore_checkpoint(SelectorCheckpoint::Stateless)
            .is_err());
    }
}

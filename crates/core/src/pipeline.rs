//! The redesigned iterative cleaning pipeline (paper Figure 1, loop 2).
//!
//! Instead of spending the whole budget `B` in one shot, the pipeline
//! cleans `b ≪ B` samples per round: select with Infl (or a baseline),
//! annotate, refresh the model (Retrain or DeltaGrad-L), re-evaluate —
//! and stop early once the target quality is reached. Per-phase
//! wall-clock times are recorded so the harness can regenerate the
//! paper's Table 2 and Figure 2 directly from a pipeline run.

use crate::annotation::AnnotationConfig;
use crate::checkpoint::{Checkpoint, CheckpointConfig, CheckpointError, LabelPatch};
use crate::constructor::{ConstructorKind, ModelConstructor};
use crate::fault::FaultPlan;
use crate::increm::IncremStats;
use crate::metrics::evaluate_f1;
use crate::round::{LoopState, RoundLoop, SuspendedLoop};
use crate::selector::{SampleSelector, Selection};
use chef_model::{Dataset, DatasetStore, Model, WeightedObjective};
use chef_obs::{RoundTelemetry, Telemetry};
use chef_train::{select_early_stop, SgdConfig};
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Total cleaning budget `B` (number of samples shown to annotators).
    pub budget: usize,
    /// Per-round batch `b ≤ B`.
    pub round_size: usize,
    /// Objective (γ on uncleaned samples, L2 strength λ).
    pub objective: WeightedObjective,
    /// SGD hyperparameters shared by initialization and every update.
    pub sgd: SgdConfig,
    /// Model-constructor strategy.
    pub constructor: ConstructorKind,
    /// Annotation-phase setup.
    pub annotation: AnnotationConfig,
    /// Early termination: stop once validation F1 reaches this value.
    pub target_val_f1: Option<f64>,
    /// Telemetry handle every phase reports into. Defaults to disabled,
    /// which records nothing and leaves every result bit-identical.
    pub telemetry: Telemetry,
    /// Durable checkpointing (DESIGN.md §12): when set, the loop writes a
    /// `checkpoint.v2` generation file every
    /// [`CheckpointConfig::every_rounds`] completed rounds, and
    /// [`Pipeline::resume_round_loop_latest`] continues an interrupted
    /// run bit-identically. `None` (the default) writes nothing.
    pub checkpoint: Option<CheckpointConfig>,
    /// Deterministic fault injection: the crash-recovery harness's
    /// crash/torn-write/bit-flip/timeout schedule. The default plan is
    /// empty and injects nothing.
    pub faults: FaultPlan,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            budget: 100,
            round_size: 10,
            objective: WeightedObjective::new(0.8, 0.05),
            sgd: SgdConfig::default(),
            constructor: ConstructorKind::Retrain,
            annotation: AnnotationConfig::default(),
            target_val_f1: None,
            telemetry: Telemetry::disabled(),
            checkpoint: None,
            faults: FaultPlan::default(),
        }
    }
}

/// Everything measured in one cleaning round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Round number (0-based).
    pub round: usize,
    /// The selections handed to the annotators.
    pub selected: Vec<Selection>,
    /// How many selections ended with a cleaned label.
    pub cleaned: usize,
    /// How many ended ambiguous (label kept probabilistic).
    pub ambiguous: usize,
    /// Validation F1 after this round's model refresh (early-stopped).
    pub val_f1: f64,
    /// Test F1 after this round's model refresh (early-stopped).
    pub test_f1: f64,
    /// Wall-clock time of the sample-selector phase (Time_inf of Exp2).
    pub select_time: Duration,
    /// Wall-clock time of the model-constructor phase (Exp3).
    pub update_time: Duration,
    /// Increm-Infl pruning counters, if the selector reported any.
    pub selector_stats: Option<IncremStats>,
    /// Structured per-phase breakdown (telemetry.v1 `rounds[i]`). Always
    /// populated — the counts are computed by the phases whether or not
    /// the telemetry handle is enabled; only spans/histograms/export
    /// need an enabled handle.
    pub telemetry: RoundTelemetry,
}

/// Full pipeline run summary.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Validation F1 of the uncleaned model (the tables' "uncleaned" column).
    pub initial_val_f1: f64,
    /// Test F1 of the uncleaned model.
    pub initial_test_f1: f64,
    /// Wall-clock time of the initialization training.
    pub init_time: Duration,
    /// Per-round measurements.
    pub rounds: Vec<RoundReport>,
    /// Final (early-stopped) parameters.
    pub final_w: Vec<f64>,
    /// Final full-budget parameters (not early-stopped).
    pub final_w_raw: Vec<f64>,
    /// Whether the run stopped before exhausting the budget.
    pub early_terminated: bool,
    /// Total samples cleaned (deterministic labels installed).
    pub cleaned_total: usize,
    /// The training set after all cleaning (for inspection).
    pub final_data: Dataset,
    /// Whether the run was cut short by an injected crash
    /// ([`PipelineConfig::faults`]) rather than finishing its budget.
    /// Always `false` under the empty plan; a resumed run that completes
    /// clears it.
    pub interrupted: bool,
}

impl PipelineReport {
    /// Test F1 after the last round (or of the uncleaned model when no
    /// rounds ran).
    pub fn final_test_f1(&self) -> f64 {
        self.rounds
            .last()
            .map_or(self.initial_test_f1, |r| r.test_f1)
    }

    /// Validation F1 after the last round.
    pub fn final_val_f1(&self) -> f64 {
        self.rounds.last().map_or(self.initial_val_f1, |r| r.val_f1)
    }

    /// Accumulated selector time across rounds. After a resume
    /// ([`Pipeline::resume_round_loop_latest`]), `rounds` includes the
    /// restored pre-crash reports (durations persisted in the
    /// checkpoint), so this total covers the whole logical run, not just
    /// the resumed session.
    pub fn total_select_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.select_time).sum()
    }

    /// Accumulated model-constructor time across rounds (aggregates
    /// across resume, like [`Self::total_select_time`]).
    pub fn total_update_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.update_time).sum()
    }
}

/// A [`PipelineReport`] without the materialized `final_data` copy: the
/// result of [`RoundLoop::finish`] (and so of [`RoundLoop::run_sync`]),
/// whose loop mutates the caller's [`DatasetStore`] in place. An
/// out-of-core run at n = 10⁶ must not end by cloning a quarter-gigabyte
/// of features into RAM; callers that do want an owned snapshot call
/// [`DatasetStore::to_dataset`] explicitly, and callers that keep only
/// the final labels take [`RoundLoop::label_patches`] before `finish`.
/// A finished `chef-serve` job keeps this report and those patches, not
/// its training set.
#[derive(Debug, Clone)]
pub struct StorePipelineReport {
    /// Validation F1 of the uncleaned model.
    pub initial_val_f1: f64,
    /// Test F1 of the uncleaned model.
    pub initial_test_f1: f64,
    /// Wall-clock time of the initialization training.
    pub init_time: Duration,
    /// Per-round measurements.
    pub rounds: Vec<RoundReport>,
    /// Final (early-stopped) parameters.
    pub final_w: Vec<f64>,
    /// Final full-budget parameters (not early-stopped).
    pub final_w_raw: Vec<f64>,
    /// Whether the run stopped before exhausting the budget.
    pub early_terminated: bool,
    /// Total samples cleaned (deterministic labels installed).
    pub cleaned_total: usize,
    /// Whether the run was cut short by an injected crash.
    pub interrupted: bool,
}

impl StorePipelineReport {
    /// Attach an owned final dataset, producing the classic
    /// [`PipelineReport`]. Used by [`Pipeline::run`], which owns its
    /// in-memory training copy anyway.
    pub fn into_report(self, final_data: Dataset) -> PipelineReport {
        PipelineReport {
            initial_val_f1: self.initial_val_f1,
            initial_test_f1: self.initial_test_f1,
            init_time: self.init_time,
            rounds: self.rounds,
            final_w: self.final_w,
            final_w_raw: self.final_w_raw,
            early_terminated: self.early_terminated,
            cleaned_total: self.cleaned_total,
            final_data,
            interrupted: self.interrupted,
        }
    }

    /// Test F1 after the last round (or of the uncleaned model when no
    /// rounds ran).
    pub fn final_test_f1(&self) -> f64 {
        self.rounds
            .last()
            .map_or(self.initial_test_f1, |r| r.test_f1)
    }

    /// Validation F1 after the last round.
    pub fn final_val_f1(&self) -> f64 {
        self.rounds.last().map_or(self.initial_val_f1, |r| r.val_f1)
    }
}

/// The CHEF pipeline driver.
pub struct Pipeline {
    pub(crate) cfg: PipelineConfig,
}

impl Pipeline {
    /// Create a pipeline with the given configuration.
    ///
    /// # Panics
    /// Panics if `round_size == 0` or `budget == 0`.
    pub fn new(cfg: PipelineConfig) -> Self {
        assert!(cfg.budget > 0, "Pipeline: zero budget");
        assert!(cfg.round_size > 0, "Pipeline: zero round size");
        Self { cfg }
    }

    /// Run the full cleaning loop on `data`, mutating a private copy.
    ///
    /// `selector` picks the samples; `val` drives both influence and early
    /// stopping; `test` is only ever used for reporting.
    ///
    /// Every phase reports into `cfg.telemetry`: wall-clock spans
    /// (`pipeline.init`, `round.select`, `round.annotate`, `round.update`,
    /// `round.eval`, `train.sgd`), counters, and a structured
    /// [`RoundTelemetry`] per round (also stored on the [`RoundReport`]).
    ///
    /// # Example
    ///
    /// Run two cleaning rounds on a toy problem and read the structured
    /// breakdown. The enabled handle also exports a versioned
    /// `telemetry.v1` JSON document.
    ///
    /// ```
    /// use chef_core::{InflSelector, Pipeline, PipelineConfig, Telemetry};
    /// use chef_linalg::Matrix;
    /// use chef_model::{Dataset, LogisticRegression, SoftLabel};
    /// use chef_train::SgdConfig;
    ///
    /// // Ten 1-D samples, alternating classes; the training copy starts
    /// // with uninformative probabilistic labels.
    /// let make = |clean: bool| {
    ///     let n = 10;
    ///     let raw = (0..n).map(|i| if i % 2 == 0 { -1.0 } else { 1.0 }).collect();
    ///     let labels = (0..n)
    ///         .map(|i| if clean { SoftLabel::onehot(i % 2, 2) } else { SoftLabel::uniform(2) })
    ///         .collect();
    ///     let truth = (0..n).map(|i| Some(i % 2)).collect();
    ///     Dataset::new(Matrix::from_vec(n, 1, raw), labels, vec![clean; n], truth, 2)
    /// };
    ///
    /// let cfg = PipelineConfig {
    ///     budget: 4,
    ///     round_size: 2,
    ///     sgd: SgdConfig { epochs: 2, batch_size: 5, ..SgdConfig::default() },
    ///     telemetry: Telemetry::enabled(),
    ///     ..PipelineConfig::default()
    /// };
    /// let telemetry = cfg.telemetry.clone();
    /// let pipeline = Pipeline::new(cfg);
    /// let model = LogisticRegression::new(1, 2);
    /// let mut selector = InflSelector::full();
    /// let report = pipeline.run(&model, make(false), &make(true), &make(true), &mut selector);
    ///
    /// assert_eq!(report.rounds.len(), 2);
    /// assert_eq!(report.rounds[0].telemetry.selector.pool, 10);
    /// let json = telemetry.export_json("pipeline").unwrap();
    /// assert!(json.contains("\"schema\":\"telemetry.v1\""));
    /// ```
    pub fn run(
        &self,
        model: &dyn Model,
        mut data: Dataset,
        val: &Dataset,
        test: &Dataset,
        selector: &mut dyn SampleSelector,
    ) -> PipelineReport {
        let out = self
            .round_loop(model, &mut data, val, test, selector)
            .run_sync();
        out.into_report(data)
    }

    /// Start the cleaning loop on any [`DatasetStore`] (DESIGN.md §16):
    /// run the initialization training and return the loop as a
    /// [`RoundLoop`] state machine that yields
    /// [`crate::AnnotationBatch`]es instead of blocking on annotators.
    /// [`RoundLoop::run_sync`] answers every batch with the in-process
    /// simulated panel — that is all [`Self::run`] adds — so an
    /// out-of-core run (DESIGN.md §15: a `chef_data::MmapStore` keeps
    /// features on disk while labels and flags update in RAM) and an
    /// in-memory one are one code path and bit-identical on the same
    /// data.
    pub fn round_loop<'a>(
        &'a self,
        model: &'a dyn Model,
        data: &'a mut dyn DatasetStore,
        val: &'a dyn DatasetStore,
        test: &'a dyn DatasetStore,
        selector: &'a mut dyn SampleSelector,
    ) -> RoundLoop<'a> {
        let cfg = &self.cfg;
        let tel = &cfg.telemetry;
        let ctor = self.constructor();

        // ---- Initialization step (offline): train + provenance. ----
        let init = {
            let _span = tel.span("pipeline.init");
            ctor.initial_train(model, &cfg.objective, data)
        };
        let trace = init.trace;
        let w_raw = init.w;
        let (w_eval, _) =
            select_early_stop(model, &cfg.objective, val, &trace.epoch_checkpoints, &w_raw);
        let initial_val_f1 = evaluate_f1(model, &w_eval, val).f1;
        let initial_test_f1 = evaluate_f1(model, &w_eval, test).f1;

        let state = LoopState {
            w_raw,
            w_eval,
            trace,
            attempted: HashSet::new(),
            rounds: Vec::new(),
            spent: 0,
            cleaned_total: 0,
            early_terminated: cfg
                .target_val_f1
                .is_some_and(|target| initial_val_f1 >= target),
            round: 0,
            initial_val_f1,
            initial_test_f1,
            init_time: init.elapsed,
        };
        let fresh = SuspendedLoop::between_rounds(state);
        RoundLoop::from_suspended(self, model, data, val, test, selector, fresh)
    }

    /// Resume an interrupted run from the newest readable checkpoint
    /// generation in `dir`, falling back over corrupt generations (each
    /// fallback is counted in the `resume.corrupt_fallbacks` telemetry
    /// counter), and return the loop parked at its next round for
    /// [`RoundLoop::run_sync`] or an external annotation source to
    /// drive. This is how a `chef-serve` job picks up a killed tenant.
    ///
    /// `data` must be the *pristine* training store the original run
    /// started from — the checkpoint's label patches are replayed onto
    /// it. `checkpoint.v2` stores row indices and label vectors only, no
    /// feature bytes, so the same file resumes an in-memory run or an
    /// out-of-core one. `selector` must be the same selector kind the
    /// original run used; its frozen Increm-Infl provenance is restored
    /// from the checkpoint, so no re-initialization pass runs. The
    /// continued run is bit-identical to one that was never interrupted
    /// (the replay-equivalence guarantee of DESIGN.md §12, pinned by
    /// `tests/checkpoint_resume.rs`), and its report aggregates the
    /// restored rounds — `total_select_time` / `total_update_time` /
    /// `init_time` cover the pre-crash work too.
    ///
    /// Restored rounds are replayed into the telemetry handle
    /// (`resume.rounds_skipped` counts them) so counters and the exported
    /// `rounds` array match an uninterrupted run; wall-clock histograms
    /// and spans only cover the resumed session.
    pub fn resume_round_loop_latest<'a>(
        &'a self,
        model: &'a dyn Model,
        data: &'a mut dyn DatasetStore,
        val: &'a dyn DatasetStore,
        test: &'a dyn DatasetStore,
        selector: &'a mut dyn SampleSelector,
        dir: &Path,
    ) -> Result<RoundLoop<'a>, CheckpointError> {
        let (ckpt, _path, corrupt_skipped) = Checkpoint::latest_in_dir(dir)?;
        let state = self.restored_state(data, selector, ckpt, corrupt_skipped)?;
        let parked = SuspendedLoop::between_rounds(state);
        Ok(RoundLoop::from_suspended(
            self, model, data, val, test, selector, parked,
        ))
    }

    /// Validate a checkpoint against the config, replay its label
    /// patches and telemetry, restore the selector, and rebuild the loop
    /// state.
    fn restored_state(
        &self,
        data: &mut dyn DatasetStore,
        selector: &mut dyn SampleSelector,
        ckpt: Checkpoint,
        corrupt_skipped: usize,
    ) -> Result<LoopState, CheckpointError> {
        let cfg = &self.cfg;
        if ckpt.annotation_seed != cfg.annotation.seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint was taken with annotation seed {}, config has {}",
                ckpt.annotation_seed, cfg.annotation.seed
            )));
        }
        if ckpt.sgd_seed != cfg.sgd.seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint was taken with SGD seed {}, config has {}",
                ckpt.sgd_seed, cfg.sgd.seed
            )));
        }
        LabelPatch::replay(&ckpt.labels, data)?;
        selector
            .restore_checkpoint(ckpt.selector)
            .map_err(CheckpointError::Mismatch)?;

        // Replay the restored rounds into the telemetry handle so
        // counters and the exported `rounds` array match an uninterrupted
        // run (`record_round_counters` is the single source of truth for
        // both paths).
        let tel = &cfg.telemetry;
        tel.add("resume.rounds_skipped", ckpt.rounds.len() as u64);
        if corrupt_skipped > 0 {
            tel.add("resume.corrupt_fallbacks", corrupt_skipped as u64);
        }
        for r in &ckpt.rounds {
            record_round_counters(tel, &r.telemetry);
            tel.record_round(r.telemetry.clone());
        }
        if let Some(last) = ckpt.rounds.last() {
            tel.set_gauge("pipeline.val_f1", last.val_f1);
            tel.set_gauge("pipeline.test_f1", last.test_f1);
        }

        Ok(LoopState {
            w_raw: ckpt.w_raw,
            w_eval: ckpt.w_eval,
            trace: ckpt.trace,
            attempted: ckpt.attempted.into_iter().collect(),
            rounds: ckpt.rounds,
            spent: ckpt.spent,
            cleaned_total: ckpt.cleaned_total,
            early_terminated: ckpt.early_terminated,
            round: ckpt.round,
            initial_val_f1: ckpt.initial_val_f1,
            initial_test_f1: ckpt.initial_test_f1,
            init_time: Duration::from_nanos(ckpt.init_ns),
        })
    }

    pub(crate) fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    pub(crate) fn constructor(&self) -> ModelConstructor {
        ModelConstructor::new(self.cfg.constructor, self.cfg.sgd)
            .with_telemetry(self.cfg.telemetry.clone())
    }

    /// Snapshot the loop state as a [`Checkpoint`]. Label patches cover
    /// exactly the attempted samples — the only ones annotation can have
    /// mutated — so replaying them onto the pristine dataset reproduces
    /// `state.data` bit-for-bit.
    fn checkpoint_from(
        &self,
        state: &LoopState,
        data: &dyn DatasetStore,
        selector: &dyn SampleSelector,
    ) -> Checkpoint {
        let attempted = state.attempted_sorted();
        let labels = LabelPatch::capture(data, &attempted);
        Checkpoint {
            round: state.round,
            spent: state.spent,
            cleaned_total: state.cleaned_total,
            early_terminated: state.early_terminated,
            initial_val_f1: state.initial_val_f1,
            initial_test_f1: state.initial_test_f1,
            init_ns: state.init_time.as_nanos() as u64,
            annotation_seed: self.cfg.annotation.seed,
            sgd_seed: self.cfg.sgd.seed,
            attempted,
            labels,
            rounds: state.rounds.clone(),
            w_raw: state.w_raw.clone(),
            w_eval: state.w_eval.clone(),
            trace: state.trace.clone(),
            selector: selector.checkpoint_state(),
        }
    }

    pub(crate) fn write_checkpoint(
        &self,
        ckcfg: &CheckpointConfig,
        state: &LoopState,
        data: &dyn DatasetStore,
        selector: &dyn SampleSelector,
        finished_round: usize,
    ) {
        let tel = &self.cfg.telemetry;
        let ckpt = self.checkpoint_from(state, data, selector);
        let start = Instant::now();
        match ckpt.write_generation(ckcfg) {
            Ok((path, bytes)) => {
                tel.add("checkpoint.writes", 1);
                tel.add("checkpoint.bytes", bytes);
                tel.observe_ms("checkpoint.write_ms", start.elapsed().as_secs_f64() * 1e3);
                self.cfg.faults.mangle_after_write(finished_round, &path);
            }
            Err(_) => {
                // A failed write must not kill the cleaning run; the
                // previous generation (if any) still covers recovery.
                tel.add("checkpoint.write_errors", 1);
            }
        }
    }
}

/// Fold one round's structured breakdown into the flat telemetry
/// counters. The single source of truth for both the live loop and the
/// resume replay — keeping them on one code path is what makes counter
/// totals match between an uninterrupted run and a crash-plus-resume run
/// (`increm.provenance_grads` is the documented exception: it is not
/// part of [`RoundTelemetry`], so resume cannot replay it).
pub(crate) fn record_round_counters(tel: &Telemetry, rt: &RoundTelemetry) {
    tel.add("selector.scored", rt.selector.scored as u64);
    tel.add("selector.pruned", rt.selector.pruned as u64);
    tel.add("selector.grad_evals", rt.selector.grad_evals as u64);
    tel.add("selector.hvp_evals", rt.selector.hvp_evals as u64);
    match rt.selector.kernel_path.as_str() {
        "gemm" => tel.add("selector.kernel_gemm", 1),
        "per_sample" => tel.add("selector.kernel_per_sample", 1),
        _ => {}
    }
    match rt.constructor.kernel_path.as_str() {
        "gemm" => tel.add("train.kernel_gemm", 1),
        "per_sample" => tel.add("train.kernel_per_sample", 1),
        _ => {}
    }
    tel.add("annotation.votes", rt.annotation.votes as u64);
    tel.add("annotation.conflicts", rt.annotation.conflicts as u64);
    tel.add("annotation.abstains", rt.annotation.abstains as u64);
    tel.add("annotation.cleaned", rt.annotation.cleaned as u64);
    tel.add("constructor.exact_steps", rt.constructor.exact_steps as u64);
    tel.add(
        "constructor.replay_steps",
        rt.constructor.replay_steps as u64,
    );
    tel.add("pipeline.rounds", 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::LabelStrategy;
    use crate::selector::InflSelector;
    use chef_linalg::Matrix;
    use chef_model::{LogisticRegression, SoftLabel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn fixture(seed: u64) -> (LogisticRegression, Dataset, Dataset, Dataset) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut make = |count: usize, weak: bool| {
            let mut raw = Vec::new();
            let mut labels = Vec::new();
            let mut truth = Vec::new();
            for _ in 0..count {
                let c = usize::from(rng.gen_range(0.0..1.0) < 0.5);
                let sign = if c == 1 { 1.0 } else { -1.0 };
                raw.push(sign * 1.2 + rng.gen_range(-1.0..1.0));
                raw.push(sign * 1.2 + rng.gen_range(-1.0..1.0));
                if weak {
                    // ~35% of weak labels point the wrong way.
                    let good = rng.gen_range(0.0..1.0) < 0.65;
                    let p = rng.gen_range(0.55..0.95);
                    let l = if good == (c == 1) {
                        SoftLabel::new(vec![1.0 - p, p])
                    } else {
                        SoftLabel::new(vec![p, 1.0 - p])
                    };
                    labels.push(l);
                } else {
                    labels.push(SoftLabel::onehot(c, 2));
                }
                truth.push(Some(c));
            }
            Dataset::new(
                Matrix::from_vec(count, 2, raw),
                labels,
                vec![!weak; count],
                truth,
                2,
            )
        };
        let train = make(120, true);
        let val = make(40, false);
        let test = make(40, false);
        (LogisticRegression::new(2, 2), train, val, test)
    }

    fn config() -> PipelineConfig {
        PipelineConfig {
            budget: 20,
            round_size: 5,
            objective: WeightedObjective::new(0.8, 0.05),
            sgd: SgdConfig {
                lr: 0.1,
                epochs: 8,
                batch_size: 30,
                seed: 3,
                cache_provenance: true,
            },
            constructor: ConstructorKind::Retrain,
            annotation: AnnotationConfig {
                strategy: LabelStrategy::HumansOnly(3),
                error_rate: 0.05,
                seed: 11,
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn runs_all_rounds_and_cleans_budget() {
        let (model, train, val, test) = fixture(1);
        let pipeline = Pipeline::new(config());
        let mut sel = InflSelector::full();
        let report = pipeline.run(&model, train, &val, &test, &mut sel);
        assert_eq!(report.rounds.len(), 4);
        let selected: usize = report.rounds.iter().map(|r| r.selected.len()).sum();
        assert_eq!(selected, 20);
        assert!(report.cleaned_total <= 20);
        assert!(!report.early_terminated);
        assert_eq!(report.final_data.num_clean(), report.cleaned_total);
    }

    #[test]
    fn never_reselects_a_sample() {
        let (model, train, val, test) = fixture(2);
        let pipeline = Pipeline::new(config());
        let mut sel = InflSelector::full();
        let report = pipeline.run(&model, train, &val, &test, &mut sel);
        let mut seen = HashSet::new();
        for r in &report.rounds {
            for s in &r.selected {
                assert!(seen.insert(s.index), "sample {} selected twice", s.index);
            }
        }
    }

    #[test]
    fn cleaning_does_not_hurt_quality() {
        let (model, train, val, test) = fixture(3);
        let mut cfg = config();
        cfg.budget = 30;
        cfg.annotation.strategy = LabelStrategy::SuggestionOnly;
        let pipeline = Pipeline::new(cfg);
        let mut sel = InflSelector::full();
        let report = pipeline.run(&model, train, &val, &test, &mut sel);
        assert!(
            report.final_val_f1() >= report.initial_val_f1 - 0.05,
            "val F1 {} → {}",
            report.initial_val_f1,
            report.final_val_f1()
        );
    }

    #[test]
    fn early_termination_respects_target() {
        let (model, train, val, test) = fixture(4);
        let mut cfg = config();
        cfg.target_val_f1 = Some(0.0); // trivially satisfied before round 1
        let pipeline = Pipeline::new(cfg);
        let mut sel = InflSelector::full();
        let report = pipeline.run(&model, train, &val, &test, &mut sel);
        assert!(report.early_terminated);
        assert!(report.rounds.is_empty());
    }

    #[test]
    fn deltagrad_l_pipeline_matches_retrain_quality() {
        let (model, train, val, test) = fixture(5);
        let mut cfg = config();
        cfg.annotation.strategy = LabelStrategy::SuggestionOnly;
        let mut cfg_d = cfg.clone();
        let pipeline_r = Pipeline::new(cfg);
        cfg_d.constructor = ConstructorKind::DeltaGradL(chef_train::DeltaGradConfig::default());
        let pipeline_d = Pipeline::new(cfg_d);
        let mut sel_r = InflSelector::full();
        let mut sel_d = InflSelector::full();
        let rep_r = pipeline_r.run(&model, train.clone(), &val, &test, &mut sel_r);
        let rep_d = pipeline_d.run(&model, train, &val, &test, &mut sel_d);
        assert!(
            (rep_r.final_test_f1() - rep_d.final_test_f1()).abs() < 0.08,
            "Retrain {} vs DeltaGrad-L {}",
            rep_r.final_test_f1(),
            rep_d.final_test_f1()
        );
    }

    #[test]
    fn report_accumulators_are_consistent() {
        let (model, train, val, test) = fixture(6);
        let pipeline = Pipeline::new(config());
        let mut sel = InflSelector::incremental();
        let report = pipeline.run(&model, train, &val, &test, &mut sel);
        let sum: Duration = report.rounds.iter().map(|r| r.select_time).sum();
        assert_eq!(sum, report.total_select_time());
        for r in &report.rounds {
            assert_eq!(r.selected.len(), r.cleaned + r.ambiguous);
            // The structured breakdown agrees with the flat counters.
            assert_eq!(r.telemetry.round, r.round);
            assert_eq!(r.telemetry.annotation.cleaned, r.cleaned);
            assert_eq!(r.telemetry.annotation.abstains, r.ambiguous);
            assert_eq!(
                r.telemetry.selector.pool,
                r.telemetry.selector.pruned + r.telemetry.selector.scored
            );
        }
    }
}

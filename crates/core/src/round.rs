//! The resumable round state machine behind [`Pipeline`] (DESIGN.md §16).
//!
//! The cleaning loop of Figure 1 has exactly one blocking edge: the
//! human-annotation phase. [`RoundLoop`] cuts the loop at that edge and
//! turns it into an explicit state machine — [`RoundLoop::next_batch`]
//! runs the selector and *yields* an [`AnnotationBatch`] instead of
//! calling the annotators, and [`RoundLoop::provide`] accepts the
//! outcomes (from any annotation source: the in-process simulated panel,
//! a `chef-serve` annotator host, or an abstain-everything timeout) and
//! runs the model-constructor, evaluation, telemetry and checkpoint
//! phases.
//!
//! The synchronous [`RoundLoop::run_sync`] (and [`Pipeline::run`] on top
//! of it) is one more caller of this machine — one code path — so a
//! caller that answers every batch with
//! [`AnnotationPhase::decide_batch`] outcomes reproduces the blocking
//! loop bit-for-bit. That equivalence is what lets `chef-serve`
//! interleave many jobs, deliver replies out of order, and still assert
//! its final reports against `Pipeline::run`.

use crate::annotation::{AnnotationOutcome, AnnotationPhase, AnnotationStats};
use crate::constructor::{ConstructorKind, ModelConstructor};
use crate::metrics::evaluate_f1;
use crate::pipeline::{record_round_counters, Pipeline, RoundReport, StorePipelineReport};
use crate::selector::{SampleSelector, Selection, SelectorContext};
use chef_model::{DatasetStore, LabelOverlay, Model};
use chef_obs::{AnnotationTelemetry, ConstructorTelemetry, RoundTelemetry, SelectorTelemetry};
use chef_train::{select_early_stop, TrainTrace};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// One sample awaiting annotation, with everything an external annotator
/// needs: batches are self-contained snapshots, so annotator hosts never
/// touch the training store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchItem {
    /// Row index in the training store.
    pub index: usize,
    /// The selector's suggested label, if its strategy produces one.
    pub suggested: Option<usize>,
    /// Recorded ground truth, if any — feeds the *simulated* human
    /// annotators exactly as [`DatasetStore::ground_truth`] feeds the
    /// synchronous phase. A real deployment would drop this field.
    pub truth: Option<usize>,
}

/// The batch of samples one round hands to its annotation source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotationBatch {
    /// 0-based round that selected this batch.
    pub round: usize,
    /// Class count of the training store (vote space of the panel).
    pub num_classes: usize,
    /// Selected samples, in selection (ranking) order.
    pub items: Vec<BatchItem>,
}

impl AnnotationBatch {
    /// The selections this batch was built from, in order.
    pub fn selections(&self) -> Vec<Selection> {
        self.items
            .iter()
            .map(|it| Selection {
                index: it.index,
                suggested: it.suggested,
            })
            .collect()
    }
}

/// What [`RoundLoop::next_batch`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundStep {
    /// A batch was selected; the loop is parked until
    /// [`RoundLoop::provide`] delivers its outcomes.
    Awaiting(AnnotationBatch),
    /// The loop is finished: budget spent, pool drained, quality target
    /// hit, or an injected crash was honored. Call [`RoundLoop::finish`].
    Done,
}

/// Everything the cleaning loop carries across rounds — by construction,
/// exactly the state a [`crate::Checkpoint`] must persist for
/// [`Pipeline::resume_round_loop_latest`] to continue bit-identically.
pub(crate) struct LoopState {
    pub(crate) w_raw: Vec<f64>,
    pub(crate) w_eval: Vec<f64>,
    pub(crate) trace: TrainTrace,
    pub(crate) attempted: HashSet<usize>,
    pub(crate) rounds: Vec<RoundReport>,
    pub(crate) spent: usize,
    pub(crate) cleaned_total: usize,
    pub(crate) early_terminated: bool,
    pub(crate) round: usize,
    pub(crate) initial_val_f1: f64,
    pub(crate) initial_test_f1: f64,
    pub(crate) init_time: Duration,
}

/// The select phase's output, parked while the batch is out for
/// annotation.
struct PendingRound {
    selections: Vec<Selection>,
    /// Pre-annotation labels of the selected samples (DeltaGrad-L Eq. 4).
    prior: LabelOverlay,
    select_time: Duration,
    selector_tel: SelectorTelemetry,
}

/// A [`RoundLoop`] detached from its borrowed resources: plain owned
/// data (`Send`), movable between threads, reattachable with
/// [`RoundLoop::from_suspended`].
///
/// This is what makes a cleaning job a *cooperatively schedulable*
/// state machine: `chef-serve`'s pooled scheduler suspends a job at its
/// annotation boundary, hands the worker thread to another tenant, and
/// later reattaches the suspended state on whichever worker picks the
/// job up next. Suspension is lossless — the loop's cross-round state,
/// any outstanding batch's parked select-phase output, and the
/// interrupt flag all travel along — and the constructor is rebuilt at
/// reattach exactly as a checkpoint resume rebuilds it, which is
/// stateless (`ModelConstructor::update` is `&self`; all cross-round
/// training state lives in the traveling loop state), so a
/// suspended-and-reattached run is bit-identical to an uninterrupted
/// one.
pub struct SuspendedLoop {
    state: LoopState,
    pending: Option<PendingRound>,
    interrupted: bool,
}

impl SuspendedLoop {
    /// A loop parked between rounds: no batch outstanding, not
    /// interrupted. Fresh and checkpoint-resumed loops start here.
    pub(crate) fn between_rounds(state: LoopState) -> Self {
        Self {
            state,
            pending: None,
            interrupted: false,
        }
    }

    /// 0-based index of the next round to run.
    pub fn round(&self) -> usize {
        self.state.round
    }

    /// Whether a batch was out for annotation at suspension time.
    pub fn awaiting(&self) -> bool {
        self.pending.is_some()
    }
}

/// The cleaning loop with the annotation phase factored out; see the
/// module docs. Obtained from [`Pipeline::round_loop`],
/// [`Pipeline::resume_round_loop_latest`] or
/// [`RoundLoop::from_suspended`].
pub struct RoundLoop<'a> {
    pipeline: &'a Pipeline,
    ctor: ModelConstructor,
    model: &'a dyn Model,
    data: &'a mut dyn DatasetStore,
    val: &'a dyn DatasetStore,
    test: &'a dyn DatasetStore,
    selector: &'a mut dyn SampleSelector,
    state: LoopState,
    pending: Option<PendingRound>,
    interrupted: bool,
}

impl<'a> RoundLoop<'a> {
    /// Reattach a [`SuspendedLoop`] to its resources and continue it as
    /// a live loop — the other half of [`Self::suspend`]. The borrows
    /// must be the same logical resources the loop was suspended from
    /// (same training store contents, same model, same selector
    /// instance); the constructor is rebuilt fresh, which is
    /// bit-identical because it is stateless across rounds (the
    /// checkpoint resume path relies on this too).
    pub fn from_suspended(
        pipeline: &'a Pipeline,
        model: &'a dyn Model,
        data: &'a mut dyn DatasetStore,
        val: &'a dyn DatasetStore,
        test: &'a dyn DatasetStore,
        selector: &'a mut dyn SampleSelector,
        suspended: SuspendedLoop,
    ) -> Self {
        let ctor = pipeline.constructor();
        Self {
            pipeline,
            ctor,
            model,
            data,
            val,
            test,
            selector,
            state: suspended.state,
            pending: suspended.pending,
            interrupted: suspended.interrupted,
        }
    }

    /// Detach the loop from its borrows into an owned, movable
    /// [`SuspendedLoop`]. Legal at any point — between rounds or with a
    /// batch outstanding; an outstanding batch's parked select output
    /// travels with the suspension and the reattached loop accepts its
    /// [`Self::provide`] as if nothing happened.
    pub fn suspend(self) -> SuspendedLoop {
        SuspendedLoop {
            state: self.state,
            pending: self.pending,
            interrupted: self.interrupted,
        }
    }

    /// Drive the loop to the end synchronously: answer every batch at
    /// once with the in-process simulated panel of the pipeline's
    /// [`AnnotationConfig`](crate::AnnotationConfig) — or, under the
    /// `fault-inject` feature, with the injected whole-batch timeout —
    /// then [`Self::finish`]. This is [`Pipeline::run`]'s loop and the
    /// way to run an out-of-core store or a resumed checkpoint to
    /// completion.
    pub fn run_sync(mut self) -> StorePipelineReport {
        let cfg = self.pipeline.config();
        let annotator = AnnotationPhase::new(cfg.annotation);
        loop {
            match self.next_batch() {
                RoundStep::Done => return self.finish(),
                RoundStep::Awaiting(batch) => {
                    let annotate_start = Instant::now();
                    let (outcomes, ann_stats) = if self.pipeline.annotators_time_out(batch.round) {
                        // Injected timeout: the whole batch abstains —
                        // labels stay probabilistic, budget slots are
                        // still consumed.
                        (
                            vec![AnnotationOutcome::Ambiguous; batch.items.len()],
                            AnnotationStats {
                                requested: batch.items.len(),
                                abstains: batch.items.len(),
                                ..AnnotationStats::default()
                            },
                        )
                    } else {
                        let _span = cfg.telemetry.span("round.annotate");
                        annotator.decide_batch(&batch)
                    };
                    self.provide(&outcomes, ann_stats, annotate_start.elapsed());
                }
            }
        }
    }

    /// Run the selector phase of the next round and yield its batch, or
    /// report that the loop is finished.
    ///
    /// # Panics
    /// Panics if a previous batch is still outstanding (no
    /// [`Self::provide`] since the last `Awaiting`).
    pub fn next_batch(&mut self) -> RoundStep {
        assert!(
            self.pending.is_none(),
            "RoundLoop::next_batch: previous batch still awaiting outcomes"
        );
        let cfg = self.pipeline.config();
        let tel = &cfg.telemetry;
        if self.interrupted || self.state.early_terminated || self.state.spent >= cfg.budget {
            return RoundStep::Done;
        }
        let b = cfg.round_size.min(cfg.budget - self.state.spent);
        let pool: Vec<usize> = self
            .data
            .uncleaned_indices()
            .into_iter()
            .filter(|i| !self.state.attempted.contains(i))
            .collect();
        if pool.is_empty() {
            return RoundStep::Done;
        }

        // ---- Sample selector phase. ----
        let select_start = Instant::now();
        let selections = {
            let _span = tel.span("round.select");
            let ctx = SelectorContext {
                model: self.model,
                objective: &cfg.objective,
                data: &*self.data,
                val: self.val,
                // Influence is computed at the full-budget parameters
                // w_raw: they evolve smoothly across rounds (early
                // stopping may jump between epochs), which keeps the
                // Increm-Infl drift ‖w⁽ᵏ⁾ − w⁽⁰⁾‖ small, exactly as the
                // paper's provenance assumes. Early stopping still
                // decides the *reported* model.
                w: &self.state.w_raw,
                pool: &pool,
                b,
                round: self.state.round,
            };
            self.selector.select(&ctx)
        };
        let select_time = select_start.elapsed();
        if selections.is_empty() {
            return RoundStep::Done;
        }
        self.state.spent += selections.len();

        let phase_stats = self.selector.phase_stats();
        let selector_tel = match phase_stats {
            Some(ps) => SelectorTelemetry {
                selector: self.selector.name().to_string(),
                pool: ps.pool,
                pruned: ps.pruned,
                scored: ps.scored,
                grad_evals: ps.grad_evals,
                hvp_evals: ps.hvp_evals,
                bound_hit_rate: ps.bound_hit_rate,
                kernel_path: ps.kernel_path.to_string(),
                kernel_backend: ps.kernel_backend.to_string(),
                select_ms: select_time.as_secs_f64() * 1e3,
            },
            // Baselines report no cost counters; pool size is still known.
            None => SelectorTelemetry {
                selector: self.selector.name().to_string(),
                pool: pool.len(),
                select_ms: select_time.as_secs_f64() * 1e3,
                ..SelectorTelemetry::default()
            },
        };
        if let Some(ps) = phase_stats {
            if ps.provenance_grads > 0 {
                // Paid once at provenance initialization; not part of
                // RoundTelemetry, so a resumed run cannot replay it
                // (a documented counter divergence, DESIGN.md §12).
                tel.add("increm.provenance_grads", ps.provenance_grads as u64);
            }
            if ps.cg_iters_saved > 0 {
                // Live-only, like provenance_grads: the warm-start
                // cache is not persisted, so a resumed run pays a
                // cold solve and cannot replay the savings.
                tel.add("cg.warm_start_iters_saved", ps.cg_iters_saved as u64);
            }
        }

        // DeltaGrad-L's Eq. 4 corrections need the *pre-annotation*
        // labels of exactly the selected samples. An overlay of those few
        // labels over the post-annotation store replaces a full dataset
        // clone — O(b) here plus an n-bit membership set when the view
        // is built, instead of O(n·d) per round, and the only way an
        // out-of-core store could provide an "old dataset" at all.
        let mut prior = LabelOverlay::new();
        for sel in &selections {
            prior.insert(
                sel.index,
                self.data.label(sel.index).clone(),
                self.data.is_clean(sel.index),
            );
        }
        let batch = AnnotationBatch {
            round: self.state.round,
            num_classes: self.data.num_classes(),
            items: selections
                .iter()
                .map(|sel| BatchItem {
                    index: sel.index,
                    suggested: sel.suggested,
                    truth: self.data.ground_truth(sel.index),
                })
                .collect(),
        };
        self.pending = Some(PendingRound {
            selections,
            prior,
            select_time,
            selector_tel,
        });
        RoundStep::Awaiting(batch)
    }

    /// Deliver the outcomes of the outstanding batch and run the rest of
    /// the round: label application, model constructor, evaluation,
    /// telemetry, report, early-termination check and the durability
    /// boundary (checkpoint write + injected-crash check).
    ///
    /// `outcomes[i]` answers `batch.items[i]`; an annotation source that
    /// lost replies (timeouts) passes [`AnnotationOutcome::Ambiguous`]
    /// for the missing slots — exactly the synchronous abstain path.
    ///
    /// # Panics
    /// Panics if no batch is outstanding or `outcomes` has the wrong
    /// length.
    pub fn provide(
        &mut self,
        outcomes: &[AnnotationOutcome],
        ann_stats: AnnotationStats,
        annotate_time: Duration,
    ) -> &RoundReport {
        let pending = self
            .pending
            .take()
            .expect("RoundLoop::provide: no batch outstanding");
        assert_eq!(
            outcomes.len(),
            pending.selections.len(),
            "RoundLoop::provide: outcome count does not match the batch"
        );
        let cfg = self.pipeline.config();
        let tel = &cfg.telemetry;
        let state = &mut self.state;
        let c = self.data.num_classes();

        let mut changed = Vec::new();
        let mut ambiguous = 0usize;
        for (sel, out) in pending.selections.iter().zip(outcomes) {
            state.attempted.insert(sel.index);
            match out {
                AnnotationOutcome::Cleaned(class) => {
                    self.data
                        .clean_label(sel.index, chef_model::SoftLabel::onehot(*class, c));
                    changed.push(sel.index);
                }
                AnnotationOutcome::Ambiguous => ambiguous += 1,
            }
        }
        state.cleaned_total += changed.len();
        let annotation_tel = AnnotationTelemetry {
            requested: ann_stats.requested,
            votes: ann_stats.votes,
            conflicts: ann_stats.conflicts,
            abstains: ann_stats.abstains,
            cleaned: ann_stats.cleaned,
            annotate_ms: annotate_time.as_secs_f64() * 1e3,
        };

        // ---- Model constructor phase. ----
        let update = {
            let _span = tel.span("round.update");
            let old_view = pending.prior.over(&*self.data);
            self.ctor.update(
                self.model,
                &cfg.objective,
                &old_view,
                &*self.data,
                &changed,
                &state.trace,
            )
        };
        let update_time = update.elapsed;
        let train_kernel = self.model.scoring_kernel().name().to_string();
        // The backend is a GEMM-panel property: meaningless (and
        // omitted) on the per-sample fallback path.
        let train_backend = match self.model.scoring_kernel() {
            chef_model::KernelPath::Gemm => self.model.kernel_backend().name().to_string(),
            chef_model::KernelPath::PerSample => String::new(),
        };
        let constructor_tel = match (cfg.constructor, &update.stats) {
            (ConstructorKind::DeltaGradL(dg), Some(stats)) => ConstructorTelemetry {
                kind: "deltagrad-l".to_string(),
                exact_steps: stats.explicit_iters,
                replay_steps: stats.approx_iters,
                correction_grads: stats.correction_grads,
                lbfgs_history: dg.m0,
                epochs: cfg.sgd.epochs,
                kernel_path: train_kernel,
                kernel_backend: train_backend,
                update_ms: update_time.as_secs_f64() * 1e3,
            },
            _ => ConstructorTelemetry {
                kind: "retrain".to_string(),
                exact_steps: update.trace.plan.total_iterations(),
                epochs: cfg.sgd.epochs,
                kernel_path: train_kernel,
                kernel_backend: train_backend,
                update_ms: update_time.as_secs_f64() * 1e3,
                ..ConstructorTelemetry::default()
            },
        };
        state.w_raw = update.w;
        state.trace = update.trace;

        // ---- Evaluation. ----
        let (val_f1, test_f1) = {
            let _span = tel.span("round.eval");
            let (we, _) = select_early_stop(
                self.model,
                &cfg.objective,
                self.val,
                &state.trace.epoch_checkpoints,
                &state.w_raw,
            );
            state.w_eval = we;
            (
                evaluate_f1(self.model, &state.w_eval, self.val).f1,
                evaluate_f1(self.model, &state.w_eval, self.test).f1,
            )
        };
        tel.set_gauge("pipeline.val_f1", val_f1);
        tel.set_gauge("pipeline.test_f1", test_f1);

        let round_tel = RoundTelemetry {
            round: state.round,
            selector: pending.selector_tel,
            annotation: annotation_tel,
            constructor: constructor_tel,
        };
        record_round_counters(tel, &round_tel);
        tel.record_round(round_tel.clone());

        let selector_stats = self.selector.stats();
        state.rounds.push(RoundReport {
            round: state.round,
            selected: pending.selections,
            cleaned: changed.len(),
            ambiguous,
            val_f1,
            test_f1,
            select_time: pending.select_time,
            update_time,
            selector_stats,
            telemetry: round_tel,
        });

        if cfg.target_val_f1.is_some_and(|target| val_f1 >= target) {
            state.early_terminated = true;
        }
        let finished = state.round;
        state.round += 1;

        // ---- Durability boundary. ----
        if let Some(ckcfg) = &cfg.checkpoint {
            if ckcfg.every_rounds > 0 && state.round.is_multiple_of(ckcfg.every_rounds) {
                self.pipeline.write_checkpoint(
                    ckcfg,
                    state,
                    &*self.data,
                    &*self.selector,
                    finished,
                );
            }
        }
        if self.pipeline.crash_requested(finished) {
            self.interrupted = true;
        }
        state.rounds.last().expect("round just pushed")
    }

    /// Finalize the loop into a report. Calling this with a batch still
    /// outstanding (or before [`RoundStep::Done`]) yields a valid partial
    /// report — the state as of the last completed round — which is what
    /// a cancelled serve job returns.
    pub fn finish(self) -> StorePipelineReport {
        let tel = &self.pipeline.config().telemetry;
        // Store-integrity and residency-window counters
        // (additive-optional: in-memory datasets report no io_stats, so
        // existing telemetry exports are byte-identical). Monotonic
        // store-lifetime totals, set once at end-of-run.
        if let Some(io) = self.data.io_stats() {
            tel.add("store.verify_ms", io.verify_ms);
            tel.add("store.blocks_verified", io.blocks_verified);
            tel.add("store.lazy_verify_hits", io.lazy_verify_hits);
            tel.add("store.prefetch_overlap_ms", io.prefetch_overlap_ms);
            tel.add("store.window_entries", io.window_entries);
            tel.add("store.window_releases", io.window_releases);
        }

        StorePipelineReport {
            initial_val_f1: self.state.initial_val_f1,
            initial_test_f1: self.state.initial_test_f1,
            init_time: self.state.init_time,
            rounds: self.state.rounds,
            final_w: self.state.w_eval,
            final_w_raw: self.state.w_raw,
            early_terminated: self.state.early_terminated,
            cleaned_total: self.state.cleaned_total,
            interrupted: self.interrupted,
        }
    }

    /// 0-based index of the next round to run (== completed rounds so
    /// far, including restored ones after a resume).
    pub fn round(&self) -> usize {
        self.state.round
    }

    /// Budget slots consumed so far.
    pub fn spent(&self) -> usize {
        self.state.spent
    }

    /// Samples cleaned (deterministic labels installed) so far.
    pub fn cleaned_total(&self) -> usize {
        self.state.cleaned_total
    }

    /// Whether an injected crash cut the loop short.
    pub fn is_interrupted(&self) -> bool {
        self.interrupted
    }

    /// Whether a batch is out for annotation right now.
    pub fn awaiting(&self) -> bool {
        self.pending.is_some()
    }
}

//! # chef-core
//!
//! **CHEF: CHEap and Fast label cleaning** — a Rust reproduction of the
//! VLDB 2021 paper by Wu, Weimer and Davidson.
//!
//! CHEF iteratively cleans the *probabilistic* labels that weak
//! supervision produces, spending a human-annotation budget where it
//! matters most. The crate implements the paper's three contributions on
//! top of the `chef-*` substrate crates:
//!
//! * [`influence`] — **Infl** (paper Eq. 6): an influence function that
//!   jointly models replacing a probabilistic label with a deterministic
//!   one and up-weighting the cleaned sample, and that therefore both
//!   *ranks* samples for cleaning and *suggests* the cleaned label;
//! * [`increm`] — **Increm-Infl** (Theorem 1, Algorithm 1): perturbation
//!   bounds around influence values frozen at the initialization model
//!   `w⁽⁰⁾` prune uninfluential samples early, so later rounds evaluate
//!   exact influences on a small candidate set only;
//! * [`constructor`] — **DeltaGrad-L** (§4.2): the model constructor
//!   updates parameters incrementally by replaying SGD with the
//!   `chef-train` DeltaGrad engine instead of retraining from scratch;
//! * [`annotation`] — the human-annotation phase (§4.3): panels of
//!   simulated annotators, with Infl's suggestion usable as one more
//!   independent labeler (the paper's Infl (one)/(two)/(three) variants);
//! * [`pipeline`] — the redesigned cleaning loop of Figure 1 (loop 2):
//!   clean `b ≪ B` samples per round, refresh the model, re-select, stop
//!   early when the target quality is reached;
//! * [`metrics`] — F1/accuracy evaluation used by every experiment;
//! * [`selector`] — the `SampleSelector` abstraction that lets the
//!   pipeline swap Infl for the baselines in `chef-baselines`.
//!
//! Every phase reports into a [`Telemetry`] handle (`chef-obs`) threaded
//! through [`PipelineConfig`]; see DESIGN.md §10 for the `telemetry.v1`
//! schema. A disabled handle records nothing and costs one `None` check
//! per call.

#![warn(missing_docs)]

pub mod annotation;
pub mod checkpoint;
pub mod constructor;
pub mod fault;
pub mod increm;
pub mod influence;
pub mod lissa;
pub mod metrics;
pub mod pipeline;
pub mod round;
pub mod selector;

pub use annotation::{
    AnnotationConfig, AnnotationOutcome, AnnotationPhase, AnnotationStats, LabelStrategy,
    SampleDecision,
};
pub use checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointError, LabelPatch, CHECKPOINT_VERSION,
};
pub use chef_model::KernelPath;
pub use chef_obs::{
    AnnotationTelemetry, ConstructorTelemetry, RoundTelemetry, SelectorTelemetry, Telemetry,
    SCHEMA_VERSION,
};
pub use constructor::{ConstructorKind, ConstructorOutcome, ModelConstructor};
pub use fault::FaultPlan;
pub use increm::{IncremInfl, IncremSnapshot, IncremStats};
pub use influence::{
    influence_vector, influence_vector_outcome, rank_infl_top_b, rank_infl_with_vector,
    rank_infl_with_vector_per_sample, InflConfig, InflScore, InflVectorOutcome,
};
pub use lissa::{lissa_influence_vector, lissa_solve, LissaConfig};
pub use metrics::{accuracy, confusion_matrix, evaluate_f1, f1_score, macro_f1, Evaluation};
pub use pipeline::{Pipeline, PipelineConfig, PipelineReport, RoundReport, StorePipelineReport};
pub use round::{AnnotationBatch, BatchItem, RoundLoop, RoundStep, SuspendedLoop};
pub use selector::{
    InflSelector, SampleSelector, Selection, SelectorCheckpoint, SelectorContext, SelectorStats,
};

/// Minimum number of rows before a selector sweep — the blocked scoring
/// walker that Infl candidate scoring and the Increm-Infl bound pass
/// share, and Increm-Infl's Hessian-norm initialization — fans out over
/// the thread pool. Each row costs only O(C) work after the block
/// panels, so the grain sits below chef-model's accumulation gate.
/// The fan-out is additionally gated on `rayon::current_num_threads() >
/// 1`: on a 1-worker pool the split/join overhead is pure loss
/// (BENCH_selector.json showed the parallel bound pass *slower* than
/// serial at n=50k–200k on 1 core). Both sides of every gated sweep are
/// bit-identical (independent rows / full-row dot products), so the
/// gates only change which code runs, never what it computes.
const PAR_GRAIN: usize = 128;

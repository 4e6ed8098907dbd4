//! The multi-tenant job manager: a facade over the pooled cooperative
//! scheduler in [`crate::sched`] (DESIGN.md §17). N tenant jobs
//! multiplex onto M pool workers plus one annotator-service thread —
//! plain `std::thread` + `mpsc`, no async runtime in the offline shim
//! set.
//!
//! A job owns its dataset, model and selector, drives a
//! [`chef_core::RoundLoop`] and *parks* at the annotation boundary —
//! suspended, holding no thread — until the annotator service delivers
//! its replies. Replies fill the round's slots in arrival order and the
//! round completes when every slot is answered or the deadline marker
//! lands (missing slots abstain — the synchronous timeout path). Stale
//! replies (wrong round) and duplicates (slot already filled) are
//! counted and ignored idempotently, which is what makes delivery order
//! irrelevant to the result.
//!
//! Admission is bounded: beyond [`crate::SchedConfig::queue_bound`] live
//! jobs, [`JobManager::try_submit`] answers the recoverable
//! [`ServeError::Busy`] instead of accumulating unbounded state.
//!
//! Jobs are backed by the `checkpoint.v2` store via their
//! [`PipelineConfig::checkpoint`]: a killed job (process death, or the
//! injected `kill_mid_round` fault) is resubmitted with
//! [`JobRequest::resume_from`] and continues bit-identically.

use crate::annotator::{AnnotationRequest, AnnotatorHost, JobId};
use crate::events::{EventKind, JobEvent};
use crate::sched::{host_loop, worker_loop, Sched, SchedConfig, SchedStats};
use chef_core::{LabelPatch, PipelineConfig, SampleSelector, StorePipelineReport, Telemetry};
use chef_model::{Dataset, Model};
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Everything a job needs: a tenant's dataset, model, selector and
/// pipeline configuration, plus the serve-level knobs.
pub struct JobRequest {
    /// Submission name (stable across kill/resume; annotator hosts and
    /// fault scripts key on it).
    pub name: String,
    /// The pipeline configuration, including per-job telemetry handle
    /// and checkpoint directory.
    pub cfg: PipelineConfig,
    /// The model architecture.
    pub model: Box<dyn Model + Send>,
    /// Weakly-labeled training set (pristine when resuming — checkpoint
    /// label patches are replayed onto it).
    pub train: Dataset,
    /// Validation set (drives influence + early stopping).
    pub val: Dataset,
    /// Test set (reporting only).
    pub test: Dataset,
    /// Sample selector.
    pub selector: Box<dyn SampleSelector + Send>,
    /// Per-reply deadline in virtual milliseconds; replies landing later
    /// abstain.
    pub deadline_ms: u64,
    /// Resume from the newest readable checkpoint generation in this
    /// directory instead of starting fresh.
    pub resume_from: Option<PathBuf>,
}

/// Job lifecycle states (DESIGN.md §16.1, §17.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a pool worker (first slice not yet run).
    Queued,
    /// Between rounds: selecting, updating, evaluating.
    Running,
    /// Parked at the annotation boundary.
    AwaitingAnnotation,
    /// Paused at a round boundary; waiting for `resume`.
    Paused,
    /// Finished; report available.
    Completed,
    /// Terminated by `cancel`.
    Cancelled,
    /// Died: resume error, injected kill, host failure. `error` says why.
    Failed,
}

impl JobState {
    /// Wire name (status payloads).
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::AwaitingAnnotation => "awaiting_annotation",
            JobState::Paused => "paused",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job will never change state again.
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed
        )
    }
}

/// A point-in-time snapshot of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Manager-assigned id.
    pub id: JobId,
    /// Submission name.
    pub name: String,
    /// Current state.
    pub state: JobState,
    /// Completed rounds (including restored ones after a resume).
    pub round: usize,
    /// Budget slots consumed.
    pub spent: usize,
    /// Samples cleaned.
    pub cleaned: usize,
    /// Failure detail, when `state == Failed`.
    pub error: Option<String>,
}

/// A completed job's outputs: everything the manager keeps of it once
/// it finishes (with its status and event log). The job's training set
/// is dropped at finish; its final labels survive as patches, a few
/// kilobytes instead of the whole dataset (DESIGN.md §16.2).
/// [`JobManager::wait`] returns a clone, so the manager's copy stays for
/// later `results` requests.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The pipeline report, without the training set:
    /// bit-identical to a synchronous `Pipeline::run` (`final_w`,
    /// `final_w_raw`, every round) when every reply was on time.
    pub report: StorePipelineReport,
    /// The final label and clean flag of every sample the job showed to
    /// annotators, by ascending index: the only rows cleaning can
    /// change. Replaying them onto the pristine training set
    /// ([`LabelPatch::replay`]) rebuilds the job's final data; they are
    /// the label patches a checkpoint of the same state stores.
    pub labels: Vec<LabelPatch>,
    /// The job's `telemetry.v1` export, when the job was given an
    /// enabled handle.
    pub telemetry_json: Option<String>,
}

/// Errors surfaced by manager calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No job with that id.
    UnknownJob(u64),
    /// The job failed; the detail is the job's error.
    JobFailed(String),
    /// The job was cancelled before producing a report.
    JobCancelled,
    /// Admission refused: the daemon already holds `queue_bound` live
    /// jobs. Recoverable — resubmit after one completes.
    Busy,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ServeError::JobFailed(e) => write!(f, "job failed: {e}"),
            ServeError::JobCancelled => write!(f, "job was cancelled"),
            ServeError::Busy => write!(f, "daemon busy: admission queue full"),
        }
    }
}

impl std::error::Error for ServeError {}

pub(crate) struct JobInner {
    pub(crate) state: JobState,
    pub(crate) round: usize,
    pub(crate) spent: usize,
    pub(crate) cleaned: usize,
    pub(crate) error: Option<String>,
    pub(crate) result: Option<JobResult>,
}

pub(crate) struct JobShared {
    pub(crate) name: String,
    pub(crate) inner: Mutex<JobInner>,
    pub(crate) done: Condvar,
    pub(crate) events: Mutex<Vec<JobEvent>>,
}

impl JobShared {
    pub(crate) fn event(&self, kind: EventKind, round: Option<usize>, detail: String) {
        let mut ev = self.events.lock().unwrap();
        let seq = ev.len() as u64;
        ev.push(JobEvent {
            seq,
            kind,
            round,
            detail,
        });
    }

    pub(crate) fn set_state(&self, state: JobState) {
        let mut inner = self.inner.lock().unwrap();
        inner.state = state;
        // Every transition wakes waiters: `wait` only cares about
        // terminal states, but `wait_for` may be watching any of them.
        self.done.notify_all();
    }
}

/// The daemon core: admits jobs into the pooled scheduler, routes
/// annotator traffic, exposes status/results/events, and records
/// `serve.*` counters and `sched.*` gauges on its [`Telemetry`] handle.
pub struct JobManager {
    sched: Arc<Sched>,
    workers: Vec<JoinHandle<()>>,
    /// Kept only so `Drop` can close the host channel after the workers
    /// (who hold the other clones) have exited.
    host_tx: Option<Sender<AnnotationRequest>>,
    host_handle: Option<JoinHandle<()>>,
    telemetry: Telemetry,
}

impl JobManager {
    /// Start a manager whose jobs annotate through `host`, with the
    /// default pool configuration ([`SchedConfig::default`]).
    pub fn new(host: Box<dyn AnnotatorHost>) -> Self {
        Self::with_telemetry(host, Telemetry::enabled())
    }

    /// [`Self::new`] with a caller-provided telemetry handle for the
    /// `serve.*` counters and `sched.*` gauges.
    pub fn with_telemetry(host: Box<dyn AnnotatorHost>, telemetry: Telemetry) -> Self {
        Self::with_config(host, telemetry, SchedConfig::default())
    }

    /// Full-control constructor: pool size and admission bound.
    pub fn with_config(
        host: Box<dyn AnnotatorHost>,
        telemetry: Telemetry,
        cfg: SchedConfig,
    ) -> Self {
        let sched = Arc::new(Sched::new(cfg, telemetry.clone()));
        let (host_tx, host_rx) = channel::<AnnotationRequest>();
        let workers = (0..sched.config().workers)
            .map(|i| {
                let sched = Arc::clone(&sched);
                let host_tx = host_tx.clone();
                std::thread::Builder::new()
                    .name(format!("chef-serve-worker-{i}"))
                    .spawn(move || worker_loop(sched, host_tx))
                    .expect("spawn pool worker thread")
            })
            .collect();
        let host_sched = Arc::clone(&sched);
        let host_handle = std::thread::Builder::new()
            .name("chef-serve-annotators".into())
            .spawn(move || host_loop(host_sched, host, host_rx))
            .expect("spawn annotator service thread");
        Self {
            sched,
            workers,
            host_tx: Some(host_tx),
            host_handle: Some(host_handle),
            telemetry,
        }
    }

    /// The manager-wide telemetry handle (`serve.*` counters, `sched.*`
    /// gauges).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The pool configuration this manager runs with.
    pub fn config(&self) -> &SchedConfig {
        self.sched.config()
    }

    /// Snapshot the scheduler: queue depth, busy workers, parked jobs,
    /// the per-job slice ledger and the completion order.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// Submit a job, panicking if admission is refused — the historical
    /// infallible signature, for callers that size their own workloads.
    /// Prefer [`Self::try_submit`] when the daemon is shared.
    pub fn submit(&self, req: JobRequest) -> JobId {
        self.try_submit(req)
            .expect("admission refused: daemon at queue_bound")
    }

    /// Submit a job. Answers [`ServeError::Busy`] (recoverable: resubmit
    /// later) when `queue_bound` live jobs are already admitted.
    pub fn try_submit(&self, req: JobRequest) -> Result<JobId, ServeError> {
        self.sched.try_submit(req)
    }

    /// Snapshot a job's status.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let shared = self.sched.shared(id)?;
        let inner = shared.inner.lock().unwrap();
        Some(JobStatus {
            id,
            name: shared.name.clone(),
            state: inner.state,
            round: inner.round,
            spent: inner.spent,
            cleaned: inner.cleaned,
            error: inner.error.clone(),
        })
    }

    /// The job's lifecycle-event log so far.
    pub fn events(&self, id: JobId) -> Option<Vec<JobEvent>> {
        let shared = self.sched.shared(id)?;
        let ev = shared.events.lock().unwrap();
        Some(ev.clone())
    }

    /// Ask a job to pause at its next round boundary.
    pub fn pause(&self, id: JobId) -> Result<(), ServeError> {
        self.sched.pause(id)
    }

    /// Wake a paused job.
    pub fn resume_job(&self, id: JobId) -> Result<(), ServeError> {
        self.sched.resume_job(id)
    }

    /// Terminate a job. A job the scheduler holds (queued, parked,
    /// paused) finalizes immediately; a job mid-slice finalizes at its
    /// next boundary.
    pub fn cancel(&self, id: JobId) -> Result<(), ServeError> {
        self.sched.cancel(id)
    }

    /// Block until the job's state satisfies `pred` (terminal states
    /// always also wake the wait, so a predicate that can no longer be
    /// met does not hang: check the returned state). Sleep-free — this
    /// is how tests observe transitions like `Paused`.
    pub fn wait_for(
        &self,
        id: JobId,
        pred: impl Fn(JobState) -> bool,
    ) -> Result<JobState, ServeError> {
        let shared = self.sched.shared(id).ok_or(ServeError::UnknownJob(id.0))?;
        let mut inner = shared.inner.lock().unwrap();
        while !pred(inner.state) && !inner.state.terminal() {
            inner = shared.done.wait(inner).unwrap();
        }
        Ok(inner.state)
    }

    /// Block until the job reaches a terminal state; return its result.
    pub fn wait(&self, id: JobId) -> Result<JobResult, ServeError> {
        let shared = self.sched.shared(id).ok_or(ServeError::UnknownJob(id.0))?;
        let mut inner = shared.inner.lock().unwrap();
        while !inner.state.terminal() {
            inner = shared.done.wait(inner).unwrap();
        }
        match inner.state {
            JobState::Completed => Ok(inner.result.clone().expect("completed job has a result")),
            JobState::Cancelled => Err(ServeError::JobCancelled),
            _ => Err(ServeError::JobFailed(
                inner.error.clone().unwrap_or_else(|| "unknown".into()),
            )),
        }
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        // Cancel everything and let the pool drain: workers exit once
        // shutdown is flagged and the run queue is empty. Joining them
        // drops their host-channel clones; dropping ours then closes the
        // channel and retires the annotator service.
        self.sched.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.host_tx = None;
        if let Some(h) = self.host_handle.take() {
            let _ = h.join();
        }
    }
}

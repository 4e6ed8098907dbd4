//! The pooled cooperative job scheduler (DESIGN.md §17).
//!
//! PR 9's manager spent one OS thread per tenant job; this module
//! multiplexes every job onto a fixed pool of M worker threads. The key
//! enabler is [`chef_core::SuspendedLoop`]: a job is a resumable state
//! machine that *suspends* at its annotation boundary instead of
//! blocking a thread, so the moving parts reduce to
//!
//! * a FIFO **run queue** of job ids — round-robin fairness falls out of
//!   every slice re-entering at the tail, so one huge tenant advances at
//!   most one round per turn while small tenants interleave;
//! * a **parked set** of jobs whose batch is out for annotation — a
//!   parked job occupies no thread; the annotator-service thread
//!   re-enqueues it when its deliveries land (`Sched::deliver_all`);
//! * a **bounded admission** check — `Sched::try_submit` refuses new
//!   tenants beyond `queue_bound` live jobs with the recoverable `busy`
//!   error, so an overloaded daemon degrades by refusing work, not by
//!   accumulating unbounded state;
//! * per-job **time slicing** at round boundaries — one slice runs at
//!   most one round of compute (select → update → evaluate) before the
//!   job parks or yields, which is the granularity the fairness test
//!   audits through the per-job `sched.slices` ledger.
//!
//! Lifecycle events and terminal `serve.*` counters are emitted by the
//! scheduler's finalization path (never by a worker racing one), so a
//! job cancelled while *queued* — a state the thread-per-job design
//! could not express — still produces a complete `serve-events.v1`
//! sequence.
//!
//! Everything here is condvar-driven: no sleeps, no polling (the ci.sh
//! no-sleep guard covers this file).

use crate::annotator::{AnnotationRequest, AnnotatorHost, HostDelivery, JobId, SampleReply};
use crate::events::EventKind;
use crate::job::{JobInner, JobRequest, JobResult, JobShared, JobState, ServeError};
use chef_core::{
    AnnotationConfig, AnnotationOutcome, AnnotationStats, Pipeline, RoundLoop, RoundStep,
    SampleDecision, SampleSelector, SuspendedLoop, Telemetry,
};
use chef_model::{Dataset, Model};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Pool sizing and admission control for a [`crate::JobManager`].
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Worker threads in the pool (at least 1).
    pub workers: usize,
    /// Maximum *live* (admitted, non-terminal) jobs; a submit beyond
    /// this answers the recoverable `busy` error.
    pub queue_bound: usize,
}

impl Default for SchedConfig {
    /// Pool of 4 workers, bound of 1024 live jobs; both overridable via
    /// the `CHEF_SERVE_WORKERS` / `CHEF_SERVE_QUEUE_BOUND` environment
    /// variables (how ci.sh runs the serve suites at pool sizes 1 and 4
    /// without touching test code).
    fn default() -> Self {
        let env_usize = |key: &str, default: usize| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&v| v >= 1)
                .unwrap_or(default)
        };
        Self {
            workers: env_usize("CHEF_SERVE_WORKERS", 4),
            queue_bound: env_usize("CHEF_SERVE_QUEUE_BOUND", 1024),
        }
    }
}

/// A point-in-time snapshot of the scheduler, for tests and the
/// `serve_scale` bench (the same numbers the `sched.*` gauges export).
#[derive(Debug, Clone)]
pub struct SchedStats {
    /// Jobs in the run queue right now.
    pub queue_depth: usize,
    /// Workers currently running a slice.
    pub workers_busy: usize,
    /// Jobs parked at the annotation boundary.
    pub jobs_parked: usize,
    /// Admitted, non-terminal jobs.
    pub live_jobs: usize,
    /// Per-job slice counts (the fairness ledger), in submission order.
    pub slices: Vec<(JobId, u64)>,
    /// Ids of completed jobs, in completion order.
    pub completion_order: Vec<JobId>,
}

/// Control flags a verb can raise on a job from outside its slice; the
/// slice honors them at its next boundary (the same deferred semantics
/// the thread-per-job inbox had).
struct JobCtl {
    pause: AtomicBool,
    cancel: AtomicBool,
}

/// How far a running slice got before handing its thread back.
enum SliceOutcome {
    /// Batch out for annotation (or still incomplete): park until
    /// deliveries land.
    Parked,
    /// Paused at a round boundary; wait for the resume verb.
    Paused,
    /// Cancel honored. `round` is the outstanding batch's round when the
    /// cancel landed mid-collect, `None` at a boundary.
    Cancelled { round: Option<usize> },
    /// Loop finished; the report is ready.
    Finished {
        result: Box<JobResult>,
        rounds: usize,
        spent: usize,
        cleaned_total: usize,
        interrupted: bool,
    },
    /// The job died (resume error, injected kill).
    Failed {
        msg: String,
        round: Option<usize>,
        killed: bool,
    },
}

/// The collect phase of one round, suspended across slices: slots fill
/// from the job's inbox as deliveries arrive, in arrival order.
struct CollectState {
    batch: chef_core::AnnotationBatch,
    /// training-store index → slot position.
    pos: HashMap<usize, usize>,
    slots: Vec<Option<SampleReply>>,
    filled: usize,
    /// Whether the round's deadline marker landed (missing slots
    /// abstain).
    expired: bool,
    annotate_start: Instant,
}

/// One job as an owned, movable state machine: everything a worker
/// needs to run a slice, including the suspended [`chef_core::RoundLoop`]
/// between slices. Lives inside the scheduler entry while the job is
/// queued/parked/paused and travels to a worker thread while running.
struct JobTask {
    id: JobId,
    name: String,
    pipeline: Pipeline,
    model: Box<dyn Model + Send>,
    /// The job's training set, cleaned in place. The job's result keeps
    /// only label patches of it, so it goes when the task is dropped.
    train: Dataset,
    val: Dataset,
    test: Dataset,
    selector: Box<dyn SampleSelector + Send>,
    deadline_ms: u64,
    resume_from: Option<PathBuf>,
    annotation: AnnotationConfig,
    job_tel: Telemetry,
    faults: chef_core::FaultPlan,
    /// First slice emits `job_start` and builds/resumes the loop.
    started: bool,
    suspended: Option<SuspendedLoop>,
    /// Deliveries moved in from the scheduler mailbox at dispatch.
    inbox: VecDeque<HostDelivery>,
    collect: Option<CollectState>,
}

/// Scheduler-internal lifecycle of one entry (orthogonal to the
/// user-visible [`JobState`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// In the run queue (or about to be).
    Queued,
    /// A worker is running a slice.
    Running,
    /// Waiting for annotator deliveries; no thread held.
    Parked,
    /// Paused at a round boundary; waiting for the resume verb.
    Paused,
    /// Done; `task` is gone.
    Terminal,
}

struct Entry {
    shared: Arc<JobShared>,
    /// `Some` whenever no worker holds the task.
    task: Option<JobTask>,
    run_state: RunState,
    ctl: Arc<JobCtl>,
    /// Deliveries accumulated while the job was not holding a worker.
    mailbox: VecDeque<HostDelivery>,
    slices: u64,
}

struct SchedState {
    run_queue: VecDeque<JobId>,
    entries: HashMap<u64, Entry>,
    /// Submission order, for stable iteration in snapshots.
    order: Vec<JobId>,
    completion_order: Vec<JobId>,
    live: usize,
    workers_busy: usize,
    parked: usize,
    shutdown: bool,
    next_id: u64,
}

/// The scheduler core shared by the manager facade, the worker pool and
/// the annotator-service thread. Lock order: `state` before any
/// `JobShared::inner`, never the reverse; no blocking call runs under
/// the `state` lock.
pub(crate) struct Sched {
    state: Mutex<SchedState>,
    /// Wakes workers when the run queue grows or shutdown begins.
    work: Condvar,
    cfg: SchedConfig,
    telemetry: Telemetry,
}

impl Sched {
    pub(crate) fn new(cfg: SchedConfig, telemetry: Telemetry) -> Self {
        Self {
            state: Mutex::new(SchedState {
                run_queue: VecDeque::new(),
                entries: HashMap::new(),
                order: Vec::new(),
                completion_order: Vec::new(),
                live: 0,
                workers_busy: 0,
                parked: 0,
                shutdown: false,
                next_id: 1,
            }),
            work: Condvar::new(),
            cfg,
            telemetry,
        }
    }

    pub(crate) fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    fn gauges(&self, st: &SchedState) {
        self.telemetry
            .set_gauge("sched.queue.depth", st.run_queue.len() as f64);
        self.telemetry
            .set_gauge("sched.workers.busy", st.workers_busy as f64);
        self.telemetry
            .set_gauge("sched.jobs.parked", st.parked as f64);
    }

    /// Admit a job or refuse it with [`ServeError::Busy`] when
    /// `queue_bound` live jobs are already admitted.
    pub(crate) fn try_submit(&self, req: JobRequest) -> Result<JobId, ServeError> {
        let mut st = self.state.lock().unwrap();
        if st.live >= self.cfg.queue_bound {
            self.telemetry.add("sched.admission_rejects", 1);
            return Err(ServeError::Busy);
        }
        let id = JobId(st.next_id);
        st.next_id += 1;
        let shared = Arc::new(JobShared {
            name: req.name.clone(),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                round: 0,
                spent: 0,
                cleaned: 0,
                error: None,
                result: None,
            }),
            done: Condvar::new(),
            events: Mutex::new(Vec::new()),
        });
        let task = JobTask::new(id, req);
        st.entries.insert(
            id.0,
            Entry {
                shared,
                task: Some(task),
                run_state: RunState::Queued,
                ctl: Arc::new(JobCtl {
                    pause: AtomicBool::new(false),
                    cancel: AtomicBool::new(false),
                }),
                mailbox: VecDeque::new(),
                slices: 0,
            },
        );
        st.order.push(id);
        st.live += 1;
        st.run_queue.push_back(id);
        self.telemetry.add("serve.jobs_submitted", 1);
        self.gauges(&st);
        self.work.notify_one();
        Ok(id)
    }

    pub(crate) fn shared(&self, id: JobId) -> Option<Arc<JobShared>> {
        self.state
            .lock()
            .unwrap()
            .entries
            .get(&id.0)
            .map(|e| Arc::clone(&e.shared))
    }

    /// Raise the pause flag; the job honors it at its next round
    /// boundary (a terminal job ignores it — same no-op the dead inbox
    /// gave the old design).
    pub(crate) fn pause(&self, id: JobId) -> Result<(), ServeError> {
        let st = self.state.lock().unwrap();
        let entry = st.entries.get(&id.0).ok_or(ServeError::UnknownJob(id.0))?;
        if entry.run_state != RunState::Terminal {
            entry.ctl.pause.store(true, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Wake a paused job (re-enqueue), or clear a not-yet-honored pause
    /// flag.
    pub(crate) fn resume_job(&self, id: JobId) -> Result<(), ServeError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let entry = st
            .entries
            .get_mut(&id.0)
            .ok_or(ServeError::UnknownJob(id.0))?;
        entry.ctl.pause.store(false, Ordering::SeqCst);
        if entry.run_state == RunState::Paused {
            let round = entry
                .task
                .as_ref()
                .and_then(|t| t.suspended.as_ref().map(SuspendedLoop::round));
            let shared = Arc::clone(&entry.shared);
            shared.event(EventKind::Resumed, round, String::new());
            entry.run_state = RunState::Queued;
            st.run_queue.push_back(id);
            shared.set_state(JobState::Running);
            self.gauges(st);
            self.work.notify_one();
        }
        Ok(())
    }

    /// Cancel a job. Queued/parked/paused jobs (the scheduler holds
    /// their task) finalize *immediately* — this is the satellite fix: a
    /// job cancelled while parked in the run queue gets its complete
    /// event sequence from the scheduler, not from a worker it never
    /// reached. Running jobs get the flag and finalize at their next
    /// boundary.
    pub(crate) fn cancel(&self, id: JobId) -> Result<(), ServeError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let entry = st
            .entries
            .get_mut(&id.0)
            .ok_or(ServeError::UnknownJob(id.0))?;
        match entry.run_state {
            RunState::Terminal => {}
            RunState::Running => entry.ctl.cancel.store(true, Ordering::SeqCst),
            RunState::Queued | RunState::Parked | RunState::Paused => {
                let round = entry
                    .task
                    .as_ref()
                    .and_then(|t| t.collect.as_ref().map(|c| c.batch.round));
                Self::finalize_cancel_entry(&self.telemetry, entry, round, &mut st.parked);
                st.live -= 1;
                self.gauges(st);
            }
        }
        Ok(())
    }

    /// Append a host's delivery sequence to the job's mailbox in one
    /// critical section (atomicity keeps the wake count — and with it
    /// the per-job slice ledger — deterministic: a woken job always sees
    /// the full sequence, deadline marker included), re-enqueueing the
    /// job if it was parked. Deliveries to terminal or unknown jobs
    /// evaporate, exactly as the old dropped-inbox path did.
    pub(crate) fn deliver_all(&self, job: JobId, deliveries: Vec<HostDelivery>) {
        if deliveries.is_empty() {
            return;
        }
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let Some(entry) = st.entries.get_mut(&job.0) else {
            return;
        };
        if entry.run_state == RunState::Terminal {
            return;
        }
        entry.mailbox.extend(deliveries);
        if entry.run_state == RunState::Parked {
            entry.run_state = RunState::Queued;
            st.parked -= 1;
            st.run_queue.push_back(job);
            self.telemetry.add("sched.requeues", 1);
            self.gauges(st);
            self.work.notify_one();
        }
    }

    /// Snapshot the scheduler (gauge values, fairness ledger,
    /// completion order).
    pub(crate) fn stats(&self) -> SchedStats {
        let st = self.state.lock().unwrap();
        SchedStats {
            queue_depth: st.run_queue.len(),
            workers_busy: st.workers_busy,
            jobs_parked: st.parked,
            live_jobs: st.live,
            slices: st
                .order
                .iter()
                .map(|id| (*id, st.entries.get(&id.0).map_or(0, |e| e.slices)))
                .collect(),
            completion_order: st.completion_order.clone(),
        }
    }

    /// Begin shutdown: cancel every job the scheduler holds, flag the
    /// running ones, and wake all workers so they can drain and exit.
    pub(crate) fn begin_shutdown(&self) {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        st.shutdown = true;
        for id in st.order.clone() {
            let Some(entry) = st.entries.get_mut(&id.0) else {
                continue;
            };
            match entry.run_state {
                RunState::Terminal => {}
                RunState::Running => entry.ctl.cancel.store(true, Ordering::SeqCst),
                _ => {
                    let round = entry
                        .task
                        .as_ref()
                        .and_then(|t| t.collect.as_ref().map(|c| c.batch.round));
                    Self::finalize_cancel_entry(&self.telemetry, entry, round, &mut st.parked);
                    st.live -= 1;
                }
            }
        }
        self.gauges(st);
        self.work.notify_all();
    }

    /// Terminal transition for a cancelled job: event (with `job_start`
    /// first if the job never ran), counter, then state — counters
    /// always land before the state flip because `wait` returns the
    /// moment the state is terminal.
    fn finalize_cancel_entry(
        telemetry: &Telemetry,
        entry: &mut Entry,
        round: Option<usize>,
        parked: &mut usize,
    ) {
        if entry.run_state == RunState::Parked {
            *parked -= 1;
        }
        let never_started = entry.task.as_ref().is_some_and(|t| !t.started);
        if never_started {
            entry.shared.event(EventKind::JobStart, None, String::new());
        }
        entry.task = None;
        entry.run_state = RunState::Terminal;
        entry
            .shared
            .event(EventKind::Cancelled, round, String::new());
        telemetry.add("serve.jobs_cancelled", 1);
        entry.shared.set_state(JobState::Cancelled);
    }

    /// Apply a finished slice's outcome under the scheduler lock. All
    /// terminal events/counters/state flips happen here — the
    /// "scheduler finalizes, workers compute" split of DESIGN.md §17.
    fn apply_outcome(&self, id: JobId, task: JobTask, outcome: SliceOutcome) {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        st.workers_busy -= 1;
        self.telemetry.add("sched.slices", 1);
        let Some(entry) = st.entries.get_mut(&id.0) else {
            self.gauges(st);
            return;
        };
        entry.slices += 1;
        let cancelled = entry.ctl.cancel.load(Ordering::SeqCst);
        match outcome {
            SliceOutcome::Parked | SliceOutcome::Paused if cancelled => {
                let round = task.collect.as_ref().map(|c| c.batch.round);
                entry.task = Some(task);
                Self::finalize_cancel_entry(&self.telemetry, entry, round, &mut st.parked);
                st.live -= 1;
            }
            SliceOutcome::Parked => {
                entry.task = Some(task);
                if entry.mailbox.is_empty() {
                    entry.run_state = RunState::Parked;
                    st.parked += 1;
                } else {
                    // Deliveries landed while the slice was still on the
                    // worker: skip the parked state entirely.
                    entry.run_state = RunState::Queued;
                    st.run_queue.push_back(id);
                    self.telemetry.add("sched.requeues", 1);
                    self.work.notify_one();
                }
            }
            SliceOutcome::Paused => {
                entry.task = Some(task);
                if entry.ctl.pause.load(Ordering::SeqCst) {
                    entry.ctl.pause.store(false, Ordering::SeqCst);
                    entry.run_state = RunState::Paused;
                    entry.shared.set_state(JobState::Paused);
                } else {
                    // A resume verb landed between the slice honoring
                    // the pause and this application: wake immediately,
                    // with the same paused→resumed event sequence the
                    // blocking design produced.
                    let round = entry
                        .task
                        .as_ref()
                        .and_then(|t| t.suspended.as_ref().map(SuspendedLoop::round));
                    entry.shared.event(EventKind::Resumed, round, String::new());
                    entry.run_state = RunState::Queued;
                    st.run_queue.push_back(id);
                    entry.shared.set_state(JobState::Running);
                    self.work.notify_one();
                }
            }
            SliceOutcome::Cancelled { round } => {
                entry.task = Some(task);
                Self::finalize_cancel_entry(&self.telemetry, entry, round, &mut st.parked);
                st.live -= 1;
            }
            SliceOutcome::Finished {
                result,
                rounds,
                spent,
                cleaned_total,
                interrupted,
            } => {
                drop(task);
                entry.run_state = RunState::Terminal;
                {
                    let mut inner = entry.shared.inner.lock().unwrap();
                    inner.round = rounds;
                    inner.spent = spent;
                    inner.cleaned = cleaned_total;
                    inner.result = Some(*result);
                }
                entry.shared.event(
                    EventKind::JobComplete,
                    None,
                    format!(
                        "rounds={rounds} cleaned_total={cleaned_total} interrupted={interrupted}"
                    ),
                );
                self.telemetry.add("serve.jobs_completed", 1);
                entry.shared.set_state(JobState::Completed);
                st.completion_order.push(id);
                st.live -= 1;
            }
            SliceOutcome::Failed { msg, round, killed } => {
                drop(task);
                entry.run_state = RunState::Terminal;
                entry.shared.event(EventKind::Error, round, msg.clone());
                entry.shared.inner.lock().unwrap().error = Some(msg);
                self.telemetry.add(
                    if killed {
                        "serve.jobs_killed"
                    } else {
                        "serve.jobs_failed"
                    },
                    1,
                );
                entry.shared.set_state(JobState::Failed);
                st.live -= 1;
            }
        }
        self.gauges(st);
    }
}

/// The worker-pool thread body: pop a job, move its mailbox in, run one
/// slice unlocked, apply the outcome. Exits when shutdown is flagged and
/// the run queue has drained.
pub(crate) fn worker_loop(sched: Arc<Sched>, host_tx: Sender<AnnotationRequest>) {
    loop {
        let (id, mut task, ctl, shared) = {
            let mut guard = sched.state.lock().unwrap();
            loop {
                let st = &mut *guard;
                if let Some(id) = st.run_queue.pop_front() {
                    let Some(entry) = st.entries.get_mut(&id.0) else {
                        continue;
                    };
                    if entry.run_state != RunState::Queued {
                        // Finalized (cancel/shutdown) while queued.
                        continue;
                    }
                    if entry.ctl.cancel.load(Ordering::SeqCst) {
                        let round = entry
                            .task
                            .as_ref()
                            .and_then(|t| t.collect.as_ref().map(|c| c.batch.round));
                        Sched::finalize_cancel_entry(
                            &sched.telemetry,
                            entry,
                            round,
                            &mut st.parked,
                        );
                        st.live -= 1;
                        sched.gauges(st);
                        continue;
                    }
                    let Some(mut task) = entry.task.take() else {
                        continue;
                    };
                    // Move accumulated deliveries into the task so the
                    // slice sees everything that arrived while it was
                    // off-thread.
                    task.inbox.extend(entry.mailbox.drain(..));
                    entry.run_state = RunState::Running;
                    let ctl = Arc::clone(&entry.ctl);
                    let shared = Arc::clone(&entry.shared);
                    st.workers_busy += 1;
                    sched.gauges(st);
                    break (id, task, ctl, shared);
                }
                if st.shutdown {
                    return;
                }
                guard = sched.work.wait(guard).unwrap();
            }
        };
        let outcome = task.slice(&ctl, &shared, &sched.telemetry, &host_tx);
        sched.apply_outcome(id, task, outcome);
    }
}

/// The annotator-service thread body: one host, serialized, feeding
/// delivery sequences back into the scheduler (which re-enqueues parked
/// jobs). Exits when every request sender is gone.
pub(crate) fn host_loop(
    sched: Arc<Sched>,
    mut host: Box<dyn AnnotatorHost>,
    host_rx: Receiver<AnnotationRequest>,
) {
    while let Ok(req) = host_rx.recv() {
        let deliveries = host.annotate(&req);
        sched.deliver_all(req.job, deliveries);
    }
}

impl JobTask {
    fn new(id: JobId, req: JobRequest) -> Self {
        let JobRequest {
            name,
            cfg,
            model,
            train,
            val,
            test,
            selector,
            deadline_ms,
            resume_from,
        } = req;
        let annotation = cfg.annotation;
        let job_tel = cfg.telemetry.clone();
        let faults = cfg.faults.clone();
        Self {
            id,
            name,
            pipeline: Pipeline::new(cfg),
            model,
            train,
            val,
            test,
            selector,
            deadline_ms,
            resume_from,
            annotation,
            job_tel,
            faults,
            started: false,
            suspended: None,
            inbox: VecDeque::new(),
            collect: None,
        }
    }

    /// Run one scheduling slice: at most one round of compute between
    /// suspension points. Never blocks — every wait is expressed by
    /// returning [`SliceOutcome::Parked`] / [`SliceOutcome::Paused`] and
    /// giving the thread back.
    fn slice(
        &mut self,
        ctl: &JobCtl,
        shared: &JobShared,
        serve_tel: &Telemetry,
        host_tx: &Sender<AnnotationRequest>,
    ) -> SliceOutcome {
        // ---- Build, resume, or reattach the loop. ----
        let first = !self.started;
        if first {
            self.started = true;
            shared.event(EventKind::JobStart, None, String::new());
            shared.set_state(JobState::Running);
        }
        let train = &mut self.train;
        let mut rl = match self.suspended.take() {
            Some(s) => RoundLoop::from_suspended(
                &self.pipeline,
                &*self.model,
                train,
                &self.val,
                &self.test,
                &mut *self.selector,
                s,
            ),
            None => match &self.resume_from {
                None => self.pipeline.round_loop(
                    &*self.model,
                    train,
                    &self.val,
                    &self.test,
                    &mut *self.selector,
                ),
                Some(dir) => {
                    match self.pipeline.resume_round_loop_latest(
                        &*self.model,
                        train,
                        &self.val,
                        &self.test,
                        &mut *self.selector,
                        dir,
                    ) {
                        Ok(rl) => rl,
                        Err(e) => {
                            return SliceOutcome::Failed {
                                msg: format!("resume failed: {e}"),
                                round: None,
                                killed: false,
                            }
                        }
                    }
                }
            },
        };

        // ---- Mid-round: continue filling the outstanding batch. ----
        if let Some(mut collect) = self.collect.take() {
            {
                let _span = self.job_tel.span("round.annotate");
                collect.drain(&mut self.inbox, serve_tel);
            }
            if !collect.complete() {
                self.collect = Some(collect);
                self.suspended = Some(rl.suspend());
                return SliceOutcome::Parked;
            }
            shared.set_state(JobState::Running);
            let (outcomes, stats) = collect.outcomes();
            let report = rl.provide(&outcomes, stats, collect.annotate_start.elapsed());
            shared.event(
                EventKind::RoundComplete,
                Some(report.round),
                format!("cleaned={} ambiguous={}", report.cleaned, report.ambiguous),
            );
            serve_tel.add("serve.rounds_completed", 1);
            if rl.is_interrupted() {
                return finished(rl, &self.job_tel);
            }
        }

        // ---- Round boundary: status, strays, control flags. ----
        {
            let mut inner = shared.inner.lock().unwrap();
            inner.round = rl.round();
            inner.spent = rl.spent();
            inner.cleaned = rl.cleaned_total();
        }
        for d in self.inbox.drain(..) {
            // Outside any collect window: by construction stale.
            if let HostDelivery::Reply(_) = d {
                serve_tel.add("serve.replies_late", 1);
            }
        }
        if ctl.cancel.load(Ordering::SeqCst) {
            return SliceOutcome::Cancelled { round: None };
        }
        if ctl.pause.load(Ordering::SeqCst) {
            shared.event(EventKind::Paused, Some(rl.round()), String::new());
            self.suspended = Some(rl.suspend());
            return SliceOutcome::Paused;
        }

        // ---- Select the next batch and park at the boundary. ----
        let batch = match rl.next_batch() {
            RoundStep::Done => return finished(rl, &self.job_tel),
            RoundStep::Awaiting(batch) => batch,
        };
        shared.event(
            EventKind::RoundStart,
            Some(batch.round),
            format!("selected={}", batch.items.len()),
        );
        shared.event(
            EventKind::AwaitingAnnotation,
            Some(batch.round),
            format!("deadline_ms={}", self.deadline_ms),
        );
        shared.set_state(JobState::AwaitingAnnotation);
        serve_tel.add("serve.batches_emitted", 1);
        let _ = host_tx.send(AnnotationRequest {
            job: self.id,
            name: self.name.clone(),
            annotation: self.annotation,
            deadline_ms: self.deadline_ms,
            batch: batch.clone(),
        });

        if self.faults.kill_requested(batch.round) {
            // Simulated kill -9 at the await point: the batch is out, no
            // outcome of this round was applied, and whatever checkpoint
            // generation exists on disk is the recovery point. The
            // host's replies will land on a terminal entry and
            // evaporate.
            return SliceOutcome::Failed {
                msg: format!("killed mid-round {}", batch.round),
                round: Some(batch.round),
                killed: true,
            };
        }

        self.collect = Some(CollectState::new(batch));
        self.suspended = Some(rl.suspend());
        SliceOutcome::Parked
    }
}

/// Finalize a finished loop into the job's result (also the
/// partial-report path after an injected interrupt): the report the loop
/// returns, the final labels of the rows it showed to annotators, and
/// the job's telemetry export. The training set stays behind in the
/// task, which the scheduler drops on [`SliceOutcome::Finished`], so a
/// finished job keeps only its results.
fn finished(rl: RoundLoop<'_>, job_tel: &Telemetry) -> SliceOutcome {
    let rounds = rl.round();
    let labels = rl.label_patches();
    let report = rl.finish();
    SliceOutcome::Finished {
        rounds,
        spent: report.rounds.iter().map(|r| r.selected.len()).sum(),
        cleaned_total: report.cleaned_total,
        interrupted: report.interrupted,
        result: Box::new(JobResult {
            telemetry_json: job_tel.export_json("serve-job"),
            report,
            labels,
        }),
    }
}

impl CollectState {
    fn new(batch: chef_core::AnnotationBatch) -> Self {
        let pos: HashMap<usize, usize> = batch
            .items
            .iter()
            .enumerate()
            .map(|(slot, item)| (item.index, slot))
            .collect();
        let slots = vec![None; batch.items.len()];
        Self {
            batch,
            pos,
            slots,
            filled: 0,
            expired: false,
            annotate_start: Instant::now(),
        }
    }

    fn complete(&self) -> bool {
        self.expired || self.filled == self.slots.len()
    }

    /// Fill slots from deliveries in arrival order, stopping the moment
    /// the batch completes (either every slot answered or the round's
    /// deadline marker) — leftovers stay queued and surface as stray
    /// `serve.replies_late` at the next round boundary, exactly the
    /// thread-per-job accounting the counter-ledger tests pin.
    fn drain(&mut self, inbox: &mut VecDeque<HostDelivery>, serve_tel: &Telemetry) {
        while !self.complete() {
            let Some(d) = inbox.pop_front() else {
                return;
            };
            match d {
                HostDelivery::Reply(r) => {
                    if r.round != self.batch.round {
                        serve_tel.add("serve.replies_late", 1);
                        continue;
                    }
                    let Some(&slot) = self.pos.get(&r.index) else {
                        serve_tel.add("serve.replies_late", 1);
                        continue;
                    };
                    if self.slots[slot].is_some() {
                        serve_tel.add("serve.replies_duplicate", 1);
                        continue;
                    }
                    self.slots[slot] = Some(r);
                    self.filled += 1;
                    serve_tel.add("serve.replies_received", 1);
                }
                HostDelivery::Deadline { round, .. } => {
                    if round == self.batch.round {
                        serve_tel.add("serve.deadline_expirations", 1);
                        self.expired = true;
                    }
                }
            }
        }
    }

    /// Outcomes in batch order; unanswered slots abstain (the
    /// synchronous timeout path).
    fn outcomes(&self) -> (Vec<AnnotationOutcome>, AnnotationStats) {
        let mut stats = AnnotationStats {
            requested: self.slots.len(),
            ..AnnotationStats::default()
        };
        let outcomes = self
            .slots
            .iter()
            .map(|s| match s {
                Some(r) => {
                    stats.record(&SampleDecision {
                        votes: r.votes,
                        conflict: r.conflict,
                        outcome: r.outcome,
                    });
                    r.outcome
                }
                None => {
                    stats.record_dropped();
                    AnnotationOutcome::Ambiguous
                }
            })
            .collect();
        (outcomes, stats)
    }
}

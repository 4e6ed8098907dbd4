//! The served workload: an open loop of cleaning jobs into a
//! `JobManager` with two pool workers.
//!
//! One generator thread builds each job's request ahead of time and
//! submits it with `try_submit` when it is due, at a fixed rate; a second
//! thread `wait`s for the jobs in submission order. Latency counts from
//! the time a job was due, so a stall in the daemon is charged to every
//! job it delayed. The loop runs [`LOOPS`] times on identical jobs, and
//! each job's latency is the lowest of its runs: a burst of interference
//! from other processes rarely hits them all. Annotation goes through the
//! deterministic `SimAnnotator` (jittered, with duplicate replies but no
//! drops), so every run of a job must end with the same bits, and every
//! served job must equal a synchronous `Pipeline::run` of its spec.

use crate::pipeline::{annotation_layers, model_layers};
use crate::stats::{lag_ms, latency_ms, median, percentile, scheduled_at};
use crate::trace::{self, Op, Phase, TracedModel};
use crate::{Opts, Outcome};
use chef_core::{Pipeline, Telemetry};
use chef_serve::{
    job_request_from_spec, AnnotationRequest, AnnotatorHost, HostDelivery, JobManager, JobRequest,
    SchedConfig, SimAnnotator, SimAnnotatorConfig,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const QUEUE_BOUND: usize = 64;
/// Jobs per second: about half of what two workers drain in a burst.
const RATE: f64 = 20.0;
/// Jobs a loop submits before it may stop: p90 needs 100 samples.
const MIN_JOBS: usize = 100;
/// Cold starts of the daemon measured for `setup_s` / `first_batch_s`.
const COLD_STARTS: usize = 25;
/// Identical open loops per run; a job's latency is its lowest.
const LOOPS: usize = 3;
/// Every this-many-th job is replayed synchronously and compared.
const SYNC_EVERY: usize = 40;
/// A run whose generator sent 10% of jobs this late is invalid.
const MAX_LAG_P90_MS: f64 = 50.0;

fn job_spec(name: &str, seed: u64, smoke: bool) -> String {
    let (scale, budget) = if smoke { (400, 10) } else { (40, 20) };
    format!(
        r#"{{"name": "{name}", "dataset": "MIMIC", "scale": {scale}, "seed": {seed}, "budget": {budget}, "round_size": 5}}"#
    )
}

fn job_seed(run_seed: u64, i: usize) -> u64 {
    run_seed * 1_000_000 + i as u64
}

fn request(name: &str, seed: u64, smoke: bool, traced: bool) -> JobRequest {
    let mut req = job_request_from_spec(&job_spec(name, seed, smoke)).expect("job specs are valid");
    if traced {
        req.model = Box::new(TracedModel::new(req.model));
    }
    req
}

/// The simulated annotators, recording when each job's first batch
/// reaches them.
struct FirstBatchHost {
    inner: SimAnnotator,
    first: Arc<Mutex<HashMap<u64, Instant>>>,
}

impl AnnotatorHost for FirstBatchHost {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn annotate(&mut self, req: &AnnotationRequest) -> Vec<HostDelivery> {
        if req.batch.round == 0 {
            self.first
                .lock()
                .expect("first-batch map lock poisoned")
                .insert(req.job.0, Instant::now());
        }
        self.inner.annotate(req)
    }
}

fn manager(seed: u64) -> (JobManager, Arc<Mutex<HashMap<u64, Instant>>>) {
    let first = Arc::new(Mutex::new(HashMap::new()));
    let host = FirstBatchHost {
        inner: SimAnnotator::new(SimAnnotatorConfig {
            seed,
            latency_jitter_ms: 50,
            duplicate_prob: 0.05,
            ..SimAnnotatorConfig::default()
        }),
        first: Arc::clone(&first),
    };
    let mgr = JobManager::with_config(
        Box::new(host),
        Telemetry::enabled(),
        SchedConfig {
            workers: WORKERS,
            queue_bound: QUEUE_BOUND,
        },
    );
    (mgr, first)
}

/// One completed job of an open loop.
struct Done {
    latency_ms: f64,
    f1: f64,
    final_bits: Vec<u64>,
}

/// What one open loop measured.
#[derive(Default)]
struct Loop {
    /// Completed jobs by index.
    jobs: BTreeMap<usize, Done>,
    lag_ms: Vec<f64>,
    annotation: Vec<chef_core::AnnotationTelemetry>,
    submitted: u64,
    failed: u64,
    queue_depth_max: usize,
    workers_busy: Vec<f64>,
    /// The manager's `serve.*` and `sched.*` counters.
    telemetry: Telemetry,
    /// Seconds from the first due time to the last completion.
    span_s: f64,
}

fn open_loop(opts: &Opts, seconds: f64, traced: bool) -> Loop {
    let rate = if opts.smoke { 2.5 * RATE } else { RATE };
    let (mgr, _) = manager(opts.seed);
    let mut out = Loop::default();
    let (tx, rx) = channel::<(usize, chef_serve::JobId, Duration)>();
    let start = Instant::now();
    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let mut w = Loop::default();
            let mut last = Duration::ZERO;
            for (i, id, due) in rx {
                match mgr.wait(id) {
                    Ok(result) => {
                        let done = start.elapsed();
                        last = done;
                        let report = &result.report;
                        w.annotation
                            .extend(report.rounds.iter().map(|r| r.telemetry.annotation.clone()));
                        w.jobs.insert(
                            i,
                            Done {
                                latency_ms: latency_ms(due, done),
                                f1: report.final_test_f1(),
                                final_bits: report.final_w.iter().map(|v| v.to_bits()).collect(),
                            },
                        );
                    }
                    Err(_) => w.failed += 1,
                }
            }
            w.span_s = last.as_secs_f64();
            w
        });

        for i in 0.. {
            let due = scheduled_at(i, rate);
            if due.as_secs_f64() >= seconds && i >= MIN_JOBS {
                break;
            }
            let req = request(
                &format!("job-{i}"),
                job_seed(opts.seed, i),
                opts.smoke,
                traced,
            );
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            out.lag_ms.push(lag_ms(due, start.elapsed()));
            out.submitted += 1;
            match mgr.try_submit(req) {
                Ok(id) => tx
                    .send((i, id, due))
                    .expect("the waiter outlives the generator"),
                Err(_) => out.failed += 1,
            }
            let st = mgr.sched_stats();
            out.queue_depth_max = out.queue_depth_max.max(st.queue_depth);
            out.workers_busy.push(st.workers_busy as f64);
        }
        drop(tx);
        let w = waiter.join().expect("waiter thread panicked");
        out.jobs = w.jobs;
        out.annotation = w.annotation;
        out.failed += w.failed;
        out.span_s = w.span_s;
    });
    out.telemetry = mgr.telemetry().clone();
    out
}

/// Daemon cold starts: start a manager and build the first job's inputs
/// (setup), then submit it and wait for its first batch to reach the
/// annotators (first batch).
fn cold_starts(opts: &Opts) -> (Vec<f64>, Vec<f64>) {
    let (mut setup, mut first_batch) = (Vec::new(), Vec::new());
    for p in 0..COLD_STARTS {
        let t0 = Instant::now();
        let (mgr, first) = manager(opts.seed);
        let req = request(
            &format!("cold-{p}"),
            job_seed(opts.seed, 900_000 + p),
            opts.smoke,
            false,
        );
        setup.push(t0.elapsed().as_secs_f64());
        let id = mgr.try_submit(req).expect("an idle daemon admits a job");
        mgr.wait(id).expect("the cold-start job completes");
        let at = first.lock().expect("first-batch map lock poisoned")[&id.0];
        first_batch.push((at - t0).as_secs_f64());
    }
    (setup, first_batch)
}

/// Replay every [`SYNC_EVERY`]-th job synchronously; count mismatches.
fn sync_mismatches(opts: &Opts, lp: &Loop) -> u64 {
    let mut bad = 0;
    for (&i, job) in lp.jobs.iter().filter(|(i, _)| *i % SYNC_EVERY == 0) {
        let mut req = request(
            &format!("job-{i}"),
            job_seed(opts.seed, i),
            opts.smoke,
            false,
        );
        let report = Pipeline::new(req.cfg).run(
            &*req.model,
            req.train,
            &req.val,
            &req.test,
            &mut *req.selector,
        );
        let sync: Vec<u64> = report.final_w.iter().map(|v| v.to_bits()).collect();
        bad += u64::from(sync != job.final_bits);
    }
    bad
}

/// For the jobs every loop completed: each job's lowest latency, and
/// how many jobs did not end with the same bits in every loop.
fn pair(loops: &[Loop]) -> (Vec<f64>, usize) {
    let mut latency = Vec::new();
    let mut differ = 0;
    for (i, first) in &loops[0].jobs {
        let runs: Option<Vec<&Done>> = loops.iter().map(|l| l.jobs.get(i)).collect();
        if let Some(runs) = runs {
            latency.push(
                runs.iter()
                    .map(|j| j.latency_ms)
                    .fold(f64::INFINITY, f64::min),
            );
            differ += usize::from(runs.iter().any(|j| j.final_bits != first.final_bits));
        }
    }
    (latency, differ)
}

/// Run the served workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    if opts.trace {
        traced_run(opts, &mut out);
        return out;
    }
    let (setup, first_batch) = cold_starts(opts);
    let loops: Vec<Loop> = (0..LOOPS)
        .map(|_| open_loop(opts, opts.seconds / LOOPS as f64, false))
        .collect();
    let peak_rss_mb = crate::peak_rss_mb();
    out.attempted = loops.iter().map(|l| l.submitted).sum();
    out.failed = loops.iter().map(|l| l.failed).sum();
    let (latency, differ) = pair(&loops);
    if differ > 0 {
        out.failed += differ as u64;
        out.violations.push(format!(
            "{differ} jobs ended differently in different loops"
        ));
    }
    let a = &loops[0];
    let mismatches = sync_mismatches(opts, a);
    if mismatches > 0 {
        out.failed += mismatches;
        out.violations.push(format!(
            "{mismatches} served jobs differ from a synchronous run"
        ));
    }
    let lags: Vec<f64> = loops
        .iter()
        .flat_map(|l| l.lag_ms.iter().copied())
        .collect();
    match percentile(&lags, 90.0) {
        Some(lag) if lag > MAX_LAG_P90_MS => out.violations.push(format!(
            "generator ran {lag:.1} ms late at p90; the run is invalid"
        )),
        _ => {}
    }
    let n = latency.len();
    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric(
        "first_batch_s",
        median(&first_batch),
        "s",
        first_batch.len(),
    );
    out.metric("turnaround_p50_ms", median(&latency), "ms", n);
    match percentile(&latency, 90.0) {
        Some(p90) => out.unbounded("turnaround_p90_ms", p90, "ms", n),
        None => out
            .violations
            .push(format!("p90 refused: {n} job samples, 100 needed")),
    }
    let mean_f1 = a.jobs.values().map(|j| j.f1).sum::<f64>() / a.jobs.len().max(1) as f64;
    out.metric("final_test_f1", mean_f1, "f1", a.jobs.len());
    out.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
    out
}

/// Half the time untraced, half through the traced model with the same
/// job seeds: every job both halves ran must end with the same bits.
fn traced_run(opts: &Opts, out: &mut Outcome) {
    let half = opts.seconds / 2.0;
    let plain = open_loop(opts, half, false);
    trace::reset();
    trace::set_phase(Phase::Serve);
    let traced = open_loop(opts, half, true);
    let t = trace::snapshot();
    out.attempted = plain.submitted + traced.submitted;
    out.failed = plain.failed + traced.failed;
    let loops = [plain, traced];
    let (_, differ) = pair(&loops);
    let [plain, traced] = &loops;
    if differ > 0 {
        out.failed += differ as u64;
        out.violations.push(format!(
            "{differ} traced jobs differ from their untraced runs"
        ));
    }
    let latency = |l: &Loop| l.jobs.values().map(|j| j.latency_ms).collect::<Vec<f64>>();
    let (plain_ms, traced_ms) = (latency(plain), latency(traced));

    let jobs = traced_ms.len();
    let c = |name: &str| traced.telemetry.counter(name) as f64;
    let replies = c("serve.replies_received") + c("serve.replies_duplicate");
    let busy = &traced.workers_busy;
    // Thread-summed kernel time over summed job lifetimes: the share of
    // a job's life spent computing rather than queued or parked.
    let kernels = [
        Op::ScoreBlock,
        Op::GradBlock,
        Op::HvpBlock,
        Op::PerSample,
        Op::Predict,
    ];
    let model_ms: f64 = kernels
        .iter()
        .map(|&op| t.op(op, &[Phase::Serve]).busy_ms)
        .sum();
    let latency_total: f64 = traced_ms.iter().sum();
    out.layers(
        jobs,
        &[
            ("sched.slices", c("sched.slices"), "count"),
            ("sched.requeues", c("sched.requeues"), "count"),
            (
                "sched.admission_rejects",
                c("sched.admission_rejects"),
                "count",
            ),
            (
                "serve.replies_duplicate_frac",
                c("serve.replies_duplicate") / replies.max(1.0),
                "frac",
            ),
            ("serve.replies_late", c("serve.replies_late"), "count"),
            (
                "serve.deadline_expirations",
                c("serve.deadline_expirations"),
                "count",
            ),
            (
                "serve.queue_depth_max",
                traced.queue_depth_max as f64,
                "count",
            ),
            (
                "serve.workers_busy_mean",
                busy.iter().sum::<f64>() / busy.len().max(1) as f64,
                "count",
            ),
            (
                "serve.wait_frac",
                1.0 - model_ms / latency_total.max(1e-9),
                "frac",
            ),
            (
                "serve.jobs_per_s",
                c("serve.jobs_completed") / traced.span_s.max(1e-9),
                "1/s",
            ),
            (
                "bench.gen_lag_p90_ms",
                percentile(&plain.lag_ms, 90.0).unwrap_or(f64::NAN),
                "ms",
            ),
            (
                "bench.trace_overhead_frac",
                median(&traced_ms) / median(&plain_ms) - 1.0,
                "frac",
            ),
        ],
    );
    model_layers(out, &t, &[Phase::Serve], jobs.max(1) as f64, jobs);
    annotation_layers(out, traced.annotation.iter());
}

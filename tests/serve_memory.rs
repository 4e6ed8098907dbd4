//! What a finished chef-serve job keeps (DESIGN.md §16.2).
//!
//! A `JobManager` holds every finished job's result for later `results`
//! requests, so whatever a result holds is held for the manager's
//! lifetime. It must hold the report, the final labels as patches, the
//! telemetry export and the event log, a few kilobytes at MIMIC/40, and
//! never the job's training set or a pool-sized selection buffer (about
//! 826 KB per job when it did).
//!
//! A counting global allocator ([`LiveHeap`]) tracks the process's live
//! heap. Two warm-up jobs settle the manager's one-time allocations;
//! then 20 more MIMIC/40 jobs run one after another through a 1-worker
//! manager, each `wait` result dropped at once, and the live heap may
//! grow by at most [`BOUND_PER_JOB`] per finished job. This file holds a
//! single `#[test]` so no other test's allocations reach the counter,
//! and it waits on condvars (`JobManager::wait`), never on time.

use chef_core::Telemetry;
use chef_obs::LiveHeap;
use chef_serve::{
    job_request_from_spec, JobManager, SchedConfig, SimAnnotator, SimAnnotatorConfig,
};

#[global_allocator]
static HEAP: LiveHeap = LiveHeap;

const WARM_UP: u64 = 2;
const JOBS: u64 = 20;
/// Live heap a finished MIMIC/40 job may leave behind.
const BOUND_PER_JOB: isize = 32 * 1024;

#[test]
fn a_finished_job_keeps_only_its_results() {
    let mgr = JobManager::with_config(
        Box::new(SimAnnotator::new(SimAnnotatorConfig::default())),
        Telemetry::enabled(),
        SchedConfig {
            workers: 1,
            queue_bound: 4,
        },
    );
    let run = |seed: u64| {
        let spec = format!(
            r#"{{"name": "job-{seed}", "dataset": "MIMIC", "scale": 40, "seed": {seed}, "budget": 20, "round_size": 5}}"#
        );
        let id = mgr.submit(job_request_from_spec(&spec).expect("the spec is valid"));
        drop(mgr.wait(id).expect("the job completes"));
    };
    for seed in 0..WARM_UP {
        run(seed);
    }
    let before = LiveHeap::bytes();
    for seed in WARM_UP..WARM_UP + JOBS {
        run(seed);
    }
    let per_job = (LiveHeap::bytes() - before) / JOBS as isize;
    assert!(
        per_job <= BOUND_PER_JOB,
        "each finished job left {per_job} live bytes behind; the bound is {BOUND_PER_JOB}"
    );
    assert_eq!(
        mgr.sched_stats().completion_order.len() as u64,
        WARM_UP + JOBS
    );
}

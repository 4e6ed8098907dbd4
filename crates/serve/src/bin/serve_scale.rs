//! Multi-tenant scheduler scaling bench: N tenants on an M-worker pool
//! vs the thread-per-job configuration (pool sized to one worker per
//! tenant), proving the pooled cooperative scheduler bounds threads
//! without costing wall-clock or changing a single result bit.
//!
//! Two lanes over the identical 64-tenant workload (each tenant a
//! seeded `chef-data` paper dataset job driven by the deterministic
//! [`SimAnnotator`]):
//!
//! * `pooled`: 4 workers — jobs suspend at the annotation boundary and
//!   multiplex round-robin (DESIGN.md §17);
//! * `thread-per-job`: 64 workers — every tenant can hold a thread
//!   simultaneously, the PR-9 concurrency shape.
//!
//! Per lane: wall-clock over submit→drain, peak process thread count
//! (`Threads:` in `/proc/self/status`, sampled at every submit and
//! wait), the `sched.*` ledger, and memory: the live heap the manager
//! still holds per finished job once every job has drained (the
//! counting global allocator [`LiveHeap`]; the bench's own copies of
//! the results are not counted), and the process's `VmHWM` after the
//! lane (a process-wide peak, so the second lane's reading covers the
//! first lane too). The bench asserts the pooled lane's peak stays
//! within pool + host + main (M+2), that every tenant's final parameter
//! vector is bit-identical across lanes, and that pooling does not lose
//! wall-clock beyond noise; then writes `BENCH_serve.json`. `--quick`
//! asserts instead that no lane keeps more than
//! [`KEPT_BYTES_PER_JOB_BOUND`] per finished job.
//! `RAYON_NUM_THREADS=1` pins the compute kernels serial so the thread
//! census measures the scheduler, not the linear algebra.
//!
//! Usage: `cargo run --release -p chef-serve --bin serve_scale`
//! (`--quick` for an 8-tenant CI smoke with no JSON output, `--tenants
//! N` / `--workers M` to override the shape).

use chef_core::Telemetry;
use chef_obs::{JsonWriter, LiveHeap};
use chef_serve::{
    job_request_from_spec, JobId, JobManager, SchedConfig, SimAnnotator, SimAnnotatorConfig,
};
use std::time::Instant;

const SIM_SEED: u64 = 1;
/// Live heap a finished job may leave in the manager (`--quick`
/// asserts it; a job that kept its training set held about 826 KB at
/// MIMIC/40).
const KEPT_BYTES_PER_JOB_BOUND: f64 = 32.0 * 1024.0;

#[global_allocator]
static HEAP: LiveHeap = LiveHeap;

struct Workload {
    tenants: usize,
    workers: usize,
    dataset: &'static str,
    scale: usize,
    budget: usize,
    round_size: usize,
}

struct LaneResult {
    label: &'static str,
    workers: usize,
    wall_s: f64,
    peak_threads: usize,
    slices: u64,
    requeues: u64,
    /// Live heap the manager holds after the drain, per finished job.
    kept_bytes_per_job: f64,
    /// The process's `VmHWM` after the lane, in MB.
    vm_hwm_mb: f64,
    /// Per-tenant final parameter bits, the cross-lane identity probe.
    final_bits: Vec<Vec<u64>>,
}

/// A numeric field of `/proc/self/status` (`Threads:`, `VmHWM:` in kB);
/// 0 if the file is unreadable (non-Linux).
fn proc_status(field: &str) -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Current thread count of this process.
fn current_threads() -> usize {
    proc_status("Threads:")
}

fn run_lane(label: &'static str, workers: usize, w: &Workload) -> LaneResult {
    let mgr = JobManager::with_config(
        Box::new(SimAnnotator::new(SimAnnotatorConfig {
            seed: SIM_SEED,
            ..SimAnnotatorConfig::default()
        })),
        Telemetry::enabled(),
        SchedConfig {
            workers,
            queue_bound: w.tenants.max(1),
        },
    );
    let mut peak_threads = current_threads();
    let live_before = LiveHeap::bytes();
    let start = Instant::now();
    let ids: Vec<JobId> = (0..w.tenants)
        .map(|i| {
            let spec = format!(
                r#"{{"name": "tenant-{i}", "dataset": "{}", "scale": {}, "seed": {}, "budget": {}, "round_size": {}, "deadline_ms": 1000}}"#,
                w.dataset,
                w.scale,
                i as u64 + 1,
                w.budget,
                w.round_size,
            );
            let req = job_request_from_spec(&spec).expect("workload spec is valid");
            let id = mgr.submit(req);
            peak_threads = peak_threads.max(current_threads());
            id
        })
        .collect();
    let final_bits: Vec<Vec<u64>> = ids
        .iter()
        .map(|&id| {
            let report = mgr.wait(id).expect("tenant job completes").report;
            peak_threads = peak_threads.max(current_threads());
            report.final_w.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    // Every result is dropped by now; what the bench itself still holds
    // (the ids and the final bits) is not the manager's.
    let bench_held = ids.capacity() * std::mem::size_of::<JobId>()
        + final_bits.capacity() * std::mem::size_of::<Vec<u64>>()
        + final_bits
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<u64>())
            .sum::<usize>();
    let kept = LiveHeap::bytes() - live_before - bench_held as isize;
    let tel = mgr.telemetry();
    let lane = LaneResult {
        label,
        workers,
        wall_s,
        peak_threads,
        slices: tel.counter("sched.slices"),
        requeues: tel.counter("sched.requeues"),
        kept_bytes_per_job: kept as f64 / w.tenants.max(1) as f64,
        vm_hwm_mb: proc_status("VmHWM:") as f64 / 1024.0,
        final_bits,
    };
    drop(mgr); // join the pool before the next lane's census
    lane
}

fn write_json(w: &Workload, lanes: &[LaneResult], speedup: f64) {
    let mut j = JsonWriter::new();
    j.begin_object();
    j.field_str("schema", chef_core::SCHEMA_VERSION);
    j.field_str("kind", "serve_scale");
    j.key("context");
    j.begin_object();
    j.field_u64("tenants", w.tenants as u64);
    j.field_u64("pool_workers", w.workers as u64);
    j.field_str("dataset", w.dataset);
    j.field_u64("scale", w.scale as u64);
    j.field_u64("budget", w.budget as u64);
    j.field_u64("round_size", w.round_size as u64);
    j.field_u64("sim_seed", SIM_SEED);
    j.field_u64("available_cores", chef_obs::available_cores() as u64);
    j.field_str(
        "threads_metric",
        "Threads: in /proc/self/status, sampled at every submit and wait; RAYON_NUM_THREADS=1",
    );
    j.field_str(
        "memory_metric",
        "kept_bytes_per_job: live heap (counting allocator) the manager holds after every job drained, \
         minus the bench's own copies, over tenants; vm_hwm_mb: VmHWM after the lane (process-wide peak, \
         so later lanes include earlier ones)",
    );
    j.end_object();
    j.key("lanes");
    j.begin_array();
    for lane in lanes {
        j.begin_object();
        j.field_str("label", lane.label);
        j.field_u64("workers", lane.workers as u64);
        j.field_f64("wall_s", lane.wall_s);
        j.field_u64("peak_threads", lane.peak_threads as u64);
        j.field_u64("sched_slices", lane.slices);
        j.field_u64("sched_requeues", lane.requeues);
        j.field_f64("kept_bytes_per_job", lane.kept_bytes_per_job);
        j.field_f64("vm_hwm_mb", lane.vm_hwm_mb);
        j.end_object();
    }
    j.end_array();
    j.field_f64("pooled_speedup_vs_thread_per_job", speedup);
    j.field_bool("bit_identical_across_lanes", true);
    j.end_object();
    std::fs::write("BENCH_serve.json", j.finish() + "\n").expect("write BENCH_serve.json");
    eprintln!("wrote BENCH_serve.json");
}

fn main() {
    // Serial compute kernels: the census below must count scheduler
    // threads, not transient linear-algebra workers.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut tenants: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--tenants" => tenants = it.next().and_then(|s| s.parse().ok()),
            "--workers" => workers = it.next().and_then(|s| s.parse().ok()),
            other => {
                eprintln!("usage: serve_scale [--quick] [--tenants N] [--workers M] (got {other})");
                std::process::exit(2);
            }
        }
    }
    let w = if quick {
        Workload {
            tenants: tenants.unwrap_or(8),
            workers: workers.unwrap_or(4),
            dataset: "MIMIC",
            scale: 30,
            budget: 10,
            round_size: 5,
        }
    } else {
        Workload {
            tenants: tenants.unwrap_or(64),
            workers: workers.unwrap_or(4),
            dataset: "MIMIC",
            scale: 40,
            budget: 20,
            round_size: 5,
        }
    };

    eprintln!(
        "serve_scale: {} tenants ({} budget {} / round {}), pool {} vs thread-per-job {}",
        w.tenants, w.dataset, w.budget, w.round_size, w.workers, w.tenants
    );
    let report = |lane: &LaneResult| {
        eprintln!(
            "  {:<16}: {:>7.2}s wall, peak {} threads, {} slices, {} requeues, \
             {:.0} B kept per job, VmHWM {:.1} MB",
            lane.label,
            lane.wall_s,
            lane.peak_threads,
            lane.slices,
            lane.requeues,
            lane.kept_bytes_per_job,
            lane.vm_hwm_mb
        );
    };
    let pooled = run_lane("pooled", w.workers, &w);
    report(&pooled);
    let baseline = run_lane("thread-per-job", w.tenants, &w);
    report(&baseline);

    assert_eq!(
        pooled.final_bits, baseline.final_bits,
        "pool size must not change any tenant's final parameters"
    );
    // main + M pool workers + 1 annotator-service thread.
    let budget_threads = w.workers + 2;
    assert!(
        pooled.peak_threads <= budget_threads,
        "pooled lane peaked at {} threads, budget is {budget_threads}",
        pooled.peak_threads
    );
    let speedup = baseline.wall_s / pooled.wall_s;
    eprintln!("  speedup (thread-per-job wall / pooled wall): {speedup:.3}x");
    if quick {
        for lane in [&pooled, &baseline] {
            assert!(
                lane.kept_bytes_per_job <= KEPT_BYTES_PER_JOB_BOUND,
                "{} lane: the manager kept {:.0} B per finished job, bound {KEPT_BYTES_PER_JOB_BOUND}",
                lane.label,
                lane.kept_bytes_per_job
            );
        }
    } else {
        assert!(
            pooled.wall_s <= baseline.wall_s * 1.10,
            "pooling must not cost wall-clock: {:.2}s pooled vs {:.2}s thread-per-job",
            pooled.wall_s,
            baseline.wall_s
        );
        write_json(&w, &[pooled, baseline], speedup);
    }
}

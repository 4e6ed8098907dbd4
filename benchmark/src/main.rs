//! End-to-end benchmark of CHEF: round turnaround, setup, quality and
//! served-job latency on four workloads, with a traced per-layer split.
//!
//! ```text
//! chef-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--out DIR] [--reps N]
//! ```
//!
//! With `--workload` the process runs that one workload, prints every
//! metric as `workload metric value unit n=<samples>` and ends with one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. Without
//! it, the process re-executes itself once per (seed, workload), reps
//! interleaved, so each child's peak RSS is its own workload's, and
//! prints the spread of each metric over the seeds. See README.md for
//! the metrics, workloads and comparison protocol.

mod pipeline;
mod serve;
mod stats;
mod trace;

use chef_obs::JsonWriter;
use pipeline::PipelineWorkload;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// End-to-end metrics: `(name, unit)`. Every workload reports each.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("first_batch_s", "s"),
    ("turnaround_p50_ms", "ms"),
    ("final_test_f1", "f1"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports each; a layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("round.select_ms", "ms"),
    ("round.annotate_ms", "ms"),
    ("round.provide_ms", "ms"),
    ("selector.cg_ms", "ms"),
    ("selector.hvp_calls", "count"),
    ("selector.score_ms", "ms"),
    ("selector.scored_rows", "count"),
    ("selector.bound_ms", "ms"),
    ("selector.pruned_frac_p50", "frac"),
    ("selector.pruned_frac_min", "frac"),
    ("selector.init_ms", "ms"),
    ("constructor.grad_ms", "ms"),
    ("constructor.grad_rows", "count"),
    ("constructor.replay_frac", "frac"),
    ("constructor.self_ms", "ms"),
    ("setup.grad_ms", "ms"),
    ("eval.predict_calls", "count"),
    ("eval.predict_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.write_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.feature_rows_ms", "ms"),
    ("store.feature_rows_calls", "count"),
    ("store.feature_rows_rows", "count"),
    ("store.prefetch_ms", "ms"),
    ("store.prefetch_calls", "count"),
    ("store.prefetch_rows", "count"),
    ("store.row_calls", "count"),
    ("store.self_ms", "ms"),
    ("store.frac", "frac"),
    ("store.verify_ms", "ms"),
    ("store.blocks_verified", "count"),
    ("store.lazy_verify_hits", "count"),
    ("store.prefetch_overlap_ms", "ms"),
    ("store.tax_ratio", "ratio"),
    ("model.score_ns_per_row", "ns"),
    ("model.grad_ns_per_row", "ns"),
    ("model.hvp_ms", "ms"),
    ("model.per_sample_calls", "count"),
    ("model.self_ms", "ms"),
    ("annotation.clean_frac", "frac"),
    ("annotation.abstain_frac", "frac"),
    ("annotation.conflict_frac", "frac"),
    ("sched.slices", "count"),
    ("sched.requeues", "count"),
    ("sched.admission_rejects", "count"),
    ("serve.replies_duplicate_frac", "frac"),
    ("serve.replies_late", "count"),
    ("serve.deadline_expirations", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.workers_busy_mean", "count"),
    ("serve.wait_frac", "frac"),
    ("serve.jobs_per_s", "1/s"),
    ("bench.gen_lag_p90_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.span_gap_frac", "frac"),
];

/// The workloads, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MimicIncremDgl,
    FashionIncremRetrain,
    MimicMmapCkpt,
    ServeOpen20,
}

const WORKLOADS: [Workload; 4] = [
    Workload::MimicIncremDgl,
    Workload::FashionIncremRetrain,
    Workload::MimicMmapCkpt,
    Workload::ServeOpen20,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::MimicIncremDgl => "mimic-increm-dgl",
            Workload::FashionIncremRetrain => "fashion-increm-retrain",
            Workload::MimicMmapCkpt => "mimic-mmap-ckpt",
            Workload::ServeOpen20 => "serve-open20",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    fn pipeline(self) -> Option<PipelineWorkload> {
        let w = match self {
            Workload::MimicIncremDgl => PipelineWorkload {
                dataset: "MIMIC",
                scale: 1,
                incremental: true,
                deltagrad: true,
                budget: 400,
                mmap: false,
            },
            Workload::FashionIncremRetrain => PipelineWorkload {
                dataset: "Fashion",
                scale: 2,
                incremental: true,
                deltagrad: false,
                budget: 500,
                mmap: false,
            },
            Workload::MimicMmapCkpt => PipelineWorkload {
                dataset: "MIMIC",
                scale: 16,
                incremental: false,
                deltagrad: true,
                budget: 300,
                mmap: true,
            },
            Workload::ServeOpen20 => return None,
        };
        Some(w)
    }
}

/// Command-line options of one workload run.
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub smoke: bool,
}

/// One reported number.
#[derive(Clone, Copy)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    end_to_end: Vec<Metric>,
    /// Printed beside the end-to-end metrics but carrying no bound: the
    /// turnaround p90, which swings by a third between runs when other
    /// tenants load the machine (README, "Measured spread").
    unbounded: Vec<Metric>,
    layers: Vec<Metric>,
    /// Operations attempted: rounds, or submitted jobs.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Failed correctness checks.
    pub violations: Vec<String>,
    /// Phase spans of the traced run.
    pub spans: Option<trace::Spans>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }

    /// Record a reported but unbounded end-to-end number.
    pub fn unbounded(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.unbounded.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }

    /// Record per-layer metrics `(name, value, unit)` sharing a sample
    /// count.
    pub fn layers(&mut self, n: usize, metrics: &[(&'static str, f64, &'static str)]) {
        for &(name, value, unit) in metrics {
            self.layers.push(Metric {
                name,
                value,
                unit,
                n,
            });
        }
    }

    /// The metrics this run reports, in table order: the end-to-end ones,
    /// or with tracing every per-layer one (0 for a bypassed layer).
    fn reported(&self, trace: bool) -> Vec<Metric> {
        let (table, recorded): (&[(&str, &str)], _) = if trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        for m in recorded {
            assert!(
                table.contains(&(m.name, m.unit)),
                "metric {} [{}] is not in the metric table",
                m.name,
                m.unit
            );
        }
        table
            .iter()
            .filter_map(
                |&(name, unit)| match recorded.iter().find(|m| m.name == name) {
                    Some(m) => Some(*m),
                    None if trace => Some(Metric {
                        name,
                        value: 0.0,
                        unit,
                        n: 0,
                    }),
                    None => None,
                },
            )
            .collect()
    }
}

/// FNV-1a over little-endian words: the fingerprint hash.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold in one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The run's scratch directory, removed on drop — so also when a run
/// panics and unwinds.
pub struct Scratch {
    /// The directory.
    pub dir: PathBuf,
}

impl Scratch {
    fn create(base: &Path) -> std::io::Result<Self> {
        let dir = base.join(format!("benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Where scratch data and results go: the cargo target directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
}

struct Args {
    workload: Option<Workload>,
    opts: Opts,
    out: PathBuf,
    reps: usize,
}

const USAGE: &str = "usage: chef-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out DIR] [--reps N]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: 15.0,
            trace: false,
            smoke: false,
        },
        out: target_dir().join("bench-results"),
        reps: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--reps" => a.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
            "--out" => a.out = PathBuf::from(value()?),
            "--smoke" => a.opts.smoke = true,
            "--trace" => {
                a.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.opts.seconds >= 0.0 && a.opts.seconds <= 100.0) {
        return Err("--seconds must be between 0 and 100".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args, &argv),
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    // One kernel thread. On the 2-core reference box a 2-thread pool
    // makes rounds slower and their timing five times noisier (README,
    // "Threads"); the serve pool's two workers are its parallelism, as
    // in the serve_scale bench. Set before any kernel reads it.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let scratch = match Scratch::create(&target_dir()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match w.pipeline() {
        Some(p) => pipeline::run(&p, &args.opts, &scratch),
        None => serve::run(&args.opts),
    };
    drop(scratch);

    let metrics = outcome.reported(args.opts.trace);
    for m in metrics.iter().chain(&outcome.unbounded) {
        if !m.value.is_finite() {
            outcome.violations.push(format!("{} is not finite", m.name));
        }
        println!("{} {} {} {} n={}", w.name(), m.name, m.value, m.unit, m.n);
    }
    for v in &outcome.violations {
        eprintln!("{}: check failed: {v}", w.name());
    }
    let correct = outcome.violations.is_empty() && outcome.failed == 0;
    let result = result_json(correct, outcome.attempted, outcome.failed, &metrics);
    if let Err(e) = write_results(w, args, &outcome, &metrics, &result) {
        eprintln!("cannot write the results document: {e}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut j = JsonWriter::new();
    j.begin_object();
    j.field_bool("correct", correct);
    j.field_u64("attempted", attempted.max(1));
    j.field_u64("failed", failed);
    j.key("metrics");
    j.begin_object();
    for m in metrics {
        j.key(m.name);
        j.begin_object();
        j.field_f64("value", m.value);
        j.field_str("unit", m.unit);
        j.end_object();
    }
    j.end_object();
    j.end_object();
    j.finish()
}

/// The results document: the result line plus run context, sample
/// counts, failed checks and (traced runs) the phase spans.
fn write_results(
    w: Workload,
    args: &Args,
    o: &Outcome,
    metrics: &[Metric],
    result: &str,
) -> std::io::Result<()> {
    let mut j = JsonWriter::new();
    j.begin_object();
    j.field_str("workload", w.name());
    j.field_u64("seed", args.opts.seed);
    j.field_f64("seconds", args.opts.seconds);
    j.field_bool("trace", args.opts.trace);
    j.field_bool("smoke", args.opts.smoke);
    j.field_u64("available_cores", chef_obs::available_cores() as u64);
    j.field_u64("rayon_threads", rayon::current_num_threads() as u64);
    j.key("result");
    j.raw(result);
    j.key("samples");
    j.begin_object();
    for m in metrics {
        j.field_u64(m.name, m.n as u64);
    }
    j.end_object();
    j.key("unbounded");
    j.begin_object();
    for m in &o.unbounded {
        j.key(m.name);
        j.begin_object();
        j.field_f64("value", m.value);
        j.field_str("unit", m.unit);
        j.field_u64("n", m.n as u64);
        j.end_object();
    }
    j.end_object();
    j.key("violations");
    j.begin_array();
    for v in &o.violations {
        j.string(v);
    }
    j.end_array();
    if let Some(spans) = &o.spans {
        j.key("spans");
        j.begin_array();
        for s in &spans.spans {
            j.begin_object();
            j.field_str("name", s.name);
            j.field_u64("start_us", s.start_us);
            j.field_u64("end_us", s.end_us);
            if let Some(p) = s.parent {
                j.field_u64("parent", p as u64);
            }
            if let Some(r) = s.round {
                j.field_u64("round", r as u64);
            }
            j.end_object();
        }
        j.end_array();
    }
    j.end_object();
    std::fs::create_dir_all(&args.out)?;
    let suffix = if args.opts.trace { "-trace" } else { "" };
    let path = args
        .out
        .join(format!("{}-seed{}{suffix}.json", w.name(), args.opts.seed));
    std::fs::write(path, j.finish() + "\n")
}

/// Every workload, `--reps` seeds each, one child process per run, reps
/// interleaved; then each metric's median and spread over the seeds.
fn run_all(args: &Args, argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    // The children get this run's flags minus the seed and rep count.
    let mut passthrough = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" | "--reps" => {
                it.next();
            }
            _ => passthrough.push(a.clone()),
        }
    }
    let table: &[(&str, &str)] = if args.opts.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    // (workload index, metric index) -> values over the seeds.
    let mut values: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for (widx, rep) in stats::interleaved(&[0, 1, 2, 3], args.reps) {
        let w = WORKLOADS[widx];
        let seed = args.opts.seed + rep as u64;
        let child = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(&passthrough)
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot start the {} run: {e}", w.name());
                return ExitCode::from(2);
            }
        };
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if !line.starts_with('{') {
                println!("{line}");
            }
            last = line;
        }
        let ok = child.wait().is_ok_and(|s| s.success());
        let Ok(doc) = chef_obs::parse_json(&last) else {
            eprintln!("{} (seed {seed}) printed no result", w.name());
            all_correct = false;
            continue;
        };
        all_correct &= ok && doc.get("correct").and_then(|v| v.as_bool()) == Some(true);
        attempted += doc.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += doc.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        for (midx, (name, _)) in table.iter().enumerate() {
            let value = doc
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64());
            if let Some(v) = value {
                values.entry((widx, midx)).or_default().push(v);
            }
        }
    }

    let mut j = JsonWriter::new();
    j.begin_object();
    j.field_bool("correct", all_correct && failed == 0);
    j.field_u64("attempted", attempted.max(1));
    j.field_u64("failed", failed);
    j.key("metrics");
    j.begin_object();
    for ((widx, midx), vals) in &values {
        let (name, unit) = table[*midx];
        let med = stats::median(vals);
        if vals.len() >= 2 {
            let (q1, q3) = stats::quartiles(vals);
            println!(
                "spread {} {name} median={med} iqr_frac={:.4} n={}",
                WORKLOADS[*widx].name(),
                (q3 - q1) / med.abs(),
                vals.len()
            );
        }
        j.key(&format!("{}/{name}", WORKLOADS[*widx].name()));
        j.begin_object();
        j.field_f64("value", med);
        j.field_str("unit", unit);
        j.end_object();
    }
    j.end_object();
    j.end_object();
    println!("{}", j.finish());
    if all_correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

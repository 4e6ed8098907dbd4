//! Per-sample vs batched (GEMM-backed) training kernel wall time, plus
//! the provenance arena footprint.
//!
//! Two sections, emitted to `BENCH_train.json` at the workspace root
//! as a telemetry.v1 document (see DESIGN.md §10/§13). Each rayon pool
//! size runs in-process under a scoped pool (see `chef_bench::sweep`);
//! the top-level sections are the one-thread run and `thread_sweep`
//! carries the thread-sensitive `grad` section per pool size
//! (`trace_store` reports layout, which threads don't change):
//!
//! * `grad` — one full epoch of minibatch gradients at
//!   n ∈ {10k, 50k, 200k}, comparing the pre-batching reference (one
//!   `grad_ws` call plus axpy per sample), the `grad_block` closed form
//!   through `batch_grad` under a 1-worker pool (`batched_serial`), and
//!   the same call under the swept pool size (`batched`). At one thread
//!   the two batched variants are the same code; the baseline speedup
//!   comes from the B×C probability panel and the rank-1 `Xᵀ·P̃`
//!   accumulation, and threads multiply it.
//! * `trace_store` — rows/row length/payload bytes of the flat
//!   provenance arena a `cache_provenance` run records, with the
//!   per-iteration `Vec<Vec<f64>>` clone layout it replaced as the
//!   baseline (same payload plus one heap allocation per row).
//!
//! Usage: `cargo run --release -p chef-bench --bin train_kernels`
//! (`--reps R` for best-of-R timing, `--threads 1,2,4` to pick the
//! sweep, `--quick` for a tiny CI-sized run with no JSON output).

use chef_bench::{prepare, sweep};
use chef_data::{DatasetKind, DatasetSpec};
use chef_linalg::{vector, Workspace};
use chef_model::{Dataset, LogisticRegression, Model, WeightedObjective};
use chef_obs::JsonWriter;
use chef_train::{train, BatchPlan, SgdConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Synthetic MIMIC-like spec with exactly `n` training samples.
fn spec_for(n: usize) -> DatasetSpec {
    DatasetSpec {
        name: "train_kernels",
        kind: DatasetKind::FullyClean,
        train: n,
        val: 500,
        test: 100,
        dim: 32,
        num_classes: 2,
        class_sep: 1.0,
        positive_rate: 0.45,
        truth_noise: 0.0,
        weak_quality: 0.5,
        annotator_error: 0.05,
    }
}

/// Best-of-`reps` wall time in milliseconds, after one untimed warmup
/// pass (first-touch page faults and cold caches otherwise bias
/// whichever variant runs first).
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The pre-batching minibatch gradient: one `grad_ws` call plus a
/// weighted axpy per sample, then objective normalization — what
/// `WeightedObjective::batch_grad` did before `Model::grad_block`.
fn per_sample_batch_grad(
    model: &LogisticRegression,
    obj: &WeightedObjective,
    data: &Dataset,
    batch: &[usize],
    w: &[f64],
    out: &mut [f64],
    ws: &mut Workspace,
) {
    out.fill(0.0);
    let mut g = ws.take(out.len());
    for &i in batch {
        model.grad_ws(w, data.feature(i), data.label(i), &mut g, ws);
        vector::axpy(data.weight(i, obj.gamma), &g, out);
    }
    ws.put(g);
    if !batch.is_empty() {
        vector::scale(1.0 / batch.len() as f64, out);
    }
    vector::axpy(obj.l2, w, out);
}

struct GradCase {
    n: usize,
    per_sample_ms: f64,
    batched_serial_ms: f64,
    batched_ms: f64,
}

/// Time one full epoch of minibatch gradients (the SGD hot loop without
/// the parameter update, so the three variants see identical batches at
/// identical parameters).
fn run_grad_case(n: usize, reps: usize) -> GradCase {
    let prepared = prepare(&spec_for(n), 1);
    let data = &prepared.split.train;
    let model = LogisticRegression::new(data.dim(), 2);
    let obj = WeightedObjective::new(0.8, 0.2);
    let w = model.initial_params(3);
    let plan = BatchPlan::new(data.len(), 1024, 1, 2);
    let batches: Vec<Vec<usize>> = plan.iter().map(|(_, b)| b).collect();
    let mut out = vec![0.0; Model::num_params(&model)];
    let mut ws = Workspace::new();
    let serial = sweep::pool(1);

    // Interleave the three variants inside each repetition (rather than
    // timing all reps of one variant back to back) so scheduler noise
    // and frequency excursions hit every variant equally; best-of-reps
    // then picks each variant's cleanest window.
    let mut per_sample_ms = f64::INFINITY;
    let mut batched_serial_ms = f64::INFINITY;
    let mut batched_ms = f64::INFINITY;
    for rep in 0..=reps {
        let warmup = rep == 0;
        let t = time_ms(1, || {
            for b in &batches {
                per_sample_batch_grad(&model, &obj, data, b, &w, &mut out, &mut ws);
            }
            out[0]
        });
        if !warmup {
            per_sample_ms = per_sample_ms.min(t);
        }
        let t = time_ms(1, || {
            serial.install(|| {
                for b in &batches {
                    obj.batch_grad(&model, data, b, &w, &mut out);
                }
            });
            out[0]
        });
        if !warmup {
            batched_serial_ms = batched_serial_ms.min(t);
        }
        let t = time_ms(1, || {
            for b in &batches {
                obj.batch_grad(&model, data, b, &w, &mut out);
            }
            out[0]
        });
        if !warmup {
            batched_ms = batched_ms.min(t);
        }
    }
    GradCase {
        n,
        per_sample_ms,
        batched_serial_ms,
        batched_ms,
    }
}

struct TraceCase {
    n: usize,
    rows: usize,
    row_len: usize,
    arena_bytes: usize,
    arena_allocations: usize,
    nested_bytes: usize,
    nested_allocations: usize,
}

/// Record a provenance-cached training run and report the arena
/// footprint against the per-row `Vec<Vec<f64>>` layout it replaced
/// (same f64 payload, plus one 24-byte Vec header and one heap
/// allocation per row, twice — params and grads).
fn run_trace_case(n: usize) -> TraceCase {
    let prepared = prepare(&spec_for(n), 1);
    let data = &prepared.split.train;
    let model = LogisticRegression::new(data.dim(), 2);
    let obj = WeightedObjective::new(0.8, 0.2);
    let sgd = SgdConfig {
        lr: 0.1,
        epochs: 3,
        batch_size: 1024,
        seed: 2,
        cache_provenance: true,
    };
    let out = train(&model, &obj, data, &model.initial_params(0), &sgd);
    let trace = out.trace.expect("cache_provenance was set");
    let rows = trace.params.len() + trace.grads.len();
    let payload = trace.params.payload_bytes() + trace.grads.payload_bytes();
    TraceCase {
        n,
        rows: trace.params.len(),
        row_len: trace.params.row_len(),
        arena_bytes: payload,
        arena_allocations: 2,
        nested_bytes: payload + rows * std::mem::size_of::<Vec<f64>>(),
        nested_allocations: 2 + rows,
    }
}

fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// Measure every section at the current pool size and return them as one
/// JSON fragment: `{"grad":[...],"trace_store":{...}}`.
fn measure_fragment(sizes: &[usize], reps: usize) -> String {
    let mut grad_cases = Vec::new();
    for &n in sizes {
        let c = run_grad_case(n, reps);
        println!(
            "n={:>7}  grad epoch: per-sample {:.2} ms / batched-serial {:.2} ms / batched {:.2} ms ({:.2}x)",
            c.n,
            c.per_sample_ms,
            c.batched_serial_ms,
            c.batched_ms,
            c.per_sample_ms / c.batched_ms,
        );
        grad_cases.push(c);
    }

    let trace = run_trace_case(*sizes.last().unwrap());
    println!(
        "trace arena: {} rows x {} params, {} payload bytes in {} allocations (nested layout: {} bytes, {} allocations)",
        trace.rows,
        trace.row_len,
        trace.arena_bytes,
        trace.arena_allocations,
        trace.nested_bytes,
        trace.nested_allocations,
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("grad");
    w.begin_array();
    for c in &grad_cases {
        w.begin_object();
        w.field_u64("n", c.n as u64);
        w.field_f64("per_sample_ms", c.per_sample_ms);
        w.field_f64("batched_serial_ms", c.batched_serial_ms);
        w.field_f64("batched_ms", c.batched_ms);
        w.field_f64("batched_speedup", c.per_sample_ms / c.batched_ms);
        w.end_object();
    }
    w.end_array();
    w.key("trace_store");
    w.begin_object();
    w.field_u64("n", trace.n as u64);
    w.field_u64("rows", trace.rows as u64);
    w.field_u64("row_len", trace.row_len as u64);
    w.field_u64("arena_bytes", trace.arena_bytes as u64);
    w.field_u64("arena_allocations", trace.arena_allocations as u64);
    w.field_u64("nested_bytes", trace.nested_bytes as u64);
    w.field_u64("nested_allocations", trace.nested_allocations as u64);
    w.end_object();
    w.end_object();
    w.finish()
}

/// Pull one named section back out of a sweep fragment.
fn section(fragment: &str, key: &str) -> String {
    chef_obs::parse_json(fragment)
        .expect("sweep fragment is valid JSON")
        .get(key)
        .unwrap_or_else(|| panic!("sweep fragment lacks {key:?}"))
        .to_json()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // At least one rep, or every timing stays +inf and the JSON is garbage.
    let reps: usize = if quick {
        1
    } else {
        chef_bench::arg_value(&args, "--reps", 5).max(1)
    };
    let sizes: &[usize] = if quick {
        &[2_000]
    } else {
        &[10_000, 50_000, 200_000]
    };
    let cores = sweep::available_cores();
    let threads = rayon::current_num_threads();
    println!("train_kernels: cores={cores} rayon_threads={threads} quick={quick}");

    let entries = sweep::run(&args, || measure_fragment(sizes, reps));
    if quick {
        println!("quick mode: skipping BENCH_train.json");
        return;
    }

    // telemetry.v1 envelope: common header (schema/kind/context), then the
    // kind-specific payload — the one-thread run's sections at top level
    // for readers that predate `thread_sweep`. See DESIGN.md §10.
    let base = &sweep::baseline(&entries).fragment;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", chef_obs::SCHEMA_VERSION);
    w.field_str("kind", "train_kernels");
    w.key("context");
    w.begin_object();
    w.field_u64("available_cores", cores as u64);
    w.field_u64("rayon_threads", sweep::baseline(&entries).threads as u64);
    w.field_u64("reps", reps as u64);
    w.field_u64("dim", 32);
    w.field_u64("num_classes", 2);
    w.field_u64("batch_size", 1024);
    w.field_str("unit", "ms (best of reps, one full epoch of minibatches)");
    sweep::write_context_fields(&mut w, &entries);
    w.end_object();
    for key in ["grad", "trace_store"] {
        w.key(key);
        w.raw(&section(base, key));
    }
    sweep::write_thread_sweep(&mut w, &entries, "grad", |f| section(f, "grad"));
    w.end_object();
    let path = workspace_root().join("BENCH_train.json");
    std::fs::write(&path, w.finish() + "\n").expect("write BENCH_train.json");
    println!("wrote {}", path.display());
}

//! Per-sample vs batched (GEMM-backed) influence kernel wall time.
//!
//! Times the Infl scoring pass and the Hessian-subsample HVP at
//! n ∈ {10k, 50k, 200k} training samples, comparing three
//! implementations of each:
//!
//! * `per_sample` — the pre-batching reference: one `C + 1`-gradient
//!   loop per candidate (`rank_infl_with_vector_per_sample`), one
//!   allocating `hvp` call per batch sample;
//! * `batched_serial` — the structure-aware `score_block`/`hvp_block`
//!   closed form through the public API under a 1-worker pool;
//! * `batched` — the same call under the swept pool size.
//!
//! Each rayon pool size runs in-process under a scoped pool (see
//! `chef_bench::sweep`); the binary assembles `BENCH_infl_kernels.json`
//! at the workspace root as a telemetry.v1 document (see DESIGN.md
//! §10/§11) whose top-level `results` is the one-thread run and whose
//! `thread_sweep` carries the full trajectory. At one thread `batched`
//! and `batched_serial` are the same code; the headline
//! `batched_speedup` column (per-sample / batched) comes from arithmetic
//! restructuring — two block GEMMs plus O(C) per sample instead of
//! `C + 1` dense gradient materializations — threads then multiply it.
//!
//! Usage: `cargo run --release -p chef-bench --bin infl_kernels`
//! (`--reps R` for best-of-R timing, `--threads 1,2,4` to pick the
//! sweep, `--quick` for a tiny CI-sized run with no JSON output).

use chef_bench::{prepare, sweep};
use chef_core::influence::{
    influence_vector, rank_infl_with_vector, rank_infl_with_vector_per_sample, InflConfig,
};
use chef_data::{DatasetKind, DatasetSpec};
use chef_linalg::vector;
use chef_model::{Dataset, LogisticRegression, Model, WeightedObjective};
use chef_obs::JsonWriter;
use chef_train::{train, SgdConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Synthetic MIMIC-like spec with exactly `n` training samples.
fn spec_for(n: usize) -> DatasetSpec {
    DatasetSpec {
        name: "infl_kernels",
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

/// Best-of-`reps` wall time in milliseconds.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The pre-batching HVP accumulation: one allocating per-sample `hvp`
/// plus an axpy per batch member, then objective normalization — what
/// `WeightedObjective::batch_hvp` did before `Model::hvp_block`.
fn per_sample_hvp(
    model: &LogisticRegression,
    obj: &WeightedObjective,
    data: &Dataset,
    batch: &[usize],
    w: &[f64],
    v: &[f64],
    out: &mut [f64],
) {
    out.fill(0.0);
    let mut h = vec![0.0; out.len()];
    for &i in batch {
        model.hvp(w, data.feature(i), data.label(i), v, &mut h);
        vector::axpy(data.weight(i, obj.gamma), &h, out);
    }
    if !batch.is_empty() {
        vector::scale(1.0 / batch.len() as f64, out);
    }
    vector::axpy(obj.l2, v, out);
}

struct Case {
    n: usize,
    score_per_sample_ms: f64,
    score_batched_serial_ms: f64,
    score_batched_ms: f64,
    hvp_per_sample_ms: f64,
    hvp_batched_serial_ms: f64,
    hvp_batched_ms: f64,
}

fn run_case(n: usize, reps: usize) -> Case {
    let prepared = prepare(&spec_for(n), 1);
    let data = &prepared.split.train;
    let val = &prepared.split.val;
    let model = LogisticRegression::new(data.dim(), 2);
    let obj = WeightedObjective::new(0.8, 0.2);
    let sgd = SgdConfig {
        lr: 0.1,
        epochs: 3,
        batch_size: 1024,
        seed: 2,
        cache_provenance: false,
    };
    let w = train(&model, &obj, data, &model.initial_params(0), &sgd).w;
    let v = influence_vector(&model, &obj, data, val, &w, &InflConfig::default());
    let pool = data.uncleaned_indices();
    assert_eq!(pool.len(), n, "entire training set should be uncleaned");

    let score_per_sample_ms = time_ms(reps, || {
        rank_infl_with_vector_per_sample(&model, data, &w, &v, &pool, obj.gamma)
    });
    let serial = sweep::pool(1);
    let score = || rank_infl_with_vector(&model, data, &w, &v, &pool, obj.gamma);
    let score_batched_serial_ms = time_ms(reps, || serial.install(score));
    let score_batched_ms = time_ms(reps, score);

    // HVP over the default Hessian subsample size (the CG operator's
    // per-iteration cost).
    let batch: Vec<usize> = (0..n.min(InflConfig::default().hessian_batch)).collect();
    let mut out = vec![0.0; Model::num_params(&model)];
    let hvp_per_sample_ms = time_ms(reps, || {
        per_sample_hvp(&model, &obj, data, &batch, &w, &v, &mut out);
        out[0]
    });
    let hvp_batched_serial_ms = time_ms(reps, || {
        serial.install(|| obj.batch_hvp(&model, data, &batch, &w, &v, &mut out));
        out[0]
    });
    let hvp_batched_ms = time_ms(reps, || {
        obj.batch_hvp(&model, data, &batch, &w, &v, &mut out);
        out[0]
    });
    Case {
        n,
        score_per_sample_ms,
        score_batched_serial_ms,
        score_batched_ms,
        hvp_per_sample_ms,
        hvp_batched_serial_ms,
        hvp_batched_ms,
    }
}

/// Measure all sizes at the current pool size, printing paper-style rows.
fn measure(sizes: &[usize], reps: usize) -> Vec<Case> {
    let mut cases = Vec::new();
    for &n in sizes {
        let c = run_case(n, reps);
        println!(
            "n={:>7}  score: per-sample {:.2} ms / batched-serial {:.2} ms / batched {:.2} ms ({:.2}x)   hvp: per-sample {:.2} ms / batched-serial {:.2} ms / batched {:.2} ms ({:.2}x)",
            c.n,
            c.score_per_sample_ms,
            c.score_batched_serial_ms,
            c.score_batched_ms,
            c.score_per_sample_ms / c.score_batched_ms,
            c.hvp_per_sample_ms,
            c.hvp_batched_serial_ms,
            c.hvp_batched_ms,
            c.hvp_per_sample_ms / c.hvp_batched_ms,
        );
        cases.push(c);
    }
    cases
}

/// The per-thread-count `results` payload (one array element per n).
fn results_fragment(cases: &[Case]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    for c in cases {
        w.begin_object();
        w.field_u64("n", c.n as u64);
        w.key("score");
        w.begin_object();
        w.field_f64("per_sample_ms", c.score_per_sample_ms);
        w.field_f64("batched_serial_ms", c.score_batched_serial_ms);
        w.field_f64("batched_ms", c.score_batched_ms);
        w.field_f64(
            "batched_speedup",
            c.score_per_sample_ms / c.score_batched_ms,
        );
        w.end_object();
        w.key("hvp");
        w.begin_object();
        w.field_f64("per_sample_ms", c.hvp_per_sample_ms);
        w.field_f64("batched_serial_ms", c.hvp_batched_serial_ms);
        w.field_f64("batched_ms", c.hvp_batched_ms);
        w.field_f64("batched_speedup", c.hvp_per_sample_ms / c.hvp_batched_ms);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.finish()
}

fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // At least one rep, or every timing stays +inf and the JSON is garbage.
    let reps: usize = if quick {
        1
    } else {
        chef_bench::arg_value(&args, "--reps", 3).max(1)
    };
    let sizes: &[usize] = if quick {
        &[2_000]
    } else {
        &[10_000, 50_000, 200_000]
    };
    let cores = sweep::available_cores();
    let threads = rayon::current_num_threads();
    println!("infl_kernels: cores={cores} rayon_threads={threads} quick={quick}");

    let entries = sweep::run(&args, || results_fragment(&measure(sizes, reps)));
    if quick {
        println!("quick mode: skipping BENCH_infl_kernels.json");
        return;
    }

    // telemetry.v1 envelope: common header (schema/kind/context), then the
    // kind-specific `results` payload — the one-thread run, for readers
    // that predate `thread_sweep`. See DESIGN.md §10.
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", chef_obs::SCHEMA_VERSION);
    w.field_str("kind", "infl_kernels");
    w.key("context");
    w.begin_object();
    w.field_u64("available_cores", cores as u64);
    w.field_u64("rayon_threads", sweep::baseline(&entries).threads as u64);
    w.field_u64("reps", reps as u64);
    w.field_u64("dim", 32);
    w.field_u64("num_classes", 2);
    w.field_str("unit", "ms (best of reps)");
    sweep::write_context_fields(&mut w, &entries);
    w.end_object();
    w.key("results");
    w.raw(&sweep::baseline(&entries).fragment);
    sweep::write_thread_sweep(&mut w, &entries, "results", |f| f.to_string());
    w.end_object();
    let path = workspace_root().join("BENCH_infl_kernels.json");
    std::fs::write(&path, w.finish() + "\n").expect("write BENCH_infl_kernels.json");
    println!("wrote {}", path.display());
}

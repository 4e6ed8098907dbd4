//! Serial-vs-parallel wall time for the selector hot path, swept over
//! rayon pool sizes.
//!
//! Times one Infl ranking pass (`rank_infl_with_vector`) and one
//! Increm-Infl bound pass (`IncremInfl::candidates`) at n ∈ {10k, 50k,
//! 200k} candidates, and records the size of each n's Increm-Infl
//! snapshot (`provenance_f64s`), asserting it is `m + n·(C + 1)`: `w⁽⁰⁾`
//! and the Hessian norms, no gradient row. "serial" is the same call under a 1-worker pool,
//! "parallel" the call under the swept pool size, so the t = 1 rows
//! compare a code path with itself (≈ 1.0 by construction). Each thread
//! count runs in-process under a scoped pool (see `chef_bench::sweep`);
//! the binary assembles `BENCH_selector.json` at the workspace root as a
//! telemetry.v1 document (see DESIGN.md §10) whose top-level `results`
//! is the one-thread run and whose `thread_sweep` carries the full
//! trajectory. A speedup below the core count is only meaningful
//! relative to `context.available_cores` and the per-entry thread count.
//!
//! The timed kernels carry no instrumentation at all (counters are
//! derived at phase level, see DESIGN.md §10), so the measured numbers
//! do not depend on whether a telemetry handle is enabled.
//!
//! Usage: `cargo run --release -p chef-bench --bin par_speedup`
//! (`--reps R` for best-of-R timing, `--threads 1,2,4` to pick the
//! sweep, `--quick` for a tiny CI-sized run with no JSON output).

use chef_bench::{prepare, sweep};
use chef_core::increm::IncremInfl;
use chef_core::influence::{influence_vector, rank_infl_with_vector, InflConfig};
use chef_data::{DatasetKind, DatasetSpec};
use chef_model::{LogisticRegression, Model, WeightedObjective};
use chef_obs::JsonWriter;
use chef_train::{train, SgdConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Synthetic MIMIC-like spec with exactly `n` training samples.
fn spec_for(n: usize) -> DatasetSpec {
    DatasetSpec {
        name: "par_speedup",
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

/// One wall-time measurement in milliseconds.
fn once_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

struct Case {
    n: usize,
    provenance_f64s: usize,
    rank_serial_ms: f64,
    rank_parallel_ms: f64,
    bounds_serial_ms: f64,
    bounds_parallel_ms: f64,
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
    let w0 = train(&model, &obj, data, &model.initial_params(0), &sgd).w;
    let increm = IncremInfl::initialize(&model, data, &w0);
    let snap = increm.snapshot();
    let provenance_f64s =
        snap.w0.len() + snap.hessian_norms0.len() + snap.class_hessian_norms0.len();
    let (m, c) = (model.num_params(), model.num_classes());
    assert_eq!(
        provenance_f64s,
        m + n * (c + 1),
        "the Increm-Infl snapshot must hold w0 and n·(C+1) Hessian norms only"
    );
    let w_k = train(&model, &obj, data, &w0, &SgdConfig { epochs: 1, ..sgd }).w;
    let v = influence_vector(&model, &obj, data, val, &w_k, &InflConfig::default());
    let pool = data.uncleaned_indices();
    assert_eq!(pool.len(), n, "entire training set should be uncleaned");

    // Interleave the variants inside each repetition (rather than timing
    // all reps of one variant back to back) so scheduler noise and
    // frequency excursions hit serial and parallel equally; rep 0 is an
    // untimed warmup, best-of-reps then picks each variant's cleanest
    // window. Timing serial-then-parallel per rep also keeps a 1-worker
    // sweep entry honest: both variants run the same code there, so the
    // ratio should sit at ~1.0, not inherit a drift-shaped bias.
    let serial = sweep::pool(1);
    let rank = || rank_infl_with_vector(&model, data, &w_k, &v, &pool, obj.gamma);
    let bounds = || increm.candidates(&model, data, &w_k, &v, &pool, 10, obj.gamma);
    let mut rank_serial_ms = f64::INFINITY;
    let mut rank_parallel_ms = f64::INFINITY;
    let mut bounds_serial_ms = f64::INFINITY;
    let mut bounds_parallel_ms = f64::INFINITY;
    for rep in 0..=reps {
        let warmup = rep == 0;
        let t = once_ms(|| serial.install(rank));
        if !warmup {
            rank_serial_ms = rank_serial_ms.min(t);
        }
        let t = once_ms(rank);
        if !warmup {
            rank_parallel_ms = rank_parallel_ms.min(t);
        }
        let t = once_ms(|| serial.install(bounds));
        if !warmup {
            bounds_serial_ms = bounds_serial_ms.min(t);
        }
        let t = once_ms(bounds);
        if !warmup {
            bounds_parallel_ms = bounds_parallel_ms.min(t);
        }
    }
    Case {
        n,
        provenance_f64s,
        rank_serial_ms,
        rank_parallel_ms,
        bounds_serial_ms,
        bounds_parallel_ms,
    }
}

/// Measure all sizes at the current pool size, printing paper-style rows.
fn measure(sizes: &[usize], reps: usize) -> Vec<Case> {
    let mut cases = Vec::new();
    for &n in sizes {
        let c = run_case(n, reps);
        println!(
            "n={:>7}  provenance_f64s={}  rank: serial {:.2} ms / parallel {:.2} ms ({:.2}x)   bounds: serial {:.2} ms / parallel {:.2} ms ({:.2}x)",
            c.n,
            c.provenance_f64s,
            c.rank_serial_ms,
            c.rank_parallel_ms,
            c.rank_serial_ms / c.rank_parallel_ms,
            c.bounds_serial_ms,
            c.bounds_parallel_ms,
            c.bounds_serial_ms / c.bounds_parallel_ms,
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
        w.field_u64("provenance_f64s", c.provenance_f64s as u64);
        for (section, serial, parallel) in [
            ("rank_infl", c.rank_serial_ms, c.rank_parallel_ms),
            ("increm_bounds", c.bounds_serial_ms, c.bounds_parallel_ms),
        ] {
            w.key(section);
            w.begin_object();
            w.field_f64("serial_ms", serial);
            w.field_f64("parallel_ms", parallel);
            w.field_f64("speedup", serial / parallel);
            w.end_object();
        }
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
    println!("par_speedup: cores={cores} rayon_threads={threads} quick={quick}");

    let entries = sweep::run(&args, || results_fragment(&measure(sizes, reps)));
    if quick {
        println!("quick mode: skipping BENCH_selector.json");
        return;
    }

    // telemetry.v1 envelope: common header (schema/kind/context), then the
    // kind-specific `results` payload — the one-thread run, for readers
    // that predate `thread_sweep`. See DESIGN.md §10.
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", chef_obs::SCHEMA_VERSION);
    w.field_str("kind", "par_speedup");
    w.key("context");
    w.begin_object();
    w.field_u64("available_cores", cores as u64);
    w.field_u64("rayon_threads", sweep::baseline(&entries).threads as u64);
    w.field_u64("reps", reps as u64);
    w.field_str("unit", "ms (best of reps)");
    sweep::write_context_fields(&mut w, &entries);
    w.end_object();
    w.key("results");
    w.raw(&sweep::baseline(&entries).fragment);
    sweep::write_thread_sweep(&mut w, &entries, "results", |f| f.to_string());
    w.end_object();
    let path = workspace_root().join("BENCH_selector.json");
    std::fs::write(&path, w.finish() + "\n").expect("write BENCH_selector.json");
    println!("wrote {}", path.display());
}

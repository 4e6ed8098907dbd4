//! **Exp2** — Table 2 of the CHEF paper.
//!
//! Wall-clock time of selecting the top-`b = 10` influential samples at
//! the last cleaning round, with (`Increm-Infl`) and without (`Full`) the
//! Theorem-1 pruning:
//!
//! * `Time_inf`  — the whole selector phase (CG solve for `H⁻¹∇F_val`,
//!   bound evaluation, exact influence of the surviving candidates);
//! * `Time_grad` — the class-wise/sample-wise gradient evaluations only
//!   (the dominant cost the paper isolates): everything but the CG
//!   solve. For Full that is one scoring pass over the pool at `w`. For
//!   Increm-Infl it covers both kernel passes, the bound pass (Full's
//!   scoring kernel over the pool at `w⁽⁰⁾`, plus O(C) bound arithmetic
//!   per sample) and the exact pass over the candidates at `w`.
//!
//! The harness replays the first 9 rounds of the b = 10 pipeline to land
//! in the same state the paper measures (the last round), then times both
//! selector variants on that state over `--reps` repetitions, and checks
//! that they select the identical sample set (the paper's correctness
//! observation).
//!
//! ```text
//! cargo run --release -p chef-bench --bin exp2 [--scale 5] [--reps 5]
//! ```

use chef_bench::prep::arg_value;
use chef_bench::{prepare, print_table, results_dir, write_results_csv, Cell, Method};
use chef_core::increm::IncremInfl;
use chef_core::influence::{influence_vector, rank_infl_with_vector, InflConfig};
use chef_core::{AnnotationConfig, AnnotationPhase, ModelConstructor, Selection};
use chef_linalg::RunningStats;
use chef_model::LogisticRegression;
use chef_obs::JsonWriter;
use std::time::Instant;

struct Measurement {
    time_inf_full: RunningStats,
    time_inf_increm: RunningStats,
    time_grad_full: RunningStats,
    time_grad_increm: RunningStats,
    candidates: usize,
    pool: usize,
    identical: bool,
}

#[allow(clippy::too_many_arguments)]
fn measure(dataset: &str, scale: usize, reps: usize, b: usize) -> Measurement {
    let spec = chef_data::by_name(dataset, scale).expect("dataset");
    let prepared = prepare(&spec, 0);
    let cell = Cell {
        dataset: dataset.to_string(),
        method: Method::InflTwo,
        b,
        budget: 100,
        gamma: 0.8,
        seed: 0,
        neural: false,
    };
    let cfg = chef_bench::grid::cell_config(&prepared, &cell);
    let model = LogisticRegression::new(prepared.split.train.dim(), 2);
    let ctor = ModelConstructor::new(cfg.constructor, cfg.sgd);
    let annotator = AnnotationPhase::new(AnnotationConfig {
        strategy: chef_core::LabelStrategy::SuggestionOnly,
        ..cfg.annotation
    });

    // Initialization + Increm-Infl provenance at w⁽⁰⁾.
    let mut data = prepared.split.train.clone();
    let val = &prepared.split.val;
    let init = ctor.initial_train(&model, &cfg.objective, &data);
    let mut trace = init.trace;
    let mut w = init.w;
    let increm = IncremInfl::initialize(&model, &data, &w);

    // Replay rounds 0..(B/b − 1): select with Infl, clean with the
    // suggestion, refresh the model; the final state is "the last round".
    let rounds = 100 / b - 1;
    let mut w_eval = w.clone();
    for _ in 0..rounds {
        let pool = data.uncleaned_indices();
        let v = influence_vector(
            &model,
            &cfg.objective,
            &data,
            val,
            &w_eval,
            &InflConfig::default(),
        );
        let (scores, _) = increm.select(&model, &data, &w_eval, &v, &pool, b, cfg.objective.gamma);
        let selections: Vec<Selection> = scores
            .iter()
            .map(|s| Selection {
                index: s.index,
                suggested: Some(s.suggested),
            })
            .collect();
        let old = data.clone();
        let _ = annotator.annotate(&mut data, &selections);
        let changed: Vec<usize> = selections
            .iter()
            .map(|s| s.index)
            .filter(|&i| data.is_clean(i))
            .collect();
        let upd = ctor.update(&model, &cfg.objective, &old, &data, &changed, &trace);
        w = upd.w;
        trace = upd.trace;
        w_eval = w.clone();
    }

    // ---- Timed measurements on the last-round state. ----
    let pool = data.uncleaned_indices();
    let mut out = Measurement {
        time_inf_full: RunningStats::new(),
        time_inf_increm: RunningStats::new(),
        time_grad_full: RunningStats::new(),
        time_grad_increm: RunningStats::new(),
        candidates: 0,
        pool: pool.len(),
        identical: true,
    };
    for _ in 0..reps {
        // Full: one CG solve + exact influence of every pool sample.
        let t0 = Instant::now();
        let v = influence_vector(
            &model,
            &cfg.objective,
            &data,
            val,
            &w_eval,
            &InflConfig::default(),
        );
        let tg = Instant::now();
        let mut full =
            rank_infl_with_vector(&model, &data, &w_eval, &v, &pool, cfg.objective.gamma);
        let grad_full = tg.elapsed();
        full.truncate(b);
        out.time_inf_full.push(t0.elapsed().as_secs_f64());
        out.time_grad_full.push(grad_full.as_secs_f64());

        // Increm-Infl: CG solve + Theorem-1 bounds + exact influence of
        // the candidates only.
        let t0 = Instant::now();
        let v = influence_vector(
            &model,
            &cfg.objective,
            &data,
            val,
            &w_eval,
            &InflConfig::default(),
        );
        let tg = Instant::now();
        let (cands, stats) =
            increm.candidates(&model, &data, &w_eval, &v, &pool, b, cfg.objective.gamma);
        let mut inc =
            rank_infl_with_vector(&model, &data, &w_eval, &v, &cands, cfg.objective.gamma);
        let grad_inc = tg.elapsed();
        inc.truncate(b);
        out.time_inf_increm.push(t0.elapsed().as_secs_f64());
        out.time_grad_increm.push(grad_inc.as_secs_f64());
        out.candidates = stats.candidates;

        let fs: Vec<usize> = full.iter().map(|s| s.index).collect();
        let is: Vec<usize> = inc.iter().map(|s| s.index).collect();
        out.identical &= fs == is;
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_value(&args, "--scale", 5usize);
    let reps = arg_value(&args, "--reps", 5usize);
    let b = arg_value(&args, "--b", 10usize);

    let datasets = ["MIMIC", "Retina", "Chexpert", "Fashion", "Fact", "Twitter"];
    let header: Vec<String> = [
        "dataset",
        "Time_inf Full (ms)",
        "Time_inf Increm (ms)",
        "speedup",
        "Time_grad Full (ms)",
        "Time_grad Increm (ms)",
        "speedup",
        "evaluated",
        "identical top-b",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut measurements = Vec::new();
    for d in datasets {
        let m = measure(d, scale, reps, b);
        let ms = |s: &RunningStats| format!("{:.2}\u{b1}{:.2}", s.mean() * 1e3, s.std_dev() * 1e3);
        let speed =
            |a: &RunningStats, b: &RunningStats| format!("{:.1}x", a.mean() / b.mean().max(1e-12));
        rows.push(vec![
            d.to_string(),
            ms(&m.time_inf_full),
            ms(&m.time_inf_increm),
            speed(&m.time_inf_full, &m.time_inf_increm),
            ms(&m.time_grad_full),
            ms(&m.time_grad_increm),
            speed(&m.time_grad_full, &m.time_grad_increm),
            format!("{}/{}", m.candidates, m.pool),
            m.identical.to_string(),
        ]);
        measurements.push((d, m));
    }
    print_table(
        &format!("Table 2 — selector timing, Full vs Increm-Infl (b={b}, scale 1/{scale})"),
        &header,
        &rows,
    );
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let path = write_results_csv("table2", &header_refs, &rows);
    eprintln!("wrote {}", path.display());

    // telemetry.v1 companion document: the same measurements with
    // machine-readable units and the hardware context (DESIGN.md §10).
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", chef_obs::SCHEMA_VERSION);
    w.field_str("kind", "table2");
    w.key("context");
    w.begin_object();
    w.field_u64("available_cores", chef_obs::available_cores() as u64);
    w.field_u64("rayon_threads", rayon::current_num_threads() as u64);
    w.field_u64("scale", scale as u64);
    w.field_u64("reps", reps as u64);
    w.field_u64("b", b as u64);
    w.end_object();
    w.key("results");
    w.begin_array();
    for (d, m) in &measurements {
        w.begin_object();
        w.field_str("dataset", d);
        w.field_u64("pool", m.pool as u64);
        w.field_u64("scored", m.candidates as u64);
        w.field_u64("pruned", (m.pool - m.candidates) as u64);
        w.field_f64(
            "bound_hit_rate",
            (m.pool - m.candidates) as f64 / m.pool.max(1) as f64,
        );
        for (key, stats) in [
            ("time_inf_full_ms", &m.time_inf_full),
            ("time_inf_increm_ms", &m.time_inf_increm),
            ("time_grad_full_ms", &m.time_grad_full),
            ("time_grad_increm_ms", &m.time_grad_increm),
        ] {
            w.key(key);
            w.begin_object();
            w.field_f64("mean", stats.mean() * 1e3);
            w.field_f64("std", stats.std_dev() * 1e3);
            w.end_object();
        }
        w.field_bool("identical_top_b", m.identical);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let tpath = results_dir().join("table2_telemetry.json");
    std::fs::write(&tpath, w.finish() + "\n").expect("write table2_telemetry.json");
    eprintln!("wrote {}", tpath.display());
}

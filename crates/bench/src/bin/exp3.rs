//! **Exp3** — Figure 2 of the CHEF paper.
//!
//! Accumulated model-constructor runtime across cleaning rounds,
//! DeltaGrad-L vs Retrain, plus the end-of-run F1 parity check (the
//! "Infl (two) + DeltaGrad" column of Table 1 measures the same thing
//! from the quality side).
//!
//! ```text
//! cargo run --release -p chef-bench --bin exp3 [--scale 5] [--rounds 10]
//! ```

use chef_bench::prep::arg_value;
use chef_bench::{prepare, print_table, results_dir, run_cell, write_results_csv, Cell, Method};
use chef_data::paper_suite;
use chef_obs::JsonWriter;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_value(&args, "--scale", 5usize);
    let rounds = arg_value(&args, "--rounds", 10usize);
    let b = arg_value(&args, "--b", 10usize);
    let suite = paper_suite(scale);

    let header: Vec<String> = {
        let mut h = vec!["dataset".to_string(), "constructor".to_string()];
        h.extend((1..=rounds).map(|r| format!("r{r} (ms)")));
        h.push("final F1".into());
        h
    };
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut speedups = Vec::new();
    let mut cell_docs: Vec<(String, &'static str, String)> = Vec::new();

    for spec in &suite {
        let prepared = prepare(spec, 0);
        let mut totals = Vec::new();
        for method in [Method::InflTwo, Method::InflTwoDeltaGrad] {
            let cell = Cell {
                dataset: spec.name.to_string(),
                method,
                b,
                budget: b * rounds,
                gamma: 0.8,
                seed: 0,
                neural: false,
            };
            let result = run_cell(&prepared, &cell);
            let name = if method == Method::InflTwo {
                "Retrain"
            } else {
                "DeltaGrad-L"
            };
            let mut acc = 0.0;
            let mut row = vec![spec.name.to_string(), name.to_string()];
            for r in &result.report.rounds {
                acc += r.update_time.as_secs_f64() * 1e3;
                row.push(format!("{acc:.1}"));
            }
            while row.len() < 2 + rounds {
                row.push("-".into());
            }
            row.push(format!("{:.4}", result.cleaned_f1));
            totals.push(acc);
            csv_rows.push(row.clone());
            rows.push(row);
            cell_docs.push((spec.name.to_string(), name, result.telemetry_json));
        }
        if totals.len() == 2 && totals[1] > 0.0 {
            speedups.push((spec.name, totals[0] / totals[1]));
        }
    }

    print_table(
        &format!(
            "Figure 2 — accumulated model-constructor time over {rounds} rounds (b={b}, scale 1/{scale})"
        ),
        &header,
        &rows,
    );
    println!("\nDeltaGrad-L speed-up over Retrain (accumulated):");
    for (name, s) in &speedups {
        println!("  {name:<9} {s:.1}x");
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let path = write_results_csv("figure2", &header_refs, &csv_rows);
    eprintln!("wrote {}", path.display());

    // telemetry.v1 companion: one full per-cell export (rounds with
    // exact-vs-replay step counts, spans, histograms) per dataset ×
    // constructor, embedded verbatim (DESIGN.md §10).
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", chef_obs::SCHEMA_VERSION);
    w.field_str("kind", "figure2");
    w.key("context");
    w.begin_object();
    w.field_u64("available_cores", chef_obs::available_cores() as u64);
    w.field_u64("scale", scale as u64);
    w.field_u64("rounds", rounds as u64);
    w.field_u64("b", b as u64);
    w.end_object();
    w.key("cells");
    w.begin_array();
    for (dataset, constructor, doc) in &cell_docs {
        w.begin_object();
        w.field_str("dataset", dataset);
        w.field_str("constructor", constructor);
        w.key("telemetry");
        w.raw(doc);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let tpath = results_dir().join("figure2_telemetry.json");
    std::fs::write(&tpath, w.finish() + "\n").expect("write figure2_telemetry.json");
    eprintln!("wrote {}", tpath.display());
}

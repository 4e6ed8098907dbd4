//! Smoke test: every workload at tiny sizes, untraced and traced. Each
//! workload must print every metric `BENCHMARK.json` names, with its unit
//! and a finite value, pass its correctness checks, and leave no scratch
//! directory behind.

use chef_obs::{parse_json, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).expect(key)
}

/// `(name, unit)` of every metric in one table of BENCHMARK.json.
fn table(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect(key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

/// Run every workload; return the `workload metric value unit n=N` lines.
fn run(target: &Path, trace: &str) -> Vec<(String, String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_chef-benchmark"))
        .args(["--smoke", "--seconds", "0", "--trace", trace])
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, name, value, unit, n] if n.starts_with("n=") => Some((
                    w.to_string(),
                    name.to_string(),
                    value.parse().ok()?,
                    unit.to_string(),
                )),
                _ => None,
            }
        })
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "unoptimized kernels cannot keep up with the served open loop; use --release"
)]
fn every_metric_is_printed_and_scratch_is_removed() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect();
    let target =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", std::process::id()));

    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let lines = run(&target, trace);
        for w in &workloads {
            for (name, unit) in table(&doc, key) {
                let found = lines.iter().find(|(lw, ln, _, _)| lw == w && *ln == name);
                let Some((_, _, value, printed_unit)) = found else {
                    panic!("{w} did not print {name}");
                };
                assert_eq!(printed_unit, &unit, "{w} {name}: unit");
                assert!(value.is_finite(), "{w} {name} = {value}");
            }
        }
    }

    let leftovers: Vec<String> = std::fs::read_dir(&target)
        .expect("the runs created the target directory")
        .map(|e| {
            e.expect("read target entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("benchmark-"))
        .collect();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");
    std::fs::remove_dir_all(&target).expect("remove the smoke target directory");
}

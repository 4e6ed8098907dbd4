//! Out-of-core scaling bench: one full cleaning round on an in-memory
//! dataset vs the same data served from a memory-mapped store
//! directory, at n ∈ {50k, 200k, 1M} plus a disk-budget-gated n=10M
//! point, with a **cold-open lane** measuring open → first scored
//! block under eager vs lazy integrity.
//!
//! For each size the parent **streams** a training store to disk once
//! (`generate_train_store`, so the parent itself never materializes the
//! features), then re-execs the current binary once per measurement —
//! peak RSS (`VmHWM` in `/proc/self/status`) is a per-process
//! high-water mark that cannot be reset between measurements:
//!
//! * `memory`: the child materializes the store into a plain [`Dataset`](chef_model::Dataset)
//!   and runs the round on it (the pre-§15 configuration),
//! * `mmap-eager`: the round runs directly on the [`MmapStore`] with a
//!   bounded residency window and open-time checksum verification,
//! * `mmap-lazy`: same, but `IntegrityMode::LazyFirstTouch` + the
//!   background verify-and-warm prefetcher,
//! * `mmap-lazy-nopf`: lazy integrity with the prefetcher disabled
//!   (the serial twin of the pipeline),
//! * `cold-eager` / `cold-lazy`: no cleaning round — time from
//!   `open_with` to the first Infl-scored block (256 rows, fixed probe
//!   vectors), the cold-open lane.
//!
//! Every full-round child weakens labels with the same seed and reports
//! a **selection fingerprint** (FNV-1a over every selected index +
//! suggested label + the final parameter bits + final F1 bits); the
//! parent asserts all modes match bit-for-bit before writing
//! `BENCH_oocs.json` — the document is only ever written for runs where
//! out-of-core execution (and integrity laziness, and prefetch overlap)
//! provably changed nothing but footprint and wall time. The cold-open
//! children fingerprint their scored block the same way. See DESIGN.md
//! §15 and EXPERIMENTS.md (`oocs_scale`).
//!
//! Usage: `cargo run --release -p chef-bench --bin oocs_scale`
//! (`--quick` for a 50k-only CI smoke with no JSON output, `--integrity
//! eager|lazy` to pick the quick smoke's mmap mode, `--force-pread` to
//! smoke the positional-read fallback, `--sizes a,b,c` to override the
//! size list, `--no-ten-m` to skip the n=10M attempt, `--dir PATH` for
//! the scratch directory, which defaults to `target/oocs_scale-<pid>`
//! and is removed on exit).

use chef_core::{
    rank_infl_with_vector, AnnotationConfig, ConstructorKind, InflScore, InflSelector,
    LabelStrategy, Pipeline, PipelineConfig, StorePipelineReport,
};
use chef_data::store::write_store;
use chef_data::{
    generate_train_store, DatasetKind, DatasetSpec, IntegrityMode, MmapStore, StoreOptions,
};
use chef_model::{DatasetStore, LogisticRegression, Model, WeightedObjective};
use chef_obs::JsonWriter;
use chef_train::SgdConfig;
use chef_weak::random_probabilistic_labels;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Sentinel argument marking a re-exec'd measurement child.
const CHILD_FLAG: &str = "--_oocs-child";
/// Prefix of the one stdout line carrying a child's JSON fragment.
const RESULT_MARKER: &str = "@@OOCS_RESULT ";

/// Rows scored by the cold-open probe (one selector block's worth).
const COLD_PROBE_ROWS: usize = 256;
/// Scratch-disk safety factor for the n=10M gate: shards + labels +
/// val/test stores + filesystem slack.
const TEN_M: usize = 10_000_000;

const SEED: u64 = 1;
const DIM: usize = 32;
const CHUNK_ROWS: usize = 8192;
const RESIDENCY_CHUNKS: usize = 32;
/// One cleaning round: budget == round_size.
const ROUND: usize = 16;

fn spec_for(n: usize) -> DatasetSpec {
    DatasetSpec {
        name: "oocs_scale",
        kind: DatasetKind::FullyClean,
        train: n,
        val: 2_000,
        test: 1_000,
        dim: DIM,
        num_classes: 2,
        class_sep: 1.0,
        positive_rate: 0.45,
        truth_noise: 0.0,
        weak_quality: 0.5,
        annotator_error: 0.05,
    }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        budget: ROUND,
        round_size: ROUND,
        objective: WeightedObjective::new(0.8, 0.2),
        sgd: SgdConfig {
            lr: 0.1,
            // Two epochs keep the 1M-row child's wall time in minutes
            // while still exercising a full SGD stream per round.
            epochs: 2,
            batch_size: 512,
            seed: SEED,
            cache_provenance: true,
        },
        constructor: ConstructorKind::Retrain,
        annotation: AnnotationConfig {
            strategy: LabelStrategy::HumansOnly(3),
            error_rate: 0.05,
            seed: SEED ^ 0x77,
        },
        ..PipelineConfig::default()
    }
}

/// Peak resident set of this process in bytes (`VmHWM`), the
/// high-water mark the kernel tracks for us — covers every allocation
/// and faulted-in mapped page since the process started.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Bit-exact digest of everything the cleaning round decided: the
/// selected samples (with suggestions), the final parameters, and the
/// F1s. Two runs with equal fingerprints made identical choices.
fn fingerprint(report: &StorePipelineReport) -> String {
    let mut h = FNV_OFFSET;
    for round in &report.rounds {
        for sel in &round.selected {
            h = fnv_fold(h, &(sel.index as u64).to_le_bytes());
            let suggested = sel.suggested.map_or(0u64, |c| c as u64 + 1);
            h = fnv_fold(h, &suggested.to_le_bytes());
        }
        h = fnv_fold(h, &round.val_f1.to_bits().to_le_bytes());
        h = fnv_fold(h, &round.test_f1.to_bits().to_le_bytes());
    }
    for &w in &report.final_w {
        h = fnv_fold(h, &w.to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

fn dirs_for(root: &Path, n: usize) -> (PathBuf, PathBuf, PathBuf) {
    (
        root.join(format!("n{n}-train")),
        root.join(format!("n{n}-val")),
        root.join(format!("n{n}-test")),
    )
}

/// Store options for an mmap-mode child.
fn store_opts(
    integrity: IntegrityMode,
    background_prefetch: bool,
    force_pread: bool,
) -> StoreOptions {
    StoreOptions {
        residency_chunks: RESIDENCY_CHUNKS,
        force_pread,
        integrity,
        background_prefetch,
    }
}

/// Bit-exact digest of a scored block (cold-open lane): every index,
/// suggestion and score bit pattern.
fn score_fingerprint(scores: &[InflScore]) -> String {
    let mut h = FNV_OFFSET;
    for s in scores {
        h = fnv_fold(h, &(s.index as u64).to_le_bytes());
        h = fnv_fold(h, &(s.suggested as u64).to_le_bytes());
        h = fnv_fold(h, &s.score.to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

/// Cold-open probe: time from `open_with` until the first block of
/// Infl scores exists. Deterministic probe vectors stand in for the
/// trained parameters (a real run would need init training first,
/// which is identical across integrity modes and would drown the
/// open-path difference this lane isolates).
fn run_cold_probe(train_dir: &Path, n: usize, integrity: IntegrityMode, mode: &str) {
    let model = LogisticRegression::new(DIM, 2);
    let m = model.num_params();
    let w: Vec<f64> = (0..m).map(|j| 0.01 * ((j % 7) as f64 - 3.0)).collect();
    let v: Vec<f64> = (0..m).map(|j| 0.005 * ((j % 5) as f64 - 2.0)).collect();
    let candidates: Vec<usize> = (0..COLD_PROBE_ROWS.min(n)).collect();

    let t0 = Instant::now();
    let store =
        MmapStore::open_with(train_dir, store_opts(integrity, false, false)).expect("open store");
    let open_s = t0.elapsed().as_secs_f64();
    let scores = rank_infl_with_vector(&model, &store, &w, &v, &candidates, 0.2);
    let cold_s = t0.elapsed().as_secs_f64();
    let io = store.io_stats().expect("mmap store reports io stats");

    let mut out = JsonWriter::new();
    out.begin_object();
    out.field_str("mode", mode);
    out.field_u64("n", n as u64);
    out.field_f64("open_s", open_s);
    out.field_f64("cold_open_s", cold_s);
    out.field_u64("probe_rows", candidates.len() as u64);
    out.field_u64("verify_ms", io.verify_ms);
    out.field_u64("blocks_verified", io.blocks_verified);
    out.field_u64("peak_rss_bytes", peak_rss_bytes());
    out.field_str("fingerprint", &score_fingerprint(&scores));
    out.end_object();
    println!("{RESULT_MARKER}{}", out.finish());
}

fn run_child(args: &[String]) {
    let n: usize = chef_bench::arg_value(args, "--n", 0);
    let mode = args
        .iter()
        .position(|a| a == "--mode")
        .and_then(|i| args.get(i + 1))
        .expect("child needs --mode")
        .clone();
    let force_pread = args.iter().any(|a| a == "--force-pread");
    let root = PathBuf::from(
        args.iter()
            .position(|a| a == "--dir")
            .and_then(|i| args.get(i + 1))
            .expect("child needs --dir"),
    );
    let (train_dir, val_dir, test_dir) = dirs_for(&root, n);

    // Cold-open probes never run the pipeline and need no val/test.
    match mode.as_str() {
        "cold-eager" => return run_cold_probe(&train_dir, n, IntegrityMode::Eager, &mode),
        "cold-lazy" => return run_cold_probe(&train_dir, n, IntegrityMode::LazyFirstTouch, &mode),
        _ => {}
    }

    // Val/test are small and trusted: materialize for every mode.
    let val = MmapStore::open(&val_dir)
        .expect("open val store")
        .to_dataset();
    let test = MmapStore::open(&test_dir)
        .expect("open test store")
        .to_dataset();

    let model = LogisticRegression::new(DIM, 2);
    let mut selector = InflSelector::full();
    let pipeline = Pipeline::new(pipeline_config());
    let weaken_seed = SEED ^ 0xabcd;

    // (integrity, background_prefetch) per mmap mode; `memory` opens
    // eagerly too — the pre-§15 configuration verified everything
    // before materializing.
    let mmap_opts = match mode.as_str() {
        "memory" | "mmap-eager" => store_opts(IntegrityMode::Eager, true, force_pread),
        "mmap-lazy" => store_opts(IntegrityMode::LazyFirstTouch, true, force_pread),
        "mmap-lazy-nopf" => store_opts(IntegrityMode::LazyFirstTouch, false, force_pread),
        other => panic!("unknown --mode {other:?}"),
    };

    let start = Instant::now();
    let mut store_io = None;
    let report = if mode == "memory" {
        // Pre-§15 configuration: everything heap-resident. The
        // bounded-residency open keeps the *materialization* scan
        // from counting the whole file against this child's RSS —
        // only the owned Dataset should.
        let store = MmapStore::open_with(&train_dir, mmap_opts).expect("open train store");
        let mut data = store.to_dataset();
        drop(store);
        random_probabilistic_labels(&mut data, weaken_seed);
        pipeline
            .round_loop(&model, &mut data, &val, &test, &mut selector)
            .run_sync()
    } else {
        let mut store = MmapStore::open_with(&train_dir, mmap_opts).expect("open train store");
        random_probabilistic_labels(&mut store, weaken_seed);
        let report = pipeline
            .round_loop(&model, &mut store, &val, &test, &mut selector)
            .run_sync();
        store_io = store.io_stats();
        report
    };
    let wall_s = start.elapsed().as_secs_f64();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("mode", &mode);
    w.field_u64("n", n as u64);
    w.field_f64("wall_s", wall_s);
    w.field_f64("init_s", report.init_time.as_secs_f64());
    w.field_f64(
        "select_s",
        report
            .rounds
            .iter()
            .map(|r| r.select_time.as_secs_f64())
            .sum(),
    );
    w.field_u64("peak_rss_bytes", peak_rss_bytes());
    w.field_u64("cleaned", report.cleaned_total as u64);
    w.field_f64("val_f1", report.final_val_f1());
    w.field_f64("test_f1", report.final_test_f1());
    if let Some(io) = store_io {
        w.field_u64("verify_ms", io.verify_ms);
        w.field_u64("blocks_verified", io.blocks_verified);
        w.field_u64("lazy_verify_hits", io.lazy_verify_hits);
        w.field_u64("prefetch_overlap_ms", io.prefetch_overlap_ms);
    }
    w.field_str("fingerprint", &fingerprint(&report));
    w.end_object();
    println!("{RESULT_MARKER}{}", w.finish());
}

/// Re-exec this binary for one `(n, mode)` cell, forwarding its chatter
/// and returning the marker fragment.
fn spawn_child(n: usize, mode: &str, root: &Path, extra: &[&str]) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(&exe)
        .arg(CHILD_FLAG)
        .args(["--n", &n.to_string(), "--mode", mode])
        .arg("--dir")
        .arg(root)
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn oocs child");
    assert!(
        out.status.success(),
        "oocs child (n={n}, mode={mode}) failed: {}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut fragment = None;
    for line in stdout.lines() {
        match line.strip_prefix(RESULT_MARKER) {
            Some(f) => fragment = Some(f.to_string()),
            None => println!("[{mode} n={n}] {line}"),
        }
    }
    fragment.unwrap_or_else(|| panic!("child (n={n}, mode={mode}) emitted no result marker"))
}

fn field_str(fragment: &str, key: &str) -> String {
    chef_obs::parse_json(fragment)
        .expect("child fragment parses")
        .get(key)
        .unwrap_or_else(|| panic!("fragment missing {key}"))
        .as_str()
        .expect("string field")
        .to_string()
}

fn field_u64(fragment: &str, key: &str) -> u64 {
    field_f64(fragment, key) as u64
}

fn field_f64(fragment: &str, key: &str) -> f64 {
    chef_obs::parse_json(fragment)
        .expect("child fragment parses")
        .get(key)
        .unwrap_or_else(|| panic!("fragment missing {key}"))
        .as_f64()
        .expect("numeric field")
}

/// Free bytes on the filesystem holding `path` (via `df`), or `None`
/// if that could not be determined — in which case the n=10M lane is
/// skipped rather than risking filling the disk.
fn free_disk_bytes(path: &Path) -> Option<u64> {
    let out = Command::new("df")
        .args(["-B1", "--output=avail"])
        .arg(path)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .nth(1)?
        .trim()
        .parse()
        .ok()
}

fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// Stream the train/val/test stores for one size into the scratch root.
fn generate_stores(n: usize, root: &Path) {
    let spec = spec_for(n);
    let (train_dir, val_dir, test_dir) = dirs_for(root, n);
    println!("n={n}: streaming store to {}", train_dir.display());
    let (manifest, val, test) =
        generate_train_store(&spec, SEED, &train_dir, CHUNK_ROWS).expect("generate store");
    write_store(&val, &val_dir, CHUNK_ROWS).expect("write val store");
    write_store(&test, &test_dir, CHUNK_ROWS).expect("write test store");
    drop((val, test));
    println!(
        "n={n}: {} shards, {} MB of features",
        manifest.chunks.len(),
        n * DIM * 8 / (1 << 20)
    );
}

/// Disk hygiene: drop one size's shards before generating the next
/// (1M alone is a quarter GB of features).
fn cleanup_stores(n: usize, root: &Path) {
    let (train_dir, val_dir, test_dir) = dirs_for(root, n);
    for d in [&train_dir, &val_dir, &test_dir] {
        std::fs::remove_dir_all(d).expect("remove store dir");
    }
}

/// Cold-open lane: eager vs lazy open-to-first-scored-block, with the
/// scored block asserted bit-identical. Returns the two fragments and
/// the eager/lazy speedup.
fn run_cold_lane(n: usize, root: &Path) -> (String, String, f64) {
    let cold_eager = spawn_child(n, "cold-eager", root, &[]);
    let cold_lazy = spawn_child(n, "cold-lazy", root, &[]);
    assert_eq!(
        field_str(&cold_eager, "fingerprint"),
        field_str(&cold_lazy, "fingerprint"),
        "n={n}: cold-open scored block differs between Eager and LazyFirstTouch"
    );
    let (eager_s, lazy_s) = (
        field_f64(&cold_eager, "cold_open_s"),
        field_f64(&cold_lazy, "cold_open_s"),
    );
    let speedup = eager_s / lazy_s.max(1e-9);
    println!(
        "n={n}: cold-open eager={eager_s:.3}s lazy={lazy_s:.3}s ({speedup:.1}x, scored block bit-identical)"
    );
    (cold_eager, cold_lazy, speedup)
}

struct Row {
    n: usize,
    fingerprint: String,
    /// `(json key, child fragment)` per full-round mode that ran.
    modes: Vec<(&'static str, String)>,
    /// `(cold-eager fragment, cold-lazy fragment, speedup)`.
    cold: (String, String, f64),
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == CHILD_FLAG) {
        run_child(&args);
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let force_pread = args.iter().any(|a| a == "--force-pread");
    let no_ten_m = args.iter().any(|a| a == "--no-ten-m");
    let integrity_lane = args
        .iter()
        .position(|a| a == "--integrity")
        .and_then(|i| args.get(i + 1))
        .map_or("eager", String::as_str)
        .to_string();
    let sizes: Vec<usize> = match args
        .iter()
        .position(|a| a == "--sizes")
        .and_then(|i| args.get(i + 1))
    {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("--sizes: bad size"))
            .collect(),
        None if quick => vec![50_000],
        None => vec![50_000, 200_000, 1_000_000],
    };
    let root = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            workspace_root()
                .join("target")
                .join(format!("oocs_scale-{}", std::process::id()))
        });
    println!(
        "oocs_scale: sizes={sizes:?} dim={DIM} chunk_rows={CHUNK_ROWS} residency_chunks={RESIDENCY_CHUNKS} scratch={}",
        root.display()
    );

    if quick {
        // CI smoke: memory vs one mmap configuration (picked by
        // --integrity / --force-pread), fingerprints asserted, plus the
        // cold-open lane under lazy so the first-touch path runs.
        let mmap_mode = match integrity_lane.as_str() {
            "lazy" => "mmap-lazy",
            "eager" => "mmap-eager",
            other => panic!("--integrity must be eager or lazy, got {other:?}"),
        };
        let extra: Vec<&str> = if force_pread {
            vec!["--force-pread"]
        } else {
            vec![]
        };
        for &n in &sizes {
            generate_stores(n, &root);
            let memory = spawn_child(n, "memory", &root, &[]);
            let mmap = spawn_child(n, mmap_mode, &root, &extra);
            assert_eq!(
                field_str(&memory, "fingerprint"),
                field_str(&mmap, "fingerprint"),
                "n={n}: memory and {mmap_mode} runs diverged"
            );
            if !force_pread {
                run_cold_lane(n, &root);
            }
            println!("n={n}: quick smoke ok ({mmap_mode}, force_pread={force_pread})");
            cleanup_stores(n, &root);
        }
        if root.exists() {
            std::fs::remove_dir_all(&root).expect("remove scratch dir");
        }
        println!("quick mode: skipping BENCH_oocs.json");
        return;
    }

    let mut rows: Vec<Row> = Vec::new();
    for &n in &sizes {
        generate_stores(n, &root);
        let memory = spawn_child(n, "memory", &root, &[]);
        let mmap_eager = spawn_child(n, "mmap-eager", &root, &[]);
        let mmap_lazy = spawn_child(n, "mmap-lazy", &root, &[]);
        let mmap_nopf = spawn_child(n, "mmap-lazy-nopf", &root, &[]);
        let fp = field_str(&memory, "fingerprint");
        for (name, frag) in [
            ("mmap-eager", &mmap_eager),
            ("mmap-lazy", &mmap_lazy),
            ("mmap-lazy-nopf", &mmap_nopf),
        ] {
            assert_eq!(
                fp,
                field_str(frag, "fingerprint"),
                "n={n}: {name} diverged from the in-memory run"
            );
        }
        let (rss_mem, rss_lazy) = (
            field_u64(&memory, "peak_rss_bytes"),
            field_u64(&mmap_lazy, "peak_rss_bytes"),
        );
        println!(
            "n={n}: all four fingerprints match ({fp}); peak RSS memory={} MB mmap-lazy={} MB ({:.2}x)",
            rss_mem / (1 << 20),
            rss_lazy / (1 << 20),
            rss_mem as f64 / rss_lazy.max(1) as f64,
        );
        let cold = run_cold_lane(n, &root);
        if n >= 1_000_000 {
            assert!(
                cold.2 >= 5.0,
                "n={n}: cold-open speedup {:.2}x under LazyFirstTouch is below the 5x target",
                cold.2
            );
        }
        rows.push(Row {
            n,
            fingerprint: fp,
            modes: vec![
                ("memory", memory),
                ("mmap_eager", mmap_eager),
                ("mmap_lazy", mmap_lazy),
                ("mmap_lazy_noprefetch", mmap_nopf),
            ],
            cold,
        });
        cleanup_stores(n, &root);
    }

    // n=10M proof, gated on scratch-disk budget: ~2.4 GB of train
    // shards + labels + val/test + slack. The full-round matrix shrinks
    // to memory vs mmap-lazy (eager cold-open cost is still measured by
    // the cold lane; a full eager round at 10M adds nothing but hours).
    let mut ten_m_skip: Option<String> = None;
    if no_ten_m {
        ten_m_skip = Some("--no-ten-m".to_string());
    } else if !sizes.contains(&TEN_M) {
        let needed = ((TEN_M * DIM * 8) as f64 * 1.15 + 4e8) as u64;
        match free_disk_bytes(&workspace_root()) {
            Some(avail) if avail >= needed => {
                generate_stores(TEN_M, &root);
                let memory = spawn_child(TEN_M, "memory", &root, &[]);
                let mmap_lazy = spawn_child(TEN_M, "mmap-lazy", &root, &[]);
                let fp = field_str(&memory, "fingerprint");
                assert_eq!(
                    fp,
                    field_str(&mmap_lazy, "fingerprint"),
                    "n=10M: mmap-lazy diverged from the in-memory run"
                );
                let cold = run_cold_lane(TEN_M, &root);
                assert!(
                    cold.2 >= 5.0,
                    "n=10M: cold-open speedup {:.2}x is below the 5x target",
                    cold.2
                );
                rows.push(Row {
                    n: TEN_M,
                    fingerprint: fp,
                    modes: vec![("memory", memory), ("mmap_lazy", mmap_lazy)],
                    cold,
                });
                cleanup_stores(TEN_M, &root);
            }
            Some(avail) => {
                ten_m_skip = Some(format!(
                    "disk budget: {} MB free, need {} MB of scratch",
                    avail / (1 << 20),
                    needed / (1 << 20)
                ));
            }
            None => {
                ten_m_skip = Some("disk budget: free space could not be determined".to_string());
            }
        }
        if let Some(reason) = &ten_m_skip {
            println!("n=10M lane skipped ({reason}); re-emitting the measured trajectory only");
        }
    }
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("remove scratch dir");
    }

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", chef_obs::SCHEMA_VERSION);
    w.field_str("kind", "oocs_scale");
    w.key("context");
    w.begin_object();
    w.field_u64("dim", DIM as u64);
    w.field_u64("chunk_rows", CHUNK_ROWS as u64);
    w.field_u64("residency_chunks", RESIDENCY_CHUNKS as u64);
    w.field_u64("round_size", ROUND as u64);
    w.field_u64("sgd_epochs", 2);
    w.field_u64("seed", SEED);
    w.field_u64("block_bytes", chef_data::store::DEFAULT_BLOCK_BYTES as u64);
    w.field_u64("cold_probe_rows", COLD_PROBE_ROWS as u64);
    w.field_str("selector", "Infl (full ranking, sharded top-b merge)");
    w.field_str(
        "rss_metric",
        "VmHWM from /proc/self/status, per re-exec'd child",
    );
    w.field_str(
        "cold_open_metric",
        "open_with -> first Infl-scored 256-row block, fixed probe vectors",
    );
    w.field_u64(
        "available_cores",
        chef_bench::sweep::available_cores() as u64,
    );
    w.end_object();
    w.key("ten_m");
    w.begin_object();
    w.field_bool("attempted", ten_m_skip.is_none());
    if let Some(reason) = &ten_m_skip {
        w.field_str("skipped_reason", reason);
    }
    w.end_object();
    w.key("results");
    w.begin_array();
    for row in &rows {
        w.begin_object();
        w.field_u64("n", row.n as u64);
        w.field_u64("feature_bytes", (row.n * DIM * 8) as u64);
        w.field_str("fingerprint", &row.fingerprint);
        w.field_bool("fingerprint_match", true);
        let rss_mem = field_u64(&row.modes[0].1, "peak_rss_bytes");
        let rss_lazy = row
            .modes
            .iter()
            .find(|(k, _)| *k == "mmap_lazy")
            .map(|(_, f)| field_u64(f, "peak_rss_bytes"))
            .unwrap_or(rss_mem);
        w.field_f64("peak_rss_ratio", rss_mem as f64 / rss_lazy.max(1) as f64);
        for (key, frag) in &row.modes {
            w.key(key);
            w.raw(frag);
        }
        w.key("cold_open");
        w.begin_object();
        w.field_f64("speedup", row.cold.2);
        w.field_bool("fingerprint_match", true);
        w.key("eager");
        w.raw(&row.cold.0);
        w.key("lazy");
        w.raw(&row.cold.1);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let path = workspace_root().join("BENCH_oocs.json");
    std::fs::write(&path, w.finish() + "\n").expect("write BENCH_oocs.json");
    println!("wrote {}", path.display());
}

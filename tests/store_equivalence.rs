//! Storage-equivalence harness for the out-of-core dataset substrate
//! (DESIGN.md §15).
//!
//! The core claim under test: running the cleaning pipeline on a
//! memory-mapped `store.v1` directory is **bit-identical** to running
//! it on the same data materialized as an in-memory [`Dataset`] — same
//! selector rankings, same suggested labels, same DeltaGrad-L replays,
//! same final parameter bits — across the full Infl selector, the
//! Increm-Infl selector (which additionally exercises the sharded
//! provenance initialization and the per-shard top-b merge), the
//! DeltaGrad-L constructor, the `pread` fallback, and a pathologically
//! small residency window (constant eviction). A scattered `grad_block`
//! over more shards than the window holds must also enter each shard
//! once per block and match the in-memory gradient. Since `store.v2` the
//! harness also covers the integrity axis: `LazyFirstTouch` (with and
//! without the background prefetcher) must be bit-identical to `Eager`,
//! and a `store.v1` directory (no per-block checksum table) must still
//! open and produce the same bits. With `fault-inject`, the same
//! equivalence is asserted through a crash + `checkpoint.v1` resume on
//! a freshly opened store, and corruption lanes check that a bit-flip
//! slips past a lazy open but is caught on first touch of its block.
//!
//! Like the other equivalence suites, ci.sh runs this file at 1 and 4
//! rayon workers: the serial and parallel kernel paths must both uphold
//! the storage-independence claim.

use chef_core::{
    AnnotationConfig, ConstructorKind, InflSelector, LabelStrategy, Pipeline, PipelineConfig,
    StorePipelineReport,
};
use chef_data::{
    generate_train_store, DatasetKind, DatasetSpec, IntegrityMode, MmapStore, StoreOptions,
};
use chef_linalg::Workspace;
use chef_model::{Dataset, DatasetStore, LogisticRegression, Model, WeightedObjective};
use chef_train::{DeltaGradConfig, SgdConfig};
use chef_weak::random_probabilistic_labels;
use std::path::{Path, PathBuf};

const SEED: u64 = 5;
const WEAKEN_SEED: u64 = SEED ^ 0xabcd;
const CHUNK_ROWS: usize = 128; // 600 rows → 5 shards, the last one short

fn spec() -> DatasetSpec {
    DatasetSpec {
        name: "store_equivalence",
        kind: DatasetKind::FullyClean,
        train: 600,
        val: 120,
        test: 120,
        dim: 6,
        num_classes: 2,
        class_sep: 1.5,
        positive_rate: 0.5,
        truth_noise: 0.0,
        weak_quality: 0.5,
        annotator_error: 0.05,
    }
}

/// Build the on-disk store once per test, returning its directory and
/// the in-memory val/test parts.
fn make_store(tag: &str) -> (PathBuf, Dataset, Dataset) {
    let dir = std::env::temp_dir().join(format!("chef-store-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, val, test) = generate_train_store(&spec(), SEED, &dir, CHUNK_ROWS).expect("gen store");
    (dir, val, test)
}

fn config(ctor: ConstructorKind) -> PipelineConfig {
    PipelineConfig {
        budget: 20,
        round_size: 10,
        objective: WeightedObjective::new(0.8, 0.2),
        sgd: SgdConfig {
            lr: 0.1,
            epochs: 5,
            batch_size: 32,
            seed: 3,
            cache_provenance: true,
        },
        constructor: ctor,
        annotation: AnnotationConfig {
            strategy: LabelStrategy::HumansOnly(3),
            error_rate: 0.05,
            seed: 11,
        },
        ..PipelineConfig::default()
    }
}

fn selector(incremental: bool) -> InflSelector {
    if incremental {
        InflSelector::incremental()
    } else {
        InflSelector::full()
    }
}

/// Run the pipeline on the store served through mmap (with `opts`).
fn run_on_store(
    dir: &Path,
    opts: StoreOptions,
    ctor: ConstructorKind,
    incremental: bool,
    val: &Dataset,
    test: &Dataset,
) -> StorePipelineReport {
    let mut store = MmapStore::open_with(dir, opts).expect("open store");
    random_probabilistic_labels(&mut store, WEAKEN_SEED);
    let model = LogisticRegression::new(store.dim(), store.num_classes());
    let mut sel = selector(incremental);
    Pipeline::new(config(ctor))
        .round_loop(&model, &mut store, val, test, &mut sel)
        .run_sync()
}

/// Run the pipeline on the same data materialized in memory.
fn run_in_memory(
    dir: &Path,
    ctor: ConstructorKind,
    incremental: bool,
    val: &Dataset,
    test: &Dataset,
) -> StorePipelineReport {
    let mut data = MmapStore::open(dir).expect("open store").to_dataset();
    random_probabilistic_labels(&mut data, WEAKEN_SEED);
    let model = LogisticRegression::new(data.dim(), data.num_classes());
    let mut sel = selector(incremental);
    Pipeline::new(config(ctor))
        .round_loop(&model, &mut data, val, test, &mut sel)
        .run_sync()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

fn assert_equivalent(mem: &StorePipelineReport, store: &StorePipelineReport) {
    assert_eq!(mem.rounds.len(), store.rounds.len(), "round count");
    for (k, (a, b)) in mem.rounds.iter().zip(&store.rounds).enumerate() {
        let sel_a: Vec<_> = a.selected.iter().map(|s| (s.index, s.suggested)).collect();
        let sel_b: Vec<_> = b.selected.iter().map(|s| (s.index, s.suggested)).collect();
        assert_eq!(sel_a, sel_b, "round {k}: selections (index + suggestion)");
        assert_eq!(a.cleaned, b.cleaned, "round {k}: cleaned count");
        assert_eq!(a.val_f1.to_bits(), b.val_f1.to_bits(), "round {k}: val F1");
        assert_eq!(
            a.test_f1.to_bits(),
            b.test_f1.to_bits(),
            "round {k}: test F1"
        );
    }
    assert_bits_eq(&mem.final_w, &store.final_w, "final_w");
    assert_bits_eq(&mem.final_w_raw, &store.final_w_raw, "final_w_raw");
    assert_eq!(mem.cleaned_total, store.cleaned_total);
    assert_eq!(
        mem.initial_val_f1.to_bits(),
        store.initial_val_f1.to_bits(),
        "initial val F1"
    );
}

#[test]
fn full_infl_selector_is_bit_identical_across_stores() {
    let (dir, val, test) = make_store("full");
    let mem = run_in_memory(&dir, ConstructorKind::Retrain, false, &val, &test);
    let store = run_on_store(
        &dir,
        StoreOptions::default(),
        ConstructorKind::Retrain,
        false,
        &val,
        &test,
    );
    assert_equivalent(&mem, &store);
    assert!(mem.cleaned_total > 0, "fixture must actually clean");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn increm_selector_is_bit_identical_across_stores() {
    // Exercises the shard-aware provenance initialization and the
    // per-shard rank + deterministic k-way merge (DESIGN.md §15.4).
    let (dir, val, test) = make_store("increm");
    let mem = run_in_memory(&dir, ConstructorKind::Retrain, true, &val, &test);
    let store = run_on_store(
        &dir,
        StoreOptions::default(),
        ConstructorKind::Retrain,
        true,
        &val,
        &test,
    );
    assert_equivalent(&mem, &store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deltagrad_replay_is_bit_identical_across_stores() {
    let ctor = ConstructorKind::DeltaGradL(DeltaGradConfig::default());
    let (dir, val, test) = make_store("deltagrad");
    let mem = run_in_memory(&dir, ctor, false, &val, &test);
    let store = run_on_store(&dir, StoreOptions::default(), ctor, false, &val, &test);
    assert_equivalent(&mem, &store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pread_fallback_is_bit_identical() {
    let (dir, val, test) = make_store("pread");
    let mem = run_in_memory(&dir, ConstructorKind::Retrain, false, &val, &test);
    let store = run_on_store(
        &dir,
        StoreOptions {
            force_pread: true,
            ..StoreOptions::default()
        },
        ConstructorKind::Retrain,
        false,
        &val,
        &test,
    );
    assert_equivalent(&mem, &store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lazy_first_touch_is_bit_identical_to_eager() {
    // The integrity mode must only change *when* checksums are checked,
    // never what the selector sees — with or without the background
    // prefetch thread warming blocks ahead of the residency window.
    let (dir, val, test) = make_store("lazy");
    let mem = run_in_memory(&dir, ConstructorKind::Retrain, false, &val, &test);
    let lazy = run_on_store(
        &dir,
        StoreOptions {
            integrity: IntegrityMode::LazyFirstTouch,
            ..StoreOptions::default()
        },
        ConstructorKind::Retrain,
        false,
        &val,
        &test,
    );
    assert_equivalent(&mem, &lazy);
    let lazy_no_prefetch = run_on_store(
        &dir,
        StoreOptions {
            integrity: IntegrityMode::LazyFirstTouch,
            background_prefetch: false,
            ..StoreOptions::default()
        },
        ConstructorKind::Retrain,
        false,
        &val,
        &test,
    );
    assert_equivalent(&mem, &lazy_no_prefetch);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_manifest_store_is_still_bit_identical() {
    // Backward compat: a directory written before store.v2 has no
    // per-block checksum table. Demote the manifest to the v1 dialect
    // (drop block lines, flip the version header) and require the
    // pipeline to produce the same bits in every integrity mode.
    let (dir, val, test) = make_store("v1compat");
    let v2_path = dir.join(chef_data::store::MANIFEST_FILE_V2);
    let v2 = std::fs::read_to_string(&v2_path).unwrap();
    let mut v1 = String::new();
    for line in v2.lines() {
        if line.starts_with("block_bytes=")
            || line.starts_with("blocks=")
            || line.starts_with("labels_fnv64=")
        {
            continue;
        }
        if line == chef_data::store::STORE_VERSION_V2 {
            v1.push_str(chef_data::store::STORE_VERSION);
        } else {
            v1.push_str(line);
        }
        v1.push('\n');
    }
    std::fs::write(dir.join(chef_data::store::MANIFEST_FILE), v1).unwrap();
    std::fs::remove_file(&v2_path).unwrap();

    let mem = run_in_memory(&dir, ConstructorKind::Retrain, false, &val, &test);
    for integrity in [
        IntegrityMode::Eager,
        IntegrityMode::LazyFirstTouch,
        IntegrityMode::Off,
    ] {
        let store = run_on_store(
            &dir,
            StoreOptions {
                integrity,
                ..StoreOptions::default()
            },
            ConstructorKind::Retrain,
            false,
            &val,
            &test,
        );
        assert_equivalent(&mem, &store);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tiny_residency_window_changes_nothing_but_paging() {
    // residency_chunks = 1 forces an eviction on almost every chunk
    // transition; evicted pages must refault with identical contents.
    let (dir, val, test) = make_store("window");
    let mem = run_in_memory(&dir, ConstructorKind::Retrain, false, &val, &test);
    let store = run_on_store(
        &dir,
        StoreOptions {
            residency_chunks: 1,
            ..StoreOptions::default()
        },
        ConstructorKind::Retrain,
        false,
        &val,
        &test,
    );
    assert_equivalent(&mem, &store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scattered_grad_block_enters_each_shard_once() {
    // 600 rows in 60-row shards: 10 shards behind a 4-chunk window. A
    // stride walk across the pool changes shard on every row, as a
    // shuffled minibatch does.
    let dir = std::env::temp_dir().join(format!("chef-store-eq-{}-gather", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_train_store(&spec(), SEED, &dir, 60).expect("gen store");
    let mem = MmapStore::open(&dir).expect("open store").to_dataset();
    let store = MmapStore::open_with(
        &dir,
        StoreOptions {
            residency_chunks: 4,
            background_prefetch: false,
            ..StoreOptions::default()
        },
    )
    .expect("open store");
    let bounds = store.shard_boundaries();
    assert_eq!(bounds.len() - 1, 10);
    let batch: Vec<usize> = (0..256).map(|k| k * 367 % mem.len()).collect();
    let mut touched: Vec<usize> = batch
        .iter()
        .map(|&i| bounds.partition_point(|&lo| lo <= i) - 1)
        .collect();
    touched.sort_unstable();
    touched.dedup();

    let model = LogisticRegression::new(mem.dim(), mem.num_classes());
    let w: Vec<f64> = (0..model.num_params())
        .map(|j| 0.05 * (j % 5) as f64 - 0.1)
        .collect();
    let mut ws = Workspace::new();
    let mut g_mem = vec![0.0; model.num_params()];
    let mut g_store = vec![0.0; model.num_params()];
    model.grad_block(&w, &mem, &batch, 0.8, &mut g_mem, &mut ws);
    model.grad_block(&w, &store, &batch, 0.8, &mut g_store, &mut ws);
    let entered = store.io_stats().expect("mmap io stats").window_entries;
    assert!(
        entered <= touched.len() as u64,
        "{entered} window entries for {} touched shards",
        touched.len()
    );
    assert_bits_eq(&g_mem, &g_store, "grad_block");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash-recovery on an out-of-core store: kill the run mid-loop, then
/// resume on a **freshly opened** store (as a restarted process would)
/// and require the outcome to match an uninterrupted store run.
#[cfg(feature = "fault-inject")]
mod fault_inject {
    use super::*;
    use chef_core::{CheckpointConfig, FaultPlan};
    use chef_data::StoreError;

    #[test]
    fn checkpoint_resume_works_on_mmap_store() {
        let (dir, val, test) = make_store("resume");
        let ck_ref = std::env::temp_dir().join(format!("chef-seq-ck-ref-{}", std::process::id()));
        let ck_int = std::env::temp_dir().join(format!("chef-seq-ck-int-{}", std::process::id()));
        for d in [&ck_ref, &ck_int] {
            let _ = std::fs::remove_dir_all(d);
        }
        let model = LogisticRegression::new(6, 2);
        let with_ck = |ck: &PathBuf, faults: FaultPlan| {
            let mut cfg = config(ConstructorKind::Retrain);
            cfg.checkpoint = Some(CheckpointConfig {
                dir: ck.clone(),
                every_rounds: 1,
                keep: 3,
            });
            cfg.faults = faults;
            Pipeline::new(cfg)
        };

        // Reference: uninterrupted run on the store.
        let mut store = MmapStore::open(&dir).expect("open store");
        random_probabilistic_labels(&mut store, WEAKEN_SEED);
        let mut sel = selector(false);
        let reference = with_ck(&ck_ref, FaultPlan::default())
            .round_loop(&model, &mut store, &val, &test, &mut sel)
            .run_sync();
        assert!(!reference.interrupted);

        // Interrupted: crash after round 0, checkpoint survives.
        let mut store = MmapStore::open(&dir).expect("open store");
        random_probabilistic_labels(&mut store, WEAKEN_SEED);
        let mut sel = selector(false);
        let interrupted = with_ck(&ck_int, FaultPlan::crash_after(0))
            .round_loop(&model, &mut store, &val, &test, &mut sel)
            .run_sync();
        assert!(interrupted.interrupted);

        // Resume on a freshly opened store, as a restarted process
        // would: re-open, re-weaken (the run's pristine starting state),
        // replay label patches, finish.
        let mut store = MmapStore::open(&dir).expect("open store");
        random_probabilistic_labels(&mut store, WEAKEN_SEED);
        let mut sel = selector(false);
        let resumed = with_ck(&ck_int, FaultPlan::default())
            .resume_round_loop_latest(&model, &mut store, &val, &test, &mut sel, &ck_int)
            .expect("resume_round_loop_latest")
            .run_sync();
        assert!(!resumed.interrupted);

        assert_bits_eq(&reference.final_w, &resumed.final_w, "final_w");
        assert_bits_eq(&reference.final_w_raw, &resumed.final_w_raw, "final_w_raw");
        assert_eq!(reference.cleaned_total, resumed.cleaned_total);
        assert_eq!(reference.rounds.len(), resumed.rounds.len());
        for (k, (a, b)) in reference.rounds.iter().zip(&resumed.rounds).enumerate() {
            let sel_a: Vec<_> = a.selected.iter().map(|s| (s.index, s.suggested)).collect();
            let sel_b: Vec<_> = b.selected.iter().map(|s| (s.index, s.suggested)).collect();
            assert_eq!(sel_a, sel_b, "round {k} selections");
        }
        // The cleaned labels live on the resumed store itself.
        let cleaned = store.num_clean();
        assert_eq!(cleaned, resumed.cleaned_total);

        for d in [&dir, &ck_ref, &ck_int] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn torn_shard_is_rejected_at_open() {
        let (dir, _val, _test) = make_store("torn");
        let chunk = dir.join(chef_data::store::chunk_file_name(2));
        let bytes = std::fs::read(&chunk).unwrap();
        std::fs::write(&chunk, &bytes[..bytes.len() - 16]).unwrap();
        assert!(matches!(MmapStore::open(&dir), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_store_version_is_rejected_at_open() {
        let (dir, _val, _test) = make_store("version");
        let manifest = dir.join(chef_data::store::MANIFEST_FILE_V2);
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replacen("v2", "v9", 1)).unwrap();
        assert!(matches!(MmapStore::open(&dir), Err(StoreError::Version(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_passes_lazy_open_but_fails_on_first_touch() {
        // A flipped bit deep in the last shard: eager open must reject
        // it up front; a lazy open must succeed in O(manifest) work and
        // then surface `Corrupt` exactly when the damaged block is first
        // touched — after which the store stays poisoned.
        let (dir, _val, _test) = make_store("bitflip");
        let chunk = dir.join(chef_data::store::chunk_file_name(4));
        let mut bytes = std::fs::read(&chunk).unwrap();
        let last = bytes.len() - 9;
        bytes[last] ^= 0x10;
        std::fs::write(&chunk, &bytes).unwrap();

        assert!(matches!(MmapStore::open(&dir), Err(StoreError::Corrupt(_))));

        let store = MmapStore::open_with(
            &dir,
            StoreOptions {
                integrity: IntegrityMode::LazyFirstTouch,
                background_prefetch: false,
                ..StoreOptions::default()
            },
        )
        .expect("lazy open must not touch shard bytes");
        // Earlier shards are intact and verify on demand.
        store.verify_rows(0, 4 * CHUNK_ROWS).expect("clean shards");
        // First touch of the damaged shard's block reports corruption...
        assert!(matches!(
            store.verify_rows(4 * CHUNK_ROWS, store.len()),
            Err(StoreError::Corrupt(_))
        ));
        // ...and the store is poisoned from then on, even for ranges
        // that verified fine before.
        assert!(matches!(
            store.verify_rows(0, CHUNK_ROWS),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

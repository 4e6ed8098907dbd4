//! Replay-equivalence harness for the checkpoint/resume subsystem
//! (DESIGN.md §12), driven by deterministic fault injection
//! (`PipelineConfig::faults`).
//!
//! The core claim under test: run the pipeline to round `R`, kill it,
//! resume from the surviving checkpoint generation, let it finish —
//! and the final weights, the cleaned-label set, and the per-round
//! telemetry are **bit-identical** to a run that was never interrupted.
//! Wall-clock fields (`select_ms`, span durations, …) are the only
//! permitted divergence and are normalized before comparison; the
//! restored *prefix* of rounds must additionally carry the interrupted
//! session's exact durations, which is what makes
//! `PipelineReport::total_select_time`/`total_update_time` aggregate
//! correctly across a crash.
//!
//! ci.sh runs the whole file in both workspace lanes (1 and 4 rayon
//! workers).

use chef_core::{
    AnnotationConfig, Checkpoint, CheckpointConfig, CheckpointError, ConstructorKind, FaultPlan,
    InflSelector, LabelStrategy, Pipeline, PipelineConfig, PipelineReport, RoundReport, Telemetry,
};
use chef_linalg::Matrix;
use chef_model::{Dataset, LogisticRegression, Model, SoftLabel, WeightedObjective};
use chef_train::SgdConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn fixture(seed: u64) -> (LogisticRegression, Dataset, Dataset, Dataset) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut make = |count: usize, weak: bool| {
        let mut raw = Vec::new();
        let mut labels = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..count {
            let c = usize::from(rng.gen_range(0.0..1.0) < 0.5);
            let sign = if c == 1 { 1.0 } else { -1.0 };
            raw.push(sign * 1.2 + rng.gen_range(-1.0..1.0));
            raw.push(sign * 1.2 + rng.gen_range(-1.0..1.0));
            if weak {
                let good = rng.gen_range(0.0..1.0) < 0.65;
                let p = rng.gen_range(0.55..0.95);
                let l = if good == (c == 1) {
                    SoftLabel::new(vec![1.0 - p, p])
                } else {
                    SoftLabel::new(vec![p, 1.0 - p])
                };
                labels.push(l);
            } else {
                labels.push(SoftLabel::onehot(c, 2));
            }
            truth.push(Some(c));
        }
        Dataset::new(
            Matrix::from_vec(count, 2, raw),
            labels,
            vec![!weak; count],
            truth,
            2,
        )
    };
    let train = make(120, true);
    let val = make(40, false);
    let test = make(40, false);
    (LogisticRegression::new(2, 2), train, val, test)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chef-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_config(dir: &Path, faults: FaultPlan, telemetry: Telemetry) -> PipelineConfig {
    PipelineConfig {
        budget: 20,
        round_size: 5,
        objective: WeightedObjective::new(0.8, 0.05),
        sgd: SgdConfig {
            lr: 0.1,
            epochs: 6,
            batch_size: 30,
            seed: 3,
            cache_provenance: true,
        },
        annotation: AnnotationConfig {
            strategy: LabelStrategy::HumansOnly(3),
            error_rate: 0.05,
            seed: 11,
        },
        checkpoint: Some(CheckpointConfig {
            dir: dir.to_path_buf(),
            every_rounds: 1,
            keep: 3,
        }),
        faults,
        telemetry,
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

/// Zero every wall-clock field: the one permitted divergence between an
/// interrupted-and-resumed run and an uninterrupted one.
fn normalized(rounds: &[RoundReport]) -> Vec<RoundReport> {
    rounds
        .iter()
        .cloned()
        .map(|mut r| {
            r.select_time = Duration::ZERO;
            r.update_time = Duration::ZERO;
            r.telemetry.selector.select_ms = 0.0;
            r.telemetry.annotation.annotate_ms = 0.0;
            r.telemetry.constructor.update_ms = 0.0;
            r
        })
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

fn assert_same_outcome(reference: &PipelineReport, resumed: &PipelineReport) {
    assert_bits_eq(&reference.final_w, &resumed.final_w, "final_w");
    assert_bits_eq(&reference.final_w_raw, &resumed.final_w_raw, "final_w_raw");
    assert_eq!(reference.cleaned_total, resumed.cleaned_total);
    assert_eq!(reference.early_terminated, resumed.early_terminated);
    assert_eq!(
        reference.initial_val_f1.to_bits(),
        resumed.initial_val_f1.to_bits()
    );
    assert_eq!(
        normalized(&reference.rounds),
        normalized(&resumed.rounds),
        "per-round reports (wall-clock normalized)"
    );
    assert_eq!(reference.final_data.len(), resumed.final_data.len());
    for i in 0..reference.final_data.len() {
        assert_eq!(
            reference.final_data.is_clean(i),
            resumed.final_data.is_clean(i),
            "clean flag of sample {i}"
        );
        assert_eq!(
            reference.final_data.label(i),
            resumed.final_data.label(i),
            "label of sample {i}"
        );
    }
}

/// The full kill-and-resume drill: reference run, crashed run, resumed
/// run, then every equivalence assertion. `faults_common` (timeouts,
/// checkpoint mangling) applies identically to all three runs so the
/// comparison stays apples-to-apples; the crash is added on top for the
/// interrupted run only.
fn check_replay_equivalence(
    ctor: ConstructorKind,
    incremental: bool,
    crash_after: usize,
    faults_common: FaultPlan,
    tag: &str,
) {
    let (model, train, val, test) = fixture(1);
    let dir_ref = scratch(&format!("{tag}-ref"));
    let dir_int = scratch(&format!("{tag}-int"));
    let mangled = faults_common.torn_write_after_round.is_some()
        || faults_common.bitflip_after_round.is_some();

    // 1. Reference: never interrupted.
    let tel_ref = Telemetry::enabled();
    let mut cfg = base_config(&dir_ref, faults_common.clone(), tel_ref.clone());
    cfg.constructor = ctor;
    let mut sel = selector(incremental);
    let reference = Pipeline::new(cfg).run(&model, train.clone(), &val, &test, &mut sel);
    assert!(!reference.interrupted);
    assert_eq!(reference.rounds.len(), 4, "fixture should run 4 rounds");

    // 2. Same run, killed after round `crash_after` completes.
    let mut faults = faults_common.clone();
    faults.crash_after_round = Some(crash_after);
    let mut cfg = base_config(&dir_int, faults, Telemetry::enabled());
    cfg.constructor = ctor;
    let mut sel = selector(incremental);
    let interrupted = Pipeline::new(cfg).run(&model, train.clone(), &val, &test, &mut sel);
    assert!(interrupted.interrupted);
    assert_eq!(interrupted.rounds.len(), crash_after + 1);

    // 3. Resume from the surviving generations and finish.
    let tel_res = Telemetry::enabled();
    let mut cfg = base_config(&dir_int, faults_common.clone(), tel_res.clone());
    cfg.constructor = ctor;
    let mut sel = selector(incremental);
    let pipeline = Pipeline::new(cfg);
    let mut data = train.clone();
    let resumed = pipeline
        .resume_round_loop_latest(&model, &mut data, &val, &test, &mut sel, &dir_int)
        .expect("resume_round_loop_latest")
        .run_sync()
        .into_report(data);
    assert!(!resumed.interrupted);

    assert_same_outcome(&reference, &resumed);

    if !mangled {
        // The restored prefix must carry the interrupted session's exact
        // durations and telemetry — this is what makes the report totals
        // aggregate across the crash.
        for i in 0..=crash_after {
            assert_eq!(
                resumed.rounds[i].select_time, interrupted.rounds[i].select_time,
                "restored select_time of round {i}"
            );
            assert_eq!(
                resumed.rounds[i].update_time, interrupted.rounds[i].update_time,
                "restored update_time of round {i}"
            );
            assert_eq!(
                resumed.rounds[i].telemetry, interrupted.rounds[i].telemetry,
                "restored telemetry of round {i}"
            );
        }
        assert_eq!(resumed.init_time, interrupted.init_time);
        let prefix: Duration = interrupted.rounds.iter().map(|r| r.select_time).sum();
        assert!(resumed.total_select_time() >= prefix);
    }

    // 4. Counter totals match an uninterrupted run (telemetry builds).
    if tel_ref.is_enabled() {
        for key in [
            "pipeline.rounds",
            "selector.scored",
            "selector.pruned",
            "annotation.votes",
            "annotation.cleaned",
            "annotation.abstains",
            "constructor.exact_steps",
            "constructor.replay_steps",
        ] {
            assert_eq!(
                tel_ref.counter(key),
                tel_res.counter(key),
                "replayed counter {key}"
            );
        }
        assert!(tel_res.counter("resume.rounds_skipped") > 0);
        assert_eq!(tel_res.rounds_recorded(), 4);
    }

    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_int);
}

#[test]
fn retrain_resume_after_first_round_is_bit_identical() {
    check_replay_equivalence(
        ConstructorKind::Retrain,
        false,
        0,
        FaultPlan::default(),
        "retrain-r0",
    );
}

#[test]
fn retrain_resume_mid_run_is_bit_identical() {
    check_replay_equivalence(
        ConstructorKind::Retrain,
        false,
        1,
        FaultPlan::default(),
        "retrain-r1",
    );
}

#[test]
fn retrain_crash_after_final_round_resumes_to_a_finished_run() {
    // Crash lands after the budget is already spent: resume replays the
    // restored rounds and returns without executing anything new.
    check_replay_equivalence(
        ConstructorKind::Retrain,
        false,
        3,
        FaultPlan::default(),
        "retrain-r3",
    );
}

#[test]
fn deltagrad_incremental_resume_is_bit_identical() {
    // The hard case: DeltaGrad-L replays SGD against the checkpointed
    // provenance trace, and Increm-Infl prunes against the checkpointed
    // frozen w⁽⁰⁾ provenance — both must survive the round-trip exactly.
    check_replay_equivalence(
        ConstructorKind::DeltaGradL(chef_train::DeltaGradConfig::default()),
        true,
        1,
        FaultPlan::default(),
        "deltagrad-r1",
    );
}

/// The `bin_f64s` field of the newest checkpoint generation in `dir`:
/// the payload's f64 count, as the file itself declares it.
fn newest_bin_f64s(dir: &Path) -> usize {
    let (_, path, _) = Checkpoint::latest_in_dir(dir).expect("a checkpoint generation");
    let bytes = std::fs::read(path).unwrap();
    let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    let header = std::str::from_utf8(&bytes[..nl]).unwrap();
    let json_len: usize = header.split(' ').nth(1).unwrap().parse().unwrap();
    let json = std::str::from_utf8(&bytes[nl + 1..nl + 1 + json_len]).unwrap();
    let doc = chef_obs::parse_json(json).unwrap();
    doc.get("bin_f64s").and_then(|v| v.as_usize()).unwrap()
}

#[test]
fn increm_checkpoint_adds_only_w0_and_the_hessian_norms() {
    // Increm-Infl selects Full's top-b, so both runs checkpoint the same
    // weights and DeltaGrad-L trace; what Increm adds is its provenance:
    // w⁽⁰⁾ (m floats) and n·(C + 1) Hessian norms, no gradient row.
    let (model, train, val, test) = fixture(1);
    let (n, m, c) = (train.len(), model.num_params(), model.num_classes());
    let run = |incremental: bool| {
        let dir = scratch(if incremental {
            "size-increm"
        } else {
            "size-full"
        });
        let cfg = base_config(&dir, FaultPlan::default(), Telemetry::disabled());
        let mut sel = selector(incremental);
        let report = Pipeline::new(cfg).run(&model, train.clone(), &val, &test, &mut sel);
        let f64s = newest_bin_f64s(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (report, f64s)
    };
    let (full, full_f64s) = run(false);
    let (increm, increm_f64s) = run(true);
    let picks = |r: &PipelineReport| -> Vec<Vec<usize>> {
        r.rounds
            .iter()
            .map(|round| round.selected.iter().map(|s| s.index).collect())
            .collect()
    };
    assert_eq!(picks(&increm), picks(&full), "Increm picked other samples");
    assert_eq!(increm_f64s - full_f64s, m + n * (c + 1));
}

#[test]
fn annotator_timeouts_abstain_without_breaking_equivalence() {
    let faults = FaultPlan {
        annotator_timeout_rounds: vec![1],
        ..FaultPlan::default()
    };
    check_replay_equivalence(ConstructorKind::Retrain, false, 2, faults, "timeout-r2");

    // And the timed-out round really did abstain wholesale.
    let (model, train, val, test) = fixture(1);
    let dir = scratch("timeout-solo");
    let cfg = base_config(
        &dir,
        FaultPlan {
            annotator_timeout_rounds: vec![1],
            ..FaultPlan::default()
        },
        Telemetry::disabled(),
    );
    let mut sel = InflSelector::full();
    let report = Pipeline::new(cfg).run(&model, train, &val, &test, &mut sel);
    assert_eq!(report.rounds[1].cleaned, 0);
    assert_eq!(report.rounds[1].ambiguous, report.rounds[1].selected.len());
    assert_eq!(report.rounds[1].telemetry.annotation.votes, 0);
    assert!(report.rounds[0].cleaned > 0, "round 0 was not timed out");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_write_falls_back_a_generation() {
    // The newest generation is torn mid-write; resume must detect the
    // truncation via the checksum header, fall back to the previous
    // generation, re-execute the lost round, and still match.
    let faults = FaultPlan {
        torn_write_after_round: Some(2),
        ..FaultPlan::default()
    };
    check_replay_equivalence(ConstructorKind::Retrain, false, 2, faults, "torn-r2");
}

#[test]
fn bit_flipped_checkpoint_falls_back_a_generation() {
    let faults = FaultPlan {
        bitflip_after_round: Some(2),
        ..FaultPlan::default()
    };
    check_replay_equivalence(ConstructorKind::Retrain, false, 2, faults, "bitflip-r2");
}

#[test]
fn resume_with_mismatched_seed_is_rejected() {
    let (model, mut train, val, test) = fixture(1);
    let dir = scratch("mismatch");
    let cfg = base_config(&dir, FaultPlan::crash_after(1), Telemetry::disabled());
    let mut sel = InflSelector::full();
    let _ = Pipeline::new(cfg).run(&model, train.clone(), &val, &test, &mut sel);

    let mut cfg = base_config(&dir, FaultPlan::default(), Telemetry::disabled());
    cfg.annotation.seed = 999; // a different annotator RNG stream
    let mut sel = InflSelector::full();
    let err = Pipeline::new(cfg)
        .resume_round_loop_latest(&model, &mut train, &val, &test, &mut sel, &dir)
        .err()
        .expect("resume with a mismatched seed must fail");
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "expected Mismatch, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_empty_directory_is_a_clear_error() {
    let (model, mut train, val, test) = fixture(1);
    let dir = scratch("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = base_config(&dir, FaultPlan::default(), Telemetry::disabled());
    let mut sel = InflSelector::full();
    let err = Pipeline::new(cfg)
        .resume_round_loop_latest(&model, &mut train, &val, &test, &mut sel, &dir)
        .err()
        .expect("resume from an empty directory must fail");
    assert!(
        matches!(err, CheckpointError::NoCheckpoint(_)),
        "expected NoCheckpoint, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

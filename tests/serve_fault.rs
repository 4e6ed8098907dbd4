//! Fault-injection harness for the chef-serve daemon
//! (`PipelineConfig::faults`): kill-mid-round,
//! torn-checkpoint-under-serve, and the stale-traffic-after-resume
//! drills, all deterministic and sleep-free.
//!
//! The acceptance scenario lives here too: N=3 concurrent tenants with
//! out-of-order annotators, one job killed at the awaiting-annotation
//! point and resumed from its `checkpoint.v2` directory, every final
//! report bit-identical to the synchronous `Pipeline::run` — including
//! the variant where a timed-out batch abstains identically to the
//! synchronous injected-timeout path.
//!
//! ci.sh runs this file in both workspace lanes, at 1 and 4 scheduler
//! workers.

use chef_core::{
    AnnotationConfig, CheckpointConfig, FaultPlan, InflSelector, LabelPatch, LabelStrategy,
    Pipeline, PipelineConfig, PipelineReport, RoundReport, Telemetry,
};
use chef_linalg::Matrix;
use chef_model::{Dataset, LogisticRegression, SoftLabel, WeightedObjective};
use chef_serve::{
    JobManager, JobRequest, JobResult, JobState, ServeError, SimAnnotator, SimAnnotatorConfig,
};
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
    let dir = std::env::temp_dir().join(format!("chef-serve-fault-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(
    faults: FaultPlan,
    checkpoint_dir: Option<&Path>,
    telemetry: Telemetry,
) -> PipelineConfig {
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
        checkpoint: checkpoint_dir.map(|dir| CheckpointConfig {
            dir: dir.to_path_buf(),
            every_rounds: 1,
            keep: 3,
        }),
        faults,
        telemetry,
        ..PipelineConfig::default()
    }
}

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

fn assert_same_outcome(reference: &PipelineReport, served: &PipelineReport) {
    assert_bits_eq(&reference.final_w, &served.final_w, "final_w");
    assert_bits_eq(&reference.final_w_raw, &served.final_w_raw, "final_w_raw");
    assert_eq!(reference.cleaned_total, served.cleaned_total);
    assert_eq!(reference.early_terminated, served.early_terminated);
    assert_eq!(
        normalized(&reference.rounds),
        normalized(&served.rounds),
        "per-round reports (wall-clock normalized)"
    );
    for i in 0..reference.final_data.len() {
        assert_eq!(
            reference.final_data.is_clean(i),
            served.final_data.is_clean(i),
            "clean flag of sample {i}"
        );
        assert_eq!(
            reference.final_data.label(i),
            served.final_data.label(i),
            "label of sample {i}"
        );
    }
}

/// A served job's report with its final data rebuilt: the job keeps
/// label patches instead of its training set, so they are replayed onto
/// the pristine fixture it was submitted with, and `assert_same_outcome`
/// checks every row's label and clean flag as it does for a synchronous
/// run. A resumed job's patches include the rows restored from its
/// checkpoint.
fn replayed(result: &JobResult, seed: u64) -> PipelineReport {
    let (_, mut train, _, _) = fixture(seed);
    LabelPatch::replay(&result.labels, &mut train).expect("patches fit the fixture");
    result.report.clone().into_report(train)
}

fn sync_reference(seed: u64, faults: FaultPlan, checkpoint_dir: Option<&Path>) -> PipelineReport {
    let (model, train, val, test) = fixture(seed);
    let mut sel = InflSelector::full();
    Pipeline::new(config(faults, checkpoint_dir, Telemetry::disabled()))
        .run(&model, train, &val, &test, &mut sel)
}

fn request(
    name: &str,
    seed: u64,
    faults: FaultPlan,
    checkpoint_dir: Option<&Path>,
    resume_from: Option<&Path>,
) -> JobRequest {
    let (model, train, val, test) = fixture(seed);
    JobRequest {
        name: name.to_string(),
        cfg: config(faults, checkpoint_dir, Telemetry::disabled()),
        model: Box::new(model),
        train,
        val,
        test,
        selector: Box::new(InflSelector::full()),
        deadline_ms: 1_000,
        resume_from: resume_from.map(Path::to_path_buf),
    }
}

fn sim(seed: u64) -> SimAnnotatorConfig {
    SimAnnotatorConfig {
        seed,
        latency_base_ms: 5,
        latency_jitter_ms: 9, // out-of-order within every batch
        ..SimAnnotatorConfig::default()
    }
}

/// A whole batch dropped by the annotator host abstains **identically**
/// to the synchronous pipeline's injected annotator timeout: the served
/// report is bit-identical to a sync run with
/// `FaultPlan::annotator_timeout_rounds = [1]`.
#[test]
fn dropped_batch_equals_sync_injected_timeout() {
    let reference = sync_reference(
        1,
        FaultPlan {
            annotator_timeout_rounds: vec![1],
            ..FaultPlan::default()
        },
        None,
    );
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig {
        drop_batches: vec![("tenant".into(), 1)],
        ..sim(21)
    })));
    let id = mgr.submit(request("tenant", 1, FaultPlan::default(), None, None));
    let served = replayed(&mgr.wait(id).expect("job completes"), 1);
    assert_same_outcome(&reference, &served);
    assert_eq!(served.rounds[1].cleaned, 0, "round 1 abstained wholesale");
}

/// The acceptance scenario: three concurrent tenants under jittered
/// out-of-order annotation, the middle one killed at the
/// awaiting-annotation point of round 2 and resumed from its checkpoint
/// directory — every final report bit-identical to the synchronous run.
#[test]
fn killed_job_resumes_bit_identically_among_live_tenants() {
    let dir_victim = scratch("kill-victim");
    let dir_ref = scratch("kill-ref");
    let mgr = JobManager::new(Box::new(SimAnnotator::new(sim(33))));

    let alpha = mgr.submit(request("alpha", 1, FaultPlan::default(), None, None));
    let victim = mgr.submit(request(
        "victim",
        2,
        FaultPlan {
            kill_mid_round: Some(2),
            ..FaultPlan::default()
        },
        Some(&dir_victim),
        None,
    ));
    let gamma = mgr.submit(request("gamma", 3, FaultPlan::default(), None, None));

    // The victim dies mid-round; rounds 0 and 1 reached its checkpoint.
    match mgr.wait(victim) {
        Err(ServeError::JobFailed(msg)) => {
            assert!(msg.contains("killed mid-round 2"), "got: {msg}")
        }
        other => panic!("victim should fail, got {other:?}"),
    }
    let status = mgr.status(victim).expect("victim exists");
    assert_eq!(status.state, JobState::Failed);
    assert_eq!(status.round, 2, "two rounds completed before the kill");

    // Resubmit under the same tenant name, resuming from the directory.
    let resumed = mgr.submit(request(
        "victim",
        2,
        FaultPlan::default(),
        Some(&dir_victim),
        Some(&dir_victim),
    ));

    let report_alpha = replayed(&mgr.wait(alpha).expect("alpha completes"), 1);
    let report_victim = replayed(&mgr.wait(resumed).expect("resumed victim completes"), 2);
    let report_gamma = replayed(&mgr.wait(gamma).expect("gamma completes"), 3);

    assert!(!report_victim.interrupted);
    assert_eq!(report_victim.rounds.len(), 4);
    assert_same_outcome(
        &sync_reference(1, FaultPlan::default(), None),
        &report_alpha,
    );
    assert_same_outcome(
        &sync_reference(2, FaultPlan::default(), Some(&dir_ref)),
        &report_victim,
    );
    assert_same_outcome(
        &sync_reference(3, FaultPlan::default(), None),
        &report_gamma,
    );
    if mgr.telemetry().is_enabled() {
        assert_eq!(mgr.telemetry().counter("serve.jobs_killed"), 1);
        assert_eq!(mgr.telemetry().counter("serve.jobs_completed"), 3);
    }
    let _ = std::fs::remove_dir_all(&dir_victim);
    let _ = std::fs::remove_dir_all(&dir_ref);
}

/// Torn checkpoint under serve: the generation written after round 1 is
/// truncated mid-file, the job is killed at round 2, and the resume must
/// fall back to the round-0 generation (counted in
/// `resume.corrupt_fallbacks`), re-run rounds 1-3, and still match the
/// uninterrupted run bit-for-bit.
#[test]
fn torn_checkpoint_under_serve_falls_back_a_generation() {
    let dir = scratch("torn-serve");
    let dir_ref = scratch("torn-serve-ref");
    let mgr = JobManager::new(Box::new(SimAnnotator::new(sim(44))));

    let victim = mgr.submit(request(
        "torn",
        2,
        FaultPlan {
            torn_write_after_round: Some(1),
            kill_mid_round: Some(2),
            ..FaultPlan::default()
        },
        Some(&dir),
        None,
    ));
    assert!(matches!(mgr.wait(victim), Err(ServeError::JobFailed(_))));

    // Resume: newest generation is torn, the checksum catches it, the
    // round-0 generation carries the restart.
    let resume_tel = Telemetry::enabled();
    let mut req = request("torn", 2, FaultPlan::default(), Some(&dir), Some(&dir));
    req.cfg.telemetry = resume_tel.clone();
    let resumed = mgr.submit(req);
    let report = replayed(&mgr.wait(resumed).expect("resumed job completes"), 2);
    assert!(!report.interrupted);
    assert_same_outcome(
        &sync_reference(2, FaultPlan::default(), Some(&dir_ref)),
        &report,
    );
    if resume_tel.is_enabled() {
        assert!(
            resume_tel.counter("resume.corrupt_fallbacks") >= 1,
            "the torn generation must have been skipped"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_ref);
}

/// Stale traffic after a resume: the host re-delivers the dead job's
/// stragglers (same tenant name, same round number as the resumed job's
/// first batch). Determinism makes them carry identical outcomes, the
/// slot-filling logic absorbs them idempotently, and the result is still
/// bit-identical.
#[test]
fn stale_replies_after_resume_are_absorbed() {
    let dir = scratch("stale-resume");
    let dir_ref = scratch("stale-resume-ref");
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig {
        replay_stale: true,
        ..sim(55)
    })));

    let victim = mgr.submit(request(
        "ghosted",
        3,
        FaultPlan {
            kill_mid_round: Some(2),
            ..FaultPlan::default()
        },
        Some(&dir),
        None,
    ));
    assert!(matches!(mgr.wait(victim), Err(ServeError::JobFailed(_))));

    let resumed = mgr.submit(request(
        "ghosted",
        3,
        FaultPlan::default(),
        Some(&dir),
        Some(&dir),
    ));
    let report = replayed(&mgr.wait(resumed).expect("resumed job completes"), 3);
    assert_same_outcome(
        &sync_reference(3, FaultPlan::default(), Some(&dir_ref)),
        &report,
    );
    if mgr.telemetry().is_enabled() {
        // The predecessor's round-2 replies arrive first and, because
        // the restored loop re-selects the identical batch, fill every
        // resumed round-2 slot — `collect_round` completes on stale
        // traffic alone. The job's own fresh replies are then strays the
        // next round boundary drains as `serve.replies_late` (they never
        // reach the duplicate branch: the collect loop exits the moment
        // the batch is full). Vote determinism per sample index is what
        // makes the stale fills outcome-identical, which the
        // `assert_same_outcome` above already proved.
        assert!(
            mgr.telemetry().counter("serve.replies_late") >= 5,
            "stale replay should have left a full batch of stray replies"
        );
        assert_eq!(
            mgr.telemetry().counter("serve.deadline_expirations"),
            0,
            "stale fills must satisfy the round before its deadline"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_ref);
}

/// Sync-side sanity: the synchronous driver ignores `kill_mid_round`
/// entirely (it has no mid-round await point) — a plan carrying it runs
/// to completion and matches a plan without it.
#[test]
fn sync_driver_ignores_kill_mid_round() {
    let clean = sync_reference(1, FaultPlan::default(), None);
    let with_kill = sync_reference(
        1,
        FaultPlan {
            kill_mid_round: Some(2),
            ..FaultPlan::default()
        },
        None,
    );
    assert!(!with_kill.interrupted);
    assert_same_outcome(&clean, &with_kill);
}

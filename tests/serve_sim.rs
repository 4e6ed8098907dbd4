//! Deterministic simulation harness for the chef-serve daemon
//! (DESIGN.md §16.5): seeded virtual clocks, scripted annotator
//! latency/drops/duplicates, and zero sleeps anywhere — every wait is a
//! condvar on a job state transition.
//!
//! Headline claims under test:
//!
//! 1. a job whose replies all arrive on time produces a report
//!    **bit-identical** to the synchronous `Pipeline::run`, regardless
//!    of delivery order (jitter, duplicates);
//! 2. the whole multi-tenant scenario replays bit-identically from the
//!    simulation seed (reports *and* event logs);
//! 3. late/missing replies map onto the pipeline's abstain path;
//! 4. the framed protocol serves submissions end-to-end over an
//!    in-memory connection.
//!
//! ci.sh runs the file at 1 and 4 rayon workers and at 1 and 4
//! scheduler workers; the `serve.*` counter assertions are gated on the
//! manager's telemetry handle being enabled.

use chef_core::{
    AnnotationConfig, InflSelector, LabelPatch, LabelStrategy, Pipeline, PipelineConfig,
    PipelineReport, RoundReport, Telemetry,
};
use chef_linalg::Matrix;
use chef_model::{Dataset, LogisticRegression, SoftLabel, WeightedObjective};
use chef_serve::{
    serve_connection, AnnotationRequest, AnnotatorHost, EventKind, Frame, HostDelivery, JobId,
    JobManager, JobRequest, JobResult, JobState, SchedConfig, SimAnnotator, SimAnnotatorConfig,
    Verb,
};
use chef_train::SgdConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn fixture(seed: u64) -> (LogisticRegression, Dataset, Dataset, Dataset) {
    fixture_sized(seed, 120)
}

fn fixture_sized(seed: u64, train_count: usize) -> (LogisticRegression, Dataset, Dataset, Dataset) {
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
    let train = make(train_count, true);
    let val = make(40, false);
    let test = make(40, false);
    (LogisticRegression::new(2, 2), train, val, test)
}

fn config(telemetry: Telemetry) -> PipelineConfig {
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
        telemetry,
        ..PipelineConfig::default()
    }
}

/// Zero every wall-clock field — the only permitted divergence between
/// an async-served run and a synchronous one.
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
    assert_eq!(reference.final_data.len(), served.final_data.len());
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
/// run.
fn replayed(result: &JobResult, seed: u64) -> PipelineReport {
    let (_, mut train, _, _) = fixture(seed);
    LabelPatch::replay(&result.labels, &mut train).expect("patches fit the fixture");
    result.report.clone().into_report(train)
}

fn sync_reference(seed: u64) -> PipelineReport {
    let (model, train, val, test) = fixture(seed);
    let mut sel = InflSelector::full();
    Pipeline::new(config(Telemetry::disabled())).run(&model, train, &val, &test, &mut sel)
}

fn request(name: &str, seed: u64, deadline_ms: u64) -> JobRequest {
    let (model, train, val, test) = fixture(seed);
    JobRequest {
        name: name.to_string(),
        cfg: config(Telemetry::disabled()),
        model: Box::new(model),
        train,
        val,
        test,
        selector: Box::new(InflSelector::full()),
        deadline_ms,
        resume_from: None,
    }
}

/// Three tenants, jittered out-of-order delivery, everything on time:
/// each report is bit-identical to its synchronous reference run.
#[test]
fn on_time_async_jobs_match_sync_runs() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig {
        seed: 42,
        latency_base_ms: 5,
        latency_jitter_ms: 9, // reorders arrivals within every batch
        ..SimAnnotatorConfig::default()
    })));
    let seeds = [1u64, 2, 3];
    let ids: Vec<JobId> = seeds
        .iter()
        .map(|&s| mgr.submit(request(&format!("tenant-{s}"), s, 1_000)))
        .collect();
    for (&seed, &id) in seeds.iter().zip(&ids) {
        let result = mgr.wait(id).expect("job completes");
        assert!(!result.report.interrupted);
        assert_same_outcome(&sync_reference(seed), &replayed(&result, seed));
    }
}

/// The full multi-tenant scenario — drops, duplicates, jitter — replays
/// bit-identically from the simulation seed: same reports, same event
/// logs, byte-identical exported event documents.
#[test]
fn scenario_replays_bit_identically_from_seed() {
    let run = || {
        let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig {
            seed: 7,
            latency_base_ms: 4,
            latency_jitter_ms: 11,
            drop_prob: 0.2,
            duplicate_prob: 0.25,
            ..SimAnnotatorConfig::default()
        })));
        let ids: Vec<(u64, JobId)> = (1u64..=3)
            .map(|s| (s, mgr.submit(request(&format!("tenant-{s}"), s, 12))))
            .collect();
        ids.iter()
            .map(|&(seed, id)| {
                let report = replayed(&mgr.wait(id).expect("job completes"), seed);
                let events = mgr.events(id).expect("job exists");
                let doc = chef_serve::export_events(&format!("job-{}", id.0), &events);
                (report, events, doc)
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    for ((ra, ea, da), (rb, eb, db)) in first.iter().zip(&second) {
        assert_same_outcome(ra, rb);
        assert_eq!(ea, eb, "event logs replay identically");
        assert_eq!(da, db, "exported event documents are byte-identical");
    }
    // Drops actually happened (otherwise this test proves less than it
    // claims): some round abstained at least once.
    let abstained: usize = first
        .iter()
        .flat_map(|(r, _, _)| r.rounds.iter())
        .map(|r| r.ambiguous)
        .sum();
    assert!(abstained > 0, "scripted drops should cause abstains");
}

/// Unit-level: the sim host delivers out of batch order under jitter,
/// emits exactly one deadline marker positioned after every on-time
/// reply and before every late one, and is a pure function of its seed.
#[test]
fn sim_annotator_delivery_sequence_is_ordered_and_deterministic() {
    let (_, train, _, _) = fixture(5);
    let batch = chef_core::AnnotationBatch {
        round: 0,
        num_classes: 2,
        items: (0..12)
            .map(|i| chef_core::BatchItem {
                index: i,
                suggested: Some(i % 2),
                truth: train.ground_truth(i),
            })
            .collect(),
    };
    let req = AnnotationRequest {
        job: JobId(1),
        name: "unit".into(),
        annotation: AnnotationConfig {
            strategy: LabelStrategy::HumansOnly(3),
            error_rate: 0.05,
            seed: 11,
        },
        deadline_ms: 9,
        batch,
    };
    let cfg = SimAnnotatorConfig {
        seed: 99,
        latency_base_ms: 2,
        latency_jitter_ms: 14, // spans the deadline: some replies late
        ..SimAnnotatorConfig::default()
    };
    let deliveries = SimAnnotator::new(cfg.clone()).annotate(&req);
    let replay = SimAnnotator::new(cfg).annotate(&req);
    assert_eq!(deliveries, replay, "delivery sequence replays from seed");

    let deadline_positions: Vec<usize> = deliveries
        .iter()
        .enumerate()
        .filter_map(|(i, d)| matches!(d, HostDelivery::Deadline { .. }).then_some(i))
        .collect();
    assert_eq!(deadline_positions.len(), 1, "exactly one deadline marker");
    let cut = deadline_positions[0];
    let mut prev_at = 0;
    let mut indices_before: Vec<usize> = Vec::new();
    for d in &deliveries[..cut] {
        let HostDelivery::Reply(r) = d else {
            unreachable!()
        };
        assert!(r.at_ms <= 9, "replies before the marker are on time");
        assert!(r.at_ms >= prev_at, "arrival order is by timestamp");
        prev_at = r.at_ms;
        indices_before.push(r.index);
    }
    for d in &deliveries[cut + 1..] {
        let HostDelivery::Reply(r) = d else {
            unreachable!()
        };
        assert!(r.at_ms > 9, "replies after the marker are late");
    }
    assert!(
        indices_before.windows(2).any(|w| w[0] > w[1]),
        "jitter should reorder arrivals out of batch order, got {indices_before:?}"
    );
    assert!(
        !deliveries[cut + 1..].is_empty(),
        "jitter spanning the deadline should strand some replies late"
    );
}

/// Every reply delivered twice: the duplicates are ignored idempotently
/// and the result is still bit-identical to the synchronous run.
#[test]
fn duplicate_replies_are_idempotent() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig {
        seed: 3,
        duplicate_prob: 1.0,
        ..SimAnnotatorConfig::default()
    })));
    let id = mgr.submit(request("dupes", 1, 1_000));
    let result = mgr.wait(id).expect("job completes");
    assert_same_outcome(&sync_reference(1), &replayed(&result, 1));
    if mgr.telemetry().is_enabled() {
        let rounds = result.report.rounds.len() as u64;
        let selected: u64 = result
            .report
            .rounds
            .iter()
            .map(|r| r.selected.len() as u64)
            .sum();
        let tel = mgr.telemetry();
        assert_eq!(tel.counter("serve.replies_received"), selected);
        // The collect loop breaks the moment the last slot fills, so the
        // final duplicate of each round is still queued and surfaces at
        // the next round boundary as a stale reply:
        assert_eq!(tel.counter("serve.replies_duplicate"), selected - rounds);
        assert_eq!(tel.counter("serve.replies_late"), rounds);
    }
}

/// Deadline shorter than the minimum latency: every reply is late, every
/// round abstains wholesale (the synchronous timeout path), and the
/// stale replies landing in later rounds are counted and ignored.
#[test]
fn all_late_replies_abstain_every_round() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig {
        seed: 5,
        latency_base_ms: 50,
        ..SimAnnotatorConfig::default()
    })));
    let id = mgr.submit(request("too-late", 1, 10));
    let result = mgr.wait(id).expect("job completes");
    let report = &result.report;
    assert_eq!(report.rounds.len(), 4, "budget 20 / round 5 → 4 rounds");
    for r in &report.rounds {
        assert_eq!(r.cleaned, 0, "round {}: nothing cleaned", r.round);
        assert_eq!(
            r.ambiguous,
            r.selected.len(),
            "round {}: all abstain",
            r.round
        );
        assert_eq!(r.telemetry.annotation.abstains, r.selected.len());
        assert_eq!(r.telemetry.annotation.votes, 0);
    }
    assert_eq!(report.cleaned_total, 0);
    if mgr.telemetry().is_enabled() {
        assert_eq!(mgr.telemetry().counter("serve.deadline_expirations"), 4);
        assert_eq!(mgr.telemetry().counter("serve.replies_received"), 0);
        assert!(
            mgr.telemetry().counter("serve.replies_late") >= 15,
            "stale replies of rounds 0-2 surface in later rounds"
        );
    }
}

/// A whole-batch scripted drop: that round abstains entirely, later
/// rounds continue, the job still completes its budget.
#[test]
fn scripted_batch_drop_abstains_that_round() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig {
        seed: 8,
        drop_batches: vec![("flaky".into(), 1)],
        ..SimAnnotatorConfig::default()
    })));
    let id = mgr.submit(request("flaky", 2, 1_000));
    let report = mgr.wait(id).expect("job completes").report;
    assert_eq!(report.rounds.len(), 4);
    assert_eq!(report.rounds[1].cleaned, 0);
    assert_eq!(report.rounds[1].ambiguous, report.rounds[1].selected.len());
    let cleaned_elsewhere: usize = report
        .rounds
        .iter()
        .filter(|r| r.round != 1)
        .map(|r| r.cleaned)
        .sum();
    assert!(cleaned_elsewhere > 0, "other rounds proceed normally");
}

/// Pause parks the job at a round boundary; resume continues it to a
/// report bit-identical to the never-paused run. Waits are condvars on
/// state transitions — the test is robust to the job finishing before
/// the pause lands (the race is real; both outcomes are asserted).
#[test]
fn pause_resume_preserves_bit_identity() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig {
        seed: 13,
        ..SimAnnotatorConfig::default()
    })));
    let id = mgr.submit(request("pausable", 3, 1_000));
    mgr.pause(id).expect("job exists");
    let state = mgr
        .wait_for(id, |s| s == JobState::Paused)
        .expect("job exists");
    if state == JobState::Paused {
        let status = mgr.status(id).expect("job exists");
        assert_eq!(status.state, JobState::Paused);
        mgr.resume_job(id).expect("job exists");
    }
    let result = mgr.wait(id).expect("job completes");
    assert_same_outcome(&sync_reference(3), &replayed(&result, 3));
    if state == JobState::Paused {
        let kinds: Vec<EventKind> = mgr
            .events(id)
            .expect("job exists")
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&EventKind::Paused));
        assert!(kinds.contains(&EventKind::Resumed));
    }
}

/// Cancel terminates a job; `wait` reports the cancellation and the
/// event log ends with `cancelled`.
#[test]
fn cancel_terminates_job() {
    // Cancel races the run; both outcomes are legitimate and asserted.
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig::default())));
    let id = mgr.submit(request("doomed", 1, 1_000));
    mgr.cancel(id).expect("job exists");
    match mgr.wait(id) {
        Err(chef_serve::ServeError::JobCancelled) => {
            let events = mgr.events(id).expect("job exists");
            assert_eq!(events.last().expect("events").kind, EventKind::Cancelled);
            if mgr.telemetry().is_enabled() {
                assert_eq!(mgr.telemetry().counter("serve.jobs_cancelled"), 1);
            }
        }
        Ok(result) => {
            // The job can legitimately win the race and complete before
            // the cancel lands; then it must be a full, correct run.
            assert_same_outcome(&sync_reference(1), &replayed(&result, 1));
        }
        Err(e) => panic!("unexpected terminal state: {e}"),
    }
}

/// Event-log shape of a clean run: job_start first, job_complete last,
/// dense `seq`, and one (round_start, awaiting_annotation,
/// round_complete) triple per round in order.
#[test]
fn event_log_has_lifecycle_shape() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig::default())));
    let id = mgr.submit(request("shapely", 1, 1_000));
    let report = mgr.wait(id).expect("job completes").report;
    let events = mgr.events(id).expect("job exists");
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "seq is dense");
    }
    assert_eq!(events.first().expect("events").kind, EventKind::JobStart);
    assert_eq!(events.last().expect("events").kind, EventKind::JobComplete);
    let rounds = report.rounds.len();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    assert_eq!(count(EventKind::RoundStart), rounds);
    assert_eq!(count(EventKind::AwaitingAnnotation), rounds);
    assert_eq!(count(EventKind::RoundComplete), rounds);
    // Triples are contiguous and round numbers increase.
    let mut expected_round = 0usize;
    let mut i = 1;
    while i + 2 < events.len() {
        assert_eq!(events[i].kind, EventKind::RoundStart);
        assert_eq!(events[i].round, Some(expected_round));
        assert_eq!(events[i + 1].kind, EventKind::AwaitingAnnotation);
        assert_eq!(events[i + 2].kind, EventKind::RoundComplete);
        assert_eq!(events[i + 2].round, Some(expected_round));
        expected_round += 1;
        i += 3;
    }
    assert_eq!(expected_round, rounds);
}

/// `serve.*` counter accounting on a clean run (telemetry builds only).
#[test]
fn serve_counters_account_for_traffic() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig::default())));
    if !mgr.telemetry().is_enabled() {
        return; // disabled handle: nothing to count
    }
    let id = mgr.submit(request("counted", 1, 1_000));
    let report = mgr.wait(id).expect("job completes").report;
    let selected: usize = report.rounds.iter().map(|r| r.selected.len()).sum();
    let tel = mgr.telemetry();
    assert_eq!(tel.counter("serve.jobs_submitted"), 1);
    assert_eq!(tel.counter("serve.jobs_completed"), 1);
    assert_eq!(
        tel.counter("serve.batches_emitted"),
        report.rounds.len() as u64
    );
    assert_eq!(
        tel.counter("serve.rounds_completed"),
        report.rounds.len() as u64
    );
    assert_eq!(tel.counter("serve.replies_received"), selected as u64);
    assert_eq!(tel.counter("serve.replies_late"), 0);
    assert_eq!(tel.counter("serve.replies_duplicate"), 0);
    assert_eq!(tel.counter("serve.deadline_expirations"), 0);
}

/// Per-job telemetry export exists in telemetry builds and carries the
/// job's rounds.
#[test]
fn job_telemetry_export_present_when_enabled() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig::default())));
    let mut req = request("telemetered", 1, 1_000);
    let tel = Telemetry::enabled();
    req.cfg.telemetry = tel.clone();
    let id = mgr.submit(req);
    let result = mgr.wait(id).expect("job completes");
    if tel.is_enabled() {
        let doc = result.telemetry_json.expect("telemetry export");
        assert!(doc.contains("telemetry.v1"), "versioned schema: {doc}");
    } else {
        assert!(result.telemetry_json.is_none());
    }
}

/// End-to-end over the framed protocol on an in-memory connection:
/// submit a real (tiny) dataset job, poll status, fetch results and the
/// event document; unknown verbs/versions answer structured errors
/// without closing the connection.
#[test]
fn protocol_serves_submit_to_results_end_to_end() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig::default())));
    let spec = r#"{"name": "wire-job", "dataset": "MIMIC", "scale": 30, "seed": 5, "budget": 10, "round_size": 5, "deadline_ms": 1000}"#;
    let mut input = String::new();
    input.push_str(&Frame::new(Verb::Submit, spec).encode());
    input.push_str("chef-serve.v1 frobnicate 2\n{}\n"); // unknown verb
    input.push_str("chef-serve.v9 status 2\n{}\n"); // unknown version
    input.push_str(&Frame::new(Verb::Results, r#"{"job": 1}"#).encode());
    input.push_str(&Frame::new(Verb::Status, r#"{"job": 1}"#).encode());
    input.push_str(&Frame::new(Verb::Event, r#"{"job": 1}"#).encode());
    input.push_str(&Frame::new(Verb::Status, r#"{"job": 999}"#).encode());

    let mut reader = std::io::Cursor::new(input.into_bytes());
    let mut out: Vec<u8> = Vec::new();
    serve_connection(&mgr, &mut reader, &mut out).expect("serving succeeds");

    let mut rest = std::str::from_utf8(&out).expect("utf8 output");
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let (f, r) = Frame::decode(rest).expect("well-formed response stream");
        frames.push(f);
        rest = r;
    }
    assert_eq!(frames.len(), 7, "one response per request");
    let json = |i: usize| chef_obs::parse_json(&frames[i].payload).expect("JSON payload");
    assert_eq!(frames[0].verb, Verb::Ok, "submit: {}", frames[0].payload);
    assert_eq!(json(0).get("job").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(frames[1].verb, Verb::Error);
    assert_eq!(
        json(1)
            .get("error")
            .and_then(|v| v.as_str().map(String::from)),
        Some("unknown-verb".into())
    );
    assert_eq!(frames[2].verb, Verb::Error);
    assert_eq!(
        json(2)
            .get("error")
            .and_then(|v| v.as_str().map(String::from)),
        Some("unknown-version".into())
    );
    assert_eq!(frames[3].verb, Verb::Ok, "results: {}", frames[3].payload);
    let results = json(3);
    assert!(results.get("cleaned_total").is_some());
    assert!(results.get("final_test_f1").is_some());
    assert_eq!(frames[4].verb, Verb::Ok);
    assert_eq!(
        json(4)
            .get("state")
            .and_then(|v| v.as_str().map(String::from)),
        Some("completed".into())
    );
    assert_eq!(frames[5].verb, Verb::Event);
    let (job, events) = chef_serve::parse_events(&frames[5].payload).expect("event doc parses");
    assert_eq!(job, "wire-job");
    assert_eq!(events.last().expect("events").kind, EventKind::JobComplete);
    assert_eq!(frames[6].verb, Verb::Error);
    assert!(frames[6].payload.contains("unknown-job"));
}

/// Fairness under the pooled scheduler (DESIGN.md §17): one tenant with
/// 10× the rounds of the others shares a 2-worker pool with three small
/// tenants. Round-robin slicing at round boundaries means every small
/// tenant completes before the big one, each job's slice count is
/// exactly its rounds + 1 (the starvation guard: nobody is skipped,
/// nobody hogs a worker), and every small report stays bit-identical to
/// its solo synchronous reference — interleaving never leaks between
/// tenants.
#[test]
fn pooled_fairness_big_tenant_does_not_starve_smalls() {
    let mgr = JobManager::with_config(
        Box::new(SimAnnotator::new(SimAnnotatorConfig::default())),
        Telemetry::enabled(),
        SchedConfig {
            workers: 2,
            queue_bound: 16,
        },
    );
    let big = {
        let (model, train, val, test) = fixture_sized(9, 600);
        let mut cfg = config(Telemetry::disabled());
        cfg.budget = 200; // 40 rounds vs the smalls' 4
        mgr.submit(JobRequest {
            name: "big".into(),
            cfg,
            model: Box::new(model),
            train,
            val,
            test,
            selector: Box::new(InflSelector::full()),
            deadline_ms: 1_000,
            resume_from: None,
        })
    };
    let small_seeds = [1u64, 2, 3];
    let smalls: Vec<JobId> = small_seeds
        .iter()
        .map(|&s| mgr.submit(request(&format!("small-{s}"), s, 1_000)))
        .collect();
    for (&seed, &id) in small_seeds.iter().zip(&smalls) {
        let result = mgr.wait(id).expect("small job completes");
        assert_same_outcome(&sync_reference(seed), &replayed(&result, seed));
    }
    let big_report = mgr.wait(big).expect("big job completes").report;
    assert_eq!(big_report.rounds.len(), 40, "budget 200 / round 5");

    let stats = mgr.sched_stats();
    assert_eq!(
        stats.completion_order.last(),
        Some(&big),
        "the big tenant finishes last"
    );
    let mut first_three: Vec<JobId> = stats.completion_order[..3].to_vec();
    first_three.sort();
    assert_eq!(
        first_three, smalls,
        "every small tenant completes before the big one"
    );
    for &(id, slices) in &stats.slices {
        let rounds: u64 = if id == big { 40 } else { 4 };
        assert_eq!(
            slices,
            rounds + 1,
            "job {}: one slice per round plus the finishing slice",
            id.0
        );
    }
}

/// `sched.*` observability on a clean multi-tenant run (telemetry
/// builds): the gauges settle to an idle pool, the slice and requeue
/// counters match the deterministic ledger, and nothing was refused
/// admission.
#[test]
fn sched_telemetry_tracks_pool_and_ledger() {
    let mgr = JobManager::with_config(
        Box::new(SimAnnotator::new(SimAnnotatorConfig::default())),
        Telemetry::enabled(),
        SchedConfig {
            workers: 2,
            queue_bound: 8,
        },
    );
    if !mgr.telemetry().is_enabled() {
        return; // disabled handle: nothing to observe
    }
    let ids: Vec<JobId> = (1u64..=3)
        .map(|s| mgr.submit(request(&format!("tenant-{s}"), s, 1_000)))
        .collect();
    let total_rounds: u64 = ids
        .iter()
        .map(|&id| mgr.wait(id).expect("job completes").report.rounds.len() as u64)
        .sum();

    // Taking the scheduler lock serializes this snapshot after the last
    // job's finalization, so the gauge reads below cannot race it.
    let stats = mgr.sched_stats();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.workers_busy, 0);
    assert_eq!(stats.jobs_parked, 0);
    assert_eq!(stats.live_jobs, 0);

    let tel = mgr.telemetry();
    assert_eq!(tel.gauge("sched.queue.depth"), Some(0.0));
    assert_eq!(tel.gauge("sched.workers.busy"), Some(0.0));
    assert_eq!(tel.gauge("sched.jobs.parked"), Some(0.0));
    // One slice per round plus the finishing slice, per job; one
    // requeue per annotated round (the wake when deliveries land).
    assert_eq!(tel.counter("sched.slices"), total_rounds + ids.len() as u64);
    assert_eq!(tel.counter("sched.requeues"), total_rounds);
    assert_eq!(tel.counter("sched.admission_rejects"), 0);
}

/// Admission control at the manager API: with `queue_bound` live jobs
/// admitted, `try_submit` answers the recoverable [`ServeError::Busy`]
/// (counted as an admission reject), and a slot freed by cancellation
/// admits the next tenant.
#[test]
fn bounded_admission_refuses_then_recovers() {
    use chef_serve::ServeError;
    let mgr = JobManager::with_config(
        Box::new(SimAnnotator::new(SimAnnotatorConfig::default())),
        Telemetry::enabled(),
        SchedConfig {
            workers: 1,
            queue_bound: 2,
        },
    );
    let a = mgr.submit(request("a", 1, 1_000));
    let b = mgr.submit(request("b", 2, 1_000));
    let refused = mgr.try_submit(request("c", 3, 1_000));
    assert!(matches!(refused, Err(ServeError::Busy)));
    if mgr.telemetry().is_enabled() {
        assert_eq!(mgr.telemetry().counter("sched.admission_rejects"), 1);
    }
    // Drain one slot (whether the cancel wins the race or the job
    // completes, it leaves the live set either way) and resubmit.
    let _ = mgr.cancel(a);
    let _ = mgr.wait(a);
    let c = mgr
        .try_submit(request("c", 3, 1_000))
        .expect("slot freed: admission recovers");
    let result = mgr.wait(c).expect("job completes");
    assert_same_outcome(&sync_reference(3), &replayed(&result, 3));
    let _ = mgr.wait(b);
}

/// A malformed frame (bad header shape) is answered and then closes the
/// connection — nothing after it is processed.
#[test]
fn malformed_frame_closes_connection_after_structured_error() {
    let mgr = JobManager::new(Box::new(SimAnnotator::new(SimAnnotatorConfig::default())));
    let mut input = String::new();
    input.push_str("chef-serve.v1 status\n"); // only 2 header fields
    input.push_str(&Frame::new(Verb::Status, r#"{"job": 1}"#).encode());
    let mut reader = std::io::Cursor::new(input.into_bytes());
    let mut out: Vec<u8> = Vec::new();
    serve_connection(&mgr, &mut reader, &mut out).expect("serving returns cleanly");
    let rest = std::str::from_utf8(&out).expect("utf8");
    let (frame, rest) = Frame::decode(rest).expect("one response frame");
    assert_eq!(frame.verb, Verb::Error);
    assert!(frame.payload.contains("malformed"));
    assert!(
        rest.is_empty(),
        "no second response after a malformed frame"
    );
}

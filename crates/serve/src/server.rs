//! Protocol dispatch: one `chef-serve.v1` connection (stdin pipe, unix
//! socket, or an in-memory reader in tests) driving a [`JobManager`].
//!
//! Request payloads are JSON; the submit payload is a *job spec* naming
//! a `chef-data` paper dataset, which the server generates, weakens and
//! wraps into a [`JobRequest`] — the daemon's tenants share nothing but
//! the annotator host. Frame-level errors answer with a structured
//! `error` frame; recoverable ones (unknown verb/version) keep the
//! connection open, unrecoverable ones (malformed, oversized, torn)
//! close it after answering.

use crate::job::{JobManager, JobRequest};
use crate::protocol::{Frame, Verb};
use crate::JobId;
use chef_core::{
    AnnotationConfig, CheckpointConfig, InflSelector, LabelStrategy, PipelineConfig, Telemetry,
};
use chef_data::{by_name, generate};
use chef_model::LogisticRegression;
use chef_obs::{parse_json, JsonValue, JsonWriter};
use chef_weak::{weaken_split, WeakenConfig};
use std::io::{BufRead, Write};
use std::path::PathBuf;

/// Default per-reply deadline when a submit spec omits `deadline_ms`.
pub const DEFAULT_DEADLINE_MS: u64 = 1_000;

fn error_payload(code: &str, detail: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("error", code);
    w.field_str("detail", detail);
    w.end_object();
    w.finish()
}

fn error_frame(code: &str, detail: &str) -> Frame {
    Frame::new(Verb::Error, error_payload(code, detail))
}

/// Build a [`JobRequest`] from a submit-spec payload.
///
/// Spec fields: `name` (required), `dataset` (paper dataset name,
/// required), `scale` (default 40), `seed` (default 7), `budget`
/// (default 20), `round_size` (default 5), `panel` (annotators, default
/// 3), `deadline_ms` (default [`DEFAULT_DEADLINE_MS`]), `incremental`
/// (Increm-Infl selector, default false), `checkpoint_dir` +
/// `checkpoint_every` (off unless given), `resume_from` (checkpoint dir
/// to continue from). `scale`, `budget` and `round_size` must be
/// positive; a zero is rejected here rather than panicking the pipeline.
pub fn job_request_from_spec(payload: &str) -> Result<JobRequest, String> {
    let v = parse_json(payload).map_err(|e| format!("spec is not JSON: {e}"))?;
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("spec missing 'name'")?
        .to_string();
    let dataset = v
        .get("dataset")
        .and_then(JsonValue::as_str)
        .ok_or("spec missing 'dataset'")?;
    let positive = |key: &str, default: usize| match v.get(key).and_then(JsonValue::as_usize) {
        Some(0) => Err(format!("spec '{key}' must be positive")),
        n => Ok(n.unwrap_or(default)),
    };
    let scale = positive("scale", 40)?;
    let budget = positive("budget", 20)?;
    let round_size = positive("round_size", 5)?;
    let seed = v.get("seed").and_then(JsonValue::as_u64).unwrap_or(7);
    let spec = by_name(dataset, scale).ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
    let mut split = generate(&spec, seed);
    weaken_split(
        &mut split,
        &spec,
        &WeakenConfig {
            seed,
            ..WeakenConfig::default()
        },
    );
    let panel = v.get("panel").and_then(JsonValue::as_usize).unwrap_or(3);
    let checkpoint = v
        .get("checkpoint_dir")
        .and_then(JsonValue::as_str)
        .map(|dir| CheckpointConfig {
            dir: PathBuf::from(dir),
            every_rounds: v
                .get("checkpoint_every")
                .and_then(JsonValue::as_usize)
                .unwrap_or(1),
            keep: 3,
        });
    let cfg = PipelineConfig {
        budget,
        round_size,
        annotation: AnnotationConfig {
            strategy: LabelStrategy::HumansOnly(panel),
            error_rate: spec.annotator_error,
            seed: seed ^ 0xa11_07a7e,
        },
        checkpoint,
        telemetry: Telemetry::enabled(),
        ..PipelineConfig::default()
    };
    let incremental = v
        .get("incremental")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let selector = if incremental {
        InflSelector::incremental()
    } else {
        InflSelector::full()
    };
    Ok(JobRequest {
        name,
        cfg,
        model: Box::new(LogisticRegression::new(spec.dim, spec.num_classes)),
        train: split.train,
        val: split.val,
        test: split.test,
        selector: Box::new(selector),
        deadline_ms: v
            .get("deadline_ms")
            .and_then(JsonValue::as_u64)
            .unwrap_or(DEFAULT_DEADLINE_MS),
        resume_from: v
            .get("resume_from")
            .and_then(JsonValue::as_str)
            .map(PathBuf::from),
    })
}

fn job_id_of(payload: &str) -> Result<JobId, Frame> {
    let v = parse_json(payload)
        .map_err(|e| error_frame("bad-payload", &format!("payload is not JSON: {e}")))?;
    let id = v
        .get("job")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| error_frame("bad-payload", "payload missing numeric 'job'"))?;
    Ok(JobId(id))
}

fn status_payload(mgr: &JobManager, id: JobId) -> Option<String> {
    let st = mgr.status(id)?;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("job", st.id.0);
    w.field_str("name", &st.name);
    w.field_str("state", st.state.as_str());
    w.field_u64("round", st.round as u64);
    w.field_u64("spent", st.spent as u64);
    w.field_u64("cleaned", st.cleaned as u64);
    if let Some(e) = &st.error {
        w.field_str("error", e);
    }
    w.end_object();
    Some(w.finish())
}

/// Handle one already-decoded request frame, producing the response
/// frame. `results` blocks until the job is terminal.
pub fn dispatch(mgr: &JobManager, frame: &Frame) -> Frame {
    match frame.verb {
        Verb::Submit => match job_request_from_spec(&frame.payload) {
            Ok(req) => {
                let name = req.name.clone();
                match mgr.try_submit(req) {
                    Ok(id) => {
                        let mut w = JsonWriter::new();
                        w.begin_object();
                        w.field_u64("job", id.0);
                        w.field_str("name", &name);
                        w.end_object();
                        Frame::new(Verb::Ok, w.finish())
                    }
                    // Recoverable backpressure: the stream stays open and
                    // aligned; the client resubmits after a job finishes.
                    Err(e) => error_frame("busy", &e.to_string()),
                }
            }
            Err(e) => error_frame("bad-spec", &e),
        },
        Verb::Status => match job_id_of(&frame.payload) {
            Err(e) => e,
            Ok(id) => match status_payload(mgr, id) {
                Some(p) => Frame::new(Verb::Ok, p),
                None => error_frame("unknown-job", &format!("no job {}", id.0)),
            },
        },
        Verb::Pause | Verb::Resume | Verb::Cancel => match job_id_of(&frame.payload) {
            Err(e) => e,
            Ok(id) => {
                let res = match frame.verb {
                    Verb::Pause => mgr.pause(id),
                    Verb::Resume => mgr.resume_job(id),
                    _ => mgr.cancel(id),
                };
                match res {
                    Ok(()) => {
                        let mut w = JsonWriter::new();
                        w.begin_object();
                        w.field_u64("job", id.0);
                        w.end_object();
                        Frame::new(Verb::Ok, w.finish())
                    }
                    Err(e) => error_frame("unknown-job", &e.to_string()),
                }
            }
        },
        Verb::Results => match job_id_of(&frame.payload) {
            Err(e) => e,
            Ok(id) => match mgr.wait(id) {
                Ok(result) => {
                    let r = &result.report;
                    let mut w = JsonWriter::new();
                    w.begin_object();
                    w.field_u64("job", id.0);
                    w.field_u64("rounds", r.rounds.len() as u64);
                    w.field_u64("cleaned_total", r.cleaned_total as u64);
                    w.field_f64("initial_test_f1", r.initial_test_f1);
                    w.field_f64("final_test_f1", r.final_test_f1());
                    w.field_bool("early_terminated", r.early_terminated);
                    w.field_bool("interrupted", r.interrupted);
                    w.end_object();
                    Frame::new(Verb::Ok, w.finish())
                }
                Err(e) => error_frame("job-failed", &e.to_string()),
            },
        },
        // `event` as a request asks for the job's serve-events.v1 log;
        // the response reuses the same verb.
        Verb::Event => match job_id_of(&frame.payload) {
            Err(e) => e,
            Ok(id) => match (mgr.events(id), mgr.status(id)) {
                (Some(events), Some(st)) => {
                    Frame::new(Verb::Event, crate::events::export_events(&st.name, &events))
                }
                _ => error_frame("unknown-job", &format!("no job {}", id.0)),
            },
        },
        Verb::Ok | Verb::Error => error_frame(
            "bad-verb",
            &format!("'{}' is a response verb", frame.verb.as_str()),
        ),
    }
}

/// Serve one connection until EOF or an unrecoverable frame error.
/// Every request gets exactly one response frame.
pub fn serve_connection<R: BufRead, W: Write>(
    mgr: &JobManager,
    reader: &mut R,
    writer: &mut W,
) -> std::io::Result<()> {
    loop {
        match Frame::read_from(reader) {
            Ok(None) => return Ok(()),
            Ok(Some(frame)) => {
                let response = dispatch(mgr, &frame);
                writer.write_all(response.encode().as_bytes())?;
                writer.flush()?;
            }
            Err(e) => {
                let response = error_frame(e.code(), &e.to_string());
                writer.write_all(response.encode().as_bytes())?;
                writer.flush()?;
                if !e.recoverable() {
                    return Ok(());
                }
            }
        }
    }
}

/// Serve a unix-domain socket: accept loop, one thread per connection.
/// Runs until the listener errors (never, in practice — callers run it
/// on a dedicated thread and drop the listener path to stop).
#[cfg(unix)]
pub fn serve_socket(
    mgr: &std::sync::Arc<JobManager>,
    listener: std::os::unix::net::UnixListener,
) -> std::io::Result<()> {
    loop {
        let (stream, _) = listener.accept()?;
        let mgr = std::sync::Arc::clone(mgr);
        std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            });
            let mut writer = stream;
            let _ = serve_connection(&mgr, &mut reader, &mut writer);
        });
    }
}

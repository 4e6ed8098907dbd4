//! Property tests for the `chef-serve.v1` frame codec (DESIGN.md §16.3).
//!
//! The codec is the daemon's outer armor: every byte sequence a client
//! can send must either decode to a frame or fail with a structured
//! [`FrameError`] — never a panic, never a silently desynchronized
//! stream. The properties here hammer that contract from both entry
//! points (`Frame::decode` on a string, `Frame::read_from` on a byte
//! reader):
//!
//! - encode∘decode is the identity for every verb × arbitrary payloads
//!   (newlines, quotes, multi-byte UTF-8 included);
//! - concatenated frames decode back in order from one stream;
//! - every strict prefix of a valid frame is `Truncated`/`Malformed`,
//!   never `Ok` — a cut cable cannot manufacture a frame;
//! - oversized declared lengths are rejected *before* any payload byte
//!   is read;
//! - unknown verbs and foreign version tokens produce recoverable
//!   errors that consume exactly one frame, so the next frame on the
//!   connection still decodes;
//! - arbitrary garbage bytes never panic the reader.

use chef_serve::{Frame, FrameError, Verb, MAX_PAYLOAD_BYTES, PROTOCOL_VERSION};
use proptest::prelude::*;
use std::io::Cursor;

/// Character pool for payloads: JSON structure, whitespace (including
/// the newlines the length prefix must shield), and multi-byte UTF-8.
const POOL: &[char] = &[
    'a', 'Z', '0', '9', '{', '}', '[', ']', '"', ':', ',', ' ', '\n', '\t', '\r', '\\', '\'', 'é',
    'λ', '中', '🦀',
];

fn payload_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..POOL.len(), 0..64)
        .prop_map(|ix| ix.into_iter().map(|i| POOL[i]).collect())
}

fn verb_strategy() -> impl Strategy<Value = Verb> {
    (0usize..Verb::ALL.len()).prop_map(|i| Verb::ALL[i])
}

/// Lowercase-alpha tokens: valid header fields (no spaces/newlines)
/// that can collide with real verbs — callers `prop_assume!` them away.
fn token_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..26, 1..12)
        .prop_map(|ix| ix.into_iter().map(|i| (b'a' + i as u8) as char).collect())
}

/// Largest `cut <= at` that is a char boundary of `s`.
fn boundary_at(s: &str, at: usize) -> usize {
    let mut cut = at.min(s.len());
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    cut
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity, consumes the whole input, and
    /// `read_from` agrees with `decode`.
    #[test]
    fn roundtrip_exact(verb in verb_strategy(), payload in payload_strategy()) {
        let frame = Frame::new(verb, payload);
        let wire = frame.encode();
        let (back, rest) = Frame::decode(&wire).expect("valid frame decodes");
        prop_assert_eq!(&back, &frame);
        prop_assert!(rest.is_empty(), "decode left {} bytes unconsumed", rest.len());

        let mut cursor = Cursor::new(wire.into_bytes());
        let read = Frame::read_from(&mut cursor).expect("valid frame reads");
        prop_assert_eq!(read, Some(frame));
        prop_assert_eq!(Frame::read_from(&mut cursor).expect("clean EOF"), None);
    }

    /// A stream of concatenated frames decodes back in order, from both
    /// entry points.
    #[test]
    fn stream_of_frames_decodes_in_order(
        frames in prop::collection::vec(
            (verb_strategy(), payload_strategy()).prop_map(|(v, p)| Frame::new(v, p)),
            1..6,
        ),
    ) {
        let wire: String = frames.iter().map(Frame::encode).collect();

        let mut rest = wire.as_str();
        for expected in &frames {
            let (got, tail) = Frame::decode(rest).expect("frame in stream decodes");
            prop_assert_eq!(&got, expected);
            rest = tail;
        }
        prop_assert!(rest.is_empty());

        let mut cursor = Cursor::new(wire.into_bytes());
        for expected in &frames {
            let got = Frame::read_from(&mut cursor).expect("frame in stream reads");
            prop_assert_eq!(got.as_ref(), Some(expected));
        }
        prop_assert_eq!(Frame::read_from(&mut cursor).expect("clean EOF"), None);
    }

    /// No strict prefix of a valid frame ever decodes to a frame: the
    /// result is `Truncated` (retry with more bytes) or `Malformed`,
    /// and `read_from` never yields `Ok(Some)` (empty input is clean
    /// EOF, `Ok(None)`).
    #[test]
    fn prefixes_never_decode(
        verb in verb_strategy(),
        payload in payload_strategy(),
        frac in 0.0f64..1.0,
    ) {
        let wire = Frame::new(verb, payload).encode();
        let cut = boundary_at(&wire, (wire.len() as f64 * frac) as usize);
        prop_assume!(cut < wire.len());

        match Frame::decode(&wire[..cut]) {
            Err(FrameError::Truncated | FrameError::Malformed(_)) => {}
            other => prop_assert!(false, "prefix of {cut} bytes gave {other:?}"),
        }

        let mut cursor = Cursor::new(wire.as_bytes()[..cut].to_vec());
        match Frame::read_from(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0, "Ok(None) is only clean EOF"),
            Err(FrameError::Truncated | FrameError::Malformed(_)) => {}
            other => prop_assert!(false, "prefix of {cut} bytes read as {other:?}"),
        }
    }

    /// A declared length over the cap is rejected as `Oversized` from
    /// the header alone — no payload bytes are present, and a
    /// payload-reading path would have to report `Truncated` instead.
    #[test]
    fn oversized_rejected_before_payload(excess in 1usize..1_000_000) {
        let len = MAX_PAYLOAD_BYTES + excess;
        let header_only = format!("{PROTOCOL_VERSION} submit {len}\n");
        prop_assert_eq!(Frame::decode(&header_only), Err(FrameError::Oversized(len)));

        let mut cursor = Cursor::new(header_only.into_bytes());
        prop_assert_eq!(Frame::read_from(&mut cursor), Err(FrameError::Oversized(len)));
        prop_assert!(!FrameError::Oversized(len).recoverable());
    }

    /// Unknown verbs and foreign version tokens are *recoverable*: the
    /// bad frame is consumed whole and the next frame on the connection
    /// still decodes.
    #[test]
    fn unknown_verb_and_version_keep_stream_aligned(
        token in token_strategy(),
        payload in payload_strategy(),
        next in (verb_strategy(), payload_strategy()).prop_map(|(v, p)| Frame::new(v, p)),
        foreign_version in any::<bool>(),
    ) {
        prop_assume!(Verb::parse(&token).is_none());
        let bad = if foreign_version {
            format!("{token} submit {}\n{payload}\n", payload.len())
        } else {
            format!("{PROTOCOL_VERSION} {token} {}\n{payload}\n", payload.len())
        };
        let wire = format!("{bad}{}", next.encode());

        let mut cursor = Cursor::new(wire.into_bytes());
        let err = Frame::read_from(&mut cursor).expect_err("bad frame errors");
        if foreign_version {
            prop_assert_eq!(&err, &FrameError::Version(token.clone()));
            prop_assert_eq!(err.code(), "unknown-version");
        } else {
            prop_assert_eq!(&err, &FrameError::UnknownVerb(token.clone()));
            prop_assert_eq!(err.code(), "unknown-verb");
        }
        prop_assert!(err.recoverable(), "{err:?} must keep the connection open");
        prop_assert_eq!(Frame::read_from(&mut cursor).expect("aligned"), Some(next));
    }

    /// Structurally broken headers (wrong field count, unparseable
    /// length) are `Malformed` and unrecoverable.
    #[test]
    fn broken_headers_are_malformed(
        tokens in prop::collection::vec(token_strategy(), 0..6),
        payload in payload_strategy(),
    ) {
        prop_assume!(tokens.len() != 3);
        let header = tokens.join(" ");
        prop_assume!(header.len() <= 100);
        let wire = format!("{header}\n{payload}\n");
        match Frame::decode(&wire) {
            Err(e @ FrameError::Malformed(_)) => prop_assert!(!e.recoverable()),
            other => prop_assert!(false, "header '{header}' gave {other:?}"),
        }
        // An alpha token in the length slot never parses as a number.
        let wire = format!("{PROTOCOL_VERSION} submit notanumber\n{payload}\n");
        prop_assert!(matches!(Frame::decode(&wire), Err(FrameError::Malformed(_))));
    }

    /// Arbitrary garbage bytes never panic the reader; they produce
    /// clean EOF, a frame, or a structured error.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut cursor = Cursor::new(bytes.clone());
        let _ = Frame::read_from(&mut cursor);
        let lossy = String::from_utf8_lossy(&bytes).into_owned();
        let _ = Frame::decode(&lossy);
    }
}

/// Exhaustive (non-property) checks over the closed verb vocabulary.
#[test]
fn verb_wire_names_roundtrip() {
    for verb in Verb::ALL {
        assert_eq!(Verb::parse(verb.as_str()), Some(verb));
    }
    assert_eq!(Verb::ALL.len(), 9, "update Verb::ALL when adding verbs");
    assert_eq!(Verb::parse("submitx"), None);
    assert_eq!(Verb::parse("Submit"), None, "wire names are lowercase");
}

/// The error taxonomy: codes are stable wire strings and recoverability
/// matches the documented contract (only fully-consumed frames keep
/// the connection).
#[test]
fn frame_error_taxonomy() {
    let cases: [(FrameError, &str, bool); 5] = [
        (FrameError::Version("v0".into()), "unknown-version", true),
        (FrameError::UnknownVerb("zap".into()), "unknown-verb", true),
        (
            FrameError::Oversized(MAX_PAYLOAD_BYTES + 1),
            "oversized",
            false,
        ),
        (FrameError::Truncated, "truncated", false),
        (FrameError::Malformed("x".into()), "malformed", false),
    ];
    for (err, code, recoverable) in cases {
        assert_eq!(err.code(), code);
        assert_eq!(err.recoverable(), recoverable, "{err:?}");
        assert!(!err.to_string().is_empty());
    }
}

/// Backpressure at the dispatch layer: a daemon at its admission bound
/// answers `submit` with the recoverable `busy` error code — the
/// connection stays open, every later frame on the stream still gets
/// its aligned response, and a freed slot admits the resubmission.
#[test]
fn busy_reply_keeps_stream_aligned() {
    use chef_serve::{serve_connection, JobManager, SchedConfig, SimAnnotator, SimAnnotatorConfig};

    let mgr = JobManager::with_config(
        Box::new(SimAnnotator::new(SimAnnotatorConfig::default())),
        chef_core::Telemetry::enabled(),
        SchedConfig {
            workers: 1,
            queue_bound: 1,
        },
    );
    let spec = |name: &str| {
        format!(
            r#"{{"name": "{name}", "dataset": "MIMIC", "scale": 30, "seed": 5, "budget": 10, "round_size": 5, "deadline_ms": 1000}}"#
        )
    };
    let mut input = String::new();
    input.push_str(&Frame::new(Verb::Submit, spec("a")).encode());
    // Pause lands at job 1's next round boundary, pinning it live: the
    // daemon is now deterministically at its bound of 1.
    input.push_str(&Frame::new(Verb::Pause, r#"{"job": 1}"#).encode());
    input.push_str(&Frame::new(Verb::Submit, spec("refused")).encode());
    input.push_str(&Frame::new(Verb::Status, r#"{"job": 1}"#).encode());
    input.push_str(&Frame::new(Verb::Cancel, r#"{"job": 1}"#).encode());
    // `results` blocks until job 1 is terminal — by the time the next
    // submit is dispatched, the cancel has freed the admission slot.
    input.push_str(&Frame::new(Verb::Results, r#"{"job": 1}"#).encode());
    input.push_str(&Frame::new(Verb::Submit, spec("b")).encode());
    input.push_str(&Frame::new(Verb::Results, r#"{"job": 2}"#).encode());

    let mut reader = Cursor::new(input.into_bytes());
    let mut out: Vec<u8> = Vec::new();
    serve_connection(&mgr, &mut reader, &mut out).expect("serving succeeds");

    let mut rest = std::str::from_utf8(&out).expect("utf8 output");
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let (f, r) = Frame::decode(rest).expect("well-formed response stream");
        frames.push(f);
        rest = r;
    }
    assert_eq!(frames.len(), 8, "one aligned response per request");
    let json = |i: usize| chef_obs::parse_json(&frames[i].payload).expect("JSON payload");
    let error_code = |i: usize| {
        json(i)
            .get("error")
            .and_then(|v| v.as_str().map(String::from))
    };
    assert_eq!(frames[0].verb, Verb::Ok, "submit a: {}", frames[0].payload);
    assert_eq!(json(0).get("job").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(frames[1].verb, Verb::Ok, "pause: {}", frames[1].payload);
    assert_eq!(frames[2].verb, Verb::Error, "second submit refused");
    assert_eq!(error_code(2), Some("busy".into()));
    assert_eq!(frames[3].verb, Verb::Ok, "status still served after busy");
    assert_eq!(frames[4].verb, Verb::Ok, "cancel: {}", frames[4].payload);
    assert_eq!(frames[5].verb, Verb::Error, "results of a cancelled job");
    assert!(frames[5].payload.contains("cancelled"));
    assert_eq!(
        frames[6].verb,
        Verb::Ok,
        "resubmit admitted after the slot freed"
    );
    assert_eq!(json(6).get("job").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(frames[7].verb, Verb::Ok, "job 2 runs to completion");
    assert!(json(7).get("final_test_f1").is_some());
}

/// A zero `budget`, `round_size` or `scale` is a recoverable `bad-spec`
/// error at the dispatch layer — not a panic inside the scheduler — and
/// a valid submit on the same stream afterwards is still admitted.
#[test]
fn zero_valued_specs_are_bad_spec() {
    use chef_serve::{serve_connection, JobManager, SchedConfig, SimAnnotator, SimAnnotatorConfig};

    let mgr = JobManager::with_config(
        Box::new(SimAnnotator::new(SimAnnotatorConfig::default())),
        chef_core::Telemetry::enabled(),
        SchedConfig {
            workers: 1,
            queue_bound: 1,
        },
    );
    let spec = |scale: usize, budget: usize, round_size: usize| {
        format!(
            r#"{{"name": "z", "dataset": "MIMIC", "scale": {scale}, "seed": 5, "budget": {budget}, "round_size": {round_size}}}"#
        )
    };
    let bad = [spec(30, 0, 5), spec(30, 10, 0), spec(0, 10, 5)];
    let mut input = String::new();
    for s in &bad {
        input.push_str(&Frame::new(Verb::Submit, s.clone()).encode());
    }
    input.push_str(&Frame::new(Verb::Submit, spec(30, 10, 5)).encode());
    input.push_str(&Frame::new(Verb::Results, r#"{"job": 1}"#).encode());

    let mut reader = Cursor::new(input.into_bytes());
    let mut out: Vec<u8> = Vec::new();
    serve_connection(&mgr, &mut reader, &mut out).expect("serving succeeds");

    let mut rest = std::str::from_utf8(&out).expect("utf8 output");
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let (f, r) = Frame::decode(rest).expect("well-formed response stream");
        frames.push(f);
        rest = r;
    }
    assert_eq!(
        frames.len(),
        bad.len() + 2,
        "one aligned response per request"
    );
    for (f, s) in frames.iter().zip(&bad) {
        assert_eq!(f.verb, Verb::Error, "{s}");
        let code = chef_obs::parse_json(&f.payload)
            .ok()
            .and_then(|v| v.get("error").and_then(|e| e.as_str().map(String::from)));
        assert_eq!(code.as_deref(), Some("bad-spec"), "{s}: {}", f.payload);
    }
    let ok = &frames[bad.len()];
    assert_eq!(
        ok.verb,
        Verb::Ok,
        "valid submit after bad specs: {}",
        ok.payload
    );
    let done = &frames[bad.len() + 1];
    assert_eq!(
        done.verb,
        Verb::Ok,
        "job runs to completion: {}",
        done.payload
    );
}

/// Every build carries `PipelineConfig::faults`, so the spec parser is
/// what keeps a client from injecting faults into the daemon: a spec
/// naming the plan's fields (or the plan itself) still yields a job
/// with the empty plan.
#[test]
fn specs_cannot_reach_fault_injection() {
    let spec = r#"{"name": "f", "dataset": "MIMIC", "scale": 30, "seed": 5, "budget": 10, "round_size": 5,
        "crash_after_round": 0, "kill_mid_round": 1,
        "faults": {"crash_after_round": 0, "kill_mid_round": 1, "torn_write_after_round": 0,
                   "bitflip_after_round": 0, "annotator_timeout_rounds": [0, 1]}}"#;
    let req = chef_serve::job_request_from_spec(spec).expect("extra keys are ignored");
    assert_eq!(req.cfg.faults, chef_core::FaultPlan::default());
}

/// A payload that *contains* something shaped like a frame header must
/// not confuse the codec: the length prefix wins over line structure.
#[test]
fn embedded_header_lookalike_is_just_payload() {
    let tricky = format!("{PROTOCOL_VERSION} cancel 3\nabc");
    let frame = Frame::new(Verb::Submit, tricky.clone());
    let wire = frame.encode();
    let (back, rest) = Frame::decode(&wire).expect("decodes");
    assert_eq!(back.payload, tricky);
    assert!(rest.is_empty());

    let mut cursor = Cursor::new(wire.into_bytes());
    assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(frame));
    assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
}

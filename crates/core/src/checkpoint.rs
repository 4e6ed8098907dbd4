//! Durable round-boundary checkpoints: the `checkpoint.v2` format.
//!
//! CHEF's loop runs for many rounds against a human budget; a crash must
//! not discard completed cleaning work or silently corrupt the replay
//! state DeltaGrad-L depends on. This module serializes the *complete*
//! loop state at a round boundary — model parameters, the cleaned-label
//! patches, Increm-Infl's `w⁽⁰⁾` with the Hessian norms frozen there,
//! the DeltaGrad-L provenance trace with its replayable batch plan, the
//! annotator RNG stream seed, and every finished [`RoundReport`] — such
//! that [`crate::Pipeline::resume_round_loop_latest`] continues the loop
//! **bit-identically** to a run that was never interrupted
//! (`tests/checkpoint_resume.rs` pins this; DESIGN.md §12 documents the
//! guarantee).
//!
//! # On-disk layout
//!
//! ```text
//! checkpoint.v2 <json_len> <bin_len> <fnv1a64-hex>\n        ← header
//! <json_len bytes of JSON>                                  ← structure
//! <bin_len bytes of little-endian f64s>                     ← matrices
//! ```
//!
//! The JSON section (hand-rolled [`JsonWriter`], parsed back with
//! [`chef_obs::parse`]) holds every scalar, the label patches, and the
//! per-round reports; the binary section holds the large matrices
//! (parameters, the `T×m` provenance buffers, Increm-Infl's `w⁽⁰⁾` and
//! norms) as raw little-endian `f64`s — exact bits, no text round-trip.
//! `checkpoint.v1` files, whose Increm-Infl section also carried
//! `n·(C + 1)` gradient rows between `w⁽⁰⁾` and the norms, still load:
//! those rows are read and dropped. The FNV-1a
//! 64 checksum covers both sections; torn writes and bit flips surface
//! as [`CheckpointError::Corrupt`], and the generation scan
//! ([`Checkpoint::latest_in_dir`]) falls back to the previous file.
//! Writes go to a `.tmp` sibling, are fsynced, then renamed into place,
//! so a crash mid-write never destroys the previous generation.

use crate::increm::{IncremSnapshot, IncremStats};
use crate::pipeline::RoundReport;
use crate::selector::{Selection, SelectorCheckpoint};
use chef_model::{DatasetStore, SoftLabel};
use chef_obs::parse::{expect_schema, parse_json, JsonValue, ParseError};
use chef_obs::{JsonWriter, RoundTelemetry};
use chef_train::{BatchPlan, TraceStore, TrainTrace};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Version tag carried by every checkpoint file this build writes.
pub const CHECKPOINT_VERSION: &str = "checkpoint.v2";

/// The previous version, still read: its Increm-Infl section also
/// stores gradient rows, which this build reads and drops.
const CHECKPOINT_VERSION_V1: &str = "checkpoint.v1";

/// File-name prefix of generation files in a checkpoint directory.
const GENERATION_PREFIX: &str = "chef-ckpt-round-";
/// File-name suffix of generation files. It names the directory layout,
/// not the format version, so directories written by `checkpoint.v1`
/// builds are still scanned.
const GENERATION_SUFFIX: &str = ".v1";

/// Checkpoint cadence and retention knobs (part of
/// [`crate::PipelineConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory generation files are written into (created on demand).
    pub dir: PathBuf,
    /// Write a checkpoint every `every_rounds` completed rounds (1 =
    /// every round).
    pub every_rounds: usize,
    /// Number of generations retained; older files are deleted after a
    /// successful write. At least 2 is recommended so a corrupt newest
    /// generation can fall back.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoint every round into `dir`, keeping the last 2 generations.
    pub fn every_round(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_rounds: 1,
            keep: 2,
        }
    }
}

/// Why a checkpoint could not be written or read.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Bad header, checksum mismatch, truncation, or undecodable body.
    Corrupt(String),
    /// The file declares a version this build does not read.
    UnsupportedVersion(String),
    /// The checkpoint is internally valid but does not match the run it
    /// was handed to (e.g. different parameter count or annotator seed).
    Mismatch(String),
    /// No generation file exists in the directory.
    NoCheckpoint(PathBuf),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::UnsupportedVersion(v) => write!(
                f,
                "unsupported checkpoint version {v:?} (this build reads {CHECKPOINT_VERSION_V1:?} and {CHECKPOINT_VERSION:?})"
            ),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::NoCheckpoint(d) => {
                write!(f, "no checkpoint generation found in {}", d.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<ParseError> for CheckpointError {
    fn from(e: ParseError) -> Self {
        CheckpointError::Corrupt(e.to_string())
    }
}

/// One mutated training sample: the label (and clean flag) it carries
/// after the checkpointed rounds. Applied onto the caller's pristine
/// dataset at resume. A finished `chef-serve` job keeps the same patches
/// as its final labels instead of its training set.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelPatch {
    /// Training-set index.
    pub index: usize,
    /// Whether the sample is now clean (deterministic label, weight 1).
    pub clean: bool,
    /// The label's class probabilities.
    pub probs: Vec<f64>,
}

impl LabelPatch {
    /// The label and clean flag each of `indices` carries in `data` now,
    /// in the order given.
    pub fn capture(data: &dyn DatasetStore, indices: &[usize]) -> Vec<LabelPatch> {
        indices
            .iter()
            .map(|&i| LabelPatch {
                index: i,
                clean: data.is_clean(i),
                probs: data.label(i).probs().to_vec(),
            })
            .collect()
    }

    /// Replay `patches` onto a pristine copy of the dataset the run
    /// started from. A patch that does not fit `data` (index out of
    /// range, wrong class count) is a [`CheckpointError::Mismatch`].
    pub fn replay(
        patches: &[LabelPatch],
        data: &mut dyn DatasetStore,
    ) -> Result<(), CheckpointError> {
        let c = data.num_classes();
        for p in patches {
            if p.index >= data.len() {
                return Err(CheckpointError::Mismatch(format!(
                    "label patch index {} out of range for dataset of {}",
                    p.index,
                    data.len()
                )));
            }
            if p.probs.len() != c {
                return Err(CheckpointError::Mismatch(format!(
                    "label patch for sample {} has {} classes, dataset has {c}",
                    p.index,
                    p.probs.len()
                )));
            }
            let label = SoftLabel::new(p.probs.clone());
            if p.clean {
                data.clean_label(p.index, label);
            } else {
                data.set_label(p.index, label);
            }
        }
        Ok(())
    }
}

/// Full round-boundary pipeline state. Field-for-field this is
/// everything [`crate::Pipeline::run`]'s loop carries across rounds; see
/// the module docs for the serialized layout.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Completed rounds (the next round to run).
    pub round: usize,
    /// Budget slots consumed so far.
    pub spent: usize,
    /// Samples cleaned so far.
    pub cleaned_total: usize,
    /// Whether the run already hit its early-termination target.
    pub early_terminated: bool,
    /// Validation F1 of the uncleaned model.
    pub initial_val_f1: f64,
    /// Test F1 of the uncleaned model.
    pub initial_test_f1: f64,
    /// Wall-clock of the initialization training, in nanoseconds (so the
    /// resumed [`crate::PipelineReport`] aggregates pre-crash time).
    pub init_ns: u64,
    /// The annotation seed in effect — the annotators are deterministic
    /// per `(seed, sample)`, so this *is* the RNG stream position; resume
    /// refuses a config with a different seed.
    pub annotation_seed: u64,
    /// The SGD seed in effect (drives the replayable batch plan).
    pub sgd_seed: u64,
    /// Samples already shown to annotators (sorted).
    pub attempted: Vec<usize>,
    /// Label mutations to replay onto the pristine dataset.
    pub labels: Vec<LabelPatch>,
    /// Every finished round's report, including durations and telemetry.
    pub rounds: Vec<RoundReport>,
    /// Full-budget parameters entering the next round.
    pub w_raw: Vec<f64>,
    /// Early-stopped parameters of the last evaluation.
    pub w_eval: Vec<f64>,
    /// DeltaGrad-L provenance: per-iteration params/grads, the epoch
    /// checkpoints, and the replayable batch plan.
    pub trace: TrainTrace,
    /// Selector state (Increm-Infl frozen provenance for the Infl family).
    pub selector: SelectorCheckpoint,
}

// ---------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------

/// FNV-1a 64 over `bytes` — cheap, dependency-free, and plenty to catch
/// torn writes and bit flips (this is corruption *detection*, not
/// authentication).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Binary payload helpers
// ---------------------------------------------------------------------

fn push_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Sequential reader over the little-endian f64 payload.
struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, count: usize) -> Result<Vec<f64>, CheckpointError> {
        // Counts come from the file: a length too large to address is
        // truncation too, not an overflow.
        let need = count.saturating_mul(8);
        if need > self.bytes.len() - self.pos {
            return Err(CheckpointError::Corrupt(format!(
                "binary payload truncated: need {count} f64s at offset {}",
                self.pos
            )));
        }
        let out = self.bytes[self.pos..self.pos + need]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        self.pos += need;
        Ok(out)
    }

    fn finish(&self) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return Err(CheckpointError::Corrupt(format!(
                "binary payload has {} trailing bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// JSON field helpers (reading)
// ---------------------------------------------------------------------

fn req<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, CheckpointError> {
    v.get(key)
        .ok_or_else(|| CheckpointError::Corrupt(format!("missing field \"{key}\"")))
}

fn req_usize(v: &JsonValue, key: &str) -> Result<usize, CheckpointError> {
    req(v, key)?
        .as_usize()
        .ok_or_else(|| CheckpointError::Corrupt(format!("field \"{key}\" is not an integer")))
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, CheckpointError> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| CheckpointError::Corrupt(format!("field \"{key}\" is not an integer")))
}

fn req_f64(v: &JsonValue, key: &str) -> Result<f64, CheckpointError> {
    match req(v, key)? {
        JsonValue::Null => Ok(f64::NAN), // the writer's non-finite encoding
        n => n
            .as_f64()
            .ok_or_else(|| CheckpointError::Corrupt(format!("field \"{key}\" is not a number"))),
    }
}

fn req_bool(v: &JsonValue, key: &str) -> Result<bool, CheckpointError> {
    req(v, key)?
        .as_bool()
        .ok_or_else(|| CheckpointError::Corrupt(format!("field \"{key}\" is not a bool")))
}

fn req_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], CheckpointError> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| CheckpointError::Corrupt(format!("field \"{key}\" is not an array")))
}

fn usize_array(v: &JsonValue, key: &str) -> Result<Vec<usize>, CheckpointError> {
    req_array(v, key)?
        .iter()
        .map(|x| {
            x.as_usize().ok_or_else(|| {
                CheckpointError::Corrupt(format!("field \"{key}\" has a non-integer element"))
            })
        })
        .collect()
}

fn f64_array(v: &JsonValue, key: &str) -> Result<Vec<f64>, CheckpointError> {
    req_array(v, key)?
        .iter()
        .map(|x| match x {
            JsonValue::Null => Ok(f64::NAN),
            n => n.as_f64().ok_or_else(|| {
                CheckpointError::Corrupt(format!("field \"{key}\" has a non-numeric element"))
            }),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Round-report (de)serialization
// ---------------------------------------------------------------------

fn write_round_report(w: &mut JsonWriter, r: &RoundReport) {
    w.begin_object();
    w.field_u64("round", r.round as u64);
    w.key("selected");
    w.begin_array();
    for s in &r.selected {
        w.begin_object();
        w.field_u64("index", s.index as u64);
        w.key("suggested");
        match s.suggested {
            Some(c) => w.u64(c as u64),
            None => w.raw("null"),
        }
        w.end_object();
    }
    w.end_array();
    w.field_u64("cleaned", r.cleaned as u64);
    w.field_u64("ambiguous", r.ambiguous as u64);
    w.field_f64("val_f1", r.val_f1);
    w.field_f64("test_f1", r.test_f1);
    w.field_u64("select_ns", r.select_time.as_nanos() as u64);
    w.field_u64("update_ns", r.update_time.as_nanos() as u64);
    w.key("selector_stats");
    match r.selector_stats {
        Some(st) => {
            w.begin_object();
            w.field_u64("pool", st.pool as u64);
            w.field_u64("candidates", st.candidates as u64);
            w.end_object();
        }
        None => w.raw("null"),
    }
    w.key("telemetry");
    r.telemetry.write_json(w);
    w.end_object();
}

fn read_round_report(v: &JsonValue) -> Result<RoundReport, CheckpointError> {
    let selected = req_array(v, "selected")?
        .iter()
        .map(|s| {
            let index = req_usize(s, "index")?;
            let suggested =
                match req(s, "suggested")? {
                    JsonValue::Null => None,
                    n => Some(n.as_usize().ok_or_else(|| {
                        CheckpointError::Corrupt("non-integer \"suggested\"".into())
                    })?),
                };
            Ok(Selection { index, suggested })
        })
        .collect::<Result<Vec<_>, CheckpointError>>()?;
    let selector_stats = match req(v, "selector_stats")? {
        JsonValue::Null => None,
        st => Some(IncremStats {
            pool: req_usize(st, "pool")?,
            candidates: req_usize(st, "candidates")?,
        }),
    };
    Ok(RoundReport {
        round: req_usize(v, "round")?,
        selected,
        cleaned: req_usize(v, "cleaned")?,
        ambiguous: req_usize(v, "ambiguous")?,
        val_f1: req_f64(v, "val_f1")?,
        test_f1: req_f64(v, "test_f1")?,
        select_time: Duration::from_nanos(req_u64(v, "select_ns")?),
        update_time: Duration::from_nanos(req_u64(v, "update_ns")?),
        selector_stats,
        telemetry: RoundTelemetry::from_json(req(v, "telemetry")?)?,
    })
}

// ---------------------------------------------------------------------
// Checkpoint (de)serialization
// ---------------------------------------------------------------------

impl Checkpoint {
    /// Serialize to the full file image (header + JSON + binary payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let m = self.w_raw.len();

        // --- Binary payload: every matrix, in a fixed order. ---
        let mut bin = Vec::new();
        push_f64s(&mut bin, &self.w_raw);
        push_f64s(&mut bin, &self.w_eval);
        // The TraceStore arenas are already the on-disk layout — rows
        // concatenated in order — so each streams out in one call,
        // byte-identical to the per-row loop the format was defined by.
        push_f64s(&mut bin, self.trace.params.as_slice());
        push_f64s(&mut bin, self.trace.grads.as_slice());
        for c in &self.trace.epoch_checkpoints {
            push_f64s(&mut bin, c);
        }
        let increm = match &self.selector {
            SelectorCheckpoint::Infl { increm } => increm.as_ref(),
            SelectorCheckpoint::Stateless => None,
        };
        if let Some(snap) = increm {
            push_f64s(&mut bin, &snap.w0);
            push_f64s(&mut bin, &snap.hessian_norms0);
            push_f64s(&mut bin, &snap.class_hessian_norms0);
        }

        // --- JSON section: scalars, patches, reports, layout metadata. ---
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", CHECKPOINT_VERSION);
        w.field_u64("round", self.round as u64);
        w.field_u64("spent", self.spent as u64);
        w.field_u64("cleaned_total", self.cleaned_total as u64);
        w.field_bool("early_terminated", self.early_terminated);
        w.field_f64("initial_val_f1", self.initial_val_f1);
        w.field_f64("initial_test_f1", self.initial_test_f1);
        w.field_u64("init_ns", self.init_ns);
        w.field_u64("annotation_seed", self.annotation_seed);
        w.field_u64("sgd_seed", self.sgd_seed);
        w.field_u64("num_params", m as u64);
        w.key("attempted");
        w.begin_array();
        for &i in &self.attempted {
            w.u64(i as u64);
        }
        w.end_array();
        w.key("labels");
        w.begin_array();
        for p in &self.labels {
            w.begin_object();
            w.field_u64("index", p.index as u64);
            w.field_bool("clean", p.clean);
            w.key("probs");
            w.begin_array();
            for &x in &p.probs {
                w.f64(x);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("rounds");
        w.begin_array();
        for r in &self.rounds {
            write_round_report(&mut w, r);
        }
        w.end_array();
        w.key("trace");
        w.begin_object();
        w.field_u64("n", self.trace.plan.n() as u64);
        w.field_u64("batch_size", self.trace.plan.batch_size() as u64);
        w.field_u64("epochs", self.trace.plan.epochs() as u64);
        w.field_u64("seed", self.trace.plan.seed());
        w.field_f64("lr", self.trace.lr);
        w.field_u64("iters", self.trace.params.len() as u64);
        w.field_u64("checkpoints", self.trace.epoch_checkpoints.len() as u64);
        w.end_object();
        w.key("selector");
        w.begin_object();
        match (&self.selector, increm) {
            (SelectorCheckpoint::Stateless, _) => w.field_str("kind", "stateless"),
            (SelectorCheckpoint::Infl { .. }, None) => {
                w.field_str("kind", "infl");
                w.key("increm");
                w.raw("null");
            }
            (SelectorCheckpoint::Infl { .. }, Some(snap)) => {
                w.field_str("kind", "infl");
                w.key("increm");
                w.begin_object();
                w.field_u64("samples", snap.hessian_norms0.len() as u64);
                w.field_u64("num_params", snap.num_params as u64);
                w.field_u64("num_classes", snap.num_classes as u64);
                w.field_f64("slack", snap.slack);
                w.end_object();
            }
        }
        w.end_object();
        w.field_u64("bin_f64s", (bin.len() / 8) as u64);
        w.end_object();
        let json = w.finish();

        // --- Header over both sections. ---
        let mut body = Vec::with_capacity(json.len() + bin.len());
        body.extend_from_slice(json.as_bytes());
        body.extend_from_slice(&bin);
        let checksum = fnv1a64(&body);
        let mut out = format!(
            "{CHECKPOINT_VERSION} {} {} {checksum:016x}\n",
            json.len(),
            bin.len()
        )
        .into_bytes();
        out.extend_from_slice(&body);
        out
    }

    /// Decode a full file image produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        // --- Header. ---
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| CheckpointError::Corrupt("missing header line".into()))?;
        let header = std::str::from_utf8(&bytes[..nl])
            .map_err(|_| CheckpointError::Corrupt("non-UTF-8 header".into()))?;
        let mut parts = header.split_ascii_whitespace();
        let version = parts
            .next()
            .ok_or_else(|| CheckpointError::Corrupt("empty header".into()))?;
        if version != CHECKPOINT_VERSION && version != CHECKPOINT_VERSION_V1 {
            return Err(CheckpointError::UnsupportedVersion(version.to_string()));
        }
        let json_len: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Corrupt("bad json length in header".into()))?;
        let bin_len: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Corrupt("bad binary length in header".into()))?;
        let declared: u64 = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| CheckpointError::Corrupt("bad checksum in header".into()))?;
        let body = &bytes[nl + 1..];
        if body.len() != json_len + bin_len {
            return Err(CheckpointError::Corrupt(format!(
                "body is {} bytes, header declares {}",
                body.len(),
                json_len + bin_len
            )));
        }
        if fnv1a64(body) != declared {
            return Err(CheckpointError::Corrupt("checksum mismatch".into()));
        }
        let json = std::str::from_utf8(&body[..json_len])
            .map_err(|_| CheckpointError::Corrupt("non-UTF-8 JSON section".into()))?;
        let bin = &body[json_len..];

        // --- JSON section. ---
        let doc = parse_json(json)?;
        expect_schema(&doc, version).map_err(|_| {
            match doc.get("schema").and_then(JsonValue::as_str) {
                Some(v) if v == CHECKPOINT_VERSION || v == CHECKPOINT_VERSION_V1 => {
                    CheckpointError::Corrupt(format!(
                        "header declares {version:?}, JSON section {v:?}"
                    ))
                }
                Some(v) => CheckpointError::UnsupportedVersion(v.to_string()),
                None => CheckpointError::Corrupt("JSON section carries no schema".into()),
            }
        })?;
        let m = req_usize(&doc, "num_params")?;
        let labels = req_array(&doc, "labels")?
            .iter()
            .map(|p| {
                Ok(LabelPatch {
                    index: req_usize(p, "index")?,
                    clean: req_bool(p, "clean")?,
                    probs: f64_array(p, "probs")?,
                })
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        let rounds = req_array(&doc, "rounds")?
            .iter()
            .map(read_round_report)
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        let tr = req(&doc, "trace")?;
        let plan = BatchPlan::new(
            req_usize(tr, "n")?,
            req_usize(tr, "batch_size")?,
            req_usize(tr, "epochs")?,
            req_u64(tr, "seed")?,
        );
        let iters = req_usize(tr, "iters")?;
        let n_ckpts = req_usize(tr, "checkpoints")?;
        let lr = req_f64(tr, "lr")?;

        let sel = req(&doc, "selector")?;
        let sel_kind = sel
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| CheckpointError::Corrupt("selector without kind".into()))?;
        let increm_meta = match sel_kind {
            "stateless" => None,
            "infl" => match req(sel, "increm")? {
                JsonValue::Null => None,
                inc => Some((
                    req_usize(inc, "samples")?,
                    req_usize(inc, "num_params")?,
                    req_usize(inc, "num_classes")?,
                    req_f64(inc, "slack")?,
                )),
            },
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown selector kind {other:?}"
                )))
            }
        };
        let declared_f64s = req_usize(&doc, "bin_f64s")?;
        if bin.len() != declared_f64s * 8 {
            return Err(CheckpointError::Corrupt(format!(
                "binary payload is {} bytes, JSON declares {} f64s",
                bin.len(),
                declared_f64s
            )));
        }

        // --- Binary payload, in the writer's fixed order. ---
        let mut r = BinReader::new(bin);
        let w_raw = r.take(m)?;
        let w_eval = r.take(m)?;
        // `iters` rows of `m` f64s each, stored concatenated — exactly a
        // flat TraceStore arena, so each matrix is one bulk read.
        let params = TraceStore::from_flat(m, r.take(iters * m)?);
        let grads = TraceStore::from_flat(m, r.take(iters * m)?);
        let mut epoch_checkpoints = Vec::with_capacity(n_ckpts);
        for _ in 0..n_ckpts {
            epoch_checkpoints.push(r.take(m)?);
        }
        let selector = match (sel_kind, increm_meta) {
            ("stateless", _) => SelectorCheckpoint::Stateless,
            ("infl", None) => SelectorCheckpoint::Infl { increm: None },
            ("infl", Some((samples, num_params, num_classes, slack))) => {
                let w0 = r.take(num_params)?;
                if version == CHECKPOINT_VERSION_V1 {
                    // The gradient and per-class gradient rows at w⁽⁰⁾,
                    // read and dropped.
                    let rows = samples.saturating_mul(num_classes.saturating_add(1));
                    r.take(rows.saturating_mul(num_params))?;
                }
                let snap = IncremSnapshot {
                    w0,
                    hessian_norms0: r.take(samples)?,
                    class_hessian_norms0: r.take(samples * num_classes)?,
                    num_params,
                    num_classes,
                    slack,
                };
                snap.validate().map_err(CheckpointError::Corrupt)?;
                SelectorCheckpoint::Infl { increm: Some(snap) }
            }
            _ => unreachable!("selector kind validated above"),
        };
        r.finish()?;

        Ok(Self {
            round: req_usize(&doc, "round")?,
            spent: req_usize(&doc, "spent")?,
            cleaned_total: req_usize(&doc, "cleaned_total")?,
            early_terminated: req_bool(&doc, "early_terminated")?,
            initial_val_f1: req_f64(&doc, "initial_val_f1")?,
            initial_test_f1: req_f64(&doc, "initial_test_f1")?,
            init_ns: req_u64(&doc, "init_ns")?,
            annotation_seed: req_u64(&doc, "annotation_seed")?,
            sgd_seed: req_u64(&doc, "sgd_seed")?,
            attempted: usize_array(&doc, "attempted")?,
            labels,
            rounds,
            w_raw,
            w_eval,
            trace: TrainTrace {
                plan,
                params,
                grads,
                epoch_checkpoints,
                lr,
            },
            selector,
        })
    }

    /// Generation file name for a given completed-round count.
    pub fn generation_file_name(round: usize) -> String {
        format!("{GENERATION_PREFIX}{round:05}{GENERATION_SUFFIX}")
    }

    /// Atomically write this checkpoint to `path`: serialize, write a
    /// `.tmp` sibling, fsync, rename into place. Returns the file size
    /// in bytes.
    pub fn write_to(&self, path: &Path) -> Result<u64, CheckpointError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(bytes.len() as u64)
    }

    /// Write the next generation file into `cfg.dir` (created on demand)
    /// and prune generations beyond `cfg.keep`. Returns the written path
    /// and file size.
    pub fn write_generation(
        &self,
        cfg: &CheckpointConfig,
    ) -> Result<(PathBuf, u64), CheckpointError> {
        std::fs::create_dir_all(&cfg.dir)?;
        let path = cfg.dir.join(Self::generation_file_name(self.round));
        let bytes = self.write_to(&path)?;
        if cfg.keep > 0 {
            let mut gens = generation_files(&cfg.dir)?;
            // Newest first; delete everything past the retention window.
            gens.sort_by_key(|g| std::cmp::Reverse(g.0));
            for (_, old) in gens.into_iter().skip(cfg.keep) {
                let _ = std::fs::remove_file(old);
            }
        }
        Ok((path, bytes))
    }

    /// Read a checkpoint from `path`.
    pub fn read_from(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Load the newest readable generation in `dir`, falling back over
    /// corrupt or unreadable generations (torn writes, bit flips).
    /// Returns the checkpoint, its path, and how many newer generations
    /// were skipped as corrupt (`resume.corrupt_fallbacks` in telemetry).
    pub fn latest_in_dir(dir: &Path) -> Result<(Self, PathBuf, usize), CheckpointError> {
        let mut gens = generation_files(dir)?;
        if gens.is_empty() {
            return Err(CheckpointError::NoCheckpoint(dir.to_path_buf()));
        }
        gens.sort_by_key(|g| std::cmp::Reverse(g.0));
        let mut skipped = 0usize;
        let mut last_err = None;
        for (_, path) in gens {
            match Self::read_from(&path) {
                Ok(ckpt) => return Ok((ckpt, path, skipped)),
                Err(e) => {
                    skipped += 1;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or(CheckpointError::NoCheckpoint(dir.to_path_buf())))
    }
}

/// `(round, path)` of every generation file in `dir`.
fn generation_files(dir: &Path) -> Result<Vec<(usize, PathBuf)>, CheckpointError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(GENERATION_PREFIX)
            .and_then(|s| s.strip_suffix(GENERATION_SUFFIX))
        else {
            continue;
        };
        if let Ok(round) = stem.parse::<usize>() {
            out.push((round, entry.path()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_obs::schema::SelectorTelemetry;

    fn sample_checkpoint() -> Checkpoint {
        let m = 3;
        Checkpoint {
            round: 2,
            spent: 10,
            cleaned_total: 8,
            early_terminated: false,
            initial_val_f1: 0.62,
            initial_test_f1: 0.6,
            init_ns: 1_234_567,
            annotation_seed: 11,
            sgd_seed: 3,
            attempted: vec![1, 4, 9],
            labels: vec![
                LabelPatch {
                    index: 4,
                    clean: true,
                    probs: vec![0.0, 1.0],
                },
                LabelPatch {
                    index: 9,
                    clean: false,
                    probs: vec![0.25, 0.75],
                },
            ],
            rounds: vec![RoundReport {
                round: 0,
                selected: vec![
                    Selection {
                        index: 4,
                        suggested: Some(1),
                    },
                    Selection {
                        index: 9,
                        suggested: None,
                    },
                ],
                cleaned: 1,
                ambiguous: 1,
                val_f1: 0.7,
                test_f1: 0.68,
                select_time: Duration::from_nanos(1_500_000),
                update_time: Duration::from_nanos(2_500_000),
                selector_stats: Some(IncremStats {
                    pool: 50,
                    candidates: 7,
                }),
                telemetry: RoundTelemetry {
                    round: 0,
                    selector: SelectorTelemetry {
                        selector: "Infl+Increm".into(),
                        pool: 50,
                        pruned: 43,
                        scored: 7,
                        grad_evals: 21,
                        hvp_evals: 12,
                        bound_hit_rate: 0.86,
                        kernel_path: "gemm".into(),
                        kernel_backend: "reference".into(),
                        select_ms: 1.5,
                    },
                    ..RoundTelemetry::default()
                },
            }],
            w_raw: vec![0.1, -0.2, 0.3],
            w_eval: vec![0.05, -0.15, 0.25],
            trace: TrainTrace {
                plan: BatchPlan::new(12, 4, 2, 3),
                params: TraceStore::from_flat(m, (0..6).flat_map(|t| vec![t as f64; m]).collect()),
                grads: TraceStore::from_flat(
                    m,
                    (0..6).flat_map(|t| vec![-(t as f64); m]).collect(),
                ),
                epoch_checkpoints: vec![vec![1.0; m], vec![2.0; m]],
                lr: 0.1,
            },
            selector: SelectorCheckpoint::Infl {
                increm: Some(IncremSnapshot {
                    w0: vec![0.0, 0.0, 0.0],
                    hessian_norms0: vec![1.0, 2.0],
                    class_hessian_norms0: vec![0.1, 0.2, 0.3, 0.4],
                    num_params: m,
                    num_classes: 2,
                    slack: 1.0,
                }),
            },
        }
    }

    fn assert_checkpoints_equal(a: &Checkpoint, b: &Checkpoint) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.spent, b.spent);
        assert_eq!(a.cleaned_total, b.cleaned_total);
        assert_eq!(a.early_terminated, b.early_terminated);
        assert_eq!(a.initial_val_f1.to_bits(), b.initial_val_f1.to_bits());
        assert_eq!(a.initial_test_f1.to_bits(), b.initial_test_f1.to_bits());
        assert_eq!(a.init_ns, b.init_ns);
        assert_eq!(a.annotation_seed, b.annotation_seed);
        assert_eq!(a.sgd_seed, b.sgd_seed);
        assert_eq!(a.attempted, b.attempted);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.rounds.len(), b.rounds.len());
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x, y);
        }
        assert_eq!(a.w_raw, b.w_raw);
        assert_eq!(a.w_eval, b.w_eval);
        assert_eq!(a.trace.plan, b.trace.plan);
        assert_eq!(a.trace.params, b.trace.params);
        assert_eq!(a.trace.grads, b.trace.grads);
        assert_eq!(a.trace.epoch_checkpoints, b.trace.epoch_checkpoints);
        assert_eq!(a.trace.lr.to_bits(), b.trace.lr.to_bits());
        assert_eq!(a.selector, b.selector);
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_checkpoints_equal(&ckpt, &back);
        // Serialize → parse → re-serialize is byte-identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            match Checkpoint::from_bytes(&bytes[..cut]) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let bytes = sample_checkpoint().to_bytes();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Flip one bit in the JSON section and one deep in the payload.
        for pos in [header_len + 10, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x04;
            assert!(
                matches!(
                    Checkpoint::from_bytes(&bad),
                    Err(CheckpointError::Corrupt(_))
                ),
                "bit flip at {pos} not detected"
            );
        }
    }

    #[test]
    fn unknown_version_is_a_clear_error_not_a_panic() {
        let mut bytes = sample_checkpoint().to_bytes();
        // The version token is the first field of the header.
        bytes[12] = b'9'; // checkpoint.v2 → checkpoint.v9
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::UnsupportedVersion(v)) => {
                assert_eq!(v, "checkpoint.v9");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_and_read_from_disk() {
        let dir = std::env::temp_dir().join(format!("chef-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.v1");
        let ckpt = sample_checkpoint();
        let bytes = ckpt.write_to(&path).unwrap();
        assert_eq!(bytes, ckpt.to_bytes().len() as u64);
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        let back = Checkpoint::read_from(&path).unwrap();
        assert_checkpoints_equal(&ckpt, &back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_prunes_old_generations_and_fallback_skips_corrupt() {
        let dir = std::env::temp_dir().join(format!("chef-ckpt-gen-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CheckpointConfig {
            dir: dir.clone(),
            every_rounds: 1,
            keep: 2,
        };
        let mut ckpt = sample_checkpoint();
        for round in 1..=4 {
            ckpt.round = round;
            ckpt.write_generation(&cfg).unwrap();
        }
        let mut files = generation_files(&dir).unwrap();
        files.sort();
        assert_eq!(
            files.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![3, 4],
            "retention must keep exactly the newest 2"
        );

        // Corrupt the newest generation: latest_in_dir falls back.
        let newest = dir.join(Checkpoint::generation_file_name(4));
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&newest, bytes).unwrap();
        let (loaded, path, skipped) = Checkpoint::latest_in_dir(&dir).unwrap();
        assert_eq!(loaded.round, 3);
        assert_eq!(path, dir.join(Checkpoint::generation_file_name(3)));
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_reports_no_checkpoint() {
        let dir = std::env::temp_dir().join(format!("chef-ckpt-empty-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            Checkpoint::latest_in_dir(&dir),
            Err(CheckpointError::NoCheckpoint(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn label_patches_replay_onto_pristine_data() {
        use chef_linalg::Matrix;
        let mut data = chef_model::Dataset::new(
            Matrix::from_vec(12, 1, (0..12).map(|i| i as f64).collect()),
            (0..12).map(|_| SoftLabel::uniform(2)).collect(),
            vec![false; 12],
            (0..12).map(|i| Some(i % 2)).collect(),
            2,
        );
        let ckpt = sample_checkpoint();
        LabelPatch::replay(&ckpt.labels, &mut data).unwrap();
        assert!(data.is_clean(4));
        assert_eq!(data.label(4), &SoftLabel::onehot(1, 2));
        assert!(!data.is_clean(9));
        assert_eq!(data.label(9).probs(), &[0.25, 0.75]);
        // Capturing the replayed rows gives the patches back.
        let indices: Vec<usize> = ckpt.labels.iter().map(|p| p.index).collect();
        assert_eq!(LabelPatch::capture(&data, &indices), ckpt.labels);

        // Out-of-range patch is a Mismatch, not a panic.
        let mut small = data.subset(&[0, 1]);
        assert!(matches!(
            LabelPatch::replay(&ckpt.labels, &mut small),
            Err(CheckpointError::Mismatch(_))
        ));
    }
}

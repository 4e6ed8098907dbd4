//! The `telemetry.v1` schema: plain-data per-round breakdowns.
//!
//! These types are filled in whether or not the telemetry handle is
//! enabled — a disabled handle skips only the recording machinery
//! (registry, spans, export). The pipeline therefore always carries a structured per-round
//! breakdown in its `RoundReport`, because every field below is derived
//! from counts the phases compute anyway; only wall-clock histograms and
//! span statistics cost anything to collect.
//!
//! Field-by-field units and the paper tables each field validates are
//! documented in DESIGN.md §10.

use crate::json::JsonWriter;
use crate::parse::{JsonValue, ParseError};

/// Version tag carried by every exported telemetry document.
pub const SCHEMA_VERSION: &str = "telemetry.v1";

/// Sample-selector phase counters (paper §4.1, Exp2 / Table 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectorTelemetry {
    /// Selector name as reported by `SampleSelector::name`.
    pub selector: String,
    /// Uncleaned samples eligible this round (`|pool|`).
    pub pool: usize,
    /// Samples eliminated by the Theorem-1 bound pass before exact
    /// scoring (0 for Full Infl and for baselines).
    pub pruned: usize,
    /// Samples whose exact Eq. 6 influence was evaluated.
    pub scored: usize,
    /// Gradient evaluations of the exact-scoring pass
    /// (`scored × (C + 1)` for Infl; 0 when the selector doesn't report).
    pub grad_evals: usize,
    /// Hessian-vector products spent on the CG solve for `H⁻¹∇F_val`.
    pub hvp_evals: usize,
    /// Fraction of the pool the Theorem-1 bound pruned
    /// (`pruned / pool`; the paper's Exp2 "evaluated" column inverted).
    pub bound_hit_rate: f64,
    /// Which scoring kernel served the round: `"gemm"` for the batched
    /// structure-aware closed form, `"per_sample"` for the generic
    /// fallback, empty when the selector doesn't report one.
    pub kernel_path: String,
    /// Which precision/ILP backend the GEMM panels ran on
    /// (`"reference"`, `"unrolled_f64"` or `"mixed_f32"`; empty when
    /// `kernel_path` is not `"gemm"`).
    ///
    /// Additive `telemetry.v1` field: omitted from the serialized object
    /// when empty so documents (and `checkpoint.v1` files, which embed
    /// round telemetry) written before the field existed still
    /// round-trip byte-identically.
    pub kernel_backend: String,
    /// Wall-clock of the selector phase in milliseconds (Time_inf).
    pub select_ms: f64,
}

/// Annotation phase counters (paper §4.3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnnotationTelemetry {
    /// Selections handed to the annotators this round.
    pub requested: usize,
    /// Individual votes cast (humans + algorithmic suggestions).
    pub votes: usize,
    /// Samples whose vote set was not unanimous.
    pub conflicts: usize,
    /// Samples left probabilistic: vote ties, empty panels, or missing
    /// ground truth (Appendix F.1's "ambiguous" rule).
    pub abstains: usize,
    /// Samples that received a deterministic label and weight 1.
    pub cleaned: usize,
    /// Wall-clock of the annotation phase in milliseconds.
    pub annotate_ms: f64,
}

/// Model-constructor phase counters (paper §4.2, Exp3 / Figure 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstructorTelemetry {
    /// `"retrain"` or `"deltagrad-l"`.
    pub kind: String,
    /// SGD iterations computed with an exact minibatch gradient
    /// (all of them for Retrain; the `j₀`-burn-in/`T₀`-periodic ones for
    /// DeltaGrad-L, Algorithm 2 line 4).
    pub exact_steps: usize,
    /// Iterations replayed with the L-BFGS Hessian approximation
    /// (DeltaGrad-L only, Algorithm 2 line 7).
    pub replay_steps: usize,
    /// Exact gradients on the changed set `A_t = B_t ∩ R⁽ᵏ⁾` spent on
    /// replay corrections (DeltaGrad-L only).
    pub correction_grads: usize,
    /// L-BFGS history size `m₀` (0 for Retrain).
    pub lbfgs_history: usize,
    /// SGD epoch budget of this construction.
    pub epochs: usize,
    /// Which minibatch-gradient kernel the construction ran on
    /// (`"gemm"` for the batched closed form, `"per_sample"` for the
    /// generic fallback, empty when the constructor doesn't report one).
    ///
    /// Additive `telemetry.v1` field: omitted from the serialized object
    /// when empty so documents (and `checkpoint.v1` files, which embed
    /// round telemetry) written before the field existed still
    /// round-trip byte-identically.
    pub kernel_path: String,
    /// Which precision/ILP backend the training GEMM panels ran on
    /// (`"reference"`, `"unrolled_f64"` or `"mixed_f32"`; empty when
    /// `kernel_path` is not `"gemm"`). Additive and omitted when empty,
    /// like `kernel_path`.
    pub kernel_backend: String,
    /// Wall-clock of the constructor phase in milliseconds.
    pub update_ms: f64,
}

/// One cleaning round's structured breakdown, in phase order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundTelemetry {
    /// Round number (0-based).
    pub round: usize,
    /// Selector phase.
    pub selector: SelectorTelemetry,
    /// Annotation phase.
    pub annotation: AnnotationTelemetry,
    /// Constructor phase.
    pub constructor: ConstructorTelemetry,
}

/// Pull a named `usize` field out of a telemetry object.
fn req_usize(v: &JsonValue, section: &str, key: &str) -> Result<usize, ParseError> {
    v.get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| ParseError::schema(format!("{section}: missing/non-integer \"{key}\"")))
}

/// Pull a named `f64` field out of a telemetry object (`null` → NaN,
/// mirroring the writer's encoding of non-finite values).
fn req_f64(v: &JsonValue, section: &str, key: &str) -> Result<f64, ParseError> {
    match v.get(key) {
        Some(JsonValue::Null) => Ok(f64::NAN),
        Some(n) => n
            .as_f64()
            .ok_or_else(|| ParseError::schema(format!("{section}: non-numeric \"{key}\""))),
        None => Err(ParseError::schema(format!("{section}: missing \"{key}\""))),
    }
}

/// Pull a named string field out of a telemetry object.
fn req_str(v: &JsonValue, section: &str, key: &str) -> Result<String, ParseError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| ParseError::schema(format!("{section}: missing/non-string \"{key}\"")))
}

/// Pull an **additive-optional** string field: absent (a pre-field
/// document) parses as empty, which the writers in turn omit — the pair
/// of rules that keeps old documents round-tripping byte-identically.
fn opt_str(v: &JsonValue, section: &str, key: &str) -> Result<String, ParseError> {
    match v.get(key) {
        Some(k) => k
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| ParseError::schema(format!("{section}: non-string \"{key}\""))),
        None => Ok(String::new()),
    }
}

impl SelectorTelemetry {
    /// Serialize as a JSON object in value position.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("selector", &self.selector);
        w.field_u64("pool", self.pool as u64);
        w.field_u64("pruned", self.pruned as u64);
        w.field_u64("scored", self.scored as u64);
        w.field_u64("grad_evals", self.grad_evals as u64);
        w.field_u64("hvp_evals", self.hvp_evals as u64);
        w.field_f64("bound_hit_rate", self.bound_hit_rate);
        w.field_str("kernel_path", &self.kernel_path);
        if !self.kernel_backend.is_empty() {
            w.field_str("kernel_backend", &self.kernel_backend);
        }
        w.field_f64("select_ms", self.select_ms);
        w.end_object();
    }

    /// Reconstruct from a parsed `telemetry.v1` selector object.
    pub fn from_json(v: &JsonValue) -> Result<Self, ParseError> {
        Ok(Self {
            selector: req_str(v, "selector", "selector")?,
            pool: req_usize(v, "selector", "pool")?,
            pruned: req_usize(v, "selector", "pruned")?,
            scored: req_usize(v, "selector", "scored")?,
            grad_evals: req_usize(v, "selector", "grad_evals")?,
            hvp_evals: req_usize(v, "selector", "hvp_evals")?,
            bound_hit_rate: req_f64(v, "selector", "bound_hit_rate")?,
            kernel_path: req_str(v, "selector", "kernel_path")?,
            // Optional (additive): absent in pre-PR-6 documents.
            kernel_backend: opt_str(v, "selector", "kernel_backend")?,
            select_ms: req_f64(v, "selector", "select_ms")?,
        })
    }
}

impl AnnotationTelemetry {
    /// Serialize as a JSON object in value position.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("requested", self.requested as u64);
        w.field_u64("votes", self.votes as u64);
        w.field_u64("conflicts", self.conflicts as u64);
        w.field_u64("abstains", self.abstains as u64);
        w.field_u64("cleaned", self.cleaned as u64);
        w.field_f64("annotate_ms", self.annotate_ms);
        w.end_object();
    }

    /// Reconstruct from a parsed `telemetry.v1` annotation object.
    pub fn from_json(v: &JsonValue) -> Result<Self, ParseError> {
        Ok(Self {
            requested: req_usize(v, "annotation", "requested")?,
            votes: req_usize(v, "annotation", "votes")?,
            conflicts: req_usize(v, "annotation", "conflicts")?,
            abstains: req_usize(v, "annotation", "abstains")?,
            cleaned: req_usize(v, "annotation", "cleaned")?,
            annotate_ms: req_f64(v, "annotation", "annotate_ms")?,
        })
    }
}

impl ConstructorTelemetry {
    /// Serialize as a JSON object in value position.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("kind", &self.kind);
        w.field_u64("exact_steps", self.exact_steps as u64);
        w.field_u64("replay_steps", self.replay_steps as u64);
        w.field_u64("correction_grads", self.correction_grads as u64);
        w.field_u64("lbfgs_history", self.lbfgs_history as u64);
        w.field_u64("epochs", self.epochs as u64);
        if !self.kernel_path.is_empty() {
            w.field_str("kernel_path", &self.kernel_path);
        }
        if !self.kernel_backend.is_empty() {
            w.field_str("kernel_backend", &self.kernel_backend);
        }
        w.field_f64("update_ms", self.update_ms);
        w.end_object();
    }

    /// Reconstruct from a parsed `telemetry.v1` constructor object.
    pub fn from_json(v: &JsonValue) -> Result<Self, ParseError> {
        Ok(Self {
            kind: req_str(v, "constructor", "kind")?,
            exact_steps: req_usize(v, "constructor", "exact_steps")?,
            replay_steps: req_usize(v, "constructor", "replay_steps")?,
            correction_grads: req_usize(v, "constructor", "correction_grads")?,
            lbfgs_history: req_usize(v, "constructor", "lbfgs_history")?,
            epochs: req_usize(v, "constructor", "epochs")?,
            // Optional (additive): absent in pre-PR-5 documents.
            kernel_path: opt_str(v, "constructor", "kernel_path")?,
            // Optional (additive): absent in pre-PR-6 documents.
            kernel_backend: opt_str(v, "constructor", "kernel_backend")?,
            update_ms: req_f64(v, "constructor", "update_ms")?,
        })
    }
}

impl RoundTelemetry {
    /// Serialize as a JSON object in value position.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("round", self.round as u64);
        w.key("selector");
        self.selector.write_json(w);
        w.key("annotation");
        self.annotation.write_json(w);
        w.key("constructor");
        self.constructor.write_json(w);
        w.end_object();
    }

    /// Reconstruct from a parsed `telemetry.v1` round object.
    pub fn from_json(v: &JsonValue) -> Result<Self, ParseError> {
        let section = |key: &str| {
            v.get(key)
                .ok_or_else(|| ParseError::schema(format!("round: missing \"{key}\" section")))
        };
        Ok(Self {
            round: req_usize(v, "round", "round")?,
            selector: SelectorTelemetry::from_json(section("selector")?)?,
            annotation: AnnotationTelemetry::from_json(section("annotation")?)?,
            constructor: ConstructorTelemetry::from_json(section("constructor")?)?,
        })
    }
}

/// `std::thread::available_parallelism`, defaulting to 1 — recorded in
/// every exported document so a ~1.0× parallel speedup on 1-core
/// hardware is self-explaining.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_telemetry_serializes_all_sections() {
        let r = RoundTelemetry {
            round: 2,
            selector: SelectorTelemetry {
                selector: "Infl+Increm".into(),
                pool: 100,
                pruned: 90,
                scored: 10,
                grad_evals: 30,
                hvp_evals: 12,
                bound_hit_rate: 0.9,
                kernel_path: "gemm".into(),
                kernel_backend: "reference".into(),
                select_ms: 1.25,
            },
            ..RoundTelemetry::default()
        };
        let mut w = JsonWriter::new();
        r.write_json(&mut w);
        let json = w.finish();
        for needle in [
            "\"round\":2",
            "\"pruned\":90",
            "\"scored\":10",
            "\"grad_evals\":30",
            "\"bound_hit_rate\":0.9",
            "\"annotation\":{",
            "\"constructor\":{",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
    }

    #[test]
    fn round_telemetry_round_trips_through_parser() {
        let r = RoundTelemetry {
            round: 7,
            selector: SelectorTelemetry {
                selector: "Infl".into(),
                pool: 250,
                pruned: 0,
                scored: 250,
                grad_evals: 750,
                hvp_evals: 40,
                bound_hit_rate: 0.0,
                kernel_path: "per_sample".into(),
                kernel_backend: String::new(),
                select_ms: 3.5,
            },
            annotation: AnnotationTelemetry {
                requested: 20,
                votes: 60,
                conflicts: 4,
                abstains: 2,
                cleaned: 18,
                annotate_ms: 0.25,
            },
            constructor: ConstructorTelemetry {
                kind: "deltagrad-l".into(),
                exact_steps: 12,
                replay_steps: 88,
                correction_grads: 30,
                lbfgs_history: 2,
                epochs: 10,
                kernel_path: "gemm".into(),
                kernel_backend: "unrolled_f64".into(),
                update_ms: 9.75,
            },
        };
        let mut w = JsonWriter::new();
        r.write_json(&mut w);
        let json = w.finish();
        let parsed = crate::parse::parse_json(&json).unwrap();
        let restored = RoundTelemetry::from_json(&parsed).unwrap();
        assert_eq!(restored, r);
        // Re-serializing the restored value is byte-identical.
        let mut w2 = JsonWriter::new();
        restored.write_json(&mut w2);
        assert_eq!(w2.finish(), json);
    }

    #[test]
    fn constructor_kernel_path_is_additive_and_optional() {
        // A pre-PR-5 constructor object (no kernel_path) still parses,
        // defaults to empty, and re-serializes byte-identically — the
        // guarantee that keeps old telemetry.v1 documents and the
        // checkpoint.v1 golden file valid.
        let old = r#"{"kind":"retrain","exact_steps":5,"replay_steps":0,"correction_grads":0,"lbfgs_history":0,"epochs":3,"update_ms":1.5}"#;
        let parsed = crate::parse::parse_json(old).unwrap();
        let ct = ConstructorTelemetry::from_json(&parsed).unwrap();
        assert_eq!(ct.kernel_path, "");
        let mut w = JsonWriter::new();
        ct.write_json(&mut w);
        assert_eq!(w.finish(), old);

        // A populated field survives its own round trip.
        let with = ConstructorTelemetry {
            kernel_path: "gemm".into(),
            ..ct
        };
        let mut w = JsonWriter::new();
        with.write_json(&mut w);
        let json = w.finish();
        assert!(json.contains("\"kernel_path\":\"gemm\""));
        let reparsed =
            ConstructorTelemetry::from_json(&crate::parse::parse_json(&json).unwrap()).unwrap();
        assert_eq!(reparsed, with);
    }

    #[test]
    fn kernel_backend_is_additive_and_optional_in_both_sections() {
        // Pre-PR-6 documents carry kernel_path but no kernel_backend:
        // they must parse (empty backend) and re-serialize byte-
        // identically, in both the selector and constructor sections.
        let old_sel = r#"{"selector":"Infl","pool":10,"pruned":0,"scored":10,"grad_evals":30,"hvp_evals":4,"bound_hit_rate":0,"kernel_path":"gemm","select_ms":1.5}"#;
        let st = SelectorTelemetry::from_json(&crate::parse::parse_json(old_sel).unwrap()).unwrap();
        assert_eq!(st.kernel_backend, "");
        let mut w = JsonWriter::new();
        st.write_json(&mut w);
        assert_eq!(w.finish(), old_sel);

        let with = SelectorTelemetry {
            kernel_backend: "mixed_f32".into(),
            ..st
        };
        let mut w = JsonWriter::new();
        with.write_json(&mut w);
        let json = w.finish();
        assert!(json.contains("\"kernel_backend\":\"mixed_f32\""));
        let reparsed =
            SelectorTelemetry::from_json(&crate::parse::parse_json(&json).unwrap()).unwrap();
        assert_eq!(reparsed, with);

        let old_ctor = r#"{"kind":"retrain","exact_steps":5,"replay_steps":0,"correction_grads":0,"lbfgs_history":0,"epochs":3,"kernel_path":"gemm","update_ms":1.5}"#;
        let ct =
            ConstructorTelemetry::from_json(&crate::parse::parse_json(old_ctor).unwrap()).unwrap();
        assert_eq!(ct.kernel_backend, "");
        let mut w = JsonWriter::new();
        ct.write_json(&mut w);
        assert_eq!(w.finish(), old_ctor);
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let v = crate::parse::parse_json(r#"{"round":1,"selector":{}}"#).unwrap();
        let err = RoundTelemetry::from_json(&v).unwrap_err().to_string();
        assert!(err.contains("selector"), "{err}");
    }
}

//! # chef-obs
//!
//! Observability substrate for the CHEF pipeline: structured tracing
//! spans, a metrics registry (counters, gauges, fixed-bucket
//! histograms), and a JSON exporter for the versioned `telemetry.v1`
//! schema documented in DESIGN.md §10.
//!
//! CHEF's claim is *cost* — Increm-Infl prunes gradient work (Theorem 1)
//! and DeltaGrad-L replaces retraining with replay (Algorithm 2) — so
//! reproducing the paper's cost breakdowns (Tables 2, 5–9, Figure 2)
//! needs phase-level visibility, not two opaque durations. This crate
//! provides it in three layers:
//!
//! * [`schema`] — plain-data per-round breakdowns ([`RoundTelemetry`]
//!   and its phase sections), always populated;
//! * [`json`] — the hand-rolled [`JsonWriter`] every exported document
//!   goes through (the offline build has no serde);
//! * [`Telemetry`] — the handle `chef-core` threads through
//!   `PipelineConfig`. An enabled handle owns a shared registry fed by
//!   `tracing`-shim spans; a disabled one records nothing.
//!
//! Beside them, [`LiveHeap`] is a counting global allocator that a
//! binary or test installs to measure what a piece of work leaves on
//! the heap.

#![warn(missing_docs)]

mod heap;
pub mod json;
pub mod metrics;
pub mod parse;
pub mod schema;
mod telemetry;

pub use heap::LiveHeap;
pub use json::JsonWriter;
pub use parse::{expect_schema, parse_json, JsonValue, ParseError};
pub use schema::{
    available_cores, AnnotationTelemetry, ConstructorTelemetry, RoundTelemetry, SelectorTelemetry,
    SCHEMA_VERSION,
};
pub use telemetry::{SpanGuard, Telemetry, Timer};

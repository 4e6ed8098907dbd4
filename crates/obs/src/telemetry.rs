//! The [`Telemetry`] handle threaded through `PipelineConfig`.
//!
//! The handle optionally owns a shared [`crate::metrics::Registry`];
//! clones share it, so a caller keeps one clone and reads counters /
//! exports JSON after the run. A handle created with
//! [`Telemetry::disabled`] carries no registry and every operation is a
//! cheap `None` check (DESIGN.md §10.4 measures it against the overhead
//! budget).
//!
//! # Examples
//!
//! ```
//! use chef_obs::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! tel.add("demo.widgets", 3);
//! {
//!     let _guard = tel.span("demo.phase"); // timed until dropped
//! }
//! assert_eq!(tel.counter("demo.widgets"), 3);
//! let json = tel.export_json("demo").unwrap();
//! assert!(json.contains("\"schema\":\"telemetry.v1\""));
//! assert!(json.contains("demo.phase"));
//!
//! let off = Telemetry::disabled();
//! off.add("demo.widgets", 3);
//! assert_eq!(off.counter("demo.widgets"), 0);
//! assert!(off.export_json("demo").is_none());
//! ```

use crate::json::JsonWriter;
use crate::metrics::{Registry, MS_BUCKETS};
use crate::schema::{available_cores, RoundTelemetry, SCHEMA_VERSION};
use std::sync::Arc;
use std::time::Instant;

/// A cloneable handle to one run's metrics. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

/// RAII guard returned by [`Telemetry::span`]; reports the span's
/// wall-clock on drop.
pub struct SpanGuard(#[allow(dead_code)] Option<tracing::EnteredSpan>);

/// Records the elapsed time into a histogram when dropped.
pub struct Timer {
    name: &'static str,
    start: Instant,
    registry: Arc<Registry>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.registry
            .observe_ms(self.name, self.start.elapsed().as_secs_f64() * 1e3);
    }
}

impl Telemetry {
    /// A handle that records nothing (the `Default`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle with a fresh registry; clones share it.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Enter a named span; the returned guard reports enter/exit and
    /// wall-clock to the span statistics until dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard(self.inner.as_ref().map(|reg| {
            let collector: Arc<dyn tracing::Collect> = reg.clone();
            tracing::Span::with_collector(name, collector).entered()
        }))
    }

    /// Increment a counter by `n`.
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(reg) = &self.inner {
            reg.add(name, n);
        }
    }

    /// Set a gauge to `v` (last write wins).
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        if let Some(reg) = &self.inner {
            reg.set_gauge(name, v);
        }
    }

    /// Record one observation into a fixed-bucket histogram.
    pub fn observe_ms(&self, name: &'static str, ms: f64) {
        if let Some(reg) = &self.inner {
            reg.observe_ms(name, ms);
        }
    }

    /// Start a histogram timer, or `None` on a disabled handle —
    /// callers skip even the clock read when nothing records.
    pub fn timer(&self, name: &'static str) -> Option<Timer> {
        self.inner.as_ref().map(|reg| Timer {
            name,
            start: Instant::now(),
            registry: reg.clone(),
        })
    }

    /// Append one round's structured breakdown to the export.
    pub fn record_round(&self, round: RoundTelemetry) {
        if let Some(reg) = &self.inner {
            reg.rounds.lock().unwrap().push(round);
        }
    }

    /// Current value of a counter (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|reg| reg.counters.lock().unwrap().get(name).copied())
            .unwrap_or(0)
    }

    /// Current value of a gauge (`None` when never set or disabled).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|reg| reg.gauges.lock().unwrap().get(name).copied())
    }

    /// Number of rounds recorded so far (0 when disabled).
    pub fn rounds_recorded(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |reg| reg.rounds.lock().unwrap().len())
    }

    /// Export everything recorded so far as a `telemetry.v1` JSON
    /// document, or `None` on a disabled handle.
    ///
    /// `kind` distinguishes document flavors sharing the envelope
    /// (`"pipeline_run"` from `Pipeline::run`, `"bench"` from the
    /// benchmark harness).
    pub fn export_json(&self, kind: &str) -> Option<String> {
        let reg = self.inner.as_ref()?;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", SCHEMA_VERSION);
        w.field_str("kind", kind);
        w.key("context");
        w.begin_object();
        w.field_u64("available_cores", available_cores() as u64);
        w.field_bool("telemetry_feature", true);
        w.end_object();

        w.key("counters");
        w.begin_object();
        for (name, v) in reg.counters.lock().unwrap().iter() {
            w.field_u64(name, *v);
        }
        w.end_object();

        w.key("gauges");
        w.begin_object();
        for (name, v) in reg.gauges.lock().unwrap().iter() {
            w.field_f64(name, *v);
        }
        w.end_object();

        w.key("histograms");
        w.begin_object();
        for (name, h) in reg.histograms.lock().unwrap().iter() {
            w.key(name);
            w.begin_object();
            w.key("buckets_ms");
            w.begin_array();
            for b in MS_BUCKETS {
                w.f64(b);
            }
            w.end_array();
            w.key("counts");
            w.begin_array();
            for c in h.counts {
                w.u64(c);
            }
            w.end_array();
            w.field_u64("count", h.count);
            w.field_f64("sum_ms", h.sum_ms);
            w.end_object();
        }
        w.end_object();

        w.key("spans");
        w.begin_object();
        for (name, s) in reg.spans.lock().unwrap().iter() {
            w.key(name);
            w.begin_object();
            w.field_u64("count", s.count);
            w.field_f64("total_ms", s.total_ns as f64 / 1e6);
            w.field_f64("min_ms", s.min_ns as f64 / 1e6);
            w.field_f64("max_ms", s.max_ns as f64 / 1e6);
            w.end_object();
        }
        w.end_object();

        w.key("rounds");
        w.begin_array();
        for round in reg.rounds.lock().unwrap().iter() {
            round.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
        Some(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SelectorTelemetry;

    #[test]
    fn counters_accumulate_across_clones() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        tel.add("x", 2);
        clone.add("x", 3);
        assert_eq!(tel.counter("x"), 5);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        tel.add("x", 2);
        tel.observe_ms("h", 1.0);
        assert!(tel.timer("h").is_none());
        assert_eq!(tel.counter("x"), 0);
        assert!(tel.export_json("pipeline_run").is_none());
    }

    #[test]
    fn export_contains_envelope_and_rounds() {
        let tel = Telemetry::enabled();
        tel.add("selector.scored", 7);
        tel.set_gauge("val_f1", 0.5);
        tel.observe_ms("train.batch_ms", 0.3);
        drop(tel.span("round.select"));
        tel.record_round(RoundTelemetry {
            round: 0,
            selector: SelectorTelemetry {
                selector: "Infl".into(),
                ..SelectorTelemetry::default()
            },
            ..RoundTelemetry::default()
        });
        let json = tel.export_json("pipeline_run").unwrap();
        for needle in [
            "\"schema\":\"telemetry.v1\"",
            "\"kind\":\"pipeline_run\"",
            "\"available_cores\":",
            "\"selector.scored\":7",
            "\"val_f1\":0.5",
            "\"train.batch_ms\":{",
            "\"round.select\":{",
            "\"rounds\":[{\"round\":0",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
    }

    #[test]
    fn timer_feeds_histogram() {
        let tel = Telemetry::enabled();
        drop(tel.timer("t"));
        let json = tel.export_json("bench").unwrap();
        assert!(json.contains("\"t\":{\"buckets_ms\""));
    }
}

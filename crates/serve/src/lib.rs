//! # chef-serve
//!
//! A multi-tenant cleaning-job daemon over the CHEF pipeline
//! (DESIGN.md §16). The crate turns the per-dataset, blocking
//! [`Pipeline::run`](chef_core::Pipeline) into a service: many
//! concurrent cleaning jobs — one per tenant dataset — each parked at an
//! **asynchronous annotation boundary** where external annotators reply
//! out of order under per-reply deadlines, with late/missing replies
//! mapping onto the pipeline's existing abstain path.
//!
//! The moving parts:
//!
//! * [`JobManager`] ([`job`]) — the daemon facade: bounded admission
//!   with the recoverable `busy` error, pause/resume/cancel,
//!   checkpoint-backed kill/resume, `serve.*` counters;
//! * the pooled cooperative scheduler ([`sched`], DESIGN.md §17) —
//!   N tenant jobs multiplexed onto M pool workers; jobs suspend at the
//!   annotation boundary (no thread held while parked), round-robin
//!   slicing at round boundaries, `sched.*` gauges and counters;
//! * [`AnnotatorHost`] ([`annotator`]) — the boundary trait: a batch
//!   request in, a delivery sequence (replies + deadline marker) out;
//! * [`SimAnnotator`] ([`sim`]) — the deterministic simulation of that
//!   boundary: seeded virtual clocks, scripted latency/drops/duplicates,
//!   bit-identical replay from the seed;
//! * [`Frame`] ([`protocol`]) — the `chef-serve.v1` framed line
//!   protocol;
//! * [`serve_connection`] ([`server`]) — protocol dispatch over any
//!   `BufRead`/`Write` pair (stdin, unix socket, in-memory test pipes);
//! * [`export_events`] ([`events`]) — the versioned `serve-events.v1`
//!   lifecycle-event documents.
//!
//! The headline invariant, proven by `tests/serve_sim.rs` and
//! `tests/serve_fault.rs`: a job whose replies all arrive on time
//! produces a report **bit-identical** to the synchronous
//! `Pipeline::run`, however the replies were ordered — and a job killed
//! mid-round resumes from its `checkpoint.v2` directory into the same
//! bits.

#![warn(missing_docs)]

pub mod annotator;
pub mod events;
pub mod job;
pub mod protocol;
pub mod sched;
pub mod server;
pub mod sim;

pub use annotator::{AnnotationRequest, AnnotatorHost, HostDelivery, JobId, SampleReply};
pub use events::{export_events, parse_events, EventKind, JobEvent, EVENTS_SCHEMA_VERSION};
pub use job::{JobManager, JobRequest, JobResult, JobState, JobStatus, ServeError};
pub use protocol::{Frame, FrameError, Verb, MAX_PAYLOAD_BYTES, PROTOCOL_VERSION};
pub use sched::{SchedConfig, SchedStats};
pub use server::{dispatch, job_request_from_spec, serve_connection, DEFAULT_DEADLINE_MS};
pub use sim::{SimAnnotator, SimAnnotatorConfig, VirtualClock};

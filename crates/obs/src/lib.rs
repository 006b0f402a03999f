//! # aalign-obs — observability substrate for the AAlign workspace
//!
//! The paper's hybrid mechanism (Sec. V-B) makes per-column runtime
//! decisions — lazy-loop re-computation counts, iterate→scan
//! switches, probe outcomes — that the end-of-run `RunStats` totals
//! can only summarize. This crate makes those decisions *watchable*:
//!
//! * [`event`] — the typed event taxonomy: span begin/end for the
//!   engine's stages, align begin/end per database subject, and the
//!   per-column [`HybridEvent`] emitted from the hybrid kernel.
//! * [`sink`] — the [`TraceSink`] trait with zero-cost-when-disabled
//!   dispatch. The monomorphized [`NullSink`] compiles every emission
//!   site away; a [`CollectorSink`] buffers events per worker.
//! * [`hist`] — fixed-bucket (log2) [`Histogram`]s with saturating,
//!   associative/commutative merge. No dependencies, `Copy`-free,
//!   cheap to record into from hot loops.
//! * [`jsonl`] — the JSON Lines trace format: a writer, and a parser
//!   strict enough to validate trace files end to end.
//! * [`report`] — reconstruction of the hybrid decision timeline
//!   (column ranges per strategy, switch points, probe outcomes)
//!   from a parsed trace — the `aalign trace-report` backend.
//! * [`flight`] — the always-on flight recorder: a fixed-capacity,
//!   lock-free ring of the last N request-stage events, readable at
//!   any moment (post-mortem dumps on dirty drain or worker loss,
//!   `GET /debug/flight` while healthy) and cheap enough to leave
//!   enabled in production.
//! * [`wire`] — the versioned wire substrate: a full recursive
//!   [`JsonValue`] parser/renderer (the flat [`jsonl`] format can't
//!   express nested service documents), `schema_version` stamping
//!   and checking, stable error envelopes, and lossless histogram
//!   serialization. Every machine-readable surface — CLI `--metrics-format`,
//!   the `aalign-serve` HTTP and JSON-RPC front ends — speaks this
//!   format.
//!
//! The crate sits at the bottom of the dependency stack (it depends
//! on nothing), so `aalign-core` can emit events from inside the
//! kernels and `aalign-par` can aggregate histograms into its
//! metrics without cycles.

pub mod event;
pub mod flight;
pub mod hist;
pub mod jsonl;
pub mod report;
pub mod sink;
pub mod wire;

pub use event::{HybridEvent, ProbeOutcome, StageKind, StrategyKind, TraceEvent};
pub use flight::{FlightEvent, FlightRecorder};
pub use hist::{prom_header, Histogram};
pub use jsonl::{event_to_json, parse_line, read_events, ParseError, TraceWriter};
pub use report::{StrategySegment, SubjectTimeline, TraceReport};
pub use sink::{CollectorSink, NullSink, TraceSink};
pub use wire::{JsonValue, WireError, SCHEMA_VERSION};

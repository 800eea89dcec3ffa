//! Deterministic tracing and metrics for the lib·erate pipeline.
//!
//! The paper's whole method is observation: detect, characterize, and
//! evaluate all hinge on seeing exactly what the classifier did to each
//! replayed packet (§4, Fig. 3). This crate is the audit substrate those
//! phases write into: a [`Journal`] of structured events timestamped with
//! the *simulation* clock (never the wall clock, so identical seeds give
//! byte-identical journals), an atomic [`Metrics`] counter registry for
//! hot paths, JSONL export, and a per-phase span summary.
//!
//! The crate sits below `netsim` in the dependency graph, so timestamps
//! are raw microseconds (`SimTime::as_micros()` at the call sites) rather
//! than `SimTime` values.

pub mod hist;
pub mod journal;
pub mod jsonl;
pub mod metrics;
pub mod reader;
pub mod spantree;
pub mod summary;

pub use hist::{Hist, HistSnapshot, Histogram};
pub use journal::{Event, EventKind, Journal, Phase};
pub use jsonl::{to_jsonl, validate_jsonl, JsonValue};
pub use metrics::{Counter, Metrics};
pub use reader::{parse_journal, ParsedJournal};
pub use spantree::{build_span_forest, critical_path, folded_stacks, SpanForest, SpanNode};
pub use summary::{phase_summaries, PhaseSummary};

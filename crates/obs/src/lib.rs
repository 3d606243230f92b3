//! `ffmr-obs` — process-wide observability for the FFMR workspace.
//!
//! The paper's entire evaluation (Table I, Figs. 5–8) is read off
//! Hadoop's per-job counters page; this crate is our equivalent surface,
//! shared by the MapReduce runtime, the FF driver, and the `ffmrd`
//! daemon. It is deliberately **zero-dependency** (std only) and cheap
//! enough to leave on in production:
//!
//! * [`Registry`] — named [`Counter`]s (monotonic), [`Gauge`]s
//!   (settable), and [`Histogram`]s (log₂-bucketed with p50/p90/p99
//!   summaries). Registration takes a short read-mostly lock; **every
//!   record on an already-registered metric is a handful of relaxed
//!   atomic operations** — no mutex sits on any query hot path. Callers
//!   on hot paths may additionally cache the returned `Arc` handle to
//!   skip even the registration lookup.
//! * [`span()`] — lightweight wall-clock tracing: named scopes with
//!   parent/child nesting per thread, emitted as one JSON line each to
//!   the installed [`LineSink`] (the `--trace-file` flag installs a
//!   [`FileSink`]). When no sink is installed a span is a single
//!   relaxed atomic load.
//! * Prometheus text exposition ([`Registry::render_prometheus`]) and a
//!   flat key/value rendering ([`Registry::render_fields`]) for the
//!   `ffmrd` `stats` protocol verb.
//! * [`events`] — the job-history flight recorder: one structured
//!   [`events::TaskEvent`] per task attempt, returned by the runtime in
//!   `JobStats.task_events` while [`events::recorder()`] is enabled and
//!   aggregated per round into a [`RoundProfile`] (phase breakdown,
//!   partition skew, stragglers, critical path).
//! * [`query_profile`] — one [`QueryProfile`] per served query, with
//!   the over-threshold ones kept in the [`SlowLog`] ring.
//!
//! There is one of each mechanism: every JSONL record (round profile,
//! query profile, span) is written and read back by the private `json`
//! module, every line leaves through a [`LineSink`] ([`FileSink`] on
//! disk, [`VecSink`] in memory), and [`SlowLog`] is the only ring.
//!
//! # Example
//!
//! ```
//! let reg = ffmr_obs::Registry::new();
//! reg.counter("ffmr_queries_total", &[("verb", "maxflow")]).add(2);
//! let h = reg.histogram("ffmr_query_latency_us", &[]);
//! for v in [100, 200, 400] { h.record(v); }
//! let summary = h.summary();
//! assert_eq!(summary.count, 3);
//! assert!(summary.p50 >= 100 && summary.p99 >= summary.p50);
//! let text = reg.render_prometheus();
//! assert!(text.contains("ffmr_queries_total"));
//! ```
//!
//! The process-wide registry lives behind [`global()`]; library code
//! records into it unconditionally (the overhead is atomic increments).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
mod json;
mod metrics;
pub mod profile;
pub mod query_profile;
mod rotate;
pub mod span;

pub use events::{EventRecorder, TaskEvent, TaskOutcome};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, MetricValue, Registry, HISTOGRAM_BUCKETS,
};
pub use profile::{
    DispatchNote, DistBlame, DistPathStep, PathStep, RoundProfile, SkewReport, Straggler,
};
pub use query_profile::{QueryProfile, SlowLog, DEFAULT_SLOWLOG_CAPACITY, SLOWLOG_CAP_ENV};
pub use span::{set_sink, set_trace_id, span, span_child_of, FileSink, LineSink, Span, VecSink};

use std::sync::OnceLock;

/// The process-wide registry every FFMR layer records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

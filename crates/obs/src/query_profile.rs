//! The per-query flight recorder: one [`QueryProfile`] per served
//! request, mirroring what [`crate::events`] does for MR task attempts.
//!
//! The serving tier (`ffmrd`) assembles a profile as a query travels
//! cut tree | (cache/coalescing → local search): which plan
//! answered it and *why*, per-stage wall windows (queue wait, terminal
//! resolution, planning, solve, cache update), and the solver's own
//! execution counters. Three surfaces consume it:
//!
//! * the `explain` request flag echoes the profile on the response
//!   (`ffmr query --explain` renders it as a stage-timing tree);
//! * every profile over the daemon's slow-query threshold lands in a
//!   bounded [`SlowLog`] ring served by the `slowlog` verb, optionally
//!   persisted as JSONL through the same [`LineSink`] that carries
//!   spans;
//! * stage durations feed the `ffmr_query_stage_us{stage}` histograms.
//!
//! The ring is bounded by [`DEFAULT_SLOWLOG_CAPACITY`], overridable via
//! the [`SLOWLOG_CAP_ENV`] environment variable; overwrites of unread
//! entries bump the `ffmr_query_slowlog_dropped_total` counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use crate::json::{self, Value};
use crate::span::LineSink;

/// Default number of profiles the slow-query ring retains.
pub const DEFAULT_SLOWLOG_CAPACITY: usize = 256;

/// Environment variable overriding the slow-query ring capacity.
pub const SLOWLOG_CAP_ENV: &str = "FFMR_SLOWLOG_CAP";

/// The slow-query ring capacity: [`SLOWLOG_CAP_ENV`] when set to a
/// positive integer, [`DEFAULT_SLOWLOG_CAPACITY`] otherwise.
#[must_use]
pub fn slowlog_capacity_from_env() -> usize {
    std::env::var(SLOWLOG_CAP_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_SLOWLOG_CAPACITY)
}

/// Everything the serving tier learned about one query: the route it
/// took, where its wall time went, and what the solver did.
///
/// Durations are microseconds; `unix_ms` anchors the entry in wall
/// time for the slowlog. Solver counters not meaningful for the chosen
/// algorithm stay zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Protocol verb (`maxflow`, `mincut`).
    pub verb: String,
    /// Dataset the query ran against.
    pub dataset: String,
    /// Snapshot epoch the answer was computed on.
    pub epoch: u64,
    /// Route taken: `tree` (read off the snapshot's cut tree), `full`
    /// (solved on the whole graph), or `-` when the query failed before
    /// either.
    pub plan: String,
    /// Why that route: `cut-tree`, `local-trivial-cut` and
    /// `local-exhausted` (how the local search's certificate was found),
    /// `cache-hit`, `coalesced-follower`.
    pub plan_reason: String,
    /// Solver that produced the answer: `tree` (the cut tree) or `local`
    /// (the local search).
    pub solver: String,
    /// Cache interaction: `hit`, `miss`, or `bypass` (a cut-tree
    /// answer, which never touches the cache).
    pub cache: String,
    /// The query piggybacked on another in-flight identical query.
    pub coalesced: bool,
    /// `ok` or `error`.
    pub outcome: String,
    /// The error text when `outcome == "error"`.
    pub error: Option<String>,
    /// Wall-clock milliseconds since the Unix epoch at completion.
    pub unix_ms: u64,
    /// Time spent queued behind other requests before execution.
    pub queue_wait_us: u64,
    /// Terminal resolution (super-terminal BFS, id validation).
    pub resolve_us: u64,
    /// Planning. No serving route plans any more, so it stays 0; the
    /// field and its stage remain for the `perfbench` harness.
    pub plan_us: u64,
    /// The solve itself (in-memory or simulated MapReduce wall time).
    pub solve_us: u64,
    /// Writing the answer back into the flow cache.
    pub cache_update_us: u64,
    /// End-to-end wall time including queue wait.
    pub total_us: u64,
    /// The query's deadline budget in milliseconds (0 = default).
    pub deadline_ms: u64,
    /// Solver phases (BFS rounds, sweeps, pulses).
    pub phases: u64,
    /// Augmenting paths pushed (Dinic and the local search).
    pub augmenting_paths: u64,
    /// Push operations (push-relabel family).
    pub pushes: u64,
    /// Relabel operations (push-relabel family).
    pub relabels: u64,
    /// Global relabelings (push-relabel family).
    pub global_relabels: u64,
    /// Cancel-token polls during the solve.
    pub cancel_polls: u64,
    /// Distinct vertices the local search reached.
    pub vertices_touched: u64,
    /// Arcs the local search examined, over all its BFS rounds.
    pub arc_scans: u64,
}

impl QueryProfile {
    /// The wall-window stages in pipeline order, as
    /// `(stage, microseconds)` pairs — the shape both the
    /// `ffmr_query_stage_us{stage}` histograms and the `--explain`
    /// tree renderer consume.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, u64); 5] {
        [
            ("queue_wait", self.queue_wait_us),
            ("resolve", self.resolve_us),
            ("plan", self.plan_us),
            ("solve", self.solve_us),
            ("cache_update", self.cache_update_us),
        ]
    }

    /// The non-zero solver counters as `(name, value)` pairs.
    #[must_use]
    pub fn solver_counters(&self) -> Vec<(&'static str, u64)> {
        [
            ("phases", self.phases),
            ("augmenting_paths", self.augmenting_paths),
            ("pushes", self.pushes),
            ("relabels", self.relabels),
            ("global_relabels", self.global_relabels),
            ("cancel_polls", self.cancel_polls),
            ("vertices_touched", self.vertices_touched),
            ("arc_scans", self.arc_scans),
        ]
        .into_iter()
        .filter(|&(_, v)| v != 0)
        .collect()
    }

    /// Encodes the profile as one single-line JSON object (the slowlog
    /// wire and persistence format). Zero solver counters and an
    /// absent `error` are omitted.
    #[must_use]
    pub fn to_json(&self) -> String {
        // 384 covers a typical line (~300 bytes with the 13-digit
        // unix_ms and a few solver counters) without a mid-build
        // realloc — this runs on the explain/slowlog hot path.
        json::object(384, |w| {
            w.str("verb", &self.verb);
            w.str("dataset", &self.dataset);
            w.uint("epoch", self.epoch);
            w.str("plan", &self.plan);
            w.str("plan_reason", &self.plan_reason);
            w.str("solver", &self.solver);
            w.str("cache", &self.cache);
            w.flag("coalesced", self.coalesced);
            w.str("outcome", &self.outcome);
            if let Some(error) = &self.error {
                w.str("error", error);
            }
            w.uint("unix_ms", self.unix_ms);
            w.uint("queue_wait_us", self.queue_wait_us);
            w.uint("resolve_us", self.resolve_us);
            w.uint("plan_us", self.plan_us);
            w.uint("solve_us", self.solve_us);
            w.uint("cache_update_us", self.cache_update_us);
            w.uint("total_us", self.total_us);
            w.uint("deadline_ms", self.deadline_ms);
            for (key, count) in self.solver_counters() {
                w.uint(key, count);
            }
        })
    }

    /// Decodes a profile from one JSON line produced by [`to_json`].
    ///
    /// # Errors
    /// Propagates parse errors; missing fields read as empty or 0.
    ///
    /// [`to_json`]: QueryProfile::to_json
    pub fn from_json(line: &str) -> Result<QueryProfile, String> {
        let v = Value::parse(line)?;
        let f = v.fields("query profile");
        let text = |key: &str| f.opt_str(key).unwrap_or_default();
        let int = |key: &str| f.opt_int(key).unwrap_or(0);
        Ok(QueryProfile {
            verb: text("verb"),
            dataset: text("dataset"),
            epoch: int("epoch"),
            plan: text("plan"),
            plan_reason: text("plan_reason"),
            solver: text("solver"),
            cache: text("cache"),
            coalesced: f.flag("coalesced"),
            outcome: text("outcome"),
            error: f.opt_str("error"),
            unix_ms: int("unix_ms"),
            queue_wait_us: int("queue_wait_us"),
            resolve_us: int("resolve_us"),
            plan_us: int("plan_us"),
            solve_us: int("solve_us"),
            cache_update_us: int("cache_update_us"),
            total_us: int("total_us"),
            deadline_ms: int("deadline_ms"),
            phases: int("phases"),
            augmenting_paths: int("augmenting_paths"),
            pushes: int("pushes"),
            relabels: int("relabels"),
            global_relabels: int("global_relabels"),
            cancel_polls: int("cancel_polls"),
            vertices_touched: int("vertices_touched"),
            arc_scans: int("arc_scans"),
        })
    }
}

/// The always-on bounded slow-query ring: profiles whose total wall
/// time crossed the daemon's threshold, oldest overwritten first.
///
/// The crate's only ring. Writers claim a monotonically increasing
/// sequence number with one atomic add, then store the profile in
/// `slots[seq % capacity]`; the slot lock covers only the single clone
/// in or out, so a racing snapshot never blocks recording. An optional
/// [`LineSink`] receives each entry as one JSON line for persistence.
pub struct SlowLog {
    slots: Vec<RwLock<Option<QueryProfile>>>,
    head: AtomicU64,
    sink: RwLock<Option<Arc<dyn LineSink>>>,
}

impl SlowLog {
    /// Creates a ring holding at most `capacity` profiles.
    #[must_use]
    pub fn new(capacity: usize) -> SlowLog {
        let capacity = capacity.max(1);
        // Register the drop counter up front so scrapes see an explicit
        // zero before the first wraparound, not an absent series.
        let _ = crate::global().counter("ffmr_query_slowlog_dropped_total", &[]);
        SlowLog {
            slots: (0..capacity).map(|_| RwLock::new(None)).collect(),
            head: AtomicU64::new(0),
            sink: RwLock::new(None),
        }
    }

    /// Creates a ring sized by [`slowlog_capacity_from_env`].
    #[must_use]
    pub fn from_env() -> SlowLog {
        SlowLog::new(slowlog_capacity_from_env())
    }

    /// Maximum number of retained profiles.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Installs (or clears) the JSONL persistence sink.
    pub fn set_sink(&self, sink: Option<Arc<dyn LineSink>>) {
        *self.sink.write().unwrap_or_else(PoisonError::into_inner) = sink;
    }

    /// Records one over-threshold profile: streams it to the sink (if
    /// any), appends it to the ring, and bumps the
    /// `ffmr_query_slowlog_dropped_total` counter when the append
    /// overwrites an older entry. Returns the sequence number.
    pub fn record(&self, profile: QueryProfile) -> u64 {
        let sink = self
            .sink
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(sink) = sink {
            sink.emit(&profile.to_json());
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = usize::try_from(seq % self.slots.len() as u64).unwrap_or(0);
        if let Ok(mut slot) = self.slots[idx].write() {
            *slot = Some(profile);
        }
        if seq >= self.slots.len() as u64 {
            crate::global()
                .counter("ffmr_query_slowlog_dropped_total", &[])
                .inc();
        }
        seq
    }

    /// Total number of profiles ever recorded.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Number of profiles lost to wraparound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Number of profiles currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.recorded().min(self.slots.len() as u64)).unwrap_or(usize::MAX)
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.recorded() == 0
    }

    /// The retained profiles, oldest first. Best-effort: records
    /// racing the scan may shift the window.
    #[must_use]
    pub fn snapshot(&self) -> Vec<QueryProfile> {
        let head = self.recorded();
        let start = head.saturating_sub(self.slots.len() as u64);
        let mut out = Vec::with_capacity(usize::try_from(head - start).unwrap_or(0));
        for seq in start..head {
            let idx = usize::try_from(seq % self.slots.len() as u64).unwrap_or(0);
            if let Ok(slot) = self.slots[idx].read() {
                if let Some(profile) = slot.as_ref() {
                    out.push(profile.clone());
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for SlowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl Default for SlowLog {
    fn default() -> Self {
        SlowLog::new(DEFAULT_SLOWLOG_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::VecSink;

    fn sample(total_us: u64) -> QueryProfile {
        QueryProfile {
            verb: "maxflow".into(),
            dataset: "g".into(),
            epoch: 3,
            plan: "full".into(),
            plan_reason: "local-exhausted".into(),
            solver: "local".into(),
            cache: "miss".into(),
            coalesced: false,
            outcome: "ok".into(),
            error: None,
            unix_ms: 1_700_000_000_000,
            queue_wait_us: 12,
            resolve_us: 3,
            plan_us: 5,
            solve_us: total_us.saturating_sub(25),
            cache_update_us: 5,
            total_us,
            deadline_ms: 30_000,
            phases: 7,
            pushes: 41,
            relabels: 9,
            global_relabels: 2,
            cancel_polls: 8,
            ..QueryProfile::default()
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let mut p = sample(90_000);
        p.error = Some("timeout after 250ms".into());
        p.outcome = "error".into();
        let line = p.to_json();
        assert!(!line.contains('\n'), "single line: {line}");
        assert_eq!(QueryProfile::from_json(&line).unwrap(), p);
    }

    #[test]
    fn zero_counters_are_omitted_but_decode_as_zero() {
        let p = QueryProfile {
            verb: "maxflow".into(),
            outcome: "ok".into(),
            ..QueryProfile::default()
        };
        let line = p.to_json();
        assert!(!line.contains("pushes"), "{line}");
        assert!(!line.contains("\"error\""), "{line}");
        let back = QueryProfile::from_json(&line).unwrap();
        assert_eq!(back.pushes, 0);
        assert_eq!(back.error, None);
    }

    #[test]
    fn stages_cover_the_pipeline_in_order() {
        let p = sample(1_000);
        let names: Vec<&str> = p.stages().iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            ["queue_wait", "resolve", "plan", "solve", "cache_update"]
        );
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let log = SlowLog::new(2);
        let before = crate::global()
            .counter("ffmr_query_slowlog_dropped_total", &[])
            .get();
        for i in 0..5 {
            log.record(sample(1_000 + i));
        }
        assert_eq!(log.recorded(), 5);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.len(), 2);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        // Oldest first, only the newest two survive.
        assert_eq!(snap[0].total_us, 1_003);
        assert_eq!(snap[1].total_us, 1_004);
        let after = crate::global()
            .counter("ffmr_query_slowlog_dropped_total", &[])
            .get();
        assert_eq!(after - before, 3);
    }

    #[test]
    fn ring_under_capacity_keeps_everything() {
        let log = SlowLog::new(16);
        assert!(log.is_empty());
        for i in 0..5 {
            log.record(sample(i));
        }
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.snapshot().len(), 5);
    }

    #[test]
    fn sink_receives_every_record_as_jsonl() {
        let log = SlowLog::new(8);
        let sink = Arc::new(VecSink::new());
        log.set_sink(Some(sink.clone()));
        log.record(sample(400));
        log.record(sample(900));
        let lines = sink.lines();
        assert_eq!(lines.len(), 2);
        let decoded = QueryProfile::from_json(&lines[1]).unwrap();
        assert_eq!(decoded.total_us, 900);
    }

    #[test]
    fn env_capacity_parsing_defaults_sanely() {
        // Not set in the test environment unless a harness exports it;
        // either way the result is a positive capacity.
        assert!(slowlog_capacity_from_env() > 0);
    }
}

//! Per-round aggregation of flight-recorder events.
//!
//! A [`RoundProfile`] condenses the raw [`TaskEvent`] stream of one
//! MapReduce round into the diagnostics the paper reads off Hadoop's
//! job-history pages: a phase-duration breakdown, reduce-partition
//! skew, a straggler list and the critical path through the
//! map → shuffle → reduce barriers. Profiles are persisted as JSONL (one
//! line per round) in the FF driver's job history and rendered by
//! `ffmr report`.

use crate::events::{TaskEvent, TaskOutcome};
use crate::json::{self, ObjectWriter, Value};

/// Stragglers are attempts slower than `p75 × STRAGGLER_SLACK` of the
/// successful attempts in their phase. Nothing injects slowdowns: the
/// attempts that trip it got more work, e.g. from partition skew.
pub const STRAGGLER_PERCENTILE: f64 = 0.75;
/// Multiplier applied to the percentile baseline.
pub const STRAGGLER_SLACK: f64 = 1.5;

/// Reduce-partition byte skew for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewReport {
    /// Partition that fetched the most bytes.
    pub partition: usize,
    /// Bytes fetched by that partition.
    pub max_bytes: u64,
    /// Mean bytes fetched across all partitions.
    pub mean_bytes: f64,
    /// `max_bytes / mean_bytes` (1.0 = perfectly balanced).
    pub ratio: f64,
}

/// One attempt that ran beyond the straggler threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// `"map"` or `"reduce"`.
    pub phase: String,
    /// Task index within the phase.
    pub task: usize,
    /// Attempt number.
    pub attempt: u32,
    /// Simulated duration of the attempt, seconds.
    pub seconds: f64,
    /// The `p75 × 1.5` threshold it exceeded, seconds.
    pub threshold_seconds: f64,
}

/// One step on the round's critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// `"map"`, `"shuffle"` or `"reduce"`.
    pub phase: String,
    /// Task index within the phase.
    pub task: usize,
    /// Attempt number.
    pub attempt: u32,
    /// Simulated start, seconds from round start.
    pub sim_start: f64,
    /// Simulated end, seconds from round start.
    pub sim_end: f64,
}

impl SkewReport {
    fn write_members(&self, w: &mut ObjectWriter) {
        w.uint("partition", self.partition as u64);
        w.uint("max_bytes", self.max_bytes);
        w.float("mean_bytes", self.mean_bytes);
        w.float("ratio", self.ratio);
    }

    fn from_value(v: &Value) -> Result<SkewReport, String> {
        let f = v.fields("skew");
        Ok(SkewReport {
            partition: f.req_int("partition")?,
            max_bytes: f.req_int("max_bytes")?,
            mean_bytes: f.opt_f64("mean_bytes").unwrap_or(0.0),
            ratio: f.opt_f64("ratio").unwrap_or(1.0),
        })
    }
}

impl Straggler {
    fn write_members(&self, w: &mut ObjectWriter) {
        w.str("phase", &self.phase);
        w.uint("task", self.task as u64);
        w.uint("attempt", u64::from(self.attempt));
        w.float("seconds", self.seconds);
        w.float("threshold_seconds", self.threshold_seconds);
    }

    fn from_value(v: &Value) -> Result<Straggler, String> {
        let f = v.fields("straggler");
        Ok(Straggler {
            phase: f.req_str("phase")?,
            task: f.req_int("task")?,
            attempt: f.opt_int("attempt").unwrap_or(0),
            seconds: f.opt_f64("seconds").unwrap_or(0.0),
            threshold_seconds: f.opt_f64("threshold_seconds").unwrap_or(0.0),
        })
    }
}

impl PathStep {
    fn write_members(&self, w: &mut ObjectWriter) {
        w.str("phase", &self.phase);
        w.uint("task", self.task as u64);
        w.uint("attempt", u64::from(self.attempt));
        w.float("sim_start", self.sim_start);
        w.float("sim_end", self.sim_end);
    }

    fn from_value(v: &Value) -> Result<PathStep, String> {
        let f = v.fields("path step");
        Ok(PathStep {
            phase: f.req_str("phase")?,
            task: f.req_int("task")?,
            attempt: f.opt_int("attempt").unwrap_or(0),
            sim_start: f.opt_f64("sim_start").unwrap_or(0.0),
            sim_end: f.opt_f64("sim_end").unwrap_or(0.0),
        })
    }
}

/// What one completed remote dispatch cost, as the coordinator measured
/// it on the socket of the worker that ran it. All `_us` values are
/// microseconds on the driver's clock.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DispatchNote {
    /// `"map"` or `"reduce"`.
    pub phase: String,
    /// Task index within the phase.
    pub task: usize,
    /// Worker-process id that ran the dispatch.
    pub worker: u64,
    /// Whether the attempt succeeded.
    pub ok: bool,
    /// Driver clock when the dispatch entered the queue.
    pub queued_us: u64,
    /// Driver clock when the outcome was accepted.
    pub done_us: u64,
    /// Window start: the reply handing the task out began to be written.
    pub started_us: u64,
    /// Window end: the `task-done` body had been read.
    pub finished_us: u64,
    /// Time writing that reply (job, params and spec) took.
    pub fetch_us: u64,
    /// Time from the `task-done`'s first byte to its last (the result).
    pub push_us: u64,
    /// Driver-side spec encode + result decode time.
    pub ser_us: u64,
    /// Task-body bytes sent to the worker for this dispatch.
    pub bytes_in: u64,
    /// Result-body bytes the worker sent back.
    pub bytes_out: u64,
}

impl DispatchNote {
    /// Queue wait: enqueue until the worker began working on it.
    #[must_use]
    pub fn dispatch_wait_us(&self) -> u64 {
        self.started_us.saturating_sub(self.queued_us)
    }

    /// Body movement (fetch + push) inside the window.
    #[must_use]
    pub fn transfer_us(&self) -> u64 {
        self.fetch_us + self.push_us
    }

    /// Window minus body movement: the worker's decode, user code and
    /// encode, plus the small frames' latency.
    #[must_use]
    pub fn compute_us(&self) -> u64 {
        self.finished_us
            .saturating_sub(self.started_us)
            .saturating_sub(self.transfer_us())
    }

    /// Shifts every driver-clock stamp back by `offset_us` — used by
    /// the runtime to rebase coordinator stamps (process epoch) onto
    /// the job clock (microseconds since `run()` entry).
    pub fn rebase(&mut self, offset_us: u64) {
        self.queued_us = self.queued_us.saturating_sub(offset_us);
        self.done_us = self.done_us.saturating_sub(offset_us);
        self.started_us = self.started_us.saturating_sub(offset_us);
        self.finished_us = self.finished_us.saturating_sub(offset_us);
    }

    /// Encodes the note as one single-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(192, |w| self.write_members(w))
    }

    fn write_members(&self, w: &mut ObjectWriter) {
        w.str("phase", &self.phase);
        w.uint("task", self.task as u64);
        w.uint("worker", self.worker);
        w.flag("ok", self.ok);
        w.uint("queued_us", self.queued_us);
        w.uint("done_us", self.done_us);
        w.uint("started_us", self.started_us);
        w.uint("finished_us", self.finished_us);
        w.uint("fetch_us", self.fetch_us);
        w.uint("push_us", self.push_us);
        w.uint("ser_us", self.ser_us);
        w.uint("bytes_in", self.bytes_in);
        w.uint("bytes_out", self.bytes_out);
    }

    fn from_value(v: &Value) -> Result<DispatchNote, String> {
        let f = v.fields("dispatch note");
        Ok(DispatchNote {
            phase: f.req_str("phase")?,
            task: f.req_int("task")?,
            worker: f.req_int("worker")?,
            ok: f.flag("ok"),
            queued_us: f.req_int("queued_us")?,
            done_us: f.req_int("done_us")?,
            started_us: f.req_int("started_us")?,
            finished_us: f.req_int("finished_us")?,
            fetch_us: f.opt_int("fetch_us").unwrap_or(0),
            push_us: f.opt_int("push_us").unwrap_or(0),
            ser_us: f.opt_int("ser_us").unwrap_or(0),
            bytes_in: f.opt_int("bytes_in").unwrap_or(0),
            bytes_out: f.opt_int("bytes_out").unwrap_or(0),
        })
    }
}

/// Where a round's distributed overhead went, summed over completed
/// dispatches: the wall-clock blame split `ffmr report` prints for
/// `--workers` runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DistBlame {
    /// Driver-side spec encode + result decode, seconds.
    pub serialization_seconds: f64,
    /// Task and result body transfer (fetch + push), seconds.
    pub transfer_seconds: f64,
    /// Queue time between enqueue and worker pickup, seconds.
    pub dispatch_wait_seconds: f64,
    /// The rest of each dispatch window (worker decode + user code +
    /// encode), seconds.
    pub compute_seconds: f64,
}

impl DistBlame {
    /// Sum of all four shares, seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.serialization_seconds
            + self.transfer_seconds
            + self.dispatch_wait_seconds
            + self.compute_seconds
    }

    fn write_members(&self, w: &mut ObjectWriter) {
        w.float("serialization_seconds", self.serialization_seconds);
        w.float("transfer_seconds", self.transfer_seconds);
        w.float("dispatch_wait_seconds", self.dispatch_wait_seconds);
        w.float("compute_seconds", self.compute_seconds);
    }

    fn from_value(v: &Value) -> Result<DistBlame, String> {
        let f = v.fields("dist blame");
        Ok(DistBlame {
            serialization_seconds: f.opt_f64("serialization_seconds").unwrap_or(0.0),
            transfer_seconds: f.opt_f64("transfer_seconds").unwrap_or(0.0),
            dispatch_wait_seconds: f.opt_f64("dispatch_wait_seconds").unwrap_or(0.0),
            compute_seconds: f.opt_f64("compute_seconds").unwrap_or(0.0),
        })
    }
}

/// One wall-clock segment of a critical-path dispatch: how the step's
/// round trip split into queue wait, body movement and compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistPathStep {
    /// `"<phase>/dispatch-wait"`, `"<phase>/fetch"`,
    /// `"<phase>/compute"` or `"<phase>/push"`.
    pub phase: String,
    /// Task index within the parent phase.
    pub task: usize,
    /// Worker that ran the dispatch.
    pub worker: u64,
    /// Segment start, microseconds on the job clock.
    pub start_us: u64,
    /// Segment end, microseconds on the job clock.
    pub end_us: u64,
}

impl DistPathStep {
    fn write_members(&self, w: &mut ObjectWriter) {
        w.str("phase", &self.phase);
        w.uint("task", self.task as u64);
        w.uint("worker", self.worker);
        w.uint("start_us", self.start_us);
        w.uint("end_us", self.end_us);
    }

    fn from_value(v: &Value) -> Result<DistPathStep, String> {
        let f = v.fields("dist path step");
        Ok(DistPathStep {
            phase: f.req_str("phase")?,
            task: f.req_int("task")?,
            worker: f.req_int("worker")?,
            start_us: f.req_int("start_us")?,
            end_us: f.req_int("end_us")?,
        })
    }
}

/// The aggregated profile of one FF round (one MapReduce job).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundProfile {
    /// Round number within the FF run.
    pub round: usize,
    /// MapReduce job name.
    pub job: String,
    /// Simulated seconds charged to the round (cost model).
    pub sim_seconds: f64,
    /// Host wall-clock seconds the round took.
    pub wall_seconds: f64,
    /// Simulated span of the map phase, seconds.
    pub map_seconds: f64,
    /// Simulated span of the shuffle barrier, seconds.
    pub shuffle_seconds: f64,
    /// Simulated span of the reduce phase, seconds.
    pub reduce_seconds: f64,
    /// Reduce-partition byte skew, when the round had reducers.
    pub skew: Option<SkewReport>,
    /// Attempts beyond the straggler threshold, slowest first.
    pub stragglers: Vec<Straggler>,
    /// The chain of attempts that bounded the round, in time order:
    /// the last-finishing map attempt, the shuffle barrier, and the
    /// last-finishing reduce attempt. Removing any of them would
    /// shorten the round.
    pub critical_path: Vec<PathStep>,
    /// Per-dispatch cost notes from the coordinator (distributed runs
    /// only; empty for in-process rounds and pre-distributed history).
    pub dispatches: Vec<DispatchNote>,
    /// Where the round's distributed overhead went (when dispatches
    /// were recorded).
    pub dist_blame: Option<DistBlame>,
    /// Wall-clock wait/fetch/compute/push segments of the dispatches
    /// backing the critical-path map and reduce steps.
    pub critical_path_dist: Vec<DistPathStep>,
    /// The raw events the profile was computed from.
    pub events: Vec<TaskEvent>,
}

/// Did this attempt's output count toward the phase barrier?
fn completed(e: &TaskEvent) -> bool {
    e.outcome == TaskOutcome::Ok
}

/// Index of `p` (0..1) into `sorted` by the nearest-rank-below rule.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).floor() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl RoundProfile {
    /// Builds the profile of one round from its events.
    #[must_use]
    pub fn compute(
        round: usize,
        job: String,
        events: Vec<TaskEvent>,
        sim_seconds: f64,
        wall_seconds: f64,
    ) -> RoundProfile {
        Self::compute_with_dispatches(round, job, events, Vec::new(), sim_seconds, wall_seconds)
    }

    /// Builds the profile of one round from its events plus the
    /// coordinator's per-dispatch notes (distributed runs): adds the
    /// distributed-overhead blame split and the wall-clock breakdown of
    /// the critical-path dispatches.
    #[must_use]
    pub fn compute_with_dispatches(
        round: usize,
        job: String,
        events: Vec<TaskEvent>,
        dispatches: Vec<DispatchNote>,
        sim_seconds: f64,
        wall_seconds: f64,
    ) -> RoundProfile {
        let mut profile = RoundProfile {
            round,
            job,
            sim_seconds,
            wall_seconds,
            ..RoundProfile::default()
        };
        profile.compute_phase_spans(&events);
        profile.compute_skew(&events);
        profile.compute_stragglers(&events);
        profile.compute_critical_path(&events);
        profile.dispatches = dispatches;
        profile.compute_dist_blame();
        profile.compute_dist_path();
        profile.events = events;
        profile
    }

    fn compute_dist_blame(&mut self) {
        if self.dispatches.is_empty() {
            return;
        }
        let us = |v: u64| {
            #[allow(clippy::cast_precision_loss)]
            {
                v as f64 / 1e6
            }
        };
        let mut blame = DistBlame::default();
        for note in &self.dispatches {
            blame.serialization_seconds += us(note.ser_us);
            blame.transfer_seconds += us(note.transfer_us());
            blame.dispatch_wait_seconds += us(note.dispatch_wait_us());
            blame.compute_seconds += us(note.compute_us());
        }
        self.dist_blame = Some(blame);
    }

    /// Splits the dispatch behind each critical-path map/reduce step
    /// into its wait → fetch → compute → push wall-clock segments.
    fn compute_dist_path(&mut self) {
        for step in &self.critical_path {
            // The last successful note for the task is the attempt that
            // actually bounded the barrier (earlier ones failed).
            let Some(note) = self
                .dispatches
                .iter()
                .rfind(|n| n.ok && n.phase == step.phase && n.task == step.task)
            else {
                continue;
            };
            let fetch_end = note.started_us.saturating_add(note.fetch_us);
            let push_start = note.finished_us.saturating_sub(note.push_us);
            let segments = [
                ("dispatch-wait", note.queued_us, note.started_us),
                ("fetch", note.started_us, fetch_end),
                ("compute", fetch_end, push_start.max(fetch_end)),
                ("push", push_start.max(fetch_end), note.finished_us),
            ];
            for (kind, start_us, end_us) in segments {
                self.critical_path_dist.push(DistPathStep {
                    phase: format!("{}/{kind}", step.phase),
                    task: step.task,
                    worker: note.worker,
                    start_us,
                    end_us: end_us.max(start_us),
                });
            }
        }
    }

    fn compute_phase_spans(&mut self, events: &[TaskEvent]) {
        for phase in ["map", "shuffle", "reduce"] {
            let mut start = f64::INFINITY;
            let mut end = 0.0f64;
            for e in events.iter().filter(|e| e.phase == phase && completed(e)) {
                start = start.min(e.sim_start);
                end = end.max(e.sim_end);
            }
            let span = if end > start { end - start } else { 0.0 };
            match phase {
                "map" => self.map_seconds = span,
                "shuffle" => self.shuffle_seconds = span,
                _ => self.reduce_seconds = span,
            }
        }
    }

    fn compute_skew(&mut self, events: &[TaskEvent]) {
        let mut per_partition: Vec<(usize, u64)> = Vec::new();
        for e in events
            .iter()
            .filter(|e| e.phase == "reduce" && completed(e))
        {
            if let Some(p) = e.partition {
                if !per_partition.iter().any(|&(q, _)| q == p) {
                    per_partition.push((p, e.bytes_in));
                }
            }
        }
        if per_partition.is_empty() {
            return;
        }
        let total: u64 = per_partition.iter().map(|&(_, b)| b).sum();
        #[allow(clippy::cast_precision_loss)]
        let mean = total as f64 / per_partition.len() as f64;
        let &(partition, max_bytes) = per_partition
            .iter()
            .max_by_key(|&&(p, b)| (b, std::cmp::Reverse(p)))
            .expect("non-empty");
        #[allow(clippy::cast_precision_loss)]
        let ratio = if mean > 0.0 {
            max_bytes as f64 / mean
        } else {
            1.0
        };
        self.skew = Some(SkewReport {
            partition,
            max_bytes,
            mean_bytes: mean,
            ratio,
        });
    }

    fn compute_stragglers(&mut self, events: &[TaskEvent]) {
        for phase in ["map", "reduce"] {
            // Baseline: the duration each task's successful attempt took.
            let mut winners: Vec<f64> = events
                .iter()
                .filter(|e| e.phase == phase && completed(e))
                .map(TaskEvent::sim_seconds)
                .collect();
            if winners.len() < 2 {
                continue;
            }
            winners.sort_by(f64::total_cmp);
            let threshold = percentile(&winners, STRAGGLER_PERCENTILE) * STRAGGLER_SLACK;
            if threshold <= 0.0 {
                continue;
            }
            for e in events
                .iter()
                .filter(|e| e.phase == phase && completed(e) && e.sim_seconds() > threshold)
            {
                self.stragglers.push(Straggler {
                    phase: e.phase.clone(),
                    task: e.task,
                    attempt: e.attempt,
                    seconds: e.sim_seconds(),
                    threshold_seconds: threshold,
                });
            }
        }
        self.stragglers
            .sort_by(|a, b| f64::total_cmp(&b.seconds, &a.seconds));
    }

    fn compute_critical_path(&mut self, events: &[TaskEvent]) {
        for phase in ["map", "shuffle", "reduce"] {
            let bound = events
                .iter()
                .filter(|e| e.phase == phase && completed(e))
                .max_by(|a, b| {
                    f64::total_cmp(&a.sim_end, &b.sim_end).then_with(|| b.task.cmp(&a.task))
                });
            if let Some(e) = bound {
                self.critical_path.push(PathStep {
                    phase: e.phase.clone(),
                    task: e.task,
                    attempt: e.attempt,
                    sim_start: e.sim_start,
                    sim_end: e.sim_end,
                });
            }
        }
    }

    /// Encodes the profile as one single-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(512 + self.events.len() * 256, |w| {
            w.uint("round", self.round as u64);
            w.str("job", &self.job);
            w.float("sim_seconds", self.sim_seconds);
            w.float("wall_seconds", self.wall_seconds);
            w.float("map_seconds", self.map_seconds);
            w.float("shuffle_seconds", self.shuffle_seconds);
            w.float("reduce_seconds", self.reduce_seconds);
            if let Some(skew) = &self.skew {
                w.object("skew", |w| skew.write_members(w));
            }
            w.array("stragglers", &self.stragglers, Straggler::write_members);
            w.array(
                "critical_path",
                &self.critical_path,
                PathStep::write_members,
            );
            // The three distributed members are written only when a
            // `--workers` run recorded dispatches; in-process history
            // lines carry none of them.
            if !self.dispatches.is_empty() {
                w.array("dispatches", &self.dispatches, DispatchNote::write_members);
            }
            if let Some(blame) = &self.dist_blame {
                w.object("dist_blame", |w| blame.write_members(w));
            }
            if !self.critical_path_dist.is_empty() {
                w.array(
                    "critical_path_dist",
                    &self.critical_path_dist,
                    DistPathStep::write_members,
                );
            }
            w.array("events", &self.events, TaskEvent::write_members);
        })
    }

    /// Decodes a profile from one JSON line.
    ///
    /// # Errors
    /// Names the first missing or ill-typed field.
    pub fn from_json(line: &str) -> Result<RoundProfile, String> {
        let v = Value::parse(line)?;
        let f = v.fields("profile");
        Ok(RoundProfile {
            round: f.req_int("round")?,
            job: f.req_str("job")?,
            sim_seconds: f.req_f64("sim_seconds")?,
            wall_seconds: f.req_f64("wall_seconds")?,
            map_seconds: f.req_f64("map_seconds")?,
            shuffle_seconds: f.req_f64("shuffle_seconds")?,
            reduce_seconds: f.req_f64("reduce_seconds")?,
            skew: f.opt_object("skew", SkewReport::from_value)?,
            stragglers: f.array("stragglers", Straggler::from_value)?,
            critical_path: f.array("critical_path", PathStep::from_value)?,
            dispatches: f.array("dispatches", DispatchNote::from_value)?,
            dist_blame: f.opt_object("dist_blame", DistBlame::from_value)?,
            critical_path_dist: f.array("critical_path_dist", DistPathStep::from_value)?,
            events: f.array("events", TaskEvent::from_value)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(
        phase: &str,
        task: usize,
        attempt: u32,
        sim_start: f64,
        sim_end: f64,
        outcome: TaskOutcome,
    ) -> TaskEvent {
        TaskEvent {
            job: "j".into(),
            phase: phase.into(),
            task,
            attempt,
            node: task,
            worker: None,
            partition: if phase == "reduce" { Some(task) } else { None },
            sim_start,
            sim_end,
            wall_start_us: 0,
            wall_end_us: 1,
            bytes_in: 100,
            bytes_out: 10,
            outcome,
        }
    }

    fn sample_events() -> Vec<TaskEvent> {
        let mut events = vec![
            event("map", 0, 0, 1.0, 2.0, TaskOutcome::Ok),
            event("map", 1, 0, 1.0, 2.1, TaskOutcome::Ok),
            event("map", 2, 0, 1.0, 2.0, TaskOutcome::Ok),
            // Straggling map task: 10x its peers.
            event("map", 3, 0, 1.0, 11.0, TaskOutcome::Ok),
            event("shuffle", 0, 0, 11.0, 12.0, TaskOutcome::Ok),
            event("reduce", 0, 0, 12.0, 13.0, TaskOutcome::Ok),
            event("reduce", 1, 0, 12.0, 13.5, TaskOutcome::Ok),
        ];
        // Skewed partition 1 fetched 4x the bytes.
        events[6].bytes_in = 400;
        events
    }

    #[test]
    fn phase_spans_cover_each_barrier() {
        let p = RoundProfile::compute(1, "j".into(), sample_events(), 14.0, 0.01);
        assert!((p.map_seconds - 10.0).abs() < 1e-9);
        assert!((p.shuffle_seconds - 1.0).abs() < 1e-9);
        assert!((p.reduce_seconds - 1.5).abs() < 1e-9);
    }

    #[test]
    fn skew_names_the_heaviest_partition() {
        let p = RoundProfile::compute(1, "j".into(), sample_events(), 14.0, 0.01);
        let skew = p.skew.expect("reduce events present");
        assert_eq!(skew.partition, 1);
        assert_eq!(skew.max_bytes, 400);
        assert!((skew.mean_bytes - 250.0).abs() < 1e-9);
        assert!((skew.ratio - 1.6).abs() < 1e-9);
    }

    #[test]
    fn stragglers_exceeding_p75_times_slack_are_listed() {
        let p = RoundProfile::compute(1, "j".into(), sample_events(), 14.0, 0.01);
        assert_eq!(p.stragglers.len(), 1);
        let s = &p.stragglers[0];
        assert_eq!((s.phase.as_str(), s.task), ("map", 3));
        assert!((s.seconds - 10.0).abs() < 1e-9);
        // p75 of [1.0, 1.0, 1.1, 10.0] by nearest-rank-below is 1.1.
        assert!((s.threshold_seconds - 1.65).abs() < 1e-9);
    }

    #[test]
    fn critical_path_walks_the_barriers_and_names_the_straggler() {
        let p = RoundProfile::compute(1, "j".into(), sample_events(), 14.0, 0.01);
        let path: Vec<(&str, usize)> = p
            .critical_path
            .iter()
            .map(|s| (s.phase.as_str(), s.task))
            .collect();
        assert_eq!(path, vec![("map", 3), ("shuffle", 0), ("reduce", 1)]);
    }

    #[test]
    fn profile_json_round_trips() {
        let mut events = sample_events();
        // Map task 3's first attempt failed; its retry ran to t=11.0.
        events.insert(3, event("map", 3, 0, 1.0, 2.0, TaskOutcome::Failed));
        events[4].attempt = 1;
        events[4].sim_start = 2.0;
        let p = RoundProfile::compute(7, "round-7".into(), events, 14.0, 0.25);
        let line = p.to_json();
        assert!(!line.contains('\n'));
        let back = RoundProfile::from_json(&line).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn minimal_profile_round_trips_without_optionals() {
        let p = RoundProfile::compute(0, "r0".into(), Vec::new(), 0.0, 0.0);
        assert!(p.skew.is_none());
        assert!(p.stragglers.is_empty());
        assert!(p.critical_path.is_empty());
        assert!(p.dispatches.is_empty() && p.dist_blame.is_none());
        let back = RoundProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }

    fn note(phase: &str, task: usize, worker: u64, queued: u64, started: u64) -> DispatchNote {
        DispatchNote {
            phase: phase.into(),
            task,
            worker,
            ok: true,
            queued_us: queued,
            done_us: started + 1_000,
            started_us: started,
            finished_us: started + 900,
            fetch_us: 100,
            push_us: 50,
            ser_us: 20,
            bytes_in: 4096,
            bytes_out: 512,
        }
    }

    #[test]
    fn dispatch_notes_produce_blame_and_path_segments() {
        let events = sample_events();
        let notes = vec![
            note("map", 3, 1, 0, 200),
            note("reduce", 1, 2, 5_000, 5_300),
        ];
        let p = RoundProfile::compute_with_dispatches(1, "j".into(), events, notes, 14.0, 0.01);
        let blame = p.dist_blame.expect("notes recorded");
        // Two notes: wait 200 + 300 µs, transfer 2×150 µs, compute
        // 2×750 µs, serialization 2×20 µs.
        assert!((blame.dispatch_wait_seconds - 500e-6).abs() < 1e-12);
        assert!((blame.transfer_seconds - 300e-6).abs() < 1e-12);
        assert!((blame.compute_seconds - 1_500e-6).abs() < 1e-12);
        assert!((blame.serialization_seconds - 40e-6).abs() < 1e-12);
        // The critical-path map (task 3) and reduce (task 1) steps both
        // have notes, so each contributes 4 segments.
        assert_eq!(p.critical_path_dist.len(), 8);
        let segs: Vec<&str> = p
            .critical_path_dist
            .iter()
            .map(|s| s.phase.as_str())
            .collect();
        assert_eq!(
            &segs[..4],
            &["map/dispatch-wait", "map/fetch", "map/compute", "map/push"]
        );
        assert!(p.critical_path_dist.iter().all(|s| s.end_us >= s.start_us));

        // And everything round-trips through JSONL.
        let back = RoundProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn dispatch_note_blame_arithmetic_saturates() {
        let mut n = note("map", 0, 1, 500, 200);
        assert_eq!(n.dispatch_wait_us(), 0, "clock jitter must not underflow");
        assert_eq!(n.transfer_us(), 150);
        assert_eq!(n.compute_us(), 750);
        n.rebase(250);
        assert_eq!((n.queued_us, n.started_us), (250, 0));
    }
}

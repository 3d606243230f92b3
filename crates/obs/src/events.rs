//! Flight recorder: structured per-task-attempt events.
//!
//! The MapReduce runtime assembles one [`TaskEvent`] per task attempt
//! (map, reduce, failed retries) plus one
//! synthetic event for the shuffle barrier of each job. Events carry
//! both simulated-cluster timings (the paper's cost model) and host
//! wall-clock timings, so a job history can answer "which attempt
//! bounded this round" after the fact.
//!
//! Events travel with the job that produced them: the runtime returns
//! them in `JobStats.task_events`, the FF driver folds each round's
//! events into a [`RoundProfile`](crate::RoundProfile) and persists
//! that as one JSONL line. Nothing is buffered here; the global
//! [`EventRecorder`] is only the switch that turns assembly on.
//!
//! Recording is off by default; when disabled the runtime skips event
//! assembly entirely, so the recorder costs one atomic load per job.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::json::{self, ObjectWriter, Value};

/// How a task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The attempt completed and its output was used.
    Ok,
    /// The attempt crashed (fault injection or panic) and was retried.
    Failed,
}

impl TaskOutcome {
    /// Stable wire spelling, used in JSON lines and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TaskOutcome::Ok => "ok",
            TaskOutcome::Failed => "failed",
        }
    }

    /// Inverse of [`TaskOutcome::as_str`].
    #[must_use]
    pub fn parse(text: &str) -> Option<TaskOutcome> {
        match text {
            "ok" => Some(TaskOutcome::Ok),
            "failed" => Some(TaskOutcome::Failed),
            _ => None,
        }
    }
}

/// One task attempt as observed by the runtime.
///
/// Simulated times are seconds relative to the start of the round the
/// job ran in (0.0 = round start; the per-round scheduling overhead
/// precedes the first map attempt). They are a *reconstruction*: the
/// runtime charges phases via a makespan model, and the recorder lays
/// attempts onto slots with a greedy earliest-free-slot schedule that
/// reproduces that model's shape, not a byte-exact replay. Wall times
/// are microseconds since the job's `run()` entry on the host clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskEvent {
    /// Name of the MapReduce job this attempt belonged to.
    pub job: String,
    /// `"map"`, `"shuffle"` or `"reduce"`.
    pub phase: String,
    /// Task index within the phase (partition index for reducers).
    pub task: usize,
    /// Attempt number, starting at 0; a retry follows each failed
    /// attempt.
    pub attempt: u32,
    /// Simulated cluster node the attempt was placed on.
    pub node: usize,
    /// Real worker-process id that executed the attempt in distributed
    /// mode (`None` for in-process execution and synthetic events).
    pub worker: Option<u64>,
    /// Reduce partition id (`None` for map and shuffle events).
    pub partition: Option<usize>,
    /// Simulated start, seconds from round start.
    pub sim_start: f64,
    /// Simulated end, seconds from round start.
    pub sim_end: f64,
    /// Host wall-clock start, microseconds since job start.
    pub wall_start_us: u64,
    /// Host wall-clock end, microseconds since job start.
    pub wall_end_us: u64,
    /// Bytes read by the attempt (split bytes for maps, fetched
    /// segment + Schimmy partition bytes for reducers, total shuffle
    /// bytes for the shuffle event).
    pub bytes_in: u64,
    /// Bytes written by the attempt (spills for maps, final output for
    /// reducers, cross-node bytes for the shuffle event).
    pub bytes_out: u64,
    /// How the attempt ended.
    pub outcome: TaskOutcome,
}

impl TaskEvent {
    /// Simulated duration in seconds.
    #[must_use]
    pub fn sim_seconds(&self) -> f64 {
        (self.sim_end - self.sim_start).max(0.0)
    }

    /// Encodes the event as one single-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(256, |w| self.write_members(w))
    }

    pub(crate) fn write_members(&self, w: &mut ObjectWriter) {
        w.str("job", &self.job);
        w.str("phase", &self.phase);
        w.uint("task", self.task as u64);
        w.uint("attempt", u64::from(self.attempt));
        w.uint("node", self.node as u64);
        if let Some(worker) = self.worker {
            w.uint("worker", worker);
        }
        if let Some(partition) = self.partition {
            w.uint("partition", partition as u64);
        }
        w.float("sim_start", self.sim_start);
        w.float("sim_end", self.sim_end);
        w.uint("wall_start_us", self.wall_start_us);
        w.uint("wall_end_us", self.wall_end_us);
        w.uint("bytes_in", self.bytes_in);
        w.uint("bytes_out", self.bytes_out);
        w.str("outcome", self.outcome.as_str());
    }

    /// Decodes an event from a parsed JSON object.
    ///
    /// # Errors
    /// Names the first missing or ill-typed field.
    pub(crate) fn from_value(v: &Value) -> Result<TaskEvent, String> {
        let f = v.fields("event");
        let outcome = f.req_str("outcome")?;
        Ok(TaskEvent {
            job: f.req_str("job")?,
            phase: f.req_str("phase")?,
            task: f.req_int("task")?,
            attempt: f.req_int("attempt")?,
            node: f.req_int("node")?,
            worker: f.opt_int("worker"),
            partition: f.opt_int("partition"),
            sim_start: f.req_f64("sim_start")?,
            sim_end: f.req_f64("sim_end")?,
            wall_start_us: f.req_int("wall_start_us")?,
            wall_end_us: f.req_int("wall_end_us")?,
            bytes_in: f.req_int("bytes_in")?,
            bytes_out: f.req_int("bytes_out")?,
            outcome: TaskOutcome::parse(&outcome)
                .ok_or_else(|| format!("unknown outcome '{outcome}'"))?,
        })
    }

    /// Decodes an event from one JSON line.
    ///
    /// # Errors
    /// Propagates parse errors from the line or its fields.
    pub fn from_json(line: &str) -> Result<TaskEvent, String> {
        TaskEvent::from_value(&Value::parse(line)?)
    }
}

/// The global flight-recorder switch: whether the MapReduce runtime
/// (and the coordinator, for dispatch notes) should assemble events.
pub struct EventRecorder {
    enabled: AtomicBool,
}

impl EventRecorder {
    /// Whether the runtime should assemble events.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (off by default).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }
}

/// The process-wide recorder switch read by the MapReduce runtime.
pub fn recorder() -> &'static EventRecorder {
    static RECORDER: EventRecorder = EventRecorder {
        enabled: AtomicBool::new(false),
    };
    &RECORDER
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(task: usize, attempt: u32) -> TaskEvent {
        TaskEvent {
            job: "job".into(),
            phase: "map".into(),
            task,
            attempt,
            node: task % 4,
            worker: None,
            partition: None,
            sim_start: 1.5,
            sim_end: 2.25,
            wall_start_us: 10,
            wall_end_us: 20,
            bytes_in: 100,
            bytes_out: 50,
            outcome: TaskOutcome::Ok,
        }
    }

    #[test]
    fn event_json_round_trips() {
        let mut ev = event(3, 1);
        ev.job = "na\"me\\with\nodd chars".into();
        ev.partition = Some(7);
        ev.outcome = TaskOutcome::Failed;
        let line = ev.to_json();
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
        let back = TaskEvent::from_json(&line).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn event_json_omits_missing_partition() {
        let line = event(0, 0).to_json();
        assert!(!line.contains("partition"));
        assert_eq!(TaskEvent::from_json(&line).unwrap().partition, None);
    }

    #[test]
    fn worker_attribution_round_trips_and_is_optional() {
        let mut ev = event(2, 0);
        ev.worker = Some(5);
        let line = ev.to_json();
        assert!(line.contains("\"worker\":5"));
        assert_eq!(TaskEvent::from_json(&line).unwrap(), ev);
        let bare = event(2, 0).to_json();
        assert!(!bare.contains("worker"));
        assert_eq!(TaskEvent::from_json(&bare).unwrap().worker, None);
    }

    #[test]
    fn recorder_is_off_until_enabled() {
        // Private instance: the global one is shared across tests.
        let rec = EventRecorder {
            enabled: AtomicBool::new(false),
        };
        assert!(!rec.enabled());
        rec.set_enabled(true);
        assert!(rec.enabled());
        rec.set_enabled(false);
        assert!(!rec.enabled());
    }

    #[test]
    fn outcome_spellings_round_trip() {
        for outcome in [TaskOutcome::Ok, TaskOutcome::Failed] {
            assert_eq!(TaskOutcome::parse(outcome.as_str()), Some(outcome));
        }
        assert_eq!(TaskOutcome::parse("bogus"), None);
    }
}

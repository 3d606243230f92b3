//! Span tracing: named wall-clock scopes emitted as JSON lines.
//!
//! A [`Span`] measures one scope (an FF round, one MapReduce phase, one
//! query) and, when a [`LineSink`] is installed, emits a single JSON
//! object on drop:
//!
//! ```json
//! {"name":"mr.map","id":7,"parent":6,"thread":"ffmrd-worker-0",
//!  "start_us":51234,"dur_us":890,"round":"3"}
//! ```
//!
//! * `id`/`parent` — process-unique span ids; `parent` is the innermost
//!   span still open **on the same thread** (a per-thread stack), so a
//!   driver round nests the MR job it runs, which nests its map /
//!   shuffle / reduce phases.
//! * `start_us` — microseconds since the first span of the process.
//! * extra string fields attached via [`Span::field`] appear as
//!   top-level JSON string members.
//!
//! With no sink installed (`set_sink(None)`, the default) starting a
//! span costs one relaxed atomic load and emits nothing — tracing is
//! strictly opt-in (the CLI's `--trace-file` flag).
//!
//! # Cross-process trace context
//!
//! Distributed runs stitch driver and worker spans into one trace:
//!
//! * [`set_trace_id`] installs a process-wide trace id (the driver mints
//!   one per MapReduce job); every span emitted while it is set carries a
//!   `"trace":N` member.
//! * [`span_child_of`] opens a span whose parent id was received from
//!   another process (the dispatch span id carried on `task-request`),
//!   so a worker's `map` span nests under the driver's `dispatch` span.
//! * [`seed_ids`] namespaces this process's span ids (workers seed with
//!   `(worker_id + 1) << 40`) so ids from different processes never
//!   collide in the merged trace.
//! * [`emit_raw`] forwards an already-encoded span line into the
//!   installed sink — how the coordinator folds worker-shipped span
//!   lines into the driver's `--trace-file`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::json;

/// Receives JSONL records one line at a time (no trailing newline).
/// The crate's only sink trait: spans (`--trace-file`, worker span
/// shipping) and slow-query profiles (`--slowlog-file`) both go
/// through it.
pub trait LineSink: Send + Sync {
    /// Consumes one single-line JSON object.
    fn emit(&self, json_line: &str);
}

/// A sink appending JSON lines to a file, flushed per line so a killed
/// daemon loses at most the spans still open.
///
/// With [`FileSink::with_max_bytes`] the file is size-capped: when an
/// emit would push it past the cap, the current file is renamed to
/// `<path>.1` (replacing any previous rotation) and a fresh file is
/// started — long `serve` sessions keep at most two generations.
#[derive(Debug)]
pub struct FileSink {
    state: Mutex<crate::rotate::RotatingFile>,
}

impl FileSink {
    /// Creates (truncates) `path` for writing, with no size cap.
    ///
    /// # Errors
    /// Propagates the file-creation failure.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(Self {
            state: Mutex::new(crate::rotate::RotatingFile::create(path, None)?),
        })
    }

    /// Creates (truncates) `path` for writing, rotating to `<path>.1`
    /// whenever the file would exceed `max_bytes`.
    ///
    /// # Errors
    /// Propagates the file-creation failure.
    pub fn with_max_bytes(path: &str, max_bytes: u64) -> std::io::Result<Self> {
        Ok(Self {
            state: Mutex::new(crate::rotate::RotatingFile::create(path, Some(max_bytes))?),
        })
    }
}

impl LineSink for FileSink {
    fn emit(&self, json_line: &str) {
        // A poisoned lock only means another emitter panicked between
        // two whole lines; the writer itself is still consistent.
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.write_line(json_line);
    }
}

/// A sink collecting lines in memory: tests, and a standalone worker
/// buffering its spans until the next `task-done` ships them.
#[derive(Debug, Default)]
pub struct VecSink {
    lines: Mutex<Vec<String>>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The JSON lines captured so far.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Removes and returns the lines captured so far.
    #[must_use]
    pub fn take(&self) -> Vec<String> {
        std::mem::take(
            &mut self
                .lines
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

impl LineSink for VecSink {
    fn emit(&self, json_line: &str) {
        self.lines
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(json_line.to_string());
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static TRACE_ID: AtomicU64 = AtomicU64::new(0);

fn sink_slot() -> &'static RwLock<Option<Arc<dyn LineSink>>> {
    static SINK: OnceLock<RwLock<Option<Arc<dyn LineSink>>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

/// The instant `start_us` values are measured from: the first call into
/// this module in the process. Stable for the process lifetime.
pub fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since [`process_epoch`] — the timebase every
/// span's `start_us` and the dispatch telemetry fields share.
#[must_use]
pub fn epoch_us() -> u64 {
    u64::try_from(process_epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Installs the process-wide trace id (0 clears it). While set, every
/// emitted span carries a `"trace":N` member; the driver mints one per
/// MapReduce job and ships it to workers with each dispatch.
pub fn set_trace_id(id: u64) {
    TRACE_ID.store(id, Ordering::Relaxed);
}

/// The current trace id (0 when none is set).
#[must_use]
pub fn current_trace_id() -> u64 {
    TRACE_ID.load(Ordering::Relaxed)
}

/// Seeds this process's span-id counter so ids from different processes
/// never collide in a merged trace. Workers call this once with
/// `(worker_id + 1) << 40` after registering; ids only move forward.
pub fn seed_ids(base: u64) {
    NEXT_ID.fetch_max(base.max(1), Ordering::Relaxed);
}

/// Forwards an already-encoded span line (no trailing newline) into the
/// installed sink, if any — used by the coordinator to merge span lines
/// shipped from worker processes into the driver's trace file.
pub fn emit_raw(json_line: &str) {
    let sink = sink_slot()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    if let Some(sink) = sink {
        sink.emit(json_line);
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Installs (or with `None` removes) the process-wide span sink.
pub fn set_sink(sink: Option<Arc<dyn LineSink>>) {
    TRACING.store(sink.is_some(), Ordering::Relaxed);
    *sink_slot()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = sink;
}

/// Whether a sink is currently installed.
#[must_use]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Opens a span named `name`. Returns an inert guard when no sink is
/// installed.
pub fn span(name: &str) -> Span {
    open_span(name, None)
}

/// Opens a span whose parent id came from another process (the dispatch
/// span id a worker received on `task-request`). The span still joins
/// this thread's stack, so spans opened inside it nest normally.
pub fn span_child_of(name: &str, parent: u64) -> Span {
    open_span(name, Some(parent))
}

fn open_span(name: &str, explicit_parent: Option<u64>) -> Span {
    if !tracing_enabled() {
        return Span { inner: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = explicit_parent.or_else(|| s.last().copied());
        s.push(id);
        parent
    });
    Span {
        inner: Some(SpanInner {
            name: name.to_string(),
            id,
            parent,
            trace: current_trace_id(),
            start: Instant::now(),
            start_us: epoch_us(),
            fields: Vec::new(),
        }),
    }
}

#[derive(Debug)]
struct SpanInner {
    name: String,
    id: u64,
    parent: Option<u64>,
    trace: u64,
    start: Instant,
    start_us: u64,
    fields: Vec<(String, String)>,
}

/// An open span; closing (dropping) it emits the JSON line.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Attaches a `key:"value"` string member to the emitted JSON.
    pub fn field(&mut self, key: &str, value: impl ToString) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// This span's process-unique id (0 for an inert span).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_us = u64::try_from(inner.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Normally the top of the stack; tolerate out-of-order drops.
            if let Some(pos) = s.iter().rposition(|id| *id == inner.id) {
                s.remove(pos);
            }
        });
        let sink = sink_slot()
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let Some(sink) = sink else { return };
        let line = json::object(128, |w| {
            w.str("name", &inner.name);
            w.uint("id", inner.id);
            if let Some(parent) = inner.parent {
                w.uint("parent", parent);
            }
            if inner.trace != 0 {
                w.uint("trace", inner.trace);
            }
            w.str("thread", std::thread::current().name().unwrap_or("unnamed"));
            w.uint("start_us", inner.start_us);
            w.uint("dur_us", dur_us);
            for (key, value) in &inner.fields {
                w.str(key, value);
            }
        });
        sink.emit(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spans share process-global state; serialize the tests touching it.
    fn sink_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn no_sink_means_inert_spans() {
        let _g = sink_guard();
        set_sink(None);
        let mut s = span("quiet");
        s.field("k", "v");
        assert_eq!(s.id(), 0);
        drop(s); // must not panic or emit
    }

    #[test]
    fn nesting_and_fields_are_emitted() {
        let _g = sink_guard();
        let sink = Arc::new(VecSink::new());
        set_sink(Some(Arc::clone(&sink) as Arc<dyn LineSink>));
        {
            let mut outer = span("outer");
            outer.field("round", 3);
            let outer_id = outer.id();
            {
                let inner = span("inner");
                assert_ne!(inner.id(), outer_id);
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_sink(None);
        let lines = sink.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        // Children drop first.
        assert!(lines[0].contains("\"name\":\"inner\""));
        assert!(lines[0].contains("\"parent\":"));
        assert!(lines[1].contains("\"name\":\"outer\""));
        assert!(lines[1].contains("\"round\":\"3\""));
        assert!(!lines[1].contains("\"parent\":"), "outer has no parent");
        // Parent id referenced by the child matches the parent's id.
        let parent_ref = lines[0]
            .split("\"parent\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .unwrap()
            .to_string();
        assert!(lines[1].contains(&format!("\"id\":{parent_ref}")));
        // Outer duration covers the sleep.
        let dur: u64 = lines[1]
            .split("\"dur_us\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(dur >= 2_000, "dur_us={dur}");
    }

    #[test]
    fn escaping_keeps_lines_valid() {
        let _g = sink_guard();
        let sink = Arc::new(VecSink::new());
        set_sink(Some(Arc::clone(&sink) as Arc<dyn LineSink>));
        {
            let mut s = span("weird \"name\"\n");
            s.field("path", "a\\b\tc");
        }
        set_sink(None);
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].contains('\n'));
        assert!(lines[0].contains("weird \\\"name\\\"\\n"));
        assert!(lines[0].contains("a\\\\b\\tc"));
    }

    #[test]
    fn concurrent_threads_preserve_nesting_and_do_not_tear_lines() {
        let _g = sink_guard();
        let sink = Arc::new(VecSink::new());
        set_sink(Some(Arc::clone(&sink) as Arc<dyn LineSink>));
        const THREADS: usize = 8;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..50 {
                        let _outer = span(&format!("outer-{t}-{i}"));
                        let _inner = span(&format!("inner-{t}-{i}"));
                    }
                });
            }
        });
        set_sink(None);
        let lines = sink.lines();
        assert_eq!(lines.len(), THREADS * 50 * 2, "every span emitted once");
        let member = |line: &str, key: &str| -> Option<String> {
            line.split(&format!("\"{key}\":"))
                .nth(1)
                .and_then(|s| s.split([',', '}']).next())
                .map(str::to_string)
        };
        for line in &lines {
            // No torn or interleaved writes: each captured line is one
            // complete JSON object.
            assert!(
                line.starts_with("{\"name\":\"") && line.ends_with('}'),
                "{line}"
            );
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(line.matches('{').count(), 1, "interleaved write: {line}");
        }
        for t in 0..THREADS {
            for i in 0..50 {
                let outer = lines
                    .iter()
                    .find(|l| l.contains(&format!("\"name\":\"outer-{t}-{i}\"")))
                    .expect("outer span emitted");
                let inner = lines
                    .iter()
                    .find(|l| l.contains(&format!("\"name\":\"inner-{t}-{i}\"")))
                    .expect("inner span emitted");
                // Per-thread nesting survived the concurrency: each
                // inner's parent is its own thread's outer, never a
                // span from another thread.
                assert_eq!(
                    member(inner, "parent"),
                    member(outer, "id"),
                    "outer={outer} inner={inner}"
                );
                assert_eq!(member(outer, "parent"), None, "{outer}");
            }
        }
    }

    #[test]
    fn trace_id_and_explicit_parent_are_emitted() {
        let _g = sink_guard();
        let sink = Arc::new(VecSink::new());
        set_sink(Some(Arc::clone(&sink) as Arc<dyn LineSink>));
        set_trace_id(77);
        {
            let remote_parent = 1u64 << 40;
            let outer = span_child_of("remote-child", remote_parent);
            assert_ne!(outer.id(), 0);
            {
                // Nested spans chain below the explicit-parent span.
                let _inner = span("nested");
            }
        }
        set_trace_id(0);
        set_sink(None);
        let lines = sink.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"name\":\"nested\""));
        assert!(lines[0].contains("\"trace\":77"));
        assert!(lines[1].contains(&format!("\"parent\":{}", 1u64 << 40)));
        assert!(lines[1].contains("\"trace\":77"));
        // The nested span's parent is the remote-child span, not the
        // remote parent id.
        let outer_id = lines[1]
            .split("\"id\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .unwrap();
        assert!(lines[0].contains(&format!("\"parent\":{outer_id}")));
    }

    #[test]
    fn emit_raw_forwards_to_the_sink() {
        let _g = sink_guard();
        let sink = Arc::new(VecSink::new());
        set_sink(Some(Arc::clone(&sink) as Arc<dyn LineSink>));
        emit_raw("{\"name\":\"shipped\"}");
        set_sink(None);
        emit_raw("{\"name\":\"dropped\"}");
        assert_eq!(sink.lines(), vec!["{\"name\":\"shipped\"}".to_string()]);
        // `take` hands the lines over and leaves the sink empty (how a
        // worker ships each batch exactly once).
        assert_eq!(sink.take(), vec!["{\"name\":\"shipped\"}".to_string()]);
        assert!(sink.lines().is_empty());
    }

    #[test]
    fn file_sink_rotates_at_the_size_cap() {
        let _g = sink_guard();
        let dir = std::env::temp_dir().join(format!("ffmr-span-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        {
            let sink = FileSink::with_max_bytes(&path_str, 64).unwrap();
            for i in 0..8 {
                sink.emit(&format!("{{\"name\":\"padpadpadpadpad-{i}\"}}"));
            }
        }
        let rotated = std::fs::read_to_string(format!("{path_str}.1")).unwrap();
        let current = std::fs::read_to_string(&path_str).unwrap();
        assert!(!rotated.is_empty(), "rotation must have happened");
        assert!(current.len() as u64 <= 64 + 32, "current file stays capped");
        // No line is torn across the rotation boundary.
        assert!(rotated
            .lines()
            .chain(current.lines())
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_get_independent_parent_stacks() {
        let _g = sink_guard();
        let sink = Arc::new(VecSink::new());
        set_sink(Some(Arc::clone(&sink) as Arc<dyn LineSink>));
        {
            let _outer = span("outer");
            std::thread::spawn(|| {
                let _s = span("other-thread");
            })
            .join()
            .unwrap();
        }
        set_sink(None);
        let other = sink
            .lines()
            .into_iter()
            .find(|l| l.contains("other-thread"))
            .unwrap();
        assert!(
            !other.contains("\"parent\":"),
            "cross-thread spans must not inherit parents: {other}"
        );
    }
}

//! Driver-side coordination for distributed mode: a TCP task-dispatch
//! server plus the [`RemoteExecutor`] that plugs into the MapReduce
//! runtime as its [`TaskExecutor`].
//!
//! The division of labor keeps the simulation contract intact: worker
//! processes only ever *execute task bodies over bytes*. Every cost-model
//! and scheduling decision — simulated task durations, shuffle and
//! cross-node accounting, retry budgets, speculative execution — stays in
//! the driver, computed from the numbers each task result reports. A
//! distributed run therefore prices out identically to the in-process
//! run it mirrors.
//!
//! Failure model: a worker is declared dead when its registration
//! connection drops (a `kill -9` closes the socket, so this is the fast
//! path) or when its heartbeats go quiet past the configured timeout.
//! Death fails that worker's in-flight dispatches with
//! [`MrError::TaskFailed`], which re-enters the runtime's existing
//! retry/speculation machinery; the re-dispatch gets a *fresh* dispatch
//! id, so a `task-done` from a zombie attempt refers to a retired id and
//! is discarded — recovery is exactly-once. If every worker is gone for
//! [`CoordinatorConfig::dead_cluster_timeout`], pending dispatches fail
//! instead of hanging forever.
//!
//! Each dispatch's [`DispatchNote`] is measured here, on the driver clock
//! and the worker's own socket: the window opens when the reply handing
//! the task out starts to be written and closes when the `task-done`
//! body has been read; `fetch_us` is the time writing that reply took
//! and `push_us` the time from the `task-done`'s first byte to its last.

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ffmr_obs::DispatchNote;
use ffmr_service::{
    error_response, read_message_polled, status, write_message, Message, WireError,
};
use ffmr_sync::{Condvar, Mutex};
use mapreduce::error::DecodeError;
use mapreduce::{
    MapTaskResult, MapTaskSpec, MrError, ReduceTaskResult, ReduceTaskSpec, TaskExecutor, WireSpec,
};

use crate::proto::{self, verb};

/// How long a connection lingers after shutdown to let workers drain.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);
/// Socket read timeout; doubles as the shutdown poll interval.
const POLL: Duration = Duration::from_millis(50);
/// Longest a `task-request` waits for work before answering `none 1`.
/// Bounds how long an idle worker takes to notice a signal, and stays
/// well under any heartbeat timeout, since a polling worker's
/// `last_seen` is refreshed per request.
const LONG_POLL: Duration = Duration::from_millis(100);
/// Heartbeat-monitor scan interval.
const MONITOR_INTERVAL: Duration = Duration::from_millis(100);
/// Dispatch-note backstop: a runtime that never drains (recorder turned
/// on with no job collecting stats) must not grow memory without bound.
const NOTES_CAP: usize = 65_536;

/// Tuning knobs for [`Coordinator::start`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Silence longer than this marks a worker dead (its connection
    /// dropping is detected immediately, independent of this).
    pub heartbeat_timeout: Duration,
    /// How long a dispatch may sit with zero live workers before it is
    /// failed rather than left waiting for a worker that may never come.
    pub dead_cluster_timeout: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            heartbeat_timeout: Duration::from_secs(3),
            dead_cluster_timeout: Duration::from_secs(30),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Map,
    Reduce,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Map => "map",
            Phase::Reduce => "reduce",
        }
    }
}

#[derive(Debug)]
struct Dispatch {
    phase: Phase,
    task: usize,
    running_on: Option<u64>,
    outcome: Option<Result<Vec<u8>, String>>,
    /// When the driver enqueued this dispatch, on the process-epoch
    /// clock ([`ffmr_obs::span::epoch_us`]).
    queued_us: u64,
    /// Trace context handed to the worker on `task-request` (zero when
    /// the driver is not tracing).
    trace: u64,
    span: u64,
    /// The [`proto::encode_task_body`] bytes, moved into the reply that
    /// hands the dispatch out (a dispatch is handed out once; a retry
    /// is a new dispatch).
    body: Vec<u8>,
}

#[derive(Debug)]
struct WorkerEntry {
    last_seen: Instant,
    alive: bool,
    /// Told to shut down cleanly; not a death when it disconnects.
    departing: bool,
    running: Vec<u64>,
    /// Estimated worker-clock → coordinator-clock offset in µs, from
    /// the lowest-RTT heartbeat sample (see `crate::proto` docs).
    offset_us: i64,
    /// RTT of the sample backing `offset_us` (`u64::MAX` until the
    /// first heartbeat carries one).
    min_rtt_us: u64,
    last_rtt_us: u64,
    tasks_ok: u64,
    tasks_failed: u64,
    bytes_in: u64,
    bytes_out: u64,
}

#[derive(Debug, Default)]
struct State {
    queue: VecDeque<u64>,
    dispatches: HashMap<u64, Dispatch>,
    workers: HashMap<u64, WorkerEntry>,
    next_worker: u64,
    next_dispatch: u64,
    deaths: u64,
    /// Flight-recorder notes, one per completed dispatch attempt;
    /// drained by the runtime through
    /// [`TaskExecutor::drain_dispatch_notes`]. Only populated while the
    /// global event recorder is enabled.
    notes: Vec<DispatchNote>,
    /// Dispatch id → index into `notes`, so the executor can attach
    /// driver-side serialization time after the fact.
    note_index: HashMap<u64, usize>,
}

impl State {
    fn live_workers(&self) -> usize {
        self.workers
            .values()
            .filter(|w| w.alive && !w.departing)
            .count()
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    changed: Condvar,
    shutdown: AtomicBool,
    heartbeat_timeout: Duration,
    dead_cluster_timeout: Duration,
}

impl Shared {
    fn publish_worker_gauge(&self, state: &State) {
        ffmr_obs::global()
            .gauge("ffmr_dist_workers", &[])
            .set(state.live_workers() as i64);
    }

    /// Marks `worker` dead and fails its in-flight dispatches so the
    /// runtime's retry path re-dispatches them.
    fn mark_dead(&self, worker: u64, why: &str) {
        let mut st = self.state.lock();
        let Some(entry) = st.workers.get_mut(&worker) else {
            return;
        };
        if !entry.alive {
            return;
        }
        entry.alive = false;
        let departing = entry.departing;
        let running = std::mem::take(&mut entry.running);
        if !departing {
            st.deaths += 1;
            ffmr_obs::global()
                .counter("ffmr_dist_worker_deaths_total", &[])
                .inc();
        }
        for d in running {
            if let Some(dispatch) = st.dispatches.get_mut(&d) {
                if dispatch.outcome.is_none() {
                    dispatch.outcome = Some(Err(format!(
                        "worker {worker} died ({why}) while running {} task {} (dispatch {d})",
                        dispatch.phase.as_str(),
                        dispatch.task,
                    )));
                }
            }
        }
        self.publish_worker_gauge(&st);
        drop(st);
        self.changed.notify_all();
    }
}

/// The distributed-mode coordinator: owns the dispatch server, dispatch
/// queue and worker table. Create one per driver process, register it
/// with the runtime via [`Coordinator::executor`], and point `ffmr
/// worker` processes at [`Coordinator::local_addr`].
pub struct Coordinator {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Coordinator {
    /// Binds the dispatch server and starts the accept loop and the
    /// heartbeat monitor.
    ///
    /// # Errors
    /// If the listener cannot bind `config.addr`.
    pub fn start(config: CoordinatorConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            heartbeat_timeout: config.heartbeat_timeout,
            dead_cluster_timeout: config.dead_cluster_timeout,
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || accept_loop(&listener, &shared, &connections))
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || monitor_loop(&shared))
        };

        Ok(Self {
            shared,
            local_addr,
            accept: Some(accept),
            monitor: Some(monitor),
            connections,
        })
    }

    /// The bound address workers should connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A [`TaskExecutor`] handle for
    /// [`MrRuntime::set_task_executor`](mapreduce::MrRuntime::set_task_executor).
    #[must_use]
    pub fn executor(&self) -> Arc<RemoteExecutor> {
        Arc::new(RemoteExecutor {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Number of registered workers currently believed alive.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.shared.state.lock().live_workers()
    }

    /// Total workers declared dead so far (connection drop or heartbeat
    /// timeout; clean departures don't count).
    #[must_use]
    pub fn worker_deaths(&self) -> u64 {
        self.shared.state.lock().deaths
    }

    /// Blocks until at least `n` workers are live, or `timeout` passes.
    /// Returns whether the quorum arrived.
    pub fn wait_for_workers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        while st.live_workers() < n {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.shared.changed.wait_timeout(&mut st, deadline - now);
        }
        true
    }

    /// Stops the server: connected workers get `shutdown 1` on their
    /// next `task-request`, then all coordinator threads are joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Taking the lock orders the store before any long poll's next
        // wait, so the notification below cannot slip between a poll's
        // check and its wait.
        drop(self.shared.state.lock());
        self.shared.changed.notify_all();
        // Both loops park between rounds: wake them rather than wait out
        // their interval, so teardown is prompt.
        for h in [self.accept.take(), self.monitor.take()]
            .into_iter()
            .flatten()
        {
            h.thread().unpark();
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.connections.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || serve_connection(stream, &shared));
                connections.lock().push(handle);
            }
            // Nothing pending (the listener is non-blocking) or a failed
            // accept: look again after a poll interval.
            Err(_) => std::thread::park_timeout(POLL),
        }
    }
}

fn monitor_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::park_timeout(MONITOR_INTERVAL);
        let stale: Vec<u64> = {
            let st = shared.state.lock();
            st.workers
                .iter()
                .filter(|(_, w)| {
                    w.alive && !w.departing && w.last_seen.elapsed() > shared.heartbeat_timeout
                })
                .map(|(&id, _)| id)
                .collect()
        };
        for id in stale {
            shared.mark_dead(id, "heartbeat timeout");
        }
    }
}

/// The dispatch a worker connection's last reply handed out, as that
/// connection's socket measured it.
#[derive(Debug, Clone, Copy)]
struct HandOut {
    dispatch: u64,
    /// Driver clock when writing the reply began.
    started_us: u64,
    /// How long writing the reply took.
    fetch_us: u64,
    /// Task-body bytes the reply carried.
    bytes_in: u64,
}

/// What one worker connection carries from request to request.
#[derive(Debug, Default)]
struct Conn {
    /// The worker this connection registered.
    worker: Option<u64>,
    /// The dispatch the reply being built hands out; becomes
    /// `handed_out` once that reply is written.
    handing_out: Option<u64>,
    handed_out: Option<HandOut>,
    /// Microseconds from the current request's first byte to its last.
    read_us: u64,
}

/// A socket reader that notes when the current message's first byte
/// arrived, so a body's transfer is timed on the coordinator's socket.
struct TimedReader<'a> {
    stream: &'a TcpStream,
    first_byte: Option<Instant>,
}

impl Read for TimedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        if n > 0 {
            self.first_byte.get_or_insert_with(Instant::now);
        }
        Ok(n)
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut conn = Conn::default();
    // Once shutdown is requested the connection keeps serving for
    // [`SHUTDOWN_GRACE`] so in-flight workers can drain, then closes.
    let mut grace: Option<Instant> = None;
    let mut give_up = || {
        shared.shutdown.load(Ordering::SeqCst)
            && grace.get_or_insert_with(Instant::now).elapsed() > SHUTDOWN_GRACE
    };
    let mut reader = TimedReader {
        stream: &stream,
        first_byte: None,
    };
    // Anything but a whole message — EOF, grace expired, a frame
    // violation — drops the connection; a malformed header is answered.
    loop {
        reader.first_byte = None;
        let response = match read_message_polled(&mut reader, &mut give_up) {
            Ok(Some(request)) => {
                conn.read_us = reader.first_byte.map_or(0, elapsed_us);
                handle_request(shared, request, &mut conn).unwrap_or_else(|error| error)
            }
            Err(WireError::BadMessage(e)) => error_response(format!("bad request: {e}")),
            Ok(None) | Err(_) => break,
        };
        let started_us = ffmr_obs::span::epoch_us();
        let writing = Instant::now();
        if write_message(&mut &stream, &response).is_err() {
            break;
        }
        if let Some(dispatch) = conn.handing_out.take() {
            let fetch_us = elapsed_us(writing);
            ffmr_obs::global()
                .histogram("ffmr_dist_blob_get_us", &[])
                .record(fetch_us);
            conn.handed_out = Some(HandOut {
                dispatch,
                started_us,
                fetch_us,
                bytes_in: response.body.len() as u64,
            });
        }
    }
    if let Some(id) = conn.worker {
        shared.mark_dead(id, "connection closed");
    }
}

/// Worker-clock → coordinator-clock offset: the worker stamped `now_us`
/// roughly half an RTT before the coordinator read it.
fn clock_offset(now_us: u64, rtt_us: u64) -> i64 {
    let received = i128::from(ffmr_obs::span::epoch_us());
    let sent = i128::from(now_us) + i128::from(rtt_us / 2);
    i64::try_from(received - sent).unwrap_or(0)
}

/// Merges telemetry a worker piggybacked on `task-done` (or sent as a
/// final `telemetry` flush): its cumulative metrics snapshot, merged
/// into the driver registry under a `worker` label, and captured span
/// JSONL, forwarded verbatim to the driver's trace sink.
fn absorb_telemetry(request: &Message, worker: u64) {
    let metrics = request.joined_lines("metrics");
    if !metrics.is_empty() {
        ffmr_obs::global().merge_snapshot(&metrics, ("worker", &worker.to_string()));
    }
    for line in request.get_all("spans").filter(|l| !l.is_empty()) {
        ffmr_obs::span::emit_raw(line);
    }
}

fn parse_u64(request: &Message, key: &str) -> Result<u64, Message> {
    match request.get_parsed::<u64>(key) {
        Ok(Some(v)) => Ok(v),
        Ok(None) => Err(error_response(format!("missing field {key}"))),
        Err(e) => Err(error_response(format!("bad field {key}: {e}"))),
    }
}

/// Answers one request; `Err` is an `error` reply.
fn handle_request(
    shared: &Arc<Shared>,
    request: Message,
    conn: &mut Conn,
) -> Result<Message, Message> {
    match request.head.as_str() {
        verb::REGISTER => {
            if conn.worker.is_some() {
                return Err(error_response("connection already registered a worker"));
            }
            // Crude first offset estimate from the registration itself;
            // refined by every lower-RTT heartbeat sample.
            let offset_us = request
                .get_parsed::<u64>("now-us")
                .ok()
                .flatten()
                .map_or(0, |now| clock_offset(now, 0));
            let mut st = shared.state.lock();
            let id = st.next_worker;
            st.next_worker += 1;
            st.workers.insert(
                id,
                WorkerEntry {
                    last_seen: Instant::now(),
                    alive: true,
                    departing: false,
                    running: Vec::new(),
                    offset_us,
                    min_rtt_us: u64::MAX,
                    last_rtt_us: 0,
                    tasks_ok: 0,
                    tasks_failed: 0,
                    bytes_in: 0,
                    bytes_out: 0,
                },
            );
            conn.worker = Some(id);
            shared.publish_worker_gauge(&st);
            drop(st);
            shared.changed.notify_all();
            Ok(Message::new(status::OK).field("worker", id))
        }
        verb::HEARTBEAT => {
            let worker = parse_u64(&request, "worker")?;
            let now_us = request.get_parsed::<u64>("now-us").ok().flatten();
            let rtt_us = request.get_parsed::<u64>("rtt-us").ok().flatten();
            if let Some(rtt) = rtt_us {
                ffmr_obs::global()
                    .histogram("ffmr_dist_heartbeat_rtt_us", &[])
                    .record(rtt);
            }
            let mut st = shared.state.lock();
            match st.workers.get_mut(&worker) {
                Some(entry) if entry.alive => {
                    entry.last_seen = Instant::now();
                    match (now_us, rtt_us) {
                        // The lowest-RTT sample bounds the one-way delay
                        // tightest, so it wins the offset estimate.
                        (Some(now), Some(rtt)) => {
                            entry.last_rtt_us = rtt;
                            if rtt <= entry.min_rtt_us {
                                entry.min_rtt_us = rtt;
                                entry.offset_us = clock_offset(now, rtt);
                            }
                        }
                        (Some(now), None) if entry.min_rtt_us == u64::MAX => {
                            entry.offset_us = clock_offset(now, 0);
                        }
                        _ => {}
                    }
                    Ok(Message::new(status::OK))
                }
                _ => Err(error_response(format!("unknown or dead worker {worker}"))),
            }
        }
        verb::TASK_REQUEST => {
            let worker = parse_u64(&request, "worker")?;
            let deadline = Instant::now() + LONG_POLL;
            let mut st = shared.state.lock();
            // A long poll: wait on `changed` for a dispatch, shutdown or
            // this worker's death, up to the deadline.
            let d = loop {
                let state = &mut *st;
                let Some(entry) = state.workers.get_mut(&worker) else {
                    return Err(error_response(format!("unknown worker {worker}")));
                };
                if !entry.alive {
                    return Err(error_response(format!("worker {worker} was declared dead")));
                }
                entry.last_seen = Instant::now();
                if shared.shutdown.load(Ordering::SeqCst) {
                    entry.departing = true;
                    shared.publish_worker_gauge(state);
                    return Ok(Message::new(status::OK).field("shutdown", 1));
                }
                if let Some(d) = state.queue.pop_front() {
                    entry.running.push(d);
                    break d;
                }
                let now = Instant::now();
                if now >= deadline {
                    return Ok(Message::new(status::OK).field("none", 1));
                }
                shared.changed.wait_timeout(&mut st, deadline - now);
            };
            let dispatch = st
                .dispatches
                .get_mut(&d)
                .expect("queued dispatch has an entry");
            dispatch.running_on = Some(worker);
            let mut resp = Message::new(status::OK);
            resp.push("dispatch", d);
            resp.push("phase", dispatch.phase.as_str());
            if dispatch.trace != 0 {
                resp.push("trace", dispatch.trace);
                resp.push("span", dispatch.span);
            }
            resp.body = std::mem::take(&mut dispatch.body);
            ffmr_obs::global()
                .counter("ffmr_dist_blob_bytes_total", &[("dir", "get")])
                .add(resp.body.len() as u64);
            conn.handing_out = Some(d);
            Ok(resp)
        }
        verb::TASK_DONE => {
            let worker = parse_u64(&request, "worker")?;
            let d = parse_u64(&request, "dispatch")?;
            let ok = match request.get("status") {
                Some("ok") => true,
                Some("err") => false,
                _ => return Err(error_response("missing or bad field status")),
            };
            absorb_telemetry(&request, worker);
            let done_us = ffmr_obs::span::epoch_us();
            let handed = conn.handed_out.take().filter(|h| h.dispatch == d);
            let bytes_in = handed.map_or(0, |h| h.bytes_in);
            let bytes_out = request.body.len() as u64;
            let reg = ffmr_obs::global();
            reg.counter("ffmr_dist_blob_bytes_total", &[("dir", "put")])
                .add(bytes_out);
            reg.histogram("ffmr_dist_blob_put_us", &[])
                .record(conn.read_us);
            let mut st = shared.state.lock();
            if let Some(entry) = st.workers.get_mut(&worker) {
                entry.last_seen = Instant::now();
                entry.running.retain(|&r| r != d);
                if ok {
                    entry.tasks_ok += 1;
                } else {
                    entry.tasks_failed += 1;
                }
                entry.bytes_in += bytes_in;
                entry.bytes_out += bytes_out;
            }
            // A dispatch the coordinator no longer tracks (or that was
            // reassigned after this worker was declared dead) is a stale
            // attempt: acknowledge and discard so retries stay
            // exactly-once.
            let current = st
                .dispatches
                .get(&d)
                .is_some_and(|disp| disp.running_on == Some(worker) && disp.outcome.is_none());
            if current {
                if ffmr_obs::events::recorder().enabled() && st.notes.len() < NOTES_CAP {
                    let disp = st.dispatches.get(&d).expect("checked above");
                    let note = DispatchNote {
                        phase: disp.phase.as_str().to_string(),
                        task: disp.task,
                        worker,
                        ok,
                        queued_us: disp.queued_us,
                        done_us,
                        started_us: handed.map_or(disp.queued_us, |h| h.started_us),
                        finished_us: done_us,
                        fetch_us: handed.map_or(0, |h| h.fetch_us),
                        push_us: conn.read_us,
                        ser_us: 0,
                        bytes_in,
                        bytes_out,
                    };
                    let idx = st.notes.len();
                    st.notes.push(note);
                    st.note_index.insert(d, idx);
                }
                let outcome = if !ok {
                    Err(request
                        .get("message")
                        .unwrap_or("worker reported failure without a message")
                        .to_string())
                } else if request.body.is_empty() {
                    Err(format!(
                        "worker {worker} reported dispatch {d} ok without a result"
                    ))
                } else {
                    Ok(request.body)
                };
                st.dispatches.get_mut(&d).expect("checked above").outcome = Some(outcome);
                drop(st);
                shared.changed.notify_all();
            }
            Ok(Message::new(status::OK))
        }
        verb::TELEMETRY => {
            let worker = parse_u64(&request, "worker")?;
            absorb_telemetry(&request, worker);
            Ok(Message::new(status::OK))
        }
        verb::WORKERS => {
            let st = shared.state.lock();
            let mut resp = Message::new(status::OK);
            resp.push("queue-depth", st.queue.len());
            let mut ids: Vec<u64> = st.workers.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let w = &st.workers[&id];
                resp.push("worker", id);
                resp.push(
                    "state",
                    if !w.alive {
                        "dead"
                    } else if w.departing {
                        "departing"
                    } else {
                        "live"
                    },
                );
                resp.push("hb-age-ms", w.last_seen.elapsed().as_millis());
                resp.push("rtt-us", w.last_rtt_us);
                resp.push("offset-us", w.offset_us);
                resp.push("inflight", w.running.len());
                resp.push("tasks-ok", w.tasks_ok);
                resp.push("tasks-failed", w.tasks_failed);
                resp.push("bytes-in", w.bytes_in);
                resp.push("bytes-out", w.bytes_out);
            }
            Ok(resp)
        }
        other => Err(error_response(format!("unknown verb {other:?}"))),
    }
}

/// The [`TaskExecutor`] that ships tasks to worker processes.
///
/// `execute_map`/`execute_reduce` pack the job and the task's spec into
/// a task body, enqueue a dispatch, and block until a worker reports its
/// result (or the dispatch fails). Called concurrently from the
/// runtime's task threads, so `worker_threads` bounds how many
/// dispatches are in flight.
#[derive(Debug)]
pub struct RemoteExecutor {
    shared: Arc<Shared>,
}

impl RemoteExecutor {
    /// Encodes one task, ships it and decodes its result; both codec
    /// steps are charged to the dispatch's note as `ser_us`.
    fn execute<R>(
        &self,
        phase: Phase,
        task: usize,
        wire: &WireSpec,
        encode_spec: impl FnOnce() -> Vec<u8>,
        decode_result: impl FnOnce(&[u8]) -> Result<R, DecodeError>,
    ) -> Result<R, MrError> {
        let encode_started = Instant::now();
        let body = proto::encode_task_body(&wire.kind, &wire.params, &encode_spec());
        let encode_time = encode_started.elapsed();
        let (bytes, d) = self.run_remote(phase, task, body)?;
        let decode_started = Instant::now();
        let result = decode_result(&bytes)
            .map_err(|e| MrError::Wire(format!("{} task {task} result: {e}", phase.as_str())));
        let ser = encode_time + decode_started.elapsed();
        self.record_ser_us(d, u64::try_from(ser.as_micros()).unwrap_or(u64::MAX));
        result
    }

    fn run_remote(
        &self,
        phase: Phase,
        task: usize,
        body: Vec<u8>,
    ) -> Result<(Vec<u8>, u64), MrError> {
        // The dispatch span parents the worker-side task span: its id
        // travels in the `task-request` response and returns inside the
        // worker's captured span lines, stitching driver and worker
        // into one trace (the trace id is the job span's id).
        let trace = ffmr_obs::span::current_trace_id();
        let mut dispatch_span = if trace == 0 {
            ffmr_obs::span("mr.dispatch")
        } else {
            ffmr_obs::span_child_of("mr.dispatch", trace)
        };
        dispatch_span.field("phase", phase.as_str());
        dispatch_span.field("task", task);
        let d = {
            let mut st = self.shared.state.lock();
            let d = st.next_dispatch;
            st.next_dispatch += 1;
            st.dispatches.insert(
                d,
                Dispatch {
                    phase,
                    task,
                    running_on: None,
                    outcome: None,
                    queued_us: ffmr_obs::span::epoch_us(),
                    trace,
                    span: dispatch_span.id(),
                    body,
                },
            );
            st.queue.push_back(d);
            d
        };
        dispatch_span.field("dispatch", d);
        ffmr_obs::global()
            .counter("ffmr_dist_dispatches_total", &[("phase", phase.as_str())])
            .inc();
        self.shared.changed.notify_all();

        let mut no_worker_since: Option<Instant> = None;
        let mut st = self.shared.state.lock();
        loop {
            if let Some(outcome) = st
                .dispatches
                .get_mut(&d)
                .and_then(|disp| disp.outcome.take())
            {
                cleanup_dispatch(&mut st, d);
                drop(st);
                return outcome
                    .map(|bytes| (bytes, d))
                    .map_err(|message| MrError::TaskFailed {
                        phase: phase.as_str(),
                        task,
                        message,
                    });
            }
            if st.live_workers() == 0 {
                let since = *no_worker_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= self.shared.dead_cluster_timeout {
                    cleanup_dispatch(&mut st, d);
                    drop(st);
                    return Err(MrError::TaskFailed {
                        phase: phase.as_str(),
                        task,
                        message: format!(
                            "no live workers for {:?}; dispatch {d} abandoned",
                            self.shared.dead_cluster_timeout
                        ),
                    });
                }
            } else {
                no_worker_since = None;
            }
            self.shared.changed.wait_timeout(&mut st, MONITOR_INTERVAL);
        }
    }

    /// Attaches driver-side serialization time to the note `dispatch`
    /// produced (no-op when no note was recorded).
    fn record_ser_us(&self, dispatch: u64, ser_us: u64) {
        let mut st = self.shared.state.lock();
        if let Some(&idx) = st.note_index.get(&dispatch) {
            if let Some(note) = st.notes.get_mut(idx) {
                note.ser_us = ser_us;
            }
        }
    }
}

fn cleanup_dispatch(st: &mut State, d: u64) {
    st.dispatches.remove(&d);
    st.queue.retain(|&q| q != d);
}

impl TaskExecutor for RemoteExecutor {
    fn execute_map(&self, wire: &WireSpec, spec: MapTaskSpec) -> Result<MapTaskResult, MrError> {
        let task = spec.task;
        self.execute(
            Phase::Map,
            task,
            wire,
            move || spec.to_bytes(),
            MapTaskResult::from_bytes,
        )
    }

    fn execute_reduce(
        &self,
        wire: &WireSpec,
        spec: ReduceTaskSpec,
    ) -> Result<ReduceTaskResult, MrError> {
        let task = spec.task;
        self.execute(
            Phase::Reduce,
            task,
            wire,
            move || spec.to_bytes(),
            ReduceTaskResult::from_bytes,
        )
    }

    fn drain_dispatch_notes(&self) -> Vec<ffmr_obs::DispatchNote> {
        let mut st = self.shared.state.lock();
        st.note_index.clear();
        std::mem::take(&mut st.notes)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use ffmr_service::{read_message, write_frame};

    use super::*;

    #[test]
    fn split_frame_across_a_poll_tick_still_gets_its_reply() {
        let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
        let mut stream = TcpStream::connect(coordinator.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, &Message::new(verb::WORKERS).encode()).unwrap();
        // Same shape as the `ffmrd` test: the frame straddles at least
        // one read-timeout tick of the connection loop.
        stream.write_all(&frame[..2]).unwrap();
        std::thread::sleep(3 * POLL);
        stream.write_all(&frame[2..]).unwrap();
        let reply = ffmr_service::read_frame(&mut stream)
            .expect("the half-read prefix must not be lost")
            .expect("a reply, not EOF");
        assert_eq!(Message::decode(&reply).unwrap().head, status::OK);
        // A body frame split across a tick is still one message, and
        // the stream stays in step behind it.
        let mut with_body = Message::new(verb::WORKERS);
        with_body.body = vec![7; 64];
        let mut frames = Vec::new();
        write_message(&mut frames, &with_body).unwrap();
        write_frame(&mut frames, &Message::new(verb::WORKERS).encode()).unwrap();
        let cut = frames.len() / 2;
        stream.write_all(&frames[..cut]).unwrap();
        std::thread::sleep(3 * POLL);
        stream.write_all(&frames[cut..]).unwrap();
        for _ in 0..2 {
            let reply = read_message(&mut stream).unwrap().expect("a reply");
            assert_eq!(reply.head, status::OK);
        }
        // Closed first, or shutdown would sit out the drain grace.
        drop(stream);
        coordinator.shutdown();
    }

    /// A fake worker whose clock runs `SHIFT_US` ahead of the driver's:
    /// a heartbeat whose RTT was spent on one leg skews the offset by
    /// half that RTT, and a later, tighter beat must replace it.
    #[test]
    fn heartbeat_offset_tracks_the_lowest_rtt_sample() {
        const SHIFT_US: u64 = 10_000_000;
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            heartbeat_timeout: Duration::from_secs(3),
            dead_cluster_timeout: Duration::from_secs(30),
        });
        let mut conn = Conn::default();
        let mut call = |request: Message| handle_request(&shared, request, &mut conn).unwrap();
        let worker_now = || ffmr_obs::span::epoch_us() + SHIFT_US;
        call(Message::new(verb::REGISTER).field("now-us", worker_now()));
        // The worker stamps `now-us` `delay_us` before the driver reads
        // it, and reports a round trip of `rtt_us`; the reply is the
        // `workers` table's offset error against the true shift.
        let mut beat = |rtt_us: u64, delay_us: u64| {
            call(
                Message::new(verb::HEARTBEAT)
                    .field("worker", 0)
                    .field("now-us", worker_now() - delay_us)
                    .field("rtt-us", rtt_us),
            );
            let table = call(Message::new(verb::WORKERS));
            let offset: i64 = table.get_parsed("offset-us").unwrap().unwrap();
            offset.abs_diff(-(SHIFT_US as i64))
        };

        // 100 ms round trip, all of it on the way in: 50 ms off.
        let skewed = beat(100_000, 100_000);
        assert!(skewed >= 40_000, "skewed beat off by only {skewed}us");
        // A tight, symmetric 4 ms beat wins.
        let tight = beat(4_000, 2_000);
        assert!(tight <= 4_000, "tight beat still off by {tight}us");
        assert_eq!(beat(20_000, 20_000), tight, "a looser beat displaced it");
    }
}

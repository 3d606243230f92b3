//! Driver-side coordination for distributed mode: a TCP task-dispatch
//! server plus the [`RemoteExecutor`] that plugs into the MapReduce
//! runtime as its [`TaskExecutor`].
//!
//! The division of labor keeps the simulation contract intact: worker
//! processes only ever *execute task bodies over bytes*. Every cost-model
//! and scheduling decision — simulated task durations, shuffle and
//! cross-node accounting, retry budgets — stays in
//! the driver, computed from the numbers each task result reports. A
//! distributed run therefore prices out identically to the in-process
//! run it mirrors.
//!
//! One task attempt is one dispatch, and one `Dispatch` entry carries it
//! from enqueue to retirement: its queue position (ids are issued in
//! order, so the lowest-id entry no worker holds heads the queue), the
//! worker running it, its hand-out and `task-done` stamps and its
//! outcome. Retiring the entry hands the attempt's result and its
//! [`DispatchNote`] back to the runtime together.
//!
//! Failure model: a worker is declared dead when its registration
//! connection drops (a `kill -9` closes the socket, so this is the fast
//! path) or when its heartbeats go quiet past the configured timeout.
//! Death fails that worker's in-flight dispatches with
//! [`MrError::TaskFailed`], which re-enters the runtime's existing
//! retry machinery; the re-dispatch gets a *fresh* dispatch
//! id, so a `task-done` from a zombie attempt refers to a retired id and
//! is discarded — recovery is exactly-once. If every worker is gone for
//! [`CoordinatorConfig::dead_cluster_timeout`], pending dispatches fail
//! instead of hanging forever.
//!
//! Each dispatch's note is measured here, on the driver clock and the
//! worker's own socket: the window opens when the dispatch is handed
//! out, just before the reply carrying it is written, and closes when
//! the `task-done` body has been read (or the worker is declared dead);
//! `fetch_us` is the time writing that reply took and `push_us` the time
//! from the `task-done`'s first byte to its last. Span lines a worker
//! ships are moved onto the driver clock by that worker's estimated
//! clock offset before they reach the trace sink.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
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
    Attempt, MapTaskResult, MapTaskSpec, MrError, ReduceTaskResult, ReduceTaskSpec, TaskExecutor,
    WireSpec,
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

/// One task attempt on the dispatch plane, from enqueue to retirement.
#[derive(Debug)]
struct Dispatch {
    /// The worker it was handed to; `None` while it waits in the queue.
    worker: Option<u64>,
    /// The attempt's note, stamped as it goes: phase, task and
    /// `queued_us` at enqueue; worker, `started_us` and `bytes_in` at
    /// hand-out, `fetch_us` once the reply is written; the rest at
    /// `task-done` or the worker's death.
    note: DispatchNote,
    outcome: Option<Result<Vec<u8>, String>>,
    /// Trace context handed to the worker on `task-request` (zero when
    /// the driver is not tracing).
    trace: u64,
    span: u64,
    /// The [`proto::encode_task_body`] bytes, moved into the reply that
    /// hands the dispatch out (a dispatch is handed out once; a retry
    /// is a new dispatch).
    body: Vec<u8>,
}

impl Dispatch {
    /// Handed out and still waiting for its outcome.
    fn running_on(&self, worker: u64) -> bool {
        self.worker == Some(worker) && self.outcome.is_none()
    }
}

#[derive(Debug)]
struct WorkerEntry {
    last_seen: Instant,
    alive: bool,
    /// Told to shut down cleanly; not a death when it disconnects.
    departing: bool,
    /// Estimated worker-clock → coordinator-clock offset in µs: the
    /// lowest [`clock_offset`] reading over the worker's registration
    /// and heartbeats (`None` until one carries `now-us`). Each reading
    /// exceeds the true offset by its message's transit time, so the
    /// lowest is the tightest, and a span moved by it cannot start
    /// before the dispatch that carried its task.
    offset_us: Option<i64>,
    last_rtt_us: u64,
    tasks_ok: u64,
    tasks_failed: u64,
    bytes_in: u64,
    bytes_out: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Every dispatch not yet retired, by id.
    dispatches: BTreeMap<u64, Dispatch>,
    workers: HashMap<u64, WorkerEntry>,
    next_worker: u64,
    next_dispatch: u64,
    deaths: u64,
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
    /// runtime's retry path re-dispatches them; each keeps its note,
    /// closed at the moment of death.
    fn mark_dead(&self, worker: u64, why: &str) {
        let mut st = self.state.lock();
        let Some(entry) = st.workers.get_mut(&worker) else {
            return;
        };
        if !entry.alive {
            return;
        }
        entry.alive = false;
        if !entry.departing {
            st.deaths += 1;
            ffmr_obs::global()
                .counter("ffmr_dist_worker_deaths_total", &[])
                .inc();
        }
        let now_us = ffmr_obs::span::epoch_us();
        for (d, dispatch) in &mut st.dispatches {
            if dispatch.running_on(worker) {
                let note = &mut dispatch.note;
                (note.finished_us, note.done_us) = (now_us, now_us);
                dispatch.outcome = Some(Err(format!(
                    "worker {worker} died ({why}) while running {} task {} (dispatch {d})",
                    note.phase, note.task,
                )));
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
        // Wake both loops rather than wait out a blocked accept or the
        // monitor's interval, so teardown is prompt.
        let _ = TcpStream::connect(self.local_addr);
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

/// Accepts until shutdown; `stop` unblocks the `accept` with a
/// self-connection, which is dropped here unserved.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || serve_connection(stream, &shared));
        connections.lock().push(handle);
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

/// What one worker connection carries from request to request.
#[derive(Debug, Default)]
struct Conn {
    /// The worker this connection registered.
    worker: Option<u64>,
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
        let writing = Instant::now();
        if write_message(&mut &stream, &response).is_err() {
            break;
        }
        // Only the reply that hands a dispatch out names one.
        if let Ok(Some(d)) = response.get_parsed::<u64>("dispatch") {
            let fetch_us = elapsed_us(writing);
            ffmr_obs::global()
                .histogram("ffmr_dist_blob_get_us", &[])
                .record(fetch_us);
            if let Some(dispatch) = shared.state.lock().dispatches.get_mut(&d) {
                dispatch.note.fetch_us = fetch_us;
            }
        }
    }
    if let Some(id) = conn.worker {
        shared.mark_dead(id, "connection closed");
    }
}

/// One reading of the worker-clock → coordinator-clock offset from a
/// message the worker stamped `now_us` as it sent it: the true offset
/// plus the time the message took to be read.
fn clock_offset(now_us: u64) -> i64 {
    let received = i128::from(ffmr_obs::span::epoch_us());
    i64::try_from(received - i128::from(now_us)).unwrap_or(0)
}

/// Merges telemetry a worker piggybacked on `task-done` (or sent as a
/// final `telemetry` flush): its cumulative metrics snapshot, merged
/// into the driver registry under a `worker` label, and captured span
/// JSONL, moved onto the driver clock and forwarded to the driver's
/// trace sink.
fn absorb_telemetry(shared: &Shared, request: &Message, worker: u64) {
    let metrics = request.joined_lines("metrics");
    if !metrics.is_empty() {
        ffmr_obs::global().merge_snapshot(&metrics, ("worker", &worker.to_string()));
    }
    let mut spans = request
        .get_all("spans")
        .filter(|l| !l.is_empty())
        .peekable();
    if spans.peek().is_some() {
        let st = shared.state.lock();
        let offset_us = st.workers.get(&worker).and_then(|w| w.offset_us);
        drop(st);
        let offset_us = offset_us.unwrap_or(0);
        for line in spans {
            ffmr_obs::span::emit_raw(&shift_start_us(line, offset_us));
        }
    }
}

/// A worker span line with its `start_us` (worker process epoch) moved
/// by `offset_us` onto the driver's epoch. The member is written by
/// `ffmr_obs`'s own serializer, so its key cannot occur inside a string.
fn shift_start_us(line: &str, offset_us: i64) -> Cow<'_, str> {
    const KEY: &str = "\"start_us\":";
    let Some(at) = line.find(KEY).map(|i| i + KEY.len()) else {
        return Cow::Borrowed(line);
    };
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    let Ok(start_us) = line[at..at + digits].parse::<u64>() else {
        return Cow::Borrowed(line);
    };
    let shifted = start_us.saturating_add_signed(offset_us);
    Cow::Owned(format!("{}{shifted}{}", &line[..at], &line[at + digits..]))
}

fn parse_u64(request: &Message, key: &str) -> Result<u64, Message> {
    match request.get_parsed::<u64>(key) {
        Ok(Some(v)) => Ok(v),
        Ok(None) => Err(error_response(format!("missing field {key}"))),
        Err(e) => Err(error_response(format!("bad field {key}: {e}"))),
    }
}

/// Hands the queue's head — the lowest-id dispatch no worker holds — to
/// `worker`: the reply that carries it, or `None` if the queue is empty.
fn hand_out(state: &mut State, worker: u64) -> Option<Message> {
    let (&d, dispatch) = state
        .dispatches
        .iter_mut()
        .find(|(_, dispatch)| dispatch.worker.is_none())?;
    dispatch.worker = Some(worker);
    let mut resp = Message::new(status::OK);
    resp.push("dispatch", d);
    resp.push("phase", &dispatch.note.phase);
    if dispatch.trace != 0 {
        resp.push("trace", dispatch.trace);
        resp.push("span", dispatch.span);
    }
    resp.body = std::mem::take(&mut dispatch.body);
    let bytes_in = resp.body.len() as u64;
    let note = &mut dispatch.note;
    (note.worker, note.started_us, note.bytes_in) = (worker, ffmr_obs::span::epoch_us(), bytes_in);
    if let Some(entry) = state.workers.get_mut(&worker) {
        entry.bytes_in += bytes_in;
    }
    ffmr_obs::global()
        .counter("ffmr_dist_blob_bytes_total", &[("dir", "get")])
        .add(bytes_in);
    Some(resp)
}

/// Answers one request; `Err` is an `error` reply.
fn handle_request(
    shared: &Arc<Shared>,
    mut request: Message,
    conn: &mut Conn,
) -> Result<Message, Message> {
    match request.head.as_str() {
        verb::REGISTER => {
            if conn.worker.is_some() {
                return Err(error_response("connection already registered a worker"));
            }
            // The first offset reading; every heartbeat adds one.
            let offset_us = request
                .get_parsed::<u64>("now-us")
                .ok()
                .flatten()
                .map(clock_offset);
            let mut st = shared.state.lock();
            let id = st.next_worker;
            st.next_worker += 1;
            st.workers.insert(
                id,
                WorkerEntry {
                    last_seen: Instant::now(),
                    alive: true,
                    departing: false,
                    offset_us,
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
                    if let Some(rtt) = rtt_us {
                        entry.last_rtt_us = rtt;
                    }
                    if let Some(reading) = now_us.map(clock_offset) {
                        entry.offset_us = Some(entry.offset_us.map_or(reading, |o| o.min(reading)));
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
            loop {
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
                if let Some(reply) = hand_out(state, worker) {
                    return Ok(reply);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Ok(Message::new(status::OK).field("none", 1));
                }
                shared.changed.wait_timeout(&mut st, deadline - now);
            }
        }
        verb::TASK_DONE => {
            let worker = parse_u64(&request, "worker")?;
            let d = parse_u64(&request, "dispatch")?;
            let ok = match request.get("status") {
                Some("ok") => true,
                Some("err") => false,
                _ => return Err(error_response("missing or bad field status")),
            };
            absorb_telemetry(shared, &request, worker);
            let done_us = ffmr_obs::span::epoch_us();
            let bytes_out = request.body.len() as u64;
            let reg = ffmr_obs::global();
            reg.counter("ffmr_dist_blob_bytes_total", &[("dir", "put")])
                .add(bytes_out);
            reg.histogram("ffmr_dist_blob_put_us", &[])
                .record(conn.read_us);
            let mut st = shared.state.lock();
            if let Some(entry) = st.workers.get_mut(&worker) {
                entry.last_seen = Instant::now();
                if ok {
                    entry.tasks_ok += 1;
                } else {
                    entry.tasks_failed += 1;
                }
                entry.bytes_out += bytes_out;
            }
            // A dispatch the coordinator no longer tracks (or that was
            // reassigned after this worker was declared dead) is a stale
            // attempt: acknowledge and discard so retries stay
            // exactly-once.
            let Some(dispatch) = st
                .dispatches
                .get_mut(&d)
                .filter(|dispatch| dispatch.running_on(worker))
            else {
                return Ok(Message::new(status::OK));
            };
            let note = &mut dispatch.note;
            (note.ok, note.done_us, note.finished_us) = (ok, done_us, done_us);
            (note.push_us, note.bytes_out) = (conn.read_us, bytes_out);
            dispatch.outcome = Some(if !ok {
                Err(request
                    .get("message")
                    .unwrap_or("worker reported failure without a message")
                    .to_string())
            } else if request.body.is_empty() {
                Err(format!(
                    "worker {worker} reported dispatch {d} ok without a result"
                ))
            } else {
                Ok(std::mem::take(&mut request.body))
            });
            drop(st);
            shared.changed.notify_all();
            Ok(Message::new(status::OK))
        }
        verb::TELEMETRY => {
            let worker = parse_u64(&request, "worker")?;
            absorb_telemetry(shared, &request, worker);
            Ok(Message::new(status::OK))
        }
        verb::WORKERS => {
            let st = shared.state.lock();
            let mut resp = Message::new(status::OK);
            let queued = st.dispatches.values().filter(|d| d.worker.is_none());
            resp.push("queue-depth", queued.count());
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
                resp.push("offset-us", w.offset_us.unwrap_or(0));
                let running = st.dispatches.values().filter(|d| d.running_on(id));
                resp.push("inflight", running.count());
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
/// result (or the dispatch fails); the attempt comes back with the
/// dispatch's note whenever a worker took it. Called concurrently from
/// the runtime's task threads, so `worker_threads` bounds how many
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
        phase: &'static str,
        task: usize,
        wire: &WireSpec,
        encode_spec: impl FnOnce() -> Vec<u8>,
        decode_result: impl FnOnce(&[u8]) -> Result<R, DecodeError>,
    ) -> Attempt<R> {
        let encode_started = Instant::now();
        let body = proto::encode_task_body(&wire.kind, &wire.params, &encode_spec());
        let encode_time = encode_started.elapsed();
        let (outcome, mut note) = self.run_remote(phase, task, body);
        let decode_started = Instant::now();
        let result = outcome.and_then(|bytes| {
            decode_result(&bytes)
                .map_err(|e| MrError::Wire(format!("{phase} task {task} result: {e}")))
        });
        if let Some(note) = &mut note {
            let ser = encode_time + decode_started.elapsed();
            note.ser_us = u64::try_from(ser.as_micros()).unwrap_or(u64::MAX);
        }
        Attempt { result, note }
    }

    /// Enqueues one dispatch and waits for its retirement: the result
    /// bytes or the failure, and its note if a worker took it.
    fn run_remote(
        &self,
        phase: &'static str,
        task: usize,
        body: Vec<u8>,
    ) -> (Result<Vec<u8>, MrError>, Option<DispatchNote>) {
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
        dispatch_span.field("phase", phase);
        dispatch_span.field("task", task);
        let d = {
            let mut st = self.shared.state.lock();
            let d = st.next_dispatch;
            st.next_dispatch += 1;
            st.dispatches.insert(
                d,
                Dispatch {
                    worker: None,
                    note: DispatchNote {
                        phase: phase.to_string(),
                        task,
                        queued_us: ffmr_obs::span::epoch_us(),
                        ..DispatchNote::default()
                    },
                    outcome: None,
                    trace,
                    span: dispatch_span.id(),
                    body,
                },
            );
            d
        };
        dispatch_span.field("dispatch", d);
        ffmr_obs::global()
            .counter("ffmr_dist_dispatches_total", &[("phase", phase)])
            .inc();
        self.shared.changed.notify_all();

        let mut no_worker_since: Option<Instant> = None;
        let mut st = self.shared.state.lock();
        let outcome = loop {
            let dispatch = st.dispatches.get_mut(&d).expect("retired only here");
            if let Some(outcome) = dispatch.outcome.take() {
                break outcome;
            }
            if st.live_workers() == 0 {
                let since = *no_worker_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= self.shared.dead_cluster_timeout {
                    break Err(format!(
                        "no live workers for {:?}; dispatch {d} abandoned",
                        self.shared.dead_cluster_timeout
                    ));
                }
            } else {
                no_worker_since = None;
            }
            self.shared.changed.wait_timeout(&mut st, MONITOR_INTERVAL);
        };
        let dispatch = st.dispatches.remove(&d).expect("retired only here");
        drop(st);
        let result = outcome.map_err(|message| MrError::TaskFailed {
            phase,
            task,
            message,
        });
        (result, dispatch.worker.map(|_| dispatch.note))
    }
}

impl TaskExecutor for RemoteExecutor {
    fn execute_map(&self, wire: &WireSpec, spec: MapTaskSpec) -> Attempt<MapTaskResult> {
        let task = spec.task;
        self.execute(
            "map",
            task,
            wire,
            move || spec.to_bytes(),
            MapTaskResult::from_bytes,
        )
    }

    fn execute_reduce(&self, wire: &WireSpec, spec: ReduceTaskSpec) -> Attempt<ReduceTaskResult> {
        let task = spec.task;
        self.execute(
            "reduce",
            task,
            wire,
            move || spec.to_bytes(),
            ReduceTaskResult::from_bytes,
        )
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

    /// Coordinator state with no server around it, for driving
    /// `handle_request` directly.
    fn bare_shared() -> Arc<Shared> {
        Arc::new(Shared {
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            heartbeat_timeout: Duration::from_secs(3),
            dead_cluster_timeout: Duration::from_secs(30),
        })
    }

    /// A fake worker whose clock runs `SHIFT_US` ahead of the driver's:
    /// each stamp reads the offset plus its own transit time, so a
    /// registration that sat 50 ms in transit is 50 ms off, a later beat
    /// that took 2 ms replaces it, and a slower beat does not displace it.
    #[test]
    fn clock_offset_keeps_the_tightest_reading() {
        const SHIFT_US: u64 = 10_000_000;
        let shared = bare_shared();
        let mut conn = Conn::default();
        let mut call = |request: Message| handle_request(&shared, request, &mut conn).unwrap();
        // The worker stamps `now-us` `transit_us` before the driver reads
        // it; the reply is the `workers` table's offset error against the
        // true shift.
        let worker_now = |transit_us: u64| ffmr_obs::span::epoch_us() + SHIFT_US - transit_us;
        let mut error = |request: Message| {
            call(request);
            let table = call(Message::new(verb::WORKERS));
            let offset: i64 = table.get_parsed("offset-us").unwrap().unwrap();
            offset.abs_diff(-(SHIFT_US as i64))
        };
        let beat = |transit_us: u64| {
            Message::new(verb::HEARTBEAT)
                .field("worker", 0)
                .field("now-us", worker_now(transit_us))
                .field("rtt-us", 2 * transit_us)
        };

        let slow = error(Message::new(verb::REGISTER).field("now-us", worker_now(50_000)));
        assert!(slow >= 50_000, "a 50 ms transit read only {slow}us off");
        let tight = error(beat(2_000));
        assert!(tight < 10_000, "the 2 ms beat still off by {tight}us");
        assert_eq!(error(beat(20_000)), tight, "a slower beat displaced it");
    }

    /// A fake worker whose clock runs 10 s ahead of the driver's ships a
    /// span it opened "now": in the driver's trace it must start now on
    /// the driver clock, not 10 s in the future.
    #[test]
    fn shipped_spans_are_moved_onto_the_driver_clock() {
        const SHIFT_US: u64 = 10_000_000;
        let sink = Arc::new(ffmr_obs::VecSink::new());
        ffmr_obs::set_sink(Some(Arc::clone(&sink) as Arc<dyn ffmr_obs::LineSink>));
        let shared = bare_shared();
        let mut conn = Conn::default();
        let register =
            Message::new(verb::REGISTER).field("now-us", ffmr_obs::span::epoch_us() + SHIFT_US);
        handle_request(&shared, register, &mut conn).unwrap();
        let driver_now = ffmr_obs::span::epoch_us();
        let worker_start = driver_now + SHIFT_US;
        let line = format!(
            "{{\"name\":\"worker.map\",\"id\":1099511627776,\"thread\":\"w\",\
             \"start_us\":{worker_start},\"dur_us\":5,\"dispatch\":\"0\"}}"
        );
        let telemetry = Message::new(verb::TELEMETRY)
            .field("worker", 0)
            .field("spans", &line);
        handle_request(&shared, telemetry, &mut conn).unwrap();
        ffmr_obs::set_sink(None);

        let shipped: Vec<String> = sink
            .take()
            .into_iter()
            .filter(|l| l.contains("\"worker.map\""))
            .collect();
        assert_eq!(shipped.len(), 1, "{shipped:?}");
        let at = shipped[0].find("\"start_us\":").unwrap() + "\"start_us\":".len();
        let digits: String = shipped[0][at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let start_us: u64 = digits.parse().unwrap();
        assert!(
            start_us.abs_diff(driver_now) < 1_000_000,
            "start_us {start_us} vs driver clock {driver_now}: {}",
            shipped[0]
        );
        // Everything but the start is forwarded as the worker wrote it.
        let moved = line.replace(&worker_start.to_string(), &digits);
        assert_eq!(shipped[0], moved);
    }
}

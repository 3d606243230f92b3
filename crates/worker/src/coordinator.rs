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

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ffmr_obs::DispatchNote;
use ffmr_service::{error_response, read_frame_polled, status, write_frame, Message};
use ffmr_sync::{Condvar, Mutex};
use mapreduce::{
    MapTaskResult, MapTaskSpec, MrError, ReduceTaskResult, ReduceTaskSpec, TaskExecutor, WireSpec,
};

use crate::b64;
use crate::proto::{self, verb, RAW_CHUNK_BYTES};

/// How long a connection lingers after shutdown to let workers drain.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);
/// Socket read timeout; doubles as the shutdown poll interval.
const POLL: Duration = Duration::from_millis(50);
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

/// A flight-recorder note whose window is still on the worker's clock.
/// The raw `t-start-us`/`t-end-us` are aligned only when the notes are
/// drained, so every note of one worker gets the same offset: a new
/// lowest-RTT heartbeat between two dispatches cannot make that
/// worker's sequential windows overlap on the driver clock.
#[derive(Debug)]
struct PendingNote {
    note: DispatchNote,
    worker_start_us: Option<u64>,
    worker_end_us: Option<u64>,
}

impl PendingNote {
    fn aligned(mut self, offset_us: i64) -> DispatchNote {
        if let Some(t) = self.worker_start_us {
            self.note.started_us = align_to_driver(t, offset_us);
        }
        if let Some(t) = self.worker_end_us {
            self.note.finished_us = align_to_driver(t, offset_us);
        }
        self.note
    }
}

#[derive(Debug, Default)]
struct State {
    blobs: HashMap<String, Vec<u8>>,
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
    notes: Vec<PendingNote>,
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

/// The distributed-mode coordinator: owns the dispatch server, blob
/// store and worker table. Create one per driver process, register it
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
        self.shared.changed.notify_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.monitor.take() {
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
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn monitor_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(MONITOR_INTERVAL);
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

fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut registered: Option<u64> = None;
    // Once shutdown is requested the connection keeps serving for
    // [`SHUTDOWN_GRACE`] so in-flight workers can drain, then closes.
    let mut grace: Option<Instant> = None;
    let mut give_up = || {
        shared.shutdown.load(Ordering::SeqCst)
            && grace.get_or_insert_with(Instant::now).elapsed() > SHUTDOWN_GRACE
    };
    // Anything but a whole frame — EOF, grace expired, a protocol
    // violation — drops the connection.
    while let Ok(Some(payload)) = read_frame_polled(&mut stream, &mut give_up) {
        let response = match Message::decode(&payload) {
            Ok(request) => handle_request(shared, &request, &mut registered),
            Err(e) => error_response(format!("bad request: {e}")),
        };
        if write_frame(&mut stream, &response.encode()).is_err() {
            break;
        }
    }
    if let Some(id) = registered {
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

/// Maps a worker-clock timestamp onto the coordinator's process-epoch
/// clock, clamping at zero.
fn align_to_driver(worker_us: u64, offset_us: i64) -> u64 {
    u64::try_from(i128::from(worker_us) + i128::from(offset_us)).unwrap_or(0)
}

/// Merges telemetry payloads a worker piggybacked on `task-done` (or
/// sent as a final `telemetry` flush): a cumulative metrics snapshot
/// merged into the driver registry under a `worker` label, and captured
/// span JSONL forwarded verbatim to the driver's trace sink.
fn absorb_telemetry(request: &Message, worker: u64) {
    if let Some(encoded) = request.get("metrics") {
        if let Ok(bytes) = b64::decode(encoded) {
            if let Ok(text) = String::from_utf8(bytes) {
                ffmr_obs::global().merge_snapshot(&text, ("worker", &worker.to_string()));
            }
        }
    }
    if let Some(encoded) = request.get("spans") {
        if let Ok(bytes) = b64::decode(encoded) {
            if let Ok(text) = String::from_utf8(bytes) {
                for line in text.lines().filter(|l| !l.is_empty()) {
                    ffmr_obs::span::emit_raw(line);
                }
            }
        }
    }
}

fn parse_u64(request: &Message, key: &str) -> Result<u64, Message> {
    match request.get_parsed::<u64>(key) {
        Ok(Some(v)) => Ok(v),
        Ok(None) => Err(error_response(format!("missing field {key}"))),
        Err(e) => Err(error_response(format!("bad field {key}: {e}"))),
    }
}

fn handle_request(
    shared: &Arc<Shared>,
    request: &Message,
    registered: &mut Option<u64>,
) -> Message {
    match request.head.as_str() {
        verb::REGISTER => {
            if registered.is_some() {
                return error_response("connection already registered a worker");
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
            *registered = Some(id);
            shared.publish_worker_gauge(&st);
            drop(st);
            shared.changed.notify_all();
            let mut resp = Message::new(status::OK);
            resp.push("worker", id);
            resp
        }
        verb::HEARTBEAT => {
            let worker = match parse_u64(request, "worker") {
                Ok(v) => v,
                Err(resp) => return resp,
            };
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
                    Message::new(status::OK)
                }
                _ => error_response(format!("unknown or dead worker {worker}")),
            }
        }
        verb::TASK_REQUEST => {
            let worker = match parse_u64(request, "worker") {
                Ok(v) => v,
                Err(resp) => return resp,
            };
            let mut st = shared.state.lock();
            let Some(entry) = st.workers.get_mut(&worker) else {
                return error_response(format!("unknown worker {worker}"));
            };
            if !entry.alive {
                return error_response(format!("worker {worker} was declared dead"));
            }
            entry.last_seen = Instant::now();
            if shared.shutdown.load(Ordering::SeqCst) {
                entry.departing = true;
                shared.publish_worker_gauge(&st);
                let mut resp = Message::new(status::OK);
                resp.push("shutdown", 1);
                return resp;
            }
            if let Some(d) = st.queue.pop_front() {
                let (phase, trace, span) = {
                    let dispatch = st
                        .dispatches
                        .get_mut(&d)
                        .expect("queued dispatch has an entry");
                    dispatch.running_on = Some(worker);
                    (dispatch.phase, dispatch.trace, dispatch.span)
                };
                st.workers
                    .get_mut(&worker)
                    .expect("checked above")
                    .running
                    .push(d);
                let mut resp = Message::new(status::OK);
                resp.push("dispatch", d);
                resp.push("phase", phase.as_str());
                if trace != 0 {
                    resp.push("trace", trace);
                    resp.push("span", span);
                }
                resp
            } else {
                let mut resp = Message::new(status::OK);
                resp.push("none", 1);
                resp
            }
        }
        verb::BLOB_GET => {
            let started = Instant::now();
            let resp = (|| {
                let Some(name) = request.get("name") else {
                    return error_response("missing field name");
                };
                let offset = match parse_u64(request, "offset") {
                    Ok(v) => v as usize,
                    Err(resp) => return resp,
                };
                let st = shared.state.lock();
                let Some(blob) = st.blobs.get(name) else {
                    return error_response(format!("no such blob {name}"));
                };
                if offset > blob.len() {
                    return error_response(format!(
                        "blob {name} offset {offset} out of range (len {})",
                        blob.len()
                    ));
                }
                let end = blob.len().min(offset + RAW_CHUNK_BYTES);
                let chunk = &blob[offset..end];
                ffmr_obs::global()
                    .counter("ffmr_dist_blob_bytes_total", &[("dir", "get")])
                    .add(chunk.len() as u64);
                let mut resp = Message::new(status::OK);
                resp.push("data", b64::encode(chunk));
                resp.push("len", blob.len());
                resp.push("more", u8::from(end < blob.len()));
                resp
            })();
            ffmr_obs::global()
                .histogram("ffmr_dist_blob_get_us", &[])
                .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
            resp
        }
        verb::BLOB_PUT => {
            let started = Instant::now();
            let resp = (|| {
                let Some(name) = request.get("name") else {
                    return error_response("missing field name");
                };
                let offset = match parse_u64(request, "offset") {
                    Ok(v) => v as usize,
                    Err(resp) => return resp,
                };
                let data = match b64::decode(request.get("data").unwrap_or_default()) {
                    Ok(d) => d,
                    Err(e) => return error_response(format!("bad blob chunk: {e}")),
                };
                let mut st = shared.state.lock();
                let blob = if offset == 0 {
                    st.blobs.insert(name.to_string(), Vec::new());
                    st.blobs.get_mut(name).expect("just inserted")
                } else {
                    match st.blobs.get_mut(name) {
                        Some(b) if b.len() == offset => b,
                        Some(b) => {
                            let len = b.len();
                            return error_response(format!(
                                "blob {name} offset {offset} does not match length {len}"
                            ));
                        }
                        None => return error_response(format!("no such blob {name}")),
                    }
                };
                ffmr_obs::global()
                    .counter("ffmr_dist_blob_bytes_total", &[("dir", "put")])
                    .add(data.len() as u64);
                blob.extend_from_slice(&data);
                Message::new(status::OK)
            })();
            ffmr_obs::global()
                .histogram("ffmr_dist_blob_put_us", &[])
                .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
            resp
        }
        verb::TASK_DONE => {
            let worker = match parse_u64(request, "worker") {
                Ok(v) => v,
                Err(resp) => return resp,
            };
            let d = match parse_u64(request, "dispatch") {
                Ok(v) => v,
                Err(resp) => return resp,
            };
            let ok = match request.get("status") {
                Some("ok") => true,
                Some("err") => false,
                _ => return error_response("missing or bad field status"),
            };
            absorb_telemetry(request, worker);
            let done_us = ffmr_obs::span::epoch_us();
            let t = |key: &str| request.get_parsed::<u64>(key).ok().flatten();
            let (t_start, t_end) = (t("t-start-us"), t("t-end-us"));
            let (fetch_us, push_us) = (t("t-fetch-us"), t("t-push-us"));
            let (bytes_in, bytes_out) = (t("t-bytes-in"), t("t-bytes-out"));
            let mut st = shared.state.lock();
            if let Some(entry) = st.workers.get_mut(&worker) {
                entry.last_seen = Instant::now();
                entry.running.retain(|&r| r != d);
                if ok {
                    entry.tasks_ok += 1;
                } else {
                    entry.tasks_failed += 1;
                }
                entry.bytes_in += bytes_in.unwrap_or(0);
                entry.bytes_out += bytes_out.unwrap_or(0);
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
                    let queued_us = disp.queued_us;
                    let note = PendingNote {
                        note: DispatchNote {
                            phase: disp.phase.as_str().to_string(),
                            task: disp.task,
                            worker,
                            ok,
                            queued_us,
                            done_us,
                            started_us: queued_us,
                            finished_us: done_us,
                            fetch_us: fetch_us.unwrap_or(0),
                            push_us: push_us.unwrap_or(0),
                            ser_us: 0,
                            bytes_in: bytes_in.unwrap_or(0),
                            bytes_out: bytes_out.unwrap_or(0),
                        },
                        worker_start_us: t_start,
                        worker_end_us: t_end,
                    };
                    let idx = st.notes.len();
                    st.notes.push(note);
                    st.note_index.insert(d, idx);
                }
                let outcome = if ok {
                    match st.blobs.remove(&proto::result_blob(d)) {
                        Some(bytes) => Ok(bytes),
                        None => Err(format!(
                            "worker {worker} reported dispatch {d} ok but uploaded no result"
                        )),
                    }
                } else {
                    Err(request
                        .get("message")
                        .unwrap_or("worker reported failure without a message")
                        .to_string())
                };
                st.dispatches.get_mut(&d).expect("checked above").outcome = Some(outcome);
                drop(st);
                shared.changed.notify_all();
            }
            Message::new(status::OK)
        }
        verb::TELEMETRY => {
            let worker = match parse_u64(request, "worker") {
                Ok(v) => v,
                Err(resp) => return resp,
            };
            absorb_telemetry(request, worker);
            Message::new(status::OK)
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
            resp
        }
        other => error_response(format!("unknown verb {other:?}")),
    }
}

/// The [`TaskExecutor`] that ships tasks to worker processes.
///
/// `execute_map`/`execute_reduce` stage the job and spec blobs, enqueue
/// a dispatch, and block until a worker uploads the result (or the
/// dispatch fails). Called concurrently from the runtime's task threads,
/// so `worker_threads` bounds how many dispatches are in flight.
#[derive(Debug)]
pub struct RemoteExecutor {
    shared: Arc<Shared>,
}

impl RemoteExecutor {
    fn run_remote(
        &self,
        phase: Phase,
        task: usize,
        wire: &WireSpec,
        spec_bytes: Vec<u8>,
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
            st.blobs.insert(
                proto::job_blob(d),
                proto::encode_job_blob(&wire.kind, &wire.params),
            );
            st.blobs.insert(proto::spec_blob(d), spec_bytes);
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
            if let Some(pending) = st.notes.get_mut(idx) {
                pending.note.ser_us = ser_us;
            }
        }
    }
}

fn cleanup_dispatch(st: &mut State, d: u64) {
    st.dispatches.remove(&d);
    st.queue.retain(|&q| q != d);
    st.blobs.remove(&proto::job_blob(d));
    st.blobs.remove(&proto::spec_blob(d));
    st.blobs.remove(&proto::result_blob(d));
}

impl TaskExecutor for RemoteExecutor {
    fn execute_map(&self, wire: &WireSpec, spec: MapTaskSpec) -> Result<MapTaskResult, MrError> {
        let task = spec.task;
        let encode_started = Instant::now();
        let spec_bytes = spec.to_bytes();
        let encode_us = encode_started.elapsed();
        let (bytes, d) = self.run_remote(Phase::Map, task, wire, spec_bytes)?;
        let decode_started = Instant::now();
        let result = MapTaskResult::from_bytes(&bytes)
            .map_err(|e| MrError::Wire(format!("map task {task} result: {e}")));
        let ser = encode_us + decode_started.elapsed();
        self.record_ser_us(d, u64::try_from(ser.as_micros()).unwrap_or(u64::MAX));
        result
    }

    fn execute_reduce(
        &self,
        wire: &WireSpec,
        spec: ReduceTaskSpec,
    ) -> Result<ReduceTaskResult, MrError> {
        let task = spec.task;
        let encode_started = Instant::now();
        let spec_bytes = spec.to_bytes();
        let encode_us = encode_started.elapsed();
        let (bytes, d) = self.run_remote(Phase::Reduce, task, wire, spec_bytes)?;
        let decode_started = Instant::now();
        let result = ReduceTaskResult::from_bytes(&bytes)
            .map_err(|e| MrError::Wire(format!("reduce task {task} result: {e}")));
        let ser = encode_us + decode_started.elapsed();
        self.record_ser_us(d, u64::try_from(ser.as_micros()).unwrap_or(u64::MAX));
        result
    }

    /// Aligns each note with its worker's offset as of now, the
    /// lowest-RTT estimate seen so far.
    fn drain_dispatch_notes(&self) -> Vec<ffmr_obs::DispatchNote> {
        let mut st = self.shared.state.lock();
        st.note_index.clear();
        let pending = std::mem::take(&mut st.notes);
        pending
            .into_iter()
            .map(|p| {
                let offset_us = st.workers.get(&p.note.worker).map_or(0, |w| w.offset_us);
                p.aligned(offset_us)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

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
        // Closed first, or shutdown would sit out the drain grace.
        drop(stream);
        coordinator.shutdown();
    }

    /// A fake worker whose clock runs `SHIFT_US` ahead of the driver's:
    /// a heartbeat whose RTT was spent on one leg skews the offset by
    /// half that RTT, and a later, tighter beat must win for every note
    /// drained after it, including notes whose `task-done` came first.
    #[test]
    fn notes_align_with_the_lowest_rtt_offset_at_drain_time() {
        const SHIFT_US: u64 = 10_000_000;
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            heartbeat_timeout: Duration::from_secs(3),
            dead_cluster_timeout: Duration::from_secs(30),
        });
        let executor = RemoteExecutor {
            shared: Arc::clone(&shared),
        };
        let worker_now = || ffmr_obs::span::epoch_us() + SHIFT_US;
        let call = |request: Message| {
            let response = handle_request(&shared, &request, &mut None);
            assert_eq!(response.head, status::OK, "{request:?}");
        };
        // The worker stamps `now-us` `delay_us` before the driver reads
        // it, and reports a round trip of `rtt_us`.
        let heartbeat = |rtt_us: u64, delay_us: u64| {
            let mut beat = Message::new(verb::HEARTBEAT);
            beat.push("worker", 0);
            beat.push("now-us", worker_now() - delay_us);
            beat.push("rtt-us", rtt_us);
            call(beat);
        };

        let mut registered = None;
        let mut register = Message::new(verb::REGISTER);
        register.push("now-us", worker_now());
        handle_request(&shared, &register, &mut registered);
        assert_eq!(registered, Some(0));
        ffmr_obs::events::recorder().set_enabled(true);

        // 100 ms round trip, all of it on the way in: offset off by 50 ms.
        heartbeat(100_000, 100_000);
        {
            let mut st = shared.state.lock();
            st.dispatches.insert(
                7,
                Dispatch {
                    phase: Phase::Map,
                    task: 3,
                    running_on: Some(0),
                    outcome: None,
                    queued_us: ffmr_obs::span::epoch_us(),
                    trace: 0,
                    span: 0,
                },
            );
            st.workers.get_mut(&0).unwrap().running.push(7);
        }
        let (start, end) = (worker_now(), worker_now() + 1_000);
        let mut done = Message::new(verb::TASK_DONE);
        done.push("worker", 0);
        done.push("dispatch", 7);
        done.push("status", "err");
        done.push("t-start-us", start);
        done.push("t-end-us", end);
        call(done);
        // A tight, symmetric 4 ms beat after the task finished.
        heartbeat(4_000, 2_000);

        let min_rtt = shared.state.lock().workers[&0].min_rtt_us;
        assert_eq!(min_rtt, 4_000);
        let notes = executor.drain_dispatch_notes();
        assert_eq!(notes.len(), 1);
        let note = &notes[0];
        assert_eq!((note.phase.as_str(), note.task, note.ok), ("map", 3, false));
        for (aligned, truth) in [(note.started_us, start), (note.finished_us, end)] {
            let truth = truth - SHIFT_US;
            assert!(
                aligned.abs_diff(truth) <= min_rtt,
                "aligned {aligned}us vs truth {truth}us, min RTT {min_rtt}us"
            );
        }
        assert_eq!(note.finished_us - note.started_us, 1_000);
    }
}

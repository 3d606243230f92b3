//! The `ffmrd` daemon: TCP front-end, bounded work queue, worker pool.
//!
//! Threading model (std-only, no async runtime):
//!
//! * one **accept thread** owns the listener and spawns a thread per
//!   connection (clients are few and long-lived; a query, not a
//!   connection, is the unit of work);
//! * each **connection thread** reads one frame at a time. It answers
//!   `shutdown` itself and hands every other request to
//!   [`QueryEngine::route`], which parses it once and answers what needs
//!   no solver: the cheap verbs, malformed requests, cut-tree answers
//!   and cache hits. The [`Work`] it leaves (a flow query to solve, a
//!   `load`, `reload` or `sleep`) is submitted to the bounded queue and
//!   the thread blocks for that one reply — the protocol is strict
//!   request/response per connection;
//! * a fixed pool of **worker threads** drains the queue and runs
//!   [`QueryEngine::run`] on each item with the queue wait it measured;
//!   every solve goes to the engine's one solver thread.
//!
//! The queue is a `sync_channel(queue_depth)` submitted to with
//! `try_send`: when every worker is busy and the queue is full, the
//! client immediately gets a `busy` frame instead of unbounded latency —
//! explicit load shedding, never silent queueing. A tree or cached
//! answer never waits behind a solve and is never shed: it costs the
//! connection thread a walk of a few tree edges or a cache lookup
//! instead of two thread hops, which on a one-CPU daemon is most of
//! such an answer's time. A queued query answers from the snapshot that
//! was current when it arrived.
//!
//! Each accepted stream has `TCP_NODELAY` set, and each reply leaves in
//! one `write` ([`write_frame`]). Strict request/response is the pattern
//! Nagle's algorithm punishes: a reply segment held back until the
//! client acknowledges the previous one waits out the client's delayed
//! ACK (40 ms on Linux), several thousand times the engine's time on a
//! cached answer.
//!
//! Shutdown (via [`ServerHandle::shutdown`] or the `shutdown` verb) sets
//! one flag; the accept loop is unblocked by a self-connection, the
//! connection threads notice through their read timeout, the workers
//! through their receive timeout, and everything is joined — no detached
//! threads survive the handle.

use std::any::Any;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ffmr_sync::Mutex;

use crate::engine::{QueryEngine, Route, Work};
use crate::protocol::{busy_response, error_response, read_frame_polled, write_frame, Message};

/// How often blocked threads re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server sizing knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Requests that may wait in the queue beyond the ones being
    /// executed; further submissions are shed with `busy`.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 16,
        }
    }
}

/// One queued unit of work: what the engine left of a request, and
/// where to send the reply.
struct WorkItem {
    work: Work,
    reply: mpsc::Sender<Message>,
    /// When the item entered the queue (drives `ffmr_queue_wait_us`).
    enqueued: std::time::Instant,
}

struct Shared {
    engine: Arc<QueryEngine>,
    shutdown: AtomicBool,
    queue: SyncSender<WorkItem>,
    /// Makes the next queued run panic, so tests can check that a
    /// panic costs its request and not the worker.
    #[cfg(test)]
    panic_next_run: AtomicBool,
    /// This server's queued items and busy workers, for tests that must
    /// know its queue is full: the registry's gauges are shared by every
    /// server in the process.
    #[cfg(test)]
    queued: AtomicUsize,
    #[cfg(test)]
    busy: AtomicUsize,
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaks the threads; call it.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Binds `addr` and serves `engine` until shutdown.
///
/// # Errors
/// Propagates the bind failure.
pub fn serve(
    addr: impl ToSocketAddrs,
    engine: Arc<QueryEngine>,
    config: &ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let m = ffmr_obs::global();
    m.gauge("ffmr_workers", &[])
        .set(i64::try_from(config.workers.max(1)).unwrap_or(i64::MAX));
    m.gauge("ffmr_queue_capacity", &[])
        .set(i64::try_from(config.queue_depth.max(1)).unwrap_or(i64::MAX));
    let (queue_tx, queue_rx) = mpsc::sync_channel::<WorkItem>(config.queue_depth.max(1));
    let shared = Arc::new(Shared {
        engine,
        shutdown: AtomicBool::new(false),
        queue: queue_tx,
        #[cfg(test)]
        panic_next_run: AtomicBool::new(false),
        #[cfg(test)]
        queued: AtomicUsize::new(0),
        #[cfg(test)]
        busy: AtomicUsize::new(0),
    });

    let queue_rx = Arc::new(Mutex::new(queue_rx));
    let workers = (0..config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let queue_rx = Arc::clone(&queue_rx);
            std::thread::Builder::new()
                .name(format!("ffmrd-worker-{i}"))
                .spawn(move || worker_loop(&shared, &queue_rx))
                .expect("spawn worker")
        })
        .collect();

    let connections = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let shared = Arc::clone(&shared);
        let connections = Arc::clone(&connections);
        std::thread::Builder::new()
            .name("ffmrd-accept".into())
            .spawn(move || accept_loop(&listener, &shared, &connections))
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        local_addr,
        shared,
        accept: Some(accept),
        workers,
        connections,
    })
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether shutdown has been requested (locally or over the wire).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// Blocks until shutdown is requested, then joins everything.
    pub fn wait(mut self) {
        while !self.shutdown_requested() {
            std::thread::sleep(POLL_INTERVAL);
        }
        self.join_all();
    }

    /// Requests shutdown and joins every thread the server owns.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.join_all();
    }

    fn join_all(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Unblock accept(): the loop re-checks the flag per connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let connections = std::mem::take(&mut *self.connections.lock());
        for conn in connections {
            let _ = conn.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, conns: &Mutex<Vec<JoinHandle<()>>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("ffmrd-conn".into())
            .spawn(move || connection_loop(stream, &shared))
            .expect("spawn connection thread");
        let mut conns = conns.lock();
        // Opportunistically reap finished connections so a long-lived
        // daemon doesn't accumulate handles.
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
        ffmr_obs::global()
            .gauge("ffmr_connections", &[])
            .set(i64::try_from(conns.len()).unwrap_or(i64::MAX));
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // The read timeout is what lets an idle connection observe shutdown.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Without it a reply waits for the ACK of the one before (see the
    // module docs); a stream that refuses it still works, only slower.
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // A frame may arrive across several poll ticks; only shutdown
        // abandons one half-read.
        let stop = || shared.shutdown.load(Ordering::Relaxed);
        let payload = match read_frame_polled(&mut reader, stop) {
            Ok(Some(payload)) => payload,
            // Peer closed, shutdown was requested, or the stream broke.
            Ok(None) | Err(_) => return,
        };
        let response = match Message::decode(&payload) {
            Ok(request) => dispatch(&request, shared),
            Err(e) => error_response(e),
        };
        if write_frame(&mut writer, &response.encode()).is_err() {
            return;
        }
    }
}

/// Answers one request: `shutdown` here, everything else as the engine
/// routes it — inline, or through the bounded queue.
fn dispatch(request: &Message, shared: &Arc<Shared>) -> Message {
    if request.head == "shutdown" {
        shared.shutdown.store(true, Ordering::Relaxed);
        return Message::new(crate::protocol::status::OK).field("shutdown", 1);
    }
    match shared.engine.route(request) {
        Route::Reply(reply) => reply,
        Route::Work(work) => enqueue(work, shared),
    }
}

/// Submits work to the bounded queue and waits for its reply, or sheds
/// it with `busy` when the queue is full.
fn enqueue(work: Work, shared: &Shared) -> Message {
    let (reply_tx, reply_rx) = mpsc::channel();
    let item = WorkItem {
        work,
        reply: reply_tx,
        enqueued: std::time::Instant::now(),
    };
    #[cfg(test)]
    shared.queued.fetch_add(1, Ordering::SeqCst);
    let sent = shared.queue.try_send(item);
    #[cfg(test)]
    if sent.is_err() {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
    }
    match sent {
        Ok(()) => {
            ffmr_obs::global().gauge("ffmr_queue_depth", &[]).add(1);
            reply_rx
                .recv()
                .unwrap_or_else(|_| error_response("worker dropped the request"))
        }
        Err(TrySendError::Full(_)) => {
            ffmr_obs::global().counter("ffmr_shed_total", &[]).inc();
            busy_response()
        }
        Err(TrySendError::Disconnected(_)) => error_response("server is shutting down"),
    }
}

fn worker_loop(shared: &Arc<Shared>, queue: &Mutex<Receiver<WorkItem>>) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Hold the lock only for the timed receive; replies and solver
        // work happen outside it so workers drain the queue in parallel.
        let item = queue.lock().recv_timeout(POLL_INTERVAL);
        match item {
            Ok(WorkItem {
                work,
                reply,
                enqueued,
            }) => {
                let m = ffmr_obs::global();
                m.gauge("ffmr_queue_depth", &[]).sub(1);
                // Queue-wait latency: how long the request sat behind
                // busy workers before one picked it up — the knob
                // operators watch to size the worker pool.
                let waited = enqueued.elapsed();
                m.histogram("ffmr_queue_wait_us", &[])
                    .record_duration(waited);
                m.gauge("ffmr_workers_busy", &[]).add(1);
                #[cfg(test)]
                {
                    shared.queued.fetch_sub(1, Ordering::SeqCst);
                    shared.busy.fetch_add(1, Ordering::SeqCst);
                }
                // The engine folds the wait into the query's profile
                // (explain output, slowlog, stage histograms). A panic
                // on the solve path fails this request only: the worker
                // replies with an error and takes the next item. A
                // claim the run held is settled by its ticket's drop.
                let run = AssertUnwindSafe(|| {
                    #[cfg(test)]
                    assert!(
                        !shared.panic_next_run.swap(false, Ordering::SeqCst),
                        "injected solve-path panic"
                    );
                    shared.engine.run(work, waited)
                });
                let response = panic::catch_unwind(run).unwrap_or_else(|payload| {
                    error_response(format!("internal error: {}", panic_message(&*payload)))
                });
                m.gauge("ffmr_workers_busy", &[]).sub(1);
                #[cfg(test)]
                shared.busy.fetch_sub(1, Ordering::SeqCst);
                // A gone receiver just means the connection died.
                let _ = reply.send(response);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The message of a caught panic, if it carried one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic without a message")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::engine::EngineConfig;
    use crate::store::{one_way, CutTreeStatus, GraphStore};
    use swgraph::FlowNetwork;

    fn two_paths() -> FlowNetwork {
        FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)])
    }

    fn start(workers: usize, queue_depth: usize) -> ServerHandle {
        start_on(two_paths(), workers, queue_depth)
    }

    /// A server over `net`, returned once the store has settled its cut
    /// tree (built, or refused for one-way capacities).
    fn start_on(net: FlowNetwork, workers: usize, queue_depth: usize) -> ServerHandle {
        let store = Arc::new(GraphStore::new());
        store.insert_network("g", net);
        let snap = store.get("g").unwrap();
        let status = snap.await_cut_tree(Duration::from_secs(120));
        assert!(!matches!(status, CutTreeStatus::Building), "{status:?}");
        drop(snap);
        let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
        serve(
            "127.0.0.1:0",
            engine,
            &ServerConfig {
                workers,
                queue_depth,
            },
        )
        .unwrap()
    }

    #[test]
    fn ping_and_query_round_trip() {
        let server = start(2, 4);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let pong = client.request(&Message::new("ping")).unwrap();
        assert_eq!(pong.head, "ok");
        let r = client
            .request(
                &Message::new("maxflow")
                    .field("dataset", "g")
                    .field("source", 0)
                    .field("sink", 3),
            )
            .unwrap();
        assert_eq!(r.get("flow"), Some("2"), "{r:?}");
        server.shutdown();
    }

    #[test]
    fn cached_round_trips_do_not_wait_out_a_delayed_ack() {
        let server = start_on(one_way(&two_paths()), 2, 4);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let request = Message::new("maxflow")
            .field("dataset", "g")
            .field("source", 0)
            .field("sink", 3);
        client.request(&request).unwrap();
        let mut millis: Vec<f64> = (0..20)
            .map(|_| {
                let sent = std::time::Instant::now();
                let reply = client.request(&request).unwrap();
                assert_eq!(reply.get("cached"), Some("1"), "{reply:?}");
                sent.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        millis.sort_by(f64::total_cmp);
        // A reply split across two segments by Nagle's algorithm takes
        // the client's 40 ms delayed ACK every time.
        assert!(
            millis[10] < 10.0,
            "median round trip {} ms: {millis:?}",
            millis[10]
        );
        server.shutdown();
    }

    #[test]
    fn cache_hits_are_answered_while_the_queue_is_full() {
        let server = start_on(one_way(&two_paths()), 1, 1);
        let addr = server.local_addr();
        let query = |source: u64| {
            Message::new("maxflow")
                .field("dataset", "g")
                .field("source", source)
                .field("sink", 3)
        };
        // A super-terminal query resolves to its terminal sets on the
        // connection thread, so its hits are answered there too.
        let w = Message::new("maxflow").field("dataset", "g").field("w", 2);
        let mut client = Client::connect(addr).unwrap();
        let warm = client.request(&query(0)).unwrap();
        assert_eq!(warm.get("cached"), Some("0"), "{warm:?}");
        let warm_w = client.request(&w).unwrap();
        assert_eq!(warm_w.get("cached"), Some("0"), "{warm_w:?}");
        let (running, queued) = fill_the_queue(&server);

        let hit = client.request(&query(0)).unwrap();
        assert_eq!(hit.head, "ok", "{hit:?}");
        assert_eq!(hit.get("cached"), Some("1"));
        assert_eq!(hit.get("flow"), Some("2"));
        let hit_w = client.request(&w).unwrap();
        assert_eq!(hit_w.head, "ok", "{hit_w:?}");
        assert_eq!(hit_w.get("cached"), Some("1"), "{hit_w:?}");
        for field in ["flow", "sources", "sinks"] {
            assert_eq!(hit_w.get(field), warm_w.get(field), "{field}");
        }
        let miss = client.request(&query(1)).unwrap();
        assert_eq!(miss.head, "busy", "{miss:?}");
        // A hit on the connection thread still explains itself.
        let explained = client.request(&query(0).field("explain", 1)).unwrap();
        let profile = explained.get("profile").expect("explain profile");
        assert!(
            profile.contains("\"plan_reason\":\"cache-hit\""),
            "{profile}"
        );

        assert_eq!(running.join().unwrap().head, "ok");
        assert_eq!(queued.join().unwrap().head, "ok");
        server.shutdown();
    }

    /// Holds the single worker for 1.5 s, then fills the queue's one
    /// slot: until the first reply, a request that needs a worker is
    /// shed with `busy`. Each step waits on this server's own counts.
    fn fill_the_queue(server: &ServerHandle) -> (JoinHandle<Message>, JoinHandle<Message>) {
        let addr = server.local_addr();
        let hold = |ms: u64| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .request(&Message::new("sleep").field("ms", ms))
                    .unwrap()
            })
        };
        let wait_for = |what: &str, count: &AtomicUsize| {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while count.load(Ordering::SeqCst) < 1 {
                assert!(std::time::Instant::now() < deadline, "no {what} after 30 s");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let running = hold(1_500);
        wait_for("busy worker", &server.shared.busy);
        let queued = hold(10);
        wait_for("queued request", &server.shared.queued);
        (running, queued)
    }

    #[test]
    fn tree_answers_are_served_while_the_queue_is_full() {
        let server = start(1, 1);
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        let (running, queued) = fill_the_queue(&server);
        // Never asked before and never cached, yet answered: the walk
        // ran on the connection thread, not on the held worker.
        for source in [0, 1, 2] {
            let r = client
                .request(
                    &Message::new("maxflow")
                        .field("dataset", "g")
                        .field("source", source)
                        .field("sink", 3)
                        .field("explain", 1),
                )
                .unwrap();
            assert_eq!(r.head, "ok", "{r:?}");
            assert_eq!(
                (r.get("plan"), r.get("solver")),
                (Some("tree"), Some("tree"))
            );
            assert_eq!(r.get("cached"), Some("0"));
            assert_eq!(r.get("queue_wait_us"), Some("0"));
            let profile = r.get("profile").expect("explain profile");
            assert!(
                profile.contains("\"plan_reason\":\"cut-tree\""),
                "{profile}"
            );
        }
        // What the tree does not answer still needs the worker.
        let pinned = client
            .request(
                &Message::new("maxflow")
                    .field("dataset", "g")
                    .field("source", 0)
                    .field("sink", 3)
                    .field("algorithm", "dinic"),
            )
            .unwrap();
        assert_eq!(pinned.head, "busy", "{pinned:?}");
        assert_eq!(running.join().unwrap().head, "ok");
        assert_eq!(queued.join().unwrap().head, "ok");
        server.shutdown();
    }

    /// Request fields whose arithmetic used to overflow get a reply, and
    /// the one worker lives on to answer the next queued query.
    #[test]
    fn overflowing_request_fields_leave_the_worker_serving() {
        let server = start_on(one_way(&two_paths()), 1, 2);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let query = Message::new("maxflow")
            .field("dataset", "g")
            .field("source", 0)
            .field("sink", 3);
        // Its deadline in microseconds overflows a u64.
        let far = client
            .request(&query.clone().field("timeout-ms", 1u64 << 61))
            .unwrap();
        assert_eq!(far.head, "ok", "{far:?}");
        // `2 * w` overflows a usize.
        let huge_w = Message::new("maxflow")
            .field("dataset", "g")
            .field("w", 1u64 << 63);
        let r = client.request(&huge_w).unwrap();
        assert_eq!(r.head, "error", "{r:?}");
        assert!(r.get("message").unwrap().contains("need"), "{r:?}");
        // Past the cache, so the worker answers it.
        let r = client.request(&query.field("no-cache", 1)).unwrap();
        assert_eq!(r.head, "ok", "{r:?}");
        assert_eq!(r.get("flow"), Some("2"), "{r:?}");
        server.shutdown();
    }

    #[test]
    fn a_panicking_run_fails_its_request_and_the_worker_keeps_serving() {
        // One worker, and a one-way graph so no cut tree answers on the
        // connection thread: both queries reach that worker.
        let server = start_on(one_way(&two_paths()), 1, 2);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let query = Message::new("maxflow")
            .field("dataset", "g")
            .field("source", 0)
            .field("sink", 3)
            .field("no-cache", 1);
        server.shared.panic_next_run.store(true, Ordering::SeqCst);
        let r = client.request(&query).unwrap();
        assert_eq!(r.head, "error", "{r:?}");
        assert!(
            r.get("message")
                .unwrap()
                .contains("injected solve-path panic"),
            "{r:?}"
        );
        let r = client.request(&query).unwrap();
        assert_eq!(r.head, "ok", "the worker survived: {r:?}");
        assert_eq!(r.get("flow"), Some("2"), "{r:?}");
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_error_responses() {
        let server = start(1, 2);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let r = client.request(&Message::new("maxflow")).unwrap();
        assert_eq!(r.head, "error");
        server.shutdown();
    }

    #[test]
    fn split_frame_across_a_poll_tick_still_gets_its_reply() {
        use std::io::Write;
        let server = start(1, 2);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, &Message::new("ping").encode()).unwrap();
        // Two bytes of the length prefix, then silence for longer than
        // the connection loop's read timeout, then the rest: a sleep
        // that comes out too short only makes the test easier to pass.
        stream.write_all(&frame[..2]).unwrap();
        std::thread::sleep(3 * POLL_INTERVAL);
        stream.write_all(&frame[2..]).unwrap();
        let reply = crate::protocol::read_frame(&mut stream)
            .expect("the half-read prefix must not be lost")
            .expect("a reply, not EOF");
        assert_eq!(Message::decode(&reply).unwrap().head, "ok");
        server.shutdown();
    }

    #[test]
    fn remote_shutdown_unblocks_wait() {
        let server = start(1, 2);
        let addr = server.local_addr();
        let waiter = std::thread::spawn(move || server.wait());
        let mut client = Client::connect(addr).unwrap();
        let r = client.request(&Message::new("shutdown")).unwrap();
        assert_eq!(r.head, "ok");
        waiter.join().unwrap();
    }
}

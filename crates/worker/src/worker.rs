//! The worker-process main loop: ask the coordinator for a task, execute
//! it, report the result.
//!
//! A worker is deliberately stateless between dispatches — everything a
//! task needs arrives as the body of the `task-request` reply (job kind,
//! params and task spec) and everything it produces leaves as the body
//! of its `task-done`. The only cache is the reconstructed
//! [`TaskRunner`] of the last `(kind, params)`: within one round every
//! task shares the same job parameters, so the mapper/reducer is rebuilt
//! once per round, not once per task.
//!
//! Shutdown paths: the coordinator answers `task-request` with
//! `shutdown 1` (clean departure), or SIGINT/SIGTERM flips the
//! [`signals`] flag and the loop exits before its next
//! request. A worker the coordinator has declared dead gets an error
//! response and exits nonzero — by then its tasks have been
//! re-dispatched, and its reports for retired dispatch ids are ignored.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ffmr_service::{status, Client, Message};
use mapreduce::{MapTaskSpec, MrError, ReduceTaskSpec, TaskRunner};

use crate::proto::{self, verb};
use crate::registry::JobKindRegistry;
use crate::signals;

/// Interval between heartbeats, well under the coordinator's default
/// three-second heartbeat timeout.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(300);

/// Where a worker connects. Telemetry (metrics snapshots and captured
/// spans) always rides on `task-done` and a final flush.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
}

impl WorkerConfig {
    /// A config for `addr`.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into() }
    }
}

/// Sends `request` and insists on an `ok` response.
fn rpc(client: &mut Client, request: &Message) -> Result<Message, MrError> {
    let response = client
        .request(request)
        .map_err(|e| MrError::Wire(format!("{} request failed: {e}", request.head)))?;
    if response.head == status::OK {
        Ok(response)
    } else {
        Err(MrError::Wire(format!(
            "{} rejected: {}",
            request.head,
            response.get("message").unwrap_or(&response.head)
        )))
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// The runner built for the last `(kind, params)` this worker saw.
type RunnerCache = Option<(String, Vec<u8>, Box<dyn TaskRunner>)>;

/// Decodes and executes one dispatch from its task body, returning the
/// encoded result.
fn run_dispatch(
    registry: &JobKindRegistry,
    cache: &mut RunnerCache,
    dispatch: u64,
    phase: &str,
    body: &[u8],
) -> Result<Vec<u8>, MrError> {
    let (kind, params, spec) = proto::decode_task_body(body)
        .map_err(|e| MrError::Wire(format!("dispatch {dispatch} task body: {e}")))?;
    // A new round means new params: the previous round's runner is
    // replaced rather than kept alongside.
    if !matches!(cache, Some((k, p, _)) if k == kind && p == params) {
        *cache = Some((
            kind.to_string(),
            params.to_vec(),
            registry.build(kind, params)?,
        ));
    }
    let runner = &cache.as_ref().expect("filled above").2;
    let decode = |what: &str, e| MrError::Wire(format!("dispatch {dispatch} {what} spec: {e}"));
    // The task index a panic report names comes from the decoded spec.
    let (task, outcome) = match phase {
        "map" => {
            let spec = {
                let _s = ffmr_obs::span("worker.decode");
                MapTaskSpec::from_bytes(spec).map_err(|e| decode("map", e))?
            };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| runner.run_map(&spec)));
            (spec.task, outcome.map(|r| r.map(|res| res.to_bytes())))
        }
        "reduce" => {
            let spec = {
                let _s = ffmr_obs::span("worker.decode");
                ReduceTaskSpec::from_bytes(spec).map_err(|e| decode("reduce", e))?
            };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| runner.run_reduce(&spec)));
            (spec.task, outcome.map(|r| r.map(|res| res.to_bytes())))
        }
        other => {
            return Err(MrError::Wire(format!(
                "dispatch {dispatch} has unknown phase {other:?}"
            )))
        }
    };
    outcome.unwrap_or_else(|payload| {
        Err(MrError::TaskFailed {
            phase: if phase == "map" { "map" } else { "reduce" },
            task,
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Adds this worker's telemetry to `message` as repeated one-line
/// fields: the `ffmr_worker_*` metrics snapshot when `metrics` is set,
/// and every span line captured since the last shipment.
fn push_telemetry(message: &mut Message, metrics: bool, capture: Option<&ffmr_obs::VecSink>) {
    if metrics {
        let snapshot = ffmr_obs::global().encode_snapshot_prefixed("ffmr_worker_");
        for line in snapshot.lines() {
            message.push("metrics", line);
        }
    }
    for line in capture.map(ffmr_obs::VecSink::take).unwrap_or_default() {
        message.push("spans", line);
    }
}

/// Connects to the coordinator and serves tasks until told to shut
/// down (coordinator `shutdown 1` response or SIGINT/SIGTERM after
/// [`signals::install`]).
///
/// # Errors
/// [`MrError::Wire`] when the coordinator link breaks or rejects this
/// worker (e.g. it was declared dead after a heartbeat lapse).
pub fn run_worker(config: &WorkerConfig, registry: &JobKindRegistry) -> Result<(), MrError> {
    let mut client = Client::connect(&config.addr)
        .map_err(|e| MrError::Wire(format!("connect {}: {e}", config.addr)))?;
    let mut register = Message::new(verb::REGISTER);
    register.push("now-us", ffmr_obs::span::epoch_us());
    let resp = rpc(&mut client, &register)?;
    let worker_id: u64 = resp
        .get_parsed("worker")
        .ok()
        .flatten()
        .ok_or_else(|| MrError::Wire("register response carried no worker id".into()))?;
    // Partition the span-id space per worker so ids minted here never
    // collide with the driver's (or another worker's) when merged into
    // one trace file.
    ffmr_obs::span::seed_ids((worker_id + 1) << 40);

    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let stop = Arc::clone(&stop);
        let addr = config.addr.clone();
        std::thread::spawn(move || {
            let Ok(mut client) = Client::connect(&addr) else {
                return;
            };
            // Each beat carries this worker's clock, from which the
            // coordinator estimates a clock offset, and the measured
            // round trip of the *previous* beat.
            let mut last_rtt_us: Option<u64> = None;
            while !stop.load(Ordering::SeqCst) && !signals::requested() {
                let mut ping = Message::new(verb::HEARTBEAT);
                ping.push("worker", worker_id);
                ping.push("now-us", ffmr_obs::span::epoch_us());
                if let Some(rtt) = last_rtt_us {
                    ping.push("rtt-us", rtt);
                }
                let sent = Instant::now();
                match client.request(&ping) {
                    Ok(resp) if resp.head == status::OK => {
                        last_rtt_us =
                            Some(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                    }
                    _ => return,
                }
                // `run_worker` unparks this thread when it exits, so
                // teardown does not wait out the interval.
                std::thread::park_timeout(HEARTBEAT_INTERVAL);
            }
        })
    };

    let mut cache: RunnerCache = None;
    // Buffers this process's spans for shipment to the coordinator.
    // Installed lazily, only in a standalone worker process (never when
    // the worker shares its process — and span sink — with the driver).
    let mut span_capture: Option<Arc<ffmr_obs::VecSink>> = None;
    let mut last_metrics_ship: Option<Instant> = None;
    let result = loop {
        if signals::requested() {
            break Ok(());
        }
        let mut req = Message::new(verb::TASK_REQUEST);
        req.push("worker", worker_id);
        let resp = match rpc(&mut client, &req) {
            Ok(r) => r,
            Err(_) if signals::requested() => break Ok(()),
            Err(e) => break Err(e),
        };
        if resp.get("shutdown").is_some() {
            break Ok(());
        }
        // The coordinator already waited for work; ask again at once.
        if resp.get("none").is_some() {
            continue;
        }
        let (Ok(Some(dispatch)), Some(phase)) =
            (resp.get_parsed::<u64>("dispatch"), resp.get("phase"))
        else {
            break Err(MrError::Wire(
                "task-request response carried neither work nor idle/shutdown".into(),
            ));
        };
        let phase = phase.to_string();
        // Trace context from the driver: adopt its trace id and open
        // the task span as a child of the driver's dispatch span. The
        // capture sink is installed lazily, and only when this process
        // has no sink of its own (an in-process worker thread shares
        // the driver's sink — its spans land in the trace directly).
        let trace = resp.get_parsed::<u64>("trace").ok().flatten();
        let parent_span = resp.get_parsed::<u64>("span").ok().flatten();
        if trace.is_some() && span_capture.is_none() && !ffmr_obs::span::tracing_enabled() {
            let sink = Arc::new(ffmr_obs::VecSink::new());
            ffmr_obs::set_sink(Some(Arc::clone(&sink) as Arc<dyn ffmr_obs::LineSink>));
            span_capture = Some(sink);
        }
        if let Some(t) = trace {
            ffmr_obs::set_trace_id(t);
        }
        let started = Instant::now();
        let mut task_span = parent_span.map_or_else(
            || ffmr_obs::span(&format!("worker.{phase}")),
            |p| ffmr_obs::span_child_of(&format!("worker.{phase}"), p),
        );
        task_span.field("dispatch", dispatch);
        task_span.field("worker", worker_id);
        let outcome = run_dispatch(registry, &mut cache, dispatch, &phase, &resp.body);
        drop(task_span);
        let reg = ffmr_obs::global();
        let status_label = if outcome.is_ok() { "ok" } else { "err" };
        reg.counter(
            "ffmr_worker_dispatches_total",
            &[("phase", &phase), ("status", status_label)],
        )
        .inc();
        reg.histogram("ffmr_worker_task_us", &[])
            .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));

        let mut done = Message::new(verb::TASK_DONE);
        done.push("worker", worker_id);
        done.push("dispatch", dispatch);
        match outcome {
            Ok(result) => {
                done.push("status", "ok");
                done.body = result;
            }
            Err(task_err) => {
                done.push("status", "err");
                done.push("message", task_err.to_string());
            }
        }
        // Snapshots are cumulative, so shipping them less often loses
        // nothing: throttle to one per 100 ms so busy fleets don't pay
        // an encode+merge per task (the shutdown flush below delivers
        // whatever the throttle held back). Only the worker plane
        // ships: in-thread fleets share the driver's registry, and its
        // other series must not ride along with a worker label.
        let ship_metrics =
            last_metrics_ship.is_none_or(|t| t.elapsed() >= Duration::from_millis(100));
        if ship_metrics {
            last_metrics_ship = Some(Instant::now());
        }
        push_telemetry(&mut done, ship_metrics, span_capture.as_deref());
        if let Err(e) = rpc(&mut client, &done) {
            break Err(e);
        }
    };
    // Final telemetry flush so short-lived workers' last metric deltas
    // and spans reach the coordinator even with no task in flight.
    let mut flush = Message::new(verb::TELEMETRY);
    flush.push("worker", worker_id);
    push_telemetry(&mut flush, true, span_capture.as_deref());
    let _ = client.request(&flush);
    stop.store(true, Ordering::SeqCst);
    heartbeat.thread().unpark();
    let _ = heartbeat.join();
    result
}

//! The worker-process main loop: poll the coordinator for tasks, fetch
//! their bytes, execute, push results back.
//!
//! A worker is deliberately stateless between dispatches — everything a
//! task needs arrives as blobs (`task/<d>/job`, `task/<d>/spec`) and
//! everything it produces leaves as one (`task/<d>/result`). The only
//! cache is the reconstructed [`TaskRunner`], keyed by `(kind, params)`:
//! within one round every task shares the same job parameters, so the
//! mapper/reducer is rebuilt once per round, not once per task.
//!
//! Shutdown paths: the coordinator answers `task-request` with
//! `shutdown 1` (clean departure), or SIGINT/SIGTERM flips the
//! [`signals`] flag and the loop exits before its next
//! poll. A worker the coordinator has declared dead gets an error
//! response and exits nonzero — by then its tasks have been
//! re-dispatched, and its uploads for retired dispatch ids are ignored.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ffmr_service::{status, Client, Message};
use mapreduce::{MapTaskSpec, MrError, ReduceTaskSpec, TaskRunner};

use crate::b64;
use crate::proto::{self, verb, RAW_CHUNK_BYTES};
use crate::registry::JobKindRegistry;
use crate::signals;

/// Where a worker connects and how often it polls and heartbeats.
/// Telemetry (metrics snapshots and captured spans) always rides on
/// `task-done` and a final flush.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// Sleep between `task-request` polls when the queue is empty.
    pub poll_interval: Duration,
    /// Interval between heartbeats (keep well under the coordinator's
    /// heartbeat timeout).
    pub heartbeat_interval: Duration,
}

impl WorkerConfig {
    /// A config with default pacing for `addr`.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            poll_interval: Duration::from_millis(20),
            heartbeat_interval: Duration::from_millis(300),
        }
    }
}

/// What the worker measured about one dispatch, on its own clock.
#[derive(Debug, Default)]
struct DispatchMeasure {
    fetch_us: u64,
    push_us: u64,
    bytes_in: u64,
    bytes_out: u64,
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

/// Downloads a staged blob chunk by chunk.
fn fetch_blob(client: &mut Client, name: &str) -> Result<Vec<u8>, MrError> {
    let mut out = Vec::new();
    loop {
        let mut req = Message::new(verb::BLOB_GET);
        req.push("name", name);
        req.push("offset", out.len());
        let resp = rpc(client, &req)?;
        let chunk = b64::decode(resp.get("data").unwrap_or_default())
            .map_err(|e| MrError::Wire(format!("blob {name}: {e}")))?;
        let more = resp.get("more") == Some("1");
        if more && chunk.is_empty() {
            return Err(MrError::Wire(format!(
                "blob {name}: empty chunk with more data claimed"
            )));
        }
        out.extend_from_slice(&chunk);
        if !more {
            let len = resp
                .get_parsed::<usize>("len")
                .ok()
                .flatten()
                .unwrap_or(out.len());
            if out.len() != len {
                return Err(MrError::Wire(format!(
                    "blob {name}: got {} bytes, coordinator reported {len}",
                    out.len()
                )));
            }
            return Ok(out);
        }
    }
}

/// Uploads `bytes` as blob `name`, chunked under the frame cap.
fn push_blob(client: &mut Client, name: &str, bytes: &[u8]) -> Result<(), MrError> {
    let mut offset = 0;
    loop {
        let end = bytes.len().min(offset + RAW_CHUNK_BYTES);
        let last = end == bytes.len();
        let mut req = Message::new(verb::BLOB_PUT);
        req.push("name", name);
        req.push("offset", offset);
        req.push("data", b64::encode(&bytes[offset..end]));
        req.push("last", u8::from(last));
        rpc(client, &req)?;
        if last {
            return Ok(());
        }
        offset = end;
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

type RunnerCache = HashMap<(String, Vec<u8>), Arc<dyn TaskRunner>>;

/// Fetches, decodes and executes one dispatch, returning the encoded
/// result bytes to upload. Fetch timing and input bytes land in
/// `measure`; the caller accounts for the result upload.
fn run_dispatch(
    client: &mut Client,
    registry: &JobKindRegistry,
    cache: &mut RunnerCache,
    dispatch: u64,
    phase: &str,
    measure: &mut DispatchMeasure,
) -> Result<Vec<u8>, MrError> {
    let fetch_started = Instant::now();
    let job = {
        let _s = ffmr_obs::span("worker.blob.get");
        fetch_blob(client, &proto::job_blob(dispatch))?
    };
    let (kind, params) = proto::decode_job_blob(&job)
        .map_err(|e| MrError::Wire(format!("dispatch {dispatch} job blob: {e}")))?;
    let key = (kind.clone(), params.clone());
    let runner = if let Some(cached) = cache.get(&key) {
        Arc::clone(cached)
    } else {
        let built: Arc<dyn TaskRunner> = Arc::from(registry.build(&kind, &params)?);
        // A new round means new params; drop the previous round's
        // runner rather than accumulating one per round.
        cache.clear();
        cache.insert(key, Arc::clone(&built));
        built
    };
    let spec_bytes = {
        let _s = ffmr_obs::span("worker.blob.get");
        fetch_blob(client, &proto::spec_blob(dispatch))?
    };
    measure.fetch_us = u64::try_from(fetch_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    measure.bytes_in = (job.len() + spec_bytes.len()) as u64;
    let outcome = match phase {
        "map" => {
            let spec = MapTaskSpec::from_bytes(&spec_bytes)
                .map_err(|e| MrError::Wire(format!("dispatch {dispatch} map spec: {e}")))?;
            std::panic::catch_unwind(AssertUnwindSafe(|| runner.run_map(&spec)))
                .map(|r| r.map(|res| res.to_bytes()))
        }
        "reduce" => {
            let spec = ReduceTaskSpec::from_bytes(&spec_bytes)
                .map_err(|e| MrError::Wire(format!("dispatch {dispatch} reduce spec: {e}")))?;
            std::panic::catch_unwind(AssertUnwindSafe(|| runner.run_reduce(&spec)))
                .map(|r| r.map(|res| res.to_bytes()))
        }
        other => {
            return Err(MrError::Wire(format!(
                "dispatch {dispatch} has unknown phase {other:?}"
            )))
        }
    };
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(MrError::TaskFailed {
            phase: if phase == "map" { "map" } else { "reduce" },
            task: dispatch as usize,
            message: panic_message(payload.as_ref()),
        }),
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
        let interval = config.heartbeat_interval;
        std::thread::spawn(move || {
            let Ok(mut client) = Client::connect(&addr) else {
                return;
            };
            // Each beat carries this worker's clock and the measured
            // round trip of the *previous* beat, so the coordinator can
            // estimate a clock offset from the lowest-RTT sample.
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
                std::thread::sleep(interval);
            }
        })
    };

    let mut cache: RunnerCache = HashMap::new();
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
        if resp.get("none").is_some() {
            std::thread::sleep(config.poll_interval);
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
        let start_us = ffmr_obs::span::epoch_us();
        let mut measure = DispatchMeasure::default();
        let mut task_span = parent_span.map_or_else(
            || ffmr_obs::span(&format!("worker.{phase}")),
            |p| ffmr_obs::span_child_of(&format!("worker.{phase}"), p),
        );
        task_span.field("dispatch", dispatch);
        task_span.field("worker", worker_id);
        let outcome = run_dispatch(
            &mut client,
            registry,
            &mut cache,
            dispatch,
            &phase,
            &mut measure,
        );
        let outcome = match outcome {
            Ok(result_bytes) => {
                let push_started = Instant::now();
                let pushed = {
                    let _s = ffmr_obs::span("worker.blob.put");
                    push_blob(&mut client, &proto::result_blob(dispatch), &result_bytes)
                };
                if let Err(e) = pushed {
                    break Err(e);
                }
                measure.push_us =
                    u64::try_from(push_started.elapsed().as_micros()).unwrap_or(u64::MAX);
                measure.bytes_out = result_bytes.len() as u64;
                Ok(())
            }
            Err(task_err) => Err(task_err),
        };
        drop(task_span);
        let end_us = ffmr_obs::span::epoch_us();
        let reg = ffmr_obs::global();
        let status_label = if outcome.is_ok() { "ok" } else { "err" };
        reg.counter(
            "ffmr_worker_dispatches_total",
            &[("phase", &phase), ("status", status_label)],
        )
        .inc();
        reg.histogram("ffmr_worker_blob_fetch_us", &[])
            .record(measure.fetch_us);
        reg.histogram("ffmr_worker_blob_push_us", &[])
            .record(measure.push_us);
        reg.histogram("ffmr_worker_task_us", &[])
            .record(end_us.saturating_sub(start_us));

        let mut done = Message::new(verb::TASK_DONE);
        done.push("worker", worker_id);
        done.push("dispatch", dispatch);
        match &outcome {
            Ok(()) => done.push("status", "ok"),
            Err(task_err) => {
                done.push("status", "err");
                done.push("message", task_err.to_string());
            }
        }
        done.push("t-start-us", start_us);
        done.push("t-end-us", end_us);
        done.push("t-fetch-us", measure.fetch_us);
        done.push("t-push-us", measure.push_us);
        done.push("t-bytes-in", measure.bytes_in);
        done.push("t-bytes-out", measure.bytes_out);
        // Snapshots are cumulative, so shipping them less often loses
        // nothing: throttle to one per 100 ms so busy fleets don't pay
        // an encode+merge per task (the shutdown flush below delivers
        // whatever the throttle held back). Only the worker plane
        // ships: in-thread fleets share the driver's registry, and its
        // other series must not ride along with a worker label.
        if last_metrics_ship.is_none_or(|t| t.elapsed() >= Duration::from_millis(100)) {
            last_metrics_ship = Some(Instant::now());
            let snapshot = reg.encode_snapshot_prefixed("ffmr_worker_");
            done.push("metrics", b64::encode(snapshot.as_bytes()));
        }
        if let Some(capture) = &span_capture {
            let lines = capture.take();
            if !lines.is_empty() {
                done.push("spans", b64::encode(lines.join("\n").as_bytes()));
            }
        }
        if let Err(e) = rpc(&mut client, &done) {
            break Err(e);
        }
    };
    // Final telemetry flush so short-lived workers' last metric deltas
    // and spans reach the coordinator even with no task in flight.
    let mut flush = Message::new(verb::TELEMETRY);
    flush.push("worker", worker_id);
    let snapshot = ffmr_obs::global().encode_snapshot_prefixed("ffmr_worker_");
    flush.push("metrics", b64::encode(snapshot.as_bytes()));
    if let Some(capture) = &span_capture {
        let lines = capture.take();
        if !lines.is_empty() {
            flush.push("spans", b64::encode(lines.join("\n").as_bytes()));
        }
    }
    let _ = client.request(&flush);
    stop.store(true, Ordering::SeqCst);
    let _ = heartbeat.join();
    result
}

//! The two serve workloads, end to end: an `ffmr serve` daemon on an
//! ephemeral loopback port, driven by closed-loop connections that each
//! wait for a reply before sending the next request — the callers are
//! analysis scripts (`ffmr query`), not independent users.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ffmr_service::{Client, Message};
use swgraph::{Capacity, FlowNetwork};

use crate::child::{self, cpu_split, Guard};
use crate::inputs::{self, Graph, RequestStream};
use crate::report::Outcome;
use crate::spec::{ServeSpec, SERVE_SETUP_REPEATS, SERVE_WARMUP_SECONDS};
use crate::stats::{median, smooth_p50, smooth_p95};

pub const DATASET: &str = "fb4";
/// A request without a reply by now is a failed operation.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the daemon may take from spawn to its listening line, and
/// from the `shutdown` verb to its exit.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(30);
/// One answered request in this many is re-solved by the oracle…
const CHECK_ONE_IN: usize = 16;
/// …up to this many oracle solves per run (the stride widens beyond).
const CHECK_CAP: usize = 400;

/// A running `ffmr serve` child.
#[derive(Debug)]
pub struct Daemon {
    child: Guard,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `ffmr serve --listen 127.0.0.1:0 --graph fb4=<graph>
    /// --mr-threshold 1000000 --cache 4096` (all other flags default) and
    /// waits for its `ffmrd listening on ADDR` line: graph load and
    /// `CoreIndex` build are done by then. The daemon runs on the one
    /// CPU [`cpu_split`] gives it, and sizes its solver pool to that one.
    pub fn spawn(ffmr: &Path, graph: &Path) -> Result<Self, String> {
        let mut command = Command::new(ffmr);
        command
            .arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .arg("--graph")
            .arg(format!("{DATASET}={}", graph.display()))
            .args(["--mr-threshold", "1000000"])
            .args(["--cache", "4096"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some((daemon_cpu, _)) = cpu_split() {
            daemon_cpu.confine(&mut command);
        }
        let mut child = Guard(
            command
                .spawn()
                .map_err(|e| format!("cannot spawn ffmr serve: {e}"))?,
        );
        let stdout = child.0.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Keeps reading after the address is found so the daemon never
        // blocks on a full pipe; ends at the daemon's exit.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("ffmrd listening on ") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let addr = rx
            .recv_timeout(DAEMON_TIMEOUT)
            .map_err(|_| "ffmr serve did not print its listening line".to_string())?;
        Ok(Self {
            child,
            addr,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.0.id()
    }

    /// Sends the `shutdown` verb and waits for the process to exit; the
    /// guard kills it if it does not.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Client::connect(self.addr.as_str())
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                c.set_timeout(Some(REQUEST_TIMEOUT)).ok();
                c.request(&Message::new("shutdown"))
                    .map_err(|e| e.to_string())
            });
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        let exited = loop {
            match self.child.0.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => break Err("daemon ignored shutdown".to_string()),
                Err(e) => break Err(format!("cannot wait for the daemon: {e}")),
            }
        };
        drop(self.child); // kills a daemon that is still up
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        reply?;
        match exited? {
            status if status.success() => Ok(()),
            status => Err(format!("daemon exited with {status}")),
        }
    }
}

/// How the daemon answered one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Ok {
        flow: Capacity,
        cached: bool,
        coalesced: bool,
        queue_wait_us: u64,
        /// The `profile` field of an `explain` request.
        profile: Option<String>,
    },
    /// Shed by the daemon's bounded queue.
    Busy,
    /// Socket error, time-out, `error` reply or a reply without a flow.
    Failed(String),
}

#[derive(Debug, Clone)]
pub struct Sample {
    /// When the request was sent, since the load generator's start.
    pub sent: Duration,
    /// Send to decoded reply.
    pub latency: Duration,
    pub pair: (u64, u64),
    pub reply: Reply,
}

pub fn request_for((s, t): (u64, u64), explain: bool) -> Message {
    let mut request = Message::new("maxflow")
        .field("dataset", DATASET)
        .field("source", s)
        .field("sink", t);
    if explain {
        request.push("explain", 1);
    }
    request
}

pub fn reply_of(response: &Message) -> Reply {
    match response.head.as_str() {
        "ok" => match response.get_parsed::<Capacity>("flow") {
            Ok(Some(flow)) => Reply::Ok {
                flow,
                cached: response.get("cached") == Some("1"),
                coalesced: response.get("coalesced") == Some("1"),
                queue_wait_us: response
                    .get_parsed("queue_wait_us")
                    .ok()
                    .flatten()
                    .unwrap_or(0),
                profile: response.get("profile").map(str::to_string),
            },
            _ => Reply::Failed("ok reply without a flow".into()),
        },
        "busy" => Reply::Busy,
        other => Reply::Failed(format!(
            "{other}: {}",
            response.get("message").unwrap_or("")
        )),
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    client
        .set_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(client)
}

/// One closed-loop connection: sends `stream`'s requests back to back
/// until `length` has passed, and waits for the reply to the last. Its
/// thread keeps off the daemon's CPU.
fn client_loop(
    addr: &str,
    mut stream: RequestStream,
    epoch: Instant,
    length: Duration,
    explain: bool,
) -> Result<Vec<Sample>, String> {
    if let Some((_, client_cpus)) = cpu_split() {
        client_cpus.confine_this_thread();
    }
    let mut client = connect(addr)?;
    let mut samples = Vec::new();
    while epoch.elapsed() < length {
        let pair = stream.next_pair();
        let request = request_for(pair, explain);
        let sent = epoch.elapsed();
        let response = client.request(&request);
        let latency = epoch.elapsed() - sent;
        let reply = match response {
            Ok(response) => reply_of(&response),
            Err(e) => {
                // The stream may hold half a frame: start a fresh one.
                client = connect(addr)?;
                Reply::Failed(e.to_string())
            }
        };
        samples.push(Sample {
            sent,
            latency,
            pair,
            reply,
        });
    }
    Ok(samples)
}

/// Runs the workload's closed-loop connections for `length` and returns
/// their samples merged in send order.
pub fn drive(
    addr: &str,
    seed: u64,
    vertices: u64,
    spec: ServeSpec,
    fresh_from: u64,
    length: Duration,
    explain: bool,
) -> Result<Vec<Sample>, String> {
    let epoch = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|client| {
                let stream =
                    RequestStream::new(seed, vertices, spec.pool, fresh_from, client, spec.clients);
                scope.spawn(move || client_loop(addr, stream, epoch, length, explain))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for client in per_client {
        samples.extend(client?);
    }
    samples.sort_by_key(|s| s.sent);
    Ok(samples)
}

/// Queries every pool pair once, split over `clients` connections.
fn warm_pool(addr: &str, pool: &[(u64, u64)], clients: usize) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || -> Result<(), String> {
                    let mut conn = connect(addr)?;
                    for &pair in pool.iter().skip(client).step_by(clients) {
                        let response = conn
                            .request(&request_for(pair, false))
                            .map_err(|e| e.to_string())?;
                        if !matches!(reply_of(&response), Reply::Ok { .. }) {
                            return Err(format!("pool warm of {pair:?} got {response:?}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .unwrap_or_else(|_| Err("pool-warm thread panicked".into()))
        })
    })
}

/// What set-up leaves for the timed part.
#[derive(Debug)]
pub struct ServeInputs {
    pub net: FlowNetwork,
    pub graph_path: PathBuf,
    pub daemon: Daemon,
    pub generate: Duration,
}

/// Everything before the first request: FB' generation, the edge-list
/// write, the daemon's start and (for `serve-warm`) the pool warm.
pub fn set_up(
    ffmr: &Path,
    seed: u64,
    spec: ServeSpec,
    scratch: &Path,
) -> Result<ServeInputs, String> {
    let started = Instant::now();
    let net = inputs::generate(Graph::Fb4);
    let generate = started.elapsed();
    let graph_path = inputs::write_graph(&net, scratch, Graph::Fb4)?;
    let daemon = Daemon::spawn(ffmr, &graph_path)?;
    warm_pool(
        &daemon.addr,
        &RequestStream::pool_pairs(seed, net.num_vertices() as u64, spec.pool),
        spec.clients as usize,
    )?;
    Ok(ServeInputs {
        net,
        graph_path,
        daemon,
        generate,
    })
}

/// The samples sent at or after `from` (the warm-up's end). A
/// connection stops sending when the window closes but waits for its
/// last reply, so a request the daemon stalls on near the end still
/// counts, as slow or as failed.
pub fn sent_from(samples: &[Sample], from: Duration) -> Vec<&Sample> {
    samples.iter().filter(|s| s.sent >= from).collect()
}

/// Re-solves a deterministic sample of the answered requests with
/// sequential push-relabel; returns how many answers were checked and
/// how many were wrong.
pub fn check_answers(net: &FlowNetwork, window: &[&Sample]) -> (usize, usize) {
    let answered: Vec<((u64, u64), Capacity)> = window
        .iter()
        .filter_map(|s| match s.reply {
            Reply::Ok { flow, .. } => Some((s.pair, flow)),
            _ => None,
        })
        .collect();
    let stride = CHECK_ONE_IN.max(answered.len().div_ceil(CHECK_CAP));
    let mut solved: HashMap<(u64, u64), Capacity> = HashMap::new();
    let mut wrong = 0;
    let mut checked = 0;
    for &(pair, flow) in answered.iter().step_by(stride) {
        let truth = *solved
            .entry(pair)
            .or_insert_with(|| inputs::query_oracle(net, pair));
        checked += 1;
        if flow != truth {
            eprintln!("perf: daemon answered {flow} for {pair:?}, push-relabel says {truth}");
            wrong += 1;
        }
    }
    (checked, wrong)
}

/// Latencies in milliseconds, ascending; a request that failed or was
/// shed counts as slow as the time-out.
pub fn latencies_ms(window: &[&Sample]) -> Vec<f64> {
    let mut ms: Vec<f64> = window
        .iter()
        .map(|s| match s.reply {
            Reply::Ok { .. } => s.latency,
            _ => REQUEST_TIMEOUT,
        })
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

pub fn run_end_to_end(
    spec: ServeSpec,
    seed: u64,
    seconds: u64,
    ffmr: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SERVE_SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SERVE_SETUP_REPEATS {
        if let Some(ServeInputs { daemon, .. }) = inputs.take() {
            daemon.shutdown()?;
        }
        let started = Instant::now();
        inputs = Some(set_up(ffmr, seed, spec, scratch)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let ServeInputs { net, daemon, .. } = inputs.expect("SERVE_SETUP_REPEATS > 0");

    let warmup = Duration::from_secs(SERVE_WARMUP_SECONDS);
    let length = warmup + Duration::from_secs(seconds);
    let samples = drive(
        &daemon.addr,
        seed,
        net.num_vertices() as u64,
        spec,
        0,
        length,
        false,
    )?;
    let peak_rss_kib = child::proc_status_kib(daemon.pid(), "VmHWM");
    daemon.shutdown()?;

    let window = sent_from(&samples, warmup);
    if window.is_empty() {
        return Err("no request was sent inside the timed window".into());
    }
    let not_ok = window
        .iter()
        .filter(|s| !matches!(s.reply, Reply::Ok { .. }))
        .count();
    for s in window
        .iter()
        .filter(|s| matches!(s.reply, Reply::Failed(_)))
        .take(5)
    {
        eprintln!("perf: request {:?} failed: {:?}", s.pair, s.reply);
    }
    let (checked, wrong) = check_answers(&net, &window);
    let failed = not_ok + wrong;
    let ms = latencies_ms(&window);

    let mut out = Outcome::new(failed == 0, window.len() as u64, failed as u64);
    out.end_to_end("op_p50_ms", smooth_p50(&ms));
    out.end_to_end("op_p95_ms", smooth_p95(&ms));
    // The window ends with the last reply, not at the nominal length:
    // every request in it was sent before that, and was waited for.
    let last_reply = window.iter().map(|s| s.sent + s.latency).max();
    let window_s = (last_reply.expect("window is not empty") - warmup).as_secs_f64();
    out.end_to_end("ops_per_s", (window.len() - failed) as f64 / window_s);
    out.end_to_end("peak_rss_mb", peak_rss_kib.unwrap_or(0) as f64 / 1024.0);
    out.end_to_end("setup_s", median(&setups));
    out.note(format!(
        "{} requests sent in the {seconds} s window (last reply at {window_s:.3} s) over {} \
         closed-loop connections (after {SERVE_WARMUP_SECONDS} s of warm-up); {checked} answers re-solved by push-relabel, {wrong} wrong",
        window.len(),
        spec.clients
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(sent_ms: u64, latency_ms: u64, reply: Reply) -> Sample {
        Sample {
            sent: Duration::from_millis(sent_ms),
            latency: Duration::from_millis(latency_ms),
            pair: (0, 1),
            reply,
        }
    }

    #[test]
    fn a_request_answered_after_the_window_closes_still_counts() {
        let ok = Reply::Ok {
            flow: 1,
            cached: false,
            coalesced: false,
            queue_wait_us: 0,
            profile: None,
        };
        let samples = [
            sample(500, 40, ok.clone()), // warm-up
            sample(2_000, 40, ok.clone()),
            sample(21_990, 900, ok), // reply arrives after a 22 s window's end
            sample(21_995, 10_000, Reply::Failed("timed out".into())),
        ];
        let window = sent_from(&samples, Duration::from_secs(2));
        assert_eq!(window.len(), 3);
        assert_eq!(latencies_ms(&window), [40.0, 900.0, 10_000.0]);
    }
}

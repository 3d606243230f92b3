//! The traced run of a serve workload. Three views of the same request
//! stream: (1) an in-process `QueryEngine` with `explain`, for what the
//! engine costs without a socket and where its stages spend it; (2) the
//! real daemon over TCP with `explain` on and a span per request;
//! (3) the same with both off, for the tracing overhead and the wire
//! share. Then the solvers alone on the stream's first pairs, and the
//! frame codec alone on a typical request and reply.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ffmr_obs::QueryProfile;
use ffmr_service::engine::EngineConfig;
use ffmr_service::{read_frame, write_frame, GraphStore, Message, QueryEngine};
use maxflow::contraction::CoreIndex;
use maxflow::{Algorithm, Cancel};
use swgraph::{FlowNetwork, VertexId};

use crate::child::{self, CPU_TICKS_PER_SECOND};
use crate::inputs::{self, RequestStream};
use crate::report::Outcome;
use crate::serve::{self, Reply, Sample, DATASET};
use crate::spec::ServeSpec;
use crate::stats::percentile;
use crate::trace::{self, Recorder, SpanId};

/// Requests each of the in-process replay's threads executes.
const REPLAY_REQUESTS: usize = 500;
/// Length of each TCP window, after [`TCP_WARMUP`].
const TCP_WINDOW: Duration = Duration::from_secs(4);
const TCP_WARMUP: Duration = Duration::from_secs(1);
/// The second TCP window's fresh pairs start this far into the stream,
/// beyond anything the first could have sent.
const SECOND_WINDOW_FROM: u64 = 1 << 24;
/// Distinct pairs each solver is timed on.
const SOLVER_PAIRS: usize = 200;
const CODEC_ITERATIONS: u32 = 20_000;

/// An `explain` reply's profile, parsed.
fn profile_of(reply: &Reply) -> Option<QueryProfile> {
    match reply {
        Reply::Ok {
            profile: Some(line),
            ..
        } => QueryProfile::from_json(line).ok(),
        _ => None,
    }
}

/// Adds the engine's stage windows under `execute`, laid end to end
/// from `start_us` in pipeline order. The solve stage is the maxflow
/// crate's work, the rest the service crate's.
fn add_stage_spans(rec: &Recorder, op: u64, execute: SpanId, start_us: u64, p: &QueryProfile) {
    let mut at = start_us;
    for (stage, us) in p.stages() {
        let name = match stage {
            "solve" => "maxflow.solve".to_string(),
            other => format!("service.{other}"),
        };
        rec.add(&name, op, Some(execute), at, at + us);
        at += us;
    }
}

struct Replay {
    /// Ascending.
    execute_us: Vec<u64>,
    profiles: Vec<QueryProfile>,
    samples: Vec<Sample>,
}

/// Sends the workload's request stream to an in-process engine from
/// one thread per connection, `explain` on, a span tree per request.
fn replay_in_process(
    engine: &Arc<QueryEngine>,
    seed: u64,
    vertices: u64,
    spec: ServeSpec,
    rec: &Recorder,
) -> Replay {
    for pair in RequestStream::pool_pairs(seed, vertices, spec.pool) {
        let _ = engine.execute(&serve::request_for(pair, false));
    }
    let per_client: Vec<Vec<(Sample, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut stream =
                        RequestStream::new(seed, vertices, spec.pool, 0, client, spec.clients);
                    let epoch = Instant::now();
                    (0..REPLAY_REQUESTS)
                        .map(|i| {
                            let op = client * REPLAY_REQUESTS as u64 + i as u64;
                            let pair = stream.next_pair();
                            rec.time("perf.op", op, None, |root| {
                                let request = serve::request_for(pair, true);
                                let sent = epoch.elapsed();
                                let start_us = rec.now_us();
                                let (response, execute) =
                                    rec.time("service.execute", op, Some(root), |id| {
                                        (engine.execute(&request), id)
                                    });
                                let latency = epoch.elapsed() - sent;
                                let reply = serve::reply_of(&response);
                                if let Some(p) = profile_of(&reply) {
                                    add_stage_spans(rec, op, execute, start_us, &p);
                                }
                                let sample = Sample {
                                    sent,
                                    latency,
                                    pair,
                                    reply,
                                };
                                (sample, latency.as_micros() as u64)
                            })
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut replay = Replay {
        execute_us: Vec::new(),
        profiles: Vec::new(),
        samples: Vec::new(),
    };
    for (sample, us) in per_client.into_iter().flatten() {
        replay.profiles.extend(profile_of(&sample.reply));
        replay.execute_us.push(us);
        replay.samples.push(sample);
    }
    replay.execute_us.sort_unstable();
    replay
}

/// Adds a `perf.op` → `service.request` → `service.execute` → stages
/// tree for every sample of a TCP window. The daemon's clock is not the
/// client's: its total is centred in the client's window, the halves
/// around it being the wire.
fn add_request_spans(rec: &Recorder, base_op: u64, base_us: u64, window: &[&Sample]) {
    for (i, s) in window.iter().enumerate() {
        let op = base_op + i as u64;
        let start = base_us + s.sent.as_micros() as u64;
        let end = start + s.latency.as_micros() as u64;
        let root = rec.add("perf.op", op, None, start, end);
        let request = rec.add("service.request", op, Some(root), start, end);
        if let Some(p) = profile_of(&s.reply) {
            let total = p.total_us.min(end - start);
            let at = start + (end - start - total) / 2;
            let execute = rec.add("service.execute", op, Some(request), at, at + total);
            add_stage_spans(rec, op, execute, at, &p);
        }
    }
}

fn p50_us(window: &[&Sample]) -> f64 {
    let mut us: Vec<f64> = window
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e6)
        .collect();
    us.sort_by(f64::total_cmp);
    percentile(&us, 50.0)
}

/// The first [`SOLVER_PAIRS`] distinct pairs the workload requests.
fn solver_pairs(seed: u64, vertices: u64, spec: ServeSpec) -> Vec<(u64, u64)> {
    let mut stream = RequestStream::new(seed, vertices, spec.pool, 0, 0, spec.clients);
    let mut pairs = Vec::new();
    while pairs.len() < SOLVER_PAIRS {
        let pair = stream.next_pair();
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    pairs
}

/// Median `Algorithm::run` time on `pairs`, in microseconds.
fn solve_us_p50(net: &FlowNetwork, algorithm: Algorithm, pairs: &[(u64, u64)]) -> f64 {
    let mut us: Vec<f64> = pairs
        .iter()
        .map(|&(s, t)| {
            let started = Instant::now();
            std::hint::black_box(algorithm.run(net, VertexId::new(s), VertexId::new(t)));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    percentile(&us, 50.0)
}

/// Nanoseconds to encode, frame, unframe and decode one typical request
/// and one typical reply on an in-memory buffer.
fn codec_ns() -> Result<f64, String> {
    let request = serve::request_for((17, 2_345), false);
    let reply = Message::new("ok")
        .field("dataset", DATASET)
        .field("epoch", 1)
        .field("flow", 23)
        .field("solver", "parallel-pr")
        .field("plan", "core")
        .field("cached", 0)
        .field("resumed", 0)
        .field("coalesced", 0)
        .field("queue_wait_us", 12);
    let mut buffer = Vec::with_capacity(512);
    let started = Instant::now();
    for _ in 0..CODEC_ITERATIONS {
        for message in [&request, &reply] {
            buffer.clear();
            write_frame(&mut buffer, &message.encode()).map_err(|e| e.to_string())?;
            let payload = read_frame(&mut buffer.as_slice())
                .map_err(|e| e.to_string())?
                .ok_or("empty frame")?;
            std::hint::black_box(Message::decode(&payload)?);
        }
    }
    Ok(started.elapsed().as_secs_f64() * 1e9 / f64::from(CODEC_ITERATIONS))
}

pub fn trace_serve(
    workload: &str,
    spec: ServeSpec,
    seed: u64,
    ffmr: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let serve::ServeInputs {
        net,
        graph_path,
        daemon,
        generate,
    } = serve::set_up(ffmr, seed, spec, scratch)?;
    let vertices = net.num_vertices() as u64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("swgraph.generate_s", generate.as_secs_f64());
    m.insert("swgraph.edge_pairs", net.num_edge_pairs() as f64);

    // What the daemon does before it listens, call by call.
    let started = Instant::now();
    let parsed = inputs::read_graph(&graph_path)?;
    m.insert("swgraph.parse_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let core = CoreIndex::build(&parsed);
    m.insert("maxflow.core_build_s", started.elapsed().as_secs_f64());
    m.insert("maxflow.core_vertices", core.core_vertex_count() as f64);
    m.insert(
        "maxflow.periphery_vertices",
        core.periphery_vertex_count() as f64,
    );

    // (1) The engine without a socket, configured as the daemon's flags do.
    let rec = Recorder::new();
    let store = Arc::new(GraphStore::new());
    store.insert_network(DATASET, parsed);
    let engine = Arc::new(QueryEngine::new(
        store,
        EngineConfig {
            mr_threshold_vertices: 1_000_000,
            cache_capacity: 4096,
            // The daemon sees one CPU (`child::cpu_split`).
            worker_threads: child::cpu_split().map(|_| 1),
            ..EngineConfig::default()
        },
    ));
    let replay = replay_in_process(&engine, seed, vertices, spec, &rec);
    drop(engine);
    let stage_p50 = |pick: fn(&QueryProfile) -> u64| -> f64 {
        let mut us: Vec<u64> = replay.profiles.iter().map(pick).collect();
        us.sort_unstable();
        us.first().map_or(0.0, |_| percentile(&us, 50.0) as f64)
    };
    let share = |hit: fn(&QueryProfile) -> bool| -> f64 {
        replay.profiles.iter().filter(|p| hit(p)).count() as f64
            / replay.profiles.len().max(1) as f64
    };
    let plans = |plan: &str| replay.profiles.iter().filter(|p| p.plan == plan).count() as f64;
    let execute_p50 = percentile(&replay.execute_us, 50.0) as f64;
    m.insert("service.execute_us_p50", execute_p50);
    m.insert(
        "service.execute_us_p95",
        percentile(&replay.execute_us, 95.0) as f64,
    );
    m.insert("service.stage_us_p50.resolve", stage_p50(|p| p.resolve_us));
    m.insert("service.stage_us_p50.plan", stage_p50(|p| p.plan_us));
    m.insert("service.stage_us_p50.solve", stage_p50(|p| p.solve_us));
    m.insert(
        "service.stage_us_p50.cache_update",
        stage_p50(|p| p.cache_update_us),
    );
    m.insert("service.cache_hit_ratio", share(|p| p.cache == "hit"));
    m.insert("service.coalesced_ratio", share(|p| p.coalesced));
    m.insert("service.plan_direct", plans("direct"));
    m.insert("service.plan_core", plans("core"));
    m.insert("service.plan_full", plans("full"));

    // (2) The daemon over TCP, explain on, a span tree per request.
    let length = TCP_WARMUP + TCP_WINDOW;
    let cpu_before = child::proc_cpu_ticks(daemon.pid());
    let tcp_base_us = rec.now_us();
    let window_started = Instant::now();
    let traced = serve::drive(&daemon.addr, seed, vertices, spec, 0, length, true)?;
    let window_s = window_started.elapsed().as_secs_f64();
    let cpu_after = child::proc_cpu_ticks(daemon.pid());
    // (3) The same with explain and spans off, on pairs (2) never sent.
    let untraced = serve::drive(
        &daemon.addr,
        seed,
        vertices,
        spec,
        SECOND_WINDOW_FROM,
        length,
        false,
    )?;
    daemon.shutdown()?;
    let traced_window = serve::sent_from(&traced, TCP_WARMUP);
    let untraced_window = serve::sent_from(&untraced, TCP_WARMUP);
    if traced_window.is_empty() || untraced_window.is_empty() {
        return Err("a TCP window sent no request".into());
    }
    add_request_spans(&rec, 1 << 32, tcp_base_us, &traced_window);
    let mut queue_wait: Vec<u64> = traced_window
        .iter()
        .filter_map(|s| match s.reply {
            Reply::Ok { queue_wait_us, .. } => Some(queue_wait_us),
            _ => None,
        })
        .collect();
    queue_wait.sort_unstable();
    m.insert(
        "service.wire_us_p50",
        p50_us(&untraced_window) - execute_p50,
    );
    m.insert(
        "service.queue_wait_us_p95",
        queue_wait
            .first()
            .map_or(0.0, |_| percentile(&queue_wait, 95.0) as f64),
    );
    let tcp_samples = || traced_window.iter().chain(&untraced_window);
    m.insert(
        "service.shed",
        tcp_samples().filter(|s| s.reply == Reply::Busy).count() as f64,
    );
    if let (Some(before), Some(after)) = (cpu_before, cpu_after) {
        m.insert(
            "service.server_cpu_util",
            (after - before) as f64 / CPU_TICKS_PER_SECOND / window_s,
        );
    }
    m.insert("service.codec_ns", codec_ns()?);

    // The solvers alone, on the pairs the workload asks about first.
    let pairs = solver_pairs(seed, vertices, spec);
    for (metric, algorithm) in [
        (
            "maxflow.solve_us_p50.parallel-pr",
            Algorithm::ParallelPushRelabel,
        ),
        ("maxflow.solve_us_p50.push-relabel", Algorithm::PushRelabel),
        ("maxflow.solve_us_p50.dinic", Algorithm::Dinic),
    ] {
        m.insert(metric, solve_us_p50(&net, algorithm, &pairs));
    }
    let mut work = [0u64; 3];
    for &(s, t) in &pairs {
        let (_, report) = Algorithm::ParallelPushRelabel
            .run_with_report(&net, VertexId::new(s), VertexId::new(t), &Cancel::never())
            .expect("never-cancel solve cannot fail");
        work[0] += report.pushes;
        work[1] += report.relabels;
        work[2] += report.global_relabels;
    }
    let per_solve = |total: u64| total as f64 / pairs.len() as f64;
    m.insert("maxflow.pushes_per_solve", per_solve(work[0]));
    m.insert("maxflow.relabels_per_solve", per_solve(work[1]));
    m.insert("maxflow.global_relabels_per_solve", per_solve(work[2]));

    m.insert(
        "obs.trace_overhead_pct",
        (p50_us(&traced_window) - p50_us(&untraced_window)) / p50_us(&untraced_window) * 100.0,
    );
    let spans = rec.into_spans();
    let span_note = trace::save(scratch, workload, &spans)?;
    m.insert("obs.unattributed_pct", trace::unattributed_pct(&spans));

    // A sample of every answer, in-process and over TCP, goes to the oracle.
    let all: Vec<&Sample> = replay
        .samples
        .iter()
        .chain(tcp_samples().copied())
        .collect();
    let (checked, wrong) = serve::check_answers(&net, &all);
    let not_ok = all
        .iter()
        .filter(|s| !matches!(s.reply, Reply::Ok { .. }))
        .count();
    let failed = not_ok + wrong;
    let mut out = Outcome::new(failed == 0, all.len() as u64, failed as u64);
    out.per_layer(&m);
    out.note(span_note);
    out.note(format!(
        "{} in-process requests, {} + {} over TCP (explain on + off); p50 over TCP {:.0} us traced, {:.0} us untraced; \
         {checked} answers re-solved by push-relabel, {wrong} wrong; exact: service.plan_*, service.cache_hit_ratio, \
         maxflow.{{pushes,relabels,global_relabels}}_per_solve, maxflow.{{core,periphery}}_vertices",
        replay.samples.len(),
        traced_window.len(),
        untraced_window.len(),
        p50_us(&traced_window),
        p50_us(&untraced_window),
    ));
    Ok(out)
}

//! The traced run of a job workload: the same public calls `ffmr
//! maxflow` makes, in-process, with the benchmark's spans around them.
//!
//! Passes: (B) the workload's thread or worker count with spans on;
//! (C) the same with spans off, once before and once after (B), so that
//! warm-up and drift cancel in the tracing overhead; (D) the same job
//! without the dispatch plane, or on two threads; (E) MR-BFS, the
//! paper's lower bound; (F) two real CLI jobs, for what the process
//! adds. Counts come from a pass on one worker thread of this process,
//! where they repeat exactly. Round and MR-job windows inside
//! `run_max_flow` come from clocks the program already exposes: the
//! `on_round` hook, the `ffmr_mr_job_wall_us` histogram and the task
//! events of the job history.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ffmr_core::{run_max_flow, FfConfig, FfVariant, RoundStats};
use ffmr_obs::{MetricValue, RoundProfile};
use ffmr_worker::{Coordinator, CoordinatorConfig, JobKindRegistry, WorkerConfig};
use mapreduce::{ClusterConfig, FailurePolicy, MrRuntime, TaskExecutor};
use swgraph::Capacity;

use crate::child;
use crate::inputs::{self, SUPER_MIN_DEGREE, SUPER_SEED, SUPER_W};
use crate::jobs;
use crate::report::Outcome;
use crate::spec::{JobSpec, DIST_WORKERS, JOB_THREADS};
use crate::stats::median;
use crate::trace::{self, Recorder, SpanId};

/// `ffmr maxflow`'s defaults for `--nodes` and `--reducers`.
const CLUSTER_NODES: usize = 20;
const REDUCERS: usize = 8;
/// CLI jobs timed for `cli.process_overhead_s`.
const CLI_JOBS: usize = 2;

/// Counters and histogram sums of the process-wide registry by series
/// name (`name`, `name{label="v"}`, and `name.sum` for histograms).
fn registry_totals() -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for (series, value) in ffmr_obs::global().snapshot() {
        match value {
            MetricValue::Counter(v) => {
                totals.insert(series, v);
            }
            MetricValue::Histogram(h) => {
                totals.insert(format!("{series}.sum"), h.sum);
            }
            MetricValue::Gauge(_) => {}
        }
    }
    totals
}

/// What the registry gained between two readings.
fn gained(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// The clocks read at one `on_round` call.
#[derive(Debug, Clone)]
struct RoundMark {
    at_us: u64,
    /// Running sum of `ffmr_mr_job_wall_us`.
    mr_job_wall_us: u64,
}

fn mr_job_wall_sum_us() -> u64 {
    ffmr_obs::global()
        .histogram("ffmr_mr_job_wall_us", &[])
        .summary()
        .sum
}

fn variant_of(algorithm: &str) -> FfVariant {
    match algorithm {
        "ff1" => FfVariant::ff1(),
        "ff5" => FfVariant::ff5(),
        other => panic!("no job workload runs {other}"),
    }
}

/// One in-process run of the CLI's pipeline.
struct Pass {
    flow: Capacity,
    edge_pairs: usize,
    parse_s: f64,
    super_st_s: f64,
    run_s: f64,
    rounds: Vec<RoundStats>,
    sim_s: f64,
    /// What the registry gained across `run_max_flow`.
    gained: BTreeMap<String, u64>,
    /// The job history `run_max_flow` left in the DFS.
    profiles: Vec<RoundProfile>,
}

impl Pass {
    fn total_s(&self) -> f64 {
        self.parse_s + self.super_st_s + self.run_s
    }

    fn gain(&self, series: &str) -> f64 {
        self.gained.get(series).copied().unwrap_or(0) as f64
    }
}

/// Runs `read_edge_list` → `attach_super_terminals` → `run_max_flow` as
/// `ffmr maxflow --w 64 --algorithm A` does. With a recorder the calls
/// are wrapped in spans under a `perf.job` root and `on_round` marks
/// the round boundaries.
fn pipeline(
    input: &Path,
    variant: FfVariant,
    threads: Option<usize>,
    executor: Option<Arc<dyn TaskExecutor>>,
    rec: Option<(&Recorder, u64)>,
) -> Result<Pass, String> {
    // The CLI turns the flight recorder on for every FF run.
    ffmr_obs::events::recorder().set_enabled(true);
    let traced = rec.is_some();
    let quiet = Recorder::new();
    let (rec, op) = rec.unwrap_or((&quiet, 0));

    rec.time("perf.job", op, None, |root| {
        let started = Instant::now();
        let base = rec.time("swgraph.parse", op, Some(root), |_| {
            inputs::read_graph(input)
        })?;
        let parse_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let st = rec.time("swgraph.super_st", op, Some(root), |_| {
            swgraph::super_st::attach_super_terminals(&base, SUPER_W, SUPER_MIN_DEGREE, SUPER_SEED)
                .map_err(|e| e.to_string())
        })?;
        let super_st_s = started.elapsed().as_secs_f64();

        let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(CLUSTER_NODES));
        rt.set_worker_threads(threads);
        if let Some(executor) = executor {
            rt.set_task_executor(Some(executor));
            rt.set_failure_policy(FailurePolicy::hadoop_default());
        }
        let marks: Arc<Mutex<Vec<RoundMark>>> = Arc::default();
        let mut config = FfConfig::new(st.source, st.sink)
            .variant(variant)
            .reducers(REDUCERS);
        if traced {
            let marks = Arc::clone(&marks);
            let epoch = Instant::now();
            let offset_us = rec.now_us();
            config = config.on_round(move |_| {
                marks.lock().expect("marks poisoned").push(RoundMark {
                    at_us: offset_us + epoch.elapsed().as_micros() as u64,
                    mr_job_wall_us: mr_job_wall_sum_us(),
                });
            });
        }

        let before = registry_totals();
        let mr_before = mr_job_wall_sum_us();
        let started = Instant::now();
        let (run, run_span, run_start_us) = rec
            .time("core.run", op, Some(root), |id| {
                let start_us = rec.now_us();
                run_max_flow(&mut rt, &st.network, &config).map(|run| (run, id, start_us))
            })
            .map_err(|e| e.to_string())?;
        let run_s = started.elapsed().as_secs_f64();
        let gained = gained(&before, &registry_totals());

        let history = rt
            .dfs()
            .read_blob(&ffmr_core::history_path(&config.base_path))
            .map_err(|e| format!("no job history: {e}"))?;
        let profiles = String::from_utf8_lossy(history)
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(RoundProfile::from_json)
            .collect::<Result<Vec<_>, _>>()?;

        if traced {
            let marks = marks.lock().expect("marks poisoned");
            add_round_spans(
                rec,
                op,
                run_span,
                run_start_us,
                mr_before,
                &marks,
                &profiles,
            );
        }
        Ok(Pass {
            flow: run.max_flow_value,
            edge_pairs: base.num_edge_pairs(),
            parse_s,
            super_st_s,
            run_s,
            sim_s: run.total_sim_seconds,
            rounds: run.rounds,
            gained,
            profiles,
        })
    })
}

/// Adds, under the `core.run` span, one `core.round` span per `on_round`
/// mark; under it the round's MR job (as long as `ffmr_mr_job_wall_us`
/// grew, ending where the hook fired, which is right after the job);
/// and under that the job's task attempts and worker dispatches at
/// their recorded offsets from the job's start.
fn add_round_spans(
    rec: &Recorder,
    op: u64,
    run_span: SpanId,
    run_start_us: u64,
    mr_before: u64,
    marks: &[RoundMark],
    profiles: &[RoundProfile],
) {
    let mut round_start = run_start_us;
    let mut mr_sum = mr_before;
    for (i, mark) in marks.iter().enumerate() {
        let round = rec.add("core.round", op, Some(run_span), round_start, mark.at_us);
        let job_us = (mark.mr_job_wall_us - mr_sum).min(mark.at_us - round_start);
        let job_start = mark.at_us - job_us;
        let job = rec.add("mapreduce.job", op, Some(round), job_start, mark.at_us);
        if let Some(profile) = profiles.get(i) {
            for e in &profile.events {
                rec.add(
                    &format!("mapreduce.{}", e.phase),
                    op,
                    Some(job),
                    job_start + e.wall_start_us,
                    job_start + e.wall_end_us,
                );
            }
            for d in &profile.dispatches {
                rec.add(
                    "worker.dispatch",
                    op,
                    Some(job),
                    job_start + d.queued_us,
                    job_start + d.done_us,
                );
            }
        }
        round_start = mark.at_us;
        mr_sum = mark.mr_job_wall_us;
    }
}

/// A coordinator plus `DIST_WORKERS` worker threads of this process
/// speaking the real dispatch protocol over localhost TCP (as
/// `benches/dist_workers.rs` does): every byte crosses the socket, only
/// the separate address spaces of `ffmr worker` processes are absent.
struct Fleet {
    coordinator: Option<Coordinator>,
    workers: Vec<JoinHandle<()>>,
}

impl Fleet {
    fn start() -> Result<Self, String> {
        let coordinator = Coordinator::start(CoordinatorConfig::default())
            .map_err(|e| format!("cannot start coordinator: {e}"))?;
        let addr = coordinator.local_addr().to_string();
        let workers = (0..DIST_WORKERS)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut registry = JobKindRegistry::new();
                    registry.register(ffmr_core::FF_JOB_KIND, ffmr_core::ff_task_runner);
                    if let Err(e) = ffmr_worker::run_worker(&WorkerConfig::new(addr), &registry) {
                        eprintln!("perf: worker thread ended: {e}");
                    }
                })
            })
            .collect();
        let fleet = Self {
            coordinator: Some(coordinator),
            workers,
        };
        if !fleet
            .coordinator()
            .wait_for_workers(DIST_WORKERS, Duration::from_secs(10))
        {
            return Err("worker threads did not register within 10 s".into());
        }
        Ok(fleet)
    }

    fn coordinator(&self) -> &Coordinator {
        self.coordinator.as_ref().expect("fleet is running")
    }

    fn executor(&self) -> Arc<dyn TaskExecutor> {
        self.coordinator().executor()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(coordinator) = self.coordinator.take() {
            coordinator.shutdown();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Σ of the task events' wall windows of one phase, in seconds.
fn phase_busy_s(profiles: &[RoundProfile], phase: &str) -> f64 {
    profiles
        .iter()
        .flat_map(|p| &p.events)
        .filter(|e| e.phase == phase)
        .map(|e| e.wall_end_us.saturating_sub(e.wall_start_us) as f64 / 1e6)
        .sum()
}

pub fn trace_job(
    workload: &str,
    spec: &JobSpec,
    ffmr: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let inputs = jobs::set_up(spec.graph, scratch)?;
    let variant = variant_of(spec.algorithm);

    // (C), (B), (C): the workload's own executor and thread count (the
    // CLI leaves the dispatch concurrency of `--workers` at its default),
    // spans off, on, off.
    let fleet = if spec.distributed {
        Some(Fleet::start()?)
    } else {
        None
    };
    let threads = (!spec.distributed).then_some(JOB_THREADS);
    let executor = || fleet.as_ref().map(Fleet::executor);
    let rec = Recorder::new();
    // The first MR work of this process (`main` gives every workload a
    // process of its own), so the cumulative merge fan-in histogram is
    // this pass's alone.
    let before = pipeline(&inputs.input, variant, threads, executor(), None)?;
    let merge_fanin_p50 = ffmr_obs::global()
        .histogram("ffmr_mr_merge_fanin", &[])
        .summary()
        .p50;
    let traced = pipeline(&inputs.input, variant, threads, executor(), Some((&rec, 1)))?;
    let after = pipeline(&inputs.input, variant, threads, executor(), None)?;
    let mut flows = vec![before.flow, traced.flow, after.flow];
    let untraced_s = (before.total_s() + after.total_s()) / 2.0;
    let deaths = fleet
        .as_ref()
        .map_or(0, |f| f.coordinator().worker_deaths());
    drop(fleet);
    // The same job the other way: without the dispatch plane for the
    // distributed workload (the plane's factor), on two threads for the
    // in-process ones (what a second core buys, rounds varying run to run).
    let other = pipeline(
        &inputs.input,
        variant,
        Some(if spec.distributed { JOB_THREADS } else { 2 }),
        None,
        None,
    )?;
    flows.push(other.flow);
    // On one worker thread in this process, service calls happen in one
    // order and the counts repeat exactly.
    let exact = if spec.distributed { &other } else { &before };

    // (E) MR-BFS from the super source on the same network and cluster.
    let st = swgraph::super_st::attach_super_terminals(
        &inputs.net,
        SUPER_W,
        SUPER_MIN_DEGREE,
        SUPER_SEED,
    )
    .map_err(|e| e.to_string())?;
    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(CLUSTER_NODES));
    rt.set_worker_threads(Some(JOB_THREADS));
    let started = Instant::now();
    ffmr_core::mr_bfs::run_bfs(&mut rt, &st.network, st.source, "bfs", REDUCERS)
        .map_err(|e| format!("MR-BFS failed: {e}"))?;
    let bfs_s = started.elapsed().as_secs_f64();

    // (F) The real thing, for what process start, output and teardown add.
    let mut cli_walls = Vec::new();
    let mut cli_failed = 0;
    for _ in 0..CLI_JOBS {
        let run = child::run_job(&mut jobs::command(ffmr, spec, &inputs.input), scratch)?;
        if !jobs::job_is_correct(&run, inputs.oracle) {
            eprintln!("perf: CLI job failed:\n{}{}", run.stdout, run.stderr);
            cli_failed += 1;
        }
        cli_walls.push(run.wall.as_secs_f64());
    }

    let spans = rec.into_spans();
    let span_note = trace::save(scratch, workload, &spans)?;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("swgraph.generate_s", inputs.generate.as_secs_f64());
    m.insert("swgraph.parse_s", traced.parse_s);
    m.insert("swgraph.super_st_s", traced.super_st_s);
    m.insert("swgraph.edge_pairs", traced.edge_pairs as f64);

    let flow_rounds = &exact.rounds[1..];
    let mr_job_wall_s = traced.gain("ffmr_mr_job_wall_us.sum") / 1e6;
    m.insert("core.run_s", traced.run_s);
    m.insert("core.round0_s", traced.rounds[0].wall_seconds);
    m.insert("core.rounds", flow_rounds.len() as f64);
    m.insert(
        "core.round_wall_max_s",
        traced.rounds[1..]
            .iter()
            .map(|r| r.wall_seconds)
            .fold(0.0, f64::max),
    );
    m.insert(
        "core.a_paths",
        flow_rounds.iter().map(|r| r.a_paths).sum::<u64>() as f64,
    );
    m.insert(
        "core.aug_max_queue",
        flow_rounds.iter().map(|r| r.max_queue).max().unwrap_or(0) as f64,
    );
    m.insert("core.driver_self_s", traced.run_s - mr_job_wall_s);
    m.insert(
        "core.checkpoint_s",
        traced.gain("ffmr_ff_checkpoint_us.sum") / 1e6,
    );
    m.insert(
        "core.checkpoint_bytes",
        exact.gain("ffmr_ff_checkpoint_bytes_total"),
    );
    m.insert("core.bfs_s", bfs_s);
    let in_process_run_s = if spec.distributed {
        other.run_s
    } else {
        traced.run_s
    };
    m.insert("core.ff_over_bfs", in_process_run_s / bfs_s);

    m.insert("mapreduce.job_wall_s", mr_job_wall_s);
    m.insert(
        "mapreduce.map_busy_s",
        phase_busy_s(&traced.profiles, "map"),
    );
    m.insert(
        "mapreduce.shuffle_busy_s",
        phase_busy_s(&traced.profiles, "shuffle"),
    );
    m.insert(
        "mapreduce.reduce_busy_s",
        phase_busy_s(&traced.profiles, "reduce"),
    );
    for (metric, series) in [
        (
            "mapreduce.map_output_records",
            "ffmr_mr_map_output_records_total",
        ),
        ("mapreduce.shuffle_bytes", "ffmr_mr_shuffle_bytes_total"),
        ("mapreduce.spill_runs", "ffmr_mr_spill_runs_total"),
        ("mapreduce.schimmy_bytes", "ffmr_mr_schimmy_bytes_total"),
        ("mapreduce.output_bytes", "ffmr_mr_output_bytes_total"),
        ("mapreduce.failed_attempts", "ffmr_mr_failed_attempts_total"),
    ] {
        m.insert(metric, exact.gain(series));
    }
    m.insert("mapreduce.merge_fanin_p50", merge_fanin_p50 as f64);
    m.insert(
        "mapreduce.shuffle_mb_per_s",
        traced.gain("ffmr_mr_shuffle_bytes_total") / (1024.0 * 1024.0) / mr_job_wall_s,
    );
    m.insert(
        "mapreduce.partition_skew_max",
        exact
            .profiles
            .iter()
            .filter_map(|p| p.skew.as_ref())
            .map(|s| s.ratio)
            .fold(0.0, f64::max),
    );
    m.insert("mapreduce.sim_s", exact.sim_s);
    if !spec.distributed {
        m.insert("mapreduce.threads2_speedup_x", after.run_s / other.run_s);
    }

    if spec.distributed {
        let get = traced.gain("ffmr_dist_blob_bytes_total{dir=\"get\"}");
        let put = traced.gain("ffmr_dist_blob_bytes_total{dir=\"put\"}");
        m.insert("worker.dispatch_overhead_x", traced.run_s / other.run_s);
        m.insert(
            "worker.dispatches",
            traced.gain("ffmr_dist_dispatches_total{phase=\"map\"}")
                + traced.gain("ffmr_dist_dispatches_total{phase=\"reduce\"}"),
        );
        m.insert("worker.blob_get_bytes", get);
        m.insert("worker.blob_put_bytes", put);
        m.insert(
            "worker.socket_bytes_per_shuffle_byte",
            (get + put) / traced.gain("ffmr_mr_shuffle_bytes_total"),
        );
        let blame = |pick: fn(&ffmr_obs::DistBlame) -> f64| -> f64 {
            traced
                .profiles
                .iter()
                .filter_map(|p| p.dist_blame.as_ref())
                .map(pick)
                .sum()
        };
        m.insert(
            "worker.blame_serialization_s",
            blame(|b| b.serialization_seconds),
        );
        m.insert("worker.blame_transfer_s", blame(|b| b.transfer_seconds));
        m.insert(
            "worker.blame_dispatch_wait_s",
            blame(|b| b.dispatch_wait_seconds),
        );
        m.insert("worker.blame_compute_s", blame(|b| b.compute_seconds));
        m.insert("worker.deaths", deaths as f64);
    }

    m.insert("cli.process_overhead_s", median(&cli_walls) - untraced_s);
    m.insert(
        "obs.trace_overhead_pct",
        (traced.total_s() - untraced_s) / untraced_s * 100.0,
    );
    m.insert("obs.unattributed_pct", trace::unattributed_pct(&spans));

    let wrong = flows.iter().filter(|&&f| f != inputs.oracle).count() + cli_failed;
    let mut out = Outcome::new(wrong == 0, (flows.len() + CLI_JOBS) as u64, wrong as u64);
    out.per_layer(&m);
    out.note(span_note);
    out.note(format!(
        "exact (repeat run to run): core.rounds, core.a_paths, mapreduce.{{map_output_records, \
         shuffle_bytes, spill_runs, merge_fanin_p50, schimmy_bytes, output_bytes, partition_skew_max, \
         failed_attempts, sim_s}}, worker.{{dispatches, blob_get_bytes, blob_put_bytes}}; \
         in-process flows {flows:?} vs oracle {}; CLI jobs {cli_walls:.3?} s",
        inputs.oracle
    ));
    Ok(out)
}

//! Distributed-mode acceptance tests: real `ffmr worker` OS processes
//! executing every map/reduce task over localhost TCP.
//!
//! The headline cross-check: a distributed run must be *byte-identical*
//! to the in-process run — same flow value, same per-round statistics,
//! same final vertex-record bytes — even though tasks execute in other
//! processes in whatever order the workers get to them. The driver
//! applies every task's `aug_proc` submissions in task order, in process
//! and remote alike, which also makes the in-process run the same at any
//! thread count (checked here too, with a golden digest of the one-thread
//! ladder).
//!
//! Plus the failure drill from the issue: `kill -9` one worker mid-job
//! and the run must still complete correctly via the retry path.

use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ffmr::prelude::*;
use ffmr::{ffmr_core, ffmr_worker, maxflow, swgraph};

fn test_network(n: u64, w: usize, seed: u64) -> (FlowNetwork, VertexId, VertexId) {
    let edges = swgraph::gen::barabasi_albert(n, 3, seed);
    let net = FlowNetwork::from_undirected_unit(n, &edges);
    let st = swgraph::super_st::attach_super_terminals(&net, w, 3, 1).expect("terminals");
    (st.network, st.source, st.sink)
}

/// A run's determinism fingerprint: flow value, every `RoundStats` field
/// but the host wall clock, the final vertex-record bytes, and the
/// still-pending deltas.
fn fingerprint(rt: &MrRuntime, run: &ffmr_core::FfRun) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(format!("value={}\n", run.max_flow_value).as_bytes());
    for r in &run.rounds {
        // Destructured without `..`, so a new field fails to compile here
        // until the fingerprint covers it.
        let ffmr_core::RoundStats {
            round,
            a_paths,
            value_gained,
            max_queue,
            map_out_records,
            shuffle_bytes,
            sim_seconds,
            wall_seconds: _,
            source_move,
            sink_move,
            graph_bytes,
        } = r;
        out.extend_from_slice(
            format!(
                "round={round} a_paths={a_paths} gained={value_gained} max_queue={max_queue} \
                 map_out={map_out_records} shuffle={shuffle_bytes} sim={sim_seconds:?} \
                 source_move={source_move} sink_move={sink_move} graph={graph_bytes}\n"
            )
            .as_bytes(),
        );
    }
    let file = rt.dfs().file(&run.final_graph_path).expect("final graph");
    for p in &file.partitions {
        out.extend_from_slice(&p.data);
    }
    out.extend_from_slice(&run.pending_deltas.to_blob());
    out
}

/// FNV-1a over a fingerprint: a stable digest to pin in source.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One in-process run of `variant` at `threads` MR worker threads.
fn inprocess_run(
    net: &FlowNetwork,
    config: &FfConfig,
    threads: usize,
) -> (MrRuntime, ffmr_core::FfRun) {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(4));
    rt.set_worker_threads(Some(threads));
    let run = ffmr_core::run_max_flow(&mut rt, net, config).expect("in-process run");
    (rt, run)
}

/// `aug_proc` accepts candidates in reduce-task order at the barrier, so
/// the whole run — `max_queue` included — is a function of the input
/// alone, whatever the number of threads.
#[test]
fn inprocess_fingerprint_is_thread_count_invariant_for_every_variant() {
    let (net, s, t) = test_network(250, 2, 11);
    for (label, variant) in FfVariant::ladder() {
        let config = FfConfig::new(s, t).variant(variant).reducers(6);
        let (rt, run) = inprocess_run(&net, &config, 1);
        let serial = fingerprint(&rt, &run);
        for threads in [2, 4] {
            let (rt, run) = inprocess_run(&net, &config, threads);
            assert!(
                fingerprint(&rt, &run) == serial,
                "{label}: {threads} threads diverged from the serial run"
            );
        }
    }
}

/// The one-thread ladder is byte-identical to the commit before acceptance
/// moved to task-order replay: these digests were captured there. Only
/// `max_queue` changed meaning (largest number of candidates one reduce
/// task handed to `aug_proc`, formerly the consumer queue's high-water
/// mark), so it is zeroed before hashing.
#[test]
fn one_thread_ladder_matches_the_golden_digests() {
    const GOLDEN: [(&str, u64); 5] = [
        ("FF1", 10_465_262_570_109_802_515),
        ("FF2", 17_161_071_213_741_991_246),
        ("FF3", 14_882_213_021_261_882_659),
        ("FF4", 13_728_798_245_494_529_003),
        ("FF5", 14_831_152_186_963_953_082),
    ];
    let (net, s, t) = test_network(250, 2, 11);
    let mut seen = Vec::new();
    for (label, variant) in FfVariant::ladder() {
        let config = FfConfig::new(s, t).variant(variant).reducers(6);
        let (rt, mut run) = inprocess_run(&net, &config, 1);
        for r in &mut run.rounds {
            r.max_queue = 0;
        }
        seen.push((label, digest(&fingerprint(&rt, &run))));
    }
    assert_eq!(
        seen, GOLDEN,
        "one-thread FF ladder drifted from the golden run"
    );
}

fn spawn_worker_process(addr: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_ffmr"))
        .args(["worker", "--connect", addr])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ffmr worker")
}

struct WorkerFleet {
    coordinator: Option<ffmr_worker::Coordinator>,
    children: Vec<Child>,
}

impl WorkerFleet {
    fn start(n: usize) -> Self {
        let coordinator =
            ffmr_worker::Coordinator::start(ffmr_worker::CoordinatorConfig::default())
                .expect("start coordinator");
        let addr = coordinator.local_addr().to_string();
        let children: Vec<Child> = (0..n).map(|_| spawn_worker_process(&addr)).collect();
        assert!(
            coordinator.wait_for_workers(n, Duration::from_secs(30)),
            "worker processes did not register"
        );
        Self {
            coordinator: Some(coordinator),
            children,
        }
    }

    fn coordinator(&self) -> &ffmr_worker::Coordinator {
        self.coordinator.as_ref().expect("fleet running")
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        if let Some(coordinator) = self.coordinator.take() {
            coordinator.shutdown();
        }
        for child in &mut self.children {
            // Workers exit on the coordinator's shutdown answer; reap
            // them (kill first in case one is wedged).
            let _ = child.wait();
        }
    }
}

#[test]
fn two_worker_processes_match_the_inprocess_fingerprint() {
    let (net, s, t) = test_network(250, 2, 11);
    let config = FfConfig::new(s, t).variant(FfVariant::ff5()).reducers(6);

    // Baseline: the deterministic serial in-process run.
    let mut rt_base = MrRuntime::new(ClusterConfig::small_cluster(4));
    rt_base.set_worker_threads(Some(1));
    let run_base = ffmr_core::run_max_flow(&mut rt_base, &net, &config).expect("baseline run");
    let base_print = fingerprint(&rt_base, &run_base);

    // Distributed: two real worker processes, parallel dispatch.
    let fleet = WorkerFleet::start(2);
    let mut rt_dist = MrRuntime::new(ClusterConfig::small_cluster(4));
    rt_dist.set_task_executor(Some(fleet.coordinator().executor()));
    let run_dist = ffmr_core::run_max_flow(&mut rt_dist, &net, &config).expect("distributed run");
    let dist_print = fingerprint(&rt_dist, &run_dist);

    assert_eq!(run_base.max_flow_value, run_dist.max_flow_value);
    assert_eq!(
        base_print, dist_print,
        "distributed run diverged from the serial in-process fingerprint"
    );

    // Simulated cost model is computed driver-side from task-reported
    // numbers, so the simulated clock must agree exactly too.
    assert!(
        (run_base.total_sim_seconds - run_dist.total_sim_seconds).abs() < 1e-9,
        "simulated cost diverged: {} vs {}",
        run_base.total_sim_seconds,
        run_dist.total_sim_seconds
    );

    // And the flow itself must be the true maximum.
    let oracle = maxflow::Algorithm::Dinic.run(&net, s, t);
    assert_eq!(run_dist.max_flow_value, oracle.value);
}

/// The merged flight recorder must be complete and must not perturb the
/// computation: with telemetry on, a `--workers 2` run yields (a) a
/// round history whose dispatch notes cover every map/reduce attempt
/// exactly once with real worker attribution, (b) per-worker
/// clock-aligned windows consistent with sequential execution, and (c)
/// flow output byte-identical to the serial in-process baseline.
#[test]
fn merged_flight_recorder_is_complete_and_does_not_perturb_the_run() {
    use std::collections::HashMap;

    let (net, s, t) = test_network(250, 2, 17);
    let config = FfConfig::new(s, t).variant(FfVariant::ff5()).reducers(6);

    // Telemetry fully on: flight recorder + per-dispatch notes. The
    // recorder is process-global; this test reads history out of its
    // own runtime's DFS, so parallel tests sharing the ring don't leak
    // into the assertions.
    ffmr::ffmr_obs::events::recorder().set_enabled(true);

    let fleet = WorkerFleet::start(2);
    let mut rt_dist = MrRuntime::new(ClusterConfig::small_cluster(4));
    rt_dist.set_task_executor(Some(fleet.coordinator().executor()));
    let run_dist = ffmr_core::run_max_flow(&mut rt_dist, &net, &config).expect("distributed run");
    let dist_print = fingerprint(&rt_dist, &run_dist);

    // (c) Byte-identical to the serial baseline, recorder still on.
    let mut rt_base = MrRuntime::new(ClusterConfig::small_cluster(4));
    rt_base.set_worker_threads(Some(1));
    let run_base = ffmr_core::run_max_flow(&mut rt_base, &net, &config).expect("baseline run");
    assert_eq!(
        dist_print,
        fingerprint(&rt_base, &run_base),
        "telemetry must not perturb the distributed output"
    );

    // (a) + (b): parse the history blob the distributed run persisted.
    let history = rt_dist
        .dfs()
        .read_blob(&ffmr_core::history_path(&config.base_path))
        .expect("history blob");
    let text = String::from_utf8(history.to_vec()).expect("history is utf-8");
    let profiles: Vec<ffmr::ffmr_obs::RoundProfile> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| ffmr::ffmr_obs::RoundProfile::from_json(l).expect("parse profile"))
        .collect();
    assert!(!profiles.is_empty(), "no round profiles recorded");

    // Round 0's graph-prep job uses closures and always runs in
    // process (no wire spec), so it legitimately carries no dispatch
    // notes. Every augmenting round does go through the executor.
    let dist_profiles: Vec<_> = profiles
        .iter()
        .filter(|p| !p.dispatches.is_empty())
        .collect();
    assert!(
        !dist_profiles.is_empty(),
        "no round profile carries dispatch notes"
    );

    for p in &dist_profiles {
        // Every map/reduce attempt appears exactly once as a dispatch
        // note, attributed to a real worker of the 2-worker fleet.
        let mut noted: HashMap<(&str, usize), usize> = HashMap::new();
        for n in &p.dispatches {
            assert!(
                n.worker < 2,
                "round {}: bogus worker id {}",
                p.round,
                n.worker
            );
            assert!(n.ok, "round {}: unexpected failed dispatch", p.round);
            *noted.entry((n.phase.as_str(), n.task)).or_default() += 1;
        }
        let mut expected: HashMap<(&str, usize), usize> = HashMap::new();
        for e in p
            .events
            .iter()
            .filter(|e| e.phase == "map" || e.phase == "reduce")
        {
            assert!(
                e.worker.is_some(),
                "round {}: {} t{} lacks worker attribution",
                p.round,
                e.phase,
                e.task
            );
            *expected.entry((e.phase.as_str(), e.task)).or_default() += 1;
        }
        assert_eq!(
            noted, expected,
            "round {}: dispatch notes disagree with task events",
            p.round
        );
        assert!(p.dist_blame.is_some(), "round {}: no blame split", p.round);
        assert!(
            !p.critical_path_dist.is_empty(),
            "round {}: no dispatch-phase critical path",
            p.round
        );

        // Per-worker windows: well-formed, and consistent with a
        // worker executing one dispatch at a time. All of one worker's
        // notes share one clock offset, so the check is exact.
        let mut per_worker: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for n in &p.dispatches {
            assert!(
                n.started_us <= n.finished_us,
                "round {}: inverted window",
                p.round
            );
            per_worker
                .entry(n.worker)
                .or_default()
                .push((n.started_us, n.finished_us));
        }
        for (worker, mut windows) in per_worker {
            windows.sort_unstable();
            for pair in windows.windows(2) {
                let overlap = pair[0].1.saturating_sub(pair[1].0);
                assert_eq!(
                    overlap, 0,
                    "round {}: worker {worker} windows overlap by {overlap}us",
                    p.round
                );
            }
        }
    }

    // The dispatch notes exercised both workers at least once overall.
    let workers_seen: std::collections::HashSet<u64> = dist_profiles
        .iter()
        .flat_map(|p| p.dispatches.iter().map(|n| n.worker))
        .collect();
    assert_eq!(workers_seen.len(), 2, "both workers should run dispatches");
}

#[test]
fn kill_nine_mid_job_is_recovered_by_retry() {
    let (net, s, t) = test_network(700, 3, 23);
    let config = FfConfig::new(s, t).variant(FfVariant::ff5()).reducers(6);

    let mut fleet = WorkerFleet::start(2);
    let victim = fleet.children.remove(0);

    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(4));
    rt.set_task_executor(Some(fleet.coordinator().executor()));
    // Worker death fails the in-flight attempt; Hadoop's budget retries.
    rt.set_failure_policy(FailurePolicy::hadoop_default());

    // SIGKILL the victim shortly into the run, from another thread —
    // the driver never gets a chance to say goodbye on its behalf.
    let killer = std::thread::spawn(move || {
        let mut victim = victim;
        std::thread::sleep(Duration::from_millis(50));
        victim.kill().expect("kill -9 the worker");
        victim.wait().expect("reap the victim");
    });

    let run = ffmr_core::run_max_flow(&mut rt, &net, &config).expect("run survives the kill");
    killer.join().expect("killer thread");

    assert_eq!(
        fleet.coordinator().worker_deaths(),
        1,
        "the killed worker must be declared dead"
    );
    assert_eq!(fleet.coordinator().live_workers(), 1);

    let oracle = maxflow::Algorithm::Dinic.run(&net, s, t);
    assert_eq!(
        run.max_flow_value, oracle.value,
        "flow wrong after recovery"
    );

    // The fingerprint must still match a clean serial run: retries and
    // the lost worker must leave no trace in the output. Only the
    // simulated clock may differ — it charges the killed attempt's slot.
    let mut run = run;
    let (rt_base, mut run_base) = inprocess_run(&net, &config, 1);
    for r in run.rounds.iter_mut().chain(&mut run_base.rounds) {
        r.sim_seconds = 0.0;
    }
    assert_eq!(fingerprint(&rt, &run), fingerprint(&rt_base, &run_base));
}

//! Edge cases and behavioural invariants of the FFMR driver beyond plain
//! value correctness: round statistics, garbage collection, storage
//! limits, unbounded capacities and chained reuse.

use ffmr_core::{run_max_flow, verify, FfConfig, FfError, FfVariant, KPolicy};
use mapreduce::{ClusterConfig, MrRuntime};
use swgraph::{gen, FlowNetwork, FlowNetworkBuilder, VertexId, INFINITE_CAPACITY};

fn runtime() -> MrRuntime {
    MrRuntime::new(ClusterConfig::small_cluster(2))
}

#[test]
fn round_stats_invariants_hold() {
    let n = 150;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 3));
    let mut rt = runtime();
    let config = FfConfig::new(VertexId::new(0), VertexId::new(n - 1));
    let run = run_max_flow(&mut rt, &net, &config).unwrap();

    assert_eq!(run.rounds[0].round, 0);
    for (i, r) in run.rounds.iter().enumerate() {
        assert_eq!(r.round, i, "rounds are contiguous");
        assert!(r.sim_seconds > 0.0);
    }
    // Round 0 accepts nothing; the final round accepts nothing (that is
    // why the loop stopped).
    assert_eq!(run.rounds[0].a_paths, 0);
    assert_eq!(run.rounds.last().unwrap().a_paths, 0);
    // Value decomposes over rounds.
    let total: i64 = run.rounds.iter().map(|r| r.value_gained).sum();
    assert_eq!(total, run.max_flow_value);
    // Pending deltas are empty because the loop only breaks on a round
    // with zero acceptances.
    assert!(run.pending_deltas.is_empty());
    assert!(run.max_graph_bytes >= run.rounds[0].graph_bytes);
}

#[test]
fn dfs_is_garbage_collected_during_long_runs() {
    let n = 150;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 3));
    let mut rt = runtime();
    let config = FfConfig::new(VertexId::new(0), VertexId::new(n - 1)).base_path("gc");
    let run = run_max_flow(&mut rt, &net, &config).unwrap();
    let rounds_kept = rt
        .dfs()
        .list()
        .iter()
        .filter(|p| p.starts_with("gc/round-"))
        .count();
    assert!(
        rounds_kept <= config.keep_rounds,
        "{rounds_kept} round outputs retained after a {}-round run",
        run.num_flow_rounds()
    );
    assert!(rt.dfs().exists(&run.final_graph_path));
}

#[test]
fn k_policy_caps_stored_paths() {
    let n = 120;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 4, 6));
    let mut rt = runtime();
    let config = FfConfig::new(VertexId::new(0), VertexId::new(n - 1))
        .variant(FfVariant::ff2())
        .k_policy(KPolicy::Fixed(2));
    let run = run_max_flow(&mut rt, &net, &config).unwrap();
    let hist = verify::storage_histogram(rt.dfs(), &run.final_graph_path);
    for (u, (src, snk)) in hist {
        assert!(src <= 2, "vertex {u} stores {src} source paths (k = 2)");
        assert!(snk <= 2, "vertex {u} stores {snk} sink paths (k = 2)");
    }
}

#[test]
fn infinite_capacities_inside_the_graph() {
    // A backbone of unbounded edges with unit feeders: no overflow, and
    // the unit feeders bound the flow.
    let mut b = FlowNetworkBuilder::new(6);
    b.add_edge(0, 1, 1);
    b.add_edge(0, 2, 1);
    b.add_edge(1, 3, INFINITE_CAPACITY);
    b.add_edge(2, 3, INFINITE_CAPACITY);
    b.add_edge(3, 4, INFINITE_CAPACITY);
    b.add_edge(4, 5, 1);
    b.add_edge(3, 5, 1);
    let net = b.build();
    let mut rt = runtime();
    let config = FfConfig::new(VertexId::new(0), VertexId::new(5));
    let run = run_max_flow(&mut rt, &net, &config).unwrap();
    assert_eq!(run.max_flow_value, 2);
}

#[test]
fn round_limit_is_enforced() {
    let n = 200;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 1));
    let mut rt = runtime();
    let config = FfConfig::new(VertexId::new(0), VertexId::new(n - 1)).max_rounds(1);
    match run_max_flow(&mut rt, &net, &config) {
        Err(FfError::RoundLimitExceeded { limit }) => assert_eq!(limit, 1),
        other => panic!("expected round limit error, got {other:?}"),
    }
}

#[test]
fn rerunning_same_base_path_fails_cleanly() {
    let net = FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2)]);
    let mut rt = runtime();
    let config = FfConfig::new(VertexId::new(0), VertexId::new(2));
    run_max_flow(&mut rt, &net, &config).unwrap();
    // Same base path: the raw-edges file already exists.
    assert!(matches!(
        run_max_flow(&mut rt, &net, &config),
        Err(FfError::Mr(mapreduce::MrError::OutputExists(_)))
    ));
    // A different base path works on the same runtime.
    let config2 = FfConfig::new(VertexId::new(0), VertexId::new(2)).base_path("second");
    assert!(run_max_flow(&mut rt, &net, &config2).is_ok());
}

#[test]
fn non_unit_rational_capacities_scale_exactly() {
    // Capacities 1/2 and 1/3 scaled by 6 => 3 and 2: the algorithm
    // handles them exactly, demonstrating the paper's "supports rational
    // numbers" claim via fixed-point scaling.
    let mut b = FlowNetworkBuilder::new(4);
    b.add_edge(0, 1, 3); // 1/2 * 6
    b.add_edge(0, 2, 2); // 1/3 * 6
    b.add_edge(1, 3, 3);
    b.add_edge(2, 3, 2);
    let net = b.build();
    let mut rt = runtime();
    let config = FfConfig::new(VertexId::new(0), VertexId::new(3));
    let run = run_max_flow(&mut rt, &net, &config).unwrap();
    assert_eq!(run.max_flow_value, 5, "5/6 in rational units");
}

#[test]
fn star_graph_single_round_of_flow() {
    // s at the hub, t a leaf: the shortest augmenting path has 1 hop.
    let edges: Vec<(u64, u64)> = (1..10).map(|i| (0, i)).collect();
    let net = FlowNetwork::from_undirected_unit(10, &edges);
    let mut rt = runtime();
    let config = FfConfig::new(VertexId::new(0), VertexId::new(5));
    let run = run_max_flow(&mut rt, &net, &config).unwrap();
    assert_eq!(run.max_flow_value, 1);
    assert!(run.num_flow_rounds() <= 4);
}

#[test]
fn all_variants_emit_identical_flow_functions_when_deterministic() {
    // With one worker thread and synchronous acceptance (FF1), the whole
    // run is reproducible bit for bit.
    let n = 80;
    let net = FlowNetwork::from_undirected_unit(n, &gen::watts_strogatz(n, 4, 0.2, 8));
    let extract = || {
        let mut rt = runtime();
        rt.set_worker_threads(Some(1));
        let (s, t) = (VertexId::new(0), VertexId::new(n - 1));
        let config = FfConfig::new(s, t).variant(FfVariant::ff1());
        let run = run_max_flow(&mut rt, &net, &config).unwrap();
        let flow = verify::extract_flow(
            rt.dfs(),
            &run.final_graph_path,
            &run.pending_deltas,
            &net,
            s,
        )
        .unwrap();
        maxflow::validate::check_flow(&net, s, t, &flow).unwrap();
        let cut = maxflow::min_cut::extract_min_cut(&net, s, &flow);
        assert!(!cut.source_side.contains(&t));
        assert_eq!(cut.value, flow.value);
        flow.flows
    };
    assert_eq!(extract(), extract());
}

#[test]
fn ffmr_survives_injected_task_failures() {
    // Hadoop-style retries drop a failed attempt's aug_proc submissions
    // with its output: a run with every task's first attempt crashing
    // still computes the exact max-flow value.
    let n = 150;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 13));
    let (s, t) = (VertexId::new(0), VertexId::new(n - 1));
    let oracle = maxflow::Algorithm::Dinic.run(&net, s, t).value;

    for variant in [FfVariant::ff1(), FfVariant::ff5()] {
        let mut rt = runtime();
        rt.set_failure_policy(mapreduce::FailurePolicy::with_injector(
            4,
            |_, task, attempt| attempt == 0 && task % 3 == 0,
        ));
        let config = FfConfig::new(s, t).variant(variant);
        let run = run_max_flow(&mut rt, &net, &config).unwrap();
        assert_eq!(run.max_flow_value, oracle, "faulty run diverged");
        // Failures really happened.
        let retried: u64 = run.rounds.iter().map(|r| r.sim_seconds as u64).sum();
        assert!(retried > 0);
    }
}

#[test]
fn unidirectional_and_extend_all_reach_the_same_max_flow() {
    let n = 120;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 19));
    let (s, t) = (VertexId::new(0), VertexId::new(n - 1));
    let oracle = maxflow::Algorithm::Dinic.run(&net, s, t).value;

    let run_with = |bidir: bool, all: bool| {
        let mut rt = runtime();
        let config = FfConfig::new(s, t)
            .variant(FfVariant::ff2())
            .bidirectional(bidir)
            .extend_all_paths(all);
        run_max_flow(&mut rt, &net, &config).unwrap()
    };
    let bidir = run_with(true, false);
    let uni = run_with(false, false);
    let all = run_with(true, true);
    assert_eq!(bidir.max_flow_value, oracle);
    assert_eq!(uni.max_flow_value, oracle);
    assert_eq!(all.max_flow_value, oracle);
    // Uni-directional runs never move the sink frontier.
    assert!(uni.rounds.iter().all(|r| r.sink_move == 0));
    assert!(
        uni.num_flow_rounds() >= bidir.num_flow_rounds(),
        "bi-directional cannot be slower in rounds ({} vs {})",
        bidir.num_flow_rounds(),
        uni.num_flow_rounds()
    );
}

/// The paper's FF5 (Sec. IV-D): a vertex remembers which neighbor it
/// already sent an excess path to, and does not send it again next round.
/// Here `FfMapper` sets the marker on its private copy of the master, and
/// under schimmy (FF3+) that copy is never emitted — the reducer's master
/// comes from the previous round's file and only ever has markers
/// cleared. So no marker reaches round r + 1 and FF5 is FF4 plus
/// `k = in-degree`. Fixing it changes FF5's shuffle; until then this test
/// states the intended behaviour.
#[test]
#[ignore = "FF5 finding: sent markers never persist past the mapper (FF5 = FF4 + k = in-degree)"]
fn ff5_sent_markers_survive_into_the_next_rounds_master() {
    let n = 60;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 5));
    let (s, t) = (VertexId::new(0), VertexId::new(n - 1));
    let mut rt = runtime();
    let config = FfConfig::new(s, t)
        .variant(FfVariant::ff5())
        .crash_point(ffmr_core::CrashPoint::AfterRound(1));
    assert!(matches!(
        run_max_flow(&mut rt, &net, &config),
        Err(FfError::CrashInjected { round: 1 })
    ));
    // Round 1's mapper extended s's empty path to every neighbor.
    let masters: Vec<(u64, ffmr_core::VertexValue)> = rt
        .dfs()
        .read_records(&mapreduce::driver::round_path(&config.base_path, 1))
        .unwrap();
    let source = &masters.iter().find(|(v, _)| *v == s.raw()).unwrap().1;
    assert!(
        source.edges.iter().any(|e| e.sent_source.is_some()),
        "round 1's sent markers are gone from the source's master"
    );
}

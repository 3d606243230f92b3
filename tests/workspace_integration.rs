//! Cross-crate integration tests: the full pipeline from graph
//! generation through the MapReduce runtime to flow validation, exercised
//! through the facade crate's public API only.

use ffmr::prelude::*;
use ffmr::{ffmr_core, maxflow, swgraph};

#[test]
fn full_pipeline_generation_to_validated_flow() {
    // Generate → attach terminals → FFMR → extract → validate → min-cut.
    let n = 600;
    let edges = swgraph::gen::barabasi_albert(n, 3, 21);
    let net = FlowNetwork::from_undirected_unit(n, &edges);
    let st = swgraph::super_st::attach_super_terminals(&net, 6, 3, 5).unwrap();

    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(20));
    let config = FfConfig::new(st.source, st.sink).variant(FfVariant::ff5());
    let run = ffmr_core::run_max_flow(&mut rt, &st.network, &config).unwrap();

    let result = ffmr_core::verify::extract_flow(
        rt.dfs(),
        &run.final_graph_path,
        &run.pending_deltas,
        &st.network,
        st.source,
    )
    .unwrap();
    maxflow::validate::check_flow(&st.network, st.source, st.sink, &result).unwrap();
    let mr_cut = maxflow::min_cut::extract_min_cut(&st.network, st.source, &result);
    assert!(!mr_cut.source_side.contains(&st.sink));
    assert_eq!(mr_cut.value, result.value);

    let oracle = maxflow::Algorithm::Dinic.run(&st.network, st.source, st.sink);
    assert_eq!(run.max_flow_value, oracle.value);

    let cut = maxflow::min_cut::extract_min_cut(&st.network, st.source, &oracle);
    assert_eq!(cut.value, oracle.value, "max-flow = min-cut end to end");
}

#[test]
fn edge_list_io_round_trips_through_ffmr() {
    // Serialize a graph to the text interchange format, read it back, and
    // confirm the flow is unchanged.
    let edges = swgraph::gen::watts_strogatz(120, 4, 0.2, 9);
    let net = FlowNetwork::from_undirected_unit(120, &edges);
    let mut text = Vec::new();
    swgraph::io::write_edge_list(&net, &mut text).unwrap();
    let reparsed = swgraph::io::read_edge_list(text.as_slice())
        .unwrap()
        .build();

    let (s, t) = (VertexId::new(0), VertexId::new(60));
    let before = maxflow::Algorithm::Dinic.run(&net, s, t).value;
    let after = maxflow::Algorithm::Dinic.run(&reparsed, s, t).value;
    assert_eq!(before, after);

    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    let config = FfConfig::new(s, t).variant(FfVariant::ff3());
    let run = ffmr_core::run_max_flow(&mut rt, &reparsed, &config).unwrap();
    assert_eq!(run.max_flow_value, before);
}

#[test]
fn all_sequential_algorithms_agree_with_ffmr() {
    let edges = swgraph::gen::erdos_renyi(80, 200, 4);
    let net = FlowNetwork::from_undirected_unit(80, &edges);
    let (s, t) = (VertexId::new(0), VertexId::new(79));

    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    let config = FfConfig::new(s, t).variant(FfVariant::ff5());
    let mr_value = ffmr_core::run_max_flow(&mut rt, &net, &config)
        .unwrap()
        .max_flow_value;
    for algo in Algorithm::ALL {
        assert_eq!(algo.run(&net, s, t).value, mr_value, "{algo}");
    }
}

#[test]
fn mr_bfs_matches_in_memory_bfs_through_facade() {
    let edges = swgraph::gen::barabasi_albert(250, 3, 8);
    let net = FlowNetwork::from_undirected_unit(250, &edges);
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    let run = ffmr_core::mr_bfs::run_bfs(&mut rt, &net, VertexId::new(0), "bfs", 4).unwrap();
    let dists = swgraph::bfs::bfs_distances(&net, VertexId::new(0));
    assert_eq!(
        run.eccentricity,
        dists.iter().flatten().copied().max().unwrap() as u64
    );
}

#[test]
fn mr_push_relabel_matches_oracle_through_facade() {
    let edges = swgraph::gen::watts_strogatz(60, 4, 0.3, 2);
    let net = FlowNetwork::from_undirected_unit(60, &edges);
    let (s, t) = (VertexId::new(0), VertexId::new(30));
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    let run =
        ffmr_core::mr_push_relabel::run_push_relabel(&mut rt, &net, s, t, "pr", 2, 10_000).unwrap();
    assert_eq!(
        run.max_flow_value,
        maxflow::Algorithm::Dinic.run(&net, s, t).value
    );
}

#[test]
fn chained_flows_on_one_runtime_share_the_dfs() {
    // Two independent max-flow chains on one runtime must not collide.
    let edges = swgraph::gen::barabasi_albert(150, 3, 3);
    let net = FlowNetwork::from_undirected_unit(150, &edges);
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));

    let c1 = FfConfig::new(VertexId::new(0), VertexId::new(100)).base_path("run-a");
    let c2 = FfConfig::new(VertexId::new(5), VertexId::new(90)).base_path("run-b");
    let v1 = ffmr_core::run_max_flow(&mut rt, &net, &c1)
        .unwrap()
        .max_flow_value;
    let v2 = ffmr_core::run_max_flow(&mut rt, &net, &c2)
        .unwrap()
        .max_flow_value;
    assert_eq!(
        v1,
        maxflow::Algorithm::Dinic
            .run(&net, VertexId::new(0), VertexId::new(100))
            .value
    );
    assert_eq!(
        v2,
        maxflow::Algorithm::Dinic
            .run(&net, VertexId::new(5), VertexId::new(90))
            .value
    );
    // Both chains' final outputs coexist.
    assert!(rt.dfs().list().iter().any(|p| p.starts_with("run-a/")));
    assert!(rt.dfs().list().iter().any(|p| p.starts_with("run-b/")));
}

#[test]
fn simulated_time_accumulates_across_jobs() {
    let edges = swgraph::gen::barabasi_albert(100, 3, 6);
    let net = FlowNetwork::from_undirected_unit(100, &edges);
    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(10));
    assert_eq!(rt.total_sim_seconds(), 0.0);
    let config = FfConfig::new(VertexId::new(0), VertexId::new(99));
    let run = ffmr_core::run_max_flow(&mut rt, &net, &config).unwrap();
    assert!(rt.total_sim_seconds() >= run.total_sim_seconds * 0.99);
}

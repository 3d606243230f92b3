//! End-to-end validation of FFMR: every variant must compute the same
//! max-flow value as the sequential Dinic oracle, produce a valid flow
//! function, and leave no augmenting path in the residual network.

use ffmr_core::{run_max_flow, verify, FfConfig, FfVariant};
use mapreduce::{ClusterConfig, MrRuntime};
use maxflow::min_cut::extract_min_cut;
use maxflow::validate::check_flow;
use swgraph::{gen, FlowNetwork, VertexId};

fn check_variant(
    net: &FlowNetwork,
    s: VertexId,
    t: VertexId,
    variant: FfVariant,
    label: &str,
) -> i64 {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    let config = FfConfig::new(s, t).variant(variant).reducers(4);
    let run =
        run_max_flow(&mut rt, net, &config).unwrap_or_else(|e| panic!("{label}: ffmr failed: {e}"));

    let oracle = maxflow::Algorithm::Dinic.run(net, s, t);
    assert_eq!(
        run.max_flow_value, oracle.value,
        "{label}: ffmr disagrees with dinic"
    );

    // Reassemble the flow function, audit it, and prove it maximum: the
    // residual-reachable side excludes t and its cut equals the value.
    let flow = verify::extract_flow(rt.dfs(), &run.final_graph_path, &run.pending_deltas, net, s)
        .unwrap_or_else(|e| panic!("{label}: flow extraction failed: {e}"));
    assert_eq!(
        flow.value, oracle.value,
        "{label}: extracted flow value mismatch"
    );
    check_flow(net, s, t, &flow).unwrap_or_else(|e| panic!("{label}: invalid flow function: {e}"));
    let cut = extract_min_cut(net, s, &flow);
    assert!(
        !cut.source_side.contains(&t),
        "{label}: residual network still has an augmenting path"
    );
    assert_eq!(cut.value, flow.value, "{label}: cut and flow differ");
    run.max_flow_value
}

fn check_all_variants(net: &FlowNetwork, s: VertexId, t: VertexId, label: &str) -> i64 {
    let mut value = None;
    for (name, variant) in FfVariant::ladder() {
        let v = check_variant(net, s, t, variant, &format!("{label}/{name}"));
        if let Some(prev) = value {
            assert_eq!(v, prev, "{label}: variants disagree");
        }
        value = Some(v);
    }
    value.unwrap()
}

#[test]
fn unit_path_graph() {
    let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3)]);
    let v = check_all_variants(&net, VertexId::new(0), VertexId::new(3), "path");
    assert_eq!(v, 1);
}

#[test]
fn two_disjoint_paths() {
    let net =
        FlowNetwork::from_undirected_unit(6, &[(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4)]);
    let v = check_all_variants(&net, VertexId::new(0), VertexId::new(5), "disjoint");
    assert_eq!(v, 2);
}

#[test]
fn disconnected_graph_yields_zero() {
    let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (2, 3)]);
    let v = check_all_variants(&net, VertexId::new(0), VertexId::new(3), "disconnected");
    assert_eq!(v, 0);
}

#[test]
fn cancellation_trap() {
    // The cross-edge graph where a greedy first path must be undone via
    // residual edges.
    let mut b = swgraph::FlowNetworkBuilder::new(4);
    b.add_edge(0, 1, 1);
    b.add_edge(0, 2, 1);
    b.add_edge(1, 2, 1);
    b.add_edge(1, 3, 1);
    b.add_edge(2, 3, 1);
    let net = b.build();
    let v = check_all_variants(&net, VertexId::new(0), VertexId::new(3), "trap");
    assert_eq!(v, 2);
}

#[test]
fn asymmetric_directed_capacities() {
    let mut b = swgraph::FlowNetworkBuilder::new(5);
    b.add_edge(0, 1, 3);
    b.add_edge(0, 2, 2);
    b.add_edge(1, 2, 5);
    b.add_edge(1, 3, 2);
    b.add_edge(2, 3, 3);
    b.add_edge(3, 4, 4);
    let net = b.build();
    let v = check_all_variants(&net, VertexId::new(0), VertexId::new(4), "asymmetric");
    assert_eq!(v, 4);
}

#[test]
fn small_world_ba_graph_all_variants() {
    let n = 120;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 11));
    let v = check_all_variants(&net, VertexId::new(0), VertexId::new(n - 1), "ba");
    assert!(v > 0);
}

#[test]
fn watts_strogatz_graph_all_variants() {
    let n = 100;
    let net = FlowNetwork::from_undirected_unit(n, &gen::watts_strogatz(n, 4, 0.2, 3));
    check_all_variants(&net, VertexId::new(0), VertexId::new(n / 2), "ws");
}

#[test]
fn grid_graph_high_diameter() {
    // The adversarial high-diameter case: FFMR still terminates correctly,
    // just in many rounds.
    let net = FlowNetwork::from_undirected_unit(36, &gen::grid(6, 6));
    let v = check_all_variants(&net, VertexId::new(0), VertexId::new(35), "grid");
    assert_eq!(v, 2);
}

#[test]
fn super_terminal_network_ff5() {
    let n = 400;
    let base = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 4, 9));
    let st = swgraph::super_st::attach_super_terminals(&base, 8, 4, 17).unwrap();
    let v = check_variant(&st.network, st.source, st.sink, FfVariant::ff5(), "superst");
    assert!(v > 8, "super terminals should multiply the flow (got {v})");
}

#[test]
fn random_seeds_ff1_and_ff5_match_oracle() {
    for seed in 0..6 {
        let n = 60;
        let edges = gen::erdos_renyi(n, 150, seed);
        let net = FlowNetwork::from_undirected_unit(n, &edges);
        let (s, t) = (VertexId::new(0), VertexId::new(n - 1));
        check_variant(&net, s, t, FfVariant::ff1(), &format!("er{seed}/FF1"));
        check_variant(&net, s, t, FfVariant::ff5(), &format!("er{seed}/FF5"));
    }
}

#[test]
fn rounds_stay_near_diameter_on_small_world() {
    let n = 300;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 5));
    let st = swgraph::super_st::attach_super_terminals(&net, 4, 3, 2).unwrap();
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    let config = FfConfig::new(st.source, st.sink).variant(FfVariant::ff5());
    let run = run_max_flow(&mut rt, &st.network, &config).unwrap();
    let d = swgraph::bfs::estimate_diameter(&st.network, 10, 1).max_observed as usize;
    assert!(
        run.num_flow_rounds() <= 3 * d + 6,
        "rounds ({}) should stay near the diameter ({d})",
        run.num_flow_rounds()
    );
}

#[test]
fn deterministic_mode_reproduces_run_exactly() {
    let n = 80;
    let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 4));
    let run_once = || {
        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
        rt.set_worker_threads(Some(1));
        let config =
            FfConfig::new(VertexId::new(0), VertexId::new(n - 1)).variant(FfVariant::ff1()); // synchronous acceptance
        let run = run_max_flow(&mut rt, &net, &config).unwrap();
        (
            run.max_flow_value,
            run.num_flow_rounds(),
            run.rounds
                .iter()
                .map(|r| r.shuffle_bytes)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn graph500_rmat_workload() {
    // The paper cites Graph500 as evidence that data-intensive graph
    // processing is an HPC workload; run FFMR on its reference R-MAT
    // generator and validate against the oracle.
    let scale = 9;
    let n = 1u64 << scale;
    let net = FlowNetwork::from_undirected_unit(n, &gen::rmat_graph500(scale, 4));
    let st = swgraph::super_st::attach_super_terminals(&net, 4, 8, 6).unwrap();
    let v = check_variant(&st.network, st.source, st.sink, FfVariant::ff5(), "rmat");
    assert!(v > 0);
}

//! Solver-agreement matrix: every in-memory solver (Dinic, push–relabel,
//! the bulk-synchronous parallel push–relabel) and the paper's MapReduce
//! variants (FF1, FF5) must return the same max-flow value
//! on the paper's two graph families (Barabási–Albert and
//! Watts–Strogatz), and every returned flow assignment must pass
//! feasibility validation. The parallel solver is additionally required
//! to return the *identical per-edge assignment* for 1, 2 and 8 worker
//! threads.

use ffmr::prelude::*;
use ffmr::{ffmr_core, maxflow, swgraph};

/// Runs one MapReduce variant, extracts its edge flows, validates them,
/// and returns the flow value.
fn mr_flow_checked(net: &FlowNetwork, s: VertexId, t: VertexId, variant: FfVariant) -> i64 {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    let config = FfConfig::new(s, t).variant(variant).reducers(3);
    let run = ffmr_core::run_max_flow(&mut rt, net, &config).expect("ffmr run");
    let result = ffmr_core::verify::extract_flow(
        rt.dfs(),
        &run.final_graph_path,
        &run.pending_deltas,
        net,
        s,
    )
    .expect("consistent flow extraction");
    maxflow::validate::check_flow(net, s, t, &result).expect("MR flow must be feasible");
    assert_eq!(result.value, run.max_flow_value, "declared vs extracted");
    let cut = maxflow::min_cut::extract_min_cut(net, s, &result);
    assert!(
        !cut.source_side.contains(&t),
        "MR flow left an augmenting path"
    );
    assert_eq!(cut.value, result.value, "MR cut and flow differ");
    run.max_flow_value
}

/// Runs every sequential algorithm plus FF1 and FF5 on `net` and asserts
/// they agree; each flow assignment is validated for feasibility.
fn assert_all_solvers_agree(net: &FlowNetwork, s: VertexId, t: VertexId) {
    let reference = maxflow::Algorithm::Dinic.run(net, s, t);
    maxflow::validate::check_flow(net, s, t, &reference).expect("dinic flow must be feasible");

    for algo in Algorithm::ALL {
        let result = algo.run(net, s, t);
        maxflow::validate::check_flow(net, s, t, &result)
            .unwrap_or_else(|e| panic!("{algo} produced an infeasible flow: {e}"));
        assert_eq!(result.value, reference.value, "{algo} disagrees with dinic");
    }

    assert_eq!(
        mr_flow_checked(net, s, t, FfVariant::ff1()),
        reference.value,
        "ff1 disagrees with dinic"
    );
    assert_eq!(
        mr_flow_checked(net, s, t, FfVariant::ff5()),
        reference.value,
        "ff5 disagrees with dinic"
    );

    // The parallel solver must be deterministic across thread counts:
    // not just the value but the full per-edge flow assignment.
    let parallel_pr = |threads| {
        maxflow::parallel_push_relabel::solve(net, s, t, threads, &maxflow::Cancel::never())
            .expect("never-cancel solve cannot fail")
            .0
    };
    let single = parallel_pr(1);
    assert_eq!(single.value, reference.value);
    for threads in [2, 8] {
        assert_eq!(
            parallel_pr(threads),
            single,
            "parallel-pr with {threads} threads diverged from 1 thread"
        );
    }
}

#[test]
fn all_solvers_agree_on_barabasi_albert() {
    let n = 120;
    let edges = swgraph::gen::barabasi_albert(n, 3, 17);
    let net = FlowNetwork::from_undirected_unit(n, &edges);
    assert_all_solvers_agree(&net, VertexId::new(0), VertexId::new(n - 1));
}

#[test]
fn all_solvers_agree_on_watts_strogatz() {
    let n = 100;
    let edges = swgraph::gen::watts_strogatz(n, 4, 0.25, 23);
    let net = FlowNetwork::from_undirected_unit(n, &edges);
    assert_all_solvers_agree(&net, VertexId::new(0), VertexId::new(n / 2));
}

#[test]
fn all_solvers_agree_with_super_terminals() {
    // The service's `--w` path: Sec. V-A1 super source/sink attachment.
    let n = 150;
    let edges = swgraph::gen::barabasi_albert(n, 3, 31);
    let net = FlowNetwork::from_undirected_unit(n, &edges);
    let st = swgraph::super_st::attach_super_terminals(&net, 4, 3, 42).unwrap();
    assert_all_solvers_agree(&st.network, st.source, st.sink);
}

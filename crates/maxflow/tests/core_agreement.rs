//! Core-vs-full agreement corpus: over seeded small-world generators and
//! capacity profiles, every plan the contraction module produces must
//! yield a flow value byte-identical to a full-graph Dinic solve — the
//! acceptance bar for the serving tier's core planner.

use maxflow::contraction::{CoreIndex, CorePlan};
use swgraph::{gen, Capacity, FlowNetwork, FlowNetworkBuilder, VertexId};

/// Resolves a plan exactly as the serving tier does: tree-only answers
/// come straight from the plan, core answers are the min of the tree
/// limit and a solve on the contracted core.
fn planned_value(idx: &CoreIndex, s: VertexId, t: VertexId) -> Capacity {
    match idx.plan(s, t) {
        CorePlan::Direct(value) => value,
        CorePlan::Core {
            source,
            sink,
            limit,
            ..
        } => limit.min(
            maxflow::Algorithm::Dinic
                .run(idx.core_net(), source, sink)
                .value,
        ),
    }
}

/// Deterministic non-unit capacity for edge index `i` of a graph.
fn varied_cap(i: usize) -> Capacity {
    1 + (i as Capacity * 13) % 17
}

fn assert_agreement(net: &FlowNetwork, label: &str) {
    let idx = CoreIndex::build(net);
    let n = net.num_vertices() as u64;
    // A spread of terminal pairs: extremes, mid-graph, adjacent ids —
    // enough to hit core-core, periphery-core and periphery-periphery
    // combinations across the corpus.
    let pairs = [
        (0, n - 1),
        (1, n / 2),
        (n / 3, n - 2),
        (n / 2, n / 2 + 1),
        (2, 3),
        (n - 1, 0),
    ];
    for &(s, t) in &pairs {
        let (s, t) = (VertexId::new(s), VertexId::new(t));
        let full = maxflow::Algorithm::Dinic.run(net, s, t).value;
        let planned = planned_value(&idx, s, t);
        assert_eq!(
            planned,
            full,
            "{label}: plan disagrees with full solve for ({}, {}) \
             [core {} / periphery {}]",
            s.index(),
            t.index(),
            idx.core_vertex_count(),
            idx.periphery_vertex_count()
        );
    }
}

#[test]
fn erdos_renyi_unit_capacities_agree() {
    // Sparse ER leaves a real periphery; denser ER is mostly core.
    for seed in 0..8 {
        for &(n, m) in &[(60u64, 55u64), (60, 70), (60, 120)] {
            let edges = gen::erdos_renyi(n, m, seed);
            let net = FlowNetwork::from_undirected_unit(n, &edges);
            assert_agreement(&net, &format!("er n={n} m={m} seed={seed}"));
        }
    }
}

#[test]
fn erdos_renyi_varied_capacities_agree() {
    for seed in 0..8 {
        let edges = gen::erdos_renyi(50, 60, seed);
        let mut b = FlowNetworkBuilder::new(50);
        for (i, &(u, v)) in edges.iter().enumerate() {
            b.add_edge(u, v, varied_cap(i));
            b.add_edge(v, u, varied_cap(i + 1));
        }
        let net = b.build();
        assert_agreement(&net, &format!("er-varied seed={seed}"));
    }
}

#[test]
fn barabasi_albert_trees_and_dense_cores_agree() {
    for seed in 0..6 {
        // m=1: a pure tree, the all-periphery extreme.
        let edges = gen::barabasi_albert(80, 1, seed);
        let net = FlowNetwork::from_undirected_unit(80, &edges);
        assert_agreement(&net, &format!("ba m=1 seed={seed}"));
        // m=2: scale-free with a large core and pendant fringes.
        let edges = gen::barabasi_albert(80, 2, seed);
        let net = FlowNetwork::from_undirected_unit(80, &edges);
        assert_agreement(&net, &format!("ba m=2 seed={seed}"));
    }
}

#[test]
fn watts_strogatz_small_worlds_agree() {
    for seed in 0..6 {
        let edges = gen::watts_strogatz(70, 4, 0.2, seed);
        let net = FlowNetwork::from_undirected_unit(70, &edges);
        assert_agreement(&net, &format!("ws seed={seed}"));
    }
}

#[test]
fn hybrid_core_with_attached_trees_agrees() {
    // A dense ER core with explicit pendant chains and stars grafted on:
    // guarantees deep periphery trees (the pure generators rarely make
    // chains longer than 2) plus varied capacities on the tree edges.
    for seed in 0..5 {
        let core_n = 30u64;
        let edges = gen::erdos_renyi(core_n, 80, seed);
        let total = core_n + 12;
        let mut b = FlowNetworkBuilder::new(total);
        for (i, &(u, v)) in edges.iter().enumerate() {
            b.add_edge(u, v, varied_cap(i));
            b.add_edge(v, u, varied_cap(i + 3));
        }
        // Chain of depth 4 off vertex 0: 30-31-32-33.
        let mut prev = 0u64;
        for (i, x) in (core_n..core_n + 4).enumerate() {
            b.add_edge(prev, x, varied_cap(7 * i + 1));
            b.add_edge(x, prev, varied_cap(5 * i + 2));
            prev = x;
        }
        // Star off vertex 5: centre 34, leaves 35..38.
        b.add_edge(5, core_n + 4, 9);
        b.add_edge(core_n + 4, 5, 4);
        for x in core_n + 5..core_n + 9 {
            b.add_edge(core_n + 4, x, 2);
            b.add_edge(x, core_n + 4, 6);
        }
        // A second chain off vertex 9 sharing no anchor: 39-40-41.
        let mut prev = 9u64;
        for x in core_n + 9..total {
            b.add_edge(prev, x, 3);
            b.add_edge(x, prev, 8);
            prev = x;
        }
        let net = b.build();
        let idx = CoreIndex::build(&net);
        assert!(
            idx.periphery_vertex_count() >= 12,
            "grafted trees must peel"
        );
        // Exhaustive pairs over the interesting vertices: tree tips,
        // tree interiors, anchors, and far core vertices.
        let interesting: Vec<u64> = vec![0, 5, 9, 20, 33, 34, 38, 41, 31, 36];
        for &s in &interesting {
            for &t in &interesting {
                if s == t {
                    continue;
                }
                let (sv, tv) = (VertexId::new(s), VertexId::new(t));
                let full = maxflow::Algorithm::Dinic.run(&net, sv, tv).value;
                assert_eq!(
                    planned_value(&idx, sv, tv),
                    full,
                    "hybrid seed={seed} terminals ({s},{t})"
                );
            }
        }
    }
}

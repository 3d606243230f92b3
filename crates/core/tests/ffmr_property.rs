//! Randomized stress testing: FFMR must equal the Dinic oracle on
//! arbitrary random networks — the strongest check against subtle early
//! termination (the paper's movement-counter argument) and against
//! residual-view divergence between vertex copies.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream (one seed per
//! case index), so the corpus is deterministic and a failure reproduces
//! by case number.

use ffmr_core::{run_max_flow, verify, FfConfig, FfVariant, KPolicy};
use ffmr_prng::SplitMix64;
use mapreduce::{ClusterConfig, MrRuntime};
use swgraph::{FlowNetwork, FlowNetworkBuilder, VertexId};

fn ffmr_value(net: &FlowNetwork, s: VertexId, t: VertexId, variant: FfVariant) -> i64 {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.set_worker_threads(Some(2));
    let config = FfConfig::new(s, t).variant(variant).reducers(3);
    let run = run_max_flow(&mut rt, net, &config).expect("ffmr run");
    // Always audit the extracted flow, and prove it maximum.
    let flow = verify::extract_flow(rt.dfs(), &run.final_graph_path, &run.pending_deltas, net, s)
        .expect("consistent flow extraction");
    assert_eq!(flow.value, run.max_flow_value);
    maxflow::validate::check_flow(net, s, t, &flow).expect("feasible flow");
    let cut = maxflow::min_cut::extract_min_cut(net, s, &flow);
    assert!(!cut.source_side.contains(&t), "residual still augmentable");
    assert_eq!(cut.value, flow.value);
    run.max_flow_value
}

/// Draws undirected unit edges with endpoints below `max`, self-loops
/// filtered.
fn random_unit_edges(rng: &mut SplitMix64, max: u64, count: usize) -> Vec<(u64, u64)> {
    (0..count)
        .map(|_| (rng.gen_range(0..max), rng.gen_range(0..max)))
        .filter(|&(u, v)| u != v)
        .collect()
}

/// Unit-capacity undirected graphs (the paper's experimental regime).
#[test]
fn ff5_matches_oracle_on_unit_graphs() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::seed_from_u64(0xFF50 + case);
        let n = rng.gen_range(4u64..24);
        let count = rng.gen_range(4usize..70);
        let net = FlowNetwork::from_undirected_unit(n, &random_unit_edges(&mut rng, n, count));
        let s = VertexId::new(0);
        let t = VertexId::new(n - 1);
        let oracle = maxflow::Algorithm::Dinic.run(&net, s, t).value;
        assert_eq!(
            ffmr_value(&net, s, t, FfVariant::ff5()),
            oracle,
            "case {case}"
        );
    }
}

/// Arbitrary directed capacities exercise cancellation and asymmetric
/// residuals.
#[test]
fn ff1_matches_oracle_on_directed_graphs() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::seed_from_u64(0xFF10 + case);
        let n = rng.gen_range(3u64..16);
        let count = rng.gen_range(3usize..40);
        let mut b = FlowNetworkBuilder::new(n);
        for _ in 0..count {
            b.add_edge(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1i64..6),
            );
        }
        let net = b.build();
        let s = VertexId::new(0);
        let t = VertexId::new(n - 1);
        let oracle = maxflow::Algorithm::Dinic.run(&net, s, t).value;
        assert_eq!(
            ffmr_value(&net, s, t, FfVariant::ff1()),
            oracle,
            "case {case}"
        );
    }
}

/// Tiny k (k = 1) starves storage hardest; termination must still be
/// correct because rejected paths are re-sent every round.
#[test]
fn k_equals_one_still_reaches_max_flow() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0001_0000 + case);
        let n = rng.gen_range(4u64..14);
        let count = rng.gen_range(4usize..40);
        let net = FlowNetwork::from_undirected_unit(n, &random_unit_edges(&mut rng, n, count));
        let s = VertexId::new(0);
        let t = VertexId::new(n - 1);
        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
        let config = FfConfig::new(s, t)
            .variant(FfVariant::ff2())
            .k_policy(KPolicy::Fixed(1))
            .reducers(2);
        let run = run_max_flow(&mut rt, &net, &config).expect("ffmr run");
        let oracle = maxflow::Algorithm::Dinic.run(&net, s, t).value;
        assert_eq!(run.max_flow_value, oracle, "case {case}");
    }
}

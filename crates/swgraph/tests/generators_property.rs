//! Randomized stress testing of the graph substrate: every generator
//! must produce well-formed edge lists for arbitrary parameters,
//! structural properties must hold, and serialization must round-trip.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream (one seed per
//! case index), so every run covers the same deterministic corpus — a
//! failure reproduces by its case number alone.

use ffmr_prng::SplitMix64;
use swgraph::{bfs, gen, io, props, FlowNetwork, FlowNetworkBuilder, VertexId};

fn assert_well_formed(n: u64, edges: &[(u64, u64)]) {
    let mut seen = std::collections::HashSet::new();
    for &(u, v) in edges {
        assert!(u < v, "canonical order broken: ({u}, {v})");
        assert!(v < n, "endpoint {v} out of range {n}");
        assert!(seen.insert((u, v)), "duplicate edge ({u}, {v})");
    }
}

/// Draws `count` random `(u, v)` pairs with endpoints below `max`.
fn random_pairs(rng: &mut SplitMix64, max: u64, count: usize) -> Vec<(u64, u64)> {
    (0..count)
        .map(|_| (rng.gen_range(0..max), rng.gen_range(0..max)))
        .collect()
}

#[test]
fn watts_strogatz_always_well_formed() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(0x5757_0000 + case);
        let n = rng.gen_range(3u64..200);
        let half_k = rng.gen_range(1u64..4);
        let beta = rng.next_f64();
        let seed = rng.gen_range(0u64..1000);
        let k = (2 * half_k).min(n - 1) & !1;
        if k < 2 {
            continue;
        }
        let edges = gen::watts_strogatz(n, k, beta, seed);
        assert_well_formed(n, &edges);
        assert_eq!(edges.len(), (n * k / 2) as usize, "case {case}");
    }
}

#[test]
fn barabasi_albert_always_well_formed() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(0xBA00 + case);
        let n = rng.gen_range(2u64..300);
        let m = rng.gen_range(1u64..6);
        let seed = rng.gen_range(0u64..1000);
        let edges = gen::barabasi_albert(n, m, seed);
        assert_well_formed(n, &edges);
        // Connected by construction.
        let net = FlowNetwork::from_undirected_unit(n, &edges);
        assert_eq!(props::component_sizes(&net)[0] as u64, n, "case {case}");
    }
}

#[test]
fn erdos_renyi_always_well_formed() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(0xE600 + case);
        let n = rng.gen_range(2u64..100);
        let seed = rng.gen_range(0u64..1000);
        let frac = rng.next_f64() * 0.9;
        let possible = n * (n - 1) / 2;
        let m = (possible as f64 * frac) as u64;
        let edges = gen::erdos_renyi(n, m, seed);
        assert_well_formed(n, &edges);
        assert_eq!(edges.len() as u64, m, "case {case}");
    }
}

#[test]
fn bfs_distances_satisfy_triangle_inequality() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(0xBF50 + case);
        let n = rng.gen_range(2u64..80);
        let count = rng.gen_range(1usize..160);
        let edges: Vec<(u64, u64)> = random_pairs(&mut rng, n, count)
            .into_iter()
            .filter(|&(u, v)| u != v)
            .collect();
        let net = FlowNetwork::from_undirected_unit(n, &edges);
        let d = bfs::bfs_distances(&net, VertexId::new(0));
        // Adjacent vertices differ by at most 1 in distance.
        for &(u, v) in &edges {
            match (d[u as usize], d[v as usize]) {
                (Some(du), Some(dv)) => {
                    assert!(
                        du.abs_diff(dv) <= 1,
                        "case {case}: edge ({u},{v}): {du} vs {dv}"
                    );
                }
                (None, None) => {}
                _ => panic!("case {case}: edge with one endpoint unreachable"),
            }
        }
    }
}

#[test]
fn edge_list_io_round_trips_any_network() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(0x1000 + case);
        let n = rng.gen_range(1u64..50);
        let count = rng.gen_range(0usize..100);
        let mut b = FlowNetworkBuilder::new(n);
        for _ in 0..count {
            b.add_edge(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1i64..100),
            );
        }
        let net = b.build();
        let mut text = Vec::new();
        io::write_edge_list(&net, &mut text).unwrap();
        let back = io::read_edge_list(text.as_slice()).unwrap().build();
        // Vertex count may shrink for trailing isolated vertices; compare
        // edge structure.
        assert_eq!(net.num_edge_pairs(), back.num_edge_pairs(), "case {case}");
        for e in net.capacitated_edges() {
            let (u, v) = (net.tail(e), net.head(e));
            let found = back
                .out_edges(u)
                .any(|e2| back.head(e2) == v && back.capacity(e2) == net.capacity(e));
            assert!(found, "case {case}: edge {u}->{v} lost in round trip");
        }
    }
}

#[test]
fn super_terminals_never_reduce_flow() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(0x5700 + case);
        let n = rng.gen_range(20u64..120);
        let m = rng.gen_range(2u64..4);
        let seed = rng.gen_range(0u64..100);
        let w = rng.gen_range(1usize..6);
        let edges = gen::barabasi_albert(n, m, seed);
        let net = FlowNetwork::from_undirected_unit(n, &edges);
        if let Ok(st) = swgraph::super_st::attach_super_terminals(&net, w, 2, seed) {
            // Flow via a super source over w terminals is at least the
            // flow from any single one of those terminals to any sink
            // terminal (the super edges are unbounded).
            let single = maxflow_value(&st.network, st.source_terminals[0], st.sink_terminals[0]);
            let combined = maxflow_value(&st.network, st.source, st.sink);
            assert!(combined >= single.min(1), "case {case}");
        }
    }
}

fn maxflow_value(net: &FlowNetwork, s: VertexId, t: VertexId) -> i64 {
    // Local Edmonds–Karp to avoid a circular dev-dependency on maxflow.
    use std::collections::VecDeque;
    let mut flows = vec![0i64; net.num_directed_edges()];
    let n = net.num_vertices();
    let mut total = 0;
    loop {
        let mut parent = vec![None; n];
        let mut visited = vec![false; n];
        visited[s.index()] = true;
        let mut q = VecDeque::from([s]);
        let mut found = false;
        'bfs: while let Some(u) = q.pop_front() {
            for e in net.out_edges(u) {
                let v = net.head(e);
                if !visited[v.index()] && net.capacity(e) - flows[e.index()] > 0 {
                    visited[v.index()] = true;
                    parent[v.index()] = Some(e);
                    if v == t {
                        found = true;
                        break 'bfs;
                    }
                    q.push_back(v);
                }
            }
        }
        if !found {
            return total;
        }
        let mut bottleneck = i64::MAX;
        let mut cur = t;
        while cur != s {
            let e: swgraph::EdgeId = parent[cur.index()].unwrap();
            bottleneck = bottleneck.min(net.capacity(e) - flows[e.index()]);
            cur = net.tail(e);
        }
        let mut cur = t;
        while cur != s {
            let e: swgraph::EdgeId = parent[cur.index()].unwrap();
            flows[e.index()] += bottleneck;
            flows[e.reverse().index()] -= bottleneck;
            cur = net.tail(e);
        }
        total += bottleneck;
    }
}

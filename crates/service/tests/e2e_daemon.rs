//! End-to-end daemon test: a real `ffmrd` server on loopback, driven by
//! concurrent TCP clients over the wire protocol.
//!
//! Covers the full serving story in one scenario: mixed cached/uncached
//! queries on two graph families, all answered in memory (from the cut
//! tree once it is built; before that, and always on a graph with
//! one-way capacities, by the local search), cache hits on repeated terminal
//! sets, and a clean shutdown that leaves no thread hanging. Load
//! shedding is `server.rs`'s to test: its tests wait on the server's own
//! queue counts instead of sleeping.

use std::sync::Arc;
use std::time::Duration;

use ffmr_service::engine::{EngineConfig, QueryEngine};
use ffmr_service::server::{serve, ServerConfig};
use ffmr_service::{Client, GraphStore, Message};
use swgraph::{gen, FlowNetwork, FlowNetworkBuilder, VertexId};

fn message(head: &str, dataset: &str, source: u64, sink: u64) -> Message {
    Message::new(head)
        .field("dataset", dataset)
        .field("source", source)
        .field("sink", sink)
}

/// `net` with one more unit of capacity one way on its first edge pair:
/// no cut tree, so plain queries take the solver path.
fn one_way(net: &FlowNetwork) -> FlowNetwork {
    let mut b = FlowNetworkBuilder::new(net.num_vertices() as u64);
    for e in net.capacitated_edges() {
        b.add_edge(net.tail(e).raw(), net.head(e).raw(), net.capacity(e));
    }
    let first = swgraph::EdgeId::new(0);
    b.add_edge(net.head(first).raw(), net.tail(first).raw(), 1);
    b.build()
}

/// Eight concurrent clients over two datasets, with every answer
/// checked against an oracle. "small" has one one-way unit, so its
/// queries exercise the solver path and the cache; "large" is
/// symmetric, so its queries may be read off its cut tree.
#[test]
fn concurrent_mixed_queries_against_live_daemon() {
    // "small" is scale-free; "large" is a Watts–Strogatz ring.
    let small_n = 500;
    let small = one_way(&FlowNetwork::from_undirected_unit(
        small_n,
        &gen::barabasi_albert(small_n, 3, 11),
    ));
    let large_n = 700;
    let large =
        FlowNetwork::from_undirected_unit(large_n, &gen::watts_strogatz(large_n, 4, 0.2, 5));

    let store = Arc::new(GraphStore::new());
    store.insert_network("small", small.clone());
    store.insert_network("large", large.clone());
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        EngineConfig::default(),
    ));
    let handle = serve(
        "127.0.0.1:0",
        engine,
        &ServerConfig {
            workers: 4,
            queue_depth: 16,
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Oracles computed locally, once.
    let dinic = |net: &FlowNetwork, s: u64, t: u64| {
        maxflow::Algorithm::Dinic
            .run(net, VertexId::new(s), VertexId::new(t))
            .value
    };
    let small_pairs: Vec<(u64, u64)> = vec![(0, 499), (1, 498), (2, 497)];
    let large_pairs: Vec<(u64, u64)> = vec![(0, 699), (1, 698)];

    let mut threads = Vec::new();
    // 6 distinct queries + 2 repeats of the first small pair = 8 clients.
    for (i, &(s, t)) in small_pairs.iter().enumerate() {
        for repeat in 0..if i == 0 { 3 } else { 1 } {
            let expected = dinic(&small, s, t);
            threads.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let r = client.request(&message("maxflow", "small", s, t)).unwrap();
                assert_eq!(r.head, "ok", "repeat {repeat}: {r:?}");
                assert_eq!(r.get("flow"), Some(expected.to_string().as_str()));
                assert_eq!(
                    r.get("solver"),
                    Some("local"),
                    "the local search answers first"
                );
                // A duplicate racing the first solve is coalesced onto
                // it rather than served from the cache.
                r.get("cached") == Some("1") || r.get("coalesced") == Some("1")
            }));
        }
    }
    for &(s, t) in &large_pairs {
        let expected = dinic(&large, s, t);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.set_timeout(Some(Duration::from_secs(120))).unwrap();
            let r = client.request(&message("maxflow", "large", s, t)).unwrap();
            assert_eq!(r.head, "ok", "{r:?}");
            assert_eq!(r.get("flow"), Some(expected.to_string().as_str()));
            assert!(
                matches!(r.get("solver"), Some("tree" | "local")),
                "answered in memory: {r:?}"
            );
            r.get("cached").unwrap() == "1"
        }));
    }
    // One more concurrent client exercising a cheap inline verb.
    threads.push(std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let r = client.request(&Message::new("ping")).unwrap();
        assert_eq!(r.head, "ok");
        false
    }));
    assert!(
        threads.len() >= 8,
        "the scenario requires 8+ concurrent clients"
    );

    let cache_hits = threads
        .into_iter()
        .map(|t| t.join().expect("client thread must not panic"))
        .filter(|&hit| hit)
        .count();
    // The (0, 499) pair ran three times; at least one of the repeats
    // must have reused the first solve: from the cache, or coalesced
    // onto it while it was still in flight.
    assert!(cache_hits >= 1, "repeated terminal set never hit the cache");

    // Re-asking a settled query is a guaranteed hit.
    let mut client = Client::connect(addr).unwrap();
    let r = client
        .request(&message("maxflow", "small", 0, 499))
        .unwrap();
    assert_eq!(r.get("cached"), Some("1"));

    // Snapshot swap invalidates: same name, different graph, new answer.
    store.insert_network(
        "small",
        one_way(&FlowNetwork::from_undirected_unit(500, &[(0, 499)])),
    );
    let r = client
        .request(&message("maxflow", "small", 0, 499))
        .unwrap();
    assert_eq!(
        r.get("cached"),
        Some("0"),
        "epoch bump must fence the cache"
    );
    assert_eq!(r.get("flow"), Some("1"));

    handle.shutdown();
}

//! Concurrency stress: many client threads firing mixed queries at one
//! engine while the snapshot is repeatedly swapped underneath them, and
//! the same mix as seeded single-threaded schedules of the engine's two
//! stages.
//!
//! The invariant under test is epoch consistency: every response names
//! the epoch it was answered against, and the flow value must be the
//! correct answer *for that epoch's graph* — never a hybrid of two
//! snapshots and never a stale cache entry served across a reload.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ffmr_prng::SplitMix64;
use ffmr_service::engine::{EngineConfig, QueryEngine, Route, Work};
use ffmr_service::protocol::{status, Message};
use ffmr_service::GraphStore;
use maxflow::Algorithm;
use swgraph::{Capacity, FlowNetwork, FlowNetworkBuilder, VertexId};

const VERTICES: u64 = 8;
const SOURCE: u64 = 0;
const SINK: u64 = 7;
const EPOCHS: u64 = 6;

/// The epoch-`k` graph: `k` disjoint two-edge paths from SOURCE to SINK,
/// so its max flow is exactly `k`.
fn variant(k: u64) -> FlowNetwork {
    let mut edges = Vec::new();
    for i in 0..k {
        edges.push((SOURCE, 1 + i));
        edges.push((1 + i, SINK));
    }
    FlowNetwork::from_undirected_unit(VERTICES, &edges)
}

#[test]
fn concurrent_queries_survive_snapshot_swaps() {
    let store = Arc::new(GraphStore::new());
    assert_eq!(store.insert_network("g", variant(1)), 1);
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        EngineConfig {
            cache_capacity: 16, // small enough to evict under load
            ..EngineConfig::default()
        },
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let checked = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..6)
        .map(|worker: u64| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let checked = Arc::clone(&checked);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let mix = (worker + i) % 4;
                    let head = if mix == 3 { "mincut" } else { "maxflow" };
                    // The reversed pair has the same flow on these
                    // undirected graphs, under its own cache key.
                    let (s, t) = if mix == 1 {
                        (SINK, SOURCE)
                    } else {
                        (SOURCE, SINK)
                    };
                    let mut q = Message::new(head)
                        .field("dataset", "g")
                        .field("source", s)
                        .field("sink", t);
                    if mix == 2 {
                        q.push("algorithm", "auto");
                    }
                    let r = engine.execute(&q);
                    assert_eq!(r.head, status::OK, "{q:?} → {r:?}");
                    let epoch: u64 = r.get("epoch").unwrap().parse().unwrap();
                    let flow: u64 = r.get("flow").unwrap().parse().unwrap();
                    assert!(
                        (1..=EPOCHS).contains(&epoch),
                        "epoch {epoch} was never swapped in"
                    );
                    // Epoch k's graph has max flow exactly k: any other
                    // value means a stale or hybrid answer leaked.
                    assert_eq!(
                        flow, epoch,
                        "answer {flow} is wrong for epoch {epoch}: {r:?}"
                    );
                    checked.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Swap the snapshot underneath the query storm, pausing briefly so
    // every epoch actually serves some queries.
    for k in 2..=EPOCHS {
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(store.insert_network("g", variant(k)), k);
    }
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker panicked (invariant violated)");
    }
    assert!(
        checked.load(Ordering::Relaxed) > 100,
        "stress test did real work"
    );

    // Cache stats stayed coherent through the churn.
    let stats = engine.cache_stats();
    assert!(stats.entries <= 16, "capacity respected: {stats:?}");
    assert!(stats.hits + stats.misses > 0, "{stats:?}");

    // The final epoch answers deterministically and caches normally (a
    // `mincut` is never read off the cut tree, which never caches).
    let q = Message::new("mincut")
        .field("dataset", "g")
        .field("source", SOURCE)
        .field("sink", SINK);
    let warm = engine.execute(&q);
    assert_eq!(warm.get("epoch"), Some("6"));
    assert_eq!(warm.get("flow"), Some("6"));
    let hit = engine.execute(&q);
    assert_eq!(hit.get("cached"), Some("1"), "{hit:?}");
    assert_eq!(hit.get("flow"), Some("6"));
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

/// A barrage of identical expensive queries lands while the first is
/// still solving: followers coalesce onto the leader's solve (or find
/// the answer it published) — every response agrees, and exactly one
/// query solves.
#[test]
fn identical_query_storms_coalesce() {
    let n = 400;
    let net = one_way(&FlowNetwork::from_undirected_unit(
        n,
        &swgraph::gen::barabasi_albert(n, 3, 17),
    ));
    let store = Arc::new(GraphStore::new());
    store.insert_network("g", net);
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        EngineConfig::default(),
    ));

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine.execute(
                    &Message::new("maxflow")
                        .field("dataset", "g")
                        .field("source", 0)
                        .field("sink", 399),
                )
            })
        })
        .collect();
    let responses: Vec<Message> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let first_flow = responses[0].get("flow").unwrap();
    let (mut led, mut followed, mut hit) = (0u64, 0u64, 0u64);
    for r in &responses {
        assert_eq!(r.head, status::OK, "{r:?}");
        assert_eq!(r.get("flow"), Some(first_flow), "all answers agree");
        let cached = r.get("cached") == Some("1");
        let coalesced = r.get("coalesced") == Some("1");
        match (cached, coalesced) {
            (true, _) => hit += 1,
            (false, true) => followed += 1,
            (false, false) => led += 1,
        }
    }
    assert_eq!(led, 1, "exactly one query solved");
    // Every response took exactly one of the three paths — nobody fell
    // through to an unaccounted solve.
    assert_eq!(
        led + followed + hit,
        responses.len() as u64,
        "{led} led / {followed} followed / {hit} hit"
    );
    // One counted lookup per query, made by `route`.
    let stats = engine.cache_stats();
    assert!(
        stats.misses <= responses.len() as u64,
        "followers must not fall through to the solver: {led} leaders, {stats:?}"
    );
}

/// Seeded schedules of the engine's two stages on one thread: each seed
/// interleaves `route` and `run` steps of plain, `w 2` and `mincut`
/// queries on one-way snapshots (no cut tree) with snapshot swaps.
/// Every key is solved at most once per epoch, and every reply's flow is
/// Dinic's on the graph of the epoch it names.
#[test]
fn seeded_schedules_solve_each_key_once_per_epoch() {
    let n = 60u64;
    let graphs: Vec<FlowNetwork> = (0..3)
        .map(|seed| {
            let edges = swgraph::gen::barabasi_albert(n, 2, seed);
            one_way(&FlowNetwork::from_undirected_unit(n, &edges))
        })
        .collect();
    let pair = |head: &str, s: u64, t: u64| {
        Message::new(head)
            .field("dataset", "g")
            .field("source", s)
            .field("sink", t)
    };
    let queries = [
        pair("maxflow", 0, n - 1),
        pair("maxflow", 7, 30),
        pair("mincut", 0, n - 1),
        Message::new("maxflow").field("dataset", "g").field("w", 2),
    ];
    // Dinic's flow for each query on each graph; a `w` query on the
    // network its terminals make with the engine's default selection.
    let config = EngineConfig::default();
    let dinic = |net: &FlowNetwork, s: u64, t: u64| {
        Algorithm::Dinic
            .run(net, VertexId::new(s), VertexId::new(t))
            .value
    };
    let expected: Vec<Vec<Capacity>> = graphs
        .iter()
        .map(|net| {
            let st = swgraph::super_st::attach_super_terminals(
                net,
                2,
                config.super_min_degree,
                config.super_seed,
            )
            .unwrap();
            vec![
                dinic(net, 0, n - 1),
                dinic(net, 7, 30),
                dinic(net, 0, n - 1),
                dinic(&st.network, n, n + 1),
            ]
        })
        .collect();

    for seed in 0..200 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let store = Arc::new(GraphStore::new());
        // The graph each epoch (from 1) swaps in: more than the swaps.
        let epochs: Vec<usize> = (0..25).map(|_| rng.gen_range(0..graphs.len())).collect();
        store.insert_network("g", graphs[epochs[0]].clone());
        let mut swapped = 1;
        let engine = QueryEngine::new(Arc::clone(&store), EngineConfig::default());
        let mut pending: Vec<(usize, Work)> = Vec::new();
        let mut solves: HashMap<(usize, u64), u32> = HashMap::new();
        let mut check = |query: usize, r: &Message| {
            assert_eq!(r.head, status::OK, "seed {seed}, query {query}: {r:?}");
            let epoch: u64 = r.get("epoch").unwrap().parse().unwrap();
            let flow: Capacity = r.get("flow").unwrap().parse().unwrap();
            let graph = epochs[usize::try_from(epoch - 1).unwrap()];
            assert_eq!(
                flow, expected[graph][query],
                "seed {seed}, query {query}, epoch {epoch}: {r:?}"
            );
            if (r.get("cached"), r.get("coalesced")) == (Some("0"), Some("0")) {
                let count = solves.entry((query, epoch)).or_default();
                *count += 1;
                assert_eq!(
                    *count, 1,
                    "seed {seed}: query {query} solved twice at epoch {epoch}"
                );
            }
        };
        for _ in 0..24 {
            match rng.gen_range(0..10) {
                0..=4 => {
                    let query = rng.gen_range(0..queries.len());
                    match engine.route(&queries[query]) {
                        Route::Reply(r) => check(query, &r),
                        Route::Work(work) => pending.push((query, work)),
                    }
                }
                5..=8 if !pending.is_empty() => {
                    let (query, work) = pending.swap_remove(rng.gen_range(0..pending.len()));
                    check(query, &engine.run(work, Duration::ZERO));
                }
                _ => {
                    store.insert_network("g", graphs[epochs[swapped]].clone());
                    swapped += 1;
                }
            }
        }
        while !pending.is_empty() {
            let (query, work) = pending.swap_remove(rng.gen_range(0..pending.len()));
            check(query, &engine.run(work, Duration::ZERO));
        }
    }
}

/// A deadline expiring mid-search: the leader and every coalesced
/// follower get the timeout error back (nobody hangs on the leader's
/// solving entry), the cache is left unpoisoned, and a later sane-deadline query
/// answers correctly on the same route.
#[test]
fn timeouts_on_the_search_path_release_followers_and_spare_the_cache() {
    let n = 200u64;
    let mut edges = swgraph::gen::barabasi_albert(n, 3, 7);
    // Pendant chain n+1 — n — 0: the chain's unit edges bound every
    // flow out of its tip.
    edges.push((0, n));
    edges.push((n, n + 1));
    let net = one_way(&FlowNetwork::from_undirected_unit(n + 2, &edges));
    let store = Arc::new(GraphStore::new());
    store.insert_network("g", net.clone());
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        EngineConfig::default(),
    ));
    let ask = |timeout_ms: u64| {
        Message::new("maxflow")
            .field("dataset", "g")
            .field("source", n + 1)
            .field("sink", 150)
            .field("timeout-ms", timeout_ms)
    };

    // An already-expired deadline dies at the search's first cancel
    // poll. Leader and followers all must see the timeout error.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let q = ask(0);
            std::thread::spawn(move || engine.execute(&q))
        })
        .collect();
    for t in threads {
        let r = t.join().expect("no follower may hang or panic");
        assert_eq!(r.head, status::ERROR, "{r:?}");
        assert!(r.get("message").unwrap().contains("timeout"), "{r:?}");
    }

    // The failed searches must not have cached anything.
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 0, "a timed-out solve poisoned the cache");

    // A sane deadline answers via the local search with the right
    // value...
    let good = engine.execute(&ask(30_000));
    assert_eq!(good.head, status::OK, "{good:?}");
    assert_eq!(
        (good.get("plan"), good.get("solver")),
        (Some("full"), Some("local")),
        "{good:?}"
    );
    assert_eq!(good.get("cached"), Some("0"));
    assert_eq!(good.get("flow"), Some("1"), "the chain's bottleneck is 1");
    // ...Dinic's, so no partial state leaked out of the cancelled runs.
    let dinic = Algorithm::Dinic.run(&net, VertexId::new(n + 1), VertexId::new(150));
    assert_eq!(good.get("flow"), Some(dinic.value.to_string().as_str()));
}

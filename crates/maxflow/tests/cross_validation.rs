//! Cross-validation of every sequential solver against each other on
//! random and adversarial networks, plus seeded randomized testing of the
//! max-flow/min-cut relationship.

use ffmr_prng::SplitMix64;
use maxflow::cut_tree::CutTree;
use maxflow::{local, min_cut, validate, Algorithm, Cancel, Cancelled};
use swgraph::{gen, Capacity, FlowNetwork, FlowNetworkBuilder, VertexId};

fn check_all_agree(net: &FlowNetwork, s: VertexId, t: VertexId) -> i64 {
    let oracle = Algorithm::Dinic.run(net, s, t);
    validate::check_flow(net, s, t, &oracle).expect("dinic produces a valid flow");
    for algo in Algorithm::ALL {
        let f = algo.run(net, s, t);
        assert_eq!(f.value, oracle.value, "{algo} disagrees with dinic");
        validate::check_flow(net, s, t, &f)
            .unwrap_or_else(|e| panic!("{algo} produced an invalid flow: {e}"));
    }
    let cut = min_cut::extract_min_cut(net, s, &oracle);
    assert_eq!(cut.value, oracle.value, "min cut != max flow");
    check_local(net, s, t, oracle.value);
    oracle.value
}

/// The local search agrees with `expected`, its flow validates, its
/// certificate names a cut that separates the terminals at a capacity
/// equal to the value, and its reported cut is `extract_min_cut`'s.
fn check_local(net: &FlowNetwork, s: VertexId, t: VertexId, expected: Capacity) {
    let (found, _) = local::LocalSearch::new()
        .run(net, &[s], &[t], &Cancel::never())
        .expect("never cancelled");
    assert_eq!(found.value, expected, "local disagrees with dinic");
    let flow = found.to_flow_result(net);
    validate::check_flow(net, s, t, &flow)
        .unwrap_or_else(|e| panic!("local produced an invalid flow: {e}"));
    assert!(found.on_source_side(s) && !found.on_source_side(t));
    let cut: Capacity = net
        .capacitated_edges()
        .filter(|&e| found.on_source_side(net.tail(e)) && !found.on_source_side(net.head(e)))
        .map(|e| net.capacity(e))
        .fold(0, Capacity::saturating_add);
    assert_eq!(
        cut, found.value,
        "{:?} is not a minimum cut",
        found.certificate
    );
    assert_eq!(found.min_cut(net), min_cut::extract_min_cut(net, s, &flow));
}

#[test]
fn all_algorithms_agree_on_small_world_graphs() {
    for seed in 0..5 {
        let n = 300;
        let edges = gen::barabasi_albert(n, 3, seed);
        let net = FlowNetwork::from_undirected_unit(n, &edges);
        let v = check_all_agree(&net, VertexId::new(0), VertexId::new(n - 1));
        assert!(v > 0, "BA graphs are connected");
    }
}

#[test]
fn all_algorithms_agree_on_watts_strogatz() {
    for seed in 0..5 {
        let n = 200;
        let edges = gen::watts_strogatz(n, 6, 0.2, seed);
        let net = FlowNetwork::from_undirected_unit(n, &edges);
        check_all_agree(&net, VertexId::new(0), VertexId::new(n / 2));
    }
}

#[test]
fn all_algorithms_agree_on_grids() {
    let net = FlowNetwork::from_undirected_unit(100, &gen::grid(10, 10));
    let v = check_all_agree(&net, VertexId::new(0), VertexId::new(99));
    // Corner degree bounds the flow on a unit grid.
    assert_eq!(v, 2);
}

#[test]
fn super_terminal_flow_grows_with_w() {
    let n = 800;
    let edges = gen::barabasi_albert(n, 4, 9);
    let base = FlowNetwork::from_undirected_unit(n, &edges);
    let mut last = 0;
    for w in [1usize, 4, 16] {
        let st = swgraph::super_st::attach_super_terminals(&base, w, 4, 31).unwrap();
        let v = check_all_agree(&st.network, st.source, st.sink);
        assert!(
            v >= last,
            "flow should not shrink as w grows ({last} -> {v} at w={w})"
        );
        last = v;
    }
    assert!(last > 0);
}

#[test]
fn directed_asymmetric_capacities() {
    let mut b = FlowNetworkBuilder::new(5);
    b.add_edge(0, 1, 7);
    b.add_edge(1, 2, 3);
    b.add_edge(2, 1, 9);
    b.add_edge(1, 3, 2);
    b.add_edge(2, 4, 8);
    b.add_edge(3, 4, 10);
    let net = b.build();
    let (s, t) = (VertexId::new(0), VertexId::new(4));
    let value = check_all_agree(&net, s, t);
    check_local(&net, s, t, value);
    // Against the grain every arc is a residual arc of capacity 0.
    let value = check_all_agree(&net, t, s);
    assert_eq!(value, 0);
    check_local(&net, t, s, value);
}

/// The local search's own edge cases, each one answered: terminals in
/// different components, adjacent terminals, and a flow below the
/// trivial bound, which only ends when no augmenting path is left.
#[test]
fn local_search_answers_the_edge_cases() {
    let v = VertexId::new;
    let split = FlowNetwork::from_undirected_unit(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    assert_eq!(check_all_agree(&split, v(0), v(5)), 0);
    check_local(&split, v(0), v(5), 0);

    let adjacent = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
    let value = check_all_agree(&adjacent, v(0), v(2));
    assert_eq!(value, 3);
    check_local(&adjacent, v(0), v(2), value);

    // Two 4-cliques joined by one bridge: both terminals have degree 3,
    // the flow is 1.
    let mut edges = Vec::new();
    for base in [0u64, 4] {
        for a in base..base + 4 {
            for b in a + 1..base + 4 {
                edges.push((a, b));
            }
        }
    }
    edges.push((3, 4));
    let bridged = FlowNetwork::from_undirected_unit(8, &edges);
    let value = check_all_agree(&bridged, v(0), v(7));
    assert_eq!(value, 1);
    let (found, _) = local::LocalSearch::new()
        .run(&bridged, &[v(0)], &[v(7)], &Cancel::never())
        .unwrap();
    assert!(matches!(
        found.certificate,
        local::Certificate::SourceReach(_) | local::Certificate::SinkReach(_)
    ));
}

/// Random directed multigraphs with random capacities: every solver
/// agrees, every flow validates, min-cut matches. Cases come from a
/// seeded SplitMix64 stream, so the corpus is deterministic.
#[test]
fn solvers_agree_on_random_directed_networks() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0xD1D0 + case);
        let n = rng.gen_range(2u64..25);
        let count = rng.gen_range(0usize..80);
        let mut b = FlowNetworkBuilder::new(n);
        for _ in 0..count {
            b.add_edge(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1i64..20),
            );
        }
        let net = b.build();
        let s = VertexId::new(rng.gen_range(0..n));
        let t = VertexId::new(rng.gen_range(0..n));
        if s == t {
            continue;
        }
        check_all_agree(&net, s, t);
    }
}

/// The bulk-synchronous parallel push-relabel must return the identical
/// per-edge flow assignment (and identical pulse/relabel counts) no
/// matter how many worker threads execute the pulses.
#[test]
fn parallel_pr_is_thread_count_invariant_on_random_networks() {
    let solve = |net: &FlowNetwork, s, t, threads| {
        maxflow::parallel_push_relabel::solve(net, s, t, threads, &maxflow::Cancel::never())
            .expect("never-cancel solve cannot fail")
    };
    for case in 0..24u64 {
        let mut rng = SplitMix64::seed_from_u64(0x9A11 + case);
        let n = rng.gen_range(2u64..40);
        let count = rng.gen_range(0usize..120);
        let mut b = FlowNetworkBuilder::new(n);
        for _ in 0..count {
            b.add_edge(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1i64..30),
            );
        }
        let net = b.build();
        let s = VertexId::new(0);
        let t = VertexId::new(n - 1);
        let (single, single_report) = solve(&net, s, t, 1);
        validate::check_flow(&net, s, t, &single).expect("valid flow");
        for threads in [2, 3, 8] {
            let (multi, multi_report) = solve(&net, s, t, threads);
            assert_eq!(multi, single, "case {case}, {threads} threads");
            assert_eq!(
                (
                    multi_report.phases,
                    multi_report.relabels,
                    multi_report.pushes
                ),
                (
                    single_report.phases,
                    single_report.relabels,
                    single_report.pushes
                ),
                "case {case}: schedule diverged at {threads} threads"
            );
        }
    }
}

/// Unit-capacity undirected graphs: flow is bounded by both terminal
/// degrees and equals the vertex connectivity bound on edges.
#[test]
fn unit_flow_bounded_by_terminal_degrees() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0B0D + case);
        let n = rng.gen_range(2u64..30);
        let count = rng.gen_range(1usize..120);
        let edges: Vec<(u64, u64)> = (0..count)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|&(u, v)| u != v)
            .collect();
        let net = FlowNetwork::from_undirected_unit(n, &edges);
        let s = VertexId::new(0);
        let t = VertexId::new(n - 1);
        let v = check_all_agree(&net, s, t);
        // Parallel input edges merge by capacity summation, so the bound
        // is outgoing capacity, not degree.
        assert!(v <= net.capacity_out(s), "case {case}");
        assert!(v <= net.capacity_out(t), "case {case}");
    }
}

/// Augmenting capacity of one cut edge by delta raises the max flow by
/// at most delta (monotonicity / sensitivity property).
#[test]
fn flow_is_monotone_in_capacity() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0770 + case);
        let n = rng.gen_range(3u64..15);
        let count = rng.gen_range(1usize..40);
        let bump = rng.gen_range(1i64..10);
        let edges: Vec<(u64, u64, i64)> = (0..count)
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(1i64..10),
                )
            })
            .collect();
        let build = |extra: i64| {
            let mut b = FlowNetworkBuilder::new(n);
            for (i, &(u, v, c)) in edges.iter().enumerate() {
                let c = if i == 0 { c + extra } else { c };
                b.add_edge(u, v, c);
            }
            b.build()
        };
        let s = VertexId::new(0);
        let t = VertexId::new(n - 1);
        let base = Algorithm::Dinic.run(&build(0), s, t).value;
        let bumped = Algorithm::Dinic.run(&build(bump), s, t).value;
        assert!(bumped >= base, "case {case}");
        assert!(bumped <= base + bump, "case {case}");
    }
}

fn cut_tree(net: &FlowNetwork) -> CutTree {
    CutTree::build(net, &Cancel::never())
        .expect("never cancelled")
        .expect("symmetric capacities")
}

/// A symmetric network with capacities 1..=5 per undirected edge, so
/// that cuts are not all at a terminal.
fn varied_undirected(n: u64, edges: &[(u64, u64)]) -> FlowNetwork {
    let mut b = FlowNetworkBuilder::new(n);
    for (i, &(u, v)) in edges.iter().enumerate() {
        b.add_undirected(u, v, 1 + (i as Capacity * 7) % 5);
    }
    b.build()
}

/// The tree's answer for every pair equals Dinic's.
fn assert_tree_matches_dinic_on_every_pair(net: &FlowNetwork, label: &str) {
    let tree = cut_tree(net);
    let n = net.num_vertices() as u64;
    for s in 0..n {
        for t in s + 1..n {
            let (s, t) = (VertexId::new(s), VertexId::new(t));
            let dinic = Algorithm::Dinic.run(net, s, t).value;
            assert_eq!(tree.max_flow(s, t), dinic, "{label} ({s:?}, {t:?})");
            assert_eq!(tree.max_flow(t, s), dinic, "{label} ({t:?}, {s:?})");
        }
    }
}

#[test]
fn cut_tree_matches_dinic_on_every_pair_of_the_small_corpus() {
    for seed in 0..2 {
        let edges = gen::barabasi_albert(60, 3, seed);
        let unit = FlowNetwork::from_undirected_unit(60, &edges);
        assert_tree_matches_dinic_on_every_pair(&unit, &format!("ba seed {seed}"));
        let varied = varied_undirected(60, &edges);
        assert_tree_matches_dinic_on_every_pair(&varied, &format!("varied ba seed {seed}"));
        let edges = gen::watts_strogatz(50, 4, 0.2, seed);
        let ws = FlowNetwork::from_undirected_unit(50, &edges);
        assert_tree_matches_dinic_on_every_pair(&ws, &format!("ws seed {seed}"));
    }
    let grid = FlowNetwork::from_undirected_unit(49, &gen::grid(7, 7));
    assert_tree_matches_dinic_on_every_pair(&grid, "grid");
    let grid = varied_undirected(36, &gen::grid(6, 6));
    assert_tree_matches_dinic_on_every_pair(&grid, "varied grid");
}

/// The tree's answer for 200 random pairs equals Dinic's.
fn assert_tree_matches_dinic_on_random_pairs(net: &FlowNetwork, rng: &mut SplitMix64, label: &str) {
    let tree = cut_tree(net);
    let n = net.num_vertices() as u64;
    for _ in 0..200 {
        let s = rng.gen_range(0..n);
        let t = (s + rng.gen_range(1..n)) % n;
        let (s, t) = (VertexId::new(s), VertexId::new(t));
        let dinic = Algorithm::Dinic.run(net, s, t).value;
        assert_eq!(tree.max_flow(s, t), dinic, "{label} ({s:?}, {t:?})");
    }
}

/// FB2'–FB4' at the default experiment scale (the daemon's benchmark
/// graph is FB4'): 200 random pairs each.
#[test]
fn cut_tree_matches_dinic_on_the_fb_family() {
    let scale = 50;
    let edges = gen::social_crawl(&gen::FB_CHECKPOINTS, scale, 5_000, 42);
    let mut rng = SplitMix64::seed_from_u64(7);
    for checkpoint in &gen::FB_CHECKPOINTS[1..4] {
        let n = (checkpoint.vertices / scale).max(2);
        let net = FlowNetwork::from_undirected_unit(n, &gen::induced_prefix(&edges, n));
        assert_tree_matches_dinic_on_random_pairs(&net, &mut rng, checkpoint.name);
    }
}

/// R-MAT 2^12, whose cuts are not all at a terminal (the FB' trees are
/// stars): 200 random pairs.
#[test]
fn cut_tree_matches_dinic_on_rmat() {
    let net = FlowNetwork::from_undirected_unit(1 << 12, &gen::rmat_graph500(12, 7));
    let mut rng = SplitMix64::seed_from_u64(7);
    assert_tree_matches_dinic_on_random_pairs(&net, &mut rng, "rmat 2^12");
}

/// The Gomory–Hu property: removing the lightest edge on the tree path
/// leaves the side below it, and that side is a minimum cut in the
/// network — it separates the pair at a capacity equal to the value.
#[test]
fn the_lightest_tree_edge_names_a_minimum_cut() {
    let edges = gen::barabasi_albert(150, 3, 4);
    let mut checked = 0;
    for net in [
        FlowNetwork::from_undirected_unit(150, &edges),
        varied_undirected(150, &edges),
    ] {
        let tree = cut_tree(&net);
        let n = net.num_vertices() as u64;
        let mut rng = SplitMix64::seed_from_u64(11);
        for _ in 0..50 {
            let s = rng.gen_range(0..n);
            let t = (s + rng.gen_range(1..n)) % n;
            let (s, t) = (VertexId::new(s), VertexId::new(t));
            let (below, value) = tree.min_edge(s, t).expect("distinct terminals");
            let under = |mut v: VertexId| loop {
                if v == below {
                    return true;
                }
                match tree.parent(v) {
                    Some((p, _)) => v = p,
                    None => return false,
                }
            };
            assert_ne!(under(s), under(t), "the side separates ({s:?}, {t:?})");
            let cut: Capacity = net
                .capacitated_edges()
                .filter(|&e| under(net.tail(e)) && !under(net.head(e)))
                .map(|e| net.capacity(e))
                .sum();
            assert_eq!(cut, value, "({s:?}, {t:?})");
            assert_eq!(value, Algorithm::Dinic.run(&net, s, t).value);
            checked += 1;
        }
    }
    assert_eq!(checked, 100);
}

#[test]
fn cut_tree_edge_cases() {
    let v = VertexId::new;
    // One extra unit one way on one edge: no tree.
    let mut b = FlowNetworkBuilder::new(4);
    for (a, c) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
        b.add_undirected(a, c, 1);
    }
    b.add_edge(2, 3, 1);
    assert_eq!(CutTree::build(&b.build(), &Cancel::never()), Ok(None));

    // Across components the value is 0; within one it is not.
    let split = FlowNetwork::from_undirected_unit(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]);
    let tree = cut_tree(&split);
    assert_eq!(tree.max_flow(v(0), v(5)), 0);
    assert_eq!(tree.max_flow(v(4), v(1)), 0);
    assert_eq!(tree.max_flow(v(0), v(2)), 2);
    assert_eq!(tree.max_flow(v(3), v(5)), 1);

    // An expired deadline stops the build.
    let ring = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let expired = Cancel::after(std::time::Duration::ZERO);
    assert_eq!(CutTree::build(&ring, &expired), Err(Cancelled));

    // n <= 2, and degenerate terminals.
    let empty = cut_tree(&FlowNetworkBuilder::new(0).build());
    assert_eq!((empty.num_vertices(), empty.depth()), (0, 0));
    assert_eq!(empty.max_flow(v(0), v(1)), 0);
    let single = cut_tree(&FlowNetworkBuilder::new(1).build());
    assert_eq!(single.max_flow(v(0), v(0)), 0);
    assert_eq!(single.parent(v(0)), None);
    let pair = cut_tree(&FlowNetwork::from_undirected_unit(2, &[(0, 1)]));
    assert_eq!(pair.max_flow(v(0), v(1)), 1);
    assert_eq!(pair.max_flow(v(1), v(0)), 1);
    assert_eq!(pair.max_flow(v(1), v(9)), 0);
    assert_eq!(pair.depth(), 1);
    let apart = cut_tree(&FlowNetworkBuilder::new(2).build());
    assert_eq!(apart.max_flow(v(0), v(1)), 0);
}

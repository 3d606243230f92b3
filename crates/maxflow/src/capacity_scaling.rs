//! Capacity-scaling Ford–Fulkerson: augment only along paths whose
//! bottleneck is at least a threshold Δ, halving Δ until 1. Runs in
//! `O(E² log U)` where `U` is the largest capacity — the classic
//! weakly-polynomial refinement in the lineage the paper cites
//! (Edmonds–Karp \[31\] through Goldberg–Rao \[32\]).

use std::collections::VecDeque;

use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::cancel::{Cancel, Cancelled};
use crate::report::SolveReport;
use crate::residual::{FlowResult, Residual};

/// Computes the maximum `s`–`t` flow with capacity scaling. `cancel` is
/// polled once per augmenting path; the report counts Δ scaling phases,
/// augmenting paths and cancel polls.
pub(crate) fn solve(
    net: &FlowNetwork,
    s: VertexId,
    t: VertexId,
    cancel: &Cancel,
) -> Result<(FlowResult, SolveReport), Cancelled> {
    let mut residual = Residual::new(net);
    let mut report = SolveReport::default();
    let n = net.num_vertices();
    if s == t || n == 0 || s.index() >= n || t.index() >= n {
        return Ok((residual.into_result(s), report));
    }
    let max_cap = (0..net.num_directed_edges() as u64)
        .map(|e| net.capacity(EdgeId::new(e)))
        .max()
        .unwrap_or(0);
    if max_cap <= 0 {
        return Ok((residual.into_result(s), report));
    }
    // Largest power of two not exceeding the largest capacity.
    let mut delta: Capacity = 1 << (63 - max_cap.leading_zeros().min(62));
    while delta >= 1 {
        report.phases += 1;
        while let Some((path, bottleneck)) = find_wide_path(&residual, s, t, delta) {
            report.cancel_polls += 1;
            cancel.check()?;
            report.augmenting_paths += 1;
            for e in path {
                residual.push(e, bottleneck);
            }
        }
        delta /= 2;
    }
    Ok((residual.into_result(s), report))
}

/// BFS restricted to residual capacity >= `delta`; returns the path and
/// its bottleneck.
fn find_wide_path(
    residual: &Residual<'_>,
    s: VertexId,
    t: VertexId,
    delta: Capacity,
) -> Option<(Vec<EdgeId>, Capacity)> {
    let net = residual.network();
    let n = net.num_vertices();
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    let mut visited = vec![false; n];
    visited[s.index()] = true;
    let mut queue = VecDeque::new();
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        for e in net.out_edges(u) {
            if residual.residual_capacity(e) < delta {
                continue;
            }
            let v = net.head(e);
            if visited[v.index()] {
                continue;
            }
            visited[v.index()] = true;
            parent[v.index()] = Some(e);
            if v == t {
                let mut path = Vec::new();
                let mut bottleneck = Capacity::MAX;
                let mut cur = t;
                while cur != s {
                    let e = parent[cur.index()].expect("path back to s");
                    bottleneck = bottleneck.min(residual.residual_capacity(e));
                    path.push(e);
                    cur = net.tail(e);
                }
                path.reverse();
                return Some((path, bottleneck));
            }
            queue.push_back(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_flow;
    use crate::Algorithm;
    use swgraph::gen;
    use swgraph::FlowNetworkBuilder;

    #[test]
    fn clrs_network_value() {
        let mut b = FlowNetworkBuilder::new(6);
        b.add_edge(0, 1, 16);
        b.add_edge(0, 2, 13);
        b.add_edge(1, 2, 10);
        b.add_edge(2, 1, 4);
        b.add_edge(1, 3, 12);
        b.add_edge(3, 2, 9);
        b.add_edge(2, 4, 14);
        b.add_edge(4, 3, 7);
        b.add_edge(3, 5, 20);
        b.add_edge(4, 5, 4);
        let net = b.build();
        let f = Algorithm::CapacityScaling.run(&net, VertexId::new(0), VertexId::new(5));
        assert_eq!(f.value, 23);
        check_flow(&net, VertexId::new(0), VertexId::new(5), &f).unwrap();
    }

    #[test]
    fn huge_capacities_terminate_quickly() {
        // The zigzag trap where plain FF with bad path choice needs |f*|
        // iterations; scaling needs O(log U) phases.
        let mut b = FlowNetworkBuilder::new(4);
        let big = 1 << 40;
        b.add_edge(0, 1, big);
        b.add_edge(0, 2, big);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, big);
        b.add_edge(2, 3, big);
        let net = b.build();
        let f = Algorithm::CapacityScaling.run(&net, VertexId::new(0), VertexId::new(3));
        assert_eq!(f.value, 2 * big);
    }

    #[test]
    fn matches_dinic_on_random_graphs() {
        for seed in 0..10 {
            let n = 30;
            let edges = gen::erdos_renyi(n, 80, seed);
            let mut b = FlowNetworkBuilder::new(n);
            for (i, &(u, v)) in edges.iter().enumerate() {
                b.add_edge(u, v, 1 + (i as i64 * 7) % 100);
            }
            let net = b.build();
            let (s, t) = (VertexId::new(0), VertexId::new(n - 1));
            let f = Algorithm::CapacityScaling.run(&net, s, t);
            assert_eq!(
                f.value,
                Algorithm::Dinic.run(&net, s, t).value,
                "seed {seed}"
            );
            check_flow(&net, s, t, &f).unwrap();
        }
    }

    #[test]
    fn degenerate_cases() {
        let net = FlowNetworkBuilder::new(0).build();
        assert_eq!(
            Algorithm::CapacityScaling
                .run(&net, VertexId::new(0), VertexId::new(1))
                .value,
            0
        );
        let net = swgraph::FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        assert_eq!(
            Algorithm::CapacityScaling
                .run(&net, VertexId::new(0), VertexId::new(0))
                .value,
            0
        );
        assert_eq!(
            Algorithm::CapacityScaling
                .run(&net, VertexId::new(0), VertexId::new(1))
                .value,
            1
        );
    }
}

//! Dinic's algorithm \[30\]: layered (BFS-level) networks plus blocking
//! flows, `O(V² E)` in general and `O(E √V)` on unit-capacity graphs —
//! the primary correctness oracle of this workspace.

use std::collections::VecDeque;

use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::cancel::{Cancel, Cancelled};
use crate::report::SolveReport;
use crate::residual::{FlowResult, Residual};

/// Computes the maximum `s`–`t` flow with Dinic's algorithm. `cancel` is
/// polled once per BFS phase and once per blocking-flow augmentation; the
/// report counts BFS phases, augmenting paths and cancel polls.
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
    let mut level: Vec<i32> = vec![-1; n];
    loop {
        report.cancel_polls += 1;
        cancel.check()?;
        // Build the level graph by BFS over positive-residual edges.
        level.iter_mut().for_each(|l| *l = -1);
        level[s.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for e in net.out_edges(u) {
                let v = net.head(e);
                if residual.residual_capacity(e) > 0 && level[v.index()] < 0 {
                    level[v.index()] = level[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        if level[t.index()] < 0 {
            break;
        }
        report.phases += 1;
        // Blocking flow with the current-arc optimization: each vertex
        // remembers which out-edges it has exhausted this phase.
        let mut next_arc: Vec<Vec<EdgeId>> = Vec::with_capacity(n);
        for u in 0..n {
            let mut arcs: Vec<EdgeId> = net.out_edges(VertexId::new(u as u64)).collect();
            arcs.reverse(); // pop() walks the original order
            next_arc.push(arcs);
        }
        loop {
            report.cancel_polls += 1;
            cancel.check()?;
            let pushed = dfs_push(&mut residual, &level, &mut next_arc, s, t, Capacity::MAX);
            if pushed == 0 {
                break;
            }
            report.augmenting_paths += 1;
        }
    }
    Ok((residual.into_result(s), report))
}

/// Pushes up to `limit` flow along one level-respecting path via iterative
/// DFS; returns the amount actually pushed (0 when blocked).
fn dfs_push(
    residual: &mut Residual<'_>,
    level: &[i32],
    next_arc: &mut [Vec<EdgeId>],
    s: VertexId,
    t: VertexId,
    limit: Capacity,
) -> Capacity {
    let net = residual.network();
    // Stack of edges forming the current partial path.
    let mut path: Vec<EdgeId> = Vec::new();
    let mut cur = s;
    loop {
        if cur == t {
            let bottleneck = path
                .iter()
                .map(|&e| residual.residual_capacity(e))
                .min()
                .unwrap_or(limit)
                .min(limit);
            for &e in &path {
                residual.push(e, bottleneck);
            }
            return bottleneck;
        }
        let advanced = loop {
            let Some(&e) = next_arc[cur.index()].last() else {
                break None;
            };
            let v = net.head(e);
            if residual.residual_capacity(e) > 0 && level[v.index()] == level[cur.index()] + 1 {
                break Some(e);
            }
            next_arc[cur.index()].pop();
        };
        match advanced {
            Some(e) => {
                path.push(e);
                cur = net.head(e);
            }
            None => {
                // Dead end: retreat (or give up at the source).
                let Some(back) = path.pop() else {
                    return 0;
                };
                cur = net.tail(back);
                next_arc[cur.index()].pop();
            }
        }
    }
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
        let f = Algorithm::Dinic.run(&net, VertexId::new(0), VertexId::new(5));
        assert_eq!(f.value, 23);
        check_flow(&net, VertexId::new(0), VertexId::new(5), &f).unwrap();
    }

    #[test]
    fn agrees_with_push_relabel_on_random_graphs() {
        for seed in 0..10 {
            let edges = gen::erdos_renyi(40, 120, seed);
            let net = FlowNetwork::from_undirected_unit(40, &edges);
            let s = VertexId::new(0);
            let t = VertexId::new(39);
            let d = Algorithm::Dinic.run(&net, s, t);
            let pr = Algorithm::PushRelabel.run(&net, s, t);
            assert_eq!(d.value, pr.value, "seed {seed}");
            check_flow(&net, s, t, &d).unwrap();
        }
    }

    #[test]
    fn wide_unit_bipartite() {
        // s=0 connects to 10 middles, all to t=11: flow 10.
        let mut b = FlowNetworkBuilder::new(12);
        for m in 1..=10 {
            b.add_edge(0, m, 1);
            b.add_edge(m, 11, 1);
        }
        let net = b.build();
        let f = Algorithm::Dinic.run(&net, VertexId::new(0), VertexId::new(11));
        assert_eq!(f.value, 10);
    }

    #[test]
    fn handles_out_of_range_source() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let f = Algorithm::Dinic.run(&net, VertexId::new(5), VertexId::new(1));
        assert_eq!(f.value, 0);
    }
}

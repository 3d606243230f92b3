//! Edmonds–Karp \[31\]: Ford–Fulkerson with BFS shortest augmenting paths,
//! `O(V E²)` — the "selecting the shortest augmenting paths" refinement
//! the paper relates its earlier-paths-first behaviour to (Sec. III-C).

use std::collections::VecDeque;

use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::cancel::{Cancel, Cancelled};
use crate::report::SolveReport;
use crate::residual::{FlowResult, Residual};

/// Computes the maximum `s`–`t` flow with BFS shortest augmenting paths.
/// `cancel` is polled once per augmenting path; the report counts
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
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    loop {
        report.cancel_polls += 1;
        cancel.check()?;
        // BFS over positive-residual edges.
        parent.iter_mut().for_each(|p| *p = None);
        let mut visited = vec![false; n];
        visited[s.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        let mut found = false;
        'bfs: while let Some(u) = queue.pop_front() {
            for e in net.out_edges(u) {
                if residual.residual_capacity(e) <= 0 {
                    continue;
                }
                let v = net.head(e);
                if visited[v.index()] {
                    continue;
                }
                visited[v.index()] = true;
                parent[v.index()] = Some(e);
                if v == t {
                    found = true;
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
        if !found {
            break;
        }
        report.augmenting_paths += 1;
        // Walk back to find the bottleneck, then augment.
        let mut bottleneck = Capacity::MAX;
        let mut cur = t;
        while cur != s {
            let e = parent[cur.index()].expect("path back to s");
            bottleneck = bottleneck.min(residual.residual_capacity(e));
            cur = net.tail(e);
        }
        let mut cur = t;
        while cur != s {
            let e = parent[cur.index()].expect("path back to s");
            residual.push(e, bottleneck);
            cur = net.tail(e);
        }
    }
    Ok((residual.into_result(s), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_flow;
    use crate::Algorithm;
    use swgraph::FlowNetworkBuilder;

    #[test]
    fn agrees_with_hand_computed_value() {
        let mut b = FlowNetworkBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(0, 2, 2);
        b.add_edge(1, 2, 5);
        b.add_edge(1, 3, 2);
        b.add_edge(2, 3, 3);
        let net = b.build();
        let f = Algorithm::EdmondsKarp.run(&net, VertexId::new(0), VertexId::new(3));
        assert_eq!(f.value, 5);
        check_flow(&net, VertexId::new(0), VertexId::new(3), &f).unwrap();
    }

    #[test]
    fn zigzag_network_terminates_fast() {
        // The pathological network where naive FF can take |f*| rounds;
        // Edmonds-Karp needs O(VE) regardless of capacities.
        let mut b = FlowNetworkBuilder::new(4);
        let big = 1_000_000;
        b.add_edge(0, 1, big);
        b.add_edge(0, 2, big);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, big);
        b.add_edge(2, 3, big);
        let net = b.build();
        let f = Algorithm::EdmondsKarp.run(&net, VertexId::new(0), VertexId::new(3));
        assert_eq!(f.value, 2 * big);
    }

    #[test]
    fn unreachable_sink() {
        let net = FlowNetwork::from_undirected_unit(3, &[(0, 1)]);
        assert_eq!(
            Algorithm::EdmondsKarp
                .run(&net, VertexId::new(0), VertexId::new(2))
                .value,
            0
        );
    }

    #[test]
    fn empty_network_is_zero() {
        let net = FlowNetworkBuilder::new(0).build();
        assert_eq!(
            Algorithm::EdmondsKarp
                .run(&net, VertexId::new(0), VertexId::new(0))
                .value,
            0
        );
    }
}

//! The plain Ford–Fulkerson method \[10\]: repeatedly find *any* augmenting
//! path (DFS here) and augment along it — the sequential schema the paper
//! parallelizes (its Fig. 1).

use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::cancel::{Cancel, Cancelled};
use crate::report::SolveReport;
use crate::residual::{FlowResult, Residual};

/// Computes the maximum `s`–`t` flow with DFS augmenting paths.
///
/// Runtime is `O(E * |f*|)` for integer capacities — fine for the
/// unit-capacity small-world graphs this workspace targets, and the
/// honest baseline for the paper's schema. `cancel` is polled once per
/// augmenting path; the report counts augmenting paths and cancel polls.
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
    while let Some((path, bottleneck)) = find_path_dfs(&residual, s, t) {
        report.cancel_polls += 1;
        cancel.check()?;
        report.augmenting_paths += 1;
        for e in path {
            residual.push(e, bottleneck);
        }
    }
    Ok((residual.into_result(s), report))
}

/// Iterative DFS for an augmenting path; returns the edge sequence and its
/// bottleneck residual capacity.
fn find_path_dfs(
    residual: &Residual<'_>,
    s: VertexId,
    t: VertexId,
) -> Option<(Vec<EdgeId>, Capacity)> {
    let net = residual.network();
    let n = net.num_vertices();
    let mut visited = vec![false; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    let mut stack = vec![s];
    visited[s.index()] = true;
    while let Some(u) = stack.pop() {
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
                let mut path = Vec::new();
                let mut cur = t;
                let mut bottleneck = Capacity::MAX;
                while cur != s {
                    let e = parent[cur.index()].expect("path back to s");
                    bottleneck = bottleneck.min(residual.residual_capacity(e));
                    path.push(e);
                    cur = net.tail(e);
                }
                path.reverse();
                return Some((path, bottleneck));
            }
            stack.push(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_flow;
    use crate::Algorithm;
    use swgraph::FlowNetworkBuilder;

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.1-style network, known max flow 23.
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
        let f = Algorithm::FordFulkerson.run(&net, VertexId::new(0), VertexId::new(5));
        assert_eq!(f.value, 23);
        check_flow(&net, VertexId::new(0), VertexId::new(5), &f).unwrap();
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (2, 3)]);
        let f = Algorithm::FordFulkerson.run(&net, VertexId::new(0), VertexId::new(3));
        assert_eq!(f.value, 0);
    }

    #[test]
    fn source_equals_sink_is_zero() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let f = Algorithm::FordFulkerson.run(&net, VertexId::new(0), VertexId::new(0));
        assert_eq!(f.value, 0);
    }

    #[test]
    fn needs_flow_cancellation() {
        // The classic trap: a greedy DFS path may use the cross edge and
        // must be undone via the residual arc.
        let mut b = FlowNetworkBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(2, 3, 1);
        let net = b.build();
        let f = Algorithm::FordFulkerson.run(&net, VertexId::new(0), VertexId::new(3));
        assert_eq!(f.value, 2);
        check_flow(&net, VertexId::new(0), VertexId::new(3), &f).unwrap();
    }
}

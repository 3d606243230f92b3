//! Minimum-cut extraction from a finished max-flow.
//!
//! The applications that motivate the paper — community identification,
//! spam detection, Sybil-resistant vote counting — all consume the *cut*,
//! not just the flow value, so the workspace exposes it as a first-class
//! result.

use std::collections::VecDeque;

use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::residual::FlowResult;

/// A minimum `s`–`t` cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinCut {
    /// Vertices on the source side (reachable in the final residual graph).
    pub source_side: Vec<VertexId>,
    /// Saturated directed edges crossing from the source side to the sink
    /// side.
    pub cut_edges: Vec<EdgeId>,
    /// Total capacity of `cut_edges` (equals the max-flow value by the
    /// max-flow/min-cut theorem).
    pub value: Capacity,
}

/// Extracts the minimum cut witnessed by a maximum flow: BFS from `s`
/// over positive-residual edges, then collect the saturated boundary.
///
/// # Example
/// ```
/// use swgraph::{FlowNetwork, VertexId};
/// let net = FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2)]);
/// let (s, t) = (VertexId::new(0), VertexId::new(2));
/// let f = maxflow::Algorithm::Dinic.run(&net, s, t);
/// let cut = maxflow::min_cut::extract_min_cut(&net, s, &f);
/// assert_eq!(cut.value, f.value);
/// ```
#[must_use]
pub fn extract_min_cut(net: &FlowNetwork, s: VertexId, flow: &FlowResult) -> MinCut {
    let sources: &[VertexId] = if s.index() < net.num_vertices() {
        &[s]
    } else {
        &[]
    };
    let reached = residual_reach(net, sources, |e| net.capacity(e) - flow.flow(e));
    cut_of(net, &reached)
}

/// Per vertex: whether `sources` reach it over arcs with positive
/// `residual` capacity (BFS).
pub(crate) fn residual_reach(
    net: &FlowNetwork,
    sources: &[VertexId],
    residual: impl Fn(EdgeId) -> Capacity,
) -> Vec<bool> {
    let mut reached = vec![false; net.num_vertices()];
    let mut queue = VecDeque::new();
    for &s in sources {
        reached[s.index()] = true;
        queue.push_back(s);
    }
    while let Some(u) = queue.pop_front() {
        for e in net.out_edges(u) {
            let v = net.head(e);
            if !reached[v.index()] && residual(e) > 0 {
                reached[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    reached
}

/// The cut whose source side is the vertices `reached` marks: the
/// positive-capacity arcs that leave it.
pub(crate) fn cut_of(net: &FlowNetwork, reached: &[bool]) -> MinCut {
    let mut cut_edges = Vec::new();
    let mut value: Capacity = 0;
    let mut source_side = Vec::new();
    for u in (0..net.num_vertices()).filter(|&u| reached[u]) {
        let u = VertexId::new(u as u64);
        source_side.push(u);
        for e in net.out_edges(u) {
            if net.capacity(e) > 0 && !reached[net.head(e).index()] {
                cut_edges.push(e);
                value = value.saturating_add(net.capacity(e));
            }
        }
    }
    MinCut {
        source_side,
        cut_edges,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use swgraph::gen;
    use swgraph::FlowNetworkBuilder;

    #[test]
    fn cut_value_equals_flow_value() {
        for seed in 0..10 {
            let edges = gen::erdos_renyi(30, 70, seed);
            let net = FlowNetwork::from_undirected_unit(30, &edges);
            let (s, t) = (VertexId::new(0), VertexId::new(29));
            let f = Algorithm::Dinic.run(&net, s, t);
            let cut = extract_min_cut(&net, s, &f);
            assert_eq!(cut.value, f.value, "seed {seed}");
            assert!(cut.source_side.contains(&s));
            assert!(!cut.source_side.contains(&t) || f.value == 0);
        }
    }

    #[test]
    fn bottleneck_edge_is_the_cut() {
        // 0 -> 1 (cap 10) -> 2 (cap 1) -> 3 (cap 10): the cut is {1->2}.
        let mut b = FlowNetworkBuilder::new(4);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 10);
        let net = b.build();
        let (s, t) = (VertexId::new(0), VertexId::new(3));
        let f = Algorithm::Dinic.run(&net, s, t);
        let cut = extract_min_cut(&net, s, &f);
        assert_eq!(cut.value, 1);
        assert_eq!(cut.cut_edges.len(), 1);
        let e = cut.cut_edges[0];
        assert_eq!(net.tail(e), VertexId::new(1));
        assert_eq!(net.head(e), VertexId::new(2));
    }

    #[test]
    fn disconnected_cut_is_empty() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (2, 3)]);
        let (s, t) = (VertexId::new(0), VertexId::new(3));
        let f = Algorithm::Dinic.run(&net, s, t);
        let cut = extract_min_cut(&net, s, &f);
        assert_eq!(cut.value, 0);
        assert!(cut.cut_edges.is_empty());
        assert_eq!(cut.source_side.len(), 2);
    }
}

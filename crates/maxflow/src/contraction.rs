//! The 2-core peel of a graph, after Bläsius, Friedrich and Weyand
//! ("Efficiently Computing Maximum Flows in Scale-Free Networks"): the
//! low-degree periphery of a small-world graph is a forest of trees
//! hanging off the 2-core.
//!
//! Nothing in the workspace routes a query through the peel any more.
//! The FB' generator gives every vertex degree ≥ 2, so on FB2'–FB5' the
//! 2-core is the whole graph and a contraction would remove nothing
//! (DESIGN.md §11). [`CoreIndex`] stays only because the `perfbench`
//! harness reports its counts as `maxflow.core_*`.
//!
//! [`CoreIndex::build`] repeatedly removes vertices of (structural)
//! degree ≤ 1 with a BFS-style queue. What survives is the 2-core.

use std::collections::VecDeque;

use swgraph::{FlowNetwork, VertexId};

/// The sizes of a graph's 2-core and of the periphery peeled off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreIndex {
    /// Vertices that survived the peel.
    core: usize,
    /// Vertices peeled into the periphery forest.
    periphery: usize,
}

impl CoreIndex {
    /// Peels `net` down to its 2-core. Runs in `O(n + m)`.
    #[must_use]
    pub fn build(net: &FlowNetwork) -> Self {
        let n = net.num_vertices();
        let mut deg: Vec<usize> = (0..n)
            .map(|v| net.out_edges(VertexId::new(v as u64)).count())
            .collect();
        let mut peeled = vec![false; n];
        let mut periphery = 0;
        let mut queue: VecDeque<usize> = (0..n).filter(|&v| deg[v] <= 1).collect();
        while let Some(v) = queue.pop_front() {
            if peeled[v] {
                continue;
            }
            peeled[v] = true;
            periphery += 1;
            // At most one neighbour is still unpeeled; it loses an edge.
            let next = net
                .out_edges(VertexId::new(v as u64))
                .map(|e| net.head(e).index())
                .find(|&w| !peeled[w]);
            if let Some(w) = next {
                deg[w] -= 1;
                if deg[w] == 1 {
                    queue.push_back(w);
                }
            }
        }
        Self {
            core: n - periphery,
            periphery,
        }
    }

    /// Number of vertices that survived the peel.
    #[must_use]
    pub fn core_vertex_count(&self) -> usize {
        self.core
    }

    /// Number of vertices peeled into the periphery forest.
    #[must_use]
    pub fn periphery_vertex_count(&self) -> usize {
        self.periphery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgraph::{gen, FlowNetworkBuilder};

    /// `(core, periphery)` of `net`.
    fn counts(net: &FlowNetwork) -> (usize, usize) {
        let idx = CoreIndex::build(net);
        (idx.core_vertex_count(), idx.periphery_vertex_count())
    }

    #[test]
    fn trees_peel_completely() {
        let path = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(counts(&path), (0, 4));
        let star = FlowNetwork::from_undirected_unit(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(counts(&star), (0, 5));
        let forest = FlowNetwork::from_undirected_unit(5, &[(0, 1), (2, 3), (3, 4)]);
        assert_eq!(counts(&forest), (0, 5));
        // Barabási–Albert with m = 1 is a tree.
        let ba = FlowNetwork::from_undirected_unit(64, &gen::barabasi_albert(64, 1, 7));
        assert_eq!(counts(&ba), (0, 64));
    }

    #[test]
    fn cycles_survive_as_core() {
        let cycle = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(counts(&cycle), (4, 0));
        // m = 3 preferential attachment: min degree 3, nothing peels.
        let ba = FlowNetwork::from_undirected_unit(100, &gen::barabasi_albert(100, 3, 11));
        assert_eq!(counts(&ba), (100, 0));
    }

    #[test]
    fn pendant_chains_peel_off_the_core() {
        // Square 0-1-2-3 plus a chain 2-4-5 hanging off vertex 2.
        let net =
            FlowNetwork::from_undirected_unit(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)]);
        assert_eq!(counts(&net), (4, 2));
        // One-way capacities count as structure: a directed chain onto
        // a triangle still peels.
        let mut b = FlowNetworkBuilder::new(5);
        for &(x, y) in &[(0, 1), (1, 2), (2, 0)] {
            b.add_edge(x, y, 5);
            b.add_edge(y, x, 5);
        }
        b.add_edge(4, 3, 7);
        b.add_edge(3, 4, 1);
        b.add_edge(3, 0, 2);
        b.add_edge(0, 3, 1);
        assert_eq!(counts(&b.build()), (3, 2));
    }
}

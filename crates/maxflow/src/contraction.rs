//! Core contraction for the query-serving tier, after Bläsius, Friedrich
//! and Weyand ("Efficiently Computing Maximum Flows in Scale-Free
//! Networks"): the low-degree periphery of a small-world graph is a
//! forest of trees hanging off the 2-core, and an s–t max flow
//! decomposes exactly into *tree bottleneck → core flow → tree
//! bottleneck*. Peeling the periphery once per snapshot therefore lets
//! every subsequent query run on a graph a fraction of the original
//! size — or skip the solver entirely when both terminals share a tree.
//!
//! # The peel and why it is exact
//!
//! [`CoreIndex::build`] repeatedly removes vertices of (structural)
//! degree ≤ 1 with a BFS-style queue. What survives is the 2-core; every
//! removed vertex joins a tree that touches the core at exactly one
//! vertex, its *anchor*. (A peeled path connecting two core vertices is
//! impossible: the first of its internal vertices to peel would still
//! have had two unpeeled neighbours, i.e. degree 2.)
//!
//! Because a periphery tree meets the rest of the graph only at its
//! anchor, flow entering the tree anywhere must leave through the
//! anchor, and the usable rate from a tree vertex `v` outward is the
//! directed bottleneck of the unique `v → anchor` path (and dually
//! inward). Hence, with `a_s`/`a_t` the anchors and `up`/`down` the path
//! bottlenecks:
//!
//! ```text
//! maxflow(s, t) = min( up(s),  maxflow_core(a_s, a_t),  down(t) )
//! ```
//!
//! and `maxflow_core` computed on the contracted core equals the
//! full-graph value between the anchors — the property the serving tier
//! exploits to cache one core solve under the anchor pair and reuse it
//! for every query that resolves to the same anchors. When both
//! terminals live in the same tree the unique tree path carries
//! everything and no solve runs at all. This is the "cut-safety" of the
//! planner: every min cut separating the terminals either is a single
//! tree edge (captured by the bottlenecks) or lies entirely in the core.

use std::collections::VecDeque;
use std::sync::Arc;

use swgraph::{Capacity, EdgeId, FlowNetwork, FlowNetworkBuilder, VertexId};

/// Sentinel for "no such vertex" in the index's `u32` id arrays.
const NONE: u32 = u32::MAX;

/// The per-snapshot contraction: the 2-core as its own [`FlowNetwork`]
/// plus, for every peeled (periphery) vertex, the data needed to answer
/// or route a query in O(tree depth): parent edge capacities, anchor,
/// and directed path bottlenecks to the tree root.
#[derive(Debug)]
pub struct CoreIndex {
    /// The contracted 2-core under renumbered vertex ids.
    core_net: Arc<FlowNetwork>,
    /// Full id → core id (`NONE` for periphery vertices).
    core_of: Vec<u32>,
    /// Periphery: the next vertex toward the root (`NONE` at roots and
    /// on core vertices).
    parent: Vec<u32>,
    /// Periphery: capacity of the directed edge `v → parent(v)`.
    up_cap: Vec<Capacity>,
    /// Periphery: capacity of the directed edge `parent(v) → v`.
    down_cap: Vec<Capacity>,
    /// Periphery: full id of the core vertex the tree hangs off
    /// (`NONE` when the whole component peeled away).
    anchor: Vec<u32>,
    /// Periphery: full id of the tree root — the anchor for anchored
    /// trees, the last-peeled vertex for coreless components.
    root: Vec<u32>,
    /// Periphery: hops to the root (the root itself is 0).
    depth: Vec<u32>,
    /// Periphery: min capacity along the directed `v → root` path.
    up_bottleneck: Vec<Capacity>,
    /// Periphery: min capacity along the directed `root → v` path.
    down_bottleneck: Vec<Capacity>,
}

/// How the planner answers one plain s–t max-flow query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorePlan {
    /// The value is fully determined by periphery trees (same tree,
    /// same anchor, or disconnected) — no solver run needed.
    Direct(Capacity),
    /// Solve on the contracted core between `source` and `sink` (core
    /// ids); the final value is `min(limit, core flow)`. The anchors'
    /// full-graph ids identify the solve for caching.
    Core {
        /// Core id of the source-side anchor.
        source: VertexId,
        /// Core id of the sink-side anchor.
        sink: VertexId,
        /// Combined tree bottleneck, `Capacity::MAX` when both
        /// terminals are core vertices.
        limit: Capacity,
        /// Full-graph id of the source-side anchor.
        source_anchor: u64,
        /// Full-graph id of the sink-side anchor.
        sink_anchor: u64,
    },
}

impl CoreIndex {
    /// Peels `net` down to its 2-core and precomputes the periphery
    /// forest. Runs in `O(n + m)`.
    #[must_use]
    pub fn build(net: &FlowNetwork) -> Self {
        let n = net.num_vertices();
        assert!(n < NONE as usize, "vertex ids must fit u32");
        let mut deg: Vec<u32> = (0..n)
            .map(|v| net.out_edges(VertexId::new(v as u64)).count() as u32)
            .collect();
        let mut peeled = vec![false; n];
        let mut parent = vec![NONE; n];
        let mut up_cap: Vec<Capacity> = vec![0; n];
        let mut down_cap: Vec<Capacity> = vec![0; n];
        let mut order: Vec<u32> = Vec::new();
        let mut queue: VecDeque<u32> = (0..n as u32).filter(|&v| deg[v as usize] <= 1).collect();
        while let Some(v) = queue.pop_front() {
            let vi = v as usize;
            if peeled[vi] {
                continue;
            }
            peeled[vi] = true;
            order.push(v);
            // At most one neighbour is still unpeeled; it becomes the
            // parent. None at all makes `v` the root of a coreless tree.
            for e in net.out_edges(VertexId::new(u64::from(v))) {
                let w = net.head(e).index();
                if !peeled[w] {
                    parent[vi] = w as u32;
                    up_cap[vi] = net.capacity(e);
                    down_cap[vi] = net.capacity(e.reverse());
                    deg[w] -= 1;
                    if deg[w] == 1 {
                        queue.push_back(w as u32);
                    }
                    break;
                }
            }
        }

        // Renumber the surviving core and rebuild it as its own network.
        let mut core_of = vec![NONE; n];
        let mut core_n = 0u32;
        for v in 0..n {
            if !peeled[v] {
                core_of[v] = core_n;
                core_n += 1;
            }
        }
        let mut builder = FlowNetworkBuilder::new(u64::from(core_n));
        for p in 0..net.num_edge_pairs() {
            let e = EdgeId::new(2 * p as u64);
            let u = net.tail(e).index();
            let v = net.head(e).index();
            if peeled[u] || peeled[v] {
                continue;
            }
            let (cu, cv) = (u64::from(core_of[u]), u64::from(core_of[v]));
            let fwd = net.capacity(e);
            let bwd = net.capacity(e.reverse());
            if fwd > 0 {
                builder.add_edge(cu, cv, fwd);
            }
            if bwd > 0 {
                builder.add_edge(cv, cu, bwd);
            }
        }
        let core_net = Arc::new(builder.build());

        // Anchors, roots, depths and path bottlenecks, in reverse peel
        // order so a vertex's parent is always resolved first (the
        // parent either survived as core or peeled strictly later).
        let mut anchor = vec![NONE; n];
        let mut root = vec![NONE; n];
        let mut depth = vec![0u32; n];
        let mut up_bottleneck = vec![Capacity::MAX; n];
        let mut down_bottleneck = vec![Capacity::MAX; n];
        for &v in order.iter().rev() {
            let vi = v as usize;
            let p = parent[vi];
            if p == NONE {
                root[vi] = v;
                continue;
            }
            let pi = p as usize;
            if !peeled[pi] {
                anchor[vi] = p;
                root[vi] = p;
                depth[vi] = 1;
                up_bottleneck[vi] = up_cap[vi];
                down_bottleneck[vi] = down_cap[vi];
            } else {
                anchor[vi] = anchor[pi];
                root[vi] = root[pi];
                depth[vi] = depth[pi] + 1;
                up_bottleneck[vi] = up_cap[vi].min(up_bottleneck[pi]);
                down_bottleneck[vi] = down_cap[vi].min(down_bottleneck[pi]);
            }
        }

        Self {
            core_net,
            core_of,
            parent,
            up_cap,
            down_cap,
            anchor,
            root,
            depth,
            up_bottleneck,
            down_bottleneck,
        }
    }

    /// The contracted 2-core network.
    #[must_use]
    pub fn core_net(&self) -> &Arc<FlowNetwork> {
        &self.core_net
    }

    /// Number of vertices that survived the peel.
    #[must_use]
    pub fn core_vertex_count(&self) -> usize {
        self.core_net.num_vertices()
    }

    /// Number of vertices peeled into the periphery forest.
    #[must_use]
    pub fn periphery_vertex_count(&self) -> usize {
        self.core_of.len() - self.core_net.num_vertices()
    }

    /// Undirected edge pairs in the contracted core.
    #[must_use]
    pub fn core_edge_pairs(&self) -> usize {
        self.core_net.num_edge_pairs()
    }

    /// Plans one plain s–t max-flow query. Degenerate inputs (equal or
    /// out-of-range terminals) plan to `Direct(0)`, matching the
    /// solvers' conventions.
    #[must_use]
    pub fn plan(&self, s: VertexId, t: VertexId) -> CorePlan {
        let n = self.core_of.len();
        if s == t || s.index() >= n || t.index() >= n {
            return CorePlan::Direct(0);
        }
        let (si, ti) = (s.index(), t.index());
        let s_core = self.core_of[si] != NONE;
        let t_core = self.core_of[ti] != NONE;
        if !s_core && !t_core && self.root[si] == self.root[ti] {
            // Same periphery tree: the unique tree path carries all flow.
            return CorePlan::Direct(self.tree_path_bottleneck(si, ti));
        }
        let (sa, s_limit) = if s_core {
            (si as u32, Capacity::MAX)
        } else {
            (self.anchor[si], self.up_bottleneck[si])
        };
        let (ta, t_limit) = if t_core {
            (ti as u32, Capacity::MAX)
        } else {
            (self.anchor[ti], self.down_bottleneck[ti])
        };
        if sa == NONE || ta == NONE {
            // One side lives in a coreless component and the other side
            // is not in the same tree (handled above): disconnected.
            return CorePlan::Direct(0);
        }
        if sa == ta {
            // Both trees hang off the same core vertex (or one terminal
            // *is* it): the paths concatenate at the anchor.
            return CorePlan::Direct(s_limit.min(t_limit));
        }
        CorePlan::Core {
            source: VertexId::new(u64::from(self.core_of[sa as usize])),
            sink: VertexId::new(u64::from(self.core_of[ta as usize])),
            limit: s_limit.min(t_limit),
            source_anchor: u64::from(sa),
            sink_anchor: u64::from(ta),
        }
    }

    /// Directed bottleneck of the unique tree path `u → v` (both
    /// periphery, same root): `u` climbs shedding up-capacities, `v`
    /// climbs shedding down-capacities, meeting at the LCA. Core
    /// anchors count as depth 0.
    fn tree_path_bottleneck(&self, mut u: usize, mut v: usize) -> Capacity {
        let depth_of = |x: usize| {
            if self.core_of[x] != NONE {
                0
            } else {
                self.depth[x]
            }
        };
        let mut up = Capacity::MAX;
        let mut down = Capacity::MAX;
        while depth_of(u) > depth_of(v) {
            up = up.min(self.up_cap[u]);
            u = self.parent[u] as usize;
        }
        while depth_of(v) > depth_of(u) {
            down = down.min(self.down_cap[v]);
            v = self.parent[v] as usize;
        }
        while u != v {
            up = up.min(self.up_cap[u]);
            u = self.parent[u] as usize;
            down = down.min(self.down_cap[v]);
            v = self.parent[v] as usize;
        }
        up.min(down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgraph::gen;

    fn v(id: u64) -> VertexId {
        VertexId::new(id)
    }

    /// Resolves a plan to a flow value, solving the core with Dinic.
    fn answer(idx: &CoreIndex, s: VertexId, t: VertexId) -> Capacity {
        match idx.plan(s, t) {
            CorePlan::Direct(value) => value,
            CorePlan::Core {
                source,
                sink,
                limit,
                ..
            } => limit.min(
                crate::Algorithm::Dinic
                    .run(idx.core_net(), source, sink)
                    .value,
            ),
        }
    }

    #[test]
    fn path_graph_peels_completely() {
        // 0-1-2-3 with unit capacities: no 2-core at all.
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3)]);
        let idx = CoreIndex::build(&net);
        assert_eq!(idx.core_vertex_count(), 0);
        assert_eq!(idx.periphery_vertex_count(), 4);
        assert_eq!(idx.plan(v(0), v(3)), CorePlan::Direct(1));
        assert_eq!(idx.plan(v(1), v(2)), CorePlan::Direct(1));
    }

    #[test]
    fn star_routes_through_the_centre() {
        let net = FlowNetwork::from_undirected_unit(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let idx = CoreIndex::build(&net);
        assert_eq!(idx.core_vertex_count(), 0);
        assert_eq!(idx.plan(v(1), v(4)), CorePlan::Direct(1));
        assert_eq!(idx.plan(v(0), v(3)), CorePlan::Direct(1));
    }

    #[test]
    fn cycle_survives_as_core() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let idx = CoreIndex::build(&net);
        assert_eq!(idx.core_vertex_count(), 4);
        assert_eq!(idx.periphery_vertex_count(), 0);
        match idx.plan(v(0), v(2)) {
            CorePlan::Core {
                limit,
                source_anchor,
                sink_anchor,
                ..
            } => {
                assert_eq!(limit, Capacity::MAX);
                assert_eq!((source_anchor, sink_anchor), (0, 2));
            }
            other => panic!("expected core plan, got {other:?}"),
        }
        assert_eq!(answer(&idx, v(0), v(2)), 2);
    }

    #[test]
    fn pendant_chain_limits_the_core_flow() {
        // Square 0-1-2-3 plus a chain 2-4-5 hanging off vertex 2.
        let net =
            FlowNetwork::from_undirected_unit(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)]);
        let idx = CoreIndex::build(&net);
        assert_eq!(idx.core_vertex_count(), 4);
        assert_eq!(idx.periphery_vertex_count(), 2);
        // 5 → 0: chain bottleneck 1, core flow 2 → min is 1.
        assert_eq!(answer(&idx, v(5), v(0)), 1);
        assert_eq!(
            crate::Algorithm::Dinic.run(&net, v(5), v(0)).value,
            answer(&idx, v(5), v(0))
        );
        // Same-anchor shortcut: 5 → 2 never touches the core solver.
        assert_eq!(idx.plan(v(5), v(2)), CorePlan::Direct(1));
        // 4 and 5 share a tree.
        assert_eq!(idx.plan(v(4), v(5)), CorePlan::Direct(1));
    }

    #[test]
    fn asymmetric_capacities_use_directional_bottlenecks() {
        // Directed chain onto a triangle: 4 →(7) 3 →(2) 0, triangle
        // {0,1,2} with capacity 5 each way; reverse direction of the
        // chain has capacity 1.
        let mut b = FlowNetworkBuilder::new(5);
        for &(x, y) in &[(0, 1), (1, 2), (2, 0)] {
            b.add_edge(x, y, 5);
            b.add_edge(y, x, 5);
        }
        b.add_edge(4, 3, 7);
        b.add_edge(3, 4, 1);
        b.add_edge(3, 0, 2);
        b.add_edge(0, 3, 1);
        let net = b.build();
        let idx = CoreIndex::build(&net);
        assert_eq!(idx.core_vertex_count(), 3);
        // Out of the tree: min(7, 2) = 2 limits the core side.
        assert_eq!(answer(&idx, v(4), v(1)), 2);
        // Into the tree: min(1, 1) = 1.
        assert_eq!(answer(&idx, v(1), v(4)), 1);
        assert_eq!(crate::Algorithm::Dinic.run(&net, v(4), v(1)).value, 2);
        assert_eq!(crate::Algorithm::Dinic.run(&net, v(1), v(4)).value, 1);
    }

    #[test]
    fn disconnected_components_plan_to_zero() {
        let net = FlowNetwork::from_undirected_unit(5, &[(0, 1), (2, 3), (3, 4)]);
        let idx = CoreIndex::build(&net);
        assert_eq!(idx.plan(v(0), v(4)), CorePlan::Direct(0));
        assert_eq!(idx.plan(v(1), v(2)), CorePlan::Direct(0));
    }

    #[test]
    fn degenerate_queries_plan_to_zero() {
        let net = FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2)]);
        let idx = CoreIndex::build(&net);
        assert_eq!(idx.plan(v(1), v(1)), CorePlan::Direct(0));
        assert_eq!(idx.plan(v(0), v(9)), CorePlan::Direct(0));
    }

    #[test]
    fn ba_tree_has_empty_core_and_exact_answers() {
        // Barabási–Albert with m=1 is a tree: everything peels.
        let edges = gen::barabasi_albert(64, 1, 7);
        let net = FlowNetwork::from_undirected_unit(64, &edges);
        let idx = CoreIndex::build(&net);
        assert_eq!(idx.core_vertex_count(), 0);
        for (s, t) in [(0u64, 63u64), (5, 40), (12, 13)] {
            assert_eq!(
                answer(&idx, v(s), v(t)),
                crate::Algorithm::Dinic.run(&net, v(s), v(t)).value,
                "terminals ({s},{t})"
            );
        }
    }

    #[test]
    fn dense_ba_graph_keeps_everything_in_core() {
        // m=3 preferential attachment: min degree 3, nothing peels.
        let edges = gen::barabasi_albert(100, 3, 11);
        let net = FlowNetwork::from_undirected_unit(100, &edges);
        let idx = CoreIndex::build(&net);
        assert_eq!(idx.periphery_vertex_count(), 0);
        assert_eq!(idx.core_edge_pairs(), net.num_edge_pairs());
        assert_eq!(answer(&idx, v(0), v(99)), {
            crate::Algorithm::Dinic.run(&net, v(0), v(99)).value
        });
    }
}

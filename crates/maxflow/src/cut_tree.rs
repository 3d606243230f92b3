//! Gomory–Hu cut trees: every pair's maximum flow from one structure.
//!
//! On a network whose every edge pair carries the same capacity both
//! ways (an undirected graph), Gomory and Hu showed that n − 1 maximum
//! flows determine all n(n − 1)/2 pair values: they fit in a weighted
//! tree on the vertices where the `s`–`t` value is the lightest edge on
//! the tree path between `s` and `t`, and removing that edge splits the
//! vertices into the two sides of a minimum `s`–`t` cut. [`CutTree`]
//! builds one by Gusfield's construction ("Very Simple Methods for All
//! Pairs Network Flow Analysis", 1990), which needs no graph contraction:
//! step `s` solves `s` against its current tree parent on the original
//! network and re-hangs the parent's children that fall on `s`'s side.
//!
//! Each step's solver is [`LocalSearch`], which always answers with a
//! certified cut: on a small-world graph almost every cut is the trivial
//! one at a terminal, and a [`Certificate::SourceArcs`] side is `{s}`
//! alone, so that step costs the search and O(1) more. Every other side
//! is scanned once over the n vertices.
//!
//! A query walks both ends up to their lowest common ancestor, by
//! depth: on the FB' graphs the tree is two levels deep, so an answer
//! costs a few steps instead of a solve.

use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::cancel::{Cancel, Cancelled};
use crate::local::{Certificate, LocalSearch};

/// The solver label answers read off a cut tree carry.
pub const NAME: &str = "tree";

/// How the build's n − 1 cut steps ended, in the outcome names
/// [`crate::local`] answers are counted under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildSteps {
    /// The local search stopped at a terminal's trivial cut.
    pub trivial_cut: u64,
    /// The local search ran out of augmenting paths.
    pub exhausted: u64,
}

/// A Gomory–Hu tree of a symmetric network, rooted at vertex 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutTree {
    /// Per vertex: its tree parent (the root is its own parent).
    parent: Vec<VertexId>,
    /// Per vertex: the weight of the edge to its parent, the maximum
    /// flow between the two (unused at the root).
    weight: Vec<Capacity>,
    /// Per vertex: edges between it and the root.
    depth: Vec<u32>,
    steps: BuildSteps,
}

impl CutTree {
    /// Builds the cut tree of `net`, or returns `None` when some edge
    /// pair's two capacities differ: a directed network has no cut tree.
    /// That check is O(m) and runs first.
    ///
    /// # Errors
    /// [`Cancelled`] when `cancel` fires; it is polled before every step
    /// and inside every step's solve.
    pub fn build(net: &FlowNetwork, cancel: &Cancel) -> Result<Option<Self>, Cancelled> {
        if !is_symmetric(net) {
            return Ok(None);
        }
        let n = net.num_vertices();
        let mut parent = vec![VertexId::new(0); n];
        let mut weight: Vec<Capacity> = vec![0; n];
        let mut steps = BuildSteps::default();
        let mut search = LocalSearch::new();
        for s in (1..n).map(|s| VertexId::new(s as u64)) {
            cancel.check()?;
            let t = parent[s.index()];
            let (flow, _) = search.run(net, &[s], &[t], cancel)?;
            match flow.certificate {
                Certificate::SourceArcs => {
                    // The side is {s}: no child of t moves, and t's
                    // parent (never s in a tree) stays put.
                    steps.trivial_cut += 1;
                    weight[s.index()] = flow.value;
                    continue;
                }
                Certificate::SinkArcs => steps.trivial_cut += 1,
                Certificate::SourceReach(_) | Certificate::SinkReach(_) => steps.exhausted += 1,
            }
            weight[s.index()] = flow.value;
            for i in (0..n).map(|i| VertexId::new(i as u64)) {
                if i != s && parent[i.index()] == t && flow.on_source_side(i) {
                    parent[i.index()] = s;
                }
            }
            let above = parent[t.index()];
            if above != t && flow.on_source_side(above) {
                parent[s.index()] = above;
                parent[t.index()] = s;
                weight[s.index()] = weight[t.index()];
                weight[t.index()] = flow.value;
            }
        }
        let depth = depths(&parent);
        Ok(Some(Self {
            parent,
            weight,
            depth,
            steps,
        }))
    }

    /// The maximum `s`–`t` flow: the lightest edge on the tree path.
    /// Degenerate terminals (equal or out of range) answer 0, matching
    /// the solvers' conventions.
    #[must_use]
    pub fn max_flow(&self, s: VertexId, t: VertexId) -> Capacity {
        self.min_edge(s, t).map_or(0, |(_, w)| w)
    }

    /// The lightest edge on the tree path between `s` and `t`, as its
    /// lower endpoint and its weight; `None` for degenerate terminals.
    /// The subtree below that endpoint is one side of a minimum `s`–`t`
    /// cut.
    #[must_use]
    pub fn min_edge(&self, s: VertexId, t: VertexId) -> Option<(VertexId, Capacity)> {
        let n = self.parent.len();
        if s == t || s.index() >= n || t.index() >= n {
            return None;
        }
        let mut lightest: Option<(VertexId, Capacity)> = None;
        let mut climb = |v: VertexId| {
            let w = self.weight[v.index()];
            if lightest.is_none_or(|(_, best)| w < best) {
                lightest = Some((v, w));
            }
            self.parent[v.index()]
        };
        let (mut a, mut b) = (s, t);
        while self.depth[a.index()] > self.depth[b.index()] {
            a = climb(a);
        }
        while self.depth[b.index()] > self.depth[a.index()] {
            b = climb(b);
        }
        while a != b {
            a = climb(a);
            b = climb(b);
        }
        lightest
    }

    /// The edge above `v`: its parent and the edge's weight, or `None`
    /// at the root and out of range.
    #[must_use]
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, Capacity)> {
        let p = *self.parent.get(v.index())?;
        (p != v).then(|| (p, self.weight[v.index()]))
    }

    /// Number of vertices (the network's).
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.parent.len()
    }

    /// The tree's height: the most edges between a vertex and the root.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// How the build's cut steps ended.
    #[must_use]
    pub fn steps(&self) -> BuildSteps {
        self.steps
    }
}

/// Whether every edge pair of `net` has equal capacity in both
/// directions, the condition for a cut tree to exist.
#[must_use]
fn is_symmetric(net: &FlowNetwork) -> bool {
    (0..net.num_edge_pairs() as u64)
        .map(|p| EdgeId::new(2 * p))
        .all(|e| net.capacity(e) == net.capacity(e.reverse()))
}

/// Every vertex's distance to the root, each computed once: a walk up
/// stops at the first vertex whose depth is already known.
fn depths(parent: &[VertexId]) -> Vec<u32> {
    const UNKNOWN: u32 = u32::MAX;
    let mut depth = vec![UNKNOWN; parent.len()];
    let mut path = Vec::new();
    for v in 0..parent.len() {
        let mut u = v;
        while depth[u] == UNKNOWN && parent[u].index() != u {
            path.push(u);
            u = parent[u].index();
        }
        if depth[u] == UNKNOWN {
            depth[u] = 0; // the root
        }
        let mut d = depth[u];
        while let Some(w) = path.pop() {
            d += 1;
            depth[w] = d;
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u64) -> VertexId {
        VertexId::new(id)
    }

    fn tree(net: &FlowNetwork) -> CutTree {
        CutTree::build(net, &Cancel::never())
            .unwrap()
            .expect("symmetric")
    }

    #[test]
    fn a_star_is_its_own_cut_tree() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (0, 2), (0, 3)]);
        let t = tree(&net);
        for leaf in 1..4 {
            assert_eq!(t.parent(v(leaf)), Some((v(0), 1)));
        }
        assert_eq!(t.parent(v(0)), None);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.max_flow(v(1), v(3)), 1);
        assert_eq!(t.steps().trivial_cut, 3);
    }

    #[test]
    fn depths_follow_parents_in_any_order() {
        // 3 → 1 → 2 → 0, with the chain's ids out of order.
        let parent = [0, 2, 0, 1].map(v);
        assert_eq!(depths(&parent), [0, 2, 1, 3]);
    }
}

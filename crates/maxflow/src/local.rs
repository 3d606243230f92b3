//! Certified maximum flow between terminal sets, for the query tier,
//! after Bläsius, Friedrich and Weyand ("Efficiently Computing Maximum
//! Flows in Scale-Free Networks"): on a scale-free graph the maximum flow
//! almost always equals the *trivial bound* `min(δ(S), δ(T))`, the
//! capacity leaving the source set or entering the sink set, and
//! augmenting paths between two vertices of a small-diameter graph are
//! short — the reason the paper's FF1 searches from both terminals at
//! once.
//!
//! [`LocalSearch`] grows two search trees in the residual graph, in the
//! manner of Boykov and Kolmogorov ("An Experimental Comparison of
//! Min-Cut/Max-Flow Algorithms for Energy Minimization in Vision", PAMI
//! 2004): the source tree is rooted at every vertex of `S` and the sink
//! tree at every vertex of `T`. The side with fewer active vertices
//! expands next; an arc from one tree into the other closes an augmenting
//! path, which gets its bottleneck. The trees persist across paths: a
//! saturated tree arc orphans the vertex below it, which is re-adopted
//! by a tree neighbour with a path to a root, or freed, its neighbours
//! re-activated. The search stops in one of two ways, each with a
//! certificate:
//!
//! * the flow reaches the trivial bound: every arc out of `S` (or into
//!   `T`) is saturated, so that cut is a minimum cut
//!   ([`Certificate::SourceArcs`], [`Certificate::SinkArcs`]);
//! * one tree has no active vertex left: no residual arc leaves the
//!   source tree (or enters the sink tree), so no augmenting path is left
//!   and the tree is one side of a minimum cut
//!   ([`Certificate::SourceReach`], the vertices `S` reaches;
//!   [`Certificate::SinkReach`], the sink tree).
//!
//! The flow lives in a sparse overlay keyed by edge pair, never an
//! m-sized vector. The scratch a [`LocalSearch`] keeps between runs is
//! n-sized and never cleared: per-run stamps tell stale marks apart.

use std::collections::VecDeque;

use swgraph::{Capacity, EdgeId, FlowNetwork, IdMap, VertexId};

use crate::cancel::{Cancel, Cancelled};
use crate::min_cut::{cut_of, residual_reach, MinCut};
use crate::report::SolveReport;
use crate::residual::FlowResult;

/// The solver label answers of this search carry.
pub const NAME: &str = "local";

/// Why a found flow is maximum: a cut whose capacity equals its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// The flow saturates every arc leaving `S`: `(S, V ∖ S)`.
    SourceArcs,
    /// The flow saturates every arc entering `T`: `(V ∖ T, T)`.
    SinkArcs,
    /// No augmenting path is left; the source side is the vertices `S`
    /// still reaches in the residual graph (sorted).
    SourceReach(Vec<VertexId>),
    /// No augmenting path is left; the sink side is the sink tree
    /// (sorted), which holds every vertex that still reaches `T` in the
    /// residual graph and has no residual arc into it from outside.
    SinkReach(Vec<VertexId>),
}

/// A certified maximum flow found by [`LocalSearch::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalFlow {
    /// The maximum flow value.
    pub value: Capacity,
    /// The minimum cut that proves `value` maximum.
    pub certificate: Certificate,
    /// The source and sink sets, sorted.
    sources: Vec<VertexId>,
    sinks: Vec<VertexId>,
    flows: Flows,
}

impl LocalFlow {
    /// Whether the certificate's cut puts `v` on the source side.
    #[must_use]
    pub fn on_source_side(&self, v: VertexId) -> bool {
        match &self.certificate {
            Certificate::SourceArcs => self.sources.binary_search(&v).is_ok(),
            Certificate::SinkArcs => self.sinks.binary_search(&v).is_err(),
            Certificate::SourceReach(side) => side.binary_search(&v).is_ok(),
            Certificate::SinkReach(side) => side.binary_search(&v).is_err(),
        }
    }

    /// The inclusion-minimal minimum cut on `net`, the network the flow
    /// was found on: the vertices `S` reaches in the final residual
    /// graph, the side [`extract_min_cut`](crate::min_cut::extract_min_cut)
    /// reports. A [`Certificate::SourceReach`] side is that set already;
    /// any other costs one search over the overlay.
    #[must_use]
    pub fn min_cut(&self, net: &FlowNetwork) -> MinCut {
        let reached = match &self.certificate {
            Certificate::SourceReach(side) => {
                let mut reached = vec![false; net.num_vertices()];
                for v in side {
                    reached[v.index()] = true;
                }
                reached
            }
            _ => residual_reach(net, &self.sources, |e| {
                net.capacity(e) - flow_on(&self.flows, e)
            }),
        };
        cut_of(net, &reached)
    }

    /// The flow as a dense [`FlowResult`] over `net`, the network it was
    /// found on, for callers that need every edge's value.
    #[must_use]
    pub fn to_flow_result(&self, net: &FlowNetwork) -> FlowResult {
        let mut flows = vec![0; net.num_directed_edges()];
        for (&e, &f) in &self.flows {
            flows[e.index()] = f;
            flows[e.reverse().index()] = -f;
        }
        FlowResult {
            value: self.value,
            flows,
        }
    }
}

/// Flow on each edge pair that ever carried any, keyed by the pair's
/// forward member ([`EdgeId::canonical`]).
type Flows = IdMap<EdgeId, Capacity>;

/// Flow on `e` in the overlay.
fn flow_on(flows: &Flows, e: EdgeId) -> Capacity {
    let f = flows.get(&e.canonical()).copied().unwrap_or(0);
    if e.is_forward() {
        f
    } else {
        -f
    }
}

/// One of the two search trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Source = 0,
    Sink = 1,
}

impl Side {
    /// The residual arc the tree grows along through `e`, an arc out of
    /// one of its vertices: `e` away from `S`, its reverse toward `T`;
    /// either way from the source side to the sink side. It is the parent
    /// arc of the vertex reached.
    fn growth_arc(self, e: EdgeId) -> EdgeId {
        match self {
            Side::Source => e,
            Side::Sink => e.reverse(),
        }
    }

    /// The tree parent of the vertex whose parent arc is `arc`.
    fn parent(self, net: &FlowNetwork, arc: EdgeId) -> VertexId {
        match self {
            Side::Source => net.tail(arc),
            Side::Sink => net.head(arc),
        }
    }
}

/// The parent arc of a terminal, a tree root.
const ROOT: EdgeId = EdgeId::new(u64::MAX);
/// The parent arc of an orphan, cut off from its root.
const ORPHAN: EdgeId = EdgeId::new(u64::MAX - 1);

/// Per-vertex search state; meaningful only while `run` is the current
/// run, and free otherwise.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    run: u64,
    tree: Option<Side>,
    /// The residual arc joining it to its tree parent, oriented from the
    /// source side to the sink side: parent → v in the source tree,
    /// v → parent in the sink tree. [`ROOT`] or [`ORPHAN`] otherwise.
    parent: EdgeId,
    /// Its depth when it joined the tree or was last re-hung: 0 at a
    /// root, one more than its parent's then.
    label: u32,
    /// Where the last search for its parent succeeded.
    parent_arc: u32,
    active: bool,
    /// The next of its arcs to scan while active.
    next_arc: u32,
    /// Whether an incident edge pair carries flow this run.
    carries: bool,
    /// The epoch in which its tree path was last seen to reach a root.
    rooted: u64,
}

/// Reusable scratch for local searches: keep one per thread and call
/// [`run`](Self::run) for each query. It grows to the largest network it
/// has searched.
///
/// Orphans are settled lazily, one at a time: when a path found runs
/// through one, or when a tree has nothing left to grow but vertices
/// parked below one. A tree that runs dry is closed with its orphans in
/// it, and a search that stops at the trivial bound never settles the
/// orphans its last paths left.
#[derive(Debug, Default)]
pub struct LocalSearch {
    nodes: Vec<Node>,
    run: u64,
    /// Bumped at every run and augmentation, the only steps that cut
    /// rooted vertices off their roots.
    epoch: u64,
    /// Vertices this run reached, each once.
    touched: Vec<VertexId>,
    /// Per tree: its active vertices, front first (with stale entries),
    /// how many there are, and those put aside unscanned below an orphan.
    active: [VecDeque<VertexId>; 2],
    live: [usize; 2],
    parked: [Vec<VertexId>; 2],
    /// Per tree: the growth arcs out of its roots, by the vertex they
    /// reach (sorted), where an orphan finds a root parent by lookup.
    root_arcs: [Vec<(VertexId, EdgeId)>; 2],
    /// Scratch for settling one orphan: its children, and its tree
    /// neighbours with a residual arc toward it.
    children: Vec<VertexId>,
    feeders: Vec<VertexId>,
    /// The current augmenting path's arcs.
    path: Vec<EdgeId>,
}

impl LocalSearch {
    /// Empty scratch; it sizes itself on the first run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds a maximum flow on `net` from the vertex set `sources` to the
    /// vertex set `sinks`, with its certificate and the report:
    /// augmenting paths, cancel polls (one per path), distinct vertices
    /// touched and arcs scanned.
    ///
    /// Degenerate terminals (an empty or out-of-range set, or sets that
    /// share a vertex) answer 0 with an empty
    /// [`Certificate::SourceReach`], matching the solvers' conventions.
    ///
    /// # Errors
    /// [`Cancelled`] when `cancel` fires before a path.
    pub fn run(
        &mut self,
        net: &FlowNetwork,
        sources: &[VertexId],
        sinks: &[VertexId],
        cancel: &Cancel,
    ) -> Result<(LocalFlow, SolveReport), Cancelled> {
        let mut report = SolveReport::default();
        let mut found = LocalFlow {
            value: 0,
            certificate: Certificate::SourceReach(Vec::new()),
            sources: sorted(sources),
            sinks: sorted(sinks),
            flows: IdMap::default(),
        };
        let n = net.num_vertices();
        let (s, t) = (&found.sources, &found.sinks);
        let out_of_range = s.iter().chain(t).any(|v| v.index() >= n);
        if s.is_empty() || t.is_empty() || out_of_range || s.iter().any(|v| t.contains(v)) {
            return Ok((found, report));
        }
        self.start(n, &found.sources, &found.sinks);
        // A lone terminal's arcs are left out: only a parallel edge
        // could re-hang a vertex from it.
        for (roots, side) in [(&found.sources, Side::Source), (&found.sinks, Side::Sink)] {
            let mut arcs: Vec<(VertexId, EdgeId)> = roots
                .iter()
                .filter(|_| roots.len() > 1)
                .flat_map(|&r| net.out_edges(r))
                .filter(|&e| !self.in_tree(net.head(e), side))
                .map(|e| (net.head(e), side.growth_arc(e)))
                .collect();
            arcs.sort_unstable();
            self.root_arcs[side as usize] = arcs;
        }
        let out_of_s = self.boundary(net, &found.sources, Side::Source);
        let bound = out_of_s.min(self.boundary(net, &found.sinks, Side::Sink));
        while found.value < bound {
            report.cancel_polls += 1;
            cancel.check()?;
            match self.grow(net, &found.flows, &mut report) {
                Ok(arc) => {
                    self.augment(net, &mut found, arc);
                    report.augmenting_paths += 1;
                }
                Err(dry) => {
                    found.certificate = match dry {
                        Side::Source => Certificate::SourceReach(self.source_side(net, &found)),
                        Side::Sink => Certificate::SinkReach(self.members(Side::Sink)),
                    };
                    report.vertices_touched = self.touched.len() as u64;
                    return Ok((found, report));
                }
            }
        }
        found.certificate = if bound == out_of_s {
            Certificate::SourceArcs
        } else {
            Certificate::SinkArcs
        };
        report.vertices_touched = self.touched.len() as u64;
        Ok((found, report))
    }

    /// Starts a run: the terminals are the active roots of their trees.
    fn start(&mut self, n: usize, sources: &[VertexId], sinks: &[VertexId]) {
        if self.nodes.len() < n {
            self.nodes.resize(n, Node::default());
        }
        self.run += 1;
        self.epoch += 1;
        self.touched.clear();
        self.active.iter_mut().for_each(VecDeque::clear);
        self.live = [0, 0];
        self.parked.iter_mut().for_each(Vec::clear);
        for (roots, side) in [(sources, Side::Source), (sinks, Side::Sink)] {
            for &v in roots {
                self.join(v, side, ROOT, 0);
            }
        }
    }

    /// δ(S) for the source set, or δ(T) for the sink set: the capacity of
    /// the arcs between the set and the rest, once `start` tagged them.
    fn boundary(&self, net: &FlowNetwork, roots: &[VertexId], side: Side) -> Capacity {
        roots
            .iter()
            .flat_map(|&v| net.out_edges(v))
            .filter(|&e| !self.in_tree(net.head(e), side))
            .map(|e| net.capacity(side.growth_arc(e)))
            .fold(0, Capacity::saturating_add)
    }

    fn in_tree(&self, v: VertexId, side: Side) -> bool {
        let node = &self.nodes[v.index()];
        node.run == self.run && node.tree == Some(side)
    }

    /// Puts the free vertex `v` into `side`'s tree below `parent` with
    /// `label`, and activates it.
    fn join(&mut self, v: VertexId, side: Side, parent: EdgeId, label: u32) {
        let node = &mut self.nodes[v.index()];
        if node.run != self.run {
            *node = Node {
                run: self.run,
                ..Node::default()
            };
            self.touched.push(v);
        }
        node.tree = Some(side);
        node.parent = parent;
        node.label = label;
        node.parent_arc = 0;
        self.activate(v);
    }

    /// Marks a tree vertex active, to scan its arcs from the first.
    fn activate(&mut self, v: VertexId) {
        let node = &mut self.nodes[v.index()];
        node.next_arc = 0;
        if !node.active {
            node.active = true;
            let side = node.tree.expect("only tree vertices are active") as usize;
            self.live[side] += 1;
            self.active[side].push_back(v);
        }
    }

    /// Ends `v`'s activity; a stale queue entry may stay behind.
    fn deactivate(&mut self, v: VertexId, side: Side) {
        let node = &mut self.nodes[v.index()];
        if std::mem::take(&mut node.active) {
            self.live[side as usize] -= 1;
        }
    }

    /// The orphan on `v`'s tree path, or `None` when it reaches a root.
    /// A path found to reach a root is stamped with the current epoch,
    /// so later walks stop where it begins.
    fn orphan_above(&mut self, net: &FlowNetwork, v: VertexId, side: Side) -> Option<VertexId> {
        let mut u = v;
        loop {
            let node = &self.nodes[u.index()];
            if node.rooted == self.epoch {
                break;
            }
            match node.parent {
                ROOT => break,
                ORPHAN => return Some(u),
                e => u = side.parent(net, e),
            }
        }
        let mut u = v;
        while self.nodes[u.index()].rooted != self.epoch {
            let node = &mut self.nodes[u.index()];
            node.rooted = self.epoch;
            if node.parent == ROOT {
                break;
            }
            u = side.parent(net, node.parent);
        }
        None
    }

    /// Residual capacity of `e`, an arc out of or into `v`, whose flag
    /// says whether any of its pairs carries flow.
    fn residual(&self, net: &FlowNetwork, flows: &Flows, v: VertexId, e: EdgeId) -> Capacity {
        let carries = self.nodes[v.index()].carries;
        net.capacity(e) - if carries { flow_on(flows, e) } else { 0 }
    }

    /// Grows the tree with fewer active vertices until an arc from the
    /// source tree into the sink tree closes a path whose arcs are all in
    /// place; leaves that path in `self.path` and returns its middle arc,
    /// or the side whose tree ran out of active vertices.
    fn grow(
        &mut self,
        net: &FlowNetwork,
        flows: &Flows,
        report: &mut SolveReport,
    ) -> Result<EdgeId, Side> {
        'next: loop {
            let side = match self.live {
                [0, _] => Side::Source,
                [_, 0] => Side::Sink,
                [s, t] if s <= t => Side::Source,
                _ => Side::Sink,
            };
            if self.live[side as usize] == 0 {
                if self.parked[side as usize].is_empty() {
                    return Err(side);
                }
                self.unpark(net, flows, side, report);
                continue;
            }
            let p = *self.active[side as usize]
                .front()
                .expect("a live vertex is queued");
            let node = self.nodes[p.index()];
            if !node.active || node.tree != Some(side) {
                // Stale, or put aside below.
                self.active[side as usize].pop_front();
                continue;
            }
            // Only rooted vertices grow: an orphaned subtree could take
            // back the vertices its orphans free. The rest wait, parked,
            // until their tree has nothing else to grow; most searches
            // end before that.
            if self.orphan_above(net, p, side).is_some() {
                self.deactivate(p, side);
                self.parked[side as usize].push(p);
                continue;
            }
            let first = node.next_arc as usize;
            for (k, e) in net.out_edges(p).enumerate().skip(first) {
                report.arc_scans += 1;
                let q = net.head(e);
                let other = &self.nodes[q.index()];
                let tree = (other.run == self.run).then_some(other.tree).flatten();
                let arc = side.growth_arc(e);
                if tree == Some(side) || self.residual(net, flows, p, arc) <= 0 {
                    continue;
                }
                match tree {
                    None => self.join(q, side, arc, node.label + 1),
                    Some(_) => {
                        // Resume here: the arc may have room left.
                        self.nodes[p.index()].next_arc = k as u32;
                        match self.trace(net, arc) {
                            None => return Ok(arc),
                            Some(orphan) => {
                                self.settle(net, flows, orphan, report);
                                continue 'next;
                            }
                        }
                    }
                }
            }
            self.deactivate(p, side);
        }
    }

    /// Gives `side`'s tree active vertices again: settles the orphans
    /// above its parked vertices and wakes those still in the tree.
    fn unpark(&mut self, net: &FlowNetwork, flows: &Flows, side: Side, report: &mut SolveReport) {
        while let Some(p) = self.parked[side as usize].pop() {
            while self.in_tree(p, side) {
                match self.orphan_above(net, p, side) {
                    Some(orphan) => self.settle(net, flows, orphan, report),
                    None => {
                        self.activate(p);
                        break;
                    }
                }
            }
        }
    }

    /// Collects the path `S ⇝ tail(arc) → head(arc) ⇝ T` in `self.path`,
    /// or returns the first orphan on it.
    fn trace(&mut self, net: &FlowNetwork, arc: EdgeId) -> Option<VertexId> {
        self.path.clear();
        for (mut v, side) in [(net.tail(arc), Side::Source), (net.head(arc), Side::Sink)] {
            loop {
                match self.nodes[v.index()].parent {
                    ROOT => break,
                    ORPHAN => return Some(v),
                    e => {
                        self.path.push(e);
                        v = side.parent(net, e);
                    }
                }
            }
        }
        self.path.push(arc);
        None
    }

    /// Pushes the bottleneck along the traced path through `arc` and
    /// orphans the vertex below each tree arc it saturates.
    fn augment(&mut self, net: &FlowNetwork, found: &mut LocalFlow, arc: EdgeId) {
        let amount = self
            .path
            .iter()
            .map(|&e| net.capacity(e) - flow_on(&found.flows, e))
            .min()
            .unwrap_or(0);
        for i in 0..self.path.len() {
            let e = self.path[i];
            let f = found.flows.entry(e.canonical()).or_insert(0);
            *f += if e.is_forward() { amount } else { -amount };
            let (tail, head) = (net.tail(e), net.head(e));
            self.nodes[tail.index()].carries = true;
            self.nodes[head.index()].carries = true;
            if e == arc || net.capacity(e) > flow_on(&found.flows, e) {
                continue;
            }
            // A saturated tree arc: its child is the endpoint it is the
            // parent arc of.
            let child = if self.nodes[head.index()].parent == e {
                head
            } else {
                tail
            };
            self.nodes[child.index()].parent = ORPHAN;
        }
        found.value = found.value.saturating_add(amount);
        self.epoch += 1;
    }

    /// Re-hangs the orphan `v` from a tree neighbour with a residual arc
    /// toward it and a path to a root: the first labelled below it, or
    /// else the lowest. Frees it when there is none: its children become
    /// orphans and the neighbours that could grow back into it become
    /// active. Stale entries pass.
    fn settle(&mut self, net: &FlowNetwork, flows: &Flows, v: VertexId, report: &mut SolveReport) {
        let node = self.nodes[v.index()];
        let Some(side) = node.tree.filter(|_| node.parent == ORPHAN) else {
            return;
        };
        // A parent labelled 0 is a root: look for one directly, and,
        // failing that, take the first parent labelled 1.
        let mut enough = node.label;
        if enough == 1 {
            let arcs = &self.root_arcs[side as usize];
            let from = arcs.partition_point(|&(q, _)| q < v);
            let root_arc = arcs[from..]
                .iter()
                .take_while(|&&(q, _)| q == v)
                .map(|&(_, arc)| arc)
                .find(|&arc| self.residual(net, flows, v, arc) > 0);
            if let Some(arc) = root_arc {
                self.nodes[v.index()].parent = arc;
                return;
            }
            enough = 2;
        }
        self.children.clear();
        self.feeders.clear();
        let mut lowest: Option<(u32, EdgeId, usize)> = None;
        // From where its last parent was found, round to there.
        let first = node.parent_arc as usize;
        let arcs = || net.out_edges(v).enumerate();
        for (k, e) in arcs().skip(first).chain(arcs().take(first)) {
            report.arc_scans += 1;
            let q = net.head(e);
            if !self.in_tree(q, side) {
                continue;
            }
            let other = self.nodes[q.index()];
            if other.parent == side.growth_arc(e) {
                self.children.push(q);
            }
            // q → v in the source tree, v → q in the sink tree.
            let toward = side.growth_arc(e).reverse();
            if self.residual(net, flows, v, toward) <= 0 {
                continue;
            }
            self.feeders.push(q);
            if lowest.is_some_and(|(l, _, _)| l <= other.label)
                || self.orphan_above(net, q, side).is_some()
            {
                continue;
            }
            lowest = Some((other.label, toward, k));
            if other.label < enough {
                break;
            }
        }
        let Some((label, arc, k)) = lowest else {
            for i in 0..self.children.len() {
                self.nodes[self.children[i].index()].parent = ORPHAN;
            }
            for i in 0..self.feeders.len() {
                self.activate(self.feeders[i]);
            }
            self.deactivate(v, side);
            self.nodes[v.index()].tree = None;
            return;
        };
        let node = &mut self.nodes[v.index()];
        node.parent = arc;
        node.parent_arc = k as u32;
        node.label = label + 1;
    }

    /// What `S` reaches in the residual graph once the source tree is
    /// dry, sorted: the tree, unless it holds orphans, which `S` may not
    /// reach, when a search over the overlay says.
    fn source_side(&self, net: &FlowNetwork, found: &LocalFlow) -> Vec<VertexId> {
        let tree = self.members(Side::Source);
        if tree.iter().all(|v| self.nodes[v.index()].parent != ORPHAN) {
            return tree;
        }
        let reached = residual_reach(net, &found.sources, |e| {
            net.capacity(e) - flow_on(&found.flows, e)
        });
        (0..net.num_vertices())
            .filter(|&v| reached[v])
            .map(|v| VertexId::new(v as u64))
            .collect()
    }

    /// The sorted vertices of `side`'s tree.
    fn members(&self, side: Side) -> Vec<VertexId> {
        let mut members: Vec<VertexId> = self
            .touched
            .iter()
            .copied()
            .filter(|&v| self.in_tree(v, side))
            .collect();
        members.sort_unstable();
        members
    }
}

fn sorted(vertices: &[VertexId]) -> Vec<VertexId> {
    let mut set = vertices.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min_cut::extract_min_cut;
    use crate::validate::check_flow;
    use crate::Algorithm;
    use ffmr_prng::SplitMix64;
    use swgraph::{gen, FlowNetworkBuilder};

    fn v(id: u64) -> VertexId {
        VertexId::new(id)
    }

    fn solve(
        net: &FlowNetwork,
        s: VertexId,
        t: VertexId,
        cancel: &Cancel,
    ) -> Result<(LocalFlow, SolveReport), Cancelled> {
        LocalSearch::new().run(net, &[s], &[t], cancel)
    }

    fn answer(net: &FlowNetwork, s: u64, t: u64) -> (LocalFlow, SolveReport) {
        let (found, report) = solve(net, v(s), v(t), &Cancel::never()).unwrap();
        check_flow(net, v(s), v(t), &found.to_flow_result(net)).unwrap();
        let dinic = Algorithm::Dinic.run(net, v(s), v(t));
        assert_eq!(found.value, dinic.value);
        assert_eq!(found.min_cut(net), extract_min_cut(net, v(s), &dinic));
        (found, report)
    }

    #[test]
    fn a_unit_cycle_reaches_the_trivial_bound() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (found, report) = answer(&net, 0, 2);
        assert_eq!(found.value, 2);
        assert_eq!(found.certificate, Certificate::SourceArcs);
        assert_eq!(report.augmenting_paths, 2);
        assert_eq!(report.cancel_polls, 2);
        assert_eq!(report.vertices_touched, 4);
        assert!(report.arc_scans > 0);
    }

    #[test]
    fn the_smaller_terminal_side_names_the_trivial_cut() {
        // t has in-capacity 1, s has out-capacity 2.
        let mut b = FlowNetworkBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 2, 1);
        let net = b.build();
        let (found, _) = answer(&net, 0, 2);
        assert_eq!(found.value, 2);
        assert_eq!(found.certificate, Certificate::SourceArcs);
        let (found, _) = answer(&net, 1, 2);
        assert_eq!(found.value, 1);
        assert_eq!(found.certificate, Certificate::SourceArcs);
        let (found, _) = answer(&net, 0, 1);
        assert_eq!(found.value, 1);
        assert_eq!(found.certificate, Certificate::SinkArcs);
        assert!(found.on_source_side(v(2)) && !found.on_source_side(v(1)));
    }

    #[test]
    fn a_bridge_below_the_bound_ends_by_exhaustion() {
        // Two triangles joined by the bridge 2–3: the bound is 2, the
        // flow 1.
        let net = FlowNetwork::from_undirected_unit(
            6,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
        );
        let (found, report) = answer(&net, 0, 5);
        assert_eq!(found.value, 1);
        assert_eq!(report.augmenting_paths, 1);
        let side: Vec<bool> = (0..6).map(|u| found.on_source_side(v(u))).collect();
        assert_eq!(side, [true, true, true, false, false, false]);
        assert!(matches!(
            found.certificate,
            Certificate::SourceReach(_) | Certificate::SinkReach(_)
        ));
    }

    #[test]
    fn disconnected_and_adjacent_terminals() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (2, 3)]);
        let (found, report) = answer(&net, 0, 3);
        assert_eq!(found.value, 0);
        assert_eq!(report.augmenting_paths, 0);
        let (found, report) = answer(&net, 0, 1);
        assert_eq!(found.value, 1);
        assert_eq!(report.augmenting_paths, 1);
        // An isolated terminal: the bound is 0 before any search.
        let net = FlowNetworkBuilder::new(3).build();
        let (found, report) = answer(&net, 0, 2);
        assert_eq!(found.value, 0);
        assert_eq!(report.cancel_polls, 0);
    }

    #[test]
    fn degenerate_terminals_answer_zero() {
        let net = FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2)]);
        let mut search = LocalSearch::new();
        for (sources, sinks) in [
            (vec![0], vec![0]),
            (vec![0], vec![9]),
            (vec![9], vec![0]),
            (vec![], vec![1]),
            (vec![0, 1], vec![1, 2]),
        ] {
            let (sources, sinks): (Vec<_>, Vec<_>) = (
                sources.into_iter().map(v).collect(),
                sinks.into_iter().map(v).collect(),
            );
            let (found, _) = search
                .run(&net, &sources, &sinks, &Cancel::never())
                .unwrap();
            assert_eq!(found.value, 0, "{sources:?} → {sinks:?}");
        }
    }

    #[test]
    fn two_high_degree_terminals_share_their_middles() {
        // s and t share 50 unit-capacity middles: 50 paths, each found
        // from the trees the previous ones left, so the arcs scanned stay
        // a small multiple of the 200 arcs there are.
        let mut b = FlowNetworkBuilder::new(52);
        for m in 2..52 {
            b.add_undirected(0, m, 1);
            b.add_undirected(m, 1, 1);
        }
        let net = b.build();
        let (found, report) = answer(&net, 0, 1);
        assert_eq!(found.value, 50);
        assert_eq!(found.certificate, Certificate::SourceArcs);
        assert_eq!(report.augmenting_paths, 50);
        assert!(
            report.arc_scans <= 4 * net.num_directed_edges() as u64,
            "{report:?}"
        );
    }

    #[test]
    fn an_expired_deadline_cancels() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cancel = Cancel::after(std::time::Duration::ZERO);
        assert_eq!(solve(&net, v(0), v(2), &cancel), Err(Cancelled));
    }

    /// Random weighted networks, some edges one-way, with random source
    /// and sink sets that often sit next to each other: the flow
    /// validates and equals Dinic's on the super-terminal copy, and the
    /// cut is the copy's inclusion-minimal one, super source aside.
    #[test]
    fn terminal_sets_answer_like_dinic_on_the_super_terminal_copy() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let mut search = LocalSearch::new();
        for case in 0..150 {
            let n = rng.gen_range(6..40);
            let mut b = FlowNetworkBuilder::new(n);
            for _ in 0..rng.gen_range(n..4 * n) {
                let (a, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a == c {
                    continue;
                }
                let cap = rng.gen_range(1..6) as Capacity;
                if rng.gen_range(0..3) == 0 {
                    b.add_edge(a, c, cap);
                } else {
                    b.add_undirected(a, c, cap);
                }
            }
            let net = b.build();
            let mut ids: Vec<u64> = (0..n).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
            }
            let k = rng.gen_range(1..4) as usize;
            let (sources, sinks) = (&ids[..k], &ids[k..2 * k]);
            let copy = net.with_super_terminals(sources, sinks);
            let (s, t) = (v(n), v(n + 1));
            let dinic = Algorithm::Dinic.run(&copy, s, t);
            let expected = extract_min_cut(&copy, s, &dinic);

            let ids = |raw: &[u64]| raw.iter().map(|&r| v(r)).collect::<Vec<_>>();
            let (found, _) = search
                .run(&net, &ids(sources), &ids(sinks), &Cancel::never())
                .unwrap();
            assert_eq!(found.value, dinic.value, "case {case}");
            let flow = found.to_flow_result(&net);
            for u in (0..n).map(v) {
                let out: Capacity = net.out_edges(u).map(|e| flow.flow(e)).sum();
                let terminal = sources.contains(&u.raw()) || sinks.contains(&u.raw());
                assert!(terminal || out == 0, "case {case}: conservation at {u}");
            }
            for e in (0..net.num_directed_edges() as u64).map(EdgeId::new) {
                assert!(flow.flow(e) <= net.capacity(e), "case {case}: {e}");
            }
            let cut = found.min_cut(&net);
            assert_eq!(cut.value, found.value, "case {case}");
            assert_eq!(cut.cut_edges.len(), expected.cut_edges.len(), "case {case}");
            assert_eq!(
                cut.source_side.len() + 1,
                expected.source_side.len(),
                "case {case}"
            );
            for u in (0..n).map(v) {
                let side = found.on_source_side(u);
                assert!(!sources.contains(&u.raw()) || side, "case {case}");
                assert!(!sinks.contains(&u.raw()) || !side, "case {case}");
            }
        }
    }

    #[test]
    fn reused_scratch_answers_like_fresh_scratch() {
        // One scratch across graphs of different sizes and repeated
        // pairs: stale marks and flow flags never leak between runs.
        let mut search = LocalSearch::new();
        for seed in 0..6 {
            let n = [300, 40, 120][seed as usize % 3];
            let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 2, seed));
            for (s, t) in [(0, n - 1), (n / 2, 1), (0, n - 1)] {
                let reused = search.run(&net, &[v(s)], &[v(t)], &Cancel::never());
                let fresh = solve(&net, v(s), v(t), &Cancel::never());
                assert_eq!(reused, fresh, "seed {seed}, ({s},{t})");
            }
        }
    }
}

//! Certified local max-flow search for the query tier, after Bläsius,
//! Friedrich and Weyand ("Efficiently Computing Maximum Flows in
//! Scale-Free Networks"): on a scale-free graph the maximum `s`–`t` flow
//! almost always equals the *trivial bound* `min(capacity out of s,
//! capacity into t)`, and augmenting paths between two vertices of a
//! small-diameter graph are short — the reason the paper's FF1 searches
//! from both terminals at once.
//!
//! [`LocalSearch`] finds augmenting paths one at a time by balanced
//! bidirectional BFS in the residual graph (the side with fewer queued
//! vertices expands next, and the two searches meet in the middle). It
//! stops in one of three ways:
//!
//! * the flow reaches the trivial bound: every arc out of `s` (or into
//!   `t`) is saturated, so that single-terminal cut is a minimum cut
//!   ([`Certificate::SourceArcs`], [`Certificate::SinkArcs`]);
//! * one side's search runs dry: no augmenting path is left, and the
//!   vertices it reached — those `s` still reaches, or those that still
//!   reach `t` — form one side of a minimum cut
//!   ([`Certificate::SourceReach`], [`Certificate::SinkReach`]);
//! * the arcs it has scanned, over all its searches, pass
//!   [`BUDGET_PER_ARC`] times the network's arc count: it returns no
//!   answer, and the caller runs a global solver instead.
//!
//! The flow lives in a sparse overlay keyed by edge pair, never an
//! m-sized vector. The scratch a [`LocalSearch`] keeps between runs is
//! n-sized and never cleared: per-round stamps tell stale marks apart.

use swgraph::{Capacity, EdgeId, FlowNetwork, IdMap, VertexId};

use crate::cancel::{Cancel, Cancelled};
use crate::report::SolveReport;
use crate::residual::FlowResult;

/// The solver label answers of this search carry.
pub const NAME: &str = "local";

/// The work budget: a search gives up once it has scanned this many arcs
/// per directed arc of the network, summed over all its BFS rounds. Past
/// that a global solver, which touches every arc a few times, is the
/// cheaper way to finish.
pub const BUDGET_PER_ARC: u64 = 2;

/// Why a found flow is maximum: a cut whose capacity equals its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// The flow saturates every arc leaving `s`: `({s}, V ∖ {s})`.
    SourceArcs,
    /// The flow saturates every arc entering `t`: `(V ∖ {t}, {t})`.
    SinkArcs,
    /// No augmenting path is left; the source side is the vertices `s`
    /// still reaches in the residual graph (sorted).
    SourceReach(Vec<VertexId>),
    /// No augmenting path is left; the sink side is the vertices that
    /// still reach `t` in the residual graph (sorted).
    SinkReach(Vec<VertexId>),
}

/// A certified maximum flow found by [`LocalSearch::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalFlow {
    /// The maximum flow value.
    pub value: Capacity,
    /// The minimum cut that proves `value` maximum.
    pub certificate: Certificate,
    source: VertexId,
    sink: VertexId,
    /// Flow on each edge pair that ever carried any, keyed by the pair's
    /// forward member ([`EdgeId::canonical`]).
    flows: IdMap<EdgeId, Capacity>,
}

impl LocalFlow {
    /// Whether the certificate's cut puts `v` on the source side.
    #[must_use]
    pub fn on_source_side(&self, v: VertexId) -> bool {
        match &self.certificate {
            Certificate::SourceArcs => v == self.source,
            Certificate::SinkArcs => v != self.sink,
            Certificate::SourceReach(side) => side.binary_search(&v).is_ok(),
            Certificate::SinkReach(side) => side.binary_search(&v).is_err(),
        }
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

/// Flow on `e` in an overlay keyed by forward members.
fn flow_on(flows: &IdMap<EdgeId, Capacity>, e: EdgeId) -> Capacity {
    let f = flows.get(&e.canonical()).copied().unwrap_or(0);
    if e.is_forward() {
        f
    } else {
        -f
    }
}

/// How one BFS round ended.
enum Round {
    /// The searches met and the path's bottleneck was pushed.
    Pushed,
    /// The forward search ran dry; `fwd` holds what `s` reaches.
    SourceDry,
    /// The backward search ran dry; `bwd` holds what reaches `t`.
    SinkDry,
    /// The work budget ran out mid-round.
    OverBudget,
}

/// Which search reached a vertex, in the low bit of its mark.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Fwd = 0,
    Bwd = 1,
}

/// Reusable scratch for local searches: keep one per thread and call
/// [`run`](Self::run) for each query. It grows to the largest network it
/// has searched.
#[derive(Debug, Default)]
pub struct LocalSearch {
    /// Per vertex: `2 * round + side` of the last round that reached it.
    mark: Vec<u64>,
    /// Per vertex: the residual arc its search reached it through,
    /// pointing away from `s` on both sides.
    via: Vec<EdgeId>,
    /// Per vertex: the last run in which an incident pair carried flow.
    carries: Vec<u64>,
    round: u64,
    run: u64,
    /// Vertices the forward (backward) search reached this round, in
    /// visit order; the unexpanded tail is the search's queue.
    fwd: Vec<VertexId>,
    bwd: Vec<VertexId>,
    /// The current augmenting path's arcs.
    path: Vec<EdgeId>,
}

impl LocalSearch {
    /// Empty scratch; it sizes itself on the first run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Searches for a maximum `s`–`t` flow on `net`. Returns the
    /// certified flow, or `None` once the budget runs out, with the
    /// report either way: augmenting paths, cancel polls (one per
    /// path), distinct vertices touched and arcs scanned.
    ///
    /// Degenerate terminals (equal or out of range) answer 0 with an
    /// empty [`Certificate::SourceReach`], matching the solvers'
    /// conventions.
    ///
    /// # Errors
    /// [`Cancelled`] when `cancel` fires before a path.
    pub fn run(
        &mut self,
        net: &FlowNetwork,
        s: VertexId,
        t: VertexId,
        cancel: &Cancel,
    ) -> Result<(Option<LocalFlow>, SolveReport), Cancelled> {
        let mut report = SolveReport::default();
        let n = net.num_vertices();
        let mut found = LocalFlow {
            value: 0,
            certificate: Certificate::SourceReach(Vec::new()),
            source: s,
            sink: t,
            flows: IdMap::default(),
        };
        if s == t || s.index() >= n || t.index() >= n {
            return Ok((Some(found), report));
        }
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.via.resize(n, EdgeId::default());
            self.carries.resize(n, 0);
        }
        self.run += 1;
        let first_round = self.round + 1;
        let out_of_s = net.capacity_out(s);
        let into_t = net
            .out_edges(t)
            .map(|e| net.capacity(e.reverse()))
            .fold(0, Capacity::saturating_add);
        let bound = out_of_s.min(into_t);
        let budget = BUDGET_PER_ARC.saturating_mul(net.num_directed_edges() as u64);
        while found.value < bound {
            report.cancel_polls += 1;
            cancel.check()?;
            match self.round(net, s, t, &mut found, &mut report, first_round, budget) {
                Round::Pushed => report.augmenting_paths += 1,
                Round::SourceDry => {
                    found.certificate = Certificate::SourceReach(sorted(&self.fwd));
                    return Ok((Some(found), report));
                }
                Round::SinkDry => {
                    found.certificate = Certificate::SinkReach(sorted(&self.bwd));
                    return Ok((Some(found), report));
                }
                Round::OverBudget => return Ok((None, report)),
            }
        }
        found.certificate = if bound == out_of_s {
            Certificate::SourceArcs
        } else {
            Certificate::SinkArcs
        };
        Ok((Some(found), report))
    }

    /// One BFS round from both terminals; pushes along the path it finds.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        net: &FlowNetwork,
        s: VertexId,
        t: VertexId,
        found: &mut LocalFlow,
        report: &mut SolveReport,
        first_round: u64,
        budget: u64,
    ) -> Round {
        self.round += 1;
        for (v, side) in [(s, Side::Fwd), (t, Side::Bwd)] {
            if self.mark[v.index()] >> 1 < first_round {
                report.vertices_touched += 1;
            }
            self.mark[v.index()] = 2 * self.round + side as u64;
        }
        self.fwd.clear();
        self.fwd.push(s);
        self.bwd.clear();
        self.bwd.push(t);
        let (mut fwd_next, mut bwd_next) = (0, 0);
        loop {
            let fwd_queued = self.fwd.len() - fwd_next;
            let bwd_queued = self.bwd.len() - bwd_next;
            if fwd_queued == 0 {
                return Round::SourceDry;
            }
            if bwd_queued == 0 {
                return Round::SinkDry;
            }
            if report.arc_scans > budget {
                return Round::OverBudget;
            }
            let meeting = if fwd_queued <= bwd_queued {
                fwd_next += 1;
                self.expand(
                    net,
                    found,
                    report,
                    self.fwd[fwd_next - 1],
                    Side::Fwd,
                    first_round,
                )
            } else {
                bwd_next += 1;
                self.expand(
                    net,
                    found,
                    report,
                    self.bwd[bwd_next - 1],
                    Side::Bwd,
                    first_round,
                )
            };
            if let Some(arc) = meeting {
                self.augment(net, s, t, found, arc);
                return Round::Pushed;
            }
        }
    }

    /// Scans `u`'s arcs for one side's search, queueing what it newly
    /// reaches. Returns the arc that joins the two searches, if any; it
    /// runs from the forward tree into the backward tree.
    fn expand(
        &mut self,
        net: &FlowNetwork,
        found: &LocalFlow,
        report: &mut SolveReport,
        u: VertexId,
        side: Side,
        first_round: u64,
    ) -> Option<EdgeId> {
        // Both endpoints of a pair that carries flow are flagged, so
        // `u`'s flag covers either direction of each of its pairs.
        let carries = self.carries[u.index()] == self.run;
        for e in net.out_edges(u) {
            report.arc_scans += 1;
            // Forward: the residual arc u→w. Backward: w→u, toward t.
            let arc = match side {
                Side::Fwd => e,
                Side::Bwd => e.reverse(),
            };
            let flow = if carries {
                flow_on(&found.flows, arc)
            } else {
                0
            };
            if net.capacity(arc) <= flow {
                continue;
            }
            let w = net.head(e);
            let mark = self.mark[w.index()];
            if mark >> 1 == self.round {
                if mark & 1 != side as u64 {
                    return Some(arc);
                }
                continue;
            }
            if mark >> 1 < first_round {
                report.vertices_touched += 1;
            }
            self.mark[w.index()] = 2 * self.round + side as u64;
            self.via[w.index()] = arc;
            match side {
                Side::Fwd => self.fwd.push(w),
                Side::Bwd => self.bwd.push(w),
            }
        }
        None
    }

    /// Pushes the bottleneck along `s ⇝ tail(arc) → head(arc) ⇝ t`.
    fn augment(
        &mut self,
        net: &FlowNetwork,
        s: VertexId,
        t: VertexId,
        found: &mut LocalFlow,
        arc: EdgeId,
    ) {
        self.path.clear();
        self.path.push(arc);
        let mut v = net.tail(arc);
        while v != s {
            let e = self.via[v.index()];
            self.path.push(e);
            v = net.tail(e);
        }
        let mut v = net.head(arc);
        while v != t {
            let e = self.via[v.index()];
            self.path.push(e);
            v = net.head(e);
        }
        let amount = self
            .path
            .iter()
            .map(|&e| net.capacity(e) - flow_on(&found.flows, e))
            .min()
            .unwrap_or(0);
        for &e in &self.path {
            let f = found.flows.entry(e.canonical()).or_insert(0);
            *f += if e.is_forward() { amount } else { -amount };
            self.carries[net.tail(e).index()] = self.run;
            self.carries[net.head(e).index()] = self.run;
        }
        found.value = found.value.saturating_add(amount);
    }
}

fn sorted(vertices: &[VertexId]) -> Vec<VertexId> {
    let mut side = vertices.to_vec();
    side.sort_unstable();
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_flow;
    use crate::Algorithm;
    use swgraph::{gen, FlowNetworkBuilder};

    fn v(id: u64) -> VertexId {
        VertexId::new(id)
    }

    fn solve(
        net: &FlowNetwork,
        s: VertexId,
        t: VertexId,
        cancel: &Cancel,
    ) -> Result<(Option<LocalFlow>, SolveReport), Cancelled> {
        LocalSearch::new().run(net, s, t, cancel)
    }

    fn answer(net: &FlowNetwork, s: u64, t: u64) -> (LocalFlow, SolveReport) {
        let (found, report) = solve(net, v(s), v(t), &Cancel::never()).unwrap();
        let found = found.expect("answers inside the budget");
        check_flow(net, v(s), v(t), &found.to_flow_result(net)).unwrap();
        assert_eq!(found.value, Algorithm::Dinic.run(net, v(s), v(t)).value);
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
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        for (s, t) in [(0, 0), (0, 9), (9, 0)] {
            let (found, _) = solve(&net, v(s), v(t), &Cancel::never()).unwrap();
            assert_eq!(found.unwrap().value, 0);
        }
    }

    #[test]
    fn two_high_degree_terminals_run_out_of_budget() {
        // s and t share 50 unit-capacity middles: every round rescans
        // s's 50 arcs, so 50 rounds cost ~25x the 200 arcs there are.
        let mut b = FlowNetworkBuilder::new(52);
        for m in 2..52 {
            b.add_undirected(0, m, 1);
            b.add_undirected(m, 1, 1);
        }
        let net = b.build();
        let (found, report) = solve(&net, v(0), v(1), &Cancel::never()).unwrap();
        assert_eq!(found, None);
        let budget = BUDGET_PER_ARC * net.num_directed_edges() as u64;
        assert!(report.arc_scans > budget, "{report:?}");
        assert!(report.augmenting_paths < 50);
    }

    #[test]
    fn an_expired_deadline_cancels() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cancel = Cancel::after(std::time::Duration::ZERO);
        assert_eq!(solve(&net, v(0), v(2), &cancel), Err(Cancelled));
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
                let reused = search.run(&net, v(s), v(t), &Cancel::never()).unwrap();
                let fresh = solve(&net, v(s), v(t), &Cancel::never()).unwrap();
                assert_eq!(reused, fresh, "seed {seed}, ({s},{t})");
            }
        }
    }
}

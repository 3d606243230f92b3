//! The accumulator (paper Sec. III-C): greedy, first-come-first-served
//! acceptance of conflict-free excess/augmenting paths.
//!
//! Two paths *conflict* when accepting both would push some directed
//! edge's flow past its capacity. The accumulator tracks tentatively
//! granted flow per edge and accepts a path iff it still has positive
//! residual after all prior grants.

use swgraph::{Capacity, EdgeId, IdMap};

use crate::path::{ExcessPath, PathEdge};

/// Tracks tentative flow grants and accepts conflict-free paths greedily.
///
/// # Example
/// ```
/// use ffmr_core::{Accumulator, ExcessPath, PathEdge};
/// use swgraph::EdgeId;
///
/// let hop = PathEdge { eid: EdgeId::new(0), from: 0, to: 1, cap: 1, flow: 0 };
/// let path = ExcessPath::from_edges(vec![hop]);
/// let mut acc = Accumulator::new();
/// assert_eq!(acc.try_accept(&path), Some(1));
/// assert_eq!(acc.try_accept(&path), None, "the unit edge is now spoken for");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Accumulator {
    granted: IdMap<EdgeId, Capacity>,
    accepted: usize,
}

impl Accumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bottleneck capacity `path` could still carry after earlier grants
    /// (without accepting it).
    #[must_use]
    pub fn available(&self, path: &ExcessPath) -> Capacity {
        self.available_over(path.edges())
    }

    fn available_over(&self, hops: &[PathEdge]) -> Capacity {
        hops.iter()
            .map(|hop| hop.residual() - self.granted.get(&hop.eid).copied().unwrap_or(0))
            .min()
            .unwrap_or(Capacity::MAX)
    }

    fn grant(&mut self, hops: &[PathEdge], delta: Capacity) {
        for hop in hops {
            *self.granted.entry(hop.eid).or_insert(0) += delta;
        }
    }

    /// Accepts `path` if it is conflict-free, granting and returning its
    /// bottleneck `delta`; `None` if any hop is exhausted.
    ///
    /// Empty paths are accepted with an unbounded delta (they constrain
    /// nothing) — callers that treat the result as a flow amount should
    /// only pass non-empty paths.
    pub fn try_accept(&mut self, path: &ExcessPath) -> Option<Capacity> {
        let delta = self.available(path);
        if delta <= 0 {
            return None;
        }
        if !path.edges().is_empty() && delta < Capacity::MAX {
            self.grant(path.edges(), delta);
        }
        self.accepted += 1;
        Some(delta)
    }

    /// Offers every augmenting-path candidate `se|te` (source path × sink
    /// path, source-major, empty concatenations skipped) in turn and calls
    /// `accept(se, te)` for each one granted. Grants, the accepted count
    /// and the order of `accept` calls equal those of calling
    /// [`Accumulator::try_accept`] on each `ExcessPath::concat(se, te)`,
    /// but no candidate is built: a pair is judged on its two halves, and
    /// since grants only grow, a half found exhausted is never offered
    /// again — a source path ends its row, a sink path is skipped for the
    /// rest of the call.
    pub fn accept_pairs(
        &mut self,
        sources: &[ExcessPath],
        sinks: &[ExcessPath],
        mut accept: impl FnMut(&ExcessPath, &ExcessPath),
    ) {
        if sources.is_empty() || sinks.is_empty() {
            return;
        }
        let mut sink_exhausted = vec![false; sinks.len()];
        for se in sources {
            // Grants change only on acceptance, so this stays current
            // until then.
            let mut source_left = self.available_over(se.edges());
            for (te, exhausted) in sinks.iter().zip(&mut sink_exhausted) {
                if source_left <= 0 {
                    break;
                }
                if *exhausted || (se.is_empty() && te.is_empty()) {
                    continue;
                }
                let sink_left = self.available_over(te.edges());
                if sink_left <= 0 {
                    *exhausted = true;
                    continue;
                }
                let delta = source_left.min(sink_left);
                if delta < Capacity::MAX {
                    self.grant(se.edges(), delta);
                    self.grant(te.edges(), delta);
                    source_left = self.available_over(se.edges());
                }
                self.accepted += 1;
                accept(se, te);
            }
        }
    }

    /// Number of paths accepted so far.
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Clears all grants (reused between rounds).
    pub fn reset(&mut self) {
        self.granted.clear();
        self.accepted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathEdge;

    /// Builds a connected path whose hop `i` runs from vertex `i` to
    /// `i + 1` (vertices are irrelevant to the accumulator).
    fn path(hops: &[(u64, i64, i64)]) -> ExcessPath {
        ExcessPath::from_edges(
            hops.iter()
                .enumerate()
                .map(|(i, &(eid, cap, flow))| PathEdge {
                    eid: EdgeId::new(eid),
                    from: i as u64,
                    to: i as u64 + 1,
                    cap,
                    flow,
                })
                .collect(),
        )
    }

    #[test]
    fn grants_bottleneck_and_blocks_conflicts() {
        let mut acc = Accumulator::new();
        let p1 = path(&[(0, 3, 0), (2, 2, 0)]);
        assert_eq!(acc.try_accept(&p1), Some(2));
        // A second pass over edge 0 has 1 unit left; edge 2 has none.
        let p2 = path(&[(0, 3, 0)]);
        assert_eq!(acc.try_accept(&p2), Some(1));
        let p3 = path(&[(2, 2, 0)]);
        assert_eq!(acc.try_accept(&p3), None);
        assert_eq!(acc.accepted(), 2);
    }

    #[test]
    fn saturated_paths_are_rejected_outright() {
        let mut acc = Accumulator::new();
        let p = path(&[(0, 1, 1)]);
        assert_eq!(acc.try_accept(&p), None);
        assert_eq!(acc.accepted(), 0);
    }

    #[test]
    fn disjoint_paths_all_accepted() {
        let mut acc = Accumulator::new();
        for i in 0..10 {
            let p = path(&[(i * 2, 1, 0)]);
            assert_eq!(acc.try_accept(&p), Some(1));
        }
        assert_eq!(acc.accepted(), 10);
    }

    #[test]
    fn opposite_directions_do_not_conflict() {
        // Traversing e and e.reverse() are tracked independently (both
        // feasible: the flows cancel).
        let mut acc = Accumulator::new();
        let fwd = path(&[(4, 1, 0)]);
        let bwd = path(&[(5, 1, 0)]);
        assert!(acc.try_accept(&fwd).is_some());
        assert!(acc.try_accept(&bwd).is_some());
    }

    #[test]
    fn reset_clears_grants() {
        let mut acc = Accumulator::new();
        let p = path(&[(0, 1, 0)]);
        assert!(acc.try_accept(&p).is_some());
        assert!(acc.try_accept(&p).is_none());
        acc.reset();
        assert!(acc.try_accept(&p).is_some());
        assert_eq!(acc.accepted(), 1);
    }

    #[test]
    fn empty_path_is_accepted_without_grants() {
        let mut acc = Accumulator::new();
        assert_eq!(acc.try_accept(&ExcessPath::empty()), Some(i64::MAX));
    }
}

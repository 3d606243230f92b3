//! `aug_proc`: the stateful augmenting-path acceptor (paper Sec. IV-A).
//!
//! In FF2 onward, reducers submit augmenting-path candidates to this
//! service instead of shuffling them to the sink's reducer; FF1 submits
//! from the sink's (and source's) reducer, standing in for the paper's
//! sequential accumulator at `t`. A submission is a task-context call
//! ([`mapreduce::TaskContext::submit`]): the runtime applies each reduce
//! task's batch at the barrier, in task-index order, as soon as every
//! lower-indexed task has completed. Greedy first-come-first-served
//! acceptance therefore runs over a sequence fixed by the input alone —
//! the same at any thread count, in process or in remote workers — while
//! still overlapping the reduce tasks that have not finished, which is
//! how `aug_proc` "finishes immediately after the last reducer".
//!
//! The paper's `MaxQ` column (Table I) was the depth of the RMI queue. A
//! queue drained by a consumer thread made that depth a race; here it is
//! the largest number of candidates one reduce task handed over in the
//! round, which is deterministic.

use std::any::Any;

use ffmr_sync::Mutex;
use mapreduce::{Datum, Service};
use swgraph::{Capacity, EdgeId, IdMap};

use crate::accumulator::Accumulator;
use crate::augmented::AugmentedEdges;
use crate::path::ExcessPath;

/// The name the FF driver attaches [`AugProc`] under, and reducers submit to.
pub(crate) const AUG_PROC: &str = "aug_proc";

/// What one round of acceptance produced.
#[derive(Debug, Clone, Default)]
pub struct RoundAcceptance {
    /// Flow deltas to broadcast to next round's mappers.
    pub deltas: AugmentedEdges,
    /// Number of augmenting paths accepted ("A-Paths").
    pub accepted_paths: u64,
    /// Number of candidates rejected by the accumulator.
    pub rejected_paths: u64,
    /// Largest number of candidates one task submitted this round
    /// ("MaxQ").
    pub max_queue: usize,
    /// Total flow value gained this round.
    pub value_gained: Capacity,
}

#[derive(Debug, Default)]
struct Inner {
    accumulator: Accumulator,
    deltas: AugmentedEdges,
    // Routes submitted this round, bucketed by route hash: a path can be
    // offered twice (FF1 meets the same route at two of its vertices),
    // and an at-most-once accept per route per round keeps acceptance
    // idempotent. The full edge-id sequence is kept and compared on hash
    // collision — two *distinct* paths that happen to share a hash are
    // both legitimate candidates, not duplicates.
    submitted: IdMap<u64, Vec<Box<[EdgeId]>>>,
    accepted: u64,
    rejected: u64,
    max_queue: usize,
    value_gained: Capacity,
}

impl Inner {
    fn submit(&mut self, path: &ExcessPath) {
        let bucket = self.submitted.entry(path.route_hash()).or_default();
        let route = path.edges().iter().map(|hop| hop.eid);
        if bucket
            .iter()
            .any(|seen| seen.iter().copied().eq(route.clone()))
        {
            return; // duplicate submission
        }
        bucket.push(route.collect());
        if path.is_empty() {
            return;
        }
        match self.accumulator.try_accept(path) {
            Some(delta) => {
                for hop in path.edges() {
                    self.deltas.add(hop.eid, delta);
                }
                self.accepted += 1;
                self.value_gained += delta;
            }
            None => self.rejected += 1,
        }
    }
}

/// The stateful augmenting-path acceptance service.
#[derive(Debug, Default)]
pub struct AugProc {
    inner: Mutex<Inner>,
}

impl AugProc {
    /// Starts round `round`: forgets the previous round's grants,
    /// submissions and counts.
    pub fn open_round(&self, round: usize) {
        let mut inner = self.inner.lock();
        inner.submitted.clear();
        inner.accumulator.reset();
        inner.deltas = AugmentedEdges::new(round);
        inner.accepted = 0;
        inner.rejected = 0;
        inner.max_queue = 0;
        inner.value_gained = 0;
    }

    /// Closes the round and returns its results.
    pub fn close_round(&self) -> RoundAcceptance {
        let mut inner = self.inner.lock();
        RoundAcceptance {
            deltas: std::mem::take(&mut inner.deltas),
            accepted_paths: inner.accepted,
            rejected_paths: inner.rejected,
            max_queue: inner.max_queue,
            value_gained: inner.value_gained,
        }
    }
}

impl Service for AugProc {
    // Round lifecycle is driven explicitly by the FF driver (open_round /
    // close_round) because it needs the round number and the results; the
    // MR-level hooks are intentionally no-ops.
    fn as_any(&self) -> &dyn Any {
        self
    }

    /// Accepts or rejects one task's candidates (each an encoded
    /// [`ExcessPath`]) in submission order.
    fn apply_calls(&self, calls: &[Vec<u8>]) -> Result<(), String> {
        let mut inner = self.inner.lock();
        inner.max_queue = inner.max_queue.max(calls.len());
        for payload in calls {
            let mut input = payload.as_slice();
            let path = ExcessPath::decode(&mut input).map_err(|e| e.to_string())?;
            if !input.is_empty() {
                return Err("trailing bytes after excess path".into());
            }
            inner.submit(&path);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathEdge;

    fn unit_path(eids: &[u64]) -> ExcessPath {
        ExcessPath::from_edges(
            eids.iter()
                .enumerate()
                .map(|(i, &e)| PathEdge {
                    eid: EdgeId::new(e),
                    from: i as u64,
                    to: i as u64 + 1,
                    cap: 1,
                    flow: 0,
                })
                .collect(),
        )
    }

    /// One task's batch of candidates, as the runtime hands it over.
    fn batch(paths: &[ExcessPath]) -> Vec<Vec<u8>> {
        paths
            .iter()
            .map(|p| {
                let mut buf = Vec::new();
                p.encode(&mut buf);
                buf
            })
            .collect()
    }

    fn apply(aug: &AugProc, paths: &[ExcessPath]) {
        aug.apply_calls(&batch(paths)).unwrap();
    }

    #[test]
    fn accepts_and_reports() {
        let aug = AugProc::default();
        aug.open_round(3);
        apply(
            &aug,
            &[unit_path(&[0, 2]), unit_path(&[0, 4]), unit_path(&[6])],
        );
        let r = aug.close_round();
        assert_eq!(r.accepted_paths, 2, "[0, 4] conflicts on edge 0");
        assert_eq!(r.rejected_paths, 1);
        assert_eq!(r.value_gained, 2);
        assert_eq!(r.max_queue, 3);
        assert_eq!(r.deltas.get(EdgeId::new(0)), 1);
        assert_eq!(r.deltas.round(), 3);
    }

    #[test]
    fn max_queue_is_the_largest_batch_and_batching_keeps_acceptance() {
        let paths: Vec<ExcessPath> = [[0, 2], [0, 4], [6, 8], [8, 10], [12, 14]]
            .iter()
            .map(|eids| unit_path(eids))
            .collect();
        let one = AugProc::default();
        one.open_round(1);
        apply(&one, &paths);
        let one = one.close_round();

        let split = AugProc::default();
        split.open_round(1);
        apply(&split, &paths[..2]);
        apply(&split, &paths[2..]);
        let split = split.close_round();

        assert_eq!((one.max_queue, split.max_queue), (5, 3));
        assert_eq!(one.accepted_paths, split.accepted_paths);
        assert_eq!(one.rejected_paths, split.rejected_paths);
        assert_eq!(one.deltas.to_blob(), split.deltas.to_blob());
    }

    #[test]
    fn rounds_are_independent() {
        let aug = AugProc::default();
        aug.open_round(1);
        apply(&aug, &[unit_path(&[0])]);
        let r1 = aug.close_round();
        assert_eq!(r1.accepted_paths, 1);

        aug.open_round(2);
        apply(&aug, &[unit_path(&[0])]); // same edge, fresh accumulator
        let r2 = aug.close_round();
        assert_eq!(r2.accepted_paths, 1);
        assert_eq!(r2.max_queue, 1);
        assert_eq!(r2.deltas.round(), 2);
    }

    #[test]
    fn empty_paths_ignored() {
        let aug = AugProc::default();
        aug.open_round(0);
        apply(&aug, &[ExcessPath::empty()]);
        let r = aug.close_round();
        assert_eq!(r.accepted_paths, 0);
        assert_eq!(r.rejected_paths, 0);
    }

    #[test]
    fn duplicate_submissions_are_idempotent() {
        let aug = AugProc::default();
        aug.open_round(1);
        apply(&aug, &[unit_path(&[0])]);
        apply(&aug, &[unit_path(&[0])]); // the same route offered again
        let r = aug.close_round();
        assert_eq!(r.accepted_paths, 1);
        assert_eq!(r.rejected_paths, 0, "duplicates are dropped, not rejected");
        assert_eq!(r.value_gained, 1);
    }

    #[test]
    fn colliding_route_hashes_do_not_merge_distinct_paths() {
        // route_hash is FNV-1a over edge ids: h = ((BASIS ^ a) * P ^ b) * P
        // for a two-hop route [a, b]. The fold is invertible, so for any
        // a1 != a2 we can pick b2 making [a2, b2] collide with [a1, b1].
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const P: u64 = 0x0000_0100_0000_01b3;
        let (a1, b1, a2) = (2u64, 6u64, 4u64);
        let b2 = b1 ^ (BASIS ^ a1).wrapping_mul(P) ^ (BASIS ^ a2).wrapping_mul(P);
        let p1 = unit_path(&[a1, b1]);
        let p2 = unit_path(&[a2, b2]);
        assert_eq!(p1.route_hash(), p2.route_hash(), "crafted collision");
        // The four edges are distinct, so the paths are edge-disjoint and
        // both are legitimate candidates.
        let mut eids = [a1, b1, a2, b2];
        eids.sort_unstable();
        assert!(eids.windows(2).all(|w| w[0] != w[1]));

        let aug = AugProc::default();
        aug.open_round(1);
        apply(&aug, &[p1, p2]);
        let r = aug.close_round();
        assert_eq!(
            r.accepted_paths, 2,
            "a hash collision must not swallow a distinct candidate"
        );
        assert_eq!(r.value_gained, 2);
    }

    #[test]
    fn apply_calls_rejects_garbage() {
        let aug = AugProc::default();
        assert!(aug.apply_calls(&[vec![0xff, 0xff, 0xff]]).is_err());
        let mut trailing = batch(&[unit_path(&[0])]);
        trailing[0].push(0);
        assert!(aug.apply_calls(&trailing).is_err());
    }

    #[test]
    fn close_without_open_is_empty() {
        let aug = AugProc::default();
        let r = aug.close_round();
        assert_eq!(r.accepted_paths, 0);
        assert_eq!(r.max_queue, 0);
    }
}

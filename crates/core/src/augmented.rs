//! The per-round `AugmentedEdges` table (paper Sec. III-B1).
//!
//! When augmenting paths are accepted in round *r*, the flow changes they
//! cause are collected into a small table and distributed — as a side
//! file, not as MR records — to every mapper of round *r + 1*, which
//! applies them to its local copy of the residual network. "The size of
//! the list is proportional to the flow changes and is expected to be much
//! smaller than the size of the graph."

use mapreduce::encode::{get_varint, put_varint};
use mapreduce::error::DecodeError;
use mapreduce::Datum;
use swgraph::{Capacity, EdgeId, IdMap};

/// Flow deltas per *directed* edge for one round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AugmentedEdges {
    round: usize,
    // The raw adds per directed edge, as the side file carries them.
    // Never iterated in an order that reaches output: `to_blob` sorts.
    deltas: IdMap<EdgeId, Capacity>,
    // The net change of both directions of every edge in `deltas`, so
    // `flow_change` (run per edge copy and path hop) probes once.
    net: IdMap<EdgeId, Capacity>,
}

impl AugmentedEdges {
    /// An empty table for `round`.
    #[must_use]
    pub fn new(round: usize) -> Self {
        Self {
            round,
            deltas: IdMap::default(),
            net: IdMap::default(),
        }
    }

    /// The round whose acceptances this table carries.
    #[must_use]
    pub fn round(&self) -> usize {
        self.round
    }

    /// Adds `delta` flow along directed edge `eid` (accumulating).
    pub fn add(&mut self, eid: EdgeId, delta: Capacity) {
        if delta != 0 {
            *self.deltas.entry(eid).or_insert(0) += delta;
            add_net(&mut self.net, eid, delta);
        }
    }

    /// Raw delta recorded against the exact directed edge `eid`.
    #[must_use]
    pub fn get(&self, eid: EdgeId) -> Capacity {
        self.deltas.get(&eid).copied().unwrap_or(0)
    }

    /// Net flow change for the *directed* edge `eid`, honoring skew
    /// symmetry: traversals of `eid` add flow, traversals of its reverse
    /// remove it.
    #[must_use]
    pub fn flow_change(&self, eid: EdgeId) -> Capacity {
        if self.net.is_empty() {
            return 0;
        }
        self.net.get(&eid).copied().unwrap_or(0)
    }

    /// Number of directed edges with recorded deltas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether no deltas were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Serializes to the side-file blob format (sorted for determinism).
    #[must_use]
    pub fn to_blob(&self) -> Vec<u8> {
        let mut entries: Vec<(EdgeId, Capacity)> =
            self.deltas.iter().map(|(&e, &d)| (e, d)).collect();
        entries.sort();
        let mut buf = Vec::new();
        put_varint(self.round as u64, &mut buf);
        put_varint(entries.len() as u64, &mut buf);
        for (e, d) in entries {
            put_varint(e.raw(), &mut buf);
            d.encode(&mut buf);
        }
        buf
    }

    /// Parses a blob written by [`AugmentedEdges::to_blob`].
    ///
    /// # Errors
    /// [`DecodeError`] on malformed input.
    pub fn from_blob(mut input: &[u8]) -> Result<Self, DecodeError> {
        let round = get_varint(&mut input)? as usize;
        let n = get_varint(&mut input)? as usize;
        let mut deltas = IdMap::with_capacity_and_hasher(n.min(input.len()), Default::default()); // hostile-length guard
        for _ in 0..n {
            let e = EdgeId::new(get_varint(&mut input)?);
            let d = Capacity::decode(&mut input)?;
            deltas.insert(e, d);
        }
        if !input.is_empty() {
            return Err(DecodeError::new("trailing augmented-edges bytes"));
        }
        let mut net = IdMap::with_capacity_and_hasher(2 * deltas.len(), Default::default());
        for (&e, &d) in &deltas {
            add_net(&mut net, e, d);
        }
        Ok(Self { round, deltas, net })
    }
}

/// Records a raw add of `delta` on `eid` in the net table: skew symmetry
/// gives its reverse the opposite change.
fn add_net(net: &mut IdMap<EdgeId, Capacity>, eid: EdgeId, delta: Capacity) {
    *net.entry(eid).or_insert(0) += delta;
    *net.entry(eid.reverse()).or_insert(0) -= delta;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut a = AugmentedEdges::new(3);
        a.add(EdgeId::new(4), 1);
        a.add(EdgeId::new(4), 2);
        a.add(EdgeId::new(6), 0); // no-op
        assert_eq!(a.get(EdgeId::new(4)), 3);
        assert_eq!(a.len(), 1);
        assert_eq!(a.round(), 3);
    }

    #[test]
    fn flow_change_is_skew_symmetric() {
        let mut a = AugmentedEdges::new(0);
        a.add(EdgeId::new(4), 3); // forward traversal
        a.add(EdgeId::new(5), 1); // reverse traversal
        assert_eq!(a.flow_change(EdgeId::new(4)), 2);
        assert_eq!(a.flow_change(EdgeId::new(5)), -2);
    }

    #[test]
    fn flow_change_matches_the_raw_adds_after_a_blob_round_trip() {
        let mut a = AugmentedEdges::new(2);
        for (e, d) in [(4, 3), (5, 1), (8, -2), (9, 2), (12, 1), (4, -1)] {
            a.add(EdgeId::new(e), d);
        }
        let back = AugmentedEdges::from_blob(&a.to_blob()).unwrap();
        for e in 0..16 {
            let eid = EdgeId::new(e);
            let raw = a.get(eid) - a.get(eid.reverse());
            assert_eq!(a.flow_change(eid), raw, "edge {e}");
            assert_eq!(back.flow_change(eid), raw, "edge {e} from the blob");
        }
        assert_eq!(AugmentedEdges::new(0).flow_change(EdgeId::new(3)), 0);
    }

    #[test]
    fn blob_round_trip() {
        let mut a = AugmentedEdges::new(7);
        a.add(EdgeId::new(10), 1);
        a.add(EdgeId::new(3), -2);
        a.add(EdgeId::new(500), 9);
        let blob = a.to_blob();
        let back = AugmentedEdges::from_blob(&blob).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn blob_is_deterministic() {
        let build = || {
            let mut a = AugmentedEdges::new(1);
            for i in 0..50 {
                a.add(EdgeId::new(i * 7 % 23), 1);
            }
            a.to_blob()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn empty_blob_round_trip() {
        let a = AugmentedEdges::new(0);
        assert!(a.is_empty());
        let back = AugmentedEdges::from_blob(&a.to_blob()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn malformed_blobs_rejected() {
        assert!(AugmentedEdges::from_blob(&[]).is_err());
        let mut blob = AugmentedEdges::new(0).to_blob();
        blob.push(0xAA); // trailing garbage
        assert!(AugmentedEdges::from_blob(&blob).is_err());
    }
}

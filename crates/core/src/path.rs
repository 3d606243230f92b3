//! Excess paths: partial augmenting paths carried by vertex records.
//!
//! A *source excess path* runs from the source `s` to its owning vertex; a
//! *sink excess path* runs from its owning vertex to the sink `t`
//! (paper Sec. III-B). Each hop records the directed edge it traverses
//! together with that edge's capacity and the flow it carried when last
//! refreshed, so residual capacity — and therefore saturation — is
//! decidable locally.

use mapreduce::encode::{get_varint, put_varint};
use mapreduce::error::DecodeError;
use mapreduce::Datum;
use swgraph::{Capacity, EdgeId};

use crate::augmented::AugmentedEdges;

/// One hop of an excess path: a directed edge traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEdge {
    /// The directed edge traversed.
    pub eid: EdgeId,
    /// Tail vertex of the traversal.
    pub from: u64,
    /// Head vertex of the traversal.
    pub to: u64,
    /// Capacity of the directed edge.
    pub cap: Capacity,
    /// Flow on the directed edge as of the last refresh.
    pub flow: Capacity,
}

impl PathEdge {
    /// Residual capacity of this hop.
    #[must_use]
    pub fn residual(&self) -> Capacity {
        self.cap - self.flow
    }
}

impl Datum for PathEdge {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(self.eid.raw(), buf);
        put_varint(self.from, buf);
        put_varint(self.to, buf);
        self.cap.encode(buf);
        self.flow.encode(buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            eid: EdgeId::new(get_varint(input)?),
            from: get_varint(input)?,
            to: get_varint(input)?,
            cap: Capacity::decode(input)?,
            flow: Capacity::decode(input)?,
        })
    }
}

/// A partial augmenting path: an ordered, cycle-free sequence of hops.
///
/// The empty path is valid — it is how the source's (and sink's) own
/// excess path starts before any extension.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExcessPath {
    edges: Vec<PathEdge>,
}

impl ExcessPath {
    /// The empty path (seed state at the terminals).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// A path over the given hops.
    ///
    /// # Panics
    /// Debug-panics if consecutive hops do not connect.
    #[must_use]
    pub fn from_edges(edges: Vec<PathEdge>) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0].to == w[1].from),
            "path hops must connect"
        );
        Self { edges }
    }

    /// The hops in order.
    #[must_use]
    pub fn edges(&self) -> &[PathEdge] {
        &self.edges
    }

    /// Number of hops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether this is the empty path.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// First vertex of the path, if any.
    #[must_use]
    pub fn first_vertex(&self) -> Option<u64> {
        self.edges.first().map(|e| e.from)
    }

    /// Last vertex of the path, if any.
    #[must_use]
    pub fn last_vertex(&self) -> Option<u64> {
        self.edges.last().map(|e| e.to)
    }

    /// Bottleneck residual capacity; unbounded for the empty path.
    #[must_use]
    pub fn residual(&self) -> Capacity {
        self.edges
            .iter()
            .map(PathEdge::residual)
            .min()
            .unwrap_or(Capacity::MAX)
    }

    /// Whether any hop is saturated.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.residual() <= 0
    }

    /// Whether the path visits `v` (as either endpoint of any hop).
    #[must_use]
    pub fn contains_vertex(&self, v: u64) -> bool {
        self.edges.iter().any(|e| e.from == v || e.to == v)
    }

    /// Extends a *source* path forward with one more hop (`self` ends at
    /// `hop.from`).
    #[must_use]
    pub fn extended(&self, hop: PathEdge) -> Self {
        debug_assert!(self.last_vertex().is_none_or(|v| v == hop.from));
        let mut edges = Vec::with_capacity(self.edges.len() + 1);
        edges.extend_from_slice(&self.edges);
        edges.push(hop);
        Self { edges }
    }

    /// Extends a *sink* path backward with one hop in front (`self`
    /// starts at `hop.to`).
    #[must_use]
    pub fn prepended(&self, hop: PathEdge) -> Self {
        debug_assert!(self.first_vertex().is_none_or(|v| v == hop.to));
        let mut edges = Vec::with_capacity(self.edges.len() + 1);
        edges.push(hop);
        edges.extend_from_slice(&self.edges);
        Self { edges }
    }

    /// Concatenates a source path ending at `u` with a sink path starting
    /// at `u`, forming an augmenting-path candidate (paper's `se|te`).
    #[must_use]
    pub fn concat(source: &ExcessPath, sink: &ExcessPath) -> Self {
        debug_assert!(
            source.last_vertex().is_none()
                || sink.first_vertex().is_none()
                || source.last_vertex() == sink.first_vertex()
        );
        let mut edges = Vec::with_capacity(source.edges.len() + sink.edges.len());
        edges.extend_from_slice(&source.edges);
        edges.extend_from_slice(&sink.edges);
        Self { edges }
    }

    /// Makes `self` the path `head` then `tail`, keeping its allocation:
    /// the in-place form of [`ExcessPath::extended`],
    /// [`ExcessPath::prepended`] and [`ExcessPath::concat`] for a caller
    /// that reuses one scratch path.
    pub fn assign_concat(&mut self, head: &[PathEdge], tail: &[PathEdge]) {
        debug_assert!(head
            .last()
            .zip(tail.first())
            .is_none_or(|(a, b)| a.to == b.from));
        self.edges.clear();
        self.edges.extend_from_slice(head);
        self.edges.extend_from_slice(tail);
    }

    /// Refreshes each hop's flow from `deltas` and reports whether the
    /// path survived (is still unsaturated).
    pub fn refresh(&mut self, deltas: &AugmentedEdges) -> bool {
        for hop in &mut self.edges {
            hop.flow += deltas.flow_change(hop.eid);
        }
        !self.is_saturated()
    }

    /// A stable identity for this path's route (hash of the edge-id
    /// sequence), used by FF5 to remember which path was extended to
    /// which neighbor.
    #[must_use]
    pub fn route_hash(&self) -> u64 {
        // FNV-1a over the edge ids: cheap, stable across processes.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in &self.edges {
            h ^= e.eid.raw();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl Datum for ExcessPath {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        self.edges.encode(buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            edges: Vec::<PathEdge>::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(eid: u64, from: u64, to: u64, cap: i64, flow: i64) -> PathEdge {
        PathEdge {
            eid: EdgeId::new(eid),
            from,
            to,
            cap,
            flow,
        }
    }

    #[test]
    fn encode_round_trip() {
        let p = ExcessPath::from_edges(vec![hop(0, 5, 6, 1, 0), hop(4, 6, 7, 3, -2)]);
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(ExcessPath::decode(&mut s).unwrap(), p);
        assert!(s.is_empty());
    }

    #[test]
    fn residual_is_bottleneck() {
        let p = ExcessPath::from_edges(vec![hop(0, 0, 1, 5, 2), hop(2, 1, 2, 4, 3)]);
        assert_eq!(p.residual(), 1);
        assert!(!p.is_saturated());
        let saturated = ExcessPath::from_edges(vec![hop(0, 0, 1, 1, 1)]);
        assert!(saturated.is_saturated());
    }

    #[test]
    fn empty_path_semantics() {
        let p = ExcessPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.residual(), Capacity::MAX);
        assert!(!p.is_saturated());
        assert_eq!(p.first_vertex(), None);
        assert!(!p.contains_vertex(0));
    }

    #[test]
    fn extension_and_prepension() {
        let src = ExcessPath::empty().extended(hop(0, 0, 1, 1, 0));
        let src2 = src.extended(hop(2, 1, 2, 1, 0));
        assert_eq!(src2.len(), 2);
        assert_eq!(src2.first_vertex(), Some(0));
        assert_eq!(src2.last_vertex(), Some(2));

        let snk = ExcessPath::empty().prepended(hop(8, 4, 5, 1, 0));
        let snk2 = snk.prepended(hop(6, 3, 4, 1, 0));
        assert_eq!(snk2.first_vertex(), Some(3));
        assert_eq!(snk2.last_vertex(), Some(5));
    }

    #[test]
    fn concat_forms_candidate() {
        let src = ExcessPath::from_edges(vec![hop(0, 0, 1, 1, 0)]);
        let snk = ExcessPath::from_edges(vec![hop(2, 1, 2, 1, 0)]);
        let aug = ExcessPath::concat(&src, &snk);
        assert_eq!(aug.first_vertex(), Some(0));
        assert_eq!(aug.last_vertex(), Some(2));
        assert_eq!(aug.len(), 2);
    }

    #[test]
    fn refresh_applies_deltas_and_detects_saturation() {
        let mut deltas = AugmentedEdges::new(1);
        deltas.add(EdgeId::new(0), 1);
        let mut p = ExcessPath::from_edges(vec![hop(0, 0, 1, 1, 0), hop(2, 1, 2, 1, 0)]);
        assert!(!p.refresh(&deltas), "hop 0 saturated by the delta");
        assert_eq!(p.edges()[0].flow, 1);
        assert_eq!(p.edges()[1].flow, 0);
    }

    #[test]
    fn refresh_applies_reverse_deltas() {
        // Delta on the reverse direction frees capacity on this hop.
        let mut deltas = AugmentedEdges::new(1);
        deltas.add(EdgeId::new(1), 1); // reverse of edge 0
        let mut p = ExcessPath::from_edges(vec![hop(0, 0, 1, 1, 1)]);
        assert!(p.refresh(&deltas));
        assert_eq!(p.edges()[0].flow, 0);
    }

    #[test]
    fn route_hash_distinguishes_routes() {
        let a = ExcessPath::from_edges(vec![hop(0, 0, 1, 1, 0)]);
        let b = ExcessPath::from_edges(vec![hop(2, 0, 1, 1, 0)]);
        assert_ne!(a.route_hash(), b.route_hash());
        // Flow changes do not change identity.
        let a2 = ExcessPath::from_edges(vec![hop(0, 0, 1, 1, 1)]);
        assert_eq!(a.route_hash(), a2.route_hash());
    }

    #[test]
    fn contains_checks() {
        let p = ExcessPath::from_edges(vec![hop(0, 0, 1, 1, 0), hop(2, 1, 2, 1, 0)]);
        assert!(p.contains_vertex(0));
        assert!(p.contains_vertex(2));
        assert!(!p.contains_vertex(3));
    }
}

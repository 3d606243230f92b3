//! The MR vertex record ⟨Su, Tu, Eu⟩ (paper Sec. III-C).
//!
//! A *master* record carries the vertex's adjacency (`Eu`) plus its stored
//! source and sink excess paths; a *fragment* is a message from another
//! vertex — excess-path extensions or augmenting-path candidates — and
//! carries no edges. "The master vertex is differentiated from a vertex
//! fragment as it has at least one edge."

use mapreduce::encode::{get_varint, put_varint, varint_len};
use mapreduce::error::DecodeError;
use mapreduce::Datum;
use swgraph::{Capacity, EdgeId};

use crate::augmented::AugmentedEdges;
use crate::path::{ExcessPath, PathEdge};

/// One adjacency entry of a master vertex: the directed edge `u -> to`
/// plus the FF5 "already extended" bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexEdge {
    /// Neighbor vertex id.
    pub to: u64,
    /// Directed edge id of `u -> to` (its reverse is `eid ^ 1`).
    pub eid: EdgeId,
    /// Flow on `u -> to` (negative when the reverse direction carries).
    pub flow: Capacity,
    /// Capacity of `u -> to`.
    pub cap: Capacity,
    /// Capacity of `to -> u` (needed to extend sink paths backward).
    pub rev_cap: Capacity,
    /// FF5: route hash of the source path last extended over this edge.
    pub sent_source: Option<u64>,
    /// FF5: route hash of the sink path last extended over this edge.
    pub sent_sink: Option<u64>,
}

impl VertexEdge {
    /// Residual capacity of `u -> to`.
    #[must_use]
    pub fn residual(&self) -> Capacity {
        self.cap - self.flow
    }

    /// Residual capacity of `to -> u` (for backward sink-path extension):
    /// `rev_cap - f(to -> u)` with `f(to -> u) = -flow`.
    #[must_use]
    pub fn rev_residual(&self) -> Capacity {
        self.rev_cap + self.flow
    }

    /// The hop a source path takes when extended over this edge.
    #[must_use]
    pub fn forward_hop(&self, u: u64) -> PathEdge {
        PathEdge {
            eid: self.eid,
            from: u,
            to: self.to,
            cap: self.cap,
            flow: self.flow,
        }
    }

    /// The hop a sink path gains in front when extended backward over
    /// this edge (the neighbor traverses `to -> u`).
    #[must_use]
    pub fn backward_hop(&self, u: u64) -> PathEdge {
        PathEdge {
            eid: self.eid.reverse(),
            from: self.to,
            to: u,
            cap: self.rev_cap,
            flow: -self.flow,
        }
    }
}

impl Datum for VertexEdge {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(self.to, buf);
        put_varint(self.eid.raw(), buf);
        self.flow.encode(buf);
        self.cap.encode(buf);
        self.rev_cap.encode(buf);
        self.sent_source.encode(buf);
        self.sent_sink.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            to: get_varint(input)?,
            eid: EdgeId::new(get_varint(input)?),
            flow: Capacity::decode(input)?,
            cap: Capacity::decode(input)?,
            rev_cap: Capacity::decode(input)?,
            sent_source: Option::<u64>::decode(input)?,
            sent_sink: Option::<u64>::decode(input)?,
        })
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.to)
            + varint_len(self.eid.raw())
            + self.flow.encoded_len()
            + self.cap.encoded_len()
            + self.rev_cap.encoded_len()
            + self.sent_source.encoded_len()
            + self.sent_sink.encoded_len()
    }
}

/// The value of one MR record: ⟨Su, Tu, Eu⟩.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VertexValue {
    /// Source excess paths `Su` (paths from `s` to this vertex).
    pub source_paths: Vec<ExcessPath>,
    /// Sink excess paths `Tu` (paths from this vertex to `t`).
    pub sink_paths: Vec<ExcessPath>,
    /// Adjacency `Eu`; empty for fragments.
    pub edges: Vec<VertexEdge>,
}

impl VertexValue {
    /// An empty fragment.
    #[must_use]
    pub fn fragment() -> Self {
        Self::default()
    }

    /// A fragment carrying one source-path extension or augmenting-path
    /// candidate.
    #[must_use]
    pub fn source_fragment(path: ExcessPath) -> Self {
        Self {
            source_paths: vec![path],
            ..Self::default()
        }
    }

    /// A fragment carrying one sink-path extension.
    #[must_use]
    pub fn sink_fragment(path: ExcessPath) -> Self {
        Self {
            sink_paths: vec![path],
            ..Self::default()
        }
    }

    /// Whether this is a master record ("has at least one edge").
    #[must_use]
    pub fn is_master(&self) -> bool {
        !self.edges.is_empty()
    }

    /// Applies the previous round's flow deltas to every edge copy and
    /// every stored path, dropping saturated paths
    /// (`MAP_FF1` lines 1–4).
    pub fn apply_deltas(&mut self, deltas: &AugmentedEdges) {
        for e in &mut self.edges {
            e.flow += deltas.flow_change(e.eid);
            debug_assert!(e.flow <= e.cap, "edge over capacity after deltas");
        }
        self.source_paths.retain_mut(|p| p.refresh(deltas));
        self.sink_paths.retain_mut(|p| p.refresh(deltas));
    }

    /// FF5: forget `sent` markers whose remembered path no longer exists
    /// or is saturated, so the edge becomes eligible for a re-send.
    pub fn refresh_sent_markers(&mut self) {
        if self
            .edges
            .iter()
            .all(|e| e.sent_source.is_none() && e.sent_sink.is_none())
        {
            return;
        }
        let live_source: Vec<u64> = self
            .source_paths
            .iter()
            .map(ExcessPath::route_hash)
            .collect();
        let live_sink: Vec<u64> = self.sink_paths.iter().map(ExcessPath::route_hash).collect();
        for e in &mut self.edges {
            if e.sent_source.is_some_and(|h| !live_source.contains(&h)) {
                e.sent_source = None;
            }
            if e.sent_sink.is_some_and(|h| !live_sink.contains(&h)) {
                e.sent_sink = None;
            }
        }
    }
}

impl Datum for VertexValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.source_paths.encode(buf);
        self.sink_paths.encode(buf);
        self.edges.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            source_paths: Vec::decode(input)?,
            sink_paths: Vec::decode(input)?,
            edges: Vec::decode(input)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.source_paths.encoded_len() + self.sink_paths.encoded_len() + self.edges.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(to: u64, eid: u64, flow: i64, cap: i64, rev_cap: i64) -> VertexEdge {
        VertexEdge {
            to,
            eid: EdgeId::new(eid),
            flow,
            cap,
            rev_cap,
            sent_source: None,
            sent_sink: None,
        }
    }

    #[test]
    fn encode_round_trip() {
        let v = VertexValue {
            source_paths: vec![ExcessPath::from_edges(vec![PathEdge {
                eid: EdgeId::new(2),
                from: 0,
                to: 1,
                cap: 1,
                flow: 0,
            }])],
            sink_paths: vec![ExcessPath::empty()],
            edges: vec![edge(1, 2, 0, 1, 1), {
                let mut e = edge(5, 8, -1, 1, 1);
                e.sent_source = Some(42);
                e
            }],
        };
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.encoded_len());
        let mut s = buf.as_slice();
        assert_eq!(VertexValue::decode(&mut s).unwrap(), v);
    }

    #[test]
    fn master_vs_fragment() {
        assert!(!VertexValue::fragment().is_master());
        assert!(!VertexValue::source_fragment(ExcessPath::empty()).is_master());
        let master = VertexValue {
            edges: vec![edge(1, 0, 0, 1, 1)],
            ..VertexValue::default()
        };
        assert!(master.is_master());
    }

    #[test]
    fn residuals_both_directions() {
        let e = edge(1, 4, 1, 3, 2);
        assert_eq!(e.residual(), 2); // 3 - 1
        assert_eq!(e.rev_residual(), 3); // 2 + 1
        let hop = e.forward_hop(9);
        assert_eq!((hop.from, hop.to, hop.cap, hop.flow), (9, 1, 3, 1));
        let back = e.backward_hop(9);
        assert_eq!((back.from, back.to, back.cap, back.flow), (1, 9, 2, -1));
        assert_eq!(back.eid, EdgeId::new(5));
    }

    #[test]
    fn apply_deltas_updates_edges_and_drops_saturated_paths() {
        let mut deltas = AugmentedEdges::new(1);
        deltas.add(EdgeId::new(0), 1);
        let mut v = VertexValue {
            source_paths: vec![
                ExcessPath::from_edges(vec![PathEdge {
                    eid: EdgeId::new(0),
                    from: 0,
                    to: 1,
                    cap: 1,
                    flow: 0,
                }]),
                ExcessPath::from_edges(vec![PathEdge {
                    eid: EdgeId::new(2),
                    from: 0,
                    to: 1,
                    cap: 1,
                    flow: 0,
                }]),
            ],
            sink_paths: Vec::new(),
            edges: vec![edge(1, 0, 0, 1, 1)],
        };
        v.apply_deltas(&deltas);
        assert_eq!(v.edges[0].flow, 1);
        assert_eq!(v.source_paths.len(), 1, "saturated path dropped");
        assert_eq!(v.source_paths[0].edges()[0].eid, EdgeId::new(2));
    }

    #[test]
    fn reverse_delta_updates_other_endpoints_copy() {
        // The path traversed 1 -> 0 (edge 1); vertex 0's copy is edge 0.
        let mut deltas = AugmentedEdges::new(1);
        deltas.add(EdgeId::new(1), 1);
        let mut v = VertexValue {
            edges: vec![edge(1, 0, 0, 1, 1)],
            ..VertexValue::default()
        };
        v.apply_deltas(&deltas);
        assert_eq!(v.edges[0].flow, -1, "reverse traversal frees this side");
        assert_eq!(v.edges[0].residual(), 2);
    }

    #[test]
    fn sent_markers_cleared_when_path_dies() {
        let p = ExcessPath::from_edges(vec![PathEdge {
            eid: EdgeId::new(2),
            from: 0,
            to: 1,
            cap: 1,
            flow: 0,
        }]);
        let mut e = edge(1, 0, 0, 1, 1);
        e.sent_source = Some(p.route_hash());
        e.sent_sink = Some(12345); // refers to no live path
        let mut v = VertexValue {
            source_paths: vec![p],
            sink_paths: Vec::new(),
            edges: vec![e],
        };
        v.refresh_sent_markers();
        assert!(v.edges[0].sent_source.is_some(), "live marker kept");
        assert!(v.edges[0].sent_sink.is_none(), "dead marker cleared");
    }
}

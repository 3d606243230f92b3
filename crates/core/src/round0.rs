//! Round #0: convert the raw edge list into the vertex data structure,
//! establish bi-directional edges and initialize flows and capacities
//! (paper Sec. III-A: "We use the first round of MR to convert the input
//! graph into our graph data structure").
//!
//! Each raw edge record is announced to *both* endpoints — "each vertex
//! sends a message to each of its neighbors to establish bi-directional
//! edge" — which is why the paper's Table I shows round #0 shuffling the
//! most bytes of any round.

use std::sync::Arc;

use mapreduce::encode::{get_varint, put_varint};
use mapreduce::error::DecodeError;
use mapreduce::{Datum, JobBuilder, JobStats, MapContext, MrError, MrRuntime, ReduceContext};
use swgraph::{Capacity, EdgeId, FlowNetwork};

use crate::map_reduce_fns::FfShared;
use crate::path::ExcessPath;
use crate::vertex::{VertexEdge, VertexValue};

/// One raw input record: a directed edge announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEdge {
    /// Neighbor vertex.
    pub to: u64,
    /// Directed edge id of `key -> to`.
    pub eid: EdgeId,
    /// Capacity of `key -> to`.
    pub cap: Capacity,
    /// Capacity of `to -> key`.
    pub rev_cap: Capacity,
}

impl Datum for RawEdge {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(self.to, buf);
        put_varint(self.eid.raw(), buf);
        self.cap.encode(buf);
        self.rev_cap.encode(buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            to: get_varint(input)?,
            eid: EdgeId::new(get_varint(input)?),
            cap: Capacity::decode(input)?,
            rev_cap: Capacity::decode(input)?,
        })
    }
}

/// Loads `net`'s edge pairs into the DFS as raw records keyed by the
/// canonical tail — the input the paper's round #0 consumes.
///
/// # Errors
/// Propagates DFS write failures (e.g. the path already exists).
pub fn load_raw_edges(
    rt: &mut MrRuntime,
    net: &FlowNetwork,
    path: &str,
    partitions: usize,
) -> Result<(), MrError> {
    let records = (0..net.num_edge_pairs()).map(|p| {
        let e = EdgeId::new(2 * p as u64);
        (
            net.tail(e).raw(),
            RawEdge {
                to: net.head(e).raw(),
                eid: e,
                cap: net.capacity(e),
                rev_cap: net.capacity(e.reverse()),
            },
        )
    });
    rt.dfs_mut().write_records(path, partitions.max(1), records)
}

/// Runs the round #0 job: raw edges in, master vertex records out (to
/// `round_path(base, 0)`), with the source and sink seeded with their
/// empty excess paths.
///
/// # Errors
/// Propagates MR job failures.
pub fn run_round0(
    rt: &mut MrRuntime,
    input_path: &str,
    base_path: &str,
    reducers: usize,
    shared: &Arc<FfShared>,
) -> Result<JobStats, MrError> {
    let output = mapreduce::driver::round_path(base_path, 0);
    let shared_map = Arc::clone(shared);
    let shared_reduce = Arc::clone(shared);
    let job = JobBuilder::new(format!("{base_path}-round0"))
        .input(input_path)
        .output(output)
        .reducers(reducers)
        .map(
            move |u: u64, e: RawEdge, ctx: &mut MapContext<u64, RawEdge>| {
                // Announce the edge to both endpoints so each builds its
                // own directed copy.
                ctx.emit(u, e);
                ctx.emit(
                    e.to,
                    RawEdge {
                        to: u,
                        eid: e.eid.reverse(),
                        cap: e.rev_cap,
                        rev_cap: e.cap,
                    },
                );
                if !shared_map.variant.pooled_objects {
                    ctx.charge_allocs(2);
                }
            },
        )
        .reduce(
            move |u: &u64,
                  values: &mut dyn Iterator<Item = RawEdge>,
                  ctx: &mut ReduceContext<u64, VertexValue>| {
                let mut edges: Vec<VertexEdge> = values
                    .map(|e| VertexEdge {
                        to: e.to,
                        eid: e.eid,
                        flow: 0,
                        cap: e.cap,
                        rev_cap: e.rev_cap,
                        sent_source: None,
                        sent_sink: None,
                    })
                    .collect();
                edges.sort_by_key(|e| (e.to, e.eid));
                edges.dedup_by_key(|e| e.eid);
                let mut value = VertexValue {
                    source_paths: Vec::new(),
                    sink_paths: Vec::new(),
                    edges,
                };
                if *u == shared_reduce.source {
                    value.source_paths.push(ExcessPath::empty());
                }
                if *u == shared_reduce.sink && shared_reduce.bidirectional {
                    value.sink_paths.push(ExcessPath::empty());
                }
                ctx.emit(*u, value);
            },
        );
    rt.run(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{FfVariant, KPolicy};
    use mapreduce::ClusterConfig;
    use swgraph::FlowNetworkBuilder;

    fn shared(s: u64, t: u64) -> Arc<FfShared> {
        Arc::new(FfShared {
            source: s,
            sink: t,
            variant: FfVariant::ff1(),
            k_policy: KPolicy::Fixed(4),
            bidirectional: true,
            extend_all_paths: false,
        })
    }

    #[test]
    fn raw_edge_round_trip() {
        let e = RawEdge {
            to: 7,
            eid: EdgeId::new(12),
            cap: 5,
            rev_cap: 0,
        };
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(RawEdge::decode(&mut s).unwrap(), e);
    }

    #[test]
    fn round0_builds_bidirectional_vertex_records() {
        let net = FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2)]);
        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
        load_raw_edges(&mut rt, &net, "raw", 2).unwrap();
        let stats = run_round0(&mut rt, "raw", "ff", 2, &shared(0, 2)).unwrap();
        assert_eq!(stats.map_input_records, 2, "one record per edge pair");
        assert_eq!(stats.map_output_records, 4, "announced to both endpoints");

        let mut records: Vec<(u64, VertexValue)> = rt.dfs().read_records("ff/round-00000").unwrap();
        records.sort_by_key(|(u, _)| *u);
        assert_eq!(records.len(), 3);

        let (_, v0) = &records[0];
        assert_eq!(v0.edges.len(), 1);
        assert_eq!(v0.edges[0].to, 1);
        assert_eq!(v0.edges[0].cap, 1);
        assert_eq!(v0.edges[0].rev_cap, 1);
        assert_eq!(v0.source_paths.len(), 1, "source seeded");
        assert!(v0.source_paths[0].is_empty());
        assert!(v0.sink_paths.is_empty());

        let (_, v1) = &records[1];
        assert_eq!(v1.edges.len(), 2, "middle vertex sees both neighbors");
        assert!(v1.source_paths.is_empty() && v1.sink_paths.is_empty());

        let (_, v2) = &records[2];
        assert_eq!(v2.sink_paths.len(), 1, "sink seeded");
    }

    #[test]
    fn round0_preserves_directed_capacities() {
        let mut b = FlowNetworkBuilder::new(2);
        b.add_edge(0, 1, 5); // one-way
        let net = b.build();
        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
        load_raw_edges(&mut rt, &net, "raw", 1).unwrap();
        run_round0(&mut rt, "raw", "ff", 2, &shared(0, 1)).unwrap();
        let mut records: Vec<(u64, VertexValue)> = rt.dfs().read_records("ff/round-00000").unwrap();
        records.sort_by_key(|(u, _)| *u);
        let (_, v0) = &records[0];
        assert_eq!((v0.edges[0].cap, v0.edges[0].rev_cap), (5, 0));
        let (_, v1) = &records[1];
        assert_eq!((v1.edges[0].cap, v1.edges[0].rev_cap), (0, 5));
        assert_eq!(v1.edges[0].eid, v0.edges[0].eid.reverse());
    }
}

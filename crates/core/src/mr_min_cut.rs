//! Distributed min-cut extraction: the MapReduce completion of the
//! max-flow workflow.
//!
//! Every application the paper motivates — community identification,
//! spam detection, Sybil-resistant voting — consumes the *cut*, not just
//! the flow value. At the paper's scale the final residual network does
//! not fit in memory either, so the reachability sweep must itself run
//! as chained MR jobs: a BFS from `s` over positive-residual edges of
//! the final vertex records, `O(D)` rounds like everything else here.

use std::collections::HashSet;

use mapreduce::driver::round_path;
use mapreduce::encode::{get_varint, put_varint};
use mapreduce::error::DecodeError;
use mapreduce::stats::ChainStats;
use mapreduce::{Datum, JobBuilder, MapContext, MrRuntime, ReduceContext};
use swgraph::{Capacity, EdgeId};

use crate::algo::FfRun;
use crate::error::FfError;
use crate::vertex::VertexValue;

/// Per-vertex reachability state over the residual network.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CutValue {
    /// Reachable from `s` in the residual network.
    pub reachable: bool,
    /// Became reachable last round (the propagating frontier).
    pub fresh: bool,
    /// Neighbors reachable through positive-residual edges, with the
    /// directed edge id and its capacity (for cut-value accounting).
    pub residual_out: Vec<(u64, u64, Capacity)>,
    /// Saturated outgoing edges `(to, eid, capacity)` — cut candidates.
    pub saturated_out: Vec<(u64, u64, Capacity)>,
}

impl Datum for CutValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(self.reachable));
        buf.push(u8::from(self.fresh));
        for list in [&self.residual_out, &self.saturated_out] {
            put_varint(list.len() as u64, buf);
            for &(to, eid, cap) in list {
                put_varint(to, buf);
                put_varint(eid, buf);
                cap.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let take_flag = |input: &mut &[u8]| -> Result<bool, DecodeError> {
            let (&b, rest) = input
                .split_first()
                .ok_or_else(|| DecodeError::new("truncated cut flag"))?;
            *input = rest;
            Ok(b != 0)
        };
        let reachable = take_flag(input)?;
        let fresh = take_flag(input)?;
        let mut lists = [Vec::new(), Vec::new()];
        for list in &mut lists {
            let n = get_varint(input)? as usize;
            list.reserve(n.min(input.len()));
            for _ in 0..n {
                list.push((
                    get_varint(input)?,
                    get_varint(input)?,
                    Capacity::decode(input)?,
                ));
            }
        }
        let [residual_out, saturated_out] = lists;
        Ok(Self {
            reachable,
            fresh,
            residual_out,
            saturated_out,
        })
    }
}

/// A minimum cut extracted on the cluster.
#[derive(Debug, Clone)]
pub struct MrMinCut {
    /// Vertices on the source side.
    pub source_side: Vec<u64>,
    /// Saturated directed edges `(eid, capacity)` crossing the cut.
    pub cut_edges: Vec<(EdgeId, Capacity)>,
    /// Total cut capacity (= the max-flow value).
    pub value: Capacity,
    /// BFS rounds executed.
    pub rounds: usize,
    /// Per-round MR stats.
    pub stats: ChainStats,
}

/// Extracts the min cut witnessed by a finished [`FfRun`]: reads the
/// final vertex records, BFSes from the source over positive-residual
/// edges in chained MR rounds, then collects the saturated boundary.
///
/// # Errors
/// Propagates MR failures.
pub fn run_min_cut(
    rt: &mut MrRuntime,
    ff_run: &FfRun,
    source: u64,
    base_path: &str,
    reducers: usize,
) -> Result<MrMinCut, FfError> {
    // Round 0: project the final vertex records onto residual adjacency,
    // folding in any deltas the last round left unapplied.
    let pending = ff_run.pending_deltas.clone();
    let seed_job = JobBuilder::new(format!("{base_path}-round0"))
        .input(&ff_run.final_graph_path)
        .output(round_path(base_path, 0))
        .reducers(reducers)
        .map(
            move |u: u64, mut v: VertexValue, ctx: &mut MapContext<u64, CutValue>| {
                v.apply_deltas(&pending);
                let mut out = CutValue {
                    reachable: false,
                    fresh: false,
                    ..CutValue::default()
                };
                for e in &v.edges {
                    let entry = (e.to, e.eid.raw(), e.cap);
                    if e.residual() > 0 {
                        out.residual_out.push(entry);
                    } else if e.cap > 0 {
                        out.saturated_out.push(entry);
                    }
                }
                ctx.emit(u, out);
            },
        )
        .reduce(
            move |u: &u64,
                  values: &mut dyn Iterator<Item = CutValue>,
                  ctx: &mut ReduceContext<u64, CutValue>| {
                for mut v in values {
                    if *u == source {
                        v.reachable = true;
                        v.fresh = true;
                    }
                    ctx.emit(*u, v);
                }
            },
        );
    let mut stats = ChainStats::new();
    stats.push(rt.run(seed_job).map_err(FfError::Mr)?);

    // BFS rounds over residual edges.
    let mut round = 1usize;
    loop {
        let input = round_path(base_path, round - 1);
        let output = round_path(base_path, round);
        let job = JobBuilder::new(format!("{base_path}-round{round}"))
            .input(&input)
            .output(&output)
            .reducers(reducers)
            .map(
                |u: u64, mut v: CutValue, ctx: &mut MapContext<u64, CutValue>| {
                    if v.fresh {
                        for &(to, _, _) in &v.residual_out {
                            ctx.emit(
                                to,
                                CutValue {
                                    reachable: true,
                                    ..CutValue::default()
                                },
                            );
                        }
                    }
                    v.fresh = false;
                    ctx.emit(u, v);
                },
            )
            .reduce(
                |u: &u64,
                 values: &mut dyn Iterator<Item = CutValue>,
                 ctx: &mut ReduceContext<u64, CutValue>| {
                    let mut master: Option<CutValue> = None;
                    let mut reached = false;
                    for v in values {
                        if v.residual_out.is_empty() && v.saturated_out.is_empty() {
                            reached |= v.reachable;
                        } else {
                            master = Some(v);
                        }
                    }
                    let Some(mut master) = master else { return };
                    if reached && !master.reachable {
                        master.reachable = true;
                        master.fresh = true;
                        ctx.incr("reached", 1);
                    }
                    ctx.emit(*u, master);
                },
            );
        let job_stats = rt.run(job).map_err(FfError::Mr)?;
        let moved = job_stats.counter("reached");
        stats.push(job_stats);
        mapreduce::driver::collect_garbage(rt.dfs_mut(), base_path, round, 2);
        if moved == 0 {
            break;
        }
        round += 1;
    }

    // Collect the boundary: saturated edges from reachable to
    // unreachable vertices.
    let records: Vec<(u64, CutValue)> = rt
        .dfs()
        .read_records(&round_path(base_path, round))
        .map_err(FfError::Mr)?;
    let reachable: HashSet<u64> = records
        .iter()
        .filter(|(_, v)| v.reachable)
        .map(|(u, _)| *u)
        .collect();
    let mut cut_edges = Vec::new();
    let mut value: Capacity = 0;
    for (u, v) in &records {
        if !reachable.contains(u) {
            continue;
        }
        for &(to, eid, cap) in &v.saturated_out {
            if !reachable.contains(&to) {
                cut_edges.push((EdgeId::new(eid), cap));
                value = value.saturating_add(cap);
            }
        }
    }
    let mut source_side: Vec<u64> = reachable.into_iter().collect();
    source_side.sort_unstable();
    Ok(MrMinCut {
        source_side,
        cut_edges,
        value,
        rounds: round,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_max_flow, FfConfig};
    use mapreduce::ClusterConfig;
    use swgraph::{gen, FlowNetwork, VertexId};

    fn extract(net: &FlowNetwork, s: u64, t: u64) -> (MrMinCut, i64) {
        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
        let config = FfConfig::new(VertexId::new(s), VertexId::new(t));
        let run = run_max_flow(&mut rt, net, &config).unwrap();
        let cut = run_min_cut(&mut rt, &run, s, "cut", 2).unwrap();
        (cut, run.max_flow_value)
    }

    #[test]
    fn cut_value_round_trip() {
        let v = CutValue {
            reachable: true,
            fresh: false,
            residual_out: vec![(1, 4, 2)],
            saturated_out: vec![(2, 8, 1), (3, 10, 5)],
        };
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(CutValue::decode(&mut s).unwrap(), v);
    }

    #[test]
    fn bottleneck_cut_on_a_path() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3)]);
        let (cut, flow) = extract(&net, 0, 3);
        assert_eq!(cut.value, flow);
        assert_eq!(cut.value, 1);
        assert_eq!(cut.cut_edges.len(), 1);
        assert!(cut.source_side.contains(&0));
        assert!(!cut.source_side.contains(&3));
    }

    #[test]
    fn cut_value_equals_flow_on_random_graphs() {
        for seed in 0..4 {
            let n = 80;
            let net = FlowNetwork::from_undirected_unit(n, &gen::erdos_renyi(n, 200, seed));
            let (cut, flow) = extract(&net, 0, n - 1);
            assert_eq!(cut.value, flow, "seed {seed}: max-flow = min-cut");
            // Agrees with the in-memory extraction.
            let oracle_flow =
                maxflow::Algorithm::Dinic.run(&net, VertexId::new(0), VertexId::new(n - 1));
            let oracle_cut =
                maxflow::min_cut::extract_min_cut(&net, VertexId::new(0), &oracle_flow);
            assert_eq!(cut.value, oracle_cut.value, "seed {seed}");
        }
    }

    #[test]
    fn disconnected_source_side_is_its_component() {
        let net = FlowNetwork::from_undirected_unit(5, &[(0, 1), (2, 3), (3, 4)]);
        let (cut, flow) = extract(&net, 0, 4);
        assert_eq!(flow, 0);
        assert_eq!(cut.value, 0);
        assert_eq!(cut.source_side, vec![0, 1]);
        assert!(cut.cut_edges.is_empty());
    }
}

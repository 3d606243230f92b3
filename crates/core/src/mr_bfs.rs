//! MapReduce-based breadth-first search.
//!
//! One MR round per BFS level — `O(D)` rounds on a graph of diameter `D`
//! (paper Sec. III). The paper uses MR-BFS twice: as the round/runtime
//! lower bound FFMR is compared against (Figs. 6 and 8) and to estimate
//! FB6's diameter ("between 7 to 14").

use mapreduce::driver::round_path;
use mapreduce::encode::{get_varint, put_varint};
use mapreduce::error::DecodeError;
use mapreduce::stats::ChainStats;
use mapreduce::{Datum, JobBuilder, MapContext, MrRuntime, ReduceContext};
use swgraph::{FlowNetwork, VertexId};

use crate::error::FfError;
use crate::round0;

/// The per-vertex BFS state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BfsValue {
    /// Distance from the root, if discovered.
    pub dist: Option<u64>,
    /// Whether the distance was assigned last round (frontier member —
    /// only these propagate, keeping message volume one-per-edge total).
    pub frontier: bool,
    /// Neighbor ids; empty marks a fragment.
    pub edges: Vec<u64>,
}

impl BfsValue {
    fn fragment(dist: u64) -> Self {
        Self {
            dist: Some(dist),
            frontier: false,
            edges: Vec::new(),
        }
    }
    fn is_master(&self) -> bool {
        !self.edges.is_empty()
    }
}

impl Datum for BfsValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.dist.encode(buf);
        buf.push(u8::from(self.frontier));
        put_varint(self.edges.len() as u64, buf);
        for &e in &self.edges {
            put_varint(e, buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let dist = Option::<u64>::decode(input)?;
        let (&flag, rest) = input
            .split_first()
            .ok_or_else(|| DecodeError::new("truncated bfs flag"))?;
        *input = rest;
        let n = get_varint(input)? as usize;
        let mut edges = Vec::with_capacity(n.min(input.len()));
        for _ in 0..n {
            edges.push(get_varint(input)?);
        }
        Ok(Self {
            dist,
            frontier: flag != 0,
            edges,
        })
    }
}

/// The result of an MR-BFS run.
#[derive(Debug, Clone)]
pub struct BfsRun {
    /// Per-round MR statistics (round 0 is graph preparation).
    pub stats: ChainStats,
    /// Number of BFS rounds executed (excluding round 0) — an upper
    /// bound of `ecc(root) + 1`.
    pub rounds: usize,
    /// Eccentricity of the root over its reachable set.
    pub eccentricity: u64,
    /// Vertices reached (including the root).
    pub reached: u64,
    /// DFS path of the final distance records.
    pub final_path: String,
}

/// Runs an MR BFS over `net` from `root`.
///
/// # Errors
/// Propagates MR failures; errors if `root` is out of range.
pub fn run_bfs(
    rt: &mut MrRuntime,
    net: &FlowNetwork,
    root: VertexId,
    base_path: &str,
    reducers: usize,
) -> Result<BfsRun, FfError> {
    if root.index() >= net.num_vertices() {
        return Err(FfError::InvalidConfig("bfs root outside network".into()));
    }
    let raw = format!("{base_path}/raw-edges");
    round0::load_raw_edges(rt, net, &raw, reducers)?;

    // Round 0: build adjacency records and seed the root.
    let root_id = root.raw();
    let seed_job = JobBuilder::new(format!("{base_path}-round0"))
        .input(&raw)
        .output(round_path(base_path, 0))
        .reducers(reducers)
        .map(
            |u: u64, e: round0::RawEdge, ctx: &mut MapContext<u64, u64>| {
                ctx.emit(u, e.to);
                ctx.emit(e.to, u);
            },
        )
        .reduce(
            move |u: &u64,
                  values: &mut dyn Iterator<Item = u64>,
                  ctx: &mut ReduceContext<u64, BfsValue>| {
                let mut edges: Vec<u64> = values.collect();
                edges.sort_unstable();
                edges.dedup();
                let at_root = *u == root_id;
                ctx.emit(
                    *u,
                    BfsValue {
                        dist: at_root.then_some(0),
                        frontier: at_root,
                        edges,
                    },
                );
            },
        );
    let mut stats = ChainStats::new();
    stats.push(rt.run(seed_job).map_err(FfError::Mr)?);

    let mut round = 1usize;
    let (eccentricity, reached, final_path) = loop {
        let input = round_path(base_path, round - 1);
        let output = round_path(base_path, round);
        let job = JobBuilder::new(format!("{base_path}-round{round}"))
            .input(&input)
            .output(&output)
            .reducers(reducers)
            .map(
                |u: u64, mut v: BfsValue, ctx: &mut MapContext<u64, BfsValue>| {
                    if v.frontier {
                        let d = v.dist.expect("frontier vertices have distances");
                        for &to in &v.edges {
                            ctx.emit(to, BfsValue::fragment(d + 1));
                        }
                    }
                    v.frontier = false;
                    ctx.emit(u, v);
                },
            )
            .reduce(
                |u: &u64,
                 values: &mut dyn Iterator<Item = BfsValue>,
                 ctx: &mut ReduceContext<u64, BfsValue>| {
                    let mut master: Option<BfsValue> = None;
                    let mut best: Option<u64> = None;
                    for v in values {
                        if v.is_master() {
                            master = Some(v);
                        } else if let Some(d) = v.dist {
                            best = Some(best.map_or(d, |b: u64| b.min(d)));
                        }
                    }
                    let Some(mut master) = master else { return };
                    if master.dist.is_none() {
                        if let Some(d) = best {
                            master.dist = Some(d);
                            master.frontier = true;
                            ctx.incr("moved", 1);
                            ctx.incr("dist sum", d);
                        }
                    }
                    ctx.emit(*u, master);
                },
            );
        let job_stats = rt.run(job).map_err(FfError::Mr)?;
        let moved = job_stats.counter("moved");
        stats.push(job_stats);
        mapreduce::driver::collect_garbage(rt.dfs_mut(), base_path, round, 2);
        if moved == 0 {
            // The last productive round assigned distances `round - 1`...
            // recover exact stats from the final records.
            let records: Vec<(u64, BfsValue)> = rt
                .dfs()
                .read_records(&round_path(base_path, round))
                .map_err(FfError::Mr)?;
            let ecc = records
                .iter()
                .filter_map(|(_, v)| v.dist)
                .max()
                .unwrap_or(0);
            let reached = records.iter().filter(|(_, v)| v.dist.is_some()).count() as u64;
            break (ecc, reached, output);
        }
        round += 1;
        if round > net.num_vertices() + 2 {
            return Err(FfError::RoundLimitExceeded {
                limit: net.num_vertices() + 2,
            });
        }
    };

    Ok(BfsRun {
        rounds: round,
        eccentricity,
        reached,
        final_path,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::ClusterConfig;
    use swgraph::gen;

    fn runtime() -> MrRuntime {
        MrRuntime::new(ClusterConfig::small_cluster(2))
    }

    #[test]
    fn bfs_value_round_trip() {
        let v = BfsValue {
            dist: Some(4),
            frontier: true,
            edges: vec![1, 9, 200],
        };
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(BfsValue::decode(&mut s).unwrap(), v);
    }

    #[test]
    fn path_graph_distances() {
        let net = FlowNetwork::from_undirected_unit(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut rt = runtime();
        let run = run_bfs(&mut rt, &net, VertexId::new(0), "bfs", 2).unwrap();
        assert_eq!(run.eccentricity, 4);
        assert_eq!(run.reached, 5);
        // One round per level plus the final no-movement round.
        assert_eq!(run.rounds, 5);
        let records: Vec<(u64, BfsValue)> = rt.dfs().read_records(&run.final_path).unwrap();
        let mut dists: Vec<(u64, Option<u64>)> =
            records.into_iter().map(|(u, v)| (u, v.dist)).collect();
        dists.sort();
        assert_eq!(
            dists,
            vec![
                (0, Some(0)),
                (1, Some(1)),
                (2, Some(2)),
                (3, Some(3)),
                (4, Some(4))
            ]
        );
    }

    #[test]
    fn disconnected_components_unreached() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (2, 3)]);
        let mut rt = runtime();
        let run = run_bfs(&mut rt, &net, VertexId::new(0), "bfs", 2).unwrap();
        assert_eq!(run.reached, 2);
        assert_eq!(run.eccentricity, 1);
    }

    #[test]
    fn agrees_with_in_memory_bfs_on_small_world() {
        let n = 300;
        let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 5));
        let mut rt = runtime();
        let run = run_bfs(&mut rt, &net, VertexId::new(0), "bfs", 4).unwrap();
        let dists = swgraph::bfs::bfs_distances(&net, VertexId::new(0));
        let expected_ecc = dists.iter().flatten().copied().max().unwrap() as u64;
        let expected_reached = dists.iter().flatten().count() as u64;
        assert_eq!(run.eccentricity, expected_ecc);
        assert_eq!(run.reached, expected_reached);
        assert_eq!(run.rounds as u64, expected_ecc + 1);
    }

    #[test]
    fn out_of_range_root_rejected() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let mut rt = runtime();
        assert!(matches!(
            run_bfs(&mut rt, &net, VertexId::new(9), "bfs", 2),
            Err(FfError::InvalidConfig(_))
        ));
    }
}

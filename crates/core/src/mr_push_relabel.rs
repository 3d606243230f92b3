//! A MapReduce Push–Relabel baseline — the comparator the paper *argues
//! against* (Sec. II) and does not implement. We build it to reproduce
//! the argument quantitatively: under BSP/MR semantics, push–relabel's
//! active set is a small fraction of the graph and excess wanders for
//! many rounds, so it burns far more rounds than FFMR on the same input.
//!
//! BSP adaptation: each round, every active vertex (positive excess)
//! pushes along admissible edges judged by its *last-known* neighbor
//! heights, then relabels monotonically and broadcasts its new height.
//! Because that neighbor view can be stale, a push is only *tentative*:
//! following Goldberg's asynchronous protocol, the receiver accepts a
//! push only if the sender's height equals its own height plus one, and
//! otherwise refunds it (carrying its current height, so the sender's
//! view is corrected and the retry cannot livelock). Without the
//! acceptance rule a stale push can violate the height invariant and let
//! excess sneak back to the source while an augmenting path remains —
//! i.e. terminate with an undercounted flow. Heights only increase and
//! are bounded by `2n`, so relabels are finite; once heights stabilize
//! the algorithm behaves like synchronous push–relabel and terminates
//! when no vertex holds excess and no refund is in flight.

use mapreduce::driver::round_path;
use mapreduce::encode::{get_varint, put_varint};
use mapreduce::error::DecodeError;
use mapreduce::stats::ChainStats;
use mapreduce::{Datum, JobBuilder, MapContext, MrRuntime, ReduceContext};
use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::error::FfError;
use crate::round0;

/// One adjacency slot of a push-relabel vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrEdge {
    /// Neighbor id.
    pub to: u64,
    /// Directed edge id of `u -> to`.
    pub eid: EdgeId,
    /// Flow on `u -> to`.
    pub flow: Capacity,
    /// Capacity of `u -> to`.
    pub cap: Capacity,
    /// Last-known height of the neighbor.
    pub neighbor_height: u64,
}

impl PrEdge {
    fn residual(&self) -> Capacity {
        self.cap - self.flow
    }
}

impl Datum for PrEdge {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(self.to, buf);
        put_varint(self.eid.raw(), buf);
        self.flow.encode(buf);
        self.cap.encode(buf);
        put_varint(self.neighbor_height, buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            to: get_varint(input)?,
            eid: EdgeId::new(get_varint(input)?),
            flow: Capacity::decode(input)?,
            cap: Capacity::decode(input)?,
            neighbor_height: get_varint(input)?,
        })
    }
}

/// A push-relabel MR record: a master vertex or a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrRecord {
    /// A vertex's full state.
    Master {
        /// Push-relabel height label.
        height: u64,
        /// Excess flow waiting at the vertex.
        excess: Capacity,
        /// Adjacency with last-known neighbor heights.
        edges: Vec<PrEdge>,
    },
    /// `delta` flow tentatively pushed over directed edge `eid`. The
    /// receiver accepts it only if `sender_height` equals its own height
    /// plus one (the admissibility the sender judged from a possibly
    /// stale view); otherwise it refunds the push.
    Flow {
        /// The directed edge the sender pushed along.
        eid: EdgeId,
        /// Amount pushed.
        delta: Capacity,
        /// The sender's height at push time.
        sender_height: u64,
    },
    /// A rejected push bounced back to the sender of `eid`, carrying the
    /// receiver's current height so the sender corrects its stale view.
    Refund {
        /// The directed edge the original push travelled along.
        eid: EdgeId,
        /// Amount returned.
        delta: Capacity,
        /// The rejecting receiver's height.
        height: u64,
    },
    /// A neighbor announces its new height.
    Height {
        /// The announcing vertex.
        from: u64,
        /// Its height.
        height: u64,
    },
}

impl Datum for PrRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PrRecord::Master {
                height,
                excess,
                edges,
            } => {
                buf.push(0);
                put_varint(*height, buf);
                excess.encode(buf);
                edges.encode(buf);
            }
            PrRecord::Flow {
                eid,
                delta,
                sender_height,
            } => {
                buf.push(1);
                put_varint(eid.raw(), buf);
                delta.encode(buf);
                put_varint(*sender_height, buf);
            }
            PrRecord::Height { from, height } => {
                buf.push(2);
                put_varint(*from, buf);
                put_varint(*height, buf);
            }
            PrRecord::Refund { eid, delta, height } => {
                buf.push(3);
                put_varint(eid.raw(), buf);
                delta.encode(buf);
                put_varint(*height, buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let (&tag, rest) = input
            .split_first()
            .ok_or_else(|| DecodeError::new("truncated pr record"))?;
        *input = rest;
        match tag {
            0 => Ok(PrRecord::Master {
                height: get_varint(input)?,
                excess: Capacity::decode(input)?,
                edges: Vec::decode(input)?,
            }),
            1 => Ok(PrRecord::Flow {
                eid: EdgeId::new(get_varint(input)?),
                delta: Capacity::decode(input)?,
                sender_height: get_varint(input)?,
            }),
            2 => Ok(PrRecord::Height {
                from: get_varint(input)?,
                height: get_varint(input)?,
            }),
            3 => Ok(PrRecord::Refund {
                eid: EdgeId::new(get_varint(input)?),
                delta: Capacity::decode(input)?,
                height: get_varint(input)?,
            }),
            _ => Err(DecodeError::new("invalid pr record tag")),
        }
    }
}

/// The result of an MR push-relabel run.
#[derive(Debug, Clone)]
pub struct PushRelabelRun {
    /// Computed max-flow value (the sink's accumulated excess).
    pub max_flow_value: Capacity,
    /// Rounds executed (excluding round 0).
    pub rounds: usize,
    /// Active-vertex count at the end of each round — the paper's
    /// "available parallelism" measure.
    pub active_per_round: Vec<u64>,
    /// Per-round MR stats.
    pub stats: ChainStats,
}

/// Runs BSP push-relabel on `net` from `s` to `t` for at most
/// `max_rounds` rounds.
///
/// # Errors
/// Propagates MR failures; `RoundLimitExceeded` if it fails to drain all
/// excess within the budget.
pub fn run_push_relabel(
    rt: &mut MrRuntime,
    net: &FlowNetwork,
    s: VertexId,
    t: VertexId,
    base_path: &str,
    reducers: usize,
    max_rounds: usize,
) -> Result<PushRelabelRun, FfError> {
    let n = net.num_vertices() as u64;
    if s.index() >= net.num_vertices() || t.index() >= net.num_vertices() || s == t {
        return Err(FfError::InvalidConfig("bad push-relabel terminals".into()));
    }
    let raw = format!("{base_path}/raw-edges");
    round0::load_raw_edges(rt, net, &raw, reducers)?;

    // Round 0: build vertex records; the source starts at height n with
    // every outgoing edge saturated (its neighbors start with excess).
    let (s_raw, t_raw) = (s.raw(), t.raw());
    let seed = JobBuilder::new(format!("{base_path}-round0"))
        .input(&raw)
        .output(round_path(base_path, 0))
        .reducers(reducers)
        .map(
            |u: u64, e: round0::RawEdge, ctx: &mut MapContext<u64, round0::RawEdge>| {
                ctx.emit(u, e);
                ctx.emit(
                    e.to,
                    round0::RawEdge {
                        to: u,
                        eid: e.eid.reverse(),
                        cap: e.rev_cap,
                        rev_cap: e.cap,
                    },
                );
            },
        )
        .reduce(
            move |u: &u64,
                  values: &mut dyn Iterator<Item = round0::RawEdge>,
                  ctx: &mut ReduceContext<u64, PrRecord>| {
                let mut edges: Vec<PrEdge> = values
                    .map(|e| PrEdge {
                        to: e.to,
                        eid: e.eid,
                        // Saturate source edges at init; mark the source's
                        // height as known to its neighbors.
                        flow: if *u == s_raw {
                            e.cap
                        } else if e.to == s_raw {
                            -e.rev_cap
                        } else {
                            0
                        },
                        cap: e.cap,
                        neighbor_height: if e.to == s_raw { n } else { 0 },
                    })
                    .collect();
                edges.sort_by_key(|e| (e.to, e.eid));
                edges.dedup_by_key(|e| e.eid);
                // Flow already received from the saturated source edge.
                // The sink keeps this too: a direct source→sink edge
                // delivers flow at init, and dropping it would undercount
                // the final answer by exactly that capacity.
                let excess = if *u == s_raw {
                    0
                } else {
                    edges
                        .iter()
                        .filter(|e| e.to == s_raw)
                        .map(|e| -e.flow)
                        .sum()
                };
                let height = if *u == s_raw { n } else { 0 };
                ctx.emit(
                    *u,
                    PrRecord::Master {
                        height,
                        excess,
                        edges,
                    },
                );
            },
        );
    let mut stats = ChainStats::new();
    stats.push(rt.run(seed).map_err(FfError::Mr)?);

    let mut active_per_round = Vec::new();
    let mut round = 1usize;
    loop {
        if round > max_rounds {
            return Err(FfError::RoundLimitExceeded { limit: max_rounds });
        }
        let input = round_path(base_path, round - 1);
        let output = round_path(base_path, round);
        let job = JobBuilder::new(format!("{base_path}-round{round}"))
            .input(&input)
            .output(&output)
            .reducers(reducers)
            .map(
                move |u: u64, v: PrRecord, ctx: &mut MapContext<u64, PrRecord>| {
                    let (mut height, mut excess, mut edges) = match v {
                        PrRecord::Master {
                            height,
                            excess,
                            edges,
                        } => (height, excess, edges),
                        // Refunds emitted by last round's reduce travel
                        // through this round's shuffle untouched.
                        refund => {
                            ctx.emit(u, refund);
                            return;
                        }
                    };
                    let old_height = height;
                    if u != s_raw && u != t_raw && excess > 0 && height < 2 * n {
                        // Push along admissible edges (stale-height view).
                        for e in edges.iter_mut() {
                            if excess == 0 {
                                break;
                            }
                            if e.residual() > 0 && height == e.neighbor_height + 1 {
                                let delta = e.residual().min(excess);
                                e.flow += delta;
                                excess -= delta;
                                ctx.emit(
                                    e.to,
                                    PrRecord::Flow {
                                        eid: e.eid,
                                        delta,
                                        sender_height: height,
                                    },
                                );
                            }
                        }
                        // Monotone relabel if still stuck.
                        if excess > 0 {
                            let min_h = edges
                                .iter()
                                .filter(|e| e.residual() > 0)
                                .map(|e| e.neighbor_height)
                                .min();
                            if let Some(min_h) = min_h {
                                let new_h = (min_h + 1).min(2 * n);
                                if new_h > height {
                                    height = new_h;
                                }
                            }
                        }
                    }
                    if height != old_height {
                        for e in &edges {
                            ctx.emit(e.to, PrRecord::Height { from: u, height });
                        }
                    }
                    ctx.emit(
                        u,
                        PrRecord::Master {
                            height,
                            excess,
                            edges,
                        },
                    );
                },
            )
            .reduce(
                move |u: &u64,
                      values: &mut dyn Iterator<Item = PrRecord>,
                      ctx: &mut ReduceContext<u64, PrRecord>| {
                    let mut master: Option<(u64, Capacity, Vec<PrEdge>)> = None;
                    let mut flows: Vec<(EdgeId, Capacity, u64)> = Vec::new();
                    let mut heights: Vec<(u64, u64)> = Vec::new();
                    let mut refunds: Vec<(EdgeId, Capacity, u64)> = Vec::new();
                    for v in values {
                        match v {
                            PrRecord::Master {
                                height,
                                excess,
                                edges,
                            } => master = Some((height, excess, edges)),
                            PrRecord::Flow {
                                eid,
                                delta,
                                sender_height,
                            } => flows.push((eid, delta, sender_height)),
                            PrRecord::Height { from, height } => heights.push((from, height)),
                            PrRecord::Refund { eid, delta, height } => {
                                refunds.push((eid, delta, height));
                            }
                        }
                    }
                    let Some((height, mut excess, mut edges)) = master else {
                        return;
                    };
                    for (eid, delta, h) in refunds {
                        // A push of ours bounced: undo it on our own edge
                        // and learn the receiver's real height.
                        if let Some(e) = edges.iter_mut().find(|e| e.eid == eid) {
                            e.flow -= delta;
                            e.neighbor_height = e.neighbor_height.max(h);
                        }
                        excess += delta;
                    }
                    for (eid, delta, sender_height) in flows {
                        // The sender pushed along `eid`; our copy is its
                        // reverse. Accept only if the push is admissible
                        // against our *current* height — a stale-view push
                        // would break the height invariant and can
                        // undercount the flow.
                        let Some(e) = edges.iter_mut().find(|e| e.eid == eid.reverse()) else {
                            continue;
                        };
                        if sender_height == height + 1 {
                            e.flow -= delta;
                            e.neighbor_height = e.neighbor_height.max(sender_height);
                            excess += delta;
                        } else {
                            ctx.incr("pr refunds", 1);
                            ctx.emit(e.to, PrRecord::Refund { eid, delta, height });
                        }
                    }
                    for (from, h) in heights {
                        for e in edges.iter_mut() {
                            if e.to == from {
                                e.neighbor_height = e.neighbor_height.max(h);
                            }
                        }
                    }
                    if *u != s_raw && *u != t_raw && excess > 0 {
                        ctx.incr("pr active", 1);
                    }
                    if *u == t_raw {
                        // The sink's accumulated excess is the flow value.
                        ctx.incr("sink excess", excess.max(0) as u64);
                    }
                    ctx.emit(
                        *u,
                        PrRecord::Master {
                            height,
                            excess,
                            edges,
                        },
                    );
                },
            );
        let job_stats = rt.run(job).map_err(FfError::Mr)?;
        let active = job_stats.counter("pr active");
        let refunds = job_stats.counter("pr refunds");
        let sink_excess = job_stats.counter("sink excess");
        stats.push(job_stats);
        active_per_round.push(active);
        mapreduce::driver::collect_garbage(rt.dfs_mut(), base_path, round, 2);
        if active == 0 && refunds == 0 {
            return Ok(PushRelabelRun {
                max_flow_value: sink_excess as Capacity,
                rounds: round,
                active_per_round,
                stats,
            });
        }
        round += 1;
    }
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
    fn pr_record_round_trips() {
        for rec in [
            PrRecord::Master {
                height: 3,
                excess: -5,
                edges: vec![PrEdge {
                    to: 1,
                    eid: EdgeId::new(4),
                    flow: 2,
                    cap: 7,
                    neighbor_height: 9,
                }],
            },
            PrRecord::Flow {
                eid: EdgeId::new(8),
                delta: 3,
                sender_height: 6,
            },
            PrRecord::Height {
                from: 2,
                height: 11,
            },
            PrRecord::Refund {
                eid: EdgeId::new(8),
                delta: 3,
                height: 12,
            },
        ] {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let mut s = buf.as_slice();
            assert_eq!(PrRecord::decode(&mut s).unwrap(), rec);
        }
    }

    #[test]
    fn computes_max_flow_on_path() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut rt = runtime();
        let run = run_push_relabel(
            &mut rt,
            &net,
            VertexId::new(0),
            VertexId::new(3),
            "pr",
            2,
            500,
        )
        .unwrap();
        assert_eq!(run.max_flow_value, 1);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..3 {
            let n = 30;
            let edges = gen::erdos_renyi(n, 60, seed);
            let net = FlowNetwork::from_undirected_unit(n, &edges);
            let (s, t) = (VertexId::new(0), VertexId::new(n - 1));
            let mut rt = runtime();
            let run = run_push_relabel(&mut rt, &net, s, t, "pr", 2, 2000).unwrap();
            let oracle = maxflow::Algorithm::Dinic.run(&net, s, t);
            assert_eq!(run.max_flow_value, oracle.value, "seed {seed}");
        }
    }

    #[test]
    fn active_fraction_stays_small_on_small_world() {
        let n = 200;
        let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 2));
        let mut rt = runtime();
        let run = run_push_relabel(
            &mut rt,
            &net,
            VertexId::new(0),
            VertexId::new(n - 1),
            "pr",
            2,
            5000,
        )
        .unwrap();
        let peak = run.active_per_round.iter().copied().max().unwrap_or(0);
        assert!(
            peak < n / 2,
            "push-relabel activates a minority of vertices (peak {peak})"
        );
        assert!(run.rounds > 3, "excess takes many rounds to drain");
    }

    #[test]
    fn rejects_bad_terminals() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let mut rt = runtime();
        assert!(matches!(
            run_push_relabel(
                &mut rt,
                &net,
                VertexId::new(0),
                VertexId::new(0),
                "pr",
                2,
                10
            ),
            Err(FfError::InvalidConfig(_))
        ));
    }
}

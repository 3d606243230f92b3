//! FFMR on Pregel — the translation the paper's conclusion predicts:
//! *"We believe the ideas presented in this paper also translate to
//! Pregel."*
//!
//! The mapping is direct: one MR round becomes one superstep; excess-path
//! fragments become messages; the `AugmentedEdges` side file becomes the
//! master's broadcast; `aug_proc` becomes the aggregator + master compute
//! (candidate paths are *contributions*, acceptance happens in
//! [`pregel::VertexProgram::master`]); the `source move`/`sink move`
//! counters become aggregated contributions driving the master's halt
//! decision. Schimmy and FF5's re-send suppression are unnecessary:
//! Pregel keeps vertex state resident between supersteps, which is
//! exactly the inefficiency those MR optimizations existed to paper over
//! — reproducing *why* the paper expected the ideas to transfer well.

use ffmr_sync::Mutex;
use pregel::{ComputeContext, Engine, Graph, MasterDecision, VertexProgram};
use swgraph::{Capacity, FlowNetwork, VertexId};

use crate::accumulator::Accumulator;
use crate::augmented::AugmentedEdges;
use crate::error::FfError;
use crate::path::ExcessPath;
use crate::vertex::VertexEdge;

/// Per-vertex state: the same ⟨Su, Tu, Eu⟩ as the MR version, resident
/// in the engine instead of round-tripping through a DFS.
#[derive(Debug, Clone, Default)]
pub struct PfState {
    /// Source excess paths.
    pub source_paths: Vec<ExcessPath>,
    /// Sink excess paths.
    pub sink_paths: Vec<ExcessPath>,
    /// Residual adjacency.
    pub edges: Vec<VertexEdge>,
}

/// Path-extension messages.
#[derive(Debug, Clone)]
pub enum PfMessage {
    /// A source excess path extended to the receiver.
    Source(ExcessPath),
    /// A sink excess path extended to the receiver.
    Sink(ExcessPath),
}

/// Aggregated per-superstep observations (Pregel aggregator payload).
#[derive(Debug, Default)]
pub struct PfAgg {
    /// Augmenting-path candidates found this superstep.
    pub candidates: Vec<ExcessPath>,
    /// Vertices that newly gained a source path.
    pub source_moves: u64,
    /// Vertices that newly gained a sink path.
    pub sink_moves: u64,
}

#[derive(Debug, Default)]
struct MasterState {
    total_value: Capacity,
    accepted_paths: u64,
    supersteps_with_flow: usize,
}

/// The FFMR vertex program.
#[derive(Debug)]
pub struct FfProgram {
    source: u64,
    sink: u64,
    k: usize,
    master_state: Mutex<MasterState>,
}

impl FfProgram {
    /// A program for the given terminals with excess-path limit `k`
    /// (`usize::MAX` ≈ the FF5 in-degree policy: storage never rejects
    /// for lack of space).
    #[must_use]
    pub fn new(source: VertexId, sink: VertexId, k: usize) -> Self {
        Self {
            source: source.raw(),
            sink: sink.raw(),
            k,
            master_state: Mutex::new(MasterState::default()),
        }
    }

    /// Max-flow value accepted so far.
    #[must_use]
    pub fn max_flow_value(&self) -> Capacity {
        self.master_state.lock().total_value
    }

    /// Augmenting paths accepted so far.
    #[must_use]
    pub fn accepted_paths(&self) -> u64 {
        self.master_state.lock().accepted_paths
    }
}

impl VertexProgram for FfProgram {
    type State = PfState;
    type Edge = ();
    type Message = PfMessage;
    type Contribution = PfAgg;
    type Broadcast = AugmentedEdges;

    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, Self>,
        state: &mut PfState,
        inbox: &[PfMessage],
    ) {
        let u = ctx.vertex_id();
        let is_source = u == self.source;
        let is_sink = u == self.sink;

        // (a) Fold in the deltas the master accepted last superstep.
        let deltas = ctx.broadcast();
        if !deltas.is_empty() {
            for e in &mut state.edges {
                e.flow += deltas.flow_change(e.eid);
            }
            state.source_paths.retain_mut(|p| p.refresh(deltas));
            state.sink_paths.retain_mut(|p| p.refresh(deltas));
        }
        // Resident state makes FF5's re-send suppression free: forget
        // markers whose remembered path died or whose edge saturated.
        {
            let live_src: Vec<u64> = state
                .source_paths
                .iter()
                .map(ExcessPath::route_hash)
                .collect();
            let live_snk: Vec<u64> = state
                .sink_paths
                .iter()
                .map(ExcessPath::route_hash)
                .collect();
            for e in &mut state.edges {
                if e.residual() <= 0 || e.sent_source.is_some_and(|h| !live_src.contains(&h)) {
                    e.sent_source = None;
                }
                if e.rev_residual() <= 0 || e.sent_sink.is_some_and(|h| !live_snk.contains(&h)) {
                    e.sent_sink = None;
                }
            }
        }

        let had_source = !state.source_paths.is_empty();
        let had_sink = !state.sink_paths.is_empty();

        // (b) Merge arriving extensions under the k-limited accumulator;
        // at the terminals, arrivals complete augmenting paths instead.
        let mut agg = PfAgg::default();
        {
            let mut acc_s = Accumulator::new();
            for p in &state.source_paths {
                let _ = acc_s.try_accept(p);
            }
            let mut acc_t = Accumulator::new();
            for p in &state.sink_paths {
                let _ = acc_t.try_accept(p);
            }
            // Unlike MR (where extensions arrive within the same round),
            // Pregel messages were composed BEFORE this superstep's
            // broadcast deltas existed — refresh them first, or stale
            // copies of just-augmented paths would be re-accepted.
            for msg in inbox {
                match msg {
                    PfMessage::Source(p) => {
                        let mut p = p.clone();
                        if !p.refresh(deltas) {
                            continue;
                        }
                        if is_sink {
                            agg.candidates.push(p);
                        } else if state.source_paths.len() < self.k
                            && acc_s.try_accept(&p).is_some()
                        {
                            state.source_paths.push(p);
                        }
                    }
                    PfMessage::Sink(p) => {
                        let mut p = p.clone();
                        if !p.refresh(deltas) {
                            continue;
                        }
                        if is_source {
                            agg.candidates.push(p);
                        } else if state.sink_paths.len() < self.k && acc_t.try_accept(&p).is_some()
                        {
                            state.sink_paths.push(p);
                        }
                    }
                }
            }
        }
        if !had_source && !state.source_paths.is_empty() {
            agg.source_moves = 1;
        }
        if !had_sink && !state.sink_paths.is_empty() {
            agg.sink_moves = 1;
        }

        // (c) Candidates from freshly met source x sink pairs.
        if !is_source && !is_sink {
            let mut acc = Accumulator::new();
            for se in &state.source_paths {
                for te in &state.sink_paths {
                    let cand = ExcessPath::concat(se, te);
                    if !cand.is_empty() && acc.try_accept(&cand).is_some() {
                        agg.candidates.push(cand);
                    }
                }
            }
        }

        // (d) Speculatively extend one path per direction per edge,
        // remembering what was sent so live extensions are never re-sent.
        for i in 0..state.edges.len() {
            let e = state.edges[i];
            if e.residual() > 0 && e.sent_source.is_none() {
                if let Some(se) = state
                    .source_paths
                    .iter()
                    .find(|p| !p.is_saturated() && !p.contains_vertex(e.to))
                {
                    ctx.send(e.to, PfMessage::Source(se.extended(e.forward_hop(u))));
                    state.edges[i].sent_source = Some(se.route_hash());
                }
            }
            let e = state.edges[i];
            if e.rev_residual() > 0 && e.sent_sink.is_none() {
                if let Some(te) = state
                    .sink_paths
                    .iter()
                    .find(|p| !p.is_saturated() && !p.contains_vertex(e.to))
                {
                    ctx.send(e.to, PfMessage::Sink(te.prepended(e.backward_hop(u))));
                    state.edges[i].sent_sink = Some(te.route_hash());
                }
            }
        }

        ctx.contribute(agg);
        // Never vote to halt: the master owns termination, mirroring the
        // MR driver's movement-counter loop.
    }

    fn fold(&self, mut a: PfAgg, mut b: PfAgg) -> PfAgg {
        a.candidates.append(&mut b.candidates);
        a.source_moves += b.source_moves;
        a.sink_moves += b.sink_moves;
        a
    }

    fn master(&self, folded: PfAgg, superstep: usize) -> MasterDecision<Self> {
        // The aggregator IS aug_proc: accept conflict-free candidates.
        let mut acc = Accumulator::new();
        let mut deltas = AugmentedEdges::new(superstep + 1);
        let mut accepted = 0u64;
        let mut value: Capacity = 0;
        for cand in &folded.candidates {
            if let Some(delta) = acc.try_accept(cand) {
                for hop in cand.edges() {
                    deltas.add(hop.eid, delta);
                }
                accepted += 1;
                value += delta;
            }
        }
        {
            let mut ms = self.master_state.lock();
            ms.total_value += value;
            ms.accepted_paths += accepted;
            if accepted > 0 {
                ms.supersteps_with_flow += 1;
            }
        }
        let moved = folded.source_moves > 0 && folded.sink_moves > 0;
        if superstep > 0 && accepted == 0 && !moved {
            MasterDecision::halt()
        } else {
            MasterDecision::continue_with(deltas)
        }
    }
}

/// The result of a Pregel FFMR run.
#[derive(Debug, Clone)]
pub struct PregelFfRun {
    /// Computed max-flow value.
    pub max_flow_value: Capacity,
    /// Supersteps executed.
    pub supersteps: usize,
    /// Total messages exchanged.
    pub total_messages: usize,
    /// Augmenting paths accepted.
    pub accepted_paths: u64,
    /// Engine statistics.
    pub stats: pregel::RunStats,
}

/// Builds the Pregel graph for `net` and runs FFMR on it.
///
/// # Errors
/// Propagates engine failures (superstep limit) as
/// [`FfError::RoundLimitExceeded`].
pub fn run_max_flow_pregel(
    net: &FlowNetwork,
    source: VertexId,
    sink: VertexId,
    max_supersteps: usize,
) -> Result<PregelFfRun, FfError> {
    if source == sink || source.index() >= net.num_vertices() || sink.index() >= net.num_vertices()
    {
        return Err(FfError::InvalidConfig("bad pregel terminals".into()));
    }
    let mut graph: Graph<PfState, ()> = Graph::new();
    for v in 0..net.num_vertices() as u64 {
        let vid = VertexId::new(v);
        let mut edges: Vec<VertexEdge> = Vec::new();
        for e in net.out_edges(vid) {
            // One entry per incident pair, in the outgoing direction.
            edges.push(VertexEdge {
                to: net.head(e).raw(),
                eid: e,
                flow: 0,
                cap: net.capacity(e),
                rev_cap: net.capacity(e.reverse()),
                sent_source: None,
                sent_sink: None,
            });
        }
        edges.sort_by_key(|e| (e.to, e.eid));
        edges.dedup_by_key(|e| e.eid);
        let mut state = PfState {
            edges,
            ..PfState::default()
        };
        if vid == source {
            state.source_paths.push(ExcessPath::empty());
        }
        if vid == sink {
            state.sink_paths.push(ExcessPath::empty());
        }
        graph.add_vertex(v, state, Vec::new());
    }

    let program = FfProgram::new(source, sink, usize::MAX);
    let engine = Engine::new(program);
    let mut span = ffmr_obs::span("pregel.run");
    let stats =
        engine
            .run(&mut graph, max_supersteps)
            .map_err(|_| FfError::RoundLimitExceeded {
                limit: max_supersteps,
            })?;
    span.field("supersteps", stats.supersteps);
    drop(span);
    let m = ffmr_obs::global();
    m.counter("ffmr_pregel_runs_total", &[]).inc();
    m.counter("ffmr_pregel_supersteps_total", &[])
        .add(stats.supersteps as u64);
    m.counter("ffmr_pregel_messages_total", &[])
        .add(stats.total_messages as u64);
    Ok(PregelFfRun {
        max_flow_value: engine.program().max_flow_value(),
        supersteps: stats.supersteps,
        total_messages: stats.total_messages,
        accepted_paths: engine.program().accepted_paths(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgraph::gen;

    #[test]
    fn path_graph() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3)]);
        let run = run_max_flow_pregel(&net, VertexId::new(0), VertexId::new(3), 100).unwrap();
        assert_eq!(run.max_flow_value, 1);
        assert!(run.supersteps <= 8);
    }

    #[test]
    fn matches_oracle_on_small_world() {
        let n = 200;
        let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 5));
        let (s, t) = (VertexId::new(0), VertexId::new(n - 1));
        let run = run_max_flow_pregel(&net, s, t, 200).unwrap();
        let oracle = maxflow::Algorithm::Dinic.run(&net, s, t);
        assert_eq!(run.max_flow_value, oracle.value);
    }

    #[test]
    fn matches_oracle_on_random_directed() {
        for seed in 0..5 {
            let n = 40;
            let edges = gen::erdos_renyi(n, 100, seed);
            let net = FlowNetwork::from_undirected_unit(n, &edges);
            let (s, t) = (VertexId::new(0), VertexId::new(n - 1));
            let run = run_max_flow_pregel(&net, s, t, 500).unwrap();
            let oracle = maxflow::Algorithm::Dinic.run(&net, s, t);
            assert_eq!(run.max_flow_value, oracle.value, "seed {seed}");
        }
    }

    #[test]
    fn supersteps_track_mr_rounds() {
        // The paper's translation claim, quantified: Pregel supersteps on
        // the same workload land in the same band as MR rounds.
        let n = 300;
        let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 9));
        let st = swgraph::super_st::attach_super_terminals(&net, 4, 3, 2).unwrap();
        let run = run_max_flow_pregel(&st.network, st.source, st.sink, 200).unwrap();

        let mut rt = mapreduce::MrRuntime::new(mapreduce::ClusterConfig::small_cluster(2));
        let config = crate::FfConfig::new(st.source, st.sink).variant(crate::FfVariant::ff2());
        let mr = crate::run_max_flow(&mut rt, &st.network, &config).unwrap();

        assert_eq!(run.max_flow_value, mr.max_flow_value);
        assert!(
            run.supersteps <= 2 * mr.num_flow_rounds() + 4,
            "supersteps ({}) should track MR rounds ({})",
            run.supersteps,
            mr.num_flow_rounds()
        );
    }

    #[test]
    fn rejects_bad_terminals() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        assert!(run_max_flow_pregel(&net, VertexId::new(0), VertexId::new(0), 10).is_err());
        assert!(run_max_flow_pregel(&net, VertexId::new(0), VertexId::new(9), 10).is_err());
    }

    #[test]
    fn disconnected_is_zero() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (2, 3)]);
        let run = run_max_flow_pregel(&net, VertexId::new(0), VertexId::new(3), 100).unwrap();
        assert_eq!(run.max_flow_value, 0);
    }
}

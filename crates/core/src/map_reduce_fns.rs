//! The `MAP` and `REDUCE` functions of FFMR (paper Figs. 3 and 4), with
//! the variant behaviours of FF1–FF5 folded in.
//!
//! `MAP` updates the vertex's residual view from the previous round's
//! `AugmentedEdges`, (FF1) generates augmenting-path candidates toward the
//! sink, and speculatively extends source and sink excess paths to
//! neighbors. `REDUCE` merges each vertex's fragments into its master —
//! schimmy-style in FF3+ — enforcing the excess-path limit `k` through an
//! accumulator, maintaining the `source move` / `sink move` termination
//! counters, and (FF2+) submitting freshly met source×sink pairs to
//! `aug_proc`.

use std::sync::Arc;

use mapreduce::{MapContext, Mapper, ReduceContext, Reducer};

use crate::accumulator::Accumulator;
use crate::algo::{FfVariant, KPolicy};
use crate::aug_service::AUG_PROC;
use crate::augmented::AugmentedEdges;
use crate::path::{ExcessPath, PathEdge};
use crate::vertex::VertexValue;

/// Immutable per-run parameters shared by every mapper and reducer.
#[derive(Debug, Clone)]
pub struct FfShared {
    /// Source vertex id.
    pub source: u64,
    /// Sink vertex id.
    pub sink: u64,
    /// Enabled optimizations.
    pub variant: FfVariant,
    /// Excess-path storage policy.
    pub k_policy: KPolicy,
    /// Bi-directional search enabled (see
    /// [`FfConfig::bidirectional`](crate::FfConfig::bidirectional)).
    pub bidirectional: bool,
    /// Extend all stored paths per edge instead of one.
    pub extend_all_paths: bool,
}

/// The `MAP` function (paper Fig. 3).
#[derive(Debug)]
pub struct FfMapper {
    /// Shared run parameters.
    pub shared: Arc<FfShared>,
    /// Previous round's accepted flow changes (the side file).
    pub deltas: Arc<AugmentedEdges>,
}

impl FfMapper {
    fn charge_path(&self, ctx: &mut MapContext<'_, u64, VertexValue>, hops: usize) {
        if !self.shared.variant.pooled_objects {
            ctx.charge_allocs(hops as u64 + 1);
        }
    }
}

impl Mapper<u64, VertexValue, u64, VertexValue> for FfMapper {
    fn map(&self, u: u64, mut v: VertexValue, ctx: &mut MapContext<'_, u64, VertexValue>) {
        if !self.shared.variant.pooled_objects {
            // Deserializing + cloning the record churns one object per
            // edge and per stored path hop in the un-pooled variants.
            let hops: usize = v
                .source_paths
                .iter()
                .chain(&v.sink_paths)
                .map(ExcessPath::len)
                .sum();
            ctx.charge_allocs((v.edges.len() + hops) as u64);
        }

        // MAP lines 1-4: fold in the previous round's flow changes and
        // drop saturated paths.
        v.apply_deltas(&self.deltas);
        if self.shared.variant.remember_sent {
            v.refresh_sent_markers();
        }

        // Every fragment is framed when it is emitted, so two scratch
        // records carry all of this master's extensions and candidates.
        let mut source_frag = VertexValue::fragment();
        let mut sink_frag = VertexValue::fragment();

        // MAP lines 5-8 (FF1 only): concatenate source x sink pairs into
        // augmenting-path candidates and shuffle them to the sink. FF2+
        // moves this into the reduce phase (straight to aug_proc).
        if !self.shared.variant.stateful_aug {
            Accumulator::new().accept_pairs(&v.source_paths, &v.sink_paths, |se, te| {
                self.charge_path(ctx, se.len() + te.len());
                refill(&mut source_frag.source_paths, se.edges(), te.edges());
                ctx.emit(self.shared.sink, &source_frag);
            });
        }

        // MAP lines 9-16: speculatively extend excess paths to neighbors —
        // normally one per edge and direction ("extending more than one
        // excess path incurs overhead without much benefit", Sec. III-B3),
        // all of them under the extend-all ablation.
        let remember = self.shared.variant.remember_sent;
        let per_edge = if self.shared.extend_all_paths {
            usize::MAX
        } else {
            1
        };
        let VertexValue {
            source_paths,
            sink_paths,
            edges,
        } = &mut v;
        for e in edges.iter_mut() {
            // Forward residual: extend source excess path(s) over e.
            if e.residual() > 0 && !(remember && e.sent_source.is_some()) {
                for se in source_paths
                    .iter()
                    .filter(|p| !p.is_saturated() && !p.contains_vertex(e.to))
                    .take(per_edge)
                {
                    let hops = refill(
                        &mut source_frag.source_paths,
                        se.edges(),
                        &[e.forward_hop(u)],
                    );
                    self.charge_path(ctx, hops);
                    ctx.emit(e.to, &source_frag);
                    if remember {
                        e.sent_source = Some(se.route_hash());
                    }
                }
            }
            // Reverse residual: extend sink excess path(s) backward.
            if e.rev_residual() > 0 && !(remember && e.sent_sink.is_some()) {
                for te in sink_paths
                    .iter()
                    .filter(|p| !p.is_saturated() && !p.contains_vertex(e.to))
                    .take(per_edge)
                {
                    let hops = refill(&mut sink_frag.sink_paths, &[e.backward_hop(u)], te.edges());
                    self.charge_path(ctx, hops);
                    ctx.emit(e.to, &sink_frag);
                    if remember {
                        e.sent_sink = Some(te.route_hash());
                    }
                }
            }
        }

        // MAP line 17: emit the master vertex — unless schimmy (FF3+)
        // provides it to the reducer from the previous round's output.
        if !self.shared.variant.schimmy {
            ctx.emit(u, v);
        }
    }
}

/// Makes `paths` hold the one path `head` then `tail`, reusing the
/// scratch fragment's allocations; returns the path's hop count.
fn refill(paths: &mut Vec<ExcessPath>, head: &[PathEdge], tail: &[PathEdge]) -> usize {
    if paths.is_empty() {
        paths.push(ExcessPath::empty());
    }
    paths[0].assign_concat(head, tail);
    paths[0].len()
}

/// The `REDUCE` function (paper Fig. 4).
#[derive(Debug)]
pub struct FfReducer {
    /// Shared run parameters.
    pub shared: Arc<FfShared>,
    /// Previous round's flow changes — needed in schimmy mode, where the
    /// master record read from the DFS predates them.
    pub deltas: Arc<AugmentedEdges>,
}

impl Reducer<u64, VertexValue, u64, VertexValue> for FfReducer {
    fn reduce(
        &self,
        u: &u64,
        values: &mut dyn Iterator<Item = VertexValue>,
        ctx: &mut ReduceContext<'_, u64, VertexValue>,
    ) {
        let u = *u;
        // The runtime's merge delivers schimmy records first, then map
        // tasks in index order — so in schimmy mode the master is the
        // first value. Scanning the whole group keeps this independent of
        // that ordering guarantee (a master may arrive anywhere in FF1/2).
        let mut master: Option<VertexValue> = None;
        let mut frag_source: Vec<ExcessPath> = Vec::new();
        let mut frag_sink: Vec<ExcessPath> = Vec::new();
        for val in values {
            if val.is_master() {
                master = Some(val);
            } else {
                if !self.shared.variant.pooled_objects {
                    let hops: usize = val
                        .source_paths
                        .iter()
                        .chain(&val.sink_paths)
                        .map(ExcessPath::len)
                        .sum();
                    ctx.charge_allocs(hops as u64 + 1);
                }
                frag_source.extend(val.source_paths);
                frag_sink.extend(val.sink_paths);
            }
        }
        // Fragments addressed to a key with no master record would create
        // a ghost vertex; drop them (cannot happen on well-formed input).
        let Some(mut master) = master else {
            ctx.incr("ghost fragments", 1);
            return;
        };

        if self.shared.variant.schimmy {
            // The schimmy master comes from the previous round's file and
            // predates the deltas the mappers already applied.
            master.apply_deltas(&self.deltas);
            if self.shared.variant.remember_sent {
                master.refresh_sent_markers();
            }
        }

        let had_source = !master.source_paths.is_empty();
        let had_sink = !master.sink_paths.is_empty();
        let k = self.shared.k_policy.limit(master.edges.len());
        let is_source = u == self.shared.source;
        let is_sink = u == self.shared.sink;

        // ---- Merge source excess paths (REDUCE lines 5-7).
        if is_sink {
            // Every source path reaching t IS an augmenting path: in FF1
            // this reducer is the paper's sequential accumulator at t; in
            // FF2+ candidates also stream in here from extensions.
            for p in &frag_source {
                ctx.submit(AUG_PROC, p);
            }
        } else {
            let mut acc = Accumulator::new();
            let mut kept: Vec<ExcessPath> = Vec::new();
            // Master's retained paths take precedence (stability), then
            // arriving fragments first-come-first-served.
            for p in master.source_paths.drain(..).chain(frag_source.drain(..)) {
                if kept.len() < k && !p.is_saturated() && acc.try_accept(&p).is_some() {
                    kept.push(p);
                }
            }
            master.source_paths = kept;
        }

        // ---- Merge sink excess paths (REDUCE lines 8-9), symmetric.
        if is_source {
            for p in &frag_sink {
                ctx.submit(AUG_PROC, p);
            }
        } else {
            let mut acc = Accumulator::new();
            let mut kept: Vec<ExcessPath> = Vec::new();
            for p in master.sink_paths.drain(..).chain(frag_sink.drain(..)) {
                if kept.len() < k && !p.is_saturated() && acc.try_accept(&p).is_some() {
                    kept.push(p);
                }
            }
            master.sink_paths = kept;
        }

        // ---- Movement counters (REDUCE lines 10-11).
        if !had_source && !master.source_paths.is_empty() {
            ctx.incr("source move", 1);
        }
        if !had_sink && !master.sink_paths.is_empty() {
            ctx.incr("sink move", 1);
        }

        // ---- FF2+: generate candidates right here, straight to aug_proc
        // (paper Sec. IV-A: "rather than generating it in the MAP function
        // as in FF1, FF2 generates it in the previous round's REDUCE").
        if self.shared.variant.stateful_aug {
            Accumulator::new().accept_pairs(&master.source_paths, &master.sink_paths, |se, te| {
                ctx.submit(AUG_PROC, &ExcessPath::concat(se, te));
            });
        }

        ctx.emit(u, master);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::VertexEdge;
    use mapreduce::{Counters, ServiceHandle};
    use swgraph::EdgeId;

    fn shared(variant: FfVariant) -> Arc<FfShared> {
        Arc::new(FfShared {
            source: 0,
            sink: 9,
            variant,
            k_policy: KPolicy::Fixed(4),
            bidirectional: true,
            extend_all_paths: false,
        })
    }

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

    fn hop(eid: u64, from: u64, to: u64) -> PathEdge {
        PathEdge {
            eid: EdgeId::new(eid),
            from,
            to,
            cap: 1,
            flow: 0,
        }
    }

    fn run_map(mapper: &FfMapper, u: u64, v: &VertexValue) -> Vec<(u64, VertexValue)> {
        let counters = Counters::new();
        let services = ServiceHandle::new();
        let mut ctx = MapContext::for_testing(&counters, &services);
        mapper.map(u, v.clone(), &mut ctx);
        ctx.emitted()
    }

    #[test]
    fn source_extends_empty_path_to_all_neighbors() {
        let mapper = FfMapper {
            shared: shared(FfVariant::ff1()),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        let v = VertexValue {
            source_paths: vec![ExcessPath::empty()],
            sink_paths: Vec::new(),
            edges: vec![edge(1, 0, 0, 1, 1), edge(2, 2, 0, 1, 1)],
        };
        let out = run_map(&mapper, 0, &v);
        // 2 extensions + 1 master (no schimmy in FF1).
        assert_eq!(out.len(), 3);
        let targets: Vec<u64> = out.iter().map(|(k, _)| *k).collect();
        assert!(targets.contains(&1) && targets.contains(&2) && targets.contains(&0));
        let frag = &out.iter().find(|(k, _)| *k == 1).unwrap().1;
        assert_eq!(frag.source_paths.len(), 1);
        assert_eq!(frag.source_paths[0].len(), 1);
        assert!(!frag.is_master());
    }

    #[test]
    fn saturated_edge_blocks_extension() {
        let mapper = FfMapper {
            shared: shared(FfVariant::ff1()),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        let v = VertexValue {
            source_paths: vec![ExcessPath::empty()],
            sink_paths: Vec::new(),
            edges: vec![edge(1, 0, 1, 1, 1)], // flow == cap
        };
        let out = run_map(&mapper, 0, &v);
        // Only a sink-direction extension would use rev residual; no sink
        // paths stored, so only the master is emitted.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0);
    }

    #[test]
    fn cycle_extension_is_avoided() {
        let mapper = FfMapper {
            shared: shared(FfVariant::ff1()),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        // Vertex 1 holds the path s(0) -> 1; it must not extend back to 0.
        let v = VertexValue {
            source_paths: vec![ExcessPath::from_edges(vec![hop(0, 0, 1)])],
            sink_paths: Vec::new(),
            edges: vec![edge(0, 1, 0, 1, 1), edge(2, 4, 0, 1, 1)],
        };
        let out = run_map(&mapper, 1, &v);
        let targets: Vec<u64> = out
            .iter()
            .filter(|(_, f)| !f.is_master())
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(targets, vec![2], "no extension back into the path");
    }

    #[test]
    fn ff1_emits_candidates_to_sink() {
        let mapper = FfMapper {
            shared: shared(FfVariant::ff1()),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        // Vertex 5 has both a source path (0->5) and a sink path (5->9).
        let v = VertexValue {
            source_paths: vec![ExcessPath::from_edges(vec![hop(0, 0, 5)])],
            sink_paths: vec![ExcessPath::from_edges(vec![hop(2, 5, 9)])],
            edges: vec![edge(0, 1, 0, 0, 1)],
        };
        let out = run_map(&mapper, 5, &v);
        let to_sink: Vec<&VertexValue> = out
            .iter()
            .filter(|(k, f)| *k == 9 && !f.is_master())
            .map(|(_, f)| f)
            .collect();
        assert_eq!(to_sink.len(), 1, "candidate shuffled to t in FF1");
        assert_eq!(to_sink[0].source_paths[0].len(), 2);
    }

    #[test]
    fn ff2_does_not_emit_candidates() {
        let mapper = FfMapper {
            shared: shared(FfVariant::ff2()),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        let v = VertexValue {
            source_paths: vec![ExcessPath::from_edges(vec![hop(0, 0, 5)])],
            sink_paths: vec![ExcessPath::from_edges(vec![hop(2, 5, 9)])],
            edges: vec![edge(0, 1, 0, 0, 1)],
        };
        let out = run_map(&mapper, 5, &v);
        assert!(
            out.iter().all(|(k, _)| *k != 9),
            "FF2 generates candidates in reduce, not map"
        );
    }

    #[test]
    fn schimmy_suppresses_master_emission() {
        let mapper = FfMapper {
            shared: shared(FfVariant::ff3()),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        let v = VertexValue {
            source_paths: vec![ExcessPath::empty()],
            sink_paths: Vec::new(),
            edges: vec![edge(1, 0, 0, 1, 1)],
        };
        let out = run_map(&mapper, 0, &v);
        assert!(out.iter().all(|(_, f)| !f.is_master()));
    }

    #[test]
    fn ff5_remembers_sent_and_does_not_resend() {
        let mapper = FfMapper {
            shared: Arc::new(FfShared {
                source: 0,
                sink: 9,
                variant: FfVariant::ff5(),
                k_policy: KPolicy::InDegree,
                bidirectional: true,
                extend_all_paths: false,
            }),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        let v = VertexValue {
            source_paths: vec![ExcessPath::empty()],
            sink_paths: Vec::new(),
            edges: vec![edge(1, 0, 0, 1, 1)],
        };
        // First map: extends and would set the sent marker in its own
        // (discarded) copy; simulate the persisted state by marking.
        let out1 = run_map(&mapper, 0, &v);
        assert_eq!(out1.iter().filter(|(k, _)| *k == 1).count(), 1);

        let mut marked = v.clone();
        marked.edges[0].sent_source = Some(ExcessPath::empty().route_hash());
        let out2 = run_map(&mapper, 0, &marked);
        assert_eq!(
            out2.iter().filter(|(k, _)| *k == 1).count(),
            0,
            "FF5 must not re-send to a neighbor that already holds the path"
        );
    }

    #[test]
    fn reducer_merges_and_counts_movement() {
        let reducer = FfReducer {
            shared: shared(FfVariant::ff1()),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        let counters = Counters::new();
        let services = ServiceHandle::new();
        let mut ctx = ReduceContext::for_testing(&counters, &services);
        let master = VertexValue {
            edges: vec![edge(0, 1, 0, 1, 1)],
            ..VertexValue::default()
        };
        let frag = VertexValue::source_fragment(ExcessPath::from_edges(vec![hop(0, 0, 5)]));
        reducer.reduce(&5, &mut vec![master, frag].into_iter(), &mut ctx);
        ctx.merge_counters_into(&counters);
        assert_eq!(counters.value("source move"), 1);
        assert_eq!(counters.value("sink move"), 0);
        assert_eq!(ctx.emitted().len(), 1);
        assert_eq!(ctx.emitted()[0].1.source_paths.len(), 1);
    }

    #[test]
    fn reducer_enforces_k_limit_and_conflicts() {
        let reducer = FfReducer {
            shared: Arc::new(FfShared {
                source: 0,
                sink: 9,
                variant: FfVariant::ff1(),
                k_policy: KPolicy::Fixed(2),
                bidirectional: true,
                extend_all_paths: false,
            }),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        let counters = Counters::new();
        let services = ServiceHandle::new();
        let mut ctx = ReduceContext::for_testing(&counters, &services);
        let master = VertexValue {
            edges: vec![edge(0, 1, 0, 1, 1)],
            ..VertexValue::default()
        };
        let mk =
            |eid: u64| VertexValue::source_fragment(ExcessPath::from_edges(vec![hop(eid, 0, 5)]));
        // Three disjoint fragments + one conflicting duplicate.
        let vals = vec![master, mk(10), mk(10), mk(12), mk(14)];
        reducer.reduce(&5, &mut vals.into_iter(), &mut ctx);
        let emitted = ctx.emitted();
        let stored = &emitted[0].1.source_paths;
        assert_eq!(stored.len(), 2, "k = 2 caps storage");
        assert_ne!(
            stored[0].edges()[0].eid,
            stored[1].edges()[0].eid,
            "conflicting duplicate was rejected"
        );
    }

    #[test]
    fn reducer_drops_ghost_fragments() {
        let reducer = FfReducer {
            shared: shared(FfVariant::ff1()),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        let counters = Counters::new();
        let services = ServiceHandle::new();
        let mut ctx = ReduceContext::for_testing(&counters, &services);
        let frag = VertexValue::source_fragment(ExcessPath::from_edges(vec![hop(0, 0, 5)]));
        reducer.reduce(&5, &mut vec![frag].into_iter(), &mut ctx);
        ctx.merge_counters_into(&counters);
        assert!(ctx.emitted().is_empty());
        assert_eq!(counters.value("ghost fragments"), 1);
    }

    #[test]
    fn sink_reducer_submits_candidates_to_aug_proc() {
        let reducer = FfReducer {
            shared: shared(FfVariant::ff1()),
            deltas: Arc::new(AugmentedEdges::new(0)),
        };
        let counters = Counters::new();
        let services = ServiceHandle::new();
        let mut ctx = ReduceContext::for_testing(&counters, &services);
        let master = VertexValue {
            sink_paths: vec![ExcessPath::empty()],
            edges: vec![edge(5, 3, 0, 1, 1)],
            ..VertexValue::default()
        };
        let cand =
            VertexValue::source_fragment(ExcessPath::from_edges(vec![hop(0, 0, 5), hop(2, 5, 9)]));
        reducer.reduce(&9, &mut vec![master, cand].into_iter(), &mut ctx);
        let [(service, calls)] = ctx.submitted() else {
            panic!("one service called");
        };
        assert_eq!(service, AUG_PROC);
        let aug = crate::AugProc::default();
        aug.open_round(1);
        mapreduce::Service::apply_calls(&aug, calls).unwrap();
        let r = aug.close_round();
        assert_eq!(r.accepted_paths, 1);
        assert_eq!(r.value_gained, 1);
        // t never stores source paths.
        assert!(ctx.emitted()[0].1.source_paths.is_empty());
    }
}

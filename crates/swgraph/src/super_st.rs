//! The paper's super-source/sink construction (Sec. V-A1).
//!
//! To get max-flow values far above any single vertex's degree, the paper
//! selects `w` random high-degree vertices and wires them to a new super
//! source `s`, and another disjoint `w` to a super sink `t`, with
//! unbounded terminal capacities. "The larger the number of vertices `w`
//! connected to `s` and `t`, the larger the potential max-flow value."

use std::error::Error;
use std::fmt;

use ffmr_prng::SplitMix64;

use crate::ids::VertexId;
use crate::network::FlowNetwork;

/// A flow network augmented with super terminals.
#[derive(Debug, Clone)]
pub struct SuperStNetwork {
    /// The augmented network (base graph + `s` + `t` + terminal edges).
    pub network: FlowNetwork,
    /// The super source (vertex id = base vertex count).
    pub source: VertexId,
    /// The super sink (vertex id = base vertex count + 1).
    pub sink: VertexId,
    /// Vertices wired to the source.
    pub source_terminals: Vec<VertexId>,
    /// Vertices wired to the sink.
    pub sink_terminals: Vec<VertexId>,
}

/// Failure to build a super-terminal network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuperStError {
    /// The base graph has fewer than `2 * w` vertices to choose from.
    NotEnoughVertices {
        /// Vertices required (`2 * w`).
        needed: usize,
        /// Vertices available.
        available: usize,
    },
}

impl fmt::Display for SuperStError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperStError::NotEnoughVertices { needed, available } => write!(
                f,
                "need {needed} distinct terminal vertices but only {available} are available"
            ),
        }
    }
}

impl Error for SuperStError {}

/// Picks the terminal sets [`attach_super_terminals`] wires up, without
/// building a network: `w` random vertices of degree ≥ `min_degree` for
/// the source side and another, disjoint `w` for the sink side, in
/// selection order. If fewer than `2 * w` such vertices exist, it falls
/// back to the `2 * w` highest-degree vertices, mirroring the paper's
/// "at least 3000 edges" selection at whatever scale the graph has.
///
/// # Errors
/// [`SuperStError::NotEnoughVertices`] if the base graph has fewer than
/// `2 * w` vertices with nonzero degree.
pub fn select_super_terminals(
    base: &FlowNetwork,
    w: usize,
    min_degree: usize,
    seed: u64,
) -> Result<(Vec<VertexId>, Vec<VertexId>), SuperStError> {
    let n = base.num_vertices();
    // Saturates: a `w` past half the address space needs more vertices
    // than any graph has, and must not wrap into a small number.
    let needed = w.saturating_mul(2);
    let mut rng = SplitMix64::seed_from_u64(seed);

    let mut qualified: Vec<VertexId> = (0..n as u64)
        .map(VertexId::new)
        .filter(|&v| base.degree(v) >= min_degree)
        .collect();
    if qualified.len() < needed {
        // Fall back to the highest-degree vertices overall.
        let mut by_degree: Vec<VertexId> = (0..n as u64)
            .map(VertexId::new)
            .filter(|&v| base.degree(v) > 0)
            .collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(base.degree(v)));
        if by_degree.len() < needed {
            return Err(SuperStError::NotEnoughVertices {
                needed,
                available: by_degree.len(),
            });
        }
        qualified = by_degree[..needed].to_vec();
    }
    rng.shuffle(&mut qualified);
    let sinks = qualified[w..needed].to_vec();
    qualified.truncate(w);
    Ok((qualified, sinks))
}

/// Attaches a super source and sink to `base`, wired to the terminal
/// sets [`select_super_terminals`] picks.
///
/// # Errors
/// [`SuperStError::NotEnoughVertices`] if the base graph has fewer than
/// `2 * w` vertices with nonzero degree.
///
/// # Example
/// ```
/// # fn main() -> Result<(), swgraph::super_st::SuperStError> {
/// let edges = swgraph::gen::barabasi_albert(300, 3, 1);
/// let base = swgraph::FlowNetwork::from_undirected_unit(300, &edges);
/// let st = swgraph::super_st::attach_super_terminals(&base, 4, 5, 99)?;
/// assert_eq!(st.network.num_vertices(), 302);
/// assert_eq!(st.source_terminals.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn attach_super_terminals(
    base: &FlowNetwork,
    w: usize,
    min_degree: usize,
    seed: u64,
) -> Result<SuperStNetwork, SuperStError> {
    let n = base.num_vertices() as u64;
    let (source_terminals, sink_terminals) = select_super_terminals(base, w, min_degree, seed)?;
    // Append the terminal pairs directly onto the base CSR instead of
    // re-inserting every edge through the builder: O(n + m) with no
    // re-sort.
    let sources: Vec<u64> = source_terminals.iter().map(|v| v.raw()).collect();
    let sinks: Vec<u64> = sink_terminals.iter().map(|v| v.raw()).collect();
    let network = base.with_super_terminals(&sources, &sinks);
    Ok(SuperStNetwork {
        network,
        source: VertexId::new(n),
        sink: VertexId::new(n + 1),
        source_terminals,
        sink_terminals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::network::INFINITE_CAPACITY;

    fn base() -> FlowNetwork {
        FlowNetwork::from_undirected_unit(500, &gen::barabasi_albert(500, 3, 2))
    }

    #[test]
    fn terminals_are_disjoint_and_qualified() {
        let net = base();
        let st = attach_super_terminals(&net, 8, 4, 1).unwrap();
        assert_eq!(st.source_terminals.len(), 8);
        assert_eq!(st.sink_terminals.len(), 8);
        for v in &st.source_terminals {
            assert!(!st.sink_terminals.contains(v), "disjoint sets");
        }
    }

    #[test]
    fn source_reaches_only_its_terminals() {
        let net = base();
        let st = attach_super_terminals(&net, 4, 4, 3).unwrap();
        let out: Vec<VertexId> = st.network.neighbors(st.source).map(|(_, v)| v).collect();
        assert_eq!(out.len(), 4);
        for v in out {
            assert!(st.source_terminals.contains(&v));
        }
        // Sink has no outgoing capacity.
        assert_eq!(st.network.degree(st.sink), 0);
    }

    #[test]
    fn terminal_capacities_are_unbounded() {
        let net = base();
        let st = attach_super_terminals(&net, 2, 4, 5).unwrap();
        for (e, _) in st.network.neighbors(st.source) {
            assert_eq!(st.network.capacity(e), INFINITE_CAPACITY);
        }
    }

    #[test]
    fn fallback_when_threshold_too_high() {
        let net = base();
        // No vertex has one million neighbors; fallback picks hubs.
        let st = attach_super_terminals(&net, 3, 1_000_000, 7).unwrap();
        assert_eq!(st.source_terminals.len(), 3);
        // The fallback picks the highest-degree vertices available.
        let min_picked = st
            .source_terminals
            .iter()
            .chain(&st.sink_terminals)
            .map(|&v| net.degree(v))
            .min()
            .unwrap();
        assert!(min_picked >= 3, "picked hubs, got degree {min_picked}");
    }

    #[test]
    fn too_small_graph_errors() {
        let tiny = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let err = attach_super_terminals(&tiny, 5, 0, 1).unwrap_err();
        assert!(matches!(err, SuperStError::NotEnoughVertices { .. }));
        assert!(!err.to_string().is_empty());
        // A `w` whose `2 * w` overflows is too large, not a wrapped one.
        for w in [usize::MAX / 2 + 1, usize::MAX] {
            assert_eq!(
                select_super_terminals(&tiny, w, 0, 1),
                Err(SuperStError::NotEnoughVertices {
                    needed: usize::MAX,
                    available: 2
                })
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let net = base();
        let a = attach_super_terminals(&net, 6, 4, 42).unwrap();
        let b = attach_super_terminals(&net, 6, 4, 42).unwrap();
        assert_eq!(a.source_terminals, b.source_terminals);
        assert_eq!(a.sink_terminals, b.sink_terminals);
    }

    #[test]
    fn selection_matches_the_attached_terminals() {
        let net = base();
        // min degree 4 qualifies enough vertices; one million does not,
        // so the second case takes the highest-degree fallback.
        for min_degree in [4, 1_000_000] {
            for seed in 0..20 {
                let st = attach_super_terminals(&net, 5, min_degree, seed).unwrap();
                let (sources, sinks) = select_super_terminals(&net, 5, min_degree, seed).unwrap();
                assert_eq!(
                    sources, st.source_terminals,
                    "seed {seed}, min {min_degree}"
                );
                assert_eq!(sinks, st.sink_terminals, "seed {seed}, min {min_degree}");
            }
        }
        assert_eq!(
            select_super_terminals(&net, 300, 0, 1),
            Err(SuperStError::NotEnoughVertices {
                needed: 600,
                available: 500
            })
        );
    }

    #[test]
    fn larger_w_gives_larger_flow_potential() {
        let net = base();
        let small = attach_super_terminals(&net, 2, 4, 1).unwrap();
        let large = attach_super_terminals(&net, 16, 4, 1).unwrap();
        let cap = |st: &SuperStNetwork| {
            st.source_terminals
                .iter()
                .map(|&v| net.degree(v))
                .sum::<usize>()
        };
        assert!(cap(&large) > cap(&small));
    }
}

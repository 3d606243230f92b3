//! Breadth-first search and diameter estimation.
//!
//! MR-based BFS is the paper's round-count lower bound (its Fig. 6 and 8
//! compare FFMR against BFS); this module is the in-memory counterpart used
//! by generators' validation and by the sequential baselines.

use std::collections::VecDeque;

use ffmr_prng::SplitMix64;

use crate::ids::VertexId;
use crate::network::FlowNetwork;

/// Distances (in hops over positive-capacity edges) from `source`;
/// `None` for unreachable vertices.
///
/// # Example
/// ```
/// use swgraph::{FlowNetwork, VertexId};
/// let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2)]);
/// let d = swgraph::bfs::bfs_distances(&net, VertexId::new(0));
/// assert_eq!(d[2], Some(2));
/// assert_eq!(d[3], None);
/// ```
#[must_use]
pub fn bfs_distances(net: &FlowNetwork, source: VertexId) -> Vec<Option<u32>> {
    let mut dist = vec![None; net.num_vertices()];
    if source.index() >= net.num_vertices() {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued vertices have distances");
        for (_, v) in net.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Result of [`estimate_diameter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiameterEstimate {
    /// Largest eccentricity observed among sampled sources (a lower bound
    /// on the true diameter).
    pub max_observed: u32,
    /// 90th-percentile pairwise distance observed (the usual "effective
    /// diameter" reported for social graphs).
    pub effective_p90: u32,
    /// Number of BFS sources actually sampled.
    pub samples: usize,
}

/// Estimates the diameter by running BFS from `samples` random sources
/// (the paper estimates FB6's D as 7–14 with exactly this kind of
/// sampled MR-BFS).
#[must_use]
pub fn estimate_diameter(net: &FlowNetwork, samples: usize, seed: u64) -> DiameterEstimate {
    let n = net.num_vertices();
    if n == 0 || samples == 0 {
        return DiameterEstimate {
            max_observed: 0,
            effective_p90: 0,
            samples: 0,
        };
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut max_observed = 0;
    let mut all_dists: Vec<u32> = Vec::new();
    let actual = samples.min(n);
    for _ in 0..actual {
        let s = VertexId::new(rng.gen_range(0..n as u64));
        for d in bfs_distances(net, s).into_iter().flatten() {
            max_observed = max_observed.max(d);
            if d > 0 {
                all_dists.push(d);
            }
        }
    }
    all_dists.sort_unstable();
    let effective_p90 = if all_dists.is_empty() {
        0
    } else {
        all_dists[((all_dists.len() - 1) as f64 * 0.9) as usize]
    };
    DiameterEstimate {
        max_observed,
        effective_p90,
        samples: actual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_on_a_path() {
        let net = FlowNetwork::from_undirected_unit(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let d = bfs_distances(&net, VertexId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn respects_directed_capacities() {
        // Directed chain 0 -> 1 -> 2: nothing reachable backwards.
        let mut b = crate::FlowNetworkBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let net = b.build();
        let from2 = bfs_distances(&net, VertexId::new(2));
        assert_eq!(from2, vec![None, None, Some(0)]);
    }

    #[test]
    fn diameter_of_known_graph() {
        // A 10-vertex path: diameter 9.
        let edges: Vec<(u64, u64)> = (0..9).map(|i| (i, i + 1)).collect();
        let net = FlowNetwork::from_undirected_unit(10, &edges);
        let d = estimate_diameter(&net, 10, 1);
        assert_eq!(d.max_observed, 9);
        assert!(d.effective_p90 <= 9);
    }

    #[test]
    fn diameter_of_empty_graph() {
        let net = crate::FlowNetworkBuilder::new(0).build();
        let d = estimate_diameter(&net, 4, 1);
        assert_eq!(d.max_observed, 0);
        assert_eq!(d.samples, 0);
    }

    #[test]
    fn out_of_range_source_is_unreachable_everywhere() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let d = bfs_distances(&net, VertexId::new(99));
        assert!(d.iter().all(Option::is_none));
    }
}

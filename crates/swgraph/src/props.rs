//! Structural graph properties, used to certify that generated graphs
//! have the small-world shape the paper's algorithm depends on.

use std::collections::{HashSet, VecDeque};

use ffmr_prng::SplitMix64;

use crate::ids::VertexId;
use crate::network::FlowNetwork;

/// Mean positive-capacity out-degree.
#[must_use]
pub fn average_degree(net: &FlowNetwork) -> f64 {
    if net.num_vertices() == 0 {
        return 0.0;
    }
    let total: usize = (0..net.num_vertices() as u64)
        .map(|v| net.degree(VertexId::new(v)))
        .sum();
    total as f64 / net.num_vertices() as f64
}

/// Largest positive-capacity out-degree.
#[must_use]
pub fn max_degree(net: &FlowNetwork) -> usize {
    (0..net.num_vertices() as u64)
        .map(|v| net.degree(VertexId::new(v)))
        .max()
        .unwrap_or(0)
}

/// Sizes of (weakly) connected components over positive-capacity edges
/// viewed as undirected, largest first.
#[must_use]
pub fn component_sizes(net: &FlowNetwork) -> Vec<usize> {
    let n = net.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut sizes = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = sizes.len();
        let mut size = 0usize;
        let mut queue = VecDeque::new();
        comp[start] = id;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for e in net.out_edges(VertexId::new(u as u64)) {
                // Either direction with capacity joins the component.
                if net.capacity(e) > 0 || net.capacity(e.reverse()) > 0 {
                    let v = net.head(e).index();
                    if comp[v] == usize::MAX {
                        comp[v] = id;
                        queue.push_back(v);
                    }
                }
            }
        }
        sizes.push(size);
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

/// Average local clustering coefficient over `samples` random vertices of
/// degree ≥ 2 (exact when `samples >= n`). Small-world graphs cluster far
/// above Erdős–Rényi graphs of the same density.
#[must_use]
pub fn clustering_coefficient(net: &FlowNetwork, samples: usize, seed: u64) -> f64 {
    let n = net.num_vertices();
    if n == 0 || samples == 0 {
        return 0.0;
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut total = 0.0;
    let mut counted = 0usize;
    let mut attempts = 0usize;
    while counted < samples && attempts < samples * 20 {
        attempts += 1;
        let u = VertexId::new(rng.gen_range(0..n as u64));
        let neigh: Vec<VertexId> = net.neighbors(u).map(|(_, v)| v).collect();
        if neigh.len() < 2 {
            continue;
        }
        let set: HashSet<VertexId> = neigh.iter().copied().collect();
        let mut links = 0usize;
        for &v in &neigh {
            for (_, w) in net.neighbors(v) {
                if set.contains(&w) {
                    links += 1;
                }
            }
        }
        let possible = neigh.len() * (neigh.len() - 1);
        total += links as f64 / possible as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn degree_stats_of_triangle() {
        let net = FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((average_degree(&net) - 2.0).abs() < 1e-12);
        assert_eq!(max_degree(&net), 2);
    }

    #[test]
    fn triangle_clusters_perfectly() {
        let net = FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2), (0, 2)]);
        let c = clustering_coefficient(&net, 100, 1);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_zero_clustering() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(clustering_coefficient(&net, 100, 1), 0.0);
    }

    #[test]
    fn components_found() {
        let net = FlowNetwork::from_undirected_unit(6, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(component_sizes(&net), vec![3, 2, 1]);
    }

    #[test]
    fn directed_edges_still_join_components() {
        let mut b = crate::FlowNetworkBuilder::new(2);
        b.add_edge(0, 1, 1); // only one direction capacitated
        let net = b.build();
        assert_eq!(component_sizes(&net), vec![2]);
    }

    #[test]
    fn watts_strogatz_clusters_above_random() {
        let n = 2000;
        let ws = FlowNetwork::from_undirected_unit(n, &gen::watts_strogatz(n, 8, 0.05, 3));
        let er_edges = ws.num_edge_pairs() as u64;
        let er = FlowNetwork::from_undirected_unit(n, &gen::erdos_renyi(n, er_edges, 3));
        let c_ws = clustering_coefficient(&ws, 200, 1);
        let c_er = clustering_coefficient(&er, 200, 1);
        assert!(
            c_ws > 5.0 * c_er,
            "small world clusters ({c_ws:.3}) above random ({c_er:.3})"
        );
    }

    #[test]
    fn empty_graph_properties() {
        let net = crate::FlowNetworkBuilder::new(0).build();
        assert_eq!(average_degree(&net), 0.0);
        assert_eq!(max_degree(&net), 0);
        assert!(component_sizes(&net).is_empty());
        assert_eq!(clustering_coefficient(&net, 10, 1), 0.0);
    }
}

//! Compact directed flow networks with paired residual edges.

use std::collections::BTreeMap;

use crate::ids::{EdgeId, VertexId};

/// Edge capacity / flow amount.
///
/// Fixed-point integers keep max-flow arithmetic exact; callers with
/// rational capacities scale them to a common denominator first (the paper
/// notes its algorithm "supports rational numbers for the edge capacities",
/// which is exactly the set expressible this way).
pub type Capacity = i64;

/// Effectively-unbounded capacity for super-source/sink terminal edges,
/// chosen so sums of many such capacities cannot overflow `i64`.
pub const INFINITE_CAPACITY: Capacity = i64::MAX / 4;

/// Incrementally assembles a [`FlowNetwork`].
///
/// Parallel edges between the same ordered pair merge by summing
/// capacities; self-loops are ignored (they can never carry s–t flow).
///
/// # Example
/// ```
/// use swgraph::FlowNetworkBuilder;
/// let mut b = FlowNetworkBuilder::new(3);
/// b.add_edge(0, 1, 5);
/// b.add_edge(1, 0, 2); // becomes the reverse capacity of the same pair
/// b.add_undirected(1, 2, 1);
/// let net = b.build();
/// assert_eq!(net.num_vertices(), 3);
/// assert_eq!(net.num_edge_pairs(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetworkBuilder {
    num_vertices: u64,
    // Keyed by unordered pair (min, max); value = (cap min->max, cap max->min).
    pairs: BTreeMap<(u64, u64), (Capacity, Capacity)>,
}

impl FlowNetworkBuilder {
    /// Starts a network with at least `num_vertices` vertices (grows
    /// automatically if an edge references a larger id).
    #[must_use]
    pub fn new(num_vertices: u64) -> Self {
        Self {
            num_vertices,
            pairs: BTreeMap::new(),
        }
    }

    /// Adds a directed edge `u -> v` with capacity `cap` (merged by
    /// summation with any existing capacity in that direction).
    ///
    /// Self-loops and non-positive capacities are ignored.
    pub fn add_edge(&mut self, u: u64, v: u64, cap: Capacity) {
        if u == v || cap <= 0 {
            return;
        }
        self.num_vertices = self.num_vertices.max(u + 1).max(v + 1);
        let (lo, hi) = (u.min(v), u.max(v));
        let entry = self.pairs.entry((lo, hi)).or_insert((0, 0));
        if u == lo {
            entry.0 = entry.0.saturating_add(cap);
        } else {
            entry.1 = entry.1.saturating_add(cap);
        }
    }

    /// Adds capacity `cap` in both directions (the paper's round #0
    /// bidirectionalization of a friendship edge).
    pub fn add_undirected(&mut self, u: u64, v: u64, cap: Capacity) {
        self.add_edge(u, v, cap);
        self.add_edge(v, u, cap);
    }

    /// Number of vertices the built network will have.
    #[must_use]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Finalizes into a [`FlowNetwork`].
    #[must_use]
    pub fn build(self) -> FlowNetwork {
        let n = self.num_vertices as usize;
        let m = self.pairs.len();
        let mut tails = Vec::with_capacity(2 * m);
        let mut heads = Vec::with_capacity(2 * m);
        let mut caps = Vec::with_capacity(2 * m);
        let mut degree = vec![0usize; n];
        for (&(lo, hi), &(cap_fwd, cap_bwd)) in &self.pairs {
            tails.push(lo);
            heads.push(hi);
            caps.push(cap_fwd);
            tails.push(hi);
            heads.push(lo);
            caps.push(cap_bwd);
            degree[lo as usize] += 1;
            degree[hi as usize] += 1;
        }
        let mut adj_offsets = Vec::with_capacity(n + 1);
        adj_offsets.push(0);
        for d in &degree {
            adj_offsets.push(adj_offsets.last().copied().unwrap_or(0) + d);
        }
        let mut cursor = adj_offsets.clone();
        let mut adj = vec![EdgeId::new(0); 2 * m];
        for (e, &tail) in tails.iter().enumerate() {
            let t = tail as usize;
            adj[cursor[t]] = EdgeId::new(e as u64);
            cursor[t] += 1;
        }
        FlowNetwork {
            tails,
            heads,
            caps,
            adj_offsets,
            adj,
        }
    }
}

/// A finalized directed flow network.
///
/// Every underlying edge occupies two consecutive directed slots, so
/// [`EdgeId::reverse`] (`id ^ 1`) navigates between a direction and its
/// residual counterpart. Each vertex's adjacency lists *both* directions
/// incident to it, including zero-capacity residual arcs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowNetwork {
    tails: Vec<u64>,
    heads: Vec<u64>,
    caps: Vec<Capacity>,
    adj_offsets: Vec<usize>,
    adj: Vec<EdgeId>,
}

impl FlowNetwork {
    /// Builds a unit-capacity bidirectional network from an undirected
    /// edge list — the paper's experimental setup ("unit capacities are
    /// used in the experiments").
    #[must_use]
    pub fn from_undirected_unit(num_vertices: u64, edges: &[(u64, u64)]) -> Self {
        let mut b = FlowNetworkBuilder::new(num_vertices);
        for &(u, v) in edges {
            b.add_undirected(u, v, 1);
        }
        b.build()
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.adj_offsets.len() - 1
    }

    /// Number of underlying edge pairs.
    #[must_use]
    pub fn num_edge_pairs(&self) -> usize {
        self.tails.len() / 2
    }

    /// Number of directed edge slots (`2 * num_edge_pairs`).
    #[must_use]
    pub fn num_directed_edges(&self) -> usize {
        self.tails.len()
    }

    /// Number of directed edges with positive capacity (the paper's |E|
    /// counts each friendship once per direction).
    #[must_use]
    pub fn num_capacitated_edges(&self) -> usize {
        self.caps.iter().filter(|&&c| c > 0).count()
    }

    /// The vertex this directed edge leaves.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn tail(&self, e: EdgeId) -> VertexId {
        VertexId::new(self.tails[e.index()])
    }

    /// The vertex this directed edge enters.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn head(&self, e: EdgeId) -> VertexId {
        VertexId::new(self.heads[e.index()])
    }

    /// Capacity of this directed edge (0 for pure residual arcs).
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn capacity(&self, e: EdgeId) -> Capacity {
        self.caps[e.index()]
    }

    /// All directed edge slots leaving `u`, including zero-capacity
    /// residual arcs.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn out_edges(&self, u: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        let lo = self.adj_offsets[u.index()];
        let hi = self.adj_offsets[u.index() + 1];
        self.adj[lo..hi].iter().copied()
    }

    /// Neighbors of `u` through positive-capacity edges, with the edge id.
    pub fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (EdgeId, VertexId)> + '_ {
        self.out_edges(u)
            .filter(|&e| self.capacity(e) > 0)
            .map(|e| (e, self.head(e)))
    }

    /// Out-degree of `u` counting only positive-capacity edges.
    #[must_use]
    pub fn degree(&self, u: VertexId) -> usize {
        self.out_edges(u).filter(|&e| self.capacity(e) > 0).count()
    }

    /// Sum of capacities leaving `u` (bounds any flow out of `u`).
    #[must_use]
    pub fn capacity_out(&self, u: VertexId) -> Capacity {
        self.out_edges(u)
            .map(|e| self.capacity(e))
            .fold(0, Capacity::saturating_add)
    }

    /// Iterates every directed edge id with positive capacity.
    pub fn capacitated_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_directed_edges() as u64)
            .map(EdgeId::new)
            .filter(|&e| self.capacity(e) > 0)
    }

    /// Returns a copy of this network extended with a super source
    /// (vertex `n`) and super sink (vertex `n + 1`): one
    /// [`INFINITE_CAPACITY`] pair `n → v` per source terminal and
    /// `v → n+1` per sink terminal.
    ///
    /// Existing edge ids are preserved (terminal pairs are appended
    /// after them) and the adjacency structure is rebuilt with one
    /// counting pass — `O(n + m)` with no re-sorting, unlike routing
    /// the whole graph through [`FlowNetworkBuilder`] again. This is
    /// the serving tier's per-query path for `--w` queries, so the
    /// constant matters.
    ///
    /// # Panics
    /// Panics if any terminal id is out of range.
    #[must_use]
    pub fn with_super_terminals(&self, sources: &[u64], sinks: &[u64]) -> FlowNetwork {
        let n = self.num_vertices() as u64;
        for &v in sources.iter().chain(sinks) {
            assert!(v < n, "terminal {v} out of range (n = {n})");
        }
        let (super_s, super_t) = (n, n + 1);
        let extra_pairs = sources.len() + sinks.len();
        let old_slots = self.tails.len();
        let mut tails = Vec::with_capacity(old_slots + 2 * extra_pairs);
        let mut heads = Vec::with_capacity(old_slots + 2 * extra_pairs);
        let mut caps = Vec::with_capacity(old_slots + 2 * extra_pairs);
        tails.extend_from_slice(&self.tails);
        heads.extend_from_slice(&self.heads);
        caps.extend_from_slice(&self.caps);
        for &v in sources {
            tails.push(super_s);
            heads.push(v);
            caps.push(INFINITE_CAPACITY);
            tails.push(v);
            heads.push(super_s);
            caps.push(0);
        }
        for &v in sinks {
            tails.push(v);
            heads.push(super_t);
            caps.push(INFINITE_CAPACITY);
            tails.push(super_t);
            heads.push(v);
            caps.push(0);
        }
        let new_n = n as usize + 2;
        let mut degree = vec![0usize; new_n];
        for &tail in &tails {
            degree[tail as usize] += 1;
        }
        let mut adj_offsets = Vec::with_capacity(new_n + 1);
        adj_offsets.push(0);
        for d in &degree {
            adj_offsets.push(adj_offsets.last().copied().unwrap_or(0) + d);
        }
        let mut cursor = adj_offsets.clone();
        let mut adj = vec![EdgeId::new(0); tails.len()];
        for (e, &tail) in tails.iter().enumerate() {
            let t = tail as usize;
            adj[cursor[t]] = EdgeId::new(e as u64);
            cursor[t] += 1;
        }
        FlowNetwork {
            tails,
            heads,
            caps,
            adj_offsets,
            adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> FlowNetwork {
        // 0 -> {1,2} -> 3 with asymmetric capacities.
        let mut b = FlowNetworkBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(0, 2, 2);
        b.add_edge(1, 3, 2);
        b.add_edge(2, 3, 4);
        b.build()
    }

    #[test]
    fn pairing_invariant() {
        let net = diamond();
        for e in (0..net.num_directed_edges() as u64).map(EdgeId::new) {
            assert_eq!(net.tail(e), net.head(e.reverse()));
            assert_eq!(net.head(e), net.tail(e.reverse()));
        }
    }

    #[test]
    fn directed_capacities_have_zero_reverse() {
        let net = diamond();
        let e01 = net
            .out_edges(VertexId::new(0))
            .find(|&e| net.head(e) == VertexId::new(1) && net.capacity(e) > 0)
            .unwrap();
        assert_eq!(net.capacity(e01), 3);
        assert_eq!(net.capacity(e01.reverse()), 0);
    }

    #[test]
    fn adjacency_covers_both_directions() {
        let net = diamond();
        // Vertex 3 has no positive out-capacity but has residual arcs.
        assert_eq!(net.degree(VertexId::new(3)), 0);
        assert_eq!(net.out_edges(VertexId::new(3)).count(), 2);
        assert_eq!(net.neighbors(VertexId::new(0)).count(), 2);
    }

    #[test]
    fn parallel_edges_merge() {
        let mut b = FlowNetworkBuilder::new(2);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 1, 2);
        let net = b.build();
        assert_eq!(net.num_edge_pairs(), 1);
        let e = net.out_edges(VertexId::new(0)).next().unwrap();
        assert_eq!(net.capacity(e), 3);
    }

    #[test]
    fn self_loops_and_nonpositive_caps_ignored() {
        let mut b = FlowNetworkBuilder::new(2);
        b.add_edge(0, 0, 5);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 1, -3);
        let net = b.build();
        assert_eq!(net.num_edge_pairs(), 0);
    }

    #[test]
    fn builder_grows_vertex_count() {
        let mut b = FlowNetworkBuilder::new(1);
        b.add_edge(5, 9, 1);
        let net = b.build();
        assert_eq!(net.num_vertices(), 10);
        assert_eq!(net.degree(VertexId::new(0)), 0);
    }

    #[test]
    fn unit_undirected_counts() {
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(net.num_edge_pairs(), 4);
        assert_eq!(net.num_capacitated_edges(), 8);
        for v in 0..4 {
            assert_eq!(net.degree(VertexId::new(v)), 2);
        }
    }

    #[test]
    fn empty_network() {
        let net = FlowNetworkBuilder::new(0).build();
        assert_eq!(net.num_vertices(), 0);
        assert_eq!(net.num_edge_pairs(), 0);
    }

    #[test]
    fn capacity_out_saturates_with_infinite_edges() {
        let mut b = FlowNetworkBuilder::new(3);
        b.add_edge(0, 1, INFINITE_CAPACITY);
        b.add_edge(0, 2, INFINITE_CAPACITY);
        let net = b.build();
        assert!(net.capacity_out(VertexId::new(0)) >= INFINITE_CAPACITY);
    }

    #[test]
    fn super_terminal_augmentation_matches_builder_route() {
        let base = diamond();
        let fast = base.with_super_terminals(&[0, 1], &[2, 3]);
        // The builder route: re-insert everything plus the terminal edges.
        let mut b = FlowNetworkBuilder::new(6);
        for e in base.capacitated_edges() {
            b.add_edge(base.tail(e).raw(), base.head(e).raw(), base.capacity(e));
        }
        for v in [0u64, 1] {
            b.add_edge(4, v, INFINITE_CAPACITY);
        }
        for v in [2u64, 3] {
            b.add_edge(v, 5, INFINITE_CAPACITY);
        }
        let slow = b.build();
        assert_eq!(fast.num_vertices(), slow.num_vertices());
        assert_eq!(fast.num_edge_pairs(), slow.num_edge_pairs());
        // Same multiset of capacitated directed edges, whatever the ids.
        let canon = |net: &FlowNetwork| {
            let mut edges: Vec<(u64, u64, Capacity)> = net
                .capacitated_edges()
                .map(|e| (net.tail(e).raw(), net.head(e).raw(), net.capacity(e)))
                .collect();
            edges.sort_unstable();
            edges
        };
        assert_eq!(canon(&fast), canon(&slow));
        // Pre-existing edge ids are untouched by the augmentation.
        for e in (0..base.num_directed_edges() as u64).map(EdgeId::new) {
            assert_eq!(base.tail(e), fast.tail(e));
            assert_eq!(base.head(e), fast.head(e));
            assert_eq!(base.capacity(e), fast.capacity(e));
        }
        // The adjacency of a terminal covers its new incident slot.
        assert_eq!(fast.out_edges(VertexId::new(4)).count(), 2);
        assert_eq!(fast.out_edges(VertexId::new(5)).count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn super_terminal_augmentation_rejects_bad_ids() {
        let _ = diamond().with_super_terminals(&[9], &[3]);
    }
}

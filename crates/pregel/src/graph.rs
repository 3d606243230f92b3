//! The engine's in-memory vertex store.

use std::collections::BTreeMap;

/// One vertex: mutable state, out-edges, halt flag.
#[derive(Debug, Clone)]
pub(crate) struct VertexEntry<S, E> {
    pub state: S,
    pub edges: Vec<(u64, E)>,
    pub halted: bool,
}

/// A vertex-centric graph: ids to state + out-edge lists.
///
/// `BTreeMap` keeps iteration order deterministic, which keeps whole runs
/// reproducible when the engine executes single-threaded.
#[derive(Debug, Clone, Default)]
pub struct Graph<S, E> {
    pub(crate) vertices: BTreeMap<u64, VertexEntry<S, E>>,
}

impl<S, E> Graph<S, E> {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self {
            vertices: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a vertex with its initial state and out-edges.
    pub fn add_vertex(&mut self, id: u64, state: S, edges: Vec<(u64, E)>) {
        self.vertices.insert(
            id,
            VertexEntry {
                state,
                edges,
                halted: false,
            },
        );
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// A vertex's state, if present.
    #[must_use]
    pub fn state(&self, id: u64) -> Option<&S> {
        self.vertices.get(&id).map(|v| &v.state)
    }

    /// Iterates `(id, state)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &S)> + '_ {
        self.vertices.iter().map(|(&id, v)| (id, &v.state))
    }

    /// A vertex's out-edges, if present.
    #[must_use]
    pub fn edges(&self, id: u64) -> Option<&[(u64, E)]> {
        self.vertices.get(&id).map(|v| v.edges.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g: Graph<i32, ()> = Graph::new();
        assert!(g.is_empty());
        g.add_vertex(3, 30, vec![(1, ())]);
        g.add_vertex(1, 10, vec![]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.state(3), Some(&30));
        assert_eq!(g.state(9), None);
        assert_eq!(g.edges(3).unwrap().len(), 1);
        let ids: Vec<u64> = g.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3], "deterministic id order");
    }

    #[test]
    fn add_vertex_replaces() {
        let mut g: Graph<i32, ()> = Graph::new();
        g.add_vertex(1, 1, vec![]);
        g.add_vertex(1, 2, vec![(3, ())]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.state(1), Some(&2));
    }
}

//! Vertex and edge identifier newtypes.
//!
//! [`EdgeId`]s are *paired*: an edge and its reverse differ only in the
//! lowest bit, so `e.reverse().reverse() == e` and residual bookkeeping can
//! flip direction with one XOR — the convention every max-flow module in
//! this workspace relies on.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies a vertex (dense index into a [`FlowNetwork`](crate::FlowNetwork)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(u64);

impl VertexId {
    /// Wraps a raw vertex index.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw index.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The raw index as a usize (for array indexing).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u64> for VertexId {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl From<VertexId> for u64 {
    fn from(id: VertexId) -> Self {
        id.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifies a *directed* edge. The reverse direction of the same
/// underlying edge is `self ^ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(u64);

impl EdgeId {
    /// Wraps a raw directed-edge index.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw index.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The raw index as a usize (for array indexing).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The opposite direction of the same underlying edge.
    ///
    /// # Example
    /// ```
    /// let e = swgraph::EdgeId::new(6);
    /// assert_eq!(e.reverse().raw(), 7);
    /// assert_eq!(e.reverse().reverse(), e);
    /// ```
    #[must_use]
    pub const fn reverse(self) -> Self {
        Self(self.0 ^ 1)
    }

    /// Whether this is the forward member of its pair (even raw id).
    #[must_use]
    pub const fn is_forward(self) -> bool {
        self.0 & 1 == 0
    }

    /// The canonical (forward) member of this edge's pair.
    #[must_use]
    pub const fn canonical(self) -> Self {
        Self(self.0 & !1)
    }
}

impl From<u64> for EdgeId {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl From<EdgeId> for u64 {
    fn from(id: EdgeId) -> Self {
        id.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A multiplicative hasher for integer ids ([`EdgeId`]s, route hashes) —
/// one rotate, xor and multiply per `u64`, where the standard SipHash
/// spends tens of cycles on every lookup.
///
/// Odd-constant multiplication permutes the low bits of a dense id range,
/// so consecutive ids fill consecutive buckets. It offers no protection
/// against crafted collisions: key only maps whose ids the program
/// assigned, and only where iteration order does not reach any output.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A `HashMap` keyed by integer ids through [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn id_hasher_spreads_dense_ids_and_keeps_map_semantics() {
        let hash = |raw: u64| {
            let mut h = IdHasher::default();
            EdgeId::new(raw).hash(&mut h);
            h.finish()
        };
        // Low bits are a permutation of a dense range: 1024 ids land in
        // 1024 distinct buckets of a 1024-slot table.
        let mut buckets: Vec<u64> = (0..1024).map(|raw| hash(raw) & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1024);

        let mut map: IdMap<EdgeId, i64> = IdMap::default();
        for raw in 0..1000 {
            *map.entry(EdgeId::new(raw % 100)).or_insert(0) += 1;
        }
        assert_eq!(map.len(), 100);
        assert!(map.values().all(|&n| n == 10));
    }

    #[test]
    fn reverse_is_involutive_and_adjacent() {
        for raw in [0u64, 1, 2, 7, 100, u64::MAX - 1] {
            let e = EdgeId::new(raw);
            assert_eq!(e.reverse().reverse(), e);
            assert_eq!(e.raw() ^ e.reverse().raw(), 1);
        }
    }

    #[test]
    fn canonical_strips_direction() {
        assert_eq!(EdgeId::new(6).canonical(), EdgeId::new(6));
        assert_eq!(EdgeId::new(7).canonical(), EdgeId::new(6));
        assert!(EdgeId::new(6).is_forward());
        assert!(!EdgeId::new(7).is_forward());
    }

    #[test]
    fn conversions_round_trip() {
        let v: VertexId = 42u64.into();
        assert_eq!(u64::from(v), 42);
        assert_eq!(v.index(), 42);
        let e: EdgeId = 9u64.into();
        assert_eq!(u64::from(e), 9);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(VertexId::new(3).to_string(), "v3");
        assert_eq!(EdgeId::new(5).to_string(), "e5");
    }
}

//! The flow cache: LRU memoization of answered queries.
//!
//! Max-flow answers cost a graph-sized solve whenever the local search
//! gives up, and are immutable for a given snapshot, so `ffmrd` memoizes
//! them. A key
//! canonicalizes everything that determines the answer:
//!
//! * dataset name **and snapshot epoch** — a `reload` bumps the epoch,
//!   so every entry for the old graph is unreachable the instant the
//!   swap commits (and is swept eagerly by
//!   [`FlowCache::invalidate_dataset`]);
//! * the query kind (max-flow vs min-cut — a min-cut answer strictly
//!   extends a max-flow answer);
//! * the *resolved, sorted* terminal sets. A plain `s→t` query
//!   canonicalizes to `([s], [t])`; a super-source/sink query (the
//!   paper's Sec. V-A1 `--w` construction) canonicalizes to the sorted
//!   high-degree terminal vertices actually chosen, so two `--w` queries
//!   that select the same terminals share one entry even across
//!   different requested seeds.
//!
//! Answers read off a snapshot's cut tree never enter the cache (a walk
//! costs less than a lookup), so every cached answer was solved on the
//! whole graph: its `plan` is always `full`.
//!
//! Eviction is least-recently-used in O(1): a slab of entries threaded
//! on an intrusive doubly-linked recency list, plus a key → slot map.
//! The previous implementation scanned all of `capacity` on every
//! overflowing insert, which was noise at daemon-scale capacities
//! (hundreds) but turned every insert into a full sweep at the
//! QPS-tier capacities (100k+) the serving tier configures.

use std::collections::HashMap;

use ffmr_sync::Mutex;
use swgraph::Capacity;

/// What was asked of the solver (part of the cache key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Maximum-flow value only.
    MaxFlow,
    /// Maximum flow plus the minimum cut certificate.
    MinCut,
}

/// A fully canonicalized query identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Dataset name.
    pub dataset: String,
    /// Snapshot epoch the answer was computed against.
    pub epoch: u64,
    /// Max-flow or min-cut.
    pub kind: QueryKind,
    /// Sorted source-side terminal vertices (one entry for plain `s`).
    pub sources: Vec<u64>,
    /// Sorted sink-side terminal vertices (one entry for plain `t`).
    pub sinks: Vec<u64>,
}

impl CacheKey {
    /// Builds a key, sorting the terminal sets into canonical order.
    #[must_use]
    pub fn new(
        dataset: &str,
        epoch: u64,
        kind: QueryKind,
        mut sources: Vec<u64>,
        mut sinks: Vec<u64>,
    ) -> Self {
        sources.sort_unstable();
        sources.dedup();
        sinks.sort_unstable();
        sinks.dedup();
        Self {
            dataset: dataset.to_string(),
            epoch,
            kind,
            sources,
            sinks,
        }
    }
}

/// A memoized solver answer, replayed verbatim on a hit (plus a
/// `cached 1` marker in the response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedAnswer {
    /// The max-flow value.
    pub flow: Capacity,
    /// Which solver produced it (`local`, `push-relabel`, `dinic`, …).
    pub solver: &'static str,
    /// Min-cut certificate: crossing-edge count (min-cut queries only).
    pub cut_edges: Option<usize>,
    /// Min-cut certificate: source-side size (min-cut queries only).
    pub cut_source_side: Option<usize>,
}

/// Cache observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a solver.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries swept by snapshot invalidation.
    pub invalidated: u64,
    /// Current entry count.
    pub entries: usize,
}

/// Slab sentinel: "no slot".
const NIL: u32 = u32::MAX;

/// One resident entry, threaded on the recency list.
#[derive(Debug)]
struct Slot {
    key: CacheKey,
    answer: CachedAnswer,
    /// Toward more-recent (NIL at the head).
    prev: u32,
    /// Toward less-recent (NIL at the tail).
    next: u32,
}

#[derive(Debug)]
struct CacheInner {
    /// Key → slab index of the resident entry.
    map: HashMap<CacheKey, u32>,
    /// Slot storage; `None` entries are on the free list.
    slots: Vec<Option<Slot>>,
    /// Recycled slab indices.
    free: Vec<u32>,
    /// Most recently used slot (NIL when empty).
    head: u32,
    /// Least recently used slot (NIL when empty).
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidated: u64,
}

impl CacheInner {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidated: 0,
        }
    }

    fn slot(&self, i: u32) -> &Slot {
        self.slots[i as usize].as_ref().expect("live slot")
    }

    fn slot_mut(&mut self, i: u32) -> &mut Slot {
        self.slots[i as usize].as_mut().expect("live slot")
    }

    /// Detaches slot `i` from the recency list (it stays in the slab).
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = self.slot(i);
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
    }

    /// Makes slot `i` the most recently used.
    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = self.slot_mut(i);
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slot_mut(old_head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Removes slot `i` entirely: off the list, out of the map, slab
    /// index recycled. Returns its key.
    fn remove(&mut self, i: u32) -> CacheKey {
        self.unlink(i);
        let slot = self.slots[i as usize].take().expect("live slot");
        self.map.remove(&slot.key);
        self.free.push(i);
        slot.key
    }

    /// Allocates a slab index for a new slot.
    fn insert_slot(&mut self, slot: Slot) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(slot);
            i
        } else {
            self.slots.push(Some(slot));
            (self.slots.len() - 1) as u32
        }
    }
}

/// A bounded LRU cache of [`CachedAnswer`]s. Lookup, insert and evict
/// are all O(1).
#[derive(Debug)]
pub struct FlowCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl FlowCache {
    /// A cache holding at most `capacity` answers. Capacity 0 disables
    /// caching entirely (every lookup misses).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(CacheInner::new()),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<CachedAnswer> {
        let hit = {
            let mut inner = self.inner.lock();
            match inner.map.get(key).copied() {
                Some(i) => {
                    inner.unlink(i);
                    inner.push_front(i);
                    inner.hits += 1;
                    Some(inner.slot(i).answer.clone())
                }
                None => {
                    inner.misses += 1;
                    None
                }
            }
        };
        // Global counters are bumped outside the cache lock.
        let name = if hit.is_some() {
            "ffmr_cache_hits_total"
        } else {
            "ffmr_cache_misses_total"
        };
        ffmr_obs::global().counter(name, &[]).inc();
        hit
    }

    /// Stores an answer, evicting the least-recently-used entry on
    /// overflow.
    pub fn put(&self, key: CacheKey, answer: CachedAnswer) {
        if self.capacity == 0 {
            return;
        }
        let evicted = {
            let mut inner = self.inner.lock();
            if let Some(i) = inner.map.get(&key).copied() {
                // Overwrite in place and refresh recency.
                inner.unlink(i);
                inner.push_front(i);
                inner.slot_mut(i).answer = answer;
                false
            } else {
                let mut evicted = false;
                if inner.map.len() >= self.capacity {
                    let coldest = inner.tail;
                    debug_assert_ne!(coldest, NIL, "non-empty cache has a tail");
                    inner.remove(coldest);
                    inner.evictions += 1;
                    evicted = true;
                }
                let i = inner.insert_slot(Slot {
                    key: key.clone(),
                    answer,
                    prev: NIL,
                    next: NIL,
                });
                inner.push_front(i);
                inner.map.insert(key, i);
                evicted
            }
        };
        if evicted {
            ffmr_obs::global()
                .counter("ffmr_cache_evictions_total", &[])
                .inc();
        }
    }

    /// Atomically drops every entry for `dataset` (all epochs). Called
    /// under the same swap that replaces the snapshot, so a cache reader
    /// can never observe a new epoch with old entries still served —
    /// epoch-in-key already guarantees correctness; this reclaims the
    /// memory. O(entries), unlike the O(1) hot paths.
    pub fn invalidate_dataset(&self, dataset: &str) {
        let swept = {
            let mut inner = self.inner.lock();
            let doomed: Vec<u32> = (0..inner.slots.len() as u32)
                .filter(|&i| {
                    inner.slots[i as usize]
                        .as_ref()
                        .is_some_and(|s| s.key.dataset == dataset)
                })
                .collect();
            for i in &doomed {
                inner.remove(*i);
            }
            let swept = doomed.len() as u64;
            inner.invalidated += swept;
            swept
        };
        if swept > 0 {
            ffmr_obs::global()
                .counter("ffmr_cache_invalidated_total", &[])
                .add(swept);
        }
    }

    /// A snapshot of the observability counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidated: inner.invalidated,
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(dataset: &str, epoch: u64, s: u64, t: u64) -> CacheKey {
        CacheKey::new(dataset, epoch, QueryKind::MaxFlow, vec![s], vec![t])
    }

    fn answer(flow: Capacity) -> CachedAnswer {
        CachedAnswer {
            flow,
            solver: "dinic",
            cut_edges: None,
            cut_source_side: None,
        }
    }

    #[test]
    fn hit_miss_and_stats() {
        let cache = FlowCache::new(4);
        let k = key("g", 1, 0, 9);
        assert_eq!(cache.get(&k), None);
        cache.put(k.clone(), answer(3));
        assert_eq!(cache.get(&k).unwrap().flow, 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn terminal_sets_canonicalize() {
        let a = CacheKey::new("g", 1, QueryKind::MaxFlow, vec![5, 2, 5], vec![9, 7]);
        let b = CacheKey::new("g", 1, QueryKind::MaxFlow, vec![2, 5], vec![7, 9, 9]);
        assert_eq!(a, b, "order and duplicates must not matter");
        let c = CacheKey::new("g", 1, QueryKind::MinCut, vec![2, 5], vec![7, 9]);
        assert_ne!(a, c, "kind is part of the identity");
    }

    #[test]
    fn epoch_partitions_the_keyspace() {
        let cache = FlowCache::new(4);
        cache.put(key("g", 1, 0, 9), answer(3));
        assert_eq!(cache.get(&key("g", 2, 0, 9)), None, "new epoch, no hit");
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let cache = FlowCache::new(2);
        let (a, b, c) = (key("g", 1, 0, 1), key("g", 1, 0, 2), key("g", 1, 0, 3));
        cache.put(a.clone(), answer(1));
        cache.put(b.clone(), answer(2));
        assert!(cache.get(&a).is_some(), "touch a so b is coldest");
        cache.put(c.clone(), answer(3));
        assert!(cache.get(&b).is_none(), "b evicted");
        assert!(cache.get(&a).is_some() && cache.get(&c).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn overwriting_put_refreshes_recency_without_eviction() {
        let cache = FlowCache::new(2);
        let (a, b, c) = (key("g", 1, 0, 1), key("g", 1, 0, 2), key("g", 1, 0, 3));
        cache.put(a.clone(), answer(1));
        cache.put(b.clone(), answer(2));
        // Overwrite a: no eviction, and a becomes the warmest.
        cache.put(a.clone(), answer(10));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().entries, 2);
        cache.put(c.clone(), answer(3));
        assert!(cache.get(&b).is_none(), "b was coldest after the overwrite");
        assert_eq!(cache.get(&a).unwrap().flow, 10);
    }

    #[test]
    fn invalidation_sweeps_only_the_dataset() {
        let cache = FlowCache::new(8);
        cache.put(key("g", 1, 0, 1), answer(1));
        cache.put(key("g", 2, 0, 1), answer(1));
        cache.put(key("h", 1, 0, 1), answer(2));
        cache.invalidate_dataset("g");
        assert_eq!(cache.get(&key("g", 1, 0, 1)), None);
        assert_eq!(cache.get(&key("g", 2, 0, 1)), None);
        assert_eq!(cache.get(&key("h", 1, 0, 1)).unwrap().flow, 2);
        assert_eq!(cache.stats().invalidated, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = FlowCache::new(0);
        let k = key("g", 1, 0, 1);
        cache.put(k.clone(), answer(1));
        assert_eq!(cache.get(&k), None);
        assert_eq!(cache.stats().entries, 0);
    }

    /// Replays a seeded op sequence against a naive reference LRU and
    /// demands identical observable behaviour (hits, evict victims).
    #[test]
    fn matches_a_reference_lru_model() {
        struct Model {
            cap: usize,
            // Most-recent-first (key, flow) pairs.
            entries: Vec<(CacheKey, Capacity)>,
        }
        impl Model {
            fn get(&mut self, k: &CacheKey) -> Option<Capacity> {
                let pos = self.entries.iter().position(|(ek, _)| ek == k)?;
                let e = self.entries.remove(pos);
                let flow = e.1;
                self.entries.insert(0, e);
                Some(flow)
            }
            fn put(&mut self, k: CacheKey, flow: Capacity) {
                if let Some(pos) = self.entries.iter().position(|(ek, _)| ek == &k) {
                    self.entries.remove(pos);
                } else if self.entries.len() >= self.cap {
                    self.entries.pop();
                }
                self.entries.insert(0, (k, flow));
            }
        }

        let cache = FlowCache::new(8);
        let mut model = Model {
            cap: 8,
            entries: Vec::new(),
        };
        // SplitMix64-style scramble for a deterministic op stream.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for step in 0..2000u64 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let k = key("g", 1, z % 20, 99);
            if z.is_multiple_of(3) {
                let flow = (z % 1000) as Capacity;
                cache.put(k.clone(), answer(flow));
                model.put(k, flow);
            } else {
                let got = cache.get(&k).map(|a| a.flow);
                assert_eq!(got, model.get(&k), "step {step}: hit/value mismatch");
            }
        }
        assert_eq!(cache.stats().entries, model.entries.len());
    }

    /// The O(1) regression bar: at a QPS-tier capacity, a stream of
    /// inserts must not degrade into per-insert full scans. The old
    /// `min_by_key` eviction took minutes on this workload; the slab
    /// LRU finishes in well under the bound even in debug builds.
    #[test]
    fn qps_tier_capacity_insert_stream_is_fast() {
        let capacity = 50_000;
        let cache = FlowCache::new(capacity);
        let started = std::time::Instant::now();
        for i in 0..150_000u64 {
            cache.put(key("g", 1, i, i + 1), answer(1));
        }
        let elapsed = started.elapsed();
        assert_eq!(cache.stats().entries, capacity);
        assert_eq!(cache.stats().evictions, 100_000);
        assert!(
            elapsed < std::time::Duration::from_secs(30),
            "LRU insert stream took {elapsed:?}; eviction has regressed \
             to a per-insert scan"
        );
    }
}

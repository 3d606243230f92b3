//! Hadoop-style named event counters.
//!
//! Counters are the only sanctioned channel from inside `MAP`/`REDUCE` back
//! to the driving program (paper Fig. 2 reads `source move` / `sink move`
//! after each round to decide termination).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ffmr_sync::RwLock;

/// A concurrent set of named `u64` counters.
///
/// Cloneable handles are cheap (`Arc` internally is not needed: the runtime
/// shares it by reference); increments are lock-free once a counter exists.
///
/// # Example
/// ```
/// let counters = mapreduce::Counters::new();
/// counters.incr("source move", 1);
/// counters.incr("source move", 2);
/// assert_eq!(counters.value("source move"), 3);
/// assert_eq!(counters.value("never touched"), 0);
/// ```
#[derive(Debug, Default)]
pub struct Counters {
    inner: RwLock<HashMap<String, AtomicU64>>,
}

impl Counters {
    /// Creates an empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter named `name`, creating it at zero first
    /// if it does not exist.
    pub fn incr(&self, name: &str, delta: u64) {
        {
            let read = self.inner.read();
            if let Some(c) = read.get(name) {
                c.fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
        let mut write = self.inner.write();
        write
            .entry(name.to_owned())
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of `name`, or 0 if never incremented.
    #[must_use]
    pub fn value(&self, name: &str) -> u64 {
        self.inner
            .read()
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Snapshot of every counter, sorted by name (deterministic output).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .inner
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        out.sort();
        out
    }

    /// Resets every counter to zero (used between rounds when a driver
    /// reuses one counter set).
    pub fn reset(&self) {
        for (_, v) in self.inner.read().iter() {
            v.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn concurrent_increments_sum() {
        let counters = Arc::new(Counters::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&counters);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr("hits", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counters.value("hits"), 8000);
    }

    #[test]
    fn snapshot_is_sorted() {
        let c = Counters::new();
        c.incr("zebra", 1);
        c.incr("apple", 2);
        let snap = c.snapshot();
        assert_eq!(snap[0].0, "apple");
        assert_eq!(snap[1].0, "zebra");
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let c = Counters::new();
        c.incr("x", 5);
        c.reset();
        assert_eq!(c.value("x"), 0);
        assert_eq!(c.snapshot().len(), 1);
    }
}

//! A small LRU cache for completed rankings.
//!
//! Capacity is bounded and eviction is least-recently-used. Lookups and
//! inserts bump a monotone tick; a `BTreeMap` keyed by tick mirrors the
//! main map, so the eviction victim is `pop_first()` — O(log n) — instead
//! of a full O(capacity) scan per insert. The tick index is maintained
//! eagerly: every touch removes the entry's old tick and inserts the new
//! one, so the two maps always hold exactly the same entries, and
//! [`LruCache::iter`] walks the entries in recency order.
//!
//! The cache keeps no index by graph: the service's scoped invalidations
//! (graph reload, `PATCH`) and warm-section collection are rare, so each
//! makes one scan instead of every insert and eviction updating an index.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Bounded LRU map.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (u64, V)>,
    /// Recency index: tick → key, oldest first. Ticks are unique (the
    /// counter only ever increments), so a plain map suffices.
    by_tick: BTreeMap<u64, K>,
    capacity: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (0 disables
    /// caching entirely).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            by_tick: BTreeMap::new(),
            capacity,
            tick: 0,
        }
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((t, v)) => {
                self.by_tick.remove(t);
                self.by_tick.insert(tick, key.clone());
                *t = tick;
                Some(v)
            }
            None => None,
        }
    }

    /// Every entry, least recently used first, *without* marking any of
    /// them used: warm-cache collection ranks a graph's entries by recency
    /// (walking it newest first) without perturbing the very ordering it
    /// is reading, and scoped invalidation picks a graph's keys out of it.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> {
        self.by_tick
            .values()
            .filter_map(|k| self.map.get_key_value(k).map(|(k, (_, v))| (k, v)))
    }

    /// Inserts `key → value`, evicting the least-recently-used entry when
    /// full. A no-op when capacity is 0.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some((old_tick, _)) = self.map.get(&key) {
            self.by_tick.remove(old_tick);
        } else if self.map.len() >= self.capacity {
            if let Some((_, oldest)) = self.by_tick.pop_first() {
                self.map.remove(&oldest);
            }
        }
        self.by_tick.insert(self.tick, key.clone());
        self.map.insert(key, (self.tick, value));
    }

    /// Removes one entry, returning its value, in O(log n).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (tick, value) = self.map.remove(key)?;
        self.by_tick.remove(&tick);
        Some(value)
    }

    /// Drops every entry failing the predicate (used to purge a reloaded
    /// graph's stale rankings) in one scan.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let by_tick = &mut self.by_tick;
        self.map.retain(|k, (t, _)| {
            let keep_it = keep(k);
            if !keep_it {
                by_tick.remove(t);
            }
            keep_it
        });
    }

    /// Drops every entry. This is the poison-recovery path: a panic while
    /// the cache lock was held may have interrupted the two-map update
    /// sequence (`map` + `by_tick`), and an empty cache is the only state
    /// guaranteed consistent — losing it costs cold misses, nothing more.
    pub fn clear(&mut self) {
        self.map.clear();
        self.by_tick.clear();
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // a is now fresher than b
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 10);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(&10));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    fn retain_purges() {
        let mut c = LruCache::new(4);
        c.insert(("g1", 1), 1);
        c.insert(("g2", 2), 2);
        c.retain(|k| k.0 != "g1");
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&("g2", 2)), Some(&2));
        // The tick index shed the purged entry too: filling the cache now
        // evicts in pure recency order with no ghost of g1 resurfacing.
        c.insert(("g3", 3), 3);
        c.insert(("g4", 4), 4);
        c.insert(("g5", 5), 5);
        assert_eq!(c.len(), 4);
        c.insert(("g6", 6), 6);
        assert_eq!(c.get(&("g2", 2)), None, "g2 was the oldest survivor");
        assert_eq!(c.len(), 4);
    }

    /// Pins the full LRU ordering across a mixed get/insert/reinsert
    /// sequence: eviction follows recency-of-*use*, not insertion order,
    /// and every touch (hit, overwrite) moves the entry to the back.
    #[test]
    fn eviction_follows_recency_order_exactly() {
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        // Recency (old → new): a, b, c.
        assert_eq!(c.get(&"a"), Some(&1)); // a, to the back: b, c, a
        c.insert("b", 20); // overwrite, to the back: c, a, b
        c.insert("d", 4); // evicts c (oldest): a, b, d
        assert_eq!(c.get(&"c"), None);
        c.insert("e", 5); // evicts a: b, d, e
        assert_eq!(c.get(&"a"), None);
        c.insert("f", 6); // evicts b: d, e, f
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"d"), Some(&4));
        assert_eq!(c.get(&"e"), Some(&5));
        assert_eq!(c.get(&"f"), Some(&6));
        assert_eq!(c.len(), 3);
    }

    /// Keys in recency order, least recently used first.
    fn order<V>(c: &LruCache<&'static str, V>) -> Vec<&'static str> {
        c.iter().map(|(k, _)| *k).collect()
    }

    #[test]
    fn insert_evicts_the_lru_key_and_remove_is_exact() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(order(&c), ["b", "a"], "overwrite evicts nothing");
        // b is now the LRU victim.
        c.insert("c", 3);
        assert_eq!(order(&c), ["a", "c"]);
        assert_eq!(c.remove(&"a"), Some(10));
        assert_eq!(c.remove(&"a"), None);
        assert_eq!(c.len(), 1);
        // The tick index shed the removed entry: filling up again evicts
        // c (the only survivor), never a ghost of a.
        c.insert("d", 4);
        c.insert("e", 5);
        assert_eq!(order(&c), ["d", "e"]);
    }

    #[test]
    fn iter_reads_recency_order_without_bumping() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        let all: Vec<(&str, i32)> = c.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(all, [("a", 1), ("b", 2)], "insertion order preserved");
        assert_eq!(c.iter().rev().map(|(k, _)| *k).next(), Some("b"));
        // a stayed least-recently-used: the next insert evicts it.
        c.insert("c", 3);
        assert_eq!(order(&c), ["b", "c"]);
    }

    /// The tick index and the main map stay in lockstep: after a long
    /// randomized-ish workload the cache still holds exactly `capacity`
    /// entries and every held key is retrievable.
    #[test]
    fn index_stays_consistent_under_churn() {
        let mut c = LruCache::new(8);
        for round in 0u64..200 {
            c.insert(round % 13, round);
            c.get(&((round * 7) % 13));
            assert!(c.len() <= 8);
        }
        assert_eq!(c.len(), 8);
        let held: Vec<u64> = (0..13).filter(|k| c.get(k).is_some()).collect();
        assert_eq!(held.len(), 8);
    }
}

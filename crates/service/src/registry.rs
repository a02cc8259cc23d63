//! The graph registry: named graphs with their preprocessing built once and
//! shared across worker threads.
//!
//! Each entry pairs the CSR graph with its [`BcDecomposition`] (bicomps,
//! block-cut tree, out-reach/ISP tables, bcₐ, γ and the target-independent
//! VC-bound precomputation). Entries are immutable after construction and
//! handed out as `Arc`s, so concurrent `/rank` requests read the same
//! decomposition with zero contention; per-request sampler scratch lives in
//! the request's own `BcApproxProblem`/`HrSampler`, never in the entry.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::sync::{LockExt, RwLockExt};

use saphyra::bc::BcDecomposition;
use saphyra_graph::Graph;

/// Process-wide entry counter backing [`GraphEntry::epoch`].
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// One loaded graph and its reusable preprocessing.
#[derive(Debug)]
pub struct GraphEntry {
    /// Registry key.
    pub name: String,
    /// The graph.
    pub graph: Graph,
    /// Preprocessing shared by every request against this graph.
    pub dec: BcDecomposition,
    /// Unique id of this *load* of the graph. Reloading under the same
    /// name yields a new epoch, so cache keys derived from `(name, epoch)`
    /// can never alias rankings of a replaced graph — even when an
    /// in-flight request computed against the old entry finishes after
    /// the replacement.
    pub epoch: u64,
    /// How many journaled edge deltas (`PATCH /graphs/<name>`) this
    /// entry's graph is ahead of its original upload. Persisted in
    /// snapshots (unlike `epoch`) so a restart knows which journaled
    /// patch records the snapshot already contains: replay applies only
    /// records with `seq == delta_seq + 1`, in order.
    pub delta_seq: u64,
}

impl GraphEntry {
    /// Builds the entry (runs the full O(m + n) decomposition once).
    pub fn build(name: impl Into<String>, graph: Graph) -> Self {
        let dec = BcDecomposition::compute(&graph);
        GraphEntry::from_parts(name, graph, dec)
    }

    /// Assembles an entry from an already-computed decomposition (e.g. one
    /// restored from a snapshot). The epoch is always freshly allocated —
    /// epochs are process-local liveness tokens, never persisted — so a
    /// cache key minted against any previous load of this name can never
    /// alias the restored entry.
    pub fn from_parts(name: impl Into<String>, graph: Graph, dec: BcDecomposition) -> Self {
        GraphEntry::from_parts_seq(name, graph, dec, 0)
    }

    /// [`GraphEntry::from_parts`] with an explicit delta sequence number —
    /// the patch path (`seq + 1`) and snapshot restoration (the persisted
    /// seq) use this; fresh uploads start at 0.
    pub fn from_parts_seq(
        name: impl Into<String>,
        graph: Graph,
        dec: BcDecomposition,
        delta_seq: u64,
    ) -> Self {
        GraphEntry {
            name: name.into(),
            graph,
            dec,
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            delta_seq,
        }
    }
}

/// Thread-safe name → entry map. `BTreeMap` keeps listings sorted, so
/// `GET /graphs` output is deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RwLock<BTreeMap<String, Arc<GraphEntry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Fetches a graph by name.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        self.inner.read_ok().get(name).cloned()
    }

    /// Inserts (or replaces) an entry; returns whether a previous entry
    /// with the same name was replaced.
    pub fn insert(&self, entry: GraphEntry) -> bool {
        self.inner
            .write_ok()
            .insert(entry.name.clone(), Arc::new(entry))
            .is_some()
    }

    /// All entries in name order.
    pub fn list(&self) -> Vec<Arc<GraphEntry>> {
        self.inner.read_ok().values().cloned().collect()
    }

    /// Number of loaded graphs.
    pub fn len(&self) -> usize {
        self.inner.read_ok().len()
    }

    /// Whether no graph is loaded.
    pub fn is_empty(&self) -> bool {
        self.inner.read_ok().is_empty()
    }
}

/// Reverse index over the ranking cache: graph name → the live cache
/// keys minted for that graph (any epoch). The LRU cache itself cannot
/// enumerate keys by graph without a full scan, so scoped invalidation
/// (reload purge, `PATCH` component-scoped purge) walks this index and
/// removes exactly the keys it names.
///
/// Callers keep it exact by mutating it *while holding the cache lock*
/// (lock order `server.cache` → `registry.by_graph`, both declared in
/// `check/invariants.toml`): every cache insert records its key here and
/// un-records the key the insert evicted, so at any quiescent point the
/// index holds precisely the cache's key set, partitioned by graph.
#[derive(Debug, Default)]
pub struct KeyIndex<K> {
    by_graph: Mutex<HashMap<String, HashSet<K>>>,
}

impl<K: Eq + Hash + Clone> KeyIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        KeyIndex {
            by_graph: Mutex::new(HashMap::new()),
        }
    }

    /// Records a key under `graph`.
    pub fn insert(&self, graph: &str, key: K) {
        self.by_graph
            .lock_ok()
            .entry(graph.to_string())
            .or_default()
            .insert(key);
    }

    /// Un-records a key (e.g. one the cache evicted). A no-op when the
    /// key was never recorded.
    pub fn remove(&self, graph: &str, key: &K) {
        let mut map = self.by_graph.lock_ok();
        if let Some(set) = map.get_mut(graph) {
            set.remove(key);
            if set.is_empty() {
                map.remove(graph);
            }
        }
    }

    /// Returns (clones of) every key recorded under `graph` without
    /// removing them — warm-cache collection enumerates a graph's live
    /// keys while leaving the index untouched.
    pub fn keys_of(&self, graph: &str) -> Vec<K> {
        self.by_graph
            .lock_ok()
            .get(graph)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Removes and returns every key recorded under `graph` (scoped
    /// invalidation claims the whole per-graph set in one step; keys it
    /// decides to keep are re-inserted).
    pub fn take(&self, graph: &str) -> Vec<K> {
        self.by_graph
            .lock_ok()
            .remove(graph)
            .map(|set| set.into_iter().collect())
            .unwrap_or_default()
    }

    /// Drops every recorded key. This pairs with the cache's own
    /// poison-recovery clear: an emptied cache must mean an emptied index,
    /// or the index would hold dead keys forever.
    pub fn clear(&self) {
        self.by_graph.lock_ok().clear();
    }

    /// Number of keys recorded under `graph`.
    pub fn count_of(&self, graph: &str) -> usize {
        self.by_graph.lock_ok().get(graph).map_or(0, HashSet::len)
    }

    /// Total number of recorded keys across all graphs.
    pub fn len(&self) -> usize {
        self.by_graph.lock_ok().values().map(HashSet::len).sum()
    }

    /// Whether nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saphyra_graph::fixtures;

    #[test]
    fn insert_get_list() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        assert!(!reg.insert(GraphEntry::build("b", fixtures::grid_graph(3, 3))));
        assert!(!reg.insert(GraphEntry::build("a", fixtures::path_graph(4))));
        assert_eq!(reg.len(), 2);
        let names: Vec<String> = reg.list().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]); // sorted
        assert_eq!(reg.get("a").unwrap().graph.num_nodes(), 4);
        assert!(reg.get("missing").is_none());
        // Replacement reports the overwrite and swaps the entry.
        assert!(reg.insert(GraphEntry::build("a", fixtures::path_graph(9))));
        assert_eq!(reg.get("a").unwrap().graph.num_nodes(), 9);
    }

    #[test]
    fn rebuilt_entries_get_fresh_epochs() {
        let a = GraphEntry::build("g", fixtures::grid_graph(3, 3));
        let b = GraphEntry::build("g", fixtures::grid_graph(3, 3));
        assert_ne!(a.epoch, b.epoch);
    }

    #[test]
    fn restored_entries_get_fresh_epochs_too() {
        // Snapshot restoration goes through from_parts: every restore —
        // even of the same bytes — must mint a new epoch, so cache keys
        // can never alias across a reload or restart.
        let g = fixtures::grid_graph(3, 3);
        let dec = saphyra::bc::BcDecomposition::compute(&g);
        let a = GraphEntry::from_parts("g", g.clone(), dec);
        let dec = saphyra::bc::BcDecomposition::compute(&g);
        let b = GraphEntry::from_parts("g", g, dec);
        assert_ne!(a.epoch, b.epoch);
    }

    #[test]
    fn from_parts_seq_threads_the_delta_sequence() {
        let g = fixtures::path_graph(4);
        let dec = saphyra::bc::BcDecomposition::compute(&g);
        let e = GraphEntry::from_parts_seq("g", g.clone(), dec, 7);
        assert_eq!(e.delta_seq, 7);
        // The plain constructors start at 0 (a fresh upload).
        assert_eq!(GraphEntry::build("g", g).delta_seq, 0);
    }

    #[test]
    fn key_index_insert_remove_take() {
        let idx: KeyIndex<(String, u64)> = KeyIndex::new();
        idx.insert("a", ("a".into(), 1));
        idx.insert("a", ("a".into(), 2));
        idx.insert("b", ("b".into(), 1));
        assert_eq!(idx.count_of("a"), 2);
        assert_eq!(idx.len(), 3);
        idx.remove("a", &("a".into(), 1));
        idx.remove("a", &("a".into(), 99)); // never recorded: no-op
        assert_eq!(idx.count_of("a"), 1);
        let mut taken = idx.take("a");
        taken.sort();
        assert_eq!(taken, vec![("a".into(), 2)]);
        assert_eq!(idx.take("a"), Vec::<(String, u64)>::new());
        assert_eq!(idx.count_of("b"), 1);
    }

    /// The index stays an exact mirror of the cache's key set under
    /// concurrent inserts (with LRU evictions) and explicit removals, as
    /// long as each cache mutation and its index update happen under the
    /// cache lock — the discipline the service follows.
    #[test]
    fn key_index_consistent_under_concurrent_insert_and_evict() {
        use crate::cache::LruCache;
        let cache: Mutex<LruCache<(String, u64), u64>> = Mutex::new(LruCache::new(16));
        let idx: KeyIndex<(String, u64)> = KeyIndex::new();
        std::thread::scope(|scope| {
            for t in 0u64..4 {
                let (cache, idx) = (&cache, &idx);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let graph = if (t + i) % 2 == 0 { "g1" } else { "g2" };
                        let key = (graph.to_string(), (t * 1000 + i) % 37);
                        let mut c = cache.lock_ok();
                        if i % 5 == 4 {
                            if c.remove(&key).is_some() {
                                idx.remove(graph, &key);
                            }
                        } else {
                            let evicted = c.insert(key.clone(), i);
                            idx.insert(graph, key);
                            if let Some(ek) = evicted {
                                idx.remove(&ek.0.clone(), &ek);
                            }
                        }
                    }
                });
            }
        });
        // Quiescent: the index holds exactly the cache's keys.
        let mut c = cache.lock_ok();
        assert_eq!(idx.len(), c.len());
        for graph in ["g1", "g2"] {
            for key in idx.take(graph) {
                assert!(c.get(&key).is_some(), "index holds dead key {key:?}");
            }
        }
    }

    #[test]
    fn key_index_keys_of_is_non_destructive() {
        let idx: KeyIndex<(String, u64)> = KeyIndex::new();
        idx.insert("a", ("a".into(), 1));
        idx.insert("a", ("a".into(), 2));
        let mut keys = idx.keys_of("a");
        keys.sort();
        assert_eq!(keys, vec![("a".into(), 1), ("a".into(), 2)]);
        // Unlike take(), the index still holds the keys afterwards.
        assert_eq!(idx.count_of("a"), 2);
        assert_eq!(idx.keys_of("missing"), Vec::<(String, u64)>::new());
    }

    #[test]
    fn entry_precomputes_decomposition() {
        let e = GraphEntry::build("g", fixtures::lollipop_graph(4, 3));
        assert!(e.dec.gamma > 0.0);
        assert!(e.dec.bic.num_bicomps > 0);
        assert!(!e.dec.vc_precomp.bicomp_diam_upper.is_empty());
    }
}

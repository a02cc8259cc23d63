//! The graph registry: named graphs with their preprocessing built once and
//! shared across worker threads.
//!
//! Each entry pairs the CSR graph with its [`BcDecomposition`] (bicomps,
//! block-cut tree, out-reach/ISP tables, bcₐ, γ and the target-independent
//! VC-bound precomputation). Entries are immutable after construction and
//! handed out as `Arc`s, so concurrent `/rank` requests read the same
//! decomposition with zero contention; per-request sampler scratch lives in
//! the request's own `BcApproxProblem`/`HrSampler`, never in the entry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::sync::RwLockExt;

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
    fn entry_precomputes_decomposition() {
        let e = GraphEntry::build("g", fixtures::lollipop_graph(4, 3));
        assert!(e.dec.gamma > 0.0);
        assert!(e.dec.bic.num_bicomps > 0);
        assert!(!e.dec.vc_precomp.bicomp_diam_upper.is_empty());
    }
}

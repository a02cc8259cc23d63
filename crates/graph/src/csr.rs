//! Compressed-sparse-row storage for undirected, unweighted simple graphs.
//!
//! Node ids are `u32` (the paper's largest network has 10⁸ nodes, well within
//! range) which halves memory traffic relative to `usize` on 64-bit targets.
//! Each undirected edge `{u, v}` occupies two CSR slots, `(u → v)` and
//! `(v → u)`; both slots carry the same *undirected edge id* so that
//! edge-partitioning algorithms (biconnected components, §IV-A) can label
//! edges once and look the label up from either direction in O(1).
//!
//! All three arrays — the `n + 1` `u64` offsets and the two `u32` slot
//! arrays — are plain vectors, filled by the builder (loads and deltas
//! alike) or decoded from a snapshot, so a slot range is two offset reads.
//! [`Graph::assemble`] is the one validator for arrays that did not come
//! from the builder.

/// Node identifier. Always `< Graph::num_nodes()`.
pub type NodeId = u32;

/// An immutable undirected simple graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`] (deduplicates, drops self-loops) or
/// [`crate::io::read_edge_list`]. Adjacency lists are sorted ascending, so
/// [`Graph::has_edge`] is a binary search.
#[derive(Clone, Debug)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors`/`edge_ids` for `v`.
    offsets: Vec<u64>,
    /// Concatenated sorted adjacency lists; length `2m`.
    neighbors: Vec<NodeId>,
    /// Undirected edge id per slot; both directions of an edge share an id.
    edge_ids: Vec<u32>,
    /// Number of undirected edges `m`.
    num_edges: usize,
}

impl Graph {
    /// Builds a graph from already-validated CSR arrays.
    ///
    /// Callers must guarantee CSR well-formedness (monotone offsets, sorted
    /// per-node neighbor slices, twin slots sharing edge ids). The one
    /// caller is the builder's fill, which both graph loads and
    /// [`crate::delta::apply`] go through.
    pub(crate) fn from_parts(
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
        edge_ids: Vec<u32>,
        num_edges: usize,
    ) -> Self {
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert_eq!(neighbors.len(), edge_ids.len());
        debug_assert_eq!(neighbors.len(), 2 * num_edges);
        Graph {
            offsets: offsets.into_iter().map(|o| o as u64).collect(),
            neighbors,
            edge_ids,
            num_edges,
        }
    }

    /// Assembles a graph from untrusted CSR arrays — those decoded from a
    /// snapshot — re-validating every invariant the builder
    /// guarantees and the engine relies on: `n + 1` monotone offsets from 0
    /// to `2m`, node ids within `u32`, strictly sorted in-range adjacency
    /// without self-loops, edge ids `< m`, and exactly two twin slots per
    /// edge id agreeing on their endpoints. [`Graph::edge_id`] binary-searches
    /// adjacency and samplers unwrap its result, so an unsorted or one-sided
    /// list must be rejected here, not discovered by a worker.
    pub fn assemble(
        offsets: Vec<u64>,
        neighbors: Vec<NodeId>,
        edge_ids: Vec<u32>,
        num_edges: usize,
    ) -> Result<Graph, String> {
        let (off, nbrs, ids) = (&offsets, &neighbors, &edge_ids);
        let Some(n) = off.len().checked_sub(1) else {
            return Err("csr: offsets must hold at least one value".to_string());
        };
        if n > u32::MAX as usize {
            return Err(format!("csr: node count {n} exceeds the u32 id space"));
        }
        let m = num_edges;
        let slots = m
            .checked_mul(2)
            .ok_or_else(|| format!("csr: edge count {m} overflows"))?;
        if nbrs.len() != slots || ids.len() != slots {
            return Err(format!(
                "csr: slot arrays hold {}/{} entries, expected 2m = {slots}",
                nbrs.len(),
                ids.len()
            ));
        }
        if off[0] != 0 || off[n] != slots as u64 {
            return Err("csr: offsets do not span the slot arrays".to_string());
        }
        if off.windows(2).any(|w| w[0] > w[1]) {
            return Err("csr: offsets are not monotone".to_string());
        }
        // Per edge id: UNSEEN, then the `(min, max)` endpoint key of its
        // first slot, then PAIRED once the twin slot agrees. Both markers
        // have a high half of `u32::MAX`, which no node id (`< n`) reaches,
        // so no key collides with them.
        const UNSEEN: u64 = u64::MAX;
        const PAIRED: u64 = u64::MAX - 1;
        let mut twins = vec![UNSEEN; m];
        for v in 0..n {
            // Monotone offsets ending at `slots` keep both within usize.
            let range = off[v] as usize..off[v + 1] as usize;
            let mut prev = None;
            for (&u, &id) in nbrs[range.clone()].iter().zip(&ids[range]) {
                if prev >= Some(u) {
                    return Err(format!("csr: adjacency of node {v} is not strictly sorted"));
                }
                prev = Some(u);
                if u as usize >= n {
                    return Err(format!("csr: neighbor {u} of node {v} out of range"));
                }
                if u as usize == v {
                    return Err(format!("csr: self-loop at node {v}"));
                }
                let id = id as usize;
                if id >= m {
                    return Err(format!("csr: edge id {id} out of range for m = {m}"));
                }
                let (lo, hi) = ((v as u32).min(u), (v as u32).max(u));
                let key = (u64::from(lo) << 32) | u64::from(hi);
                twins[id] = match twins[id] {
                    UNSEEN => key,
                    first if first == key => PAIRED,
                    _ => return Err(format!("csr: edge id {id} labels inconsistent slots")),
                };
            }
        }
        if twins.iter().any(|&t| t != PAIRED) {
            return Err("csr: an edge id does not label exactly two twin slots".to_string());
        }
        Ok(Graph {
            offsets,
            neighbors,
            edge_ids,
            num_edges,
        })
    }

    /// The raw CSR arrays `(offsets, neighbors, edge_ids)`: for serializers,
    /// and for hot loops that fetch the slices once instead of on every
    /// access.
    pub fn csr_arrays(&self) -> (&[u64], &[NodeId], &[u32]) {
        (&self.offsets, &self.neighbors, &self.edge_ids)
    }

    /// Bytes of the three CSR arrays.
    pub fn csr_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..])
            + std::mem::size_of_val(&self.neighbors[..])
            + std::mem::size_of_val(&self.edge_ids[..])
    }

    /// `(offsets[v], offsets[v + 1])`: the slot range of `v`.
    #[inline]
    fn pair(&self, v: NodeId) -> (usize, usize) {
        let off = &self.offsets;
        (off[v as usize] as usize, off[v as usize + 1] as usize)
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let (a, b) = self.pair(v);
        b - a
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (a, b) = self.pair(v);
        &self.neighbors[a..b]
    }

    /// The CSR slot range of `v`; slot `i` pairs `self.neighbor_at(i)` with
    /// `self.edge_id_at(i)`.
    #[inline]
    pub fn slot_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let (a, b) = self.pair(v);
        a..b
    }

    /// Neighbor stored in CSR slot `slot`.
    #[inline]
    pub fn neighbor_at(&self, slot: usize) -> NodeId {
        self.neighbors[slot]
    }

    /// Undirected edge id stored in CSR slot `slot`.
    #[inline]
    pub fn edge_id_at(&self, slot: usize) -> u32 {
        self.edge_ids[slot]
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The undirected edge id of `{u, v}`, if the edge exists.
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<u32> {
        let (base, end) = self.pair(u);
        self.neighbors[base..end]
            .binary_search(&v)
            .ok()
            .map(|i| self.edge_ids[base + i])
    }

    /// Iterates all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterates every undirected edge exactly once as `(u, v, edge_id)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        self.nodes().flat_map(move |u| {
            self.slot_range(u).filter_map(move |s| {
                let v = self.neighbor_at(s);
                (u < v).then(|| (u, v, self.edge_id_at(s)))
            })
        })
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Sum of `deg(v)²` over `v ∈ nodes`, the `K` of Lemma 18 driving the
    /// `Exact_bc` complexity.
    pub fn sum_degree_squared<I: IntoIterator<Item = NodeId>>(&self, nodes: I) -> u64 {
        nodes
            .into_iter()
            .map(|v| (self.degree(v) as u64).pow(2))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn basic_accessors() {
        // Triangle plus a pendant: 0-1, 1-2, 2-0, 2-3.
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn edge_ids_shared_between_twin_slots() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build()
            .unwrap();
        for (u, v, id) in g.edges() {
            assert_eq!(g.edge_id(u, v), Some(id));
            assert_eq!(g.edge_id(v, u), Some(id));
        }
        assert_eq!(g.edge_id(0, 3), None);
        // Ids form 0..m.
        let mut ids: Vec<u32> = g.edges().map(|(_, _, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = GraphBuilder::new(5)
            .edges([(0, 1), (3, 4), (1, 2), (0, 2)])
            .build()
            .unwrap();
        let es: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2), (3, 4)]);
    }

    #[test]
    fn sum_degree_squared_matches_manual() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build()
            .unwrap();
        // degrees: 2, 2, 3, 1
        assert_eq!(g.sum_degree_squared(g.nodes()), 4 + 4 + 9 + 1);
        assert_eq!(g.sum_degree_squared([2u32]), 9);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = GraphBuilder::new(3).build().unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn footprint_reports_the_tier() {
        let g = GraphBuilder::new(100)
            .edges((0u32..99).map(|i| (i, i + 1)))
            .build()
            .unwrap();
        // 101 u64 offsets plus two u32 slot arrays of 2m = 198 entries.
        assert_eq!(g.csr_bytes(), 101 * 8 + 2 * 99 * 2 * 4);
        let (offsets, neighbors, edge_ids) = g.csr_arrays();
        assert_eq!(offsets.len(), 101);
        assert_eq!((neighbors.len(), edge_ids.len()), (198, 198));
    }

    /// Re-validates `g`'s arrays after `mutate` edits owned copies of them.
    fn reassemble(
        g: &Graph,
        mutate: impl FnOnce(&mut Vec<u64>, &mut Vec<u32>, &mut Vec<u32>),
    ) -> Result<Graph, String> {
        let (o, nb, ids) = g.csr_arrays();
        let (mut o, mut nb, mut ids) = (o.to_vec(), nb.to_vec(), ids.to_vec());
        mutate(&mut o, &mut nb, &mut ids);
        Graph::assemble(o, nb, ids, g.num_edges())
    }

    #[test]
    fn assemble_validates_structure() {
        // Path 0-1-2: edge {0,1} has id 0, edge {1,2} id 1.
        let check = |o: &[u64], nb: &[u32], ids: &[u32]| {
            Graph::assemble(o.to_vec(), nb.to_vec(), ids.to_vec(), 2)
        };
        let g = check(&[0, 1, 3, 4], &[1, 0, 2, 1], &[0, 0, 1, 1]).unwrap();
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.edge_id(2, 1), Some(1));
        // Final offset disagrees with slot count.
        assert!(check(&[0, 1, 3, 3], &[1, 0, 2, 1], &[0, 0, 1, 1]).is_err());
        // Non-monotone offsets.
        assert!(check(&[0, 3, 1, 4], &[1, 0, 2, 1], &[0, 0, 1, 1]).is_err());
        // Neighbor id out of range.
        assert!(check(&[0, 1, 3, 4], &[1, 0, 9, 1], &[0, 0, 1, 1]).is_err());
        // Edge id out of range.
        assert!(check(&[0, 1, 3, 4], &[1, 0, 2, 1], &[0, 0, 7, 1]).is_err());
        // No offsets at all.
        assert!(check(&[], &[], &[]).is_err());
    }

    #[test]
    fn corrupt_graph_bytes_are_rejected() {
        let g = crate::fixtures::paper_fig2();
        assert!(reassemble(&g, |_, _, _| {}).is_ok());
        // A truncated slot array fails cleanly.
        assert!(reassemble(&g, |_, nb, _| {
            nb.pop();
        })
        .is_err());
        // Any single mangled value is an error or (rarely) another valid
        // graph — never a panic.
        let (o, nb, ids) = g.csr_arrays();
        for mask in [1u32, 0x80, 0xFFFF_FFFF] {
            for i in 0..o.len() {
                let _ = reassemble(&g, |o, _, _| o[i] ^= u64::from(mask));
            }
            for i in 0..nb.len() {
                let _ = reassemble(&g, |_, nb, _| nb[i] ^= mask);
            }
            for i in 0..ids.len() {
                let _ = reassemble(&g, |_, _, ids| ids[i] ^= mask);
            }
        }
        // Swapping two neighbors (with their edge ids) breaks sortedness.
        let err = reassemble(&g, |o, nb, ids| {
            let s = o[0] as usize;
            nb.swap(s, s + 1);
            ids.swap(s, s + 1);
        })
        .unwrap_err();
        assert!(err.contains("not strictly sorted"), "{err}");
        // Swapping only the edge ids leaves each twin pair one-sided.
        let err = reassemble(&g, |o, _, ids| {
            let s = o[0] as usize;
            ids.swap(s, s + 1);
        })
        .unwrap_err();
        assert!(err.contains("inconsistent slots"), "{err}");
        // A slot pointing back at its own node is a self-loop.
        let err = reassemble(&g, |o, nb, _| {
            let s = o[1] as usize;
            nb[s] = 1;
        })
        .unwrap_err();
        assert!(err.contains("self-loop"), "{err}");
    }
}

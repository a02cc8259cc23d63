//! Biconnected components, cutpoints and per-edge and per-slot component
//! labels (iterative Hopcroft–Tarjan).
//!
//! SaPHyRa_bc's ISP sample space (§IV-A) is built on the observation that
//! every shortest path between two nodes of the same bi-component stays
//! inside that component (a path that left through a cutpoint would have to
//! re-enter through it, revisiting a node). Biconnected components partition
//! *edges*, so we label every undirected edge with its component id.
//!
//! The samplers, `Exact_bc` and the VC-bound BFSes test "is this CSR slot
//! inside component `b`?" on every edge they visit, so [`Bicomps`] also
//! keeps the label of each CSR slot (`slot_bicomp`) and answers the test
//! with one load. It costs 4 bytes per slot (8 per undirected edge), is
//! gathered from the edge labels whenever a decomposition is assembled or
//! decoded, and is never serialized.

use crate::csr::{Graph, NodeId};

pub(crate) const UNSET: u32 = u32::MAX;

/// Result of the biconnected-component decomposition.
///
/// Components are edge sets; a node belongs to every component one of its
/// edges belongs to. Nodes in more than one component are exactly the
/// cutpoints (articulation points). Isolated nodes belong to none.
///
/// Besides the per-edge labels it keeps a per-CSR-slot copy
/// (`slot_bicomp`, 4 bytes per slot), so an intra-component test is one
/// load. That copy is derived from `edge_bicomp` and the graph by
/// [`Bicomps::compute`], the delta path and the snapshot decoder alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bicomps {
    /// Number of biconnected components `ℓ`.
    pub num_bicomps: usize,
    /// Component id per undirected edge id.
    pub edge_bicomp: Vec<u32>,
    /// Component id per CSR slot: `edge_bicomp` gathered through the
    /// graph's slot → edge-id map (derived, never serialized).
    pub slot_bicomp: Vec<u32>,
    /// Whether each node is a cutpoint.
    pub is_cutpoint: Vec<bool>,
    /// CSR over components: `bicomp_nodes[bicomp_node_offsets[b]..
    /// bicomp_node_offsets[b+1]]` lists the (sorted) nodes of component `b`.
    pub bicomp_node_offsets: Vec<usize>,
    /// Concatenated per-component node lists.
    pub bicomp_nodes: Vec<NodeId>,
    /// CSR over nodes: the (sorted) component ids each node belongs to.
    pub membership_offsets: Vec<usize>,
    /// Concatenated per-node component-id lists.
    pub membership_bicomps: Vec<u32>,
}

impl Bicomps {
    /// Decomposes `g` with an iterative DFS (explicit stack — the paper's
    /// networks have path-like regions deep enough to overflow the call
    /// stack).
    pub fn compute(g: &Graph) -> Self {
        let n = g.num_nodes();
        let m = g.num_edges();
        let mut dfs = BicompDfs::new(n, m);
        for root in g.nodes() {
            dfs.run_root(g, root);
        }
        debug_assert!(dfs.edge_bicomp.iter().all(|&b| b != UNSET || m == 0));
        let BicompDfs {
            num_bicomps,
            edge_bicomp,
            ..
        } = dfs;
        Self::assemble(g, num_bicomps, edge_bicomp)
    }

    /// Builds the node lists and memberships from the per-edge labels.
    pub(crate) fn assemble(g: &Graph, num_bicomps: usize, edge_bicomp: Vec<u32>) -> Self {
        let n = g.num_nodes();
        // Unique (bicomp, node) incidence pairs.
        let mut pairs: Vec<(u32, NodeId)> = Vec::with_capacity(2 * g.num_edges());
        for (u, v, eid) in g.edges() {
            let b = edge_bicomp[eid as usize];
            pairs.push((b, u));
            pairs.push((b, v));
        }
        pairs.sort_unstable();
        pairs.dedup();

        let mut bicomp_node_offsets = vec![0usize; num_bicomps + 1];
        for &(b, _) in &pairs {
            bicomp_node_offsets[b as usize + 1] += 1;
        }
        for i in 0..num_bicomps {
            bicomp_node_offsets[i + 1] += bicomp_node_offsets[i];
        }
        let bicomp_nodes: Vec<NodeId> = pairs.iter().map(|&(_, v)| v).collect();

        // Invert to per-node membership lists.
        let mut membership_offsets = vec![0usize; n + 1];
        for &(_, v) in &pairs {
            membership_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            membership_offsets[i + 1] += membership_offsets[i];
        }
        let mut membership_bicomps = vec![0u32; pairs.len()];
        let mut cursor = membership_offsets.clone();
        // `pairs` is sorted by (b, v), so per-node lists come out sorted by b.
        for &(b, v) in &pairs {
            membership_bicomps[cursor[v as usize]] = b;
            cursor[v as usize] += 1;
        }

        let is_cutpoint: Vec<bool> = (0..n)
            .map(|v| membership_offsets[v + 1] - membership_offsets[v] > 1)
            .collect();

        Bicomps {
            num_bicomps,
            slot_bicomp: slot_labels(g, &edge_bicomp),
            edge_bicomp,
            is_cutpoint,
            bicomp_node_offsets,
            bicomp_nodes,
            membership_offsets,
            membership_bicomps,
        }
    }

    /// Nodes of component `b`, sorted ascending.
    #[inline]
    pub fn nodes_of(&self, b: u32) -> &[NodeId] {
        &self.bicomp_nodes
            [self.bicomp_node_offsets[b as usize]..self.bicomp_node_offsets[b as usize + 1]]
    }

    /// Component ids `v` belongs to (empty for isolated nodes), sorted.
    #[inline]
    pub fn bicomps_of(&self, v: NodeId) -> &[u32] {
        &self.membership_bicomps
            [self.membership_offsets[v as usize]..self.membership_offsets[v as usize + 1]]
    }

    /// Component id of an undirected edge.
    #[inline]
    pub fn bicomp_of_edge(&self, edge_id: u32) -> u32 {
        self.edge_bicomp[edge_id as usize]
    }

    /// Component id of the CSR slot's edge (one load: the intra-component
    /// test of every filtered BFS).
    #[inline]
    pub fn bicomp_of_slot(&self, slot: usize) -> u32 {
        self.slot_bicomp[slot]
    }

    /// Cutpoint node ids, ascending.
    pub fn cutpoints(&self) -> Vec<NodeId> {
        (0..self.is_cutpoint.len() as NodeId)
            .filter(|&v| self.is_cutpoint[v as usize])
            .collect()
    }

    /// Number of nodes in component `b`.
    #[inline]
    pub fn size_of(&self, b: u32) -> usize {
        self.bicomp_node_offsets[b as usize + 1] - self.bicomp_node_offsets[b as usize]
    }

    /// Whether `u` and `v` share a biconnected component (both lists are
    /// sorted: linear merge over the usually tiny membership lists).
    pub fn share_bicomp(&self, u: NodeId, v: NodeId) -> Option<u32> {
        let (a, b) = (self.bicomps_of(u), self.bicomps_of(v));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Some(a[i]),
            }
        }
        None
    }
}

/// The component of every CSR slot of `g`, gathered from the per-edge
/// labels (edge ids are `< m` in every assembled graph).
pub(crate) fn slot_labels(g: &Graph, edge_bicomp: &[u32]) -> Vec<u32> {
    let (_, _, edge_ids) = g.csr_arrays();
    edge_ids.iter().map(|&e| edge_bicomp[e as usize]).collect()
}

/// Reusable state of the iterative Hopcroft–Tarjan DFS, exposed per root so
/// the incremental path ([`crate::delta`]) can relabel *only* the connected
/// components a delta touched while reproducing [`Bicomps::compute`]'s exact
/// label assignment (components are numbered in pop order, roots in
/// ascending node order).
pub(crate) struct BicompDfs {
    pub(crate) disc: Vec<u32>,
    low: Vec<u32>,
    /// Per-edge component labels being filled in ([`UNSET`] = unlabeled).
    pub(crate) edge_bicomp: Vec<u32>,
    edge_stack: Vec<u32>,
    stack: Vec<Frame>,
    /// Labels assigned so far; the next component gets this id.
    pub(crate) num_bicomps: usize,
    timer: u32,
}

/// DFS frame: node, its CSR cursor, and the edge id to its parent.
struct Frame {
    v: NodeId,
    cursor: usize,
    parent_edge: u32,
}

impl BicompDfs {
    pub(crate) fn new(n: usize, m: usize) -> Self {
        BicompDfs {
            disc: vec![UNSET; n],
            low: vec![0u32; n],
            edge_bicomp: vec![UNSET; m],
            edge_stack: Vec::new(),
            stack: Vec::new(),
            num_bicomps: 0,
            timer: 0,
        }
    }

    /// Explores the connected component of `root` (no-op when `root` was
    /// already discovered or is isolated), labeling its edges with fresh
    /// consecutive component ids. Iterative DFS — the paper's networks have
    /// path-like regions deep enough to overflow the call stack.
    pub(crate) fn run_root(&mut self, g: &Graph, root: NodeId) {
        if self.disc[root as usize] != UNSET || g.degree(root) == 0 {
            return;
        }
        self.disc[root as usize] = self.timer;
        self.low[root as usize] = self.timer;
        self.timer += 1;
        self.stack.push(Frame {
            v: root,
            cursor: g.slot_range(root).start,
            parent_edge: UNSET,
        });

        while let Some(top) = self.stack.last_mut() {
            let v = top.v;
            if top.cursor < g.slot_range(v).end {
                let slot = top.cursor;
                top.cursor += 1;
                let eid = g.edge_id_at(slot);
                if eid == top.parent_edge {
                    continue;
                }
                let w = g.neighbor_at(slot);
                let dw = self.disc[w as usize];
                if dw == UNSET {
                    // Tree edge: descend.
                    self.edge_stack.push(eid);
                    self.disc[w as usize] = self.timer;
                    self.low[w as usize] = self.timer;
                    self.timer += 1;
                    self.stack.push(Frame {
                        v: w,
                        cursor: g.slot_range(w).start,
                        parent_edge: eid,
                    });
                } else if dw < self.disc[v as usize] {
                    // Back edge (the twin direction has disc[w] > disc[v]
                    // and is skipped there).
                    self.edge_stack.push(eid);
                    self.low[v as usize] = self.low[v as usize].min(dw);
                }
            } else {
                // Retreat from v.
                let finished = self.stack.pop().expect("frame present");
                if let Some(parent) = self.stack.last() {
                    let u = parent.v;
                    self.low[u as usize] = self.low[u as usize].min(self.low[finished.v as usize]);
                    if self.low[finished.v as usize] >= self.disc[u as usize] {
                        // u separates the subtree of v: everything pushed
                        // since (u, v) forms one biconnected component.
                        let id = self.num_bicomps as u32;
                        self.num_bicomps += 1;
                        while let Some(e) = self.edge_stack.pop() {
                            self.edge_bicomp[e as usize] = id;
                            if e == finished.parent_edge {
                                break;
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(self.edge_stack.is_empty(), "leftover edges after root");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, fig2::*};

    #[test]
    fn fig2_decomposition_matches_paper() {
        let g = fixtures::paper_fig2();
        let bic = Bicomps::compute(&g);
        assert_eq!(bic.num_bicomps, 5);
        // Cutpoints are exactly c, d, i.
        assert_eq!(bic.cutpoints(), vec![C, D, I]);
        // Node sets of the five components (order of ids is DFS-dependent).
        let mut comps: Vec<Vec<u32>> = (0..5).map(|b| bic.nodes_of(b).to_vec()).collect();
        comps.sort();
        let mut expected = vec![
            vec![A, B, C, D, E],
            vec![C, G, H],
            vec![D, F],
            vec![D, I],
            vec![I, J, K],
        ];
        expected.sort();
        assert_eq!(comps, expected);
    }

    #[test]
    fn edges_partitioned_and_consistent_with_node_sets() {
        let g = fixtures::paper_fig2();
        let bic = Bicomps::compute(&g);
        for (u, v, eid) in g.edges() {
            let b = bic.bicomp_of_edge(eid);
            assert!(bic.nodes_of(b).contains(&u));
            assert!(bic.nodes_of(b).contains(&v));
        }
        // Both slots of an edge carry the edge's label.
        for slot in 0..2 * g.num_edges() {
            assert_eq!(
                bic.bicomp_of_slot(slot),
                bic.bicomp_of_edge(g.edge_id_at(slot))
            );
        }
        // Every component has at least one edge.
        let mut count = vec![0usize; bic.num_bicomps];
        for (_, _, eid) in g.edges() {
            count[bic.bicomp_of_edge(eid) as usize] += 1;
        }
        assert!(count.iter().all(|&c| c > 0));
    }

    #[test]
    fn biconnected_graph_is_single_component() {
        for g in [
            fixtures::cycle_graph(6),
            fixtures::complete_graph(5),
            fixtures::grid_graph(4, 4),
        ] {
            let bic = Bicomps::compute(&g);
            assert_eq!(bic.num_bicomps, 1, "{} nodes", g.num_nodes());
            assert!(bic.cutpoints().is_empty());
            assert_eq!(bic.nodes_of(0).len(), g.num_nodes());
        }
    }

    #[test]
    fn path_graph_every_edge_is_a_block() {
        let g = fixtures::path_graph(6);
        let bic = Bicomps::compute(&g);
        assert_eq!(bic.num_bicomps, 5);
        // Interior nodes are cutpoints.
        assert_eq!(bic.cutpoints(), vec![1, 2, 3, 4]);
        for b in 0..5u32 {
            assert_eq!(bic.size_of(b), 2);
        }
    }

    #[test]
    fn lollipop_blocks() {
        let g = fixtures::lollipop_graph(4, 3);
        let bic = Bicomps::compute(&g);
        // K4 plus three path edges = 4 components.
        assert_eq!(bic.num_bicomps, 4);
        assert_eq!(bic.cutpoints(), vec![3, 4, 5]);
    }

    #[test]
    fn disconnected_graph_handled() {
        let g = fixtures::disconnected_mix();
        let bic = Bicomps::compute(&g);
        assert_eq!(bic.num_bicomps, 2); // triangle + edge
        assert!(bic.bicomps_of(5).is_empty()); // isolated node
        assert!(!bic.is_cutpoint.iter().any(|&c| c));
    }

    #[test]
    fn share_bicomp_queries() {
        let g = fixtures::paper_fig2();
        let bic = Bicomps::compute(&g);
        assert!(bic.share_bicomp(A, E).is_some()); // both in C1
        assert!(bic.share_bicomp(G, H).is_some());
        assert!(bic.share_bicomp(A, G).is_none()); // across cutpoint c
        assert!(bic.share_bicomp(F, I).is_none()); // across cutpoint d
                                                   // A cutpoint shares with members of all its components.
        assert!(bic.share_bicomp(D, F).is_some());
        assert!(bic.share_bicomp(D, I).is_some());
        assert!(bic.share_bicomp(D, A).is_some());
    }

    #[test]
    fn two_triangles_bridge_blocks() {
        let g = fixtures::two_triangles_bridge();
        let bic = Bicomps::compute(&g);
        assert_eq!(bic.num_bicomps, 3);
        assert_eq!(bic.cutpoints(), vec![2, 3]);
        // Bridge {2,3} is its own block.
        let b = bic.share_bicomp(2, 3).unwrap();
        assert_eq!(bic.nodes_of(b), &[2, 3]);
    }
}

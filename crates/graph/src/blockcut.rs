//! Block-cut trees and branch weights (paper §IV-A, Fig. 2c).
//!
//! The block-cut tree has a vertex for every biconnected component and every
//! cutpoint, and an edge for each (component, cutpoint ∈ component) pair.
//! SaPHyRa_bc needs, for every such pair `(Cᵢ, v)`, the branch weight
//! `|Tᵢ(v)|`: the number of graph nodes (excluding `v`) reached from `v`
//! through `Cᵢ`. Out-reach sets follow as `rᵢ(v) = n_comp − |Tᵢ(v)|`, and
//! the cutpoint correction `bcₐ(v)` (Eq. 21) is a sum over the same branch
//! weights. One iterative post-order pass computes everything.

use crate::bicomp::Bicomps;
use crate::csr::NodeId;

const NONE: u32 = u32::MAX;

/// Block-cut tree with precomputed branch weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCutTree {
    /// Cutpoint node ids, ascending; `cut_index` inverts this list.
    pub cutpoints: Vec<NodeId>,
    /// Per graph node: its index in `cutpoints`, or `u32::MAX`.
    pub cut_index: Vec<u32>,
    /// CSR over cutpoints: incident biconnected components.
    pub cut_bicomp_offsets: Vec<usize>,
    pub cut_bicomps: Vec<u32>,
    /// Branch weight `|T_b(c)|` aligned with `cut_bicomps`: the number of
    /// nodes (≠ c) reached from cutpoint `c` through component `b`.
    pub cut_branch: Vec<u32>,
    /// Per biconnected component: the number of graph nodes in the connected
    /// component containing it — the `n_c` that replaces `n` in the pair
    /// counts of γ and bcₐ, so that pairs split across components (which
    /// have no shortest path) are never counted.
    pub comp_total_of_bicomp: Vec<u32>,
}

impl BlockCutTree {
    /// Builds the tree and branch weights from a decomposition.
    pub fn compute(bic: &Bicomps) -> Self {
        let n = bic.is_cutpoint.len();
        let nb = bic.num_bicomps;

        let cutpoints: Vec<NodeId> = bic.cutpoints();
        let nc = cutpoints.len();
        let mut cut_index = vec![NONE; n];
        for (i, &c) in cutpoints.iter().enumerate() {
            cut_index[c as usize] = i as u32;
        }

        // Cutpoint -> incident components, straight from the memberships.
        let mut cut_bicomp_offsets = vec![0usize; nc + 1];
        for (i, &c) in cutpoints.iter().enumerate() {
            cut_bicomp_offsets[i + 1] = cut_bicomp_offsets[i] + bic.bicomps_of(c).len();
        }
        let mut cut_bicomps = Vec::with_capacity(cut_bicomp_offsets[nc]);
        for &c in &cutpoints {
            cut_bicomps.extend_from_slice(bic.bicomps_of(c));
        }

        // Component -> its cutpoints (indices), for tree traversal.
        let mut bicomp_cut_offsets = vec![0usize; nb + 1];
        for b in 0..nb as u32 {
            let cuts = bic
                .nodes_of(b)
                .iter()
                .filter(|&&v| bic.is_cutpoint[v as usize])
                .count();
            bicomp_cut_offsets[b as usize + 1] = bicomp_cut_offsets[b as usize] + cuts;
        }
        let mut bicomp_cuts = vec![0u32; bicomp_cut_offsets[nb]];
        {
            let mut cursor = bicomp_cut_offsets.clone();
            for b in 0..nb as u32 {
                for &v in bic.nodes_of(b) {
                    if bic.is_cutpoint[v as usize] {
                        bicomp_cuts[cursor[b as usize]] = cut_index[v as usize];
                        cursor[b as usize] += 1;
                    }
                }
            }
        }

        // Vertex weights: a component carries its non-cutpoint node count, a
        // cutpoint carries 1; per tree component these sum to the number of
        // graph nodes in the corresponding connected component.
        let weight_of_bicomp = |b: u32| -> u64 {
            let total = bic.size_of(b);
            let cuts = bicomp_cut_offsets[b as usize + 1] - bicomp_cut_offsets[b as usize];
            (total - cuts) as u64
        };

        // Iterative rooted DFS over the bipartite tree. Tree vertices are
        // encoded as: component b -> b; cutpoint i -> nb + i.
        let encode_cut = |i: u32| nb as u32 + i;
        let total_vertices = nb + nc;
        let mut parent = vec![NONE; total_vertices];
        let mut visited = vec![false; total_vertices];
        let mut subtree = vec![0u64; total_vertices];
        let mut order: Vec<u32> = Vec::with_capacity(total_vertices);
        let mut tree_comp = vec![NONE; total_vertices];
        let mut comp_totals: Vec<u64> = Vec::new();

        for root in 0..nb as u32 {
            if visited[root as usize] {
                continue;
            }
            let comp_id = comp_totals.len() as u32;
            // BFS from the root component to set parents and visit order
            // (a tree: BFS order reversed is a valid post-order base).
            let comp_start = order.len();
            visited[root as usize] = true;
            tree_comp[root as usize] = comp_id;
            order.push(root);
            let mut head = comp_start;
            while head < order.len() {
                let x = order[head];
                head += 1;
                if (x as usize) < nb {
                    let b = x;
                    let cr = bicomp_cut_offsets[b as usize]..bicomp_cut_offsets[b as usize + 1];
                    for &ci in &bicomp_cuts[cr] {
                        let enc = encode_cut(ci);
                        if !visited[enc as usize] {
                            visited[enc as usize] = true;
                            parent[enc as usize] = b;
                            tree_comp[enc as usize] = comp_id;
                            order.push(enc);
                        }
                    }
                } else {
                    let ci = x - nb as u32;
                    let br = cut_bicomp_offsets[ci as usize]..cut_bicomp_offsets[ci as usize + 1];
                    for &b in &cut_bicomps[br] {
                        if !visited[b as usize] {
                            visited[b as usize] = true;
                            parent[b as usize] = x;
                            tree_comp[b as usize] = comp_id;
                            order.push(b);
                        }
                    }
                }
            }
            // Accumulate subtree weights bottom-up over the reversed order.
            for idx in (comp_start..order.len()).rev() {
                let x = order[idx];
                let own = if (x as usize) < nb {
                    weight_of_bicomp(x)
                } else {
                    1
                };
                subtree[x as usize] += own;
                let p = parent[x as usize];
                if p != NONE {
                    subtree[p as usize] += subtree[x as usize];
                }
            }
            comp_totals.push(subtree[root as usize]);
        }

        // Branch weights |T_b(c)| for every (cutpoint, incident component).
        let mut cut_branch = vec![0u32; cut_bicomps.len()];
        for (i, _) in cutpoints.iter().enumerate() {
            let enc = encode_cut(i as u32) as usize;
            let total = comp_totals[tree_comp[enc] as usize];
            for k in cut_bicomp_offsets[i]..cut_bicomp_offsets[i + 1] {
                let b = cut_bicomps[k];
                let w = if parent[b as usize] == enc as u32 {
                    // b hangs below c.
                    subtree[b as usize]
                } else {
                    // b is c's parent: everything not under c.
                    total - subtree[enc]
                };
                cut_branch[k] = u32::try_from(w).expect("branch weight fits u32");
            }
        }

        let comp_total_of_bicomp: Vec<u32> = (0..nb)
            .map(|b| comp_totals[tree_comp[b] as usize] as u32)
            .collect();

        BlockCutTree {
            cutpoints,
            cut_index,
            cut_bicomp_offsets,
            cut_bicomps,
            cut_branch,
            comp_total_of_bicomp,
        }
    }

    /// Incident components of the `i`-th cutpoint with their branch weights.
    pub fn branches(&self, cut: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let r = self.cut_bicomp_offsets[cut as usize]..self.cut_bicomp_offsets[cut as usize + 1];
        r.map(move |k| (self.cut_bicomps[k], self.cut_branch[k]))
    }

    /// Branch weight `|T_b(v)|` for cutpoint node `v` and component `b`;
    /// `None` if `v` is not a cutpoint or not in `b`. O(log) — the
    /// per-cutpoint component lists are sorted (they come from the sorted
    /// memberships).
    pub fn branch_weight(&self, v: NodeId, b: u32) -> Option<u32> {
        let ci = self.cut_index[v as usize];
        if ci == NONE {
            return None;
        }
        let range = self.cut_bicomp_offsets[ci as usize]..self.cut_bicomp_offsets[ci as usize + 1];
        let slice = &self.cut_bicomps[range.clone()];
        slice
            .binary_search(&b)
            .ok()
            .map(|pos| self.cut_branch[range.start + pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, fig2::*};

    fn fig2_tree() -> (crate::Graph, Bicomps, BlockCutTree) {
        let g = fixtures::paper_fig2();
        let bic = Bicomps::compute(&g);
        let t = BlockCutTree::compute(&bic);
        (g, bic, t)
    }

    #[test]
    fn fig2_cutpoints_and_branches() {
        let (_, bic, t) = fig2_tree();
        assert_eq!(t.cutpoints, vec![C, D, I]);
        // Branch weights around d: through C1 {a,b,c,e} -> 4 + triangle cgh
        // minus... through C1 side also reaches c's triangle {g,h}: 6 nodes
        // (a,b,c,e,g,h). Through C3: {f} -> 1. Through C5: {i,j,k} -> 3.
        let c1 = bic.share_bicomp(A, B).unwrap();
        let c3 = bic.share_bicomp(D, F).unwrap();
        let c5 = bic.share_bicomp(D, I).unwrap();
        assert_eq!(t.branch_weight(D, c1), Some(6));
        assert_eq!(t.branch_weight(D, c3), Some(1));
        assert_eq!(t.branch_weight(D, c5), Some(3));
        // Branches of a cutpoint partition the other n-1 nodes.
        let di = t.cut_index[D as usize];
        let total: u32 = t.branches(di).map(|(_, w)| w).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn fig2_branches_of_c_and_i() {
        let (_, bic, t) = fig2_tree();
        let c1 = bic.share_bicomp(A, B).unwrap();
        let c2 = bic.share_bicomp(G, H).unwrap();
        // c: through triangle cgh -> {g,h} = 2; through C1 -> everything else = 8.
        assert_eq!(t.branch_weight(C, c2), Some(2));
        assert_eq!(t.branch_weight(C, c1), Some(8));
        let c4 = bic.share_bicomp(J, K).unwrap();
        let c5 = bic.share_bicomp(D, I).unwrap();
        // i: through ijk -> {j,k} = 2; through C5 -> 8.
        assert_eq!(t.branch_weight(I, c4), Some(2));
        assert_eq!(t.branch_weight(I, c5), Some(8));
        // Non-cutpoints have no branches.
        assert_eq!(t.branch_weight(A, c1), None);
    }

    #[test]
    fn path_graph_branch_weights() {
        let g = fixtures::path_graph(5);
        let bic = Bicomps::compute(&g);
        let t = BlockCutTree::compute(&bic);
        // Node 2 (middle): two blocks {1,2} and {2,3}; branches 2 and 2.
        let b_left = bic.share_bicomp(1, 2).unwrap();
        let b_right = bic.share_bicomp(2, 3).unwrap();
        assert_eq!(t.branch_weight(2, b_left), Some(2));
        assert_eq!(t.branch_weight(2, b_right), Some(2));
        // Node 1: branches 1 (toward 0) and 3 (toward 2,3,4).
        let b0 = bic.share_bicomp(0, 1).unwrap();
        assert_eq!(t.branch_weight(1, b0), Some(1));
        assert_eq!(t.branch_weight(1, b_left), Some(3));
    }

    #[test]
    fn comp_totals_respect_disconnection() {
        let g = fixtures::disconnected_mix();
        let bic = Bicomps::compute(&g);
        let t = BlockCutTree::compute(&bic);
        // Two bicomps in different connected components of sizes 3 and 2.
        let mut totals: Vec<u32> = t.comp_total_of_bicomp.clone();
        totals.sort_unstable();
        assert_eq!(totals, vec![2, 3]);
        assert!(t.cutpoints.is_empty());
    }

    #[test]
    fn star_graph_center_branches() {
        let g = fixtures::star_graph(6);
        let bic = Bicomps::compute(&g);
        let t = BlockCutTree::compute(&bic);
        assert_eq!(t.cutpoints, vec![0]);
        let ci = t.cut_index[0];
        let ws: Vec<u32> = t.branches(ci).map(|(_, w)| w).collect();
        assert_eq!(ws, vec![1; 5]);
    }
}

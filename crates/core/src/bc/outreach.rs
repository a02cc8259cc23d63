//! Out-reach sets, pair weights, γ and the cutpoint correction bcₐ
//! (paper §IV-A).
//!
//! For a node `v` in bicomponent `Cᵢ`, the out-reach `rᵢ(v)` counts the
//! nodes reachable from `v` without entering `Cᵢ` (including `v`). Out-reach
//! drives everything in the ISP space:
//!
//! * an intra-component pair `(s, t)` in `Cᵢ` carries sampling weight
//!   `q_st = rᵢ(s)·rᵢ(t) / (n(n−1))` — the number of original node pairs
//!   whose shortest paths break into an `s → t` piece (Lemmas 11-12);
//! * the ISP normalizer is `γ = Σᵢ Σ_{s∈Cᵢ} rᵢ(s)(n_c − rᵢ(s)) / (n(n−1))`
//!   (Eq. 19, with the component size `n_c` replacing `n` to stay sound on
//!   disconnected inputs: a pair split across components has no shortest
//!   path, so it must carry no weight);
//! * a cutpoint `v` is a *break point* of the pairs routed across it:
//!   `bcₐ(v) = Σ_{i: v∈Cᵢ} |Tᵢ(v)|·(n−1_c−|Tᵢ(v)|) / (n(n−1))` (Eq. 21).
//!   The sum runs over *every* component incident to `v`: the branches of
//!   `v` partition the other `n_c − 1` nodes of its connected component,
//!   and every ordered pair with endpoints in two different branches routes
//!   all its shortest paths through `v`, so each branch contributes its
//!   own term.

use saphyra_graph::{Bicomps, BlockCutTree, Graph, NodeId};

/// Out-reach values and per-component pair weights.
#[derive(Debug, Clone)]
pub struct Outreach {
    /// `rᵢ(v)` aligned with `Bicomps::bicomp_nodes`.
    pub r: Vec<u32>,
    /// `W_b = Σ_{s∈C_b} r_b(s)·(n_c − r_b(s))` per component (unnormalized;
    /// `γ = Σ_b W_b / (n(n−1))`).
    pub pair_weight: Vec<f64>,
    /// `Σ_b W_b`.
    pub total_weight: f64,
}

impl Outreach {
    /// Computes out-reach for every (component, member) incidence.
    pub fn compute(bic: &Bicomps, tree: &BlockCutTree) -> Self {
        let nb = bic.num_bicomps;
        let mut r = vec![0u32; bic.bicomp_nodes.len()];
        let mut pair_weight = vec![0.0f64; nb];
        let mut total_weight = 0.0f64;
        for b in 0..nb as u32 {
            let n_c = tree.comp_total_of_bicomp[b as usize] as f64;
            let range =
                bic.bicomp_node_offsets[b as usize]..bic.bicomp_node_offsets[b as usize + 1];
            let mut w = 0.0f64;
            for idx in range {
                let v = bic.bicomp_nodes[idx];
                let rv = if bic.is_cutpoint[v as usize] {
                    let t = tree
                        .branch_weight(v, b)
                        .expect("cutpoint has a branch in its own component");
                    tree.comp_total_of_bicomp[b as usize] - t
                } else {
                    1
                };
                r[idx] = rv;
                w += rv as f64 * (n_c - rv as f64);
            }
            pair_weight[b as usize] = w;
            total_weight += w;
        }
        Outreach {
            r,
            pair_weight,
            total_weight,
        }
    }

    /// `r_b(v)`; O(log |C_b|) via binary search in the sorted member list.
    /// Panics if `v ∉ C_b`.
    pub fn r_of(&self, bic: &Bicomps, b: u32, v: NodeId) -> u32 {
        let start = bic.bicomp_node_offsets[b as usize];
        let pos = bic
            .nodes_of(b)
            .binary_search(&v)
            .expect("node must belong to the component");
        self.r[start + pos]
    }

    /// The r values of component `b`, aligned with `bic.nodes_of(b)`.
    pub fn r_slice(&self, bic: &Bicomps, b: u32) -> &[u32] {
        &self.r[bic.bicomp_node_offsets[b as usize]..bic.bicomp_node_offsets[b as usize + 1]]
    }
}

/// The break-point probability `bcₐ(v)` for every node (Eq. 21, full sum;
/// zero for non-cutpoints).
pub fn bca_values(g: &Graph, _bic: &Bicomps, tree: &BlockCutTree) -> Vec<f64> {
    let n = g.num_nodes();
    let mut bca = vec![0.0f64; n];
    if n < 2 {
        return bca;
    }
    let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
    for (ci, &v) in tree.cutpoints.iter().enumerate() {
        // Branches of v partition the other n_c − 1 nodes of its component;
        // v breaks the ordered pairs (s, t) with s, t in different branches.
        let n_c = tree
            .branches(ci as u32)
            .next()
            .map(|(b, _)| tree.comp_total_of_bicomp[b as usize])
            .expect("cutpoint has at least two branches") as f64;
        let mut acc = 0.0f64;
        for (_, t) in tree.branches(ci as u32) {
            let t = t as f64;
            acc += t * (n_c - 1.0 - t);
        }
        bca[v as usize] = acc * norm;
    }
    bca
}

/// `γ` (Eq. 19): the probability mass of the ISP space relative to the SP
/// space.
pub fn gamma(g: &Graph, outreach: &Outreach) -> f64 {
    let n = g.num_nodes();
    if n < 2 {
        return 0.0;
    }
    outreach.total_weight / (n as f64 * (n as f64 - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use saphyra_graph::fixtures::{self, fig2::*};

    fn setup(g: &Graph) -> (Bicomps, BlockCutTree, Outreach) {
        let bic = Bicomps::compute(g);
        let tree = BlockCutTree::compute(&bic);
        let or = Outreach::compute(&bic, &tree);
        (bic, tree, or)
    }

    #[test]
    fn fig2_out_reach_values() {
        let g = fixtures::paper_fig2();
        let (bic, _, or) = setup(&g);
        let c1 = bic.share_bicomp(A, B).unwrap();
        // Non-cutpoints reach only themselves.
        assert_eq!(or.r_of(&bic, c1, A), 1);
        assert_eq!(or.r_of(&bic, c1, B), 1);
        // c reaches {c, g, h} outside C1; d reaches {d, f, i, j, k}.
        assert_eq!(or.r_of(&bic, c1, C), 3);
        assert_eq!(or.r_of(&bic, c1, D), 5);
        let c5 = bic.share_bicomp(D, I).unwrap();
        // In the bridge {d, i}: d reaches everything except {i, j, k}.
        assert_eq!(or.r_of(&bic, c5, D), 8);
        assert_eq!(or.r_of(&bic, c5, I), 3);
    }

    #[test]
    fn out_reach_sums_to_component_size() {
        // Eq. 18: Σ_{v∈Cᵢ} rᵢ(v) = n_c for every component.
        for g in [
            fixtures::paper_fig2(),
            fixtures::path_graph(8),
            fixtures::lollipop_graph(5, 4),
            fixtures::two_triangles_bridge(),
            fixtures::disconnected_mix(),
            fixtures::star_graph(7),
        ] {
            let (bic, tree, or) = setup(&g);
            for b in 0..bic.num_bicomps as u32 {
                let total: u64 = or.r_slice(&bic, b).iter().map(|&x| x as u64).sum();
                assert_eq!(
                    total, tree.comp_total_of_bicomp[b as usize] as u64,
                    "component {b}"
                );
            }
        }
    }

    #[test]
    fn gamma_on_path_graph() {
        // Path 0-1-2-3: blocks {01},{12},{23}; per DESIGN example γ = 5/3.
        let g = fixtures::path_graph(4);
        let (_, _, or) = setup(&g);
        let gm = gamma(&g, &or);
        assert!((gm - 5.0 / 3.0).abs() < 1e-12, "gamma={gm}");
    }

    #[test]
    fn gamma_is_one_on_biconnected_graphs() {
        // Single bicomponent: every r = 1, W = n(n−1), γ = 1.
        for g in [fixtures::cycle_graph(6), fixtures::complete_graph(5)] {
            let (_, _, or) = setup(&g);
            assert!((gamma(&g, &or) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bca_matches_brandes_on_trees() {
        // In a tree every inner node is a cutpoint and ALL betweenness comes
        // from break points: bc(v) = bcₐ(v) exactly.
        for g in [
            fixtures::path_graph(6),
            fixtures::star_graph(7),
            fixtures::binary_tree(3),
        ] {
            let (bic, tree, _) = setup(&g);
            let bca = bca_values(&g, &bic, &tree);
            let bc = saphyra_graph::brandes::betweenness_exact(&g);
            for v in g.nodes() {
                assert!(
                    (bca[v as usize] - bc[v as usize]).abs() < 1e-12,
                    "node {v}: bca={} bc={}",
                    bca[v as usize],
                    bc[v as usize]
                );
            }
        }
    }

    #[test]
    fn bca_full_sum_on_multiway_cutpoint() {
        // Star center belongs to n−1 blocks — the case where the paper's
        // single-term formula (Eq. 21) underestimates and the full sum is
        // required.
        let g = fixtures::star_graph(5);
        let (bic, tree, _) = setup(&g);
        let bca = bca_values(&g, &bic, &tree);
        // Center (n=5): four branches of weight 1, Σ 1·(5−1−1) = 12, so
        // bcₐ = 12/20 = 0.6 = exact betweenness (12 leaf pairs of 20).
        let bc = saphyra_graph::brandes::betweenness_exact(&g);
        assert!((bca[0] - bc[0]).abs() < 1e-12);
        assert!(bca[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn bca_zero_on_biconnected_graph() {
        let g = fixtures::cycle_graph(8);
        let (bic, tree, _) = setup(&g);
        assert!(bca_values(&g, &bic, &tree).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn disconnected_weights_stay_within_components() {
        let g = fixtures::disconnected_mix();
        let (bic, tree, or) = setup(&g);
        // Triangle component: all r = 1, n_c = 3, W = 3·1·2 = 6.
        // Edge component: r = 1 each, n_c = 2, W = 2·1·1 = 2.
        let mut ws: Vec<f64> = (0..bic.num_bicomps).map(|b| or.pair_weight[b]).collect();
        ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(ws, vec![2.0, 6.0]);
        let _ = tree;
    }
}

//! Personalized VC-dimension bounds (paper Lemma 5, Corollary 22, Lemma 23,
//! Table I).
//!
//! The hypothesis class `H_A = {h_v}` over shortest-path samples shatters at
//! most `⌊log₂ π_max⌋ + 1` points, where `π_max` is the largest number of
//! targets interior to one sample (Lemma 5). For the PISP space this is
//! bounded by `BS(A)`, which is in turn bounded per component by
//! `min(VD(Cᵢ) − 1, VD(A ∩ Cᵢ) + 1, |A ∩ Cᵢ|)` (Eq. 34). Diameters are
//! replaced by their `2·ecc` upper bounds (§IV-C), so every reported VC
//! bound is sound.

use saphyra_graph::bfs::BfsWorkspace;
use saphyra_graph::{Bicomps, Graph, NodeId};

/// The three bounds of Table I, all computed from one decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcBoundReport {
    /// Upper bound on the graph diameter `VD(V)` (max over components of
    /// `2·ecc`).
    pub vd_upper: u32,
    /// Upper bound on the maximum bicomponent diameter `BD(V)`.
    pub bd_upper: u32,
    /// Upper bound on `BS(A)` (Eq. 34).
    pub bs_upper: u32,
    /// Riondato–Kornaropoulos: `⌊log₂(VD(V) − 1)⌋ + 1`.
    pub vc_riondato: usize,
    /// SaPHyRa on the full network: `⌊log₂(BD(V) − 1)⌋ + 1`.
    pub vc_full: usize,
    /// SaPHyRa on the subset: `⌊log₂ BS(A)⌋ + 1` (Corollary 22).
    pub vc_subset: usize,
}

/// `⌊log₂ x⌋ + 1`, clamped to ≥ 1 (x = 0 or 1 gives 1).
pub fn log2_floor_plus1(x: u32) -> usize {
    if x <= 1 {
        1
    } else {
        (31 - x.leading_zeros()) as usize + 1
    }
}

/// The ℓ-hop-neighborhood bound of Table I: targets within `l` hops of one
/// node give `VC ≤ ⌊log₂(2l + 1)⌋ + 1`.
pub fn vc_lhop(l: u32) -> usize {
    log2_floor_plus1(2 * l + 1)
}

/// Target-independent precomputation behind [`vc_bounds`]: the `VD(V)`
/// upper bound and the per-bicomponent diameter upper bounds. Building it
/// costs one BFS per connected component plus one filtered BFS per
/// bicomponent; ranking services build it once per graph version (a load
/// or a PATCH) and reuse it for every request (only the target-dependent
/// `BS(A)` part remains per-call).
#[derive(Debug, Clone)]
pub struct VcPrecomp {
    /// Upper bound on the graph diameter `VD(V)`.
    pub vd_upper: u32,
    /// Upper bound on the maximum bicomponent diameter `BD(V)`.
    pub bd_upper: u32,
    /// Per-bicomponent diameter upper bounds (`2·ecc`, 1 for 2-node
    /// blocks), indexed by bicomp id.
    pub bicomp_diam_upper: Vec<u32>,
}

impl VcPrecomp {
    /// Computes the target-independent bounds for one graph.
    pub fn compute(g: &Graph, bic: &Bicomps) -> Self {
        let n = g.num_nodes();
        let mut ws = BfsWorkspace::new(n);

        // VD(V) upper bound: 2·ecc from one seed per connected component.
        let mut seen = vec![false; n];
        let mut vd_upper = 0u32;
        for v in g.nodes() {
            if seen[v as usize] || g.degree(v) == 0 {
                continue;
            }
            ws.run(g, v);
            for &u in &ws.order {
                seen[u as usize] = true;
            }
            vd_upper = vd_upper.max(2 * ws.eccentricity());
        }

        // Per-component diameter upper bounds; trivially 1 for 2-node
        // blocks.
        let mut bicomp_diam_upper = Vec::with_capacity(bic.num_bicomps);
        let mut bd_upper = 0u32;
        for b in 0..bic.num_bicomps as u32 {
            let nodes = bic.nodes_of(b);
            let d = if nodes.len() == 2 {
                1
            } else {
                ws.run_counting(g, nodes[0], None, |slot| bic.bicomp_of_slot(slot) == b);
                2 * ws.eccentricity()
            };
            bicomp_diam_upper.push(d);
            bd_upper = bd_upper.max(d);
        }

        VcPrecomp {
            vd_upper,
            bd_upper,
            bicomp_diam_upper,
        }
    }
}

/// Computes all Table I bounds for target set `targets`.
pub fn vc_bounds(g: &Graph, bic: &Bicomps, targets: &[NodeId]) -> VcBoundReport {
    vc_bounds_from(&VcPrecomp::compute(g, bic), g, bic, targets)
}

/// Computes the Table I bounds for `targets` reusing a precomputed
/// [`VcPrecomp`] — only the target-dependent Eq. 34 part is evaluated.
pub fn vc_bounds_from(
    pre: &VcPrecomp,
    g: &Graph,
    bic: &Bicomps,
    targets: &[NodeId],
) -> VcBoundReport {
    let n = g.num_nodes();
    let mut ws = BfsWorkspace::new(n);
    let vd_upper = pre.vd_upper;
    let bd_upper = pre.bd_upper;

    // BS(A) via Eq. 34, per component of I(A).
    // Group targets by component membership.
    let mut pairs: Vec<(u32, NodeId)> = Vec::new();
    for &v in targets {
        for &b in bic.bicomps_of(v) {
            pairs.push((b, v));
        }
    }
    pairs.sort_unstable();
    let mut bs_upper = 0u32;
    let mut i = 0usize;
    while i < pairs.len() {
        let b = pairs[i].0;
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == b {
            j += 1;
        }
        let members = &pairs[i..j];
        let count = members.len() as u32;
        // Subset diameter upper bound within the component: one filtered
        // BFS from the first member (intra-component distances are global
        // distances for co-component nodes).
        let seed = members[0].1;
        ws.run_counting(g, seed, None, |slot| bic.bicomp_of_slot(slot) == b);
        let sd = members
            .iter()
            .map(|&(_, v)| ws.dist(v))
            .filter(|&d| d != saphyra_graph::bfs::INFINITY)
            .max()
            .unwrap_or(0);
        let vd_ci = pre.bicomp_diam_upper[b as usize];
        let bound = (vd_ci.saturating_sub(1)).min(2 * sd + 1).min(count);
        bs_upper = bs_upper.max(bound);
        i = j;
    }

    VcBoundReport {
        vd_upper,
        bd_upper,
        bs_upper,
        vc_riondato: log2_floor_plus1(vd_upper.saturating_sub(1)),
        vc_full: log2_floor_plus1(bd_upper.saturating_sub(1)),
        vc_subset: log2_floor_plus1(bs_upper),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saphyra_graph::fixtures;

    fn bounds(g: &Graph, targets: &[NodeId]) -> VcBoundReport {
        let bic = Bicomps::compute(g);
        vc_bounds(g, &bic, targets)
    }

    #[test]
    fn log_helper() {
        assert_eq!(log2_floor_plus1(0), 1);
        assert_eq!(log2_floor_plus1(1), 1);
        assert_eq!(log2_floor_plus1(2), 2);
        assert_eq!(log2_floor_plus1(3), 2);
        assert_eq!(log2_floor_plus1(4), 3);
        assert_eq!(log2_floor_plus1(255), 8);
        assert_eq!(log2_floor_plus1(256), 9);
    }

    #[test]
    fn lhop_bound() {
        assert_eq!(vc_lhop(0), 1);
        assert_eq!(vc_lhop(1), 2); // 2l+1 = 3
        assert_eq!(vc_lhop(2), 3); // 5
        assert_eq!(vc_lhop(7), 4); // 15
    }

    #[test]
    fn path_graph_bicomponents_kill_the_diameter_term() {
        // Path of 32: VD = 31 but every block is an edge (BD = 1).
        let g = fixtures::path_graph(32);
        let all: Vec<u32> = g.nodes().collect();
        let r = bounds(&g, &all);
        assert!(r.vd_upper >= 31);
        assert_eq!(r.bd_upper, 1);
        assert!(r.vc_riondato >= 5);
        assert_eq!(r.vc_full, 1);
        assert_eq!(r.vc_subset, 1);
    }

    #[test]
    fn subset_bound_tightens_with_small_subsets() {
        let g = fixtures::grid_graph(10, 10);
        let all: Vec<u32> = g.nodes().collect();
        let full = bounds(&g, &all);
        let single = bounds(&g, &[55]);
        assert!(single.vc_subset <= full.vc_subset);
        assert_eq!(single.bs_upper, 1); // |A ∩ C| = 1
        assert_eq!(single.vc_subset, 1);
    }

    #[test]
    fn bounds_are_sound_upper_bounds() {
        // bs bound is at least 1 whenever a target has an edge, and the
        // chain vc_subset ≤ vc_full holds when BS ≤ BD − 1.
        for g in [
            fixtures::grid_graph(6, 6),
            fixtures::lollipop_graph(5, 5),
            fixtures::paper_fig2(),
        ] {
            let all: Vec<u32> = g.nodes().collect();
            let r = bounds(&g, &all);
            assert!(r.bs_upper <= r.bd_upper.max(1));
            assert!(r.vc_subset <= r.vc_full.max(r.vc_subset));
            assert!(r.bd_upper <= r.vd_upper.max(1));
        }
    }

    #[test]
    fn empty_targets() {
        let g = fixtures::grid_graph(4, 4);
        let r = bounds(&g, &[]);
        assert_eq!(r.bs_upper, 0);
        assert_eq!(r.vc_subset, 1);
    }

    #[test]
    fn star_graph_everything_is_trivial() {
        let g = fixtures::star_graph(9);
        let all: Vec<u32> = g.nodes().collect();
        let r = bounds(&g, &all);
        assert_eq!(r.bd_upper, 1);
        assert_eq!(r.vc_full, 1);
        // VD(star) = 2 -> riondato log2(1)+1 = 1.
        assert!(r.vc_riondato >= 1);
    }
}

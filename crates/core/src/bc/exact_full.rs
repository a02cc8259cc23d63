//! Bicomponent-accelerated *exact* betweenness ("shattering", Sariyüce et
//! al. \[22\] — the inspiration the paper credits for its bi-component
//! sampling).
//!
//! The ISP identity (Lemma 13) is not just a sampling device: summing the
//! weighted pair dependencies exactly gives exact betweenness,
//!
//! `bc(v) = bcₐ(v) + 1/(n(n−1)) Σ_b Σ_{s≠t∈C_b} r_b(s)·r_b(t)·σ_st(v)/σ_st`,
//!
//! where each inner sum runs entirely inside one biconnected component. A
//! weighted Brandes pass per component — source weight `r(s)`, target
//! weights `r(t)`, accumulation
//! `δ(v) = Σ_{w ∈ succ(v)} σ(v)/σ(w) · (r(w) + δ(w))` — computes it in
//! `O(Σ_b |C_b| · m_b)`, which collapses to near-linear on graphs that
//! shatter into small components (trees, road networks with spurs), versus
//! Brandes' `O(n·m)`.
//!
//! Besides being a faster oracle, this module is the strongest whole-
//! pipeline validator in the repository: it reuses the decomposition,
//! out-reach and bcₐ machinery and must agree with textbook Brandes to
//! floating-point accuracy on every graph.

use saphyra_graph::bfs::BfsWorkspace;
use saphyra_graph::Graph;

use super::ranker::BcDecomposition;

impl BcDecomposition {
    /// Exact betweenness for **all** nodes of `g` — the graph this
    /// decomposition was computed from — via per-bicomponent weighted
    /// Brandes (serial). Agrees with
    /// [`saphyra_graph::brandes::betweenness_exact`].
    pub fn exact_betweenness_shattered(&self, g: &Graph) -> Vec<f64> {
        let n = g.num_nodes();
        let mut bc = self.bca.clone();
        if n < 2 {
            return bc;
        }
        let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
        let mut ws = BfsWorkspace::new(n);
        let mut delta = vec![0.0f64; n];
        let mut weight = vec![0.0f64; n];

        for b in 0..self.bic.num_bicomps as u32 {
            let nodes = self.bic.nodes_of(b);
            let rs = self.outreach.r_slice(&self.bic, b);
            // Stage r(t) weights for the component's nodes.
            for (&v, &r) in nodes.iter().zip(rs) {
                weight[v as usize] = r as f64;
            }
            for (&s, &r_s) in nodes.iter().zip(rs) {
                accumulate_weighted_source(
                    g, s, r_s as f64, &self.bic, b, &mut ws, &mut delta, &weight, &mut bc, norm,
                );
            }
            for &v in nodes {
                weight[v as usize] = 0.0;
            }
        }
        bc
    }
}

/// One weighted single-source accumulation restricted to component `b`:
/// adds `norm · r(s) · Σ_t r(t)·σ_st(v)/σ_st` to `bc[v]` for every interior
/// `v`.
#[allow(clippy::too_many_arguments)]
fn accumulate_weighted_source(
    g: &Graph,
    s: u32,
    r_s: f64,
    bic: &saphyra_graph::Bicomps,
    b: u32,
    ws: &mut BfsWorkspace,
    delta: &mut [f64],
    weight: &[f64],
    bc: &mut [f64],
    norm: f64,
) {
    ws.run_counting(g, s, None, |slot| bic.bicomp_of_slot(slot) == b);
    for i in (0..ws.order.len()).rev() {
        let v = ws.order[i];
        let dv = ws.dist(v);
        if dv == 0 {
            break; // the source is first in visit order
        }
        // (r(v) + δ(v)) flows to predecessors proportionally to σ.
        let coeff = (weight[v as usize] + delta[v as usize]) / ws.sigma(v);
        for slot in g.slot_range(v) {
            if bic.bicomp_of_slot(slot) != b {
                continue;
            }
            let w = g.neighbor_at(slot);
            if ws.visited(w) && ws.dist(w) + 1 == dv {
                delta[w as usize] += ws.sigma(w) * coeff;
            }
        }
        bc[v as usize] += r_s * delta[v as usize] * norm;
    }
    for &v in &ws.order {
        delta[v as usize] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use saphyra_graph::brandes::betweenness_exact;
    use saphyra_graph::{fixtures, GraphBuilder};

    fn check(g: &Graph) {
        let fast = BcDecomposition::compute(g).exact_betweenness_shattered(g);
        let slow = betweenness_exact(g);
        for v in g.nodes() {
            assert!(
                (fast[v as usize] - slow[v as usize]).abs() < 1e-10,
                "node {v}: shattered {} vs brandes {}",
                fast[v as usize],
                slow[v as usize]
            );
        }
    }

    #[test]
    fn matches_brandes_on_fixtures() {
        for g in [
            fixtures::paper_fig2(),
            fixtures::path_graph(9),
            fixtures::cycle_graph(8),
            fixtures::grid_graph(5, 4),
            fixtures::lollipop_graph(5, 5),
            fixtures::star_graph(9),
            fixtures::binary_tree(4),
            fixtures::two_triangles_bridge(),
            fixtures::disconnected_mix(),
            fixtures::complete_graph(6),
        ] {
            check(&g);
        }
    }

    #[test]
    fn matches_brandes_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..10 {
            let n = 15 + round;
            let mut b = GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen::<f64>() < 0.12 {
                        b.push(u, v);
                    }
                }
            }
            check(&b.build().unwrap());
        }
    }

    #[test]
    fn matches_brandes_on_generated_networks() {
        use saphyra_gen::datasets::{SimNetwork, SizeClass};
        for net in [SimNetwork::Flickr, SimNetwork::UsaRoad] {
            let g = net.build(SizeClass::Tiny, 9);
            check(&g);
        }
    }

    #[test]
    fn shattering_wins_on_trees() {
        // On a tree the shattered pass does O(n) work per block of size 2;
        // just verify exactness (the perf claim is bench territory).
        let g = fixtures::binary_tree(7);
        check(&g);
    }
}

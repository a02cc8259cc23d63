//! Cross-crate validation of the paper's central identities, by exact
//! enumeration (no sampling noise):
//!
//! * Lemma 13/15: `bc(v) = bcₐ(v) + γ·E_{p∼Dc}[g(v, p)]` — connects the
//!   biconnected decomposition, out-reach weights, break-point correction
//!   and the ISP distribution to ground-truth Brandes betweenness.
//! * Eq. 18: out-reach sums.
//! * Eq. 19/23: γ/η consistency.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saphyra::bc::{bca_values, gamma, Outreach};
use saphyra_graph::bfs::BfsWorkspace;
use saphyra_graph::brandes::betweenness_exact;
use saphyra_graph::{fixtures, Bicomps, BlockCutTree, Graph, GraphBuilder};

/// Exact `γ·E_{p∼Dc}[g(v, p)]` for all nodes, by enumerating every ordered
/// intra-component pair and accumulating pair dependencies within the
/// component (O(Σ|C|² · m); tiny graphs only).
fn exact_isp_mass(g: &Graph, bic: &Bicomps, outreach: &Outreach) -> Vec<f64> {
    let n = g.num_nodes();
    let mut acc = vec![0.0f64; n];
    if n < 2 {
        return acc;
    }
    let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
    let mut fwd = BfsWorkspace::new(n);
    let mut bwd = BfsWorkspace::new(n);
    for b in 0..bic.num_bicomps as u32 {
        let nodes = bic.nodes_of(b).to_vec();
        let rs = outreach.r_slice(bic, b).to_vec();
        for (i, &s) in nodes.iter().enumerate() {
            fwd.run_counting(g, s, None, |slot| bic.bicomp_of_slot(slot) == b);
            for (j, &t) in nodes.iter().enumerate() {
                if i == j {
                    continue;
                }
                bwd.run_counting(g, t, None, |slot| bic.bicomp_of_slot(slot) == b);
                let d = fwd.dist(t);
                assert_ne!(
                    d,
                    saphyra_graph::bfs::INFINITY,
                    "co-component pair connected"
                );
                let q = rs[i] as f64 * rs[j] as f64 * norm;
                let sigma_st = fwd.sigma(t);
                for &v in &nodes {
                    if v != s && v != t && fwd.dist(v) + bwd.dist(v) == d {
                        acc[v as usize] += q * fwd.sigma(v) * bwd.sigma(v) / sigma_st;
                    }
                }
            }
        }
    }
    acc
}

fn check_lemma13(g: &Graph) {
    let bic = Bicomps::compute(g);
    let tree = BlockCutTree::compute(&bic);
    let outreach = Outreach::compute(&bic, &tree);
    let bca = bca_values(g, &bic, &tree);
    let isp = exact_isp_mass(g, &bic, &outreach);
    let bc = betweenness_exact(g);
    for v in g.nodes() {
        let reconstructed = bca[v as usize] + isp[v as usize];
        assert!(
            (reconstructed - bc[v as usize]).abs() < 1e-10,
            "node {v}: bca {} + isp {} = {} but bc = {}",
            bca[v as usize],
            isp[v as usize],
            reconstructed,
            bc[v as usize]
        );
    }
    // Eq. 19 sanity: γ equals the total enumerated ISP pair mass.
    let n = g.num_nodes() as f64;
    let gm = gamma(g, &outreach);
    let mut mass = 0.0;
    for b in 0..bic.num_bicomps as u32 {
        let rs = outreach.r_slice(&bic, b);
        let total: f64 = rs.iter().map(|&x| x as f64).sum();
        for &r in rs {
            mass += r as f64 * (total - r as f64);
        }
    }
    assert!((gm - mass / (n * (n - 1.0))).abs() < 1e-12);
}

#[test]
fn lemma13_on_fixtures() {
    for g in [
        fixtures::paper_fig2(),
        fixtures::path_graph(7),
        fixtures::cycle_graph(8),
        fixtures::grid_graph(4, 4),
        fixtures::lollipop_graph(5, 4),
        fixtures::two_triangles_bridge(),
        fixtures::star_graph(8),
        fixtures::binary_tree(3),
        fixtures::disconnected_mix(),
        fixtures::complete_graph(6),
    ] {
        check_lemma13(&g);
    }
}

#[test]
fn lemma13_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..12 {
        let n = 10 + (round % 4) * 5;
        let p = 0.08 + 0.04 * (round % 3) as f64;
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen::<f64>() < p {
                    b.push(u, v);
                }
            }
        }
        check_lemma13(&b.build().unwrap());
    }
}

#[test]
fn eta_equals_one_for_full_targets() {
    for g in [fixtures::paper_fig2(), fixtures::grid_graph(4, 4)] {
        let bic = Bicomps::compute(&g);
        let tree = BlockCutTree::compute(&bic);
        let outreach = Outreach::compute(&bic, &tree);
        let all: Vec<u32> = g.nodes().collect();
        let pisp = saphyra::bc::Pisp::new(&bic, &outreach, &all);
        assert!((pisp.eta - 1.0).abs() < 1e-12);
    }
}

//! Property-based invariants of the SaPHyRa_bc machinery on random graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{
    bca_values, build_a_index, exact2hop::exact_bc_bruteforce, exact_bc, gamma, BcDecomposition,
    Outreach, Pisp, SaphyraBcConfig,
};
use saphyra_graph::{Bicomps, BlockCutTree, EdgeDelta, Graph, GraphBuilder};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..=14).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..=max_edges)
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build().unwrap())
    })
}

fn decompose(g: &Graph) -> (Bicomps, BlockCutTree, Outreach) {
    let bic = Bicomps::compute(g);
    let tree = BlockCutTree::compute(&bic);
    let or = Outreach::compute(&bic, &tree);
    (bic, tree, or)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn outreach_sums_to_component_size(g in arb_graph()) {
        // Eq. 18: Σ_{v∈Cᵢ} rᵢ(v) = n_c.
        let (bic, tree, or) = decompose(&g);
        for b in 0..bic.num_bicomps as u32 {
            let total: u64 = or.r_slice(&bic, b).iter().map(|&x| x as u64).sum();
            prop_assert_eq!(total, tree.comp_total_of_bicomp[b as usize] as u64);
        }
    }

    #[test]
    fn gamma_at_least_pair_mass(g in arb_graph()) {
        // γ ≥ fraction of connected ordered pairs... specifically each
        // connected pair contributes at least one ISP piece, so
        // γ·n(n−1) ≥ #connected pairs.
        let (bic, _, or) = decompose(&g);
        let n = g.num_nodes();
        let comps = saphyra_graph::connectivity::Components::compute(&g);
        let mut connected_pairs = 0u64;
        for c in 0..comps.count() {
            let s = comps.sizes[c] as u64;
            connected_pairs += s * (s - 1);
        }
        let gm = gamma(&g, &or);
        prop_assert!(gm * (n as f64) * (n as f64 - 1.0) + 1e-6 >= connected_pairs as f64,
            "gamma {gm} pairs {connected_pairs}");
        let _ = bic;
    }

    #[test]
    fn bca_nonzero_exactly_for_cutpoints(g in arb_graph()) {
        let (bic, tree, _) = decompose(&g);
        let bca = bca_values(&g, &bic, &tree);
        for v in g.nodes() {
            if bic.is_cutpoint[v as usize] {
                prop_assert!(bca[v as usize] > 0.0, "cutpoint {v} has zero bca");
            } else {
                prop_assert_eq!(bca[v as usize], 0.0);
            }
        }
    }

    #[test]
    fn bca_bounded_by_betweenness(g in arb_graph()) {
        // Break-point mass is part of bc, never more than it.
        let (bic, tree, _) = decompose(&g);
        let bca = bca_values(&g, &bic, &tree);
        let bc = saphyra_graph::brandes::betweenness_exact(&g);
        for v in g.nodes() {
            prop_assert!(bca[v as usize] <= bc[v as usize] + 1e-12,
                "node {v}: bca {} > bc {}", bca[v as usize], bc[v as usize]);
        }
    }

    #[test]
    fn exact2hop_matches_bruteforce(g in arb_graph(), mask in proptest::collection::vec(any::<bool>(), 14)) {
        let (bic, _, or) = decompose(&g);
        let targets: Vec<u32> = g.nodes().filter(|&v| mask[v as usize % mask.len()]).collect();
        prop_assume!(!targets.is_empty());
        let a_index = build_a_index(g.num_nodes(), &targets);
        let fast = exact_bc(&g, &bic, &or, &targets, &a_index);
        let slow = exact_bc_bruteforce(&g, &bic, &or, &targets, &a_index);
        prop_assert!((fast.lambda_raw - slow.lambda_raw).abs() < 1e-9);
        for (a, b) in fast.exact_raw.iter().zip(&slow.exact_raw) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn pisp_pair_probabilities_normalize(g in arb_graph(), pick in 0usize..14) {
        let (bic, _, or) = decompose(&g);
        let target = (pick % g.num_nodes()) as u32;
        let pisp = Pisp::new(&bic, &or, &[target]);
        prop_assume!(!pisp.is_empty());
        let probs = saphyra::bc::isp::enumerate_pair_probs(&g, &bic, &or, &pisp);
        let total: f64 = probs.iter().map(|&(_, _, _, q)| q).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        prop_assert!((0.0..=1.0 + 1e-12).contains(&pisp.eta));
    }

    #[test]
    fn lambda_hat_is_a_probability(g in arb_graph()) {
        // The exact-subspace mass normalized by γη must be in [0, 1].
        let (bic, _, or) = decompose(&g);
        let targets: Vec<u32> = g.nodes().collect();
        let a_index = build_a_index(g.num_nodes(), &targets);
        let pisp = Pisp::new(&bic, &or, &targets);
        prop_assume!(!pisp.is_empty());
        let n = g.num_nodes() as f64;
        let gamma_eta = pisp.total_weight() / (n * (n - 1.0));
        let out = exact_bc(&g, &bic, &or, &targets, &a_index);
        let lambda_hat = out.lambda_raw / gamma_eta;
        prop_assert!((0.0..=1.0 + 1e-9).contains(&lambda_hat), "λ̂ = {lambda_hat}");
    }
}

/// Canonicalizes raw proptest edge lists into a valid delta against `g`:
/// drops self-loops, orients `u < v`, dedups, and resolves insert/delete
/// conflicts in favor of the insert (mirroring nothing — conflicts are a
/// 400 at the API edge, so test inputs must simply avoid them).
fn clean_delta(g: &Graph, insert: Vec<(u32, u32)>, delete: Vec<(u32, u32)>) -> EdgeDelta {
    let n = g.num_nodes() as u32;
    let canon = |list: Vec<(u32, u32)>| -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = list
            .into_iter()
            .filter(|&(u, v)| u != v && u < n && v < n)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    let insert = canon(insert);
    let mut delete = canon(delete);
    delete.retain(|e| !insert.contains(e));
    EdgeDelta { insert, delete }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn untouched_component_rankings_survive_patch(
        a in 3usize..=7,
        b in 3usize..=7,
        edges_a in proptest::collection::vec((0u32..7, 0u32..7), 1..12),
        edges_b in proptest::collection::vec((0u32..7, 0u32..7), 1..12),
        raw_ins in proptest::collection::vec((0u32..7, 0u32..7), 0..4),
        raw_del in proptest::collection::vec((0u32..7, 0u32..7), 0..4),
    ) {
        // Two node blocks with no edges between them: A = [0, a), B = [a, a+b).
        // The delta is confined to A, so every B target must rank
        // bit-identically before and after the patch (the service relies on
        // this to keep clean cache entries alive across PATCH).
        let n = a + b;
        let mut edges: Vec<(u32, u32)> = edges_a
            .into_iter()
            .map(|(u, v)| (u % a as u32, v % a as u32))
            .collect();
        edges.extend(
            edges_b
                .into_iter()
                .map(|(u, v)| (a as u32 + u % b as u32, a as u32 + v % b as u32)),
        );
        let g = GraphBuilder::new(n).edges(edges).build().unwrap();
        let mut delta = clean_delta(
            &g,
            raw_ins.into_iter().map(|(u, v)| (u % a as u32, v % a as u32)).collect(),
            raw_del.into_iter().map(|(u, v)| (u % a as u32, v % a as u32)).collect(),
        );
        if delta.is_empty() {
            delta.insert = vec![(0, 1)];
        }

        let dec = BcDecomposition::compute(&g);
        let out = saphyra_graph::delta::apply(&g, &delta).unwrap();
        let out_dec = BcDecomposition::compute(&out.graph);
        let targets: Vec<u32> = (a as u32..n as u32).collect();
        for &t in &targets {
            prop_assert!(!out.dirty_nodes[t as usize],
                "target {t} in the isolated block was marked dirty");
        }

        let cfg = SaphyraBcConfig::new(0.2, 0.1);
        let sets = [targets.clone()];
        let before = dec.rank(&g, &sets, &cfg, &mut StdRng::seed_from_u64(7)).remove(0);
        let after = out_dec.rank(&out.graph, &sets, &cfg, &mut StdRng::seed_from_u64(7)).remove(0);
        for (x, y) in before.bc.iter().zip(&after.bc) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "bc bits changed for clean target");
        }
        prop_assert_eq!(before.stats.samples, after.stats.samples);
        prop_assert_eq!(before.stats.nmax, after.stats.nmax);
        prop_assert_eq!(before.stats.vc.vc_subset, after.stats.vc.vc_subset);
        prop_assert_eq!(before.stats.lambda_hat.to_bits(), after.stats.lambda_hat.to_bits());
    }
}

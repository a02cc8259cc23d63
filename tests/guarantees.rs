//! Statistical validation of the (ε, δ) guarantees (Theorem 6 / Theorem 24)
//! and of the subset-vs-full consistency.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, BcEstimate, SaphyraBcConfig};
use saphyra_graph::brandes::betweenness_exact;
use saphyra_graph::{fixtures, Graph};

/// SaPHyRa_bc on one target set with the local executor.
fn rank_one(
    dec: &BcDecomposition,
    g: &Graph,
    targets: &[u32],
    cfg: &SaphyraBcConfig,
    rng: &mut StdRng,
) -> BcEstimate {
    dec.rank(g, &[targets.to_vec()], cfg, rng).remove(0)
}

#[test]
fn theorem24_failure_rate_within_delta() {
    // 25 independent runs at δ = 0.2: the number of runs with any target
    // deviating by ≥ ε is Binomial(25, ≤0.2); ≥ 13 failures has probability
    // < 1e-4, so the assertion is both meaningful and stable.
    let g = fixtures::grid_graph(8, 8);
    let truth = betweenness_exact(&g);
    let dec = BcDecomposition::compute(&g);
    let targets: Vec<u32> = (0..64u32).step_by(3).collect();
    let (eps, delta) = (0.03, 0.2);
    let mut failures = 0;
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let est = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(eps, delta),
            &mut rng,
        );
        let bad = targets
            .iter()
            .enumerate()
            .any(|(i, &v)| (est.bc[i] - truth[v as usize]).abs() >= eps);
        if bad {
            failures += 1;
        }
    }
    assert!(failures < 13, "failures {failures}/25 at delta {delta}");
}

#[test]
fn subset_and_full_agree_within_two_epsilon() {
    let g = fixtures::grid_graph(7, 7);
    let dec = BcDecomposition::compute(&g);
    let targets: Vec<u32> = vec![8, 16, 24, 32, 40];
    let eps = 0.04;
    let mut rng = StdRng::seed_from_u64(3);
    let sub = rank_one(
        &dec,
        &g,
        &targets,
        &SaphyraBcConfig::new(eps, 0.05),
        &mut rng,
    );
    let all: Vec<u32> = g.nodes().collect();
    let full = rank_one(&dec, &g, &all, &SaphyraBcConfig::new(eps, 0.05), &mut rng);
    for (i, &v) in targets.iter().enumerate() {
        let f = full.bc[full.targets.binary_search(&v).unwrap()];
        assert!(
            (sub.bc[i] - f).abs() < 2.0 * eps,
            "node {v}: subset {} vs full {f}",
            sub.bc[i]
        );
    }
}

#[test]
fn exact_components_are_deterministic_across_seeds() {
    // bcₐ and the 2-hop exact part must not depend on the RNG.
    let g = fixtures::lollipop_graph(6, 5);
    let dec = BcDecomposition::compute(&g);
    let targets: Vec<u32> = g.nodes().collect();
    let runs: Vec<_> = (0..3u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            rank_one(
                &dec,
                &g,
                &targets,
                &SaphyraBcConfig::new(0.05, 0.1),
                &mut rng,
            )
        })
        .collect();
    for est in &runs[1..] {
        assert_eq!(est.bca_part, runs[0].bca_part);
        assert_eq!(est.exact_path_part, runs[0].exact_path_part);
    }
}

#[test]
fn tighter_epsilon_means_no_fewer_samples() {
    let g = fixtures::grid_graph(10, 8);
    let dec = BcDecomposition::compute(&g);
    let targets: Vec<u32> = (0..80u32).step_by(5).collect();
    let mut samples = Vec::new();
    for eps in [0.2, 0.05, 0.02] {
        let mut rng = StdRng::seed_from_u64(1);
        let est = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(eps, 0.05),
            &mut rng,
        );
        samples.push(est.stats.samples);
    }
    assert!(
        samples[0] <= samples[1] && samples[1] <= samples[2],
        "samples not monotone: {samples:?}"
    );
}

//! End-to-end integration: generated networks → exact ground truth → every
//! estimator → accuracy and ranking-quality assertions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saphyra::bc::{BcDecomposition, BcEstimate, SaphyraBcConfig};
use saphyra_baselines::{
    abra, exact_betweenness, kadabra, rk, AbraConfig, KadabraConfig, RkConfig,
};
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::Graph;
use saphyra_stats::spearman_vs_truth;

/// SaPHyRa_bc on one target set with the local executor.
fn rank_one(
    dec: &BcDecomposition,
    g: &Graph,
    targets: &[u32],
    cfg: &SaphyraBcConfig,
    rng: &mut StdRng,
) -> BcEstimate {
    dec.rank(g, &[targets.to_vec()], cfg, rng, None)
        .expect("local execution is infallible")
        .remove(0)
}

fn random_targets(n: usize, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < k {
        set.insert(rng.gen_range(0..n as u32));
    }
    set.into_iter().collect()
}

#[test]
fn all_estimators_meet_epsilon_on_all_tiny_networks() {
    let eps = 0.1;
    for net in SimNetwork::all() {
        let g = net.build(SizeClass::Tiny, 5);
        let truth = exact_betweenness(&g, 0);
        let mut rng = StdRng::seed_from_u64(17);
        let targets = random_targets(g.num_nodes(), 40, &mut rng);
        let truth_sub: Vec<f64> = targets.iter().map(|&v| truth[v as usize]).collect();

        let dec = BcDecomposition::compute(&g);
        let sap = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(eps, 0.05),
            &mut rng,
        );
        let kad = kadabra(&g, &KadabraConfig::new(eps, 0.05), &mut rng).subset(&targets);
        let ab = abra(&g, &AbraConfig::new(eps, 0.05), &mut rng).subset(&targets);
        let rk_est = rk(&g, &RkConfig::new(eps, 0.05), &mut rng).subset(&targets);

        for (name, est) in [
            ("saphyra", &sap.bc),
            ("kadabra", &kad),
            ("abra", &ab),
            ("rk", &rk_est),
        ] {
            for (i, &v) in targets.iter().enumerate() {
                let err = (est[i] - truth_sub[i]).abs();
                assert!(
                    err < eps,
                    "{name} on {}: node {v} err {err} > eps {eps}",
                    net.name()
                );
            }
        }
    }
}

#[test]
fn saphyra_rank_quality_dominates_baselines_at_loose_eps() {
    // The paper's core claim: at an ε coarser than most centrality values,
    // SaPHyRa still ranks well (exact subspace) while path samplers degrade.
    let eps = 0.1;
    let g = SimNetwork::Orkut.build(SizeClass::Tiny, 11);
    let truth = exact_betweenness(&g, 0);
    let mut rng = StdRng::seed_from_u64(23);

    let mut rho_sap = Vec::new();
    let mut rho_kad = Vec::new();
    let dec = BcDecomposition::compute(&g);
    let kad = kadabra(&g, &KadabraConfig::new(eps, 0.05), &mut rng);
    for trial in 0..5 {
        let mut srng = StdRng::seed_from_u64(100 + trial);
        let targets = random_targets(g.num_nodes(), 50, &mut srng);
        let truth_sub: Vec<f64> = targets.iter().map(|&v| truth[v as usize]).collect();
        let sap = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(eps, 0.05),
            &mut srng,
        );
        rho_sap.push(spearman_vs_truth(&sap.bc, &truth_sub));
        rho_kad.push(spearman_vs_truth(&kad.subset(&targets), &truth_sub));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&rho_sap) > mean(&rho_kad) + 0.05,
        "saphyra {:?} vs kadabra {:?}",
        rho_sap,
        rho_kad
    );
    assert!(mean(&rho_sap) > 0.9, "saphyra rho too low: {rho_sap:?}");
}

#[test]
fn no_false_zeros_end_to_end() {
    for net in [SimNetwork::LiveJournal, SimNetwork::UsaRoad] {
        let g = net.build(SizeClass::Tiny, 3);
        let truth = exact_betweenness(&g, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let targets = random_targets(g.num_nodes(), 60, &mut rng);
        let dec = BcDecomposition::compute(&g);
        // Deliberately coarse ε: the sampling phase may see nothing.
        let est = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(0.3, 0.1),
            &mut rng,
        );
        for (i, &v) in targets.iter().enumerate() {
            if truth[v as usize] > 0.0 {
                assert!(
                    est.bc[i] > 0.0,
                    "{}: node {v} bc {} estimated zero",
                    net.name(),
                    truth[v as usize]
                );
            }
        }
    }
}

#[test]
fn index_reuse_across_subsets_is_consistent() {
    let g = SimNetwork::Flickr.build(SizeClass::Tiny, 2);
    let truth = exact_betweenness(&g, 0);
    let dec = BcDecomposition::compute(&g);
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let targets = random_targets(g.num_nodes(), 30, &mut rng);
        let est = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(0.05, 0.1),
            &mut rng,
        );
        for (i, &v) in targets.iter().enumerate() {
            assert!((est.bc[i] - truth[v as usize]).abs() < 0.05);
        }
    }
}

//! Integration tests for the non-betweenness instantiations (k-path §II-A,
//! harmonic §VI) on generated networks — the framework-generality claim.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::closeness::{harmonic_exact, rank_harmonic, HarmonicEstimate};
use saphyra::framework::LocalExec;
use saphyra::kpath::{kpath_direct_monte_carlo, rank_kpath, KPathApproxProblem, KPathEstimate};
use saphyra_gen::datasets::{flickr_sim, road_sim, SizeClass};
use saphyra_graph::Graph;
use saphyra_stats::spearman_vs_truth;

/// Harmonic ranking of one target set with the local executor.
fn harmonic_one(g: &Graph, targets: &[u32], eps: f64, rng: &mut StdRng) -> HarmonicEstimate {
    rank_harmonic(g, &[targets.to_vec()], eps, 0.1, rng, None)
        .expect("local execution is infallible")
        .remove(0)
}

/// k-path ranking of one target set with the local executor.
fn kpath_one(g: &Graph, targets: &[u32], k: usize, rng: &mut StdRng) -> KPathEstimate {
    rank_kpath(g, &[targets.to_vec()], k, 0.02, 0.1, rng, None)
        .expect("local execution is infallible")
        .remove(0)
}

#[test]
fn harmonic_meets_epsilon_on_generated_networks() {
    let g = flickr_sim(SizeClass::Tiny, 3);
    let truth = harmonic_exact(&g);
    let targets: Vec<u32> = (0..g.num_nodes() as u32).step_by(17).collect();
    let mut rng = StdRng::seed_from_u64(5);
    let est = harmonic_one(&g, &targets, 0.05, &mut rng);
    for (i, &v) in targets.iter().enumerate() {
        let err = (est.hc[i] - truth[v as usize]).abs();
        assert!(err < 0.05, "node {v}: err {err}");
    }
    let truth_sub: Vec<f64> = targets.iter().map(|&v| truth[v as usize]).collect();
    let rho = spearman_vs_truth(&est.hc, &truth_sub);
    assert!(rho > 0.9, "harmonic rho {rho}");
}

#[test]
fn harmonic_exact_subspace_separates_close_targets() {
    // Targets concentrated in one road area: their pairwise distances (the
    // hard tie-breaks) are covered by the exact subspace.
    let road = road_sim(SizeClass::Tiny, 3);
    let g = &road.graph;
    let truth = harmonic_exact(g);
    // Largest area (FL analogue): enough targets for a stable rank metric.
    let area = &road.case_study_areas()[3];
    let targets = area.nodes(&road);
    let mut rng = StdRng::seed_from_u64(9);
    let est = harmonic_one(g, &targets, 0.02, &mut rng);
    let truth_sub: Vec<f64> = targets.iter().map(|&v| truth[v as usize]).collect();
    let rho = spearman_vs_truth(&est.hc, &truth_sub);
    assert!(rho > 0.7, "area harmonic rho {rho}");
    assert!(est.inner.lambda < 1.0);
}

#[test]
fn kpath_framework_agrees_with_direct_monte_carlo() {
    let g = flickr_sim(SizeClass::Tiny, 7);
    let targets: Vec<u32> = (0..g.num_nodes() as u32).step_by(23).collect();
    let k = 4;
    let mut rng = StdRng::seed_from_u64(11);
    let est = kpath_one(&g, &targets, k, &mut rng);
    let reference = kpath_direct_monte_carlo(&g, &targets, k, 300_000, &mut rng);
    for (i, (&a, &b)) in est.kpc.iter().zip(&reference).enumerate() {
        assert!((a - b).abs() < 0.02, "target {i}: {a} vs {b}");
    }
}

#[test]
fn kpath_hit_engine_matches_shared() {
    // The shared-draw stream (the local default) and the per-problem hit
    // engine (a `LocalExec` passed as the remote executor) must produce
    // bit-identical estimates: walk drawing never looks at the target set
    // and scoring consumes no RNG, so per-demand hit counts coincide.
    // This is the contract that lets a router answer a split graph's
    // k-path request through shard backends without changing a byte.
    let g = flickr_sim(SizeClass::Tiny, 7);
    let n = g.num_nodes() as u32;
    let sets = vec![
        (0..n).step_by(23).collect::<Vec<u32>>(),
        (1..n).step_by(41).collect::<Vec<u32>>(),
        vec![0, n / 2, n - 1],
    ];
    let k = 4;
    for seed in [3u64, 11, 29] {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let shared = rank_kpath(&g, &sets, k, 0.05, 0.1, &mut rng_a, None).unwrap();
        let mut rng_b = StdRng::seed_from_u64(seed);
        let probs: Vec<KPathApproxProblem> = sets
            .iter()
            .map(|t| KPathApproxProblem::new(&g, t, k))
            .collect();
        let refs: Vec<&KPathApproxProblem> = probs.iter().collect();
        let hit_engine = &mut LocalExec::new(&refs);
        let via_exec = rank_kpath(&g, &sets, k, 0.05, 0.1, &mut rng_b, Some(hit_engine)).unwrap();
        for (a, b) in shared.iter().zip(&via_exec) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&a.kpc), bits(&b.kpc), "seed {seed}: estimates diverge");
            assert_eq!(
                a.inner.outcome.samples_used, b.inner.outcome.samples_used,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn measures_rank_different_things() {
    // Sanity: on a lollipop, the path tail has near-zero k-path centrality
    // but nonzero harmonic mass — the measures must not be conflated.
    let g = saphyra_graph::fixtures::lollipop_graph(8, 8);
    let tip = (g.num_nodes() - 1) as u32;
    let targets = vec![0u32, tip];
    let mut rng = StdRng::seed_from_u64(13);
    let h = harmonic_one(&g, &targets, 0.02, &mut rng);
    let p = kpath_one(&g, &targets, 5, &mut rng);
    assert!(h.hc[1] > 0.0, "tail tip is reachable: harmonic > 0");
    // Walks concentrate on the clique side; the tip still catches walks
    // that start on the tail, so the gap is a ratio, not a cliff.
    assert!(
        p.kpc[0] > 1.3 * p.kpc[1],
        "clique node leads the walk ranking: {} vs {}",
        p.kpc[0],
        p.kpc[1]
    );
    // Betweenness tells yet another story: both the clique interior and the
    // tail tip have bc = 0 here, while harmonic/k-path rank them apart.
    let bc = saphyra_graph::brandes::betweenness_exact(&g);
    assert_eq!(bc[tip as usize], 0.0);
}

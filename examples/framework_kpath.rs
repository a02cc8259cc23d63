//! Framework generality (paper §II-A): the same sample-space-partitioning
//! machinery ranking nodes by k-path centrality instead of betweenness.
//!
//! Run with: `cargo run --release --example framework_kpath`

use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::kpath::{kpath_direct_monte_carlo, rank_kpath};
use saphyra_gen::ba::barabasi_albert;
use saphyra_stats::spearman_vs_truth;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = barabasi_albert(2000, 3, &mut rng);
    println!(
        "BA network: {} nodes, {} edges; ranking 30 nodes by {}-path centrality",
        g.num_nodes(),
        g.num_edges(),
        6
    );

    let targets: Vec<u32> = (0..30u32).map(|i| i * 61 % 2000).collect();
    let k = 6;

    // SaPHyRa partition: exact mass of the l = 1 walks (λ̂ = 1/k) plus
    // adaptive sampling of the l ≥ 2 walks.
    let t0 = std::time::Instant::now();
    let sets = [targets.clone()];
    let est = rank_kpath(&g, &sets, k, 0.01, 0.05, &mut rng, None)
        .expect("local execution is infallible")
        .remove(0);
    let t_part = t0.elapsed().as_secs_f64();

    // Reference: brute-force Monte Carlo over the full walk space.
    let reference = kpath_direct_monte_carlo(&g, &targets, k, 2_000_000, &mut rng);

    let rho = spearman_vs_truth(&est.kpc, &reference);
    println!(
        "partitioned estimator: {} samples in {:.3}s; λ = {:.3}",
        est.inner.outcome.samples_used, t_part, est.inner.lambda
    );
    println!("spearman ρ vs high-precision reference: {rho:.3}");

    println!("\ntop 5 targets by k-path centrality:");
    for &i in est.inner.ranking().iter().take(5) {
        println!(
            "  node {:>5}: kpc = {:.5} (exact-part {:.5})",
            targets[i], est.kpc[i], est.inner.exact_part[i]
        );
    }
    assert!(rho > 0.8, "rank quality degraded: {rho}");
}

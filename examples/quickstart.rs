//! Quickstart: rank a handful of nodes by betweenness centrality with
//! SaPHyRa_bc and compare against the exact values.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_graph::brandes::betweenness_exact;
use saphyra_graph::fixtures;

fn main() {
    // The paper's Fig. 2 example graph: 11 nodes, five bi-components,
    // cutpoints c, d, i.
    let g = fixtures::paper_fig2();
    println!(
        "graph: {} nodes, {} edges (paper Fig. 2)",
        g.num_nodes(),
        g.num_edges()
    );

    // One-time preprocessing: biconnected decomposition, block-cut tree,
    // out-reach sets (O(n + m)).
    let dec = BcDecomposition::compute(&g);
    println!(
        "decomposition: {} bi-components, γ = {:.4}",
        dec.bic.num_bicomps, dec.gamma
    );

    // Rank a target subset with an (ε, δ) guarantee. `rank` takes any
    // number of target sets and returns one estimate per set.
    let targets: Vec<u32> = vec![0, 2, 3, 6, 8]; // a, c, d, g, i
    let names = ["a", "c", "d", "g", "i"];
    let cfg = SaphyraBcConfig::new(0.02, 0.05);
    let mut rng = StdRng::seed_from_u64(42);
    let est = dec
        .rank(&g, std::slice::from_ref(&targets), &cfg, &mut rng)
        .remove(0);

    let exact = betweenness_exact(&g);
    println!(
        "\n{:<6} {:>10} {:>10} {:>8}",
        "node", "saphyra", "exact", "err"
    );
    for i in est.ranking() {
        let v = targets[i];
        println!(
            "{:<6} {:>10.5} {:>10.5} {:>8.5}",
            names[i],
            est.bc[i],
            exact[v as usize],
            (est.bc[i] - exact[v as usize]).abs()
        );
    }
    println!(
        "\nsamples: {} (pilot {}), exact-subspace mass λ̂ = {:.3}, VC bound = {}",
        est.stats.samples, est.stats.pilot_samples, est.stats.lambda_hat, est.stats.vc.vc_subset
    );
    assert!(est
        .bc
        .iter()
        .zip(&targets)
        .all(|(b, &v)| (b - exact[v as usize]).abs() < cfg.eps));
    println!("all estimates within ε = {} of exact values ✓", cfg.eps);
}

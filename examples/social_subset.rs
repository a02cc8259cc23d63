//! The paper's motivating scenario: rank a small set of "search result"
//! nodes in a large social network — most of them low-centrality, exactly
//! where plain sampling estimators produce meaningless rankings.
//!
//! Run with: `cargo run --release --example social_subset`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_baselines::{exact_betweenness, kadabra, KadabraConfig};
use saphyra_gen::datasets::{flickr_sim, SizeClass};
use saphyra_stats::{relative_errors, spearman_vs_truth};

fn main() {
    let g = flickr_sim(SizeClass::Small, 7);
    println!(
        "flickr-sim: {} nodes, {} edges (BA core + pendant leaves)",
        g.num_nodes(),
        g.num_edges()
    );

    // 60 random "search results".
    let mut rng = StdRng::seed_from_u64(1);
    let mut targets: Vec<u32> = Vec::new();
    while targets.len() < 60 {
        let v = rng.gen_range(0..g.num_nodes() as u32);
        if !targets.contains(&v) {
            targets.push(v);
        }
    }
    targets.sort_unstable();

    println!("computing exact ground truth (parallel Brandes)...");
    let truth = exact_betweenness(&g, 0);
    let truth_sub: Vec<f64> = targets.iter().map(|&v| truth[v as usize]).collect();

    let (eps, delta) = (0.05, 0.01);

    // SaPHyRa_bc on the subset.
    let t0 = std::time::Instant::now();
    let dec = BcDecomposition::compute(&g);
    let cfg = SaphyraBcConfig::new(eps, delta);
    let est = dec
        .rank(&g, std::slice::from_ref(&targets), &cfg, &mut rng)
        .remove(0);
    let t_saphyra = t0.elapsed().as_secs_f64();

    // KADABRA must estimate the whole network to answer the same query.
    let t0 = std::time::Instant::now();
    let kad = kadabra(&g, &KadabraConfig::new(eps, delta), &mut rng);
    let t_kadabra = t0.elapsed().as_secs_f64();
    let kad_sub = kad.subset(&targets);

    let rho_s = spearman_vs_truth(&est.bc, &truth_sub);
    let rho_k = spearman_vs_truth(&kad_sub, &truth_sub);
    let fz_s = relative_errors(&est.bc, &truth_sub, 150.0, 10).false_zero_frac;
    let fz_k = relative_errors(&kad_sub, &truth_sub, 150.0, 10).false_zero_frac;

    println!(
        "\n{:<12} {:>9} {:>12} {:>14}",
        "algorithm", "time(s)", "spearman ρ", "false zeros %"
    );
    println!(
        "{:<12} {:>9.3} {:>12.3} {:>14.1}",
        "SaPHyRa",
        t_saphyra,
        rho_s,
        100.0 * fz_s
    );
    println!(
        "{:<12} {:>9.3} {:>12.3} {:>14.1}",
        "KADABRA",
        t_kadabra,
        rho_k,
        100.0 * fz_k
    );
    println!(
        "\nSaPHyRa's exact subspace guarantees zero false zeros (Lemma 19): {}",
        if fz_s == 0.0 {
            "confirmed ✓"
        } else {
            "VIOLATED"
        }
    );
    assert_eq!(fz_s, 0.0);
}

//! The Fig. 7 scenario: rank the intersections of one metropolitan area
//! inside a country-scale road network, without analyzing a cut-out
//! subnetwork (which the paper warns misestimates centrality).
//!
//! Run with: `cargo run --release --example road_network`

use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_baselines::exact_betweenness;
use saphyra_gen::datasets::{road_sim, SizeClass};
use saphyra_stats::{rank_deviation, spearman_vs_truth};

fn main() {
    let road = road_sim(SizeClass::Small, 3);
    let g = &road.graph;
    println!(
        "usa-road-sim: {} nodes, {} edges ({}×{} perturbed grid)",
        g.num_nodes(),
        g.num_edges(),
        road.width,
        road.height
    );

    let dec = BcDecomposition::compute(g);
    println!(
        "decomposition: {} bi-components, {} cutpoints, γ = {:.4}",
        dec.bic.num_bicomps,
        dec.bic.is_cutpoint.iter().filter(|&&c| c).count(),
        dec.gamma
    );

    println!("computing exact ground truth (parallel Brandes)...");
    let truth = exact_betweenness(g, 0);

    let mut rng = StdRng::seed_from_u64(9);
    println!(
        "\n{:<6} {:>7} {:>9} {:>10} {:>12} {:>9}",
        "area", "nodes", "time(s)", "samples", "spearman ρ", "rankdev%"
    );
    for area in road.case_study_areas() {
        let targets = area.nodes(&road);
        let truth_sub: Vec<f64> = targets.iter().map(|&v| truth[v as usize]).collect();
        let t0 = std::time::Instant::now();
        let cfg = SaphyraBcConfig::new(0.05, 0.01);
        let est = dec
            .rank(g, std::slice::from_ref(&targets), &cfg, &mut rng)
            .remove(0);
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "{:<6} {:>7} {:>9.3} {:>10} {:>12.3} {:>9.1}",
            area.name,
            targets.len(),
            secs,
            est.stats.samples,
            spearman_vs_truth(&est.bc, &truth_sub),
            100.0 * rank_deviation(&est.bc, &truth_sub),
        );
    }
    println!("\nsmaller areas rank faster — the subset-aware speedup of Fig. 7b.");
}

//! The paper's opening motivation, quantified: computing centrality on a
//! *cut-out* subnetwork (here: one metropolitan area extracted from the
//! road network) misjudges the nodes' importance in the complete network —
//! through-traffic vanishes at the cut. SaPHyRa_bc ranks the same nodes
//! *within* the full network, at comparable cost, with a guarantee.
//!
//! Run with: `cargo run --release --example subnetwork_pitfall`

use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_gen::datasets::{road_sim, SizeClass};
use saphyra_graph::brandes::betweenness_exact_parallel;
use saphyra_graph::subgraph::Subgraph;
use saphyra_stats::spearman_vs_truth;

fn main() {
    let road = road_sim(SizeClass::Small, 21);
    let g = &road.graph;
    let area = road.case_study_areas().remove(3); // FL analogue: largest area
    let targets = area.nodes(&road);
    println!(
        "road network: {} nodes; area {:?}: {} nodes",
        g.num_nodes(),
        area.name,
        targets.len()
    );

    // Ground truth: exact betweenness in the COMPLETE network.
    let truth_full = betweenness_exact_parallel(g, 0);
    let truth_sub: Vec<f64> = targets.iter().map(|&v| truth_full[v as usize]).collect();

    // The pitfall: cut the area out and compute exact centrality inside it.
    let t0 = std::time::Instant::now();
    let cut = Subgraph::induced(g, &targets);
    let bc_cut_local = betweenness_exact_parallel(&cut.graph, 0);
    let bc_cut: Vec<f64> = targets
        .iter()
        .map(|&v| bc_cut_local[cut.local_of(v).unwrap() as usize])
        .collect();
    let t_cut = t0.elapsed().as_secs_f64();

    // The remedy: SaPHyRa_bc on the full network, targets = the area.
    let t0 = std::time::Instant::now();
    let dec = BcDecomposition::compute(g);
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = SaphyraBcConfig::new(0.02, 0.05);
    let est = dec
        .rank(g, std::slice::from_ref(&targets), &cfg, &mut rng)
        .remove(0);
    let t_saphyra = t0.elapsed().as_secs_f64();

    let rho_cut = spearman_vs_truth(&bc_cut, &truth_sub);
    let rho_saphyra = spearman_vs_truth(&est.bc, &truth_sub);
    println!("\n{:<28} {:>9} {:>12}", "method", "time(s)", "spearman ρ");
    println!(
        "{:<28} {:>9.3} {:>12.3}",
        "exact BC on cut-out area", t_cut, rho_cut
    );
    println!(
        "{:<28} {:>9.3} {:>12.3}",
        "SaPHyRa_bc on full network", t_saphyra, rho_saphyra
    );
    println!(
        "\nthe cut-out loses all through-traffic: its 'exact' answer ranks the area worse\n\
         than a sampled ranking that sees the whole network (§I of the paper)."
    );
    assert!(
        rho_saphyra > rho_cut,
        "expected subnetwork analysis to underperform: {rho_saphyra} vs {rho_cut}"
    );
}

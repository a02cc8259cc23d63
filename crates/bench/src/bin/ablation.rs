//! Ablation study: which of SaPHyRa_bc's three ingredients
//! — the 2-hop exact subspace, adaptive Bernstein stopping, bi-component
//! sampling — buys what, measured against the exact ground truth.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_bench::report::fmt_f;
use saphyra_bench::{
    build_networks, ground_truth, random_subset, run_algo, scale_from_env, seed_from_env,
    trials_from_env, Algo, Table,
};
use saphyra_stats::{relative_errors, spearman_vs_truth, Summary};
use std::time::Instant;

fn main() {
    let scale = scale_from_env();
    let seed = seed_from_env();
    let trials = trials_from_env(3);
    let (eps, delta) = (0.05, 0.01);

    let mut table = Table::new(
        format!("Ablation — SaPHyRa_bc ingredients at eps={eps} ({scale:?} scale)"),
        &[
            "network",
            "variant",
            "time(s)",
            "samples",
            "rho",
            "false-zero %",
        ],
    );

    for net in build_networks(scale, seed) {
        let g = &net.graph;
        let truth = ground_truth(net.name, g, scale, seed);
        let mut subset_rng = StdRng::seed_from_u64(seed ^ 0x77);
        let subsets: Vec<Vec<u32>> = (0..trials)
            .map(|_| random_subset(g, 100.min(g.num_nodes()), &mut subset_rng))
            .collect();

        let variants: Vec<(&str, SaphyraBcConfig)> = vec![
            ("full pipeline", SaphyraBcConfig::new(eps, delta)),
            (
                "no exact subspace",
                SaphyraBcConfig::new(eps, delta).without_exact_subspace(),
            ),
            (
                "fixed VC budget",
                SaphyraBcConfig::new(eps, delta).with_fixed_budget(),
            ),
        ];
        for (name, cfg) in &variants {
            let mut times = Vec::new();
            let mut rhos = Vec::new();
            let mut fz = Vec::new();
            let mut samples = 0usize;
            for (i, subset) in subsets.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed + i as u64);
                let t0 = Instant::now();
                let dec = BcDecomposition::compute(g);
                let sets = [subset.clone()];
                let est = dec.rank(g, &sets, cfg, &mut rng).remove(0);
                times.push(t0.elapsed().as_secs_f64());
                let truth_sub: Vec<f64> = subset.iter().map(|&v| truth[v as usize]).collect();
                rhos.push(spearman_vs_truth(&est.bc, &truth_sub));
                let rep = relative_errors(&est.bc, &truth_sub, 150.0, 10);
                fz.push(rep.false_zero_frac * 100.0);
                samples = est.stats.samples;
            }
            table.row(vec![
                net.name.to_string(),
                name.to_string(),
                fmt_f(Summary::of(&times).mean, 3),
                samples.to_string(),
                fmt_f(Summary::of(&rhos).mean, 3),
                fmt_f(Summary::of(&fz).mean, 1),
            ]);
        }
        // The "no bi-components at all" row is KADABRA: whole-graph path
        // sampling, no exact subspace, no personalized space.
        let all: Vec<u32> = g.nodes().collect();
        let out = run_algo(Algo::Kadabra, g, &all, eps, delta, seed);
        let mut rhos = Vec::new();
        let mut fz = Vec::new();
        for subset in &subsets {
            let est: Vec<f64> = subset.iter().map(|&v| out.subset_bc[v as usize]).collect();
            let truth_sub: Vec<f64> = subset.iter().map(|&v| truth[v as usize]).collect();
            rhos.push(spearman_vs_truth(&est, &truth_sub));
            fz.push(relative_errors(&est, &truth_sub, 150.0, 10).false_zero_frac * 100.0);
        }
        table.row(vec![
            net.name.to_string(),
            "no bicomponents (KADABRA)".to_string(),
            fmt_f(out.seconds, 3),
            out.samples.to_string(),
            fmt_f(Summary::of(&rhos).mean, 3),
            fmt_f(Summary::of(&fz).mean, 1),
        ]);
    }
    table.print();
    table
        .save_tsv("ablation.tsv")
        .expect("write results/ablation.tsv");
    println!("\nexpected shape: removing the exact subspace raises the false-zero rate and drops");
    println!("rho on dense networks; the fixed budget inflates samples/time at equal accuracy;");
    println!("dropping bicomponents entirely (KADABRA) loses on both quality and time.");
}

//! Fig. 3: running time (log-scale in the paper) of ABRA, KADABRA,
//! SaPHyRa_bc-full and SaPHyRa_bc at ε ∈ {0.2, 0.1, 0.05, 0.02, 0.01},
//! δ = 0.01, over subsets of 100 random nodes.

use saphyra_bench::report::{fmt_ci, fmt_f};
use saphyra_bench::sweep::{run_eps_sweep, EPS_GRID};
use saphyra_bench::{scale_from_env, seed_from_env, trials_from_env, Table};

fn main() {
    let scale = scale_from_env();
    let seed = seed_from_env();
    let trials = trials_from_env(3);
    let records = run_eps_sweep(scale, seed, trials, 100, &EPS_GRID);

    let mut table = Table::new(
        format!("Fig. 3 — running time in seconds ({scale:?} scale, {trials} subsets)"),
        &["network", "eps", "algorithm", "time(s)", "samples"],
    );
    for r in &records {
        table.row(vec![
            r.network.to_string(),
            fmt_f(r.eps, 2),
            r.algo.name().to_string(),
            fmt_ci(&r.time, 3),
            r.samples.to_string(),
        ]);
    }
    table.print();
    table
        .save_tsv("fig3_runtime.tsv")
        .expect("write results/fig3_runtime.tsv");

    // Headline ratios, as reported in §V-B.
    println!("\nspeedup of SaPHyRa over the baselines (same network & eps):");
    for r in records.iter().filter(|r| r.algo.name() == "SaPHyRa") {
        let find = |name: &str| {
            records
                .iter()
                .find(|o| o.network == r.network && o.eps == r.eps && o.algo.name() == name)
                .map(|o| o.time.mean)
        };
        let fmt_ratio = |t: Option<f64>| match t {
            Some(t) if r.time.mean > 0.0 => format!("{:.1}x", t / r.time.mean.max(1e-9)),
            _ => "-".to_string(),
        };
        println!(
            "  {:>16} eps={:<5} vs ABRA {:>8}  vs KADABRA {:>8}  vs SaPHyRa-full {:>8}",
            r.network,
            r.eps,
            fmt_ratio(find("ABRA")),
            fmt_ratio(find("KADABRA")),
            fmt_ratio(find("SaPHyRa-full")),
        );
    }
    println!(
        "\nexpected shape (paper): ABRA slowest by 1-2 orders of magnitude (node-pair samples"
    );
    println!(
        "cost a truncated BFS each); SaPHyRa 4-11x faster than SaPHyRa-full and needing fewer"
    );
    println!(
        "samples than KADABRA. Note: our KADABRA reimplementation shares SaPHyRa's bb-BFS and"
    );
    println!("Bernstein machinery, so the paper's 7-235x gap vs the authors' binaries compresses");
    println!("to sample-count ratios at simulation scale.");
}

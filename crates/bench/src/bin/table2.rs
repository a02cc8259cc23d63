//! Table II: networks' summary (nodes, edges, diameter) for the simulated
//! stand-ins, plus the decomposition statistics SaPHyRa_bc exploits.

use saphyra::bc::BcDecomposition;
use saphyra_bench::report::fmt_f;
use saphyra_bench::{build_networks, scale_from_env, seed_from_env, Table};
use saphyra_graph::bfs::BfsWorkspace;
use saphyra_graph::diameter::double_sweep_lower;

fn main() {
    let scale = scale_from_env();
    let seed = seed_from_env();
    let mut table = Table::new(
        format!("Table II — networks' summary ({scale:?} scale, seed {seed})"),
        &[
            "network",
            "nodes",
            "edges",
            "diam>=",
            "avg-deg",
            "bicomps",
            "largest-bicomp",
            "cutpoints",
            "gamma",
        ],
    );
    for net in build_networks(scale, seed) {
        let g = &net.graph;
        let mut ws = BfsWorkspace::new(g.num_nodes());
        let diam = double_sweep_lower(g, 0, &mut ws);
        let dec = BcDecomposition::compute(g);
        let largest = (0..dec.bic.num_bicomps as u32)
            .map(|b| dec.bic.size_of(b))
            .max()
            .unwrap_or(0);
        let cutpoints = dec.bic.is_cutpoint.iter().filter(|&&c| c).count();
        table.row(vec![
            net.name.to_string(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            diam.to_string(),
            fmt_f(2.0 * g.num_edges() as f64 / g.num_nodes() as f64, 2),
            dec.bic.num_bicomps.to_string(),
            largest.to_string(),
            cutpoints.to_string(),
            fmt_f(dec.gamma, 4),
        ]);
    }
    table.print();
    table
        .save_tsv("table2.tsv")
        .expect("write results/table2.tsv");
    println!(
        "\npaper reference (Table II): Flickr 1.6M/15.5M diam 24; LiveJournal 5.2M/49.2M diam 23;"
    );
    println!("USA-road 23.9M/58.3M diam 1524; Orkut 3.1M/117.2M diam 10.");
    println!("expected shape: road-sim diameter orders of magnitude above the social networks.");
}

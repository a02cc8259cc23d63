//! The exact-computation dividend of the bi-component machinery: exact
//! betweenness via per-component weighted Brandes ("shattering", the
//! paper's [22]) versus textbook Brandes, on a pendant-heavy network.
//!
//! Run with: `cargo run --release --example exact_oracle`

use saphyra::bc::BcDecomposition;
use saphyra_gen::datasets::{flickr_sim, SizeClass};
use saphyra_graph::brandes::betweenness_exact;

fn main() {
    let g = flickr_sim(SizeClass::Small, 11);
    println!(
        "flickr-sim: {} nodes, {} edges (half of them pendant leaves)",
        g.num_nodes(),
        g.num_edges()
    );

    let t0 = std::time::Instant::now();
    let dec = BcDecomposition::compute(&g);
    let shattered = dec.exact_betweenness_shattered(&g);
    let t_shattered = t0.elapsed().as_secs_f64();
    println!(
        "decomposition: {} bi-components (largest {})",
        dec.bic.num_bicomps,
        (0..dec.bic.num_bicomps as u32)
            .map(|b| dec.bic.size_of(b))
            .max()
            .unwrap_or(0)
    );

    let t0 = std::time::Instant::now();
    let brandes = betweenness_exact(&g);
    let t_brandes = t0.elapsed().as_secs_f64();

    let max_err = shattered
        .iter()
        .zip(&brandes)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nbrandes    {t_brandes:.3}s");
    println!("shattered  {t_shattered:.3}s  (includes the decomposition)");
    println!("max |difference| = {max_err:.2e}");
    assert!(max_err < 1e-10, "oracles disagree");
    println!(
        "speedup {:.1}x — every pendant leaf becomes a 2-node block whose pair\n\
         dependencies are closed-form, so the weighted Brandes only sweeps the core.",
        t_brandes / t_shattered.max(1e-9)
    );
}

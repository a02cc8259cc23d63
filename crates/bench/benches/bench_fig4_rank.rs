//! Fig. 4 bench: the quality-evaluation path — a SaPHyRa_bc subset run
//! followed by Spearman correlation against exact ground truth.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_bench::random_subset;
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::brandes::betweenness_exact;
use saphyra_stats::spearman_vs_truth;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_fig4(c: &mut Criterion) {
    let g = SimNetwork::Flickr.build(SizeClass::Tiny, 1);
    let truth = betweenness_exact(&g);
    let dec = BcDecomposition::compute(&g);
    let mut rng = StdRng::seed_from_u64(5);
    let sets = [random_subset(&g, 100.min(g.num_nodes()), &mut rng)];
    let truth_sub: Vec<f64> = sets[0].iter().map(|&v| truth[v as usize]).collect();
    for eps in [0.1, 0.05] {
        c.bench_function(&format!("fig4_rank_quality_pipeline/eps{eps}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let cfg = SaphyraBcConfig::new(eps, 0.1);
                let ests = dec.rank(&g, &sets, &cfg, &mut rng);
                std::hint::black_box(spearman_vs_truth(&ests[0].bc, &truth_sub))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_fig4
}
criterion_main!(benches);

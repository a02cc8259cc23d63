//! Ablation bench: full pipeline vs no-exact-subspace vs fixed VC budget
//! vs no-bicomponents (KADABRA), timed on one network — each variant drops
//! one ingredient of SaPHyRa_bc (sample-space partitioning, adaptive
//! stopping, bi-component sampling). The `ablation` bin reports the same
//! variants' accuracy.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_bench::{random_subset, run_algo, Algo};
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_ablation(c: &mut Criterion) {
    let g = SimNetwork::LiveJournal.build(SizeClass::Tiny, 1);
    let dec = BcDecomposition::compute(&g);
    let mut rng = StdRng::seed_from_u64(11);
    let subset = random_subset(&g, 100.min(g.num_nodes()), &mut rng);
    let sets = [subset.clone()];
    let variants: Vec<(&str, SaphyraBcConfig)> = vec![
        ("full", SaphyraBcConfig::new(0.05, 0.1)),
        (
            "no_exact_subspace",
            SaphyraBcConfig::new(0.05, 0.1).without_exact_subspace(),
        ),
        (
            "fixed_budget",
            SaphyraBcConfig::new(0.05, 0.1).with_fixed_budget(),
        ),
    ];
    for (name, cfg) in variants {
        c.bench_function(&format!("ablation/{name}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let ests = dec.rank(&g, &sets, &cfg, &mut rng);
                std::hint::black_box(ests[0].stats.samples)
            })
        });
    }
    c.bench_function("ablation/no_bicomponents_kadabra", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            std::hint::black_box(run_algo(Algo::Kadabra, &g, &subset, 0.05, 0.1, seed).samples)
        })
    });

    // Exact-oracle ablation: bicomponent-shattered weighted Brandes vs the
    // textbook algorithm, on the pendant-heavy network where shattering wins.
    let flickr = SimNetwork::Flickr.build(SizeClass::Tiny, 1);
    let flickr_dec = BcDecomposition::compute(&flickr);
    c.bench_function("ablation/exact_brandes", |b| {
        b.iter(|| std::hint::black_box(saphyra_graph::brandes::betweenness_exact(&flickr)[0]))
    });
    c.bench_function("ablation/exact_shattered", |b| {
        b.iter(|| std::hint::black_box(flickr_dec.exact_betweenness_shattered(&flickr)[0]))
    });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ablation
}
criterion_main!(benches);

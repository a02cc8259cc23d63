//! Fig. 5 bench: SaPHyRa_bc running time as a function of subset size —
//! the scaling the paper reads off Fig. 5 / the NYC-vs-FL comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_bench::random_subset;
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_fig5(c: &mut Criterion) {
    let g = SimNetwork::Orkut.build(SizeClass::Tiny, 1);
    let dec = BcDecomposition::compute(&g);
    for size in [10usize, 50, 100] {
        let mut rng = StdRng::seed_from_u64(size as u64);
        let sets = [random_subset(&g, size.min(g.num_nodes()), &mut rng)];
        c.bench_function(&format!("fig5_subset_size/{size}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let cfg = SaphyraBcConfig::new(0.05, 0.1);
                let ests = dec.rank(&g, &sets, &cfg, &mut rng);
                std::hint::black_box(ests[0].stats.samples)
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_fig5
}
criterion_main!(benches);

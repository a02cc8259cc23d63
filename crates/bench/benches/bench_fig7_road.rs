//! Fig. 7 / Table III bench: the road-network case study — area extraction
//! and per-area SaPHyRa_bc runs, showing time shrinking with area size.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_gen::datasets::{road_sim, SizeClass};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_fig7(c: &mut Criterion) {
    let road = road_sim(SizeClass::Tiny, 1);
    let g = &road.graph;
    let dec = BcDecomposition::compute(g);
    c.bench_function("table3_area_extraction", |b| {
        b.iter(|| {
            let areas = road.case_study_areas();
            let total: usize = areas.iter().map(|a| a.nodes(&road).len()).sum();
            std::hint::black_box(total)
        })
    });
    for area in road.case_study_areas() {
        let sets = [area.nodes(&road)];
        c.bench_function(&format!("fig7_area_rank/{}", area.name), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let cfg = SaphyraBcConfig::new(0.05, 0.1);
                let ests = dec.rank(g, &sets, &cfg, &mut rng);
                std::hint::black_box(ests[0].stats.samples)
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_fig7
}
criterion_main!(benches);

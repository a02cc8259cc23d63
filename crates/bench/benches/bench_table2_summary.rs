//! Table II bench: the per-network preprocessing pipeline (generation,
//! decomposition, diameter estimation) behind the summary table.

use criterion::{criterion_group, criterion_main, Criterion};
use saphyra::bc::BcDecomposition;
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::bfs::BfsWorkspace;
use saphyra_graph::diameter::double_sweep_lower;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_table2(c: &mut Criterion) {
    for net in SimNetwork::all() {
        let g = net.build(SizeClass::Tiny, 1);
        c.bench_function(&format!("table2_index_build/{}", net.name()), |b| {
            b.iter(|| std::hint::black_box(BcDecomposition::compute(&g).gamma))
        });
        let mut ws = BfsWorkspace::new(g.num_nodes());
        c.bench_function(&format!("table2_double_sweep/{}", net.name()), |b| {
            b.iter(|| std::hint::black_box(double_sweep_lower(&g, 0, &mut ws)))
        });
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_table2
}
criterion_main!(benches);

//! Sampler microbenches, including the bidirectional-vs-unidirectional BFS
//! ablation (Lemma 21), the relative per-sample cost of the three
//! sampling styles (Gen_bc path, KADABRA path, ABRA node-pair), bc's
//! exact part alone, one whole bc and one whole harmonic ranking call, and
//! one `PATCH /graphs/<name>` (the patched CSR and its decomposition).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saphyra::bc::{build_a_index, exact_bc, BcApproxProblem, BcDecomposition, SaphyraBcConfig};
use saphyra::closeness::rank_harmonic;
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::bbbfs::BiBfs;
use saphyra_graph::bfs::{sample_path_to, BfsWorkspace};
use saphyra_graph::{EdgeDelta, GraphBuilder};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_samplers(c: &mut Criterion) {
    let g = SimNetwork::LiveJournal.build(SizeClass::Tiny, 1);
    let n = g.num_nodes();
    let dec = BcDecomposition::compute(&g);
    let (bic, outreach) = (&dec.bic, &dec.outreach);
    let mut rng = StdRng::seed_from_u64(7);
    let targets: Vec<u32> = (0..100u32).collect();
    let a_index = build_a_index(n, &targets);

    // Gen_bc: multistage PISP sampling with rejection.
    let mut prob = BcApproxProblem::new(&g, bic, outreach, &targets, &a_index, 3);
    c.bench_function("gen_bc_sample", |b| {
        b.iter(|| std::hint::black_box(prob.sample_approx_path(&mut rng).len()))
    });

    // Ranking calls in the shape the service sees: 16 targets led by the
    // two highest-degree nodes. Seeds are fixed so every iteration does
    // the same work.
    let mut by_degree: Vec<u32> = g.nodes().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut targets16 = by_degree[..2].to_vec();
    let mut pick = StdRng::seed_from_u64(16);
    while targets16.len() < 16 {
        let v = pick.gen_range(0..n as u32);
        if !targets16.contains(&v) {
            targets16.push(v);
        }
    }
    let a_index16 = build_a_index(n, &targets16);
    let sets16 = [targets16];

    // bc's exact part (Exact_bc) alone, then a whole bc ranking at ε 0.05,
    // δ 0.1: the split of a lone bc request's fixed and per-sample cost.
    c.bench_function("exact_bc_16_targets", |b| {
        b.iter(|| {
            let exact = exact_bc(&g, bic, outreach, &sets16[0], &a_index16);
            std::hint::black_box(exact.lambda_raw)
        })
    });
    let bc_cfg = SaphyraBcConfig::new(0.05, 0.1);
    c.bench_function("bc_rank_16_targets", |b| {
        b.iter(|| {
            let mut seed = StdRng::seed_from_u64(5);
            let est = dec.rank(&g, &sets16, &bc_cfg, &mut seed);
            std::hint::black_box(est[0].stats.samples)
        })
    });

    // Harmonic at ε 0.25, δ 0.1.
    c.bench_function("harmonic_rank_16_targets", |b| {
        b.iter(|| {
            let mut seed = StdRng::seed_from_u64(5);
            let est = rank_harmonic(&g, &sets16, 0.25, 0.1, &mut seed);
            std::hint::black_box(est[0].inner.outcome.samples_used)
        })
    });

    // KADABRA-style: uniform pair + bidirectional BFS path.
    let mut bb = BiBfs::new(n);
    c.bench_function("kadabra_pair_sample_bidirectional", |b| {
        b.iter(|| {
            let (s, t) = random_pair(n, &mut rng);
            if let Some(res) = bb.query(&g, s, t, |_| true) {
                std::hint::black_box(bb.sample_path(&g, res, &mut rng, |_| true).len());
            }
        })
    });

    // Ablation: the same sample via a full unidirectional BFS.
    let mut ws = BfsWorkspace::new(n);
    c.bench_function("pair_sample_unidirectional", |b| {
        b.iter(|| {
            let (s, t) = random_pair(n, &mut rng);
            ws.run_counting(&g, s, Some(t), |_| true);
            if ws.visited(t) {
                std::hint::black_box(sample_path_to(&ws, &g, t, &mut rng, |_| true).len());
            }
        })
    });

    // ABRA-style: full pair-dependency accumulation (costed via its BFS).
    c.bench_function("abra_pair_bfs", |b| {
        b.iter(|| {
            let (s, t) = random_pair(n, &mut rng);
            ws.run_counting(&g, s, Some(t), |_| true);
            std::hint::black_box(ws.reached())
        })
    });
}

/// One-edge inserts through the PATCH path: the patched graph and its
/// decomposition. The graph has rankbench's shape (a BA core with pendants,
/// plus 20 six-node cyclic islands), so the giant component holds most
/// nodes and a uniform random edge lands there; an island edge is the
/// other case.
fn bench_patch(c: &mut Criterion) {
    const ISLANDS: u32 = 20;
    const ISLAND_NODES: u32 = 6;
    let core = SimNetwork::Flickr.build(SizeClass::Small, 5);
    let base = core.num_nodes() as u32;
    let mut b = GraphBuilder::new(core.num_nodes() + (ISLANDS * ISLAND_NODES) as usize);
    for (u, v, _) in core.edges() {
        b.push(u, v);
    }
    for i in 0..ISLANDS {
        let first = base + i * ISLAND_NODES;
        for k in 0..ISLAND_NODES {
            b.push(first + k, first + (k + 1) % ISLAND_NODES);
        }
    }
    let g = b.build().unwrap();

    // A non-edge between node 0 and the highest-id core node not adjacent
    // to it (the core is connected); a chord across the first island's
    // cycle.
    let far = (1..base).rev().find(|&v| !g.has_edge(0, v)).unwrap();
    let giant = EdgeDelta {
        insert: vec![(0, far)],
        delete: vec![],
    };
    let island = EdgeDelta {
        insert: vec![(base, base + ISLAND_NODES / 2)],
        delete: vec![],
    };
    for (name, delta) in [("patch_giant_component", &giant), ("patch_island", &island)] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let out = saphyra_graph::delta::apply(&g, delta).unwrap();
                let dec = BcDecomposition::compute(&out.graph);
                std::hint::black_box((out.graph.num_edges(), dec.gamma))
            })
        });
    }
}

fn random_pair(n: usize, rng: &mut StdRng) -> (u32, u32) {
    let s = rng.gen_range(0..n as u32);
    let mut t = rng.gen_range(0..n as u32 - 1);
    if t >= s {
        t += 1;
    }
    (s, t)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_samplers, bench_patch
}
criterion_main!(benches);

//! Parallel batch-sampling scaling: samples/sec of the `Gen_bc` estimator
//! as the worker count sweeps 1 → 2 → 4 → 8 on an R-MAT (LiveJournal-like)
//! graph.
//!
//! Prints an explicit samples/sec + speedup table (stderr) in addition to
//! the per-thread-count criterion timings, so the scaling claim is a
//! number in the bench output, not an assertion in a comment. Results are
//! bit-identical across the sweep (counter-based chunk RNG streams); only
//! wall-clock changes. On a single-core host the sweep degenerates to
//! ~1.0× throughout — the speedup column measures the hardware as much as
//! the engine.
//!
//! `RAYON_NUM_THREADS` is honoured for everything *outside* the explicit
//! pools built here; the sweep itself uses `ThreadPool::install` so one
//! run covers all four configurations.
//!
//! The `par_call_overhead` group prices the engine's fixed cost per
//! parallel call at 1 and 2 blocks: an empty two-item `collect`, which is
//! nothing but that cost, and a lone 16-target bc rank in the shape the
//! service sees (as `bench_samplers`' `bc_rank_16_targets`), whose three
//! sample passes each pay it once.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rayon::prelude::*;
use saphyra::bc::{build_a_index, BcApproxProblem, BcDecomposition, Outreach, SaphyraBcConfig};
use saphyra::framework::{estimate, AdaptiveOutcome, ExactPart, LocalExec, Subscriber};
use saphyra_bench::service_targets16;
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::{Bicomps, BlockCutTree, Graph};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

struct Setup {
    g: Graph,
    bic: Bicomps,
    outreach: Outreach,
    targets: Vec<u32>,
}

fn setup() -> Setup {
    // R-MAT social-graph regime (the LiveJournal stand-in).
    let g = SimNetwork::LiveJournal.build(SizeClass::Tiny, 1);
    let bic = Bicomps::compute(&g);
    let tree = BlockCutTree::compute(&bic);
    let outreach = Outreach::compute(&bic, &tree);
    let targets: Vec<u32> = (0..100u32).collect();
    Setup {
        g,
        bic,
        outreach,
        targets,
    }
}

fn bench_scaling(c: &mut Criterion) {
    let s = setup();
    let a_index = build_a_index(s.g.num_nodes(), &s.targets);
    let prob = BcApproxProblem::new(&s.g, &s.bic, &s.outreach, &s.targets, &a_index, 3);
    // Fixed budget: every run draws exactly nmax samples, so time/run is
    // directly samples/sec.
    let run = || -> AdaptiveOutcome {
        let sub = Subscriber {
            problem: &prob,
            exact: ExactPart::trivial(s.targets.len()),
            eps: 0.02,
            delta: 0.1,
            adaptive: false,
        };
        let master = StdRng::seed_from_u64(7).next_u64();
        estimate(&[sub], master, &mut LocalExec::new(&[&prob]))
            .remove(0)
            .outcome
    };

    // Criterion timings per thread count.
    for threads in THREAD_SWEEP {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        c.bench_function(&format!("gen_bc_fixed_budget/threads={threads}"), |b| {
            b.iter(|| pool.install(run))
        });
    }

    // Explicit samples/sec + speedup table.
    let mut baseline = 0.0f64;
    eprintln!("\nparallel scaling (RMAT tiny, fixed budget):");
    eprintln!(
        "{:>8} {:>14} {:>14} {:>9}",
        "threads", "samples", "samples/s", "speedup"
    );
    for threads in THREAD_SWEEP {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        // Warm + best-of-3 to shed scheduler noise.
        let mut best = f64::INFINITY;
        let mut samples = 0usize;
        for _ in 0..3 {
            let t0 = Instant::now();
            let out = pool.install(run);
            let dt = t0.elapsed().as_secs_f64();
            samples = out.samples_used;
            if dt < best {
                best = dt;
            }
        }
        let rate = samples as f64 / best;
        if threads == 1 {
            baseline = rate;
        }
        eprintln!(
            "{threads:>8} {samples:>14} {rate:>14.0} {:>8.2}x",
            rate / baseline
        );
    }
    eprintln!();
}

fn bench_call_overhead(c: &mut Criterion) {
    let g = SimNetwork::LiveJournal.build(SizeClass::Tiny, 1);
    let dec = BcDecomposition::compute(&g);
    let sets16 = [service_targets16(&g)];
    let bc_cfg = SaphyraBcConfig::new(0.05, 0.1);
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        c.bench_function(
            &format!("par_call_overhead/empty_collect/threads={threads}"),
            |b| {
                b.iter(|| {
                    let v: Vec<u64> =
                        pool.install(|| (0u64..2).into_par_iter().map(|i| i).collect());
                    v
                })
            },
        );
        c.bench_function(
            &format!("par_call_overhead/bc_rank_16_targets/threads={threads}"),
            |b| {
                b.iter(|| {
                    let mut seed = StdRng::seed_from_u64(5);
                    let est = pool.install(|| dec.rank(&g, &sets16, &bc_cfg, &mut seed));
                    std::hint::black_box(est[0].stats.samples)
                })
            },
        );
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_scaling
}
criterion_group! {
    name = par_call_overhead;
    config = config();
    targets = bench_call_overhead
}
criterion_main!(benches, par_call_overhead);

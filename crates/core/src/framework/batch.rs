//! Work units: the chunked, counter-seeded drawing engine behind
//! [`super::LocalExec`].
//!
//! A demand of `count` samples is partitioned into fixed
//! [`stream::CHUNK`]-sized chunks; chunk `c` is drawn by an independent
//! counter-based RNG ([`stream::chunk_rng`]) through a per-worker
//! [`HrSampler`], so
//!
//! * workers never share mutable state (each owns its sampler scratch),
//! * the drawn values are a pure function of `(master seed, stream id,
//!   chunk index)` — **bit-identical for every thread count**, and
//! * consecutive estimator phases extend the same stream by advancing the
//!   first-chunk cursor, so a doubling round never replays chunks.
//!
//! A *work unit* is a contiguous chunk sub-range of one demand, folded
//! sequentially through one sampler. [`run_blocks`] splits every demand
//! into its [`unit_ranges`] and merges the unit partials left-to-right in
//! unit order. Integer hit counts merge exactly under any partition of a
//! demand's chunks; `f64` losses need the unit boundaries and the merge
//! order fixed independently of the thread count.

use std::ops::Range;

use rayon::prelude::*;
use saphyra_stats::stream;

use super::problem::{HrProblem, HrSampler};
use super::tracker::{BlockAcc, Demand};

/// Number of [`stream::CHUNK`]-sized chunks a demand spans.
fn demand_chunks(d: &Demand) -> usize {
    stream::num_chunks(d.count, stream::CHUNK)
}

/// The fold-unit boundaries of demand `d` for a `k`-hypothesis subscriber:
/// the chunk sub-ranges [`run_blocks`] folds sequentially and merges
/// left-to-right. For `f64` losses this is a pure function of `(k,
/// d.count)`, which fixes the association order for every thread count.
/// Integer hit counts merge exactly under any partition, so their
/// grouping follows the worker count.
fn unit_ranges<A: BlockAcc>(k: usize, d: &Demand) -> Vec<Range<usize>> {
    stream::group_bounds(demand_chunks(d), A::fold_groups(k))
}

/// Draws the chunk sub-range `chunks` of demand `d` through `sampler` into
/// `accs`: one work unit.
fn unit_into<A: BlockAcc>(
    sampler: &mut dyn HrSampler<A>,
    hits: &mut Vec<A::Hit>,
    accs: &mut [A],
    master: u64,
    d: &Demand,
    chunks: Range<usize>,
) {
    for c in chunks {
        let mut rng = stream::chunk_rng(master, d.stream, d.first_chunk + c as u64);
        let len = stream::chunk_len(d.count, stream::CHUNK, c);
        for _ in 0..len {
            hits.clear();
            sampler.sample_into(&mut rng, hits);
            for &h in hits.iter() {
                A::record(accs, h);
            }
        }
    }
}

/// Executes one round of demands as one rayon pass: every demand splits
/// into its [`unit_ranges`], each unit folds through its own problem's
/// sampler (one per problem per worker, created on first use), and the
/// unit partials merge per demand in unit order.
pub(crate) fn run_blocks<'a, A: BlockAcc, P: HrProblem<A> + ?Sized>(
    problems: &[&'a P],
    master: u64,
    reqs: &[(usize, Demand)],
) -> Vec<Vec<A>> {
    let ks: Vec<usize> = reqs
        .iter()
        .map(|&(sub, _)| problems[sub].num_hypotheses())
        .collect();
    // unit = (request index, chunk sub-range)
    let units: Vec<(usize, Range<usize>)> = reqs
        .iter()
        .enumerate()
        .flat_map(|(ri, (_, d))| {
            unit_ranges::<A>(ks[ri], d)
                .into_iter()
                .map(move |r| (ri, r))
        })
        .collect();
    let partials: Vec<Vec<A>> = (0..units.len())
        .into_par_iter()
        .map_init(
            || {
                let samplers: Vec<Option<Box<dyn HrSampler<A> + 'a>>> =
                    problems.iter().map(|_| None).collect();
                (samplers, Vec::new())
            },
            |(samplers, hits), u| {
                let (ri, range) = &units[u as usize];
                let (sub, d) = reqs[*ri];
                let mut accs = vec![A::zero(); ks[*ri]];
                let sampler = samplers[sub].get_or_insert_with(|| problems[sub].sampler());
                unit_into(sampler.as_mut(), hits, &mut accs, master, &d, range.clone());
                accs
            },
        )
        .collect();
    let mut totals: Vec<Vec<A>> = ks.iter().map(|&k| vec![A::zero(); k]).collect();
    for ((ri, _), part) in units.iter().zip(partials) {
        for (t, p) in totals[*ri].iter_mut().zip(&part) {
            t.add(p);
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::super::tracker::{STREAM_MAIN, STREAM_PILOT};
    use super::*;
    use rand::{Rng, RngCore};

    /// One work unit — the chunk sub-range `chunks` of demand `d` — folded
    /// sequentially through a fresh sampler.
    fn exec_unit(p: &Fixed, master: u64, d: &Demand, chunks: Range<usize>) -> Vec<u64> {
        let mut accs = vec![0u64; p.num_hypotheses()];
        unit_into(
            p.sampler().as_mut(),
            &mut Vec::new(),
            &mut accs,
            master,
            d,
            chunks,
        );
        accs
    }

    struct Fixed {
        probs: Vec<f64>,
    }

    struct FixedSampler<'a> {
        probs: &'a [f64],
    }

    impl HrSampler<u64> for FixedSampler<'_> {
        fn sample_into(&mut self, rng: &mut dyn RngCore, hits: &mut Vec<u32>) {
            for (i, &p) in self.probs.iter().enumerate() {
                if rng.gen::<f64>() < p {
                    hits.push(i as u32);
                }
            }
        }
    }

    impl HrProblem<u64> for Fixed {
        fn num_hypotheses(&self) -> usize {
            self.probs.len()
        }
        fn sampler(&self) -> Box<dyn HrSampler<u64> + '_> {
            Box::new(FixedSampler { probs: &self.probs })
        }
        fn max_samples(&self, eps_prime: f64, delta: f64) -> usize {
            saphyra_stats::vc_sample_bound(eps_prime, delta, 1)
        }
    }

    /// One demand of `count` samples from chunk `first_chunk` of `stream`,
    /// drawn by the local pass.
    fn block(p: &Fixed, master: u64, stream: u64, first_chunk: u64, count: usize) -> Vec<u64> {
        let d = Demand {
            stream,
            first_chunk,
            count,
        };
        run_blocks(&[p], master, &[(0, d)]).remove(0)
    }

    #[test]
    fn hit_counts_identical_across_thread_counts() {
        let p = Fixed {
            probs: vec![0.5, 0.1, 0.9],
        };
        let in_pool = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| block(&p, 42, STREAM_MAIN, 0, 10_000))
        };
        let reference = in_pool(1);
        for threads in [2, 4, 8] {
            assert_eq!(in_pool(threads), reference, "{threads} threads");
        }
        // A single unit over every chunk folds to the same counts.
        let d = Demand {
            stream: STREAM_MAIN,
            first_chunk: 0,
            count: 10_000,
        };
        assert_eq!(exec_unit(&p, 42, &d, 0..demand_chunks(&d)), reference);
    }

    #[test]
    fn disjoint_blocks_compose_like_one_block() {
        // Drawing [0, a) then [a-chunks ..] with an advanced cursor must
        // equal one contiguous block when a is chunk-aligned.
        let p = Fixed {
            probs: vec![0.3, 0.7],
        };
        let a = 4 * stream::CHUNK;
        let b = 3 * stream::CHUNK + 17;
        let whole = block(&p, 9, STREAM_MAIN, 0, a + b);
        let first = block(&p, 9, STREAM_MAIN, 0, a);
        let second = block(
            &p,
            9,
            STREAM_MAIN,
            stream::num_chunks(a, stream::CHUNK) as u64,
            b,
        );
        let sum: Vec<u64> = first.iter().zip(&second).map(|(x, y)| x + y).collect();
        assert_eq!(whole, sum);
    }

    #[test]
    fn streams_are_independent() {
        let p = Fixed { probs: vec![0.5] };
        let pilot = block(&p, 7, STREAM_PILOT, 0, 5000);
        let main = block(&p, 7, STREAM_MAIN, 0, 5000);
        assert_ne!(pilot, main);
    }
}

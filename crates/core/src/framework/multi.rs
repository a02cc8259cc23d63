//! Where a round's demands are drawn: the [`BlockExec`] trait and the two
//! in-process executors.
//!
//! [`super::estimate`] steps every subscriber's tracker in lockstep rounds:
//! each round collects the active subscribers' [`Demand`]s, hands them to
//! an executor as **one** pass, and feeds each block back. Because a demand
//! is a pure coordinate into the counter-based RNG streams, each subscriber
//! sees exactly the draws it would have seen running alone under the same
//! master seed — for every thread count, every batch composition and every
//! executor honoring the contract.
//!
//! * [`LocalExec`] — fused scheduling: all subscribers' blocks fan out over
//!   one rayon pass, but each block is drawn through its own problem's
//!   sampler (required when draws depend on the hypothesis set, as for
//!   personalized-ISP betweenness and harmonic closeness).
//! * [`LocalSharedExec`] — genuine draw sharing for [`SharedDraw`]
//!   problems: overlapping chunk demands are unioned, each chunk's
//!   artifacts are drawn **once**, and every demanding subscriber scores
//!   them. Serving `s` subscribers costs one draw pass plus `s` cheap score
//!   scans instead of `s` draw passes.
//!
//! Both draw in-process, so a round cannot fail.

use std::collections::BTreeMap;

use rayon::prelude::*;
use saphyra_stats::stream;

use super::batch::run_blocks;
use super::problem::{HrProblem, SharedDraw};
use super::tracker::{BlockAcc, Demand};

/// Where sample blocks are drawn. One round's demands go in under the
/// pass's `master` seed — one entry per active subscriber, each a pure
/// `(stream, first_chunk, count)` coordinate paired with the subscriber's
/// index in the slice handed to [`super::estimate`] (for the rankers, the
/// original target-set index). Per-subscriber accumulator vectors come
/// back, aligned with `reqs`.
///
/// The contract that makes the two executors interchangeable
/// **bit-for-bit**: the accumulators returned for a demand are a pure
/// function of the master seed and the demand's chunk coordinates, with
/// `f64` partials merged in a thread-count-independent order.
pub trait BlockExec<A: BlockAcc> {
    /// Executes one round of demands.
    fn run(&mut self, master: u64, reqs: &[(usize, Demand)]) -> Vec<Vec<A>>;
}

/// Executes hit-count demands with **shared draws**: the union of demanded
/// `(stream, chunk)` coordinates is drawn once, and every subscriber that
/// demanded a chunk scores its prefix of the chunk's artifacts.
///
/// Correctness leans on the [`SharedDraw`] contract: drawing is
/// target-independent and scoring consumes no RNG, so the first `len`
/// artifacts of a chunk are the same values a solo run would have drawn,
/// regardless of how many extra samples stricter subscribers demanded from
/// the same chunk.
fn run_shared_blocks<P: SharedDraw + ?Sized>(
    problems: &[&P],
    master: u64,
    reqs: &[(usize, Demand)],
) -> Vec<Vec<u64>> {
    let ks: Vec<usize> = problems.iter().map(|p| p.num_hypotheses()).collect();
    // (stream, chunk) → demanding (request index, samples needed).
    let mut by_chunk: BTreeMap<(u64, u64), Vec<(usize, usize)>> = BTreeMap::new();
    for (ri, &(_, d)) in reqs.iter().enumerate() {
        if d.count == 0 {
            continue;
        }
        let chunks = stream::num_chunks(d.count, stream::CHUNK);
        for c in 0..chunks {
            let len = stream::chunk_len(d.count, stream::CHUNK, c);
            by_chunk
                .entry((d.stream, d.first_chunk + c as u64))
                .or_default()
                .push((ri, len));
        }
    }
    // (stream, chunk) paired with its demanders: (request index, samples needed).
    type ChunkUnit = ((u64, u64), Vec<(usize, usize)>);
    let chunk_units: Vec<ChunkUnit> = by_chunk.into_iter().collect();
    let groups = stream::group_bounds(chunk_units.len(), stream::int_groups());
    let partials: Vec<Vec<Vec<u64>>> = (0..groups.len())
        .into_par_iter()
        .map_init(
            || (Vec::<u32>::new(), Vec::<u32>::new()), // (artifact, hits)
            |(buf, hits), gi| {
                let range = &groups[gi as usize];
                let mut counts: Vec<Vec<u64>> =
                    reqs.iter().map(|&(s, _)| vec![0u64; ks[s]]).collect();
                for u in range.clone() {
                    let ((stream_id, chunk), demanders) = &chunk_units[u];
                    let mut rng = stream::chunk_rng(master, *stream_id, *chunk);
                    let max_len = demanders.iter().map(|&(_, l)| l).max().unwrap_or(0);
                    // Any demander's problem can draw — the contract makes
                    // them interchangeable.
                    let drawer = problems[reqs[demanders[0].0].0];
                    for s in 0..max_len {
                        buf.clear();
                        drawer.draw_artifact(&mut rng, buf);
                        for &(ri, len) in demanders.iter() {
                            if s >= len {
                                continue;
                            }
                            hits.clear();
                            problems[reqs[ri].0].score_artifact(buf, hits);
                            for &i in hits.iter() {
                                counts[ri][i as usize] += 1;
                            }
                        }
                    }
                }
                counts
            },
        )
        .collect();
    let mut totals: Vec<Vec<u64>> = reqs.iter().map(|&(s, _)| vec![0u64; ks[s]]).collect();
    for part in partials {
        for (t, p) in totals.iter_mut().zip(part) {
            for (a, b) in t.iter_mut().zip(p) {
                *a += b;
            }
        }
    }
    totals
}

/// The in-process parallel executor: one fused rayon pass per round, each
/// block drawn through its own problem's sampler. `problems` is indexed
/// like the subscribers.
pub struct LocalExec<'a, P: ?Sized> {
    problems: &'a [&'a P],
}

impl<'a, P: ?Sized> LocalExec<'a, P> {
    /// An executor drawing for `problems`.
    pub fn new(problems: &'a [&'a P]) -> Self {
        LocalExec { problems }
    }
}

impl<A: BlockAcc, P: HrProblem<A> + ?Sized> BlockExec<A> for LocalExec<'_, P> {
    fn run(&mut self, master: u64, reqs: &[(usize, Demand)]) -> Vec<Vec<A>> {
        run_blocks(self.problems, master, reqs)
    }
}

/// The in-process shared-draw executor for [`SharedDraw`] problems over one
/// common sample space. `problems` is indexed like the subscribers.
pub struct LocalSharedExec<'a, P: SharedDraw + ?Sized> {
    problems: &'a [&'a P],
}

impl<'a, P: SharedDraw + ?Sized> LocalSharedExec<'a, P> {
    /// An executor drawing for `problems`.
    pub fn new(problems: &'a [&'a P]) -> Self {
        LocalSharedExec { problems }
    }
}

impl<P: SharedDraw + ?Sized> BlockExec<u64> for LocalSharedExec<'_, P> {
    fn run(&mut self, master: u64, reqs: &[(usize, Demand)]) -> Vec<Vec<u64>> {
        run_shared_blocks(self.problems, master, reqs)
    }
}

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
//! A distributed executor reproduces the local pass bit-exactly from the
//! published unit helpers ([`super::demand_chunks`],
//! [`super::unit_ranges`], [`super::exec_unit`]).

use std::collections::BTreeMap;
use std::fmt;

use rayon::prelude::*;
use saphyra_stats::stream;

use super::batch::run_blocks;
use super::problem::{HrProblem, SharedDraw};
use super::tracker::{BlockAcc, Demand};

/// Failure of a pluggable [`BlockExec`] backend (an unreachable shard, a
/// wire decode error, ...). Local executors never produce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block execution failed: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// Where sample blocks are drawn. One round's demands go in under the
/// pass's `master` seed — one entry per active subscriber, each a pure
/// `(stream, first_chunk, count)` coordinate paired with the subscriber's
/// index in the slice handed to [`super::estimate`] (for the rankers, the
/// original target-set index). Per-subscriber accumulator vectors come
/// back, aligned with `reqs`.
///
/// The contract that makes executors interchangeable **bit-for-bit**: the
/// accumulators returned for a demand must equal the ones
/// [`super::exec_unit`] produces from the same master seed, with `f64`
/// unit partials merged in [`super::unit_ranges`] order. Under that
/// contract local == distributed by construction.
pub trait BlockExec<A: BlockAcc> {
    /// Executes one round of demands.
    fn run(&mut self, master: u64, reqs: &[(usize, Demand)]) -> Result<Vec<Vec<A>>, ExecError>;
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
    fn run(&mut self, master: u64, reqs: &[(usize, Demand)]) -> Result<Vec<Vec<A>>, ExecError> {
        Ok(run_blocks(self.problems, master, reqs))
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
    fn run(&mut self, master: u64, reqs: &[(usize, Demand)]) -> Result<Vec<Vec<u64>>, ExecError> {
        Ok(run_shared_blocks(self.problems, master, reqs))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        demand_chunks, estimate, exec_unit, unit_ranges, ExactPart, HrSampler, LossAcc,
        SaphyraEstimate, Subscriber,
    };
    use super::*;
    use saphyra_stats::{hoeffding_samples, vc_sample_bound};

    /// A "sharded" hit executor built purely from the published unit
    /// helpers: every demand's chunks are split into contiguous per-backend
    /// sub-ranges, each unit runs through [`exec_unit`] with a fresh
    /// sampler, partials sum per demand. Must be bit-identical to the
    /// local pass.
    struct SplitHitExec<'a, P: HrProblem<u64> + ?Sized> {
        problems: &'a [&'a P],
        backends: usize,
    }

    impl<P: HrProblem<u64> + ?Sized> BlockExec<u64> for SplitHitExec<'_, P> {
        fn run(
            &mut self,
            master: u64,
            reqs: &[(usize, Demand)],
        ) -> Result<Vec<Vec<u64>>, ExecError> {
            Ok(reqs
                .iter()
                .map(|&(sub, d)| {
                    let p = self.problems[sub];
                    let mut total = vec![0u64; p.num_hypotheses()];
                    let chunks = demand_chunks(&d);
                    for r in stream::group_bounds(chunks, self.backends) {
                        for (t, x) in total.iter_mut().zip(exec_unit(p, master, &d, r)) {
                            *t += x;
                        }
                    }
                    total
                })
                .collect())
        }
    }

    struct Fixed {
        probs: Vec<f64>,
    }

    struct FixedSampler<'a> {
        probs: &'a [f64],
    }

    impl HrSampler<u64> for FixedSampler<'_> {
        fn sample_into(&mut self, rng: &mut dyn rand::RngCore, hits: &mut Vec<u32>) {
            use rand::Rng as _;
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
            vc_sample_bound(eps_prime, delta, 2)
        }
    }

    struct FixedLoss {
        scales: Vec<f64>,
    }

    struct FixedLossSampler<'a> {
        scales: &'a [f64],
    }

    impl HrSampler<LossAcc> for FixedLossSampler<'_> {
        fn sample_into(&mut self, rng: &mut dyn rand::RngCore, out: &mut Vec<(u32, f64)>) {
            use rand::Rng as _;
            let x: f64 = rng.gen();
            for (i, &s) in self.scales.iter().enumerate() {
                out.push((i as u32, (x * s).min(1.0)));
            }
        }
    }

    impl HrProblem<LossAcc> for FixedLoss {
        fn num_hypotheses(&self) -> usize {
            self.scales.len()
        }
        fn sampler(&self) -> Box<dyn HrSampler<LossAcc> + '_> {
            Box::new(FixedLossSampler {
                scales: &self.scales,
            })
        }
        fn max_samples(&self, eps_prime: f64, delta: f64) -> usize {
            hoeffding_samples(eps_prime, delta, self.scales.len())
        }
    }

    /// Subscribers with an empty exact part, so ε is the per-hypothesis
    /// target on the approximate distribution.
    fn subs<'a, A: BlockAcc>(
        problems: &[&'a dyn HrProblem<A>],
        eps: &[f64],
    ) -> Vec<Subscriber<'a, A>> {
        problems
            .iter()
            .zip(eps)
            .map(|(&problem, &eps)| Subscriber {
                problem,
                exact: ExactPart::trivial(problem.num_hypotheses()),
                eps,
                delta: 0.1,
                adaptive: true,
            })
            .collect()
    }

    fn assert_same_bits(a: &[SaphyraEstimate], b: &[SaphyraEstimate], what: &str) {
        for (a, b) in a.iter().zip(b) {
            let (a, b) = (&a.outcome, &b.outcome);
            assert_eq!(a.samples_used, b.samples_used, "{what}");
            assert_eq!(a.rounds_run, b.rounds_run, "{what}");
            assert_eq!(a.converged_early, b.converged_early, "{what}");
            for (x, y) in a.estimates.iter().zip(&b.estimates) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: estimates diverged");
            }
            assert_eq!(a.achieved_eps.to_bits(), b.achieved_eps.to_bits(), "{what}");
        }
    }

    #[test]
    fn split_hit_exec_is_bit_identical_to_local() {
        let p1 = Fixed {
            probs: vec![0.3, 0.05],
        };
        let p2 = Fixed {
            probs: vec![0.6, 0.2, 0.01],
        };
        let problems: Vec<&Fixed> = vec![&p1, &p2];
        let subs = subs(&[&p1, &p2], &[0.05, 0.08]);
        let local = estimate(&subs, 42, &mut LocalExec::new(&problems)).unwrap();
        for backends in [1usize, 2, 3, 7] {
            let mut exec = SplitHitExec {
                problems: &problems,
                backends,
            };
            let split = estimate(&subs, 42, &mut exec).unwrap();
            assert_same_bits(&local, &split, &format!("{backends} backends"));
        }
    }

    #[test]
    fn split_loss_units_are_bit_identical_to_local() {
        // Unit-level check: recomputing each demand from unit_ranges
        // through exec_unit, merged in unit order, must reproduce the
        // local pass bit-for-bit (f64 association order included).
        let p = FixedLoss {
            scales: vec![0.9, 0.4, 0.1],
        };
        let problems: Vec<&FixedLoss> = vec![&p];
        let subs = subs(&[&p], &[0.05]);
        let local = estimate(&subs, 7, &mut LocalExec::new(&problems)).unwrap();

        struct UnitExec<'a> {
            problems: &'a [&'a FixedLoss],
        }
        impl BlockExec<LossAcc> for UnitExec<'_> {
            fn run(
                &mut self,
                master: u64,
                reqs: &[(usize, Demand)],
            ) -> Result<Vec<Vec<LossAcc>>, ExecError> {
                Ok(reqs
                    .iter()
                    .map(|&(sub, d)| {
                        let p = self.problems[sub];
                        let k = p.num_hypotheses();
                        let mut total = vec![LossAcc::default(); k];
                        for r in unit_ranges::<LossAcc>(k, &d) {
                            let part = exec_unit(p, master, &d, r);
                            for (t, x) in total.iter_mut().zip(&part) {
                                t.add(x);
                            }
                        }
                        total
                    })
                    .collect())
            }
        }
        let mut exec = UnitExec {
            problems: &problems,
        };
        let split = estimate(&subs, 7, &mut exec).unwrap();
        assert_same_bits(&local, &split, "loss units");
    }

    #[test]
    fn exec_error_propagates_out_of_drive() {
        struct Failing;
        impl BlockExec<u64> for Failing {
            fn run(
                &mut self,
                _master: u64,
                _reqs: &[(usize, Demand)],
            ) -> Result<Vec<Vec<u64>>, ExecError> {
                Err(ExecError("backend down".into()))
            }
        }
        let p = Fixed { probs: vec![0.5] };
        let err = estimate(&subs(&[&p], &[0.1]), 1, &mut Failing).unwrap_err();
        assert!(err.0.contains("backend down"));
        assert!(err.to_string().contains("block execution failed"));
    }
}

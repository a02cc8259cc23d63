//! Algorithm 1 end to end: the one round loop.
//!
//! [`estimate`] turns each subscriber's exact part and accuracy target into
//! a [`Tracker`] (per-hypothesis target `ε′ = ε/λ`, line 5), then steps all
//! trackers in lockstep rounds: collect the active subscribers' demands,
//! execute them as one pass through a [`BlockExec`], absorb each block.
//! The schedule itself — pilot, δᵢ allocation, doubling rounds with
//! Bernstein checks, forced `N_max` finish — lives in the tracker. At most
//! `R = ⌈log₂(N_max/N₀)⌉` Bernstein checks run at sizes `N₀, 2N₀, …`; each
//! spends `Σᵢ 2δᵢ = δ/R` of the failure budget (Eq. 13). If no check
//! passes, sampling runs to `N_max`, where Lemma 4's bound guarantees the
//! (ε′, δ)-estimate unconditionally.
//!
//! A solo run is a slice of one subscriber; every drawn value is a pure
//! function of `(master, stream, chunk)`, so a subscriber's result is
//! bit-identical for every thread count, batch composition and executor.

use super::multi::{BlockExec, ExecError};
use super::problem::{ExactPart, HrProblem};
use super::tracker::{AdaptiveOutcome, BlockAcc, Demand, Tracker};
use super::SaphyraEstimate;

/// One subscriber of an estimation pass: a problem, its already-computed
/// exact part, and its accuracy target on the *combined* risk.
pub struct Subscriber<'a, A: BlockAcc> {
    /// The approximate-subspace problem.
    pub problem: &'a dyn HrProblem<A>,
    /// Output of the `Exact(·)` oracle for this subscriber.
    pub exact: ExactPart,
    /// Target accuracy ε on the combined risk.
    pub eps: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// When false, skip the pilot pass and all Bernstein checks and draw
    /// exactly `N_max` samples (the fixed-size VC-bound estimator, which
    /// the `ablation` bench binary compares against adaptive stopping).
    pub adaptive: bool,
}

/// Runs Algorithm 1 for every subscriber against one block executor and
/// assembles Eq. 8, `ℓᵢ = ℓ̂ᵢ + λ·ℓ̃ᵢ`, per subscriber.
///
/// A subscriber whose exact part covers the whole space (`λ = 1 − λ̂ ≈ 0`)
/// never samples. The others estimate the approximate subspace to
/// `ε′ = ε/λ` under the shared `master` seed; the executor receives each
/// demand with the subscriber's index in `subs`. An executor failure (e.g.
/// an unreachable shard) aborts the whole pass.
pub fn estimate<A: BlockAcc>(
    subs: &[Subscriber<'_, A>],
    master: u64,
    exec: &mut dyn BlockExec<A>,
) -> Result<Vec<SaphyraEstimate>, ExecError> {
    let lambdas: Vec<f64> = subs
        .iter()
        .map(|s| (1.0 - s.exact.lambda_hat).clamp(0.0, 1.0))
        .collect();
    let mut trackers: Vec<Option<Tracker<A>>> = subs
        .iter()
        .zip(&lambdas)
        .map(|(s, &lambda)| {
            let k = s.problem.num_hypotheses();
            assert_eq!(s.exact.exact_risks.len(), k, "exact part size mismatch");
            (lambda > f64::EPSILON).then(|| {
                let eps = s.eps / lambda;
                let nmax = s.problem.max_samples(eps, s.delta);
                Tracker::new(k, eps, s.delta, s.adaptive, nmax)
            })
        })
        .collect();
    loop {
        let reqs: Vec<(usize, Demand)> = trackers
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Some((i, t.as_ref()?.demand()?)))
            .collect();
        if reqs.is_empty() {
            break;
        }
        let blocks = exec.run(master, &reqs)?;
        debug_assert_eq!(blocks.len(), reqs.len());
        for (&(i, _), block) in reqs.iter().zip(&blocks) {
            if let Some(t) = trackers[i].as_mut() {
                t.absorb(block);
            }
        }
    }
    Ok(subs
        .iter()
        .zip(lambdas)
        .zip(trackers)
        .map(|((s, lambda), tracker)| {
            let exact = &s.exact.exact_risks;
            match tracker {
                Some(t) => {
                    let outcome = t.finish();
                    SaphyraEstimate {
                        combined: exact
                            .iter()
                            .zip(&outcome.estimates)
                            .map(|(&e, &a)| e + lambda * a)
                            .collect(),
                        exact_part: exact.clone(),
                        approx_part: outcome.estimates.clone(),
                        lambda,
                        outcome,
                    }
                }
                // The exact part covers the whole space.
                None => SaphyraEstimate {
                    combined: exact.clone(),
                    exact_part: exact.clone(),
                    approx_part: vec![0.0; exact.len()],
                    lambda,
                    outcome: AdaptiveOutcome::empty(),
                },
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::super::problem::HrSampler;
    use super::super::LocalExec;
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};
    use saphyra_stats::vc_sample_bound;

    /// Synthetic problem: k independent Bernoulli hypotheses with known
    /// hit probabilities.
    struct MockProblem {
        probs: Vec<f64>,
        vc: usize,
    }

    struct MockSampler<'a> {
        probs: &'a [f64],
    }

    impl HrSampler<u64> for MockSampler<'_> {
        fn sample_into(&mut self, rng: &mut dyn RngCore, hits: &mut Vec<u32>) {
            for (i, &p) in self.probs.iter().enumerate() {
                if rng.gen::<f64>() < p {
                    hits.push(i as u32);
                }
            }
        }
    }

    impl HrProblem<u64> for MockProblem {
        fn num_hypotheses(&self) -> usize {
            self.probs.len()
        }
        fn sampler(&self) -> Box<dyn HrSampler<u64> + '_> {
            Box::new(MockSampler { probs: &self.probs })
        }
        fn max_samples(&self, eps_prime: f64, delta: f64) -> usize {
            vc_sample_bound(eps_prime, delta, self.vc.max(1))
        }
    }

    /// A solo run on the approximate distribution alone (empty exact
    /// part, so ε is the per-hypothesis target ε′), seeded like a caller's
    /// `rng` would seed it.
    fn run(p: &MockProblem, eps: f64, delta: f64, seed: u64) -> AdaptiveOutcome {
        let sub = Subscriber {
            problem: p,
            exact: ExactPart::trivial(p.probs.len()),
            eps,
            delta,
            adaptive: true,
        };
        let master = rand::rngs::StdRng::seed_from_u64(seed).next_u64();
        estimate(&[sub], master, &mut LocalExec::new(&[p]))
            .expect("local execution is infallible")
            .remove(0)
            .outcome
    }

    #[test]
    fn estimates_are_accurate() {
        let p = MockProblem {
            probs: vec![0.5, 0.1, 0.02, 0.0],
            vc: 2,
        };
        let out = run(&p, 0.05, 0.05, 1);
        for (est, truth) in out.estimates.iter().zip(&p.probs) {
            assert!((est - truth).abs() < 0.05, "est {est} truth {truth}");
        }
        assert!(out.samples_used >= out.n0);
        assert!(out.samples_used <= out.nmax);
    }

    #[test]
    fn zero_variance_stops_at_pilot_budget() {
        // All-zero hypotheses: variance 0, the first Bernstein check passes.
        let p = MockProblem {
            probs: vec![0.0; 8],
            vc: 3,
        };
        let out = run(&p, 0.05, 0.05, 2);
        assert!(out.converged_early);
        assert_eq!(out.samples_used, out.n0);
        assert_eq!(out.rounds_run, 1);
        assert!(out.estimates.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn low_variance_needs_fewer_samples_than_high_variance() {
        let low = MockProblem {
            probs: vec![0.005; 4],
            vc: 4,
        };
        let high = MockProblem {
            probs: vec![0.5; 4],
            vc: 4,
        };
        let out_low = run(&low, 0.02, 0.05, 3);
        let out_high = run(&high, 0.02, 0.05, 4);
        assert!(
            out_low.samples_used < out_high.samples_used,
            "low {} high {}",
            out_low.samples_used,
            out_high.samples_used
        );
    }

    #[test]
    fn low_variance_converges_in_first_round() {
        // Rare hypotheses at a small ε: at realistic accuracy targets the
        // Bernstein linear term is negligible and the pilot budget already
        // satisfies the check (n0 ≈ 3.7k here, variance ~1e-3).
        let p = MockProblem {
            probs: vec![0.001, 0.002],
            vc: 2,
        };
        let out = run(&p, 0.02, 0.05, 5);
        assert!(out.converged_early, "achieved {}", out.achieved_eps);
        assert_eq!(out.samples_used, out.n0);
        assert_eq!(out.rounds_run, 1);
    }

    #[test]
    fn respects_nmax_cap() {
        // Very tight eps with tiny delta: hits the VC cap.
        let p = MockProblem {
            probs: vec![0.5],
            vc: 1,
        };
        let out = run(&p, 0.2, 0.3, 6);
        assert!(out.samples_used <= out.nmax);
        assert!(out.nmax >= out.n0);
    }

    #[test]
    fn empty_problem() {
        let p = MockProblem {
            probs: vec![],
            vc: 1,
        };
        let out = run(&p, 0.05, 0.05, 7);
        assert!(out.estimates.is_empty());
        assert_eq!(out.samples_used, 0);
    }

    #[test]
    fn higher_vc_means_larger_worst_case_budget() {
        let a = MockProblem {
            probs: vec![0.5],
            vc: 1,
        };
        let b = MockProblem {
            probs: vec![0.5],
            vc: 20,
        };
        let oa = run(&a, 0.05, 0.05, 8);
        let ob = run(&b, 0.05, 0.05, 8);
        assert!(ob.nmax > oa.nmax);
    }

    #[test]
    fn outcome_is_bit_identical_across_thread_counts() {
        let p = MockProblem {
            probs: vec![0.4, 0.07, 0.9, 0.0],
            vc: 3,
        };
        let in_pool = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| run(&p, 0.03, 0.1, 99))
        };
        let reference = in_pool(1);
        for threads in [2, 4, 8] {
            let out = in_pool(threads);
            assert_eq!(out.estimates, reference.estimates, "{threads} threads");
            assert_eq!(out.samples_used, reference.samples_used);
            assert_eq!(out.rounds_run, reference.rounds_run);
            assert_eq!(out.achieved_eps, reference.achieved_eps);
        }
    }
}

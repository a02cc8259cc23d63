//! Fractional-loss extension of the framework (the paper's future-work
//! direction: "extending the framework to other centrality measures such as
//! closeness centrality", §VI).
//!
//! Algorithm 1 only needs losses in `[0, 1]` — nothing about it is specific
//! to 0-1 losses except the Bernoulli variance shortcut. [`LossAcc`] is the
//! accumulator that generalizes it to bounded real losses: per-hypothesis
//! sums and sums of squares give the unbiased sample variance for the
//! empirical-Bernstein check. The worst-case budget falls back to
//! Hoeffding + union bound over the `k` hypotheses (the
//! `O(1/ε²(ln k + ln 1/δ))` of §II-A) since the VC argument of Lemma 4 does
//! not apply to real-valued classes; problems supply it through
//! [`super::HrProblem::max_samples`].
//!
//! Fractional losses run through the same round loop and executors as 0-1
//! losses; only the `f64` fold order needs care. Every demand folds in
//! thread-count-independent groups ([`super::unit_ranges`]) that merge
//! left-to-right, so results are bit-identical for every thread count.

use saphyra_stats::stream;

use super::tracker::BlockAcc;

/// Streaming first and second moments of one hypothesis' losses.
///
/// Public so remote executors can carry per-unit partials over the wire:
/// the pair merges exactly (field-wise sums) and, merged in the fixed unit
/// order of [`super::unit_ranges`], reproduces the local `f64` association
/// order bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LossAcc {
    /// `Σ x`.
    pub sum: f64,
    /// `Σ x²`.
    pub sumsq: f64,
}

impl BlockAcc for LossAcc {
    type Hit = (u32, f64);
    fn zero() -> Self {
        LossAcc::default()
    }
    fn add(&mut self, other: &Self) {
        self.sum += other.sum;
        self.sumsq += other.sumsq;
    }
    #[inline]
    fn record(accs: &mut [Self], (i, x): (u32, f64)) {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&x), "loss out of range: {x}");
        let acc = &mut accs[i as usize];
        acc.sum += x;
        acc.sumsq += x * x;
    }
    /// `(Σx² − (Σx)²/N) / (N−1)`.
    fn variance(&self, n: usize) -> f64 {
        if n < 2 {
            return 0.0;
        }
        ((self.sumsq - self.sum * self.sum / n as f64) / (n as f64 - 1.0)).max(0.0)
    }
    fn mean(&self, n: usize) -> f64 {
        self.sum / n as f64
    }
    /// `f64` sums are association-sensitive: a thread-count-independent
    /// group count, capped by accumulator memory.
    fn fold_groups(k: usize) -> usize {
        stream::f64_groups(k * std::mem::size_of::<LossAcc>())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{estimate, ExactPart, HrProblem, HrSampler, LocalExec, Subscriber};
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};
    use saphyra_stats::hoeffding_samples;

    /// Hypotheses whose losses are `value` with probability `p`, else 0.
    struct Mock {
        params: Vec<(f64, f64)>, // (p, value)
    }

    struct MockSampler<'a> {
        params: &'a [(f64, f64)],
    }

    impl HrSampler<LossAcc> for MockSampler<'_> {
        fn sample_into(&mut self, rng: &mut dyn RngCore, out: &mut Vec<(u32, f64)>) {
            for (i, &(p, v)) in self.params.iter().enumerate() {
                if rng.gen::<f64>() < p {
                    out.push((i as u32, v));
                }
            }
        }
    }

    impl HrProblem<LossAcc> for Mock {
        fn num_hypotheses(&self) -> usize {
            self.params.len()
        }
        fn sampler(&self) -> Box<dyn HrSampler<LossAcc> + '_> {
            Box::new(MockSampler {
                params: &self.params,
            })
        }
        fn max_samples(&self, eps_prime: f64, delta: f64) -> usize {
            hoeffding_samples(eps_prime, delta, self.params.len())
        }
    }

    /// One subscriber through the local executor, seeded like a caller's
    /// `rng` would seed it.
    fn run(
        p: &Mock,
        exact: ExactPart,
        (eps, delta): (f64, f64),
        adaptive: bool,
        seed: u64,
    ) -> super::super::SaphyraEstimate {
        let sub = Subscriber {
            problem: p,
            exact,
            eps,
            delta,
            adaptive,
        };
        let master = rand::rngs::StdRng::seed_from_u64(seed).next_u64();
        estimate(&[sub], master, &mut LocalExec::new(&[p]))
            .expect("local execution is infallible")
            .remove(0)
    }

    fn trivial(p: &Mock) -> ExactPart {
        ExactPart::trivial(p.params.len())
    }

    #[test]
    fn estimates_converge_to_expectations() {
        let p = Mock {
            params: vec![(0.5, 0.4), (0.1, 1.0), (0.9, 0.05), (0.0, 1.0)],
        };
        let out = run(&p, trivial(&p), (0.02, 0.05), true, 1).outcome;
        let expect = [0.2, 0.1, 0.045, 0.0];
        for (e, t) in out.estimates.iter().zip(expect) {
            assert!((e - t).abs() < 0.02, "est {e} expect {t}");
        }
    }

    #[test]
    fn zero_loss_hypotheses_converge_fast() {
        let p = Mock {
            params: vec![(0.0, 1.0); 5],
        };
        let out = run(&p, trivial(&p), (0.05, 0.05), true, 2).outcome;
        assert!(out.converged_early);
        assert_eq!(out.samples_used, out.n0);
    }

    #[test]
    fn fixed_budget_path() {
        let p = Mock {
            params: vec![(0.3, 0.5)],
        };
        let out = run(&p, trivial(&p), (0.1, 0.1), false, 3).outcome;
        assert!(!out.converged_early);
        assert_eq!(out.samples_used, out.nmax);
        assert!((out.estimates[0] - 0.15).abs() < 0.05);
    }

    #[test]
    fn combination_matches_exact_plus_lambda_weighted() {
        let p = Mock {
            params: vec![(0.4, 0.5), (0.2, 0.25)],
        };
        let exact = ExactPart {
            lambda_hat: 0.25,
            exact_risks: vec![0.05, 0.01],
        };
        let est = run(&p, exact.clone(), (0.02, 0.05), true, 4);
        assert!((est.lambda - 0.75).abs() < 1e-12);
        for i in 0..2 {
            let expect = exact.exact_risks[i] + est.lambda * est.approx_part[i];
            assert!((est.combined[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn full_exact_coverage_skips_sampling() {
        let p = Mock {
            params: vec![(0.4, 0.5)],
        };
        let exact = ExactPart {
            lambda_hat: 1.0,
            exact_risks: vec![0.2],
        };
        let est = run(&p, exact, (0.02, 0.05), true, 5);
        assert_eq!(est.outcome.samples_used, 0);
        assert_eq!(est.combined, vec![0.2]);
    }

    #[test]
    fn weighted_outcome_is_bit_identical_across_thread_counts() {
        let p = Mock {
            params: vec![(0.5, 0.8), (0.05, 0.3), (0.9, 0.1)],
        };
        let in_pool = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| run(&p, trivial(&p), (0.03, 0.1), true, 42).outcome)
        };
        let reference = in_pool(1);
        for threads in [2, 4, 8] {
            let out = in_pool(threads);
            // f64 accumulators merge in a fixed group order: bit equality,
            // not approximate equality.
            assert_eq!(out.estimates, reference.estimates, "{threads} threads");
            assert_eq!(out.samples_used, reference.samples_used);
            assert_eq!(out.achieved_eps, reference.achieved_eps);
        }
    }
}

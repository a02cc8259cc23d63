//! The generic SaPHyRa framework (paper §III): hypothesis-ranking problems,
//! the sample-space-partitioning estimator (Algorithm 1), and the
//! variance-reduction analysis (Claim 8).
//!
//! [`estimate`] is the one driver: it runs every [`Subscriber`] — a
//! problem, its exact part and its accuracy target — through Algorithm 1
//! against a [`BlockExec`], which draws each round's demands locally
//! ([`LocalExec`], [`LocalSharedExec`]) or remotely. A solo run is a slice
//! of one subscriber.

mod adaptive;
mod batch;
mod multi;
mod problem;
mod tracker;
mod variance;
mod weighted;

pub use adaptive::{estimate, Subscriber};
pub use batch::{demand_chunks, exec_unit, unit_ranges};
pub use multi::{BlockExec, ExecError, LocalExec, LocalSharedExec};
pub use problem::{ExactPart, HrProblem, HrSampler, SharedDraw};
pub use tracker::{AdaptiveOutcome, BlockAcc, Demand};
pub use variance::{partitioned_variance_ratio, variance_reduction_factor};
pub use weighted::LossAcc;

/// The combined output of the SaPHyRa framework on one problem instance.
#[derive(Debug, Clone)]
pub struct SaphyraEstimate {
    /// Combined risks `ℓᵢ = ℓ̂ᵢ + λ·ℓ̃ᵢ` (Eq. 8) — the quantities to rank by.
    pub combined: Vec<f64>,
    /// Exact-subspace risks `ℓ̂ᵢ` (Eq. 9).
    pub exact_part: Vec<f64>,
    /// Approximate-subspace estimates `ℓ̃ᵢ` (mean loss under `D̃`).
    pub approx_part: Vec<f64>,
    /// `λ = 1 − λ̂`, the probability mass of the approximate subspace.
    pub lambda: f64,
    /// Sampling telemetry (empty outcome when `λ ≈ 0` and sampling was
    /// skipped entirely).
    pub outcome: AdaptiveOutcome,
}

impl SaphyraEstimate {
    /// Hypothesis indices sorted best-first (highest combined risk first,
    /// ties by index — the paper's id tie-break).
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.combined.len()).collect();
        idx.sort_by(|&a, &b| {
            self.combined[b]
                .partial_cmp(&self.combined[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};

    struct Mock {
        probs: Vec<f64>,
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

    impl HrProblem<u64> for Mock {
        fn num_hypotheses(&self) -> usize {
            self.probs.len()
        }
        fn sampler(&self) -> Box<dyn HrSampler<u64> + '_> {
            Box::new(MockSampler { probs: &self.probs })
        }
        fn max_samples(&self, eps_prime: f64, delta: f64) -> usize {
            saphyra_stats::vc_sample_bound(eps_prime, delta, 2)
        }
    }

    /// One subscriber through the local executor; the caller's `rng`
    /// contributes the master seed.
    fn solo(p: &Mock, exact: &ExactPart, eps: f64, delta: f64, seed: u64) -> SaphyraEstimate {
        let sub = Subscriber {
            problem: p,
            exact: exact.clone(),
            eps,
            delta,
            adaptive: true,
        };
        let master = rand::rngs::StdRng::seed_from_u64(seed).next_u64();
        estimate(&[sub], master, &mut LocalExec::new(&[p]))
            .expect("local execution is infallible")
            .remove(0)
    }

    #[test]
    fn combination_rule_eq8() {
        // D̃ hit probabilities R̃; with λ = 0.5 the combined risk must be
        // ℓ̂ + λ·ℓ̃ and approximate the true risk ℓ̂ + λ·R̃.
        let p = Mock {
            probs: vec![0.4, 0.1],
        };
        let exact = ExactPart {
            lambda_hat: 0.5,
            exact_risks: vec![0.05, 0.2],
        };
        let est = solo(&p, &exact, 0.02, 0.05, 1);
        assert_eq!(est.lambda, 0.5);
        for i in 0..2 {
            let expect_combined = exact.exact_risks[i] + 0.5 * est.approx_part[i];
            assert!((est.combined[i] - expect_combined).abs() < 1e-12);
            let truth = exact.exact_risks[i] + 0.5 * p.probs[i];
            assert!((est.combined[i] - truth).abs() < 0.02, "hyp {i}");
        }
    }

    #[test]
    fn ranking_orders_by_combined_risk() {
        let p = Mock {
            probs: vec![0.0, 0.0, 0.0],
        };
        let exact = ExactPart {
            lambda_hat: 0.9,
            exact_risks: vec![0.1, 0.3, 0.2],
        };
        let est = solo(&p, &exact, 0.05, 0.1, 2);
        assert_eq!(est.ranking(), vec![1, 2, 0]);
    }

    #[test]
    fn empty_approximate_subspace_short_circuits() {
        let p = Mock { probs: vec![0.7] };
        let exact = ExactPart {
            lambda_hat: 1.0,
            exact_risks: vec![0.42],
        };
        let est = solo(&p, &exact, 0.01, 0.01, 3);
        assert_eq!(est.outcome.samples_used, 0);
        assert_eq!(est.combined, vec![0.42]);
    }

    #[test]
    fn tie_break_is_by_index() {
        let est = SaphyraEstimate {
            combined: vec![0.5, 0.5, 0.7],
            exact_part: vec![],
            approx_part: vec![],
            lambda: 0.0,
            outcome: AdaptiveOutcome::empty(),
        };
        assert_eq!(est.ranking(), vec![2, 0, 1]);
    }
}

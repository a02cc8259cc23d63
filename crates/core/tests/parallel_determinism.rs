//! Cross-thread-count determinism of the parallel sampling engine, and
//! distributional agreement between the batch path and the problem's own
//! single-sample path.
//!
//! The contract under test: a fixed master seed fully determines every
//! estimate — `RAYON_NUM_THREADS`, pool sizes, and scheduling have zero
//! influence on the bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use saphyra::bc::{build_a_index, BcApproxProblem, BcDecomposition, Outreach, SaphyraBcConfig};
use saphyra::framework::{estimate, AdaptiveOutcome, ExactPart, HrProblem, LocalExec, Subscriber};
use saphyra::kpath::KPathApproxProblem;
use saphyra_graph::{fixtures, Bicomps, BlockCutTree};

/// Algorithm 1 on one problem's approximate distribution alone (empty
/// exact part, so `eps` is the per-hypothesis target); `rng` contributes
/// the master seed.
fn estimate_solo(problem: &dyn HrProblem<u64>, eps: f64, rng: &mut StdRng) -> AdaptiveOutcome {
    let sub = Subscriber {
        problem,
        exact: ExactPart::trivial(problem.num_hypotheses()),
        eps,
        delta: 0.1,
        adaptive: true,
    };
    let master = rng.next_u64();
    estimate(&[sub], master, &mut LocalExec::new(&[problem]))
        .unwrap()
        .remove(0)
        .outcome
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// ISSUE acceptance: `estimate` with the same seed yields identical
/// `AdaptiveOutcome.estimates` at 1 thread vs 8 threads, on the real
/// `Gen_bc` problem.
#[test]
fn estimate_risks_identical_at_1_and_8_threads() {
    let g = fixtures::grid_graph(8, 7);
    let bic = Bicomps::compute(&g);
    let tree = BlockCutTree::compute(&bic);
    let outreach = Outreach::compute(&bic, &tree);
    let targets: Vec<u32> = vec![9, 17, 25, 33, 41];
    let a_index = build_a_index(g.num_nodes(), &targets);
    let prob = BcApproxProblem::new(&g, &bic, &outreach, &targets, &a_index, 3);

    let run = |threads: usize| {
        in_pool(threads, || {
            let mut rng = StdRng::seed_from_u64(2022);
            estimate_solo(&prob, 0.05, &mut rng)
        })
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(one.estimates, eight.estimates);
    assert_eq!(one.samples_used, eight.samples_used);
    assert_eq!(one.rounds_run, eight.rounds_run);
    assert_eq!(one.achieved_eps, eight.achieved_eps);
    assert_eq!(one.converged_early, eight.converged_early);
}

/// The full SaPHyRa_bc pipeline — index build, Exact_bc, rejection
/// sampling, Bernstein stopping — is thread-count-invariant end to end.
#[test]
fn rank_subset_identical_across_thread_counts() {
    let g = fixtures::lollipop_graph(8, 8);
    let dec = BcDecomposition::compute(&g);
    let sets = vec![(0..16).collect::<Vec<u32>>()];
    let cfg = SaphyraBcConfig::new(0.05, 0.1);
    let run = |threads: usize| {
        in_pool(threads, || {
            let mut rng = StdRng::seed_from_u64(7);
            dec.rank(&g, &sets, &cfg, &mut rng, None).unwrap().remove(0)
        })
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        let est = run(threads);
        assert_eq!(est.bc, reference.bc, "{threads} threads");
        assert_eq!(est.stats.samples, reference.stats.samples);
        assert_eq!(est.stats.rejected, reference.stats.rejected);
        assert_eq!(est.ranking(), reference.ranking());
    }
}

/// Pearson χ² statistic over per-hypothesis (hit, miss) tables.
fn chi_square_hits(counts_a: &[u64], counts_b: &[u64], trials: u64) -> f64 {
    let mut chi2 = 0.0;
    for (&a, &b) in counts_a.iter().zip(counts_b) {
        // 2x2 homogeneity table per hypothesis: (hit, miss) x (batch, legacy).
        let table = [
            [a as f64, (trials - a) as f64],
            [b as f64, (trials - b) as f64],
        ];
        let total = 2.0 * trials as f64;
        for j in 0..2 {
            let col: f64 = table[0][j] + table[1][j];
            if col == 0.0 {
                continue;
            }
            for row in &table {
                let expect = row.iter().sum::<f64>() * col / total;
                if expect > 0.0 {
                    chi2 += (row[j] - expect).powi(2) / expect;
                }
            }
        }
    }
    chi2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ISSUE satellite: the batch sampler and the problem's own
    /// single-sample rejection path draw from the same distribution — χ²
    /// homogeneity on hit counts over a fixed small graph stays below the
    /// critical value.
    #[test]
    fn batch_and_legacy_paths_agree_in_distribution(seed in 0u64..1000) {
        let g = fixtures::grid_graph(5, 4);
        let bic = Bicomps::compute(&g);
        let tree = BlockCutTree::compute(&bic);
        let outreach = Outreach::compute(&bic, &tree);
        let targets: Vec<u32> = vec![6, 7, 12, 13];
        let a_index = build_a_index(g.num_nodes(), &targets);
        let mut prob = BcApproxProblem::new(&g, &bic, &outreach, &targets, &a_index, 3);
        let trials = 20_000u64;

        let mut batch = vec![0u64; targets.len()];
        {
            let mut sampler = prob.sampler();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut hits = Vec::new();
            for _ in 0..trials {
                hits.clear();
                sampler.sample_into(&mut rng, &mut hits);
                for &h in &hits { batch[h as usize] += 1; }
            }
        }
        let mut legacy = vec![0u64; targets.len()];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        for _ in 0..trials {
            let path = prob.sample_approx_path(&mut rng);
            for &v in &path[1..path.len() - 1] {
                if let Some(h) = targets.iter().position(|&t| t == v) { legacy[h] += 1; }
            }
        }
        // 4 hypotheses x 1 dof each; χ²(4 dof) critical value at
        // p = 0.001 is 18.47. A systematic distribution mismatch blows
        // far past this for 20k trials.
        let chi2 = chi_square_hits(&batch, &legacy, trials);
        prop_assert!(chi2 < 18.47, "chi2 {} (batch {:?} legacy {:?})", chi2, batch, legacy);
    }

    /// Determinism is a property, not a special case: any seed and any
    /// target accuracy produce thread-count-invariant k-path estimates.
    #[test]
    fn kpath_estimates_thread_invariant(seed in 0u64..500, eps_i in 3u32..10) {
        let g = fixtures::grid_graph(6, 5);
        let targets: Vec<u32> = vec![7, 8, 14, 21, 22];
        let prob = KPathApproxProblem::new(&g, &targets, 5);
        let eps = eps_i as f64 / 100.0;
        let one = in_pool(1, || {
            let mut rng = StdRng::seed_from_u64(seed);
            estimate_solo(&prob, eps, &mut rng)
        });
        let many = in_pool(7, || {
            let mut rng = StdRng::seed_from_u64(seed);
            estimate_solo(&prob, eps, &mut rng)
        });
        prop_assert_eq!(one.estimates, many.estimates);
        prop_assert_eq!(one.samples_used, many.samples_used);
    }
}

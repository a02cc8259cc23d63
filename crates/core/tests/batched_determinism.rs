//! Bit-identity of the batched (multi-subscriber) estimators against solo
//! runs — the core half of the cross-request batching contract.
//!
//! The property: batching is *observationally invisible*. For every
//! measure, every subscriber of a batched run gets exactly the bits —
//! estimates, sample counts, achieved ε, telemetry — it would have gotten
//! running alone with the same seed, regardless of who else is in the
//! batch and of the thread count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use saphyra::bc::{build_a_index, BcApproxProblem, BcDecomposition, Outreach, SaphyraBcConfig};
use saphyra::closeness::rank_harmonic;
use saphyra::framework::{estimate, ExactPart, LocalExec, Subscriber};
use saphyra::kpath::rank_kpath;
use saphyra_graph::{fixtures, Bicomps, BlockCutTree};

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Disjoint target sets covering distinct regions of a 6x6 grid.
fn grid_sets() -> Vec<Vec<u32>> {
    vec![vec![0, 1, 6, 7], vec![14, 15, 20, 21], vec![28, 29, 34, 35]]
}

/// The raw driver on three subscribers vs. solo `estimate`, on the real `Gen_bc`
/// problem (personalized rejection: fused scheduling, no draw sharing).
/// Subscribers carry *different* accuracy targets, so they detach at
/// different rounds — the stream must keep serving the stricter ones.
#[test]
fn bc_multi_outcomes_match_solo_runs() {
    let g = fixtures::grid_graph(6, 6);
    let bic = Bicomps::compute(&g);
    let tree = BlockCutTree::compute(&bic);
    let outreach = Outreach::compute(&bic, &tree);
    let sets = grid_sets();
    let a_indexes: Vec<Vec<u32>> = sets
        .iter()
        .map(|t| build_a_index(g.num_nodes(), t))
        .collect();
    let probs: Vec<BcApproxProblem> = sets
        .iter()
        .zip(&a_indexes)
        .map(|(t, ai)| BcApproxProblem::new(&g, &bic, &outreach, t, ai, 3))
        .collect();
    let prob_refs: Vec<&BcApproxProblem> = probs.iter().collect();
    let eps = [0.10, 0.05, 0.03];
    let sub = |i: usize| Subscriber {
        problem: prob_refs[i],
        exact: ExactPart::trivial(sets[i].len()),
        eps: eps[i],
        delta: 0.1,
        adaptive: true,
    };
    let subs: Vec<Subscriber<u64>> = (0..3).map(sub).collect();
    let master = StdRng::seed_from_u64(2022).next_u64();

    for threads in [1, 2, 4] {
        let batched = in_pool(threads, || {
            estimate(&subs, master, &mut LocalExec::new(&prob_refs))
        });
        for (i, out) in batched.iter().enumerate() {
            // Solo run with an rng yielding the same master seed.
            let solo = in_pool(threads, || {
                let mut rng = StdRng::seed_from_u64(2022);
                let exec = &mut LocalExec::new(&prob_refs[i..=i]);
                estimate(&[sub(i)], rng.next_u64(), exec).remove(0)
            });
            let (out, solo) = (&out.outcome, &solo.outcome);
            assert_eq!(out.estimates, solo.estimates, "sub {i}, {threads} threads");
            assert_eq!(out.samples_used, solo.samples_used, "sub {i}");
            assert_eq!(out.rounds_run, solo.rounds_run, "sub {i}");
            assert_eq!(out.achieved_eps, solo.achieved_eps, "sub {i}");
            assert_eq!(out.converged_early, solo.converged_early, "sub {i}");
        }
    }
}

/// End-to-end BC ranking: every set at once vs. each set alone,
/// including the telemetry (samples, rejections, ε_inner), across
/// {1, 2, 4} threads — a batch builds its per-set prologues in parallel.
#[test]
fn bc_rank_subset_multi_matches_solo() {
    let g = fixtures::grid_graph(6, 6);
    let dec = BcDecomposition::compute(&g);
    let sets = grid_sets();
    let cfg = SaphyraBcConfig::new(0.05, 0.1);
    for threads in [1, 2, 4] {
        let batched = in_pool(threads, || {
            let mut rng = StdRng::seed_from_u64(11);
            dec.rank(&g, &sets, &cfg, &mut rng)
        });
        assert_eq!(batched.len(), sets.len());
        for (i, set) in sets.iter().enumerate() {
            let solo = in_pool(threads, || {
                let mut rng = StdRng::seed_from_u64(11);
                dec.rank(&g, std::slice::from_ref(set), &cfg, &mut rng)
                    .remove(0)
            });
            assert_eq!(batched[i].bc, solo.bc, "set {i}, {threads} threads");
            assert_eq!(batched[i].bca_part, solo.bca_part, "set {i}");
            assert_eq!(batched[i].exact_path_part, solo.exact_path_part);
            assert_eq!(batched[i].approx_part, solo.approx_part);
            assert_eq!(batched[i].stats.samples, solo.stats.samples);
            assert_eq!(batched[i].stats.eps_inner, solo.stats.eps_inner);
            assert_eq!(batched[i].stats.lambda_hat, solo.stats.lambda_hat);
        }
    }
}

/// A batch member with no PISP mass (an isolated target) takes the
/// pure-bcₐ early path without perturbing the other members, across
/// {1, 2, 4} threads.
#[test]
fn bc_multi_handles_no_pisp_members() {
    let g = fixtures::disconnected_mix();
    let dec = BcDecomposition::compute(&g);
    let sets: Vec<Vec<u32>> = vec![vec![5], vec![0, 1, 3]];
    let cfg = SaphyraBcConfig::new(0.1, 0.1);
    for threads in [1, 2, 4] {
        let batched = in_pool(threads, || {
            let mut rng = StdRng::seed_from_u64(3);
            dec.rank(&g, &sets, &cfg, &mut rng)
        });
        for (i, set) in sets.iter().enumerate() {
            let solo = in_pool(threads, || {
                let mut rng = StdRng::seed_from_u64(3);
                dec.rank(&g, std::slice::from_ref(set), &cfg, &mut rng)
                    .remove(0)
            });
            assert_eq!(batched[i].bc, solo.bc, "set {i}, {threads} threads");
            assert_eq!(batched[i].stats.samples, solo.stats.samples, "set {i}");
        }
        assert_eq!(batched[0].bc, vec![0.0]);
        assert_eq!(batched[0].stats.samples, 0);
    }
}

/// Harmonic batching (weighted losses, fused pass): per-set results are
/// bit-identical to solo runs, and a degenerate `A = V` member degrades to
/// the exact path exactly as it does solo.
#[test]
fn harmonic_multi_matches_solo_including_degenerate() {
    let g = fixtures::grid_graph(5, 5);
    let mut sets = grid_sets();
    sets.truncate(2);
    sets.push(g.nodes().collect()); // A = V: no approximate subspace
    let batched = {
        let mut rng = StdRng::seed_from_u64(17);
        rank_harmonic(&g, &sets, 0.05, 0.1, &mut rng)
    };
    for (i, set) in sets.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(17);
        let solo = rank_harmonic(&g, std::slice::from_ref(set), 0.05, 0.1, &mut rng).remove(0);
        assert_eq!(batched[i].hc, solo.hc, "set {i}");
        assert_eq!(
            batched[i].inner.outcome.samples_used,
            solo.inner.outcome.samples_used
        );
        assert_eq!(
            batched[i].inner.outcome.achieved_eps,
            solo.inner.outcome.achieved_eps
        );
    }
    assert_eq!(batched[2].inner.outcome.samples_used, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ISSUE satellite: a multi-subscriber batched k-path run — *shared*
    /// draws, one walk stream scoring every subscriber — produces
    /// bit-identical `(est, eps)` to independent solo runs per target set,
    /// across {1, 2, 4} threads.
    #[test]
    fn kpath_shared_batch_matches_solo(seed in 0u64..500, eps_i in 4u32..10) {
        let g = fixtures::grid_graph(6, 6);
        let sets = grid_sets();
        let eps = eps_i as f64 / 100.0;
        for threads in [1usize, 2, 4] {
            let batched = in_pool(threads, || {
                let mut rng = StdRng::seed_from_u64(seed);
                rank_kpath(&g, &sets, 6, eps, 0.1, &mut rng)
            });
            for (i, set) in sets.iter().enumerate() {
                let solo = in_pool(threads, || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    rank_kpath(&g, std::slice::from_ref(set), 6, eps, 0.1, &mut rng).remove(0)
                });
                prop_assert_eq!(&batched[i].kpc, &solo.kpc, "set {} threads {}", i, threads);
                prop_assert_eq!(
                    batched[i].inner.outcome.samples_used,
                    solo.inner.outcome.samples_used
                );
                prop_assert_eq!(
                    batched[i].inner.outcome.achieved_eps,
                    solo.inner.outcome.achieved_eps
                );
            }
        }
    }
}

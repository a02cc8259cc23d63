//! SaPHyRa_bc end-to-end (paper §IV-D, Theorem 24): preprocessing index,
//! subset ranking driver, and the final estimate assembly
//! `b̃c(v) = bcₐ(v) + γη·(ℓ̂_v + λ·ℓ̃_v)`.

use rand::RngCore;
use saphyra_graph::{Bicomps, BlockCutTree, DeltaError, EdgeDelta, Graph, NodeId};

use super::exact2hop::{build_a_index, exact_bc};
use super::gen::BcApproxProblem;
use super::outreach::{bca_values, gamma, Outreach};
use super::vcbound::{vc_bounds_from, VcBoundReport, VcPrecomp};
use crate::framework::{estimate, BlockExec, ExactPart, ExecError, LocalExec, Subscriber};

/// Accuracy configuration of a SaPHyRa_bc run.
#[derive(Debug, Clone, Copy)]
pub struct SaphyraBcConfig {
    /// Additive error target ε on betweenness values (Theorem 24).
    pub eps: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Ablation: when false, skip `Exact_bc` and the rejection step —
    /// the estimator degrades to direct ISP sampling (λ̂ = 0).
    pub use_exact_subspace: bool,
    /// Ablation: when false, draw the full `N_max` budget without
    /// Bernstein checks.
    pub adaptive: bool,
}

impl SaphyraBcConfig {
    /// Standard configuration (exact subspace and adaptive stopping on).
    pub fn new(eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        SaphyraBcConfig {
            eps,
            delta,
            use_exact_subspace: true,
            adaptive: true,
        }
    }

    /// Disables the exact subspace (sample-space-partitioning ablation).
    pub fn without_exact_subspace(mut self) -> Self {
        self.use_exact_subspace = false;
        self
    }

    /// Disables adaptive stopping (fixed VC-budget ablation).
    pub fn with_fixed_budget(mut self) -> Self {
        self.adaptive = false;
        self
    }
}

/// Telemetry of one ranking run.
#[derive(Debug, Clone)]
pub struct BcRunStats {
    /// ISP normalizer γ (Eq. 19).
    pub gamma: f64,
    /// PISP mass η (Eq. 23).
    pub eta: f64,
    /// Exact-subspace mass λ̂ (Lemma 17).
    pub lambda_hat: f64,
    /// Personalized VC bound used for `N_max` (Corollary 22).
    pub vc: VcBoundReport,
    /// ε passed to the inner framework: ε / (γη). The risks enter b̃c
    /// scaled by γη (Theorem 24: b̃c − bc = γη(ℓ − R)), so an
    /// ε/(γη)-estimate of the risks is an ε-estimate of betweenness.
    pub eps_inner: f64,
    /// Main-phase samples drawn.
    pub samples: usize,
    /// Pilot samples drawn.
    pub pilot_samples: usize,
    /// Samples rejected into the exact subspace.
    pub rejected: u64,
    /// CSR slots visited by `Exact_bc` (the `K` of Lemma 18).
    pub exact_work: u64,
    /// Whether the Bernstein check stopped before `N_max`.
    pub converged_early: bool,
    /// Worst-case sample budget.
    pub nmax: usize,
    /// Bernstein rounds run.
    pub rounds: usize,
}

/// Betweenness estimates for a target subset, decomposed by source.
#[derive(Debug, Clone)]
pub struct BcEstimate {
    /// The target nodes, in caller order.
    pub targets: Vec<NodeId>,
    /// Estimated betweenness `b̃c(v)`, aligned with `targets`.
    pub bc: Vec<f64>,
    /// Break-point component `bcₐ(v)` (exact, Eq. 21).
    pub bca_part: Vec<f64>,
    /// 2-hop exact-subspace component `γη·ℓ̂_v` (exact, Lemma 17).
    pub exact_path_part: Vec<f64>,
    /// Sampled component `γη·λ·ℓ̃_v`.
    pub approx_part: Vec<f64>,
    /// Run telemetry.
    pub stats: BcRunStats,
}

impl BcEstimate {
    /// Target positions sorted best-first (highest estimate, ties by
    /// position — the paper's id tie-break for targets given in id order).
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.bc.len()).collect();
        idx.sort_by(|&a, &b| {
            self.bc[b]
                .partial_cmp(&self.bc[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }

    /// The `k` highest-ranked targets as `(node, estimate)` pairs.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        self.ranking()
            .into_iter()
            .take(k)
            .map(|i| (self.targets[i], self.bc[i]))
            .collect()
    }

    /// The estimate for a specific target node, if it was ranked.
    pub fn bc_of(&self, v: NodeId) -> Option<f64> {
        self.targets
            .iter()
            .position(|&t| t == v)
            .map(|i| self.bc[i])
    }
}

/// Reusable preprocessing for SaPHyRa_bc on one graph: biconnected
/// decomposition, block-cut tree, out-reach sets, γ, bcₐ and the
/// target-independent VC-bound precomputation. It does *not* borrow the
/// graph, so a long-lived service can store the two side by side (e.g.
/// behind one `Arc`) and share them across worker threads; every ranking
/// method takes the graph explicitly.
#[derive(Debug)]
pub struct BcDecomposition {
    /// Biconnected components.
    pub bic: Bicomps,
    /// Block-cut tree with branch weights.
    pub tree: BlockCutTree,
    /// Out-reach sets and pair weights.
    pub outreach: Outreach,
    /// Per-node break-point mass bcₐ (Eq. 21).
    pub bca: Vec<f64>,
    /// ISP normalizer γ (Eq. 19).
    pub gamma: f64,
    /// Target-independent part of the Table I bounds.
    pub vc_precomp: VcPrecomp,
}

/// Result of [`BcDecomposition::apply_delta`]: the patched graph, its
/// refreshed decomposition, and the dirty-region mask a serving layer needs
/// for component-scoped cache invalidation.
#[derive(Debug)]
pub struct DeltaOutcome {
    /// The patched graph.
    pub graph: Graph,
    /// The refreshed decomposition (structurally equal to a from-scratch
    /// [`BcDecomposition::compute`] of `graph`).
    pub dec: BcDecomposition,
    /// Per node: whether its connected component intersects the delta.
    /// Rankings whose targets avoid every dirty node are byte-identical
    /// before and after the patch.
    pub dirty_nodes: Vec<bool>,
    /// Edges actually added.
    pub inserted: usize,
    /// Edges actually removed.
    pub deleted: usize,
}

impl BcDecomposition {
    /// Builds the decomposition for `graph` (O(m + n) plus one BFS per
    /// connected/biconnected component for the diameter bounds).
    pub fn compute(graph: &Graph) -> Self {
        let bic = Bicomps::compute(graph);
        let tree = BlockCutTree::compute(&bic);
        let outreach = Outreach::compute(&bic, &tree);
        let bca = bca_values(graph, &bic, &tree);
        let gamma = gamma(graph, &outreach);
        let vc_precomp = VcPrecomp::compute(graph, &bic);
        BcDecomposition {
            bic,
            tree,
            outreach,
            bca,
            gamma,
            vc_precomp,
        }
    }

    /// Applies an edge delta to `graph` (the graph this decomposition was
    /// computed from), producing the patched graph and its refreshed
    /// decomposition.
    ///
    /// Articulation structure and the per-bicomp diameter BFSes — the
    /// expensive parts — re-run only for the connected components whose
    /// vertex sets intersect the delta; untouched components' state is
    /// spliced through the id renumbering. The O(n + m)-cheap derivations
    /// (block-cut tree, out-reach, bcₐ, γ, the VD sweep) re-run in full.
    /// Debug builds assert the result is structurally identical to
    /// [`BcDecomposition::compute`] on the patched graph.
    pub fn apply_delta(
        &self,
        graph: &Graph,
        delta: &EdgeDelta,
    ) -> Result<DeltaOutcome, DeltaError> {
        let applied = saphyra_graph::delta::apply(graph, &self.bic, delta)?;
        let saphyra_graph::AppliedDelta {
            graph: new_graph,
            bicomps: bic,
            bicomp_map,
            dirty_nodes,
            inserted,
            deleted,
            ..
        } = applied;
        let tree = BlockCutTree::compute(&bic);
        let outreach = Outreach::compute(&bic, &tree);
        let bca = bca_values(&new_graph, &bic, &tree);
        let gamma = gamma(&new_graph, &outreach);
        let vc_precomp = VcPrecomp::refresh(&new_graph, &bic, &self.vc_precomp, &bicomp_map);
        let dec = BcDecomposition {
            bic,
            tree,
            outreach,
            bca,
            gamma,
            vc_precomp,
        };
        debug_assert!(
            dec.structurally_eq(&BcDecomposition::compute(&new_graph)),
            "incremental decomposition diverged from a from-scratch rebuild"
        );
        Ok(DeltaOutcome {
            graph: new_graph,
            dec,
            dirty_nodes,
            inserted,
            deleted,
        })
    }

    /// Bit-level structural equality (floats compared by bit pattern) — the
    /// invariant [`BcDecomposition::apply_delta`] maintains against a
    /// from-scratch [`BcDecomposition::compute`] of the patched graph.
    pub fn structurally_eq(&self, other: &BcDecomposition) -> bool {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.bic == other.bic
            && self.tree == other.tree
            && self.outreach.r == other.outreach.r
            && bits(&self.outreach.pair_weight) == bits(&other.outreach.pair_weight)
            && self.outreach.total_weight.to_bits() == other.outreach.total_weight.to_bits()
            && bits(&self.bca) == bits(&other.bca)
            && self.gamma.to_bits() == other.gamma.to_bits()
            && self.vc_precomp.vd_upper == other.vc_precomp.vd_upper
            && self.vc_precomp.bd_upper == other.vc_precomp.bd_upper
            && self.vc_precomp.bicomp_diam_upper == other.vc_precomp.bicomp_diam_upper
    }

    /// Ranks each target set of `sets` (SaPHyRa_bc) on `graph`, which must
    /// be the graph this decomposition was computed from. Targets must be
    /// unique node ids; each estimate is aligned with its set's order.
    ///
    /// Draws exactly one master seed from `rng`. ISP draws are
    /// *personalized* — the rejection step consults each set's exact
    /// subspace — so sets never share draws; their doubling schedules fuse
    /// into one parallel pass per round instead, and every estimate is
    /// bit-identical to ranking its set alone under the same seed. With
    /// `remote` set (e.g. a sharded executor), the passes run there; it
    /// receives each demand with its original set index.
    pub fn rank(
        &self,
        graph: &Graph,
        sets: &[Vec<NodeId>],
        cfg: &SaphyraBcConfig,
        rng: &mut dyn RngCore,
        remote: Option<&mut dyn BlockExec<u64>>,
    ) -> Result<Vec<BcEstimate>, ExecError> {
        let n = graph.num_nodes();
        let a_indexes: Vec<Vec<u32>> = sets.iter().map(|t| build_a_index(n, t)).collect();
        let vcs: Vec<VcBoundReport> = sets
            .iter()
            .map(|t| vc_bounds_from(&self.vc_precomp, graph, &self.bic, t))
            .collect();
        let probs: Vec<BcApproxProblem> = sets
            .iter()
            .zip(&a_indexes)
            .zip(&vcs)
            .map(|((t, ai), vc)| {
                let mut p =
                    BcApproxProblem::new(graph, &self.bic, &self.outreach, t, ai, vc.vc_subset);
                // The ablation degrades to direct ISP sampling with an empty
                // exact subspace.
                p.reject_exact = cfg.use_exact_subspace;
                p
            })
            .collect();

        // Per set: η, the exact oracle (Algorithm 1 line 3), and the inner
        // target. Theorem 24 chain: b̃c − bc = γη(ℓ − R), so the framework
        // must reach ε/(γη) on the combined risk (it further divides by λ
        // for the approximate subspace). `exact_work` is `None` for a set
        // with no PISP mass, whose betweenness is exactly bcₐ: λ̂ = 1 marks
        // its (empty) sample space as fully exact, so it never samples.
        let mut exact_work: Vec<Option<u64>> = Vec::with_capacity(sets.len());
        let mut subs: Vec<Subscriber<u64>> = Vec::with_capacity(sets.len());
        for ((t, ai), p) in sets.iter().zip(&a_indexes).zip(&probs) {
            let gamma_eta = self.gamma * p.pisp().eta;
            let (exact, work) = if p.pisp().is_empty() || gamma_eta <= 0.0 {
                let none = ExactPart {
                    lambda_hat: 1.0,
                    exact_risks: vec![0.0; t.len()],
                };
                (none, None)
            } else if cfg.use_exact_subspace {
                let exact = exact_bc(graph, &self.bic, &self.outreach, t, ai);
                let part = ExactPart {
                    lambda_hat: (exact.lambda_raw / gamma_eta).clamp(0.0, 1.0),
                    exact_risks: exact.exact_raw.iter().map(|&x| x / gamma_eta).collect(),
                };
                (part, Some(exact.work))
            } else {
                (ExactPart::trivial(t.len()), Some(0))
            };
            exact_work.push(work);
            subs.push(Subscriber {
                problem: p,
                exact,
                eps: cfg.eps / gamma_eta,
                delta: cfg.delta,
                adaptive: cfg.adaptive,
            });
        }
        let master = rng.next_u64();
        let ests = match remote {
            Some(exec) => estimate(&subs, master, exec)?,
            None => {
                let refs: Vec<&BcApproxProblem> = probs.iter().collect();
                estimate(&subs, master, &mut LocalExec::new(&refs))?
            }
        };

        Ok(ests
            .into_iter()
            .enumerate()
            .map(|(i, est)| {
                let (targets, sub, p) = (&sets[i], &subs[i], &probs[i]);
                let eta = p.pisp().eta;
                let gamma_eta = self.gamma * eta;
                let bca_part: Vec<f64> = targets.iter().map(|&v| self.bca[v as usize]).collect();
                let exact_path_part: Vec<f64> =
                    est.exact_part.iter().map(|&x| gamma_eta * x).collect();
                let approx_part: Vec<f64> = est
                    .approx_part
                    .iter()
                    .map(|&x| gamma_eta * est.lambda * x)
                    .collect();
                let bc: Vec<f64> = (0..targets.len())
                    .map(|j| bca_part[j] + exact_path_part[j] + approx_part[j])
                    .collect();
                let (lambda_hat, eps_inner, exact_work) = match exact_work[i] {
                    Some(work) => (sub.exact.lambda_hat, sub.eps, work),
                    None => (0.0, cfg.eps, 0),
                };
                let outcome = &est.outcome;
                BcEstimate {
                    targets: targets.clone(),
                    bc,
                    bca_part,
                    exact_path_part,
                    approx_part,
                    stats: BcRunStats {
                        gamma: self.gamma,
                        eta,
                        lambda_hat,
                        vc: vcs[i],
                        eps_inner,
                        samples: outcome.samples_used,
                        pilot_samples: outcome.pilot_samples,
                        rejected: p.rejected(),
                        exact_work,
                        converged_early: outcome.converged_early,
                        nmax: outcome.nmax,
                        rounds: outcome.rounds_run,
                    },
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use saphyra_graph::brandes::betweenness_exact;
    use saphyra_graph::fixtures;

    /// Ranks one target set with the local executor.
    fn rank_one(
        dec: &BcDecomposition,
        g: &Graph,
        targets: &[NodeId],
        cfg: &SaphyraBcConfig,
        rng: &mut dyn RngCore,
    ) -> BcEstimate {
        dec.rank(g, &[targets.to_vec()], cfg, rng, None)
            .expect("local execution is infallible")
            .remove(0)
    }

    fn check_accuracy(g: &Graph, targets: &[NodeId], eps: f64, seed: u64) {
        let truth = betweenness_exact(g);
        let dec = BcDecomposition::compute(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let est = rank_one(&dec, g, targets, &SaphyraBcConfig::new(eps, 0.1), &mut rng);
        for (i, &v) in targets.iter().enumerate() {
            let err = (est.bc[i] - truth[v as usize]).abs();
            assert!(
                err < eps,
                "node {v}: est {} truth {} err {err} (eps {eps})",
                est.bc[i],
                truth[v as usize]
            );
        }
    }

    #[test]
    fn accuracy_on_fixtures() {
        check_accuracy(
            &fixtures::paper_fig2(),
            &(0..11u32).collect::<Vec<_>>(),
            0.05,
            1,
        );
        check_accuracy(&fixtures::grid_graph(6, 6), &[7, 14, 21, 28, 35], 0.05, 2);
        check_accuracy(
            &fixtures::lollipop_graph(6, 6),
            &(0..12u32).collect::<Vec<_>>(),
            0.05,
            3,
        );
        check_accuracy(&fixtures::cycle_graph(20), &[0, 5, 10], 0.05, 4);
    }

    #[test]
    fn accuracy_on_random_graph() {
        let mut grng = StdRng::seed_from_u64(10);
        let n = 40;
        let mut b = saphyra_graph::GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if grng.gen::<f64>() < 0.1 {
                    b.push(u, v);
                }
            }
        }
        let g = b.build().unwrap();
        let targets: Vec<u32> = (0..n as u32).step_by(3).collect();
        check_accuracy(&g, &targets, 0.06, 11);
    }

    #[test]
    fn no_false_zeros_lemma19() {
        // Every positive-betweenness target must receive a positive
        // estimate — the property ABRA/KADABRA lack (Fig. 6).
        let mut grng = StdRng::seed_from_u64(20);
        for round in 0..5 {
            let n = 30;
            let mut b = saphyra_graph::GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if grng.gen::<f64>() < 0.12 {
                        b.push(u, v);
                    }
                }
            }
            let g = b.build().unwrap();
            let truth = betweenness_exact(&g);
            let dec = BcDecomposition::compute(&g);
            let targets: Vec<u32> = g.nodes().collect();
            let mut rng = StdRng::seed_from_u64(round);
            // Large eps: the sampled part may see nothing, the exact part
            // must still be positive.
            let est = rank_one(
                &dec,
                &g,
                &targets,
                &SaphyraBcConfig::new(0.3, 0.1),
                &mut rng,
            );
            for (i, &v) in targets.iter().enumerate() {
                if truth[v as usize] > 0.0 {
                    assert!(
                        est.bc[i] > 0.0,
                        "round {round}: node {v} has bc {} but estimate 0",
                        truth[v as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn tree_betweenness_is_pure_bca() {
        // In a tree the ISP space has only length-1 paths: the sampled and
        // 2-hop parts are zero and b̃c = bcₐ = bc exactly.
        let g = fixtures::binary_tree(4);
        let truth = betweenness_exact(&g);
        let dec = BcDecomposition::compute(&g);
        let targets: Vec<u32> = g.nodes().collect();
        let mut rng = StdRng::seed_from_u64(5);
        let est = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(0.05, 0.1),
            &mut rng,
        );
        for (i, &v) in targets.iter().enumerate() {
            assert!(
                (est.bc[i] - truth[v as usize]).abs() < 1e-12,
                "node {v}: {} vs {}",
                est.bc[i],
                truth[v as usize]
            );
            assert_eq!(est.exact_path_part[i], 0.0);
            assert_eq!(est.approx_part[i], 0.0);
        }
    }

    #[test]
    fn isolated_targets_get_zero() {
        let g = fixtures::disconnected_mix();
        let dec = BcDecomposition::compute(&g);
        let mut rng = StdRng::seed_from_u64(6);
        let est = rank_one(&dec, &g, &[5], &SaphyraBcConfig::new(0.1, 0.1), &mut rng);
        assert_eq!(est.bc, vec![0.0]);
        assert_eq!(est.stats.samples, 0);
    }

    #[test]
    fn full_ranking_correlates_with_truth() {
        let g = fixtures::grid_graph(7, 5);
        let truth = betweenness_exact(&g);
        let dec = BcDecomposition::compute(&g);
        let mut rng = StdRng::seed_from_u64(8);
        let all: Vec<NodeId> = g.nodes().collect();
        let est = rank_one(&dec, &g, &all, &SaphyraBcConfig::new(0.02, 0.1), &mut rng);
        let rho = saphyra_stats::spearman_vs_truth(&est.bc, &truth);
        assert!(rho > 0.9, "rho = {rho}");
    }

    #[test]
    fn ranking_output_is_a_permutation() {
        let g = fixtures::grid_graph(5, 5);
        let dec = BcDecomposition::compute(&g);
        let targets: Vec<u32> = vec![2, 7, 11, 13, 21];
        let mut rng = StdRng::seed_from_u64(9);
        let est = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(0.1, 0.1),
            &mut rng,
        );
        let mut ranking = est.ranking();
        assert_eq!(ranking.len(), 5);
        ranking.sort_unstable();
        assert_eq!(ranking, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn top_k_and_lookup() {
        let g = fixtures::grid_graph(5, 5);
        let dec = BcDecomposition::compute(&g);
        let targets: Vec<u32> = vec![0, 12, 24]; // corners vs center
        let mut rng = StdRng::seed_from_u64(10);
        let est = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(0.05, 0.1),
            &mut rng,
        );
        let top = est.top_k(2);
        assert_eq!(top.len(), 2);
        // The grid center dominates both corners.
        assert_eq!(top[0].0, 12);
        assert!(top[0].1 >= top[1].1);
        assert_eq!(est.bc_of(12), Some(top[0].1));
        assert_eq!(est.bc_of(99), None);
        // top_k larger than the target set is clamped.
        assert_eq!(est.top_k(10).len(), 3);
    }

    #[test]
    fn decomposition_parts_sum_to_estimate() {
        let g = fixtures::lollipop_graph(5, 4);
        let dec = BcDecomposition::compute(&g);
        let targets: Vec<u32> = g.nodes().collect();
        let mut rng = StdRng::seed_from_u64(12);
        let est = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(0.05, 0.1),
            &mut rng,
        );
        for i in 0..targets.len() {
            let sum = est.bca_part[i] + est.exact_path_part[i] + est.approx_part[i];
            assert!((sum - est.bc[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn ablation_without_exact_subspace_is_still_accurate() {
        let g = fixtures::grid_graph(6, 5);
        let truth = betweenness_exact(&g);
        let dec = BcDecomposition::compute(&g);
        let targets: Vec<u32> = vec![7, 8, 14, 21];
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = SaphyraBcConfig::new(0.05, 0.1).without_exact_subspace();
        let est = rank_one(&dec, &g, &targets, &cfg, &mut rng);
        assert_eq!(est.stats.lambda_hat, 0.0);
        assert_eq!(est.stats.exact_work, 0);
        for (i, &v) in targets.iter().enumerate() {
            assert!((est.bc[i] - truth[v as usize]).abs() < 0.05);
            assert_eq!(est.exact_path_part[i], 0.0);
        }
    }

    #[test]
    fn ablation_fixed_budget_draws_nmax() {
        let g = fixtures::grid_graph(6, 5);
        let dec = BcDecomposition::compute(&g);
        let targets: Vec<u32> = vec![7, 14, 21];
        let mut rng = StdRng::seed_from_u64(32);
        let cfg = SaphyraBcConfig::new(0.1, 0.1).with_fixed_budget();
        let est = rank_one(&dec, &g, &targets, &cfg, &mut rng);
        assert!(!est.stats.converged_early);
        assert_eq!(est.stats.samples, est.stats.nmax);
        assert_eq!(est.stats.pilot_samples, 0);
        // Adaptive run on the same instance uses no more samples.
        let mut rng = StdRng::seed_from_u64(32);
        let adaptive = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(0.1, 0.1),
            &mut rng,
        );
        assert!(adaptive.stats.samples <= est.stats.samples);
    }

    #[test]
    fn stats_are_populated() {
        let g = fixtures::grid_graph(6, 6);
        let dec = BcDecomposition::compute(&g);
        let targets: Vec<u32> = vec![14, 15, 20, 21];
        let mut rng = StdRng::seed_from_u64(13);
        let est = rank_one(
            &dec,
            &g,
            &targets,
            &SaphyraBcConfig::new(0.05, 0.1),
            &mut rng,
        );
        assert!(est.stats.gamma > 0.0);
        assert!(est.stats.eta > 0.0 && est.stats.eta <= 1.0);
        assert!(est.stats.samples > 0);
        assert!(est.stats.exact_work > 0);
        assert!(est.stats.vc.vc_subset >= 1);
    }
}

//! Harmonic (closeness-family) centrality through the SaPHyRa framework —
//! the extension the paper's conclusion proposes ("extending the framework
//! to other centrality measures such as closeness centrality").
//!
//! We rank by *harmonic centrality mass* `hc(v) = E_{u∼V}[1/d(u, v)]`
//! (with `1/d(v,v) := 0` and `1/∞ := 0`), the disconnection-robust member
//! of the closeness family. A sample is a uniform source `u`; one BFS gives
//! the fractional losses `1/d(u, v) ∈ [0, 1]` for every target — the
//! Eppstein–Wang sampling scheme recast as a fractional-loss
//! [`HrProblem`] over [`LossAcc`] accumulators.
//!
//! The SaPHyRa partition: the exact subspace is `X̂ = A` itself — `|A|`
//! BFS runs evaluate every target-to-target distance in closed form,
//! `λ̂ = |A|/n`, and the approximate distribution is uniform over `V ∖ A`.
//! Ranking errors between targets that are close to *each other* (the hard
//! tie-breaks in a ranking) are thereby resolved exactly.

use rand::Rng;
use rand::RngCore;
use saphyra_graph::bfs::{BfsWorkspace, INFINITY};
use saphyra_graph::{Graph, NodeId};

use saphyra_stats::hoeffding_samples;

use crate::framework::{
    estimate, BlockExec, ExactPart, ExecError, HrProblem, HrSampler, LocalExec, LossAcc,
    SaphyraEstimate, Subscriber,
};

const NONE: u32 = u32::MAX;

/// Exact harmonic mass `hc(v)` for every node — `n` BFS runs, the
/// ground-truth oracle for tests and small graphs.
pub fn harmonic_exact(g: &Graph) -> Vec<f64> {
    let n = g.num_nodes();
    let mut out = vec![0.0f64; n];
    if n == 0 {
        return out;
    }
    let mut ws = BfsWorkspace::new(n);
    for u in g.nodes() {
        ws.run(g, u);
        // Distances are symmetric: credit v for source u.
        for &v in &ws.order {
            let d = ws.dist(v);
            if d > 0 {
                out[v as usize] += 1.0 / d as f64;
            }
        }
    }
    for x in out.iter_mut() {
        *x /= n as f64;
    }
    out
}

/// Exact part of the partition: sources in `A`, `λ̂ = |A|/n`.
pub fn harmonic_exact_part(g: &Graph, targets: &[NodeId]) -> ExactPart {
    let n = g.num_nodes();
    let mut exact_risks = vec![0.0f64; targets.len()];
    let mut ws = BfsWorkspace::new(n);
    let mut a_pos = vec![NONE; n];
    for (i, &v) in targets.iter().enumerate() {
        assert!(a_pos[v as usize] == NONE, "duplicate target {v}");
        a_pos[v as usize] = i as u32;
    }
    for &u in targets {
        ws.run(g, u);
        for &v in &ws.order {
            let i = a_pos[v as usize];
            let d = ws.dist(v);
            if i != NONE && d > 0 {
                exact_risks[i as usize] += 1.0 / d as f64;
            }
        }
    }
    for x in exact_risks.iter_mut() {
        *x /= n as f64;
    }
    ExactPart {
        lambda_hat: targets.len() as f64 / n as f64,
        exact_risks,
    }
}

/// The approximate-subspace sampling problem: uniform sources from
/// `V ∖ A`. Shared read-only half; BFS scratch lives in
/// [`HarmonicSampler`]. For `A = V` the complement is empty: `λ̂ = 1`, so
/// the estimator never samples such a problem.
pub struct HarmonicApproxProblem<'a> {
    g: &'a Graph,
    a_pos: Vec<u32>,
    complement: Vec<NodeId>,
    k: usize,
}

impl<'a> HarmonicApproxProblem<'a> {
    /// Builds the sampler.
    pub fn new(g: &'a Graph, targets: &[NodeId]) -> Self {
        let n = g.num_nodes();
        let mut a_pos = vec![NONE; n];
        for (i, &v) in targets.iter().enumerate() {
            assert!(a_pos[v as usize] == NONE, "duplicate target {v}");
            a_pos[v as usize] = i as u32;
        }
        let complement: Vec<NodeId> = g.nodes().filter(|&v| a_pos[v as usize] == NONE).collect();
        HarmonicApproxProblem {
            g,
            a_pos,
            complement,
            k: targets.len(),
        }
    }
}

/// Per-worker drawing head: one BFS workspace per worker.
pub struct HarmonicSampler<'p> {
    problem: &'p HarmonicApproxProblem<'p>,
    ws: BfsWorkspace,
}

impl HrSampler<LossAcc> for HarmonicSampler<'_> {
    fn sample_into(&mut self, rng: &mut dyn RngCore, out: &mut Vec<(u32, f64)>) {
        let p = self.problem;
        let u = p.complement[rng.gen_range(0..p.complement.len())];
        self.ws.run(p.g, u);
        for (v, &pos) in p.a_pos.iter().enumerate() {
            if pos == NONE {
                continue;
            }
            let d = self.ws.dist(v as NodeId);
            if d != INFINITY && d > 0 {
                out.push((pos, 1.0 / d as f64));
            }
        }
    }
}

impl HrProblem<LossAcc> for HarmonicApproxProblem<'_> {
    fn num_hypotheses(&self) -> usize {
        self.k
    }

    fn sampler(&self) -> Box<dyn HrSampler<LossAcc> + '_> {
        assert!(
            !self.complement.is_empty(),
            "A = V leaves no approximate subspace; use harmonic_exact"
        );
        Box::new(HarmonicSampler {
            problem: self,
            ws: BfsWorkspace::new(self.g.num_nodes()),
        })
    }

    fn max_samples(&self, eps_prime: f64, delta: f64) -> usize {
        hoeffding_samples(eps_prime, delta, self.k)
    }
}

/// Harmonic-centrality estimates for a target subset.
#[derive(Debug, Clone)]
pub struct HarmonicEstimate {
    /// Targets in caller order.
    pub targets: Vec<NodeId>,
    /// Estimated harmonic mass `hc(v)`.
    pub hc: Vec<f64>,
    /// Framework output (`lambda`, telemetry, parts).
    pub inner: SaphyraEstimate,
}

/// Ranks each target set of `sets` by harmonic centrality with an (ε, δ)
/// guarantee. Draws exactly one master seed from `rng`.
///
/// Harmonic sources are drawn uniformly from `V ∖ A`, which differs per
/// target set, so draws cannot be shared across sets — but the doubling
/// schedules are: every round runs a single parallel pass over all
/// demanded blocks, and sets whose ε target is met detach while the pass
/// keeps serving stricter ones. A set with `A = V` is covered by its exact
/// part and never samples. Each estimate is bit-identical to ranking its
/// set alone under the same seed. With `remote` set (e.g. a sharded
/// executor over [`LossAcc`] partials), the passes run there; it receives
/// each demand with its original set index.
pub fn rank_harmonic(
    g: &Graph,
    sets: &[Vec<NodeId>],
    eps: f64,
    delta: f64,
    rng: &mut dyn RngCore,
    remote: Option<&mut dyn BlockExec<LossAcc>>,
) -> Result<Vec<HarmonicEstimate>, ExecError> {
    let probs: Vec<HarmonicApproxProblem> = sets
        .iter()
        .map(|t| {
            assert!(!t.is_empty());
            HarmonicApproxProblem::new(g, t)
        })
        .collect();
    let subs: Vec<Subscriber<LossAcc>> = sets
        .iter()
        .zip(&probs)
        .map(|(t, problem)| Subscriber {
            problem,
            exact: harmonic_exact_part(g, t),
            eps,
            delta,
            adaptive: true,
        })
        .collect();
    let master = rng.next_u64();
    let inners = match remote {
        Some(exec) => estimate(&subs, master, exec)?,
        None => {
            let refs: Vec<&HarmonicApproxProblem> = probs.iter().collect();
            estimate(&subs, master, &mut LocalExec::new(&refs))?
        }
    };
    Ok(sets
        .iter()
        .zip(inners)
        .map(|(targets, inner)| HarmonicEstimate {
            targets: targets.clone(),
            hc: inner.combined.clone(),
            inner,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saphyra_graph::fixtures;

    /// Ranks one target set with the local executor.
    fn rank_one(
        g: &Graph,
        targets: &[NodeId],
        eps: f64,
        rng: &mut dyn RngCore,
    ) -> HarmonicEstimate {
        rank_harmonic(g, &[targets.to_vec()], eps, 0.1, rng, None)
            .expect("local execution is infallible")
            .remove(0)
    }

    #[test]
    fn exact_values_on_star() {
        // Star center: 1/1 to each leaf -> (n−1)/n; leaf: 1 + (n−2)/2 over n.
        let g = fixtures::star_graph(5);
        let hc = harmonic_exact(&g);
        assert!((hc[0] - 4.0 / 5.0).abs() < 1e-12);
        assert!((hc[1] - (1.0 + 3.0 * 0.5) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn exact_handles_disconnection() {
        let g = fixtures::disconnected_mix();
        let hc = harmonic_exact(&g);
        // Isolated node: zero; triangle nodes: 2 neighbors at distance 1.
        assert_eq!(hc[5], 0.0);
        assert!((hc[0] - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn estimates_meet_epsilon() {
        let g = fixtures::grid_graph(7, 6);
        let truth = harmonic_exact(&g);
        let targets: Vec<u32> = vec![0, 10, 20, 30, 41];
        let mut rng = StdRng::seed_from_u64(3);
        let est = rank_one(&g, &targets, 0.05, &mut rng);
        for (i, &v) in targets.iter().enumerate() {
            let err = (est.hc[i] - truth[v as usize]).abs();
            assert!(err < 0.05, "node {v}: err {err}");
        }
    }

    #[test]
    fn lambda_hat_is_subset_fraction() {
        let g = fixtures::grid_graph(5, 5);
        let targets: Vec<u32> = vec![1, 2, 3, 4, 5];
        let part = harmonic_exact_part(&g, &targets);
        assert!((part.lambda_hat - 5.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn exact_part_matches_restricted_sum() {
        // ℓ̂_v must equal (1/n)·Σ_{u∈A} 1/d(u,v).
        let g = fixtures::paper_fig2();
        let targets: Vec<u32> = vec![0, 3, 8];
        let part = harmonic_exact_part(&g, &targets);
        let n = g.num_nodes() as f64;
        let mut ws = BfsWorkspace::new(g.num_nodes());
        for (i, &v) in targets.iter().enumerate() {
            let mut acc = 0.0;
            ws.run(&g, v);
            for &u in &targets {
                let d = ws.dist(u);
                if d > 0 && d != INFINITY {
                    acc += 1.0 / d as f64;
                }
            }
            assert!((part.exact_risks[i] - acc / n).abs() < 1e-12, "target {i}");
        }
    }

    #[test]
    fn ranking_recovers_ordering() {
        // Lollipop: clique nodes are globally closer than tail tip.
        let g = fixtures::lollipop_graph(6, 6);
        let truth = harmonic_exact(&g);
        let targets: Vec<u32> = vec![0, 6, 11];
        let mut rng = StdRng::seed_from_u64(5);
        let est = rank_one(&g, &targets, 0.02, &mut rng);
        let order = est.inner.ranking();
        let truth_order = {
            let mut idx: Vec<usize> = (0..3).collect();
            idx.sort_by(|&a, &b| {
                truth[targets[b] as usize]
                    .partial_cmp(&truth[targets[a] as usize])
                    .unwrap()
            });
            idx
        };
        assert_eq!(order, truth_order);
    }

    #[test]
    fn full_target_set_degenerates_to_exact() {
        let g = fixtures::cycle_graph(8);
        let all: Vec<u32> = g.nodes().collect();
        let mut rng = StdRng::seed_from_u64(7);
        let est = rank_one(&g, &all, 0.05, &mut rng);
        let truth = harmonic_exact(&g);
        for (i, &v) in all.iter().enumerate() {
            assert!((est.hc[i] - truth[v as usize]).abs() < 1e-12);
        }
        assert_eq!(est.inner.outcome.samples_used, 0);
    }

    #[test]
    fn samples_scale_with_epsilon() {
        let g = fixtures::grid_graph(8, 8);
        let targets: Vec<u32> = vec![9, 18, 27, 36];
        let mut a = StdRng::seed_from_u64(1);
        let loose = rank_one(&g, &targets, 0.1, &mut a);
        let mut b = StdRng::seed_from_u64(1);
        let tight = rank_one(&g, &targets, 0.02, &mut b);
        assert!(tight.inner.outcome.samples_used >= loose.inner.outcome.samples_used);
    }
}

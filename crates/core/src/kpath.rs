//! k-path centrality through the SaPHyRa framework — the paper's second
//! worked example of the ranking-subset → hypothesis-ranking mapping
//! (§II-A).
//!
//! A sample is a random walk: pick a start node `u` uniformly, a length
//! `l` uniformly from `1..=k`, and walk `l` uniform-neighbor steps (a walk
//! from an isolated node is empty). The hypothesis `h_v` fires when `v`
//! appears among the nodes *after* the start, and the expected risk is the
//! walk-visit probability — a k-path centrality.
//!
//! The partition demonstrates the framework beyond betweenness:
//!
//! * **exact subspace** — all samples with `l = 1`, whose mass is exactly
//!   `λ̂ = 1/k` and whose per-target risk has the closed form
//!   `ℓ̂_v = (1/(nk)) Σ_{u ∈ N(v)} 1/deg(u)`;
//! * **approximate subspace** — walks with `l ≥ 2`, sampled directly by
//!   drawing `l` uniformly from `2..=k`.

use rand::Rng;
use rand::RngCore;
use saphyra_graph::{Graph, NodeId};

use saphyra_stats::vc_sample_bound;

use crate::framework::{
    estimate, ExactPart, HrProblem, HrSampler, LocalSharedExec, SaphyraEstimate, SharedDraw,
    Subscriber,
};

const NONE: u32 = u32::MAX;

/// Closed-form exact part: `λ̂ = 1/k`,
/// `ℓ̂_v = (1/(nk)) Σ_{u ∈ N(v)} 1/deg(u)`.
pub fn kpath_exact_part(g: &Graph, targets: &[NodeId], k: usize) -> ExactPart {
    assert!(k >= 1);
    let n = g.num_nodes() as f64;
    let exact_risks: Vec<f64> = targets
        .iter()
        .map(|&v| {
            g.neighbors(v)
                .iter()
                .map(|&u| 1.0 / g.degree(u) as f64)
                .sum::<f64>()
                / (n * k as f64)
        })
        .collect();
    ExactPart {
        lambda_hat: 1.0 / k as f64,
        exact_risks,
    }
}

/// The approximate-subspace walk sampler (`l ≥ 2`).
pub struct KPathApproxProblem<'a> {
    g: &'a Graph,
    a_index: Vec<u32>,
    k: usize,
    num_targets: usize,
    walk: Vec<NodeId>,
}

impl<'a> KPathApproxProblem<'a> {
    /// Builds the sampler for walks of up to `k ≥ 2` hops.
    pub fn new(g: &'a Graph, targets: &[NodeId], k: usize) -> Self {
        assert!(k >= 2, "the approximate subspace needs k >= 2");
        let mut a_index = vec![NONE; g.num_nodes()];
        for (i, &v) in targets.iter().enumerate() {
            assert!(a_index[v as usize] == NONE, "duplicate target {v}");
            a_index[v as usize] = i as u32;
        }
        KPathApproxProblem {
            g,
            a_index,
            k,
            num_targets: targets.len(),
            walk: Vec::with_capacity(k + 1),
        }
    }

    /// VC dimension bound of Lemma 5: π_max ≤ min(k, |A|), since a walk
    /// visits at most k nodes after the start.
    fn vc_dimension(&self) -> usize {
        let pi_max = self.k.min(self.num_targets) as u32;
        crate::bc::vcbound::log2_floor_plus1(pi_max)
    }

    /// Performs one `l ≥ 2` walk into the internal buffer and returns it.
    pub fn sample_walk<R: Rng + ?Sized>(&mut self, rng: &mut R) -> &[NodeId] {
        walk_into(self.g, self.k, &mut self.walk, rng);
        &self.walk
    }
}

/// One `l ≥ 2` uniform-neighbor walk into `walk` (cleared first).
///
/// This is the *draw half* of the k-path sample: it consumes RNG but never
/// reads the target set, which is what lets the batched engine share one
/// walk stream across subscribers with different targets ([`SharedDraw`]).
fn walk_into<R: Rng + ?Sized>(g: &Graph, k: usize, walk: &mut Vec<NodeId>, rng: &mut R) {
    let n = g.num_nodes();
    let l = rng.gen_range(2..=k);
    walk.clear();
    let mut cur = rng.gen_range(0..n as NodeId);
    walk.push(cur);
    for _ in 0..l {
        let d = g.degree(cur);
        if d == 0 {
            break;
        }
        cur = g.neighbors(cur)[rng.gen_range(0..d)];
        walk.push(cur);
    }
}

/// The *score half*: 0-1 losses — each target visited after the start
/// counts once per sample. Consumes no RNG.
fn score_walk(a_index: &[u32], walk: &[NodeId], hits: &mut Vec<u32>) {
    for &v in &walk[1..] {
        let ai = a_index[v as usize];
        if ai != NONE {
            hits.push(ai);
        }
    }
    hits.sort_unstable();
    hits.dedup();
}

/// Per-worker drawing head of the k-path problem: borrows the shared
/// index, owns the walk buffer.
pub struct KPathSampler<'p> {
    g: &'p Graph,
    a_index: &'p [u32],
    k: usize,
    walk: Vec<NodeId>,
}

impl HrSampler<u64> for KPathSampler<'_> {
    fn sample_into(&mut self, rng: &mut dyn RngCore, hits: &mut Vec<u32>) {
        // Draw + score through the same halves the SharedDraw impl uses,
        // so the split contract holds structurally.
        walk_into(self.g, self.k, &mut self.walk, rng);
        score_walk(self.a_index, &self.walk, hits);
    }
}

impl HrProblem<u64> for KPathApproxProblem<'_> {
    fn num_hypotheses(&self) -> usize {
        self.num_targets
    }

    fn sampler(&self) -> Box<dyn HrSampler<u64> + '_> {
        Box::new(KPathSampler {
            g: self.g,
            a_index: &self.a_index,
            k: self.k,
            walk: Vec::with_capacity(self.k + 1),
        })
    }

    fn max_samples(&self, eps_prime: f64, delta: f64) -> usize {
        vc_sample_bound(eps_prime, delta, self.vc_dimension().max(1))
    }
}

impl SharedDraw for KPathApproxProblem<'_> {
    fn draw_artifact(&self, rng: &mut dyn RngCore, buf: &mut Vec<u32>) {
        walk_into(self.g, self.k, buf, rng);
    }

    fn score_artifact(&self, artifact: &[u32], hits: &mut Vec<u32>) {
        score_walk(&self.a_index, artifact, hits);
    }
}

/// k-path centrality estimates for a target subset.
#[derive(Debug, Clone)]
pub struct KPathEstimate {
    /// Targets in caller order.
    pub targets: Vec<NodeId>,
    /// Estimated k-path centrality (combined risks).
    pub kpc: Vec<f64>,
    /// The underlying framework output.
    pub inner: SaphyraEstimate,
}

/// Ranks each target set of `sets` by k-path centrality (walks of up to
/// `k ≥ 2` hops) with the SaPHyRa partition. Draws exactly one master seed
/// from `rng`.
///
/// k-path is the measure where cross-request batching is strongest: the
/// random walk ([`SharedDraw::draw_artifact`]) never looks at the target
/// set, so every set scores the *same* walks ([`LocalSharedExec`]), and a
/// set whose ε target is met detaches while the stream keeps serving
/// stricter ones. Drawing is target-independent and scoring consumes no
/// RNG, so each estimate is bit-identical to ranking its set alone under
/// the same seed.
pub fn rank_kpath(
    g: &Graph,
    sets: &[Vec<NodeId>],
    k: usize,
    eps: f64,
    delta: f64,
    rng: &mut dyn RngCore,
) -> Vec<KPathEstimate> {
    assert!(k >= 2, "k-path ranking needs k >= 2");
    let probs: Vec<KPathApproxProblem> = sets
        .iter()
        .map(|t| KPathApproxProblem::new(g, t, k))
        .collect();
    let subs: Vec<Subscriber<u64>> = sets
        .iter()
        .zip(&probs)
        .map(|(t, problem)| Subscriber {
            problem,
            exact: kpath_exact_part(g, t, k),
            eps,
            delta,
            adaptive: true,
        })
        .collect();
    let refs: Vec<&KPathApproxProblem> = probs.iter().collect();
    let inners = estimate(&subs, rng.next_u64(), &mut LocalSharedExec::new(&refs));
    sets.iter()
        .zip(inners)
        .map(|(targets, inner)| KPathEstimate {
            targets: targets.clone(),
            kpc: inner.combined.clone(),
            inner,
        })
        .collect()
}

/// Direct Monte-Carlo estimator over the *full* walk space (`l ∈ 1..=k`),
/// the unpartitioned baseline used in tests and the partitioning ablation.
pub fn kpath_direct_monte_carlo(
    g: &Graph,
    targets: &[NodeId],
    k: usize,
    samples: usize,
    rng: &mut dyn RngCore,
) -> Vec<f64> {
    assert!(k >= 1);
    let mut a_index = vec![NONE; g.num_nodes()];
    for (i, &v) in targets.iter().enumerate() {
        a_index[v as usize] = i as u32;
    }
    let mut hits = vec![0u64; targets.len()];
    let n = g.num_nodes();
    let mut seen: Vec<u32> = Vec::new();
    for _ in 0..samples {
        let l = rng.gen_range(1..=k);
        let mut cur = rng.gen_range(0..n as NodeId);
        seen.clear();
        for _ in 0..l {
            let d = g.degree(cur);
            if d == 0 {
                break;
            }
            cur = g.neighbors(cur)[rng.gen_range(0..d)];
            let ai = a_index[cur as usize];
            if ai != NONE {
                seen.push(ai);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        for &ai in &seen {
            hits[ai as usize] += 1;
        }
    }
    hits.iter().map(|&h| h as f64 / samples as f64).collect()
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
        k: usize,
        eps: f64,
        rng: &mut dyn RngCore,
    ) -> KPathEstimate {
        rank_kpath(g, &[targets.to_vec()], k, eps, 0.1, rng).remove(0)
    }

    #[test]
    fn exact_part_closed_form_on_star() {
        // Star center: Σ_{u∈leaves} 1/deg(u) = (n−1)/1; ℓ̂ = (n−1)/(nk).
        let g = fixtures::star_graph(5);
        let e = kpath_exact_part(&g, &[0, 1], 4);
        assert!((e.lambda_hat - 0.25).abs() < 1e-12);
        assert!((e.exact_risks[0] - 4.0 / (5.0 * 4.0)).abs() < 1e-12);
        // Leaf 1: only neighbor is the center with degree 4.
        assert!((e.exact_risks[1] - (1.0 / 4.0) / 20.0).abs() < 1e-12);
    }

    #[test]
    fn partitioned_matches_direct_estimation() {
        let g = fixtures::grid_graph(6, 5);
        let targets: Vec<u32> = vec![7, 8, 14, 21, 22];
        let k = 5;
        let mut rng = StdRng::seed_from_u64(3);
        let est = rank_one(&g, &targets, k, 0.02, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(4);
        let direct = kpath_direct_monte_carlo(&g, &targets, k, 400_000, &mut rng2);
        for (i, (&a, &b)) in est.kpc.iter().zip(&direct).enumerate() {
            assert!(
                (a - b).abs() < 0.02,
                "target {i}: partitioned {a} direct {b}"
            );
        }
    }

    #[test]
    fn walks_respect_length_bounds() {
        let g = fixtures::cycle_graph(10);
        let mut p = KPathApproxProblem::new(&g, &[0, 5], 6);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let w = p.sample_walk(&mut rng).to_vec();
            assert!(w.len() >= 3 && w.len() <= 7, "len {}", w.len());
            for pair in w.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn hits_are_deduplicated() {
        // Path of 2 nodes: walks bounce between them; a node can be visited
        // many times but must be reported once.
        let g = fixtures::path_graph(2);
        let p = KPathApproxProblem::new(&g, &[0, 1], 6);
        let mut sampler = p.sampler();
        let mut rng = StdRng::seed_from_u64(6);
        let mut hits = Vec::new();
        for _ in 0..200 {
            hits.clear();
            sampler.sample_into(&mut rng, &mut hits);
            let mut sorted = hits.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), hits.len());
        }
    }

    #[test]
    fn high_degree_nodes_rank_higher() {
        // Lollipop: clique nodes see far more walk traffic than tail tip.
        let g = fixtures::lollipop_graph(6, 6);
        let targets: Vec<u32> = vec![0, 11]; // clique member vs path tip
        let mut rng = StdRng::seed_from_u64(7);
        let est = rank_one(&g, &targets, 4, 0.05, &mut rng);
        assert!(est.kpc[0] > est.kpc[1]);
        assert_eq!(est.inner.ranking()[0], 0);
    }

    #[test]
    fn vc_dimension_bound() {
        let g = fixtures::grid_graph(4, 4);
        let p = KPathApproxProblem::new(&g, &[1, 2, 3], 8);
        // π_max ≤ min(8, 3) = 3 → VC ≤ ⌊log₂3⌋+1 = 2.
        assert_eq!(p.vc_dimension(), 2);
    }

    #[test]
    fn isolated_nodes_contribute_empty_walks() {
        let g = fixtures::disconnected_mix();
        let targets: Vec<u32> = vec![0, 5];
        let mut rng = StdRng::seed_from_u64(8);
        let est = rank_one(&g, &targets, 3, 0.1, &mut rng);
        // Node 5 is isolated: never visited.
        assert_eq!(est.kpc[1], 0.0);
        assert!(est.kpc[0] > 0.0);
    }
}

//! `Gen_bc` (Algorithm 2): rejection sampling over the PISP space, and the
//! [`crate::framework::HrProblem`] implementation driving Algorithm 1.
//!
//! A sample is drawn in four stages (component → source → target → uniform
//! shortest path via balanced bidirectional BFS restricted to the
//! component's edges) and *rejected* if it lands in the exact subspace
//! (length-2 path with a target inner node), which realizes the
//! approximate distribution `D̃` of Eq. 31.
//!
//! The problem/sampler split follows the parallel batch contract: the
//! [`BcApproxProblem`] holds the immutable PISP prefix-sum tables and index
//! map (shared across workers by reference — they are never copied), and
//! each [`BcSampler`] owns a private [`BiBfs`] workspace and path buffer,
//! so concurrent workers draw without locks or allocation. Accept/reject
//! telemetry flows back through relaxed atomic counters (totals only —
//! per-worker interleaving is irrelevant).
//!
//! Unlike the k-path walk, `Gen_bc` is **not** a
//! [`crate::framework::SharedDraw`] problem: the rejection loop consults
//! the target set (`path_in_exact_subspace`), so the very RNG consumption
//! of a draw is personalized — two subscribers with different targets
//! diverge after the first rejected path. Cross-request batching therefore
//! fuses BC subscribers at the *schedule* level only (one parallel pass
//! per doubling round via [`crate::framework::LocalExec`]), never at the
//! draw level.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::{Rng, RngCore};
use saphyra_graph::bbbfs::BiBfs;
use saphyra_graph::{Bicomps, Graph, NodeId};

use super::isp::Pisp;
use super::outreach::Outreach;
use saphyra_stats::vc_sample_bound;

use crate::framework::{HrProblem, HrSampler};

const NONE: u32 = u32::MAX;

/// The exact-subspace membership test of Eq. 29: a length-2 path whose
/// inner node is a target. The one definition shared by the rejection
/// loops and [`BcApproxProblem::in_exact_subspace`].
#[inline]
fn path_in_exact_subspace(a_index: &[u32], path: &[NodeId]) -> bool {
    path.len() == 3 && a_index[path[1] as usize] != NONE
}

/// The approximate-subspace sampling problem for one target set: the
/// shared, read-only half of the `Gen_bc` engine.
pub struct BcApproxProblem<'a> {
    g: &'a Graph,
    bic: &'a Bicomps,
    pisp: Pisp,
    a_index: Cow<'a, [u32]>,
    /// Number of targets `k`.
    k: usize,
    vc_dim: usize,
    /// Samples accepted (returned to the estimator), summed over all
    /// workers.
    accepted: AtomicU64,
    /// Samples rejected into the exact subspace (Algorithm 2 line 6).
    rejected: AtomicU64,
    /// Whether exact-subspace samples are rejected (false = the
    /// no-partitioning ablation: sample the raw PISP distribution).
    pub reject_exact: bool,
    /// Scratch for the single-sample convenience methods, built on first
    /// use: the batch path creates one scratch per worker and never reads
    /// it.
    own: Option<BcScratch>,
}

/// Mutable per-drawing-head state: BFS workspace and path buffer.
struct BcScratch {
    bb: BiBfs,
    path: Vec<NodeId>,
}

impl BcScratch {
    fn new(n: usize) -> Self {
        BcScratch {
            bb: BiBfs::new(n),
            path: Vec::new(),
        }
    }
}

/// Draws one raw ISP sample into `scratch.path`.
fn sample_isp_into<R: Rng + ?Sized>(
    g: &Graph,
    bic: &Bicomps,
    pisp: &Pisp,
    scratch: &mut BcScratch,
    rng: &mut R,
) {
    let (b, s, t) = pisp.sample_pair(bic, rng);
    let filter = |slot: usize| bic.bicomp_of_slot(slot) == b;
    let res = scratch
        .bb
        .query(g, s, t, filter)
        .expect("co-component pair must be connected within its component");
    scratch
        .bb
        .sample_path_into(g, res, rng, filter, &mut scratch.path);
}

/// One `Gen_bc` draw into `hits`: optional rejection loop plus inner-node
/// hit extraction (endpoints never count, Eq. 6). Returns the
/// `(accepted, rejected)` deltas.
#[allow(clippy::too_many_arguments)]
fn draw_hits(
    g: &Graph,
    bic: &Bicomps,
    pisp: &Pisp,
    a_index: &[u32],
    reject_exact: bool,
    scratch: &mut BcScratch,
    rng: &mut dyn RngCore,
    hits: &mut Vec<u32>,
) -> (u64, u64) {
    let mut rejected = 0;
    if reject_exact {
        loop {
            sample_isp_into(g, bic, pisp, scratch, rng);
            if path_in_exact_subspace(a_index, &scratch.path) {
                rejected += 1;
                continue;
            }
            break;
        }
    } else {
        sample_isp_into(g, bic, pisp, scratch, rng);
    }
    let path = &scratch.path;
    let len = path.len();
    for &v in &path[1..len.saturating_sub(1)] {
        let ai = a_index[v as usize];
        if ai != NONE {
            hits.push(ai);
        }
    }
    (1, rejected)
}

impl<'a> BcApproxProblem<'a> {
    /// Builds the sampler. `a_index` maps node → position in `targets` (or
    /// `u32::MAX`), borrowed or owned; `vc_dim` is the personalized VC
    /// bound (Corollary 22).
    pub fn new(
        g: &'a Graph,
        bic: &'a Bicomps,
        outreach: &Outreach,
        targets: &[NodeId],
        a_index: impl Into<Cow<'a, [u32]>>,
        vc_dim: usize,
    ) -> Self {
        let pisp = Pisp::new(bic, outreach, targets);
        let a_index = a_index.into();
        debug_assert_eq!(
            a_index.iter().filter(|&&i| i != NONE).count(),
            targets.len(),
            "a_index must index exactly the targets"
        );
        BcApproxProblem {
            g,
            bic,
            pisp,
            a_index,
            k: targets.len(),
            vc_dim,
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            reject_exact: true,
            own: None,
        }
    }

    /// The PISP tables (exposes `η` and `I(A)`).
    pub fn pisp(&self) -> &Pisp {
        &self.pisp
    }

    /// The node → target-position map the problem was built with.
    pub(crate) fn a_index(&self) -> &[u32] {
        &self.a_index
    }

    /// Samples accepted so far (all workers).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Samples rejected into the exact subspace so far (all workers).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Draws one PISP path *without* the exact-subspace rejection — the raw
    /// ISP distribution, used by tests and by the no-partitioning ablation.
    pub fn sample_isp_path<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<NodeId> {
        let n = self.g.num_nodes();
        let own = self.own.get_or_insert_with(|| BcScratch::new(n));
        sample_isp_into(self.g, self.bic, &self.pisp, own, rng);
        own.path.clone()
    }

    /// Whether a path lies in the exact subspace `X̂` (Eq. 29).
    #[inline]
    pub fn in_exact_subspace(&self, path: &[NodeId]) -> bool {
        path_in_exact_subspace(&self.a_index, path)
    }

    /// Draws one sample from `D̃` (rejection loop of Algorithm 2).
    pub fn sample_approx_path<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<NodeId> {
        let n = self.g.num_nodes();
        let own = self.own.get_or_insert_with(|| BcScratch::new(n));
        let (mut accepted, mut rejected) = (0, 0);
        loop {
            sample_isp_into(self.g, self.bic, &self.pisp, own, rng);
            if path_in_exact_subspace(&self.a_index, &own.path) {
                rejected += 1;
                continue;
            }
            accepted += 1;
            break;
        }
        self.accepted.fetch_add(accepted, Ordering::Relaxed);
        self.rejected.fetch_add(rejected, Ordering::Relaxed);
        own.path.clone()
    }

    /// Empirical rejection rate (should approach `λ̂`, Lemma 17).
    pub fn rejection_rate(&self) -> f64 {
        let accepted = self.accepted();
        let rejected = self.rejected();
        let total = accepted + rejected;
        if total == 0 {
            0.0
        } else {
            rejected as f64 / total as f64
        }
    }
}

/// Per-worker drawing head of `Gen_bc`: borrows the shared tables, owns
/// the BFS scratch.
pub struct BcSampler<'p> {
    g: &'p Graph,
    bic: &'p Bicomps,
    pisp: &'p Pisp,
    a_index: &'p [u32],
    reject_exact: bool,
    scratch: BcScratch,
    local_accepted: u64,
    local_rejected: u64,
    accepted: &'p AtomicU64,
    rejected: &'p AtomicU64,
}

impl Drop for BcSampler<'_> {
    fn drop(&mut self) {
        // Telemetry flush: one atomic RMW per worker lifetime, not per
        // sample.
        self.accepted
            .fetch_add(self.local_accepted, Ordering::Relaxed);
        self.rejected
            .fetch_add(self.local_rejected, Ordering::Relaxed);
    }
}

impl HrSampler<u64> for BcSampler<'_> {
    fn sample_into(&mut self, rng: &mut dyn RngCore, hits: &mut Vec<u32>) {
        let (accepted, rejected) = draw_hits(
            self.g,
            self.bic,
            self.pisp,
            self.a_index,
            self.reject_exact,
            &mut self.scratch,
            rng,
            hits,
        );
        self.local_accepted += accepted;
        self.local_rejected += rejected;
    }
}

impl HrProblem<u64> for BcApproxProblem<'_> {
    fn num_hypotheses(&self) -> usize {
        self.k
    }

    fn sampler(&self) -> Box<dyn HrSampler<u64> + '_> {
        Box::new(BcSampler {
            g: self.g,
            bic: self.bic,
            pisp: &self.pisp,
            a_index: &self.a_index,
            reject_exact: self.reject_exact,
            scratch: BcScratch::new(self.g.num_nodes()),
            local_accepted: 0,
            local_rejected: 0,
            accepted: &self.accepted,
            rejected: &self.rejected,
        })
    }

    /// Lemma 4's VC bound with the personalized VC dimension.
    fn max_samples(&self, eps_prime: f64, delta: f64) -> usize {
        vc_sample_bound(eps_prime, delta, self.vc_dim.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::exact2hop::build_a_index;
    use crate::bc::isp::enumerate_pair_probs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saphyra_graph::fixtures::{self, fig2::*};
    use saphyra_graph::BlockCutTree;

    fn setup(g: &Graph) -> (Bicomps, Outreach) {
        let bic = Bicomps::compute(g);
        let tree = BlockCutTree::compute(&bic);
        let or = Outreach::compute(&bic, &tree);
        (bic, or)
    }

    #[test]
    fn isp_paths_stay_inside_one_component() {
        let g = fixtures::paper_fig2();
        let (bic, or) = setup(&g);
        let all: Vec<u32> = g.nodes().collect();
        let a_index = build_a_index(11, &all);
        let mut prob = BcApproxProblem::new(&g, &bic, &or, &all, &a_index, 3);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            let p = prob.sample_isp_path(&mut rng);
            assert!(p.len() >= 2);
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
            // All edges of the path share one component.
            let b0 = bic.edge_bicomp[g.edge_id(p[0], p[1]).unwrap() as usize];
            for w in p.windows(2) {
                let b = bic.edge_bicomp[g.edge_id(w[0], w[1]).unwrap() as usize];
                assert_eq!(b, b0);
            }
        }
    }

    #[test]
    fn isp_sampling_matches_closed_form_expectation() {
        // Lemma 13 (statistical form): γ·E_{p∼Dc}[g(v,p)] + bcₐ(v) = bc(v).
        let g = fixtures::paper_fig2();
        let (bic, or) = setup(&g);
        let tree = BlockCutTree::compute(&bic);
        let all: Vec<u32> = g.nodes().collect();
        let a_index = build_a_index(11, &all);
        let mut prob = BcApproxProblem::new(&g, &bic, &or, &all, &a_index, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 400_000usize;
        let mut inner_counts = [0u64; 11];
        for _ in 0..trials {
            let p = prob.sample_isp_path(&mut rng);
            for &v in &p[1..p.len() - 1] {
                inner_counts[v as usize] += 1;
            }
        }
        let gamma = super::super::outreach::gamma(&g, &or);
        let bca = super::super::outreach::bca_values(&g, &bic, &tree);
        let bc = saphyra_graph::brandes::betweenness_exact(&g);
        for v in 0..11usize {
            let est = gamma * inner_counts[v] as f64 / trials as f64 + bca[v];
            assert!(
                (est - bc[v]).abs() < 0.01,
                "node {v}: sampled {est} vs exact {}",
                bc[v]
            );
        }
    }

    #[test]
    fn rejection_rate_matches_lambda_hat() {
        let g = fixtures::grid_graph(5, 5);
        let (bic, or) = setup(&g);
        let targets: Vec<u32> = vec![6, 12, 18];
        let a_index = build_a_index(25, &targets);
        let exact = super::super::exact2hop::exact_bc(&g, &bic, &or, &targets, &a_index);
        let mut prob = BcApproxProblem::new(&g, &bic, &or, &targets, &a_index, 4);
        let gamma_eta = prob.pisp().total_weight() / (25.0 * 24.0);
        let lambda_hat = exact.lambda_raw / gamma_eta;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30_000 {
            let _ = prob.sample_approx_path(&mut rng);
        }
        let rate = prob.rejection_rate();
        assert!(
            (rate - lambda_hat).abs() < 0.01,
            "rejection {rate} vs λ̂ {lambda_hat}"
        );
    }

    #[test]
    fn approx_samples_never_come_from_exact_subspace() {
        let g = fixtures::grid_graph(4, 4);
        let (bic, or) = setup(&g);
        let targets: Vec<u32> = vec![5, 10];
        let a_index = build_a_index(16, &targets);
        let mut prob = BcApproxProblem::new(&g, &bic, &or, &targets, &a_index, 3);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..3000 {
            let p = prob.sample_approx_path(&mut rng);
            assert!(!prob.in_exact_subspace(&p));
        }
    }

    #[test]
    fn pair_marginals_match_enumeration_under_sampling() {
        // End-to-end check that path endpoints follow the PISP pair law.
        let g = fixtures::two_triangles_bridge();
        let (bic, or) = setup(&g);
        let targets = vec![2u32];
        let a_index = build_a_index(6, &targets);
        let mut prob = BcApproxProblem::new(&g, &bic, &or, &targets, &a_index, 2);
        let probs = enumerate_pair_probs(&g, &bic, &or, prob.pisp());
        let mut expect = std::collections::BTreeMap::new();
        for (_, s, t, q) in probs {
            *expect.entry((s, t)).or_insert(0.0) += q;
        }
        let mut rng = StdRng::seed_from_u64(21);
        let trials = 100_000;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..trials {
            let p = prob.sample_isp_path(&mut rng);
            *counts.entry((p[0], *p.last().unwrap())).or_insert(0usize) += 1;
        }
        for ((s, t), &q) in &expect {
            let got = *counts.get(&(*s, *t)).unwrap_or(&0) as f64 / trials as f64;
            assert!(
                (got - q).abs() < 0.01 + 0.1 * q,
                "pair ({s},{t}): {got} vs {q}"
            );
        }
    }

    #[test]
    fn sampled_path_stream_is_byte_identical_per_seed() {
        // The determinism contract: the Gen(·) draw stream may depend only
        // on the seed — never on map iteration order or address layout.
        // Two fresh problem instances must emit identical path sequences.
        let g = fixtures::two_triangles_bridge();
        let (bic, or) = setup(&g);
        let targets = vec![2u32];
        let a_index = build_a_index(6, &targets);
        let draw = || {
            let mut prob = BcApproxProblem::new(&g, &bic, &or, &targets, &a_index, 2);
            let mut rng = StdRng::seed_from_u64(77);
            (0..2000)
                .map(|_| prob.sample_isp_path(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn hr_problem_interface() {
        use crate::framework::HrProblem;
        let g = fixtures::paper_fig2();
        let (bic, or) = setup(&g);
        let targets = vec![C, D];
        let a_index = build_a_index(11, &targets);
        let prob = BcApproxProblem::new(&g, &bic, &or, &targets, &a_index, 2);
        assert_eq!(prob.num_hypotheses(), 2);
        assert_eq!(prob.max_samples(0.1, 0.1), vc_sample_bound(0.1, 0.1, 2));
        let mut sampler = prob.sampler();
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = Vec::new();
        for _ in 0..500 {
            hits.clear();
            sampler.sample_into(&mut rng, &mut hits);
            assert!(hits.len() <= 2);
            for &h in &hits {
                assert!(h < 2);
            }
        }
    }

    #[test]
    fn concurrent_samplers_share_tables_and_flush_telemetry() {
        let g = fixtures::grid_graph(6, 6);
        let (bic, or) = setup(&g);
        let targets: Vec<u32> = vec![7, 14, 21, 28];
        let a_index = build_a_index(36, &targets);
        let prob = BcApproxProblem::new(&g, &bic, &or, &targets, &a_index, 3);
        let per_worker = 2000u64;
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let prob = &prob;
                scope.spawn(move || {
                    let mut sampler = prob.sampler();
                    let mut rng = StdRng::seed_from_u64(100 + w);
                    let mut hits = Vec::new();
                    for _ in 0..per_worker {
                        hits.clear();
                        sampler.sample_into(&mut rng, &mut hits);
                    }
                });
            }
        });
        // Every accepted draw was counted exactly once after the drops.
        assert_eq!(prob.accepted(), 4 * per_worker);
        // Rejection happens on this instance (targets sit on many 2-paths).
        assert!(prob.rejected() > 0);
    }

    #[test]
    fn batch_and_single_sample_paths_agree_in_distribution() {
        // The batch sampler head and the problem's own single-sample
        // rejection path draw from the same D̃: compare per-hypothesis hit
        // frequencies.
        let g = fixtures::grid_graph(6, 5);
        let (bic, or) = setup(&g);
        let targets: Vec<u32> = vec![7, 8, 14, 21];
        let a_index = build_a_index(30, &targets);
        let mut prob = BcApproxProblem::new(&g, &bic, &or, &targets, &a_index, 3);
        let trials = 60_000usize;

        let mut batch_counts = vec![0u64; targets.len()];
        {
            let mut sampler = prob.sampler();
            let mut rng = StdRng::seed_from_u64(11);
            let mut hits = Vec::new();
            for _ in 0..trials {
                hits.clear();
                sampler.sample_into(&mut rng, &mut hits);
                for &h in &hits {
                    batch_counts[h as usize] += 1;
                }
            }
        }
        let mut single_counts = vec![0u64; targets.len()];
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..trials {
            let p = prob.sample_approx_path(&mut rng);
            for &v in &p[1..p.len() - 1] {
                if a_index[v as usize] != NONE {
                    single_counts[a_index[v as usize] as usize] += 1;
                }
            }
        }
        for i in 0..targets.len() {
            let a = batch_counts[i] as f64 / trials as f64;
            let b = single_counts[i] as f64 / trials as f64;
            assert!((a - b).abs() < 0.02, "hypothesis {i}: batch {a} single {b}");
        }
    }
}

//! Harmonic (closeness-family) centrality through the SaPHyRa framework —
//! the extension the paper's conclusion proposes ("extending the framework
//! to other centrality measures such as closeness centrality").
//!
//! We rank by *harmonic centrality mass* `hc(v) = E_{u∼V}[1/d(u, v)]`
//! (with `1/d(v,v) := 0` and `1/∞ := 0`), the disconnection-robust member
//! of the closeness family. A sample is a uniform source `u` with the
//! fractional losses `1/d(u, v) ∈ [0, 1]` for every target — the
//! Eppstein–Wang sampling scheme recast as a fractional-loss
//! [`HrProblem`] over [`LossAcc`] accumulators.
//!
//! The SaPHyRa partition: the exact subspace is `X̂ = A` itself — `|A|`
//! BFS runs evaluate every target-to-target distance in closed form,
//! `λ̂ = |A|/n`, and the approximate distribution is uniform over `V ∖ A`.
//! Ranking errors between targets that are close to *each other* (the hard
//! tie-breaks in a ranking) are thereby resolved exactly.
//!
//! Those `|A|` BFS runs are kept as distance rows, one per target. The
//! graph is undirected, so `d(u, v) = d(v, u)`, and a sample's `k` losses
//! are `k` lookups into the rows instead of a BFS from `u`. The rows take
//! `4·k·n` bytes per target set and are kept while `k·n ≤ 2²⁴` (64 MiB);
//! above that each sample runs its own BFS, and the exact part comes from
//! [`harmonic_exact_part`]. Both paths give the same bits.
//!
//! Row 0 comes from one plain BFS, which also yields target 0's
//! eccentricity `e`. When the other `k − 1` targets outnumber `e`, their
//! rows come from one bit-parallel BFS per 64 targets (Then et al., "The
//! More the Merrier", VLDB 2015), which scans a node once per distinct
//! distance from the sources instead of once per source. That only pays
//! where the sources' wavefronts overlap, that is where the distinct
//! distances a node can take, bounded by the diameter and so by `2e + 1`,
//! are fewer than the sources: on the small-world sim networks (`e` ≈ 5)
//! the pass fills 16 rows 2–3× faster than plain runs, on the road grid
//! (`e` ≈ 100) at 0.6–0.7× their speed, so with `k − 1 ≤ e` the rows stay
//! plain BFS runs. `e` is target 0's alone: a target 0 in a small
//! component (an isolated one has `e = 0`) picks the pass even where it
//! is slower. Either fill writes the integers `k` plain runs write, so the
//! exact part, every sample's losses and every served byte are the same.

use rand::Rng;
use rand::RngCore;
use saphyra_graph::bfs::{BfsWorkspace, INFINITY};
use saphyra_graph::{Graph, NodeId};

use saphyra_stats::hoeffding_samples;

use crate::framework::{
    estimate, ExactPart, HrProblem, HrSampler, LocalExec, LossAcc, SaphyraEstimate, Subscriber,
};

const NONE: u32 = u32::MAX;

/// Most distance-row entries (`k·n`) one target set keeps: 64 MiB of
/// `u32`. A fixed cap, like the one on `f64_groups`' accumulators.
const ROW_BUDGET: usize = 1 << 24;

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

/// One distance-only BFS from `s` into `row`, which arrives filled with
/// [`INFINITY`]; unreached nodes keep it. `queue` is left holding the
/// reached nodes in visit order.
fn bfs_row(g: &Graph, s: NodeId, row: &mut [u32], queue: &mut Vec<NodeId>) {
    queue.clear();
    queue.push(s);
    row[s as usize] = 0;
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let d = row[v as usize] + 1;
        for &w in g.neighbors(v) {
            if row[w as usize] == INFINITY {
                row[w as usize] = d;
                queue.push(w);
            }
        }
    }
}

/// Fills the row-major table `rows[i·n + u] = d(tᵢ, u)`, which arrives
/// filled with [`INFINITY`]. Row 0 is a plain [`bfs_row`]; its last
/// queued node gives target 0's eccentricity. When the remaining targets
/// outnumber it, their rows come from one [`bfs_rows_bitparallel`] pass
/// per 64 targets, otherwise from a plain BFS each. Both write the same
/// integers.
fn fill_rows(g: &Graph, targets: &[NodeId], rows: &mut [u32]) {
    let Some((&t0, rest_targets)) = targets.split_first() else {
        return;
    };
    let n = g.num_nodes();
    let (first, rest) = rows.split_at_mut(n);
    let mut queue = Vec::with_capacity(n);
    bfs_row(g, t0, first, &mut queue);
    let ecc = queue.last().map_or(0, |&v| first[v as usize]);
    if rest_targets.len() > ecc as usize {
        for (sources, block) in rest_targets.chunks(64).zip(rest.chunks_mut(64 * n)) {
            bfs_rows_bitparallel(g, sources, block);
        }
    } else {
        for (&t, row) in rest_targets.iter().zip(rest.chunks_exact_mut(n)) {
            bfs_row(g, t, row, &mut queue);
        }
    }
}

/// One top-down bit-parallel BFS from up to 64 distinct `sources` at once
/// (Then et al., "The More the Merrier", VLDB 2015): source `i` is bit `i`
/// of a `u64` mask, `rows[i·n + u] = d(sources[i], u)`, and the rows
/// arrive filled with [`INFINITY`]. Each level passes every frontier
/// node's mask to its neighbours; a neighbour joins the next level with
/// the bits it had not yet seen, and its row entry is written for each of
/// them. A node is scanned once per distinct distance from the sources,
/// not once per source, so the pass beats plain runs where their
/// wavefronts overlap.
fn bfs_rows_bitparallel(g: &Graph, sources: &[NodeId], rows: &mut [u32]) {
    debug_assert!(sources.len() <= 64);
    let n = g.num_nodes();
    // Bit `i` of `seen[v]`: source `i` has reached `v`. `next[v]`: the
    // sources reaching `v` for the first time at this level, non-zero
    // exactly for the nodes in `touched`.
    let (mut seen, mut next) = (vec![0u64; n], vec![0u64; n]);
    let mut frontier: Vec<(NodeId, u64)> = Vec::with_capacity(sources.len());
    let mut touched: Vec<NodeId> = Vec::new();
    for (i, &v) in sources.iter().enumerate() {
        seen[v as usize] = 1 << i;
        frontier.push((v, 1 << i));
        rows[i * n + v as usize] = 0;
    }
    let mut d = 0;
    while !frontier.is_empty() {
        d += 1;
        for &(v, mask) in &frontier {
            for &w in g.neighbors(v) {
                let new = mask & !seen[w as usize];
                if new != 0 {
                    if next[w as usize] == 0 {
                        touched.push(w);
                    }
                    next[w as usize] |= new;
                    seen[w as usize] |= new;
                }
            }
        }
        frontier.clear();
        for w in touched.drain(..) {
            let mask = std::mem::take(&mut next[w as usize]);
            frontier.push((w, mask));
            let mut bits = mask;
            while bits != 0 {
                rows[bits.trailing_zeros() as usize * n + w as usize] = d;
                bits &= bits - 1;
            }
        }
    }
}

/// The exact part read off the target rows: for each target, `1/d` summed
/// over the sources in target order, as [`harmonic_exact_part`] sums it.
fn exact_part_from_rows(rows: &[u32], n: usize, targets: &[NodeId]) -> ExactPart {
    let exact_risks = targets
        .iter()
        .map(|&v| {
            let mut acc = 0.0f64;
            for row in rows.chunks_exact(n) {
                let d = row[v as usize];
                if d != INFINITY && d > 0 {
                    acc += 1.0 / d as f64;
                }
            }
            acc / n as f64
        })
        .collect();
    ExactPart {
        lambda_hat: targets.len() as f64 / n as f64,
        exact_risks,
    }
}

/// The approximate-subspace sampling problem: uniform sources from
/// `V ∖ A`, together with the exact part. For `A = V` the complement is
/// empty: `λ̂ = 1`, so the estimator never samples such a problem.
///
/// While `k·n ≤ 2²⁴`, construction fills a `k×n` table of `u32` distances
/// (`4·k·n` bytes, freed with the problem), and both the exact part and
/// every sample read it. Row 0 is a plain BFS; the other rows come from
/// bit-parallel passes of up to 64 targets when they outnumber target 0's
/// eccentricity, where the wavefronts overlap enough for the pass to win,
/// and from a plain BFS each otherwise (see the module docs; a target 0 in
/// a small component can pick the pass where it is slower). Above the
/// budget each sample runs a BFS in its [`HarmonicSampler`]'s workspace
/// and the exact part is [`harmonic_exact_part`]. The integers, and so
/// the bits, are the same on every path.
pub struct HarmonicApproxProblem<'a> {
    g: &'a Graph,
    a_pos: Vec<u32>,
    complement: Vec<NodeId>,
    k: usize,
    /// `rows[i·n + u] = d(tᵢ, u)`, or `None` over the row budget.
    rows: Option<Vec<u32>>,
    exact: ExactPart,
}

impl<'a> HarmonicApproxProblem<'a> {
    /// Builds the sampler and the exact part.
    pub fn new(g: &'a Graph, targets: &[NodeId]) -> Self {
        Self::with_row_budget(g, targets, ROW_BUDGET)
    }

    /// [`Self::new`] keeping distance rows only while `k·n ≤ row_budget`.
    fn with_row_budget(g: &'a Graph, targets: &[NodeId], row_budget: usize) -> Self {
        let n = g.num_nodes();
        let k = targets.len();
        let mut a_pos = vec![NONE; n];
        for (i, &v) in targets.iter().enumerate() {
            assert!(a_pos[v as usize] == NONE, "duplicate target {v}");
            a_pos[v as usize] = i as u32;
        }
        let complement: Vec<NodeId> = g.nodes().filter(|&v| a_pos[v as usize] == NONE).collect();
        let (rows, exact) = if k.saturating_mul(n) <= row_budget {
            let mut rows = vec![INFINITY; k * n];
            fill_rows(g, targets, &mut rows);
            let exact = exact_part_from_rows(&rows, n, targets);
            (Some(rows), exact)
        } else {
            (None, harmonic_exact_part(g, targets))
        };
        HarmonicApproxProblem {
            g,
            a_pos,
            complement,
            k,
            rows,
            exact,
        }
    }
}

/// Where a sampler finds `d(u, tᵢ)` for a drawn source `u`.
enum Distances<'p> {
    /// Column `u` of the target rows.
    Rows(&'p [u32]),
    /// Over the row budget: a BFS from `u`.
    Bfs(BfsWorkspace),
}

/// Per-worker drawing head; owns a BFS workspace only over the row budget.
pub struct HarmonicSampler<'p> {
    problem: &'p HarmonicApproxProblem<'p>,
    dist: Distances<'p>,
}

impl HrSampler<LossAcc> for HarmonicSampler<'_> {
    fn sample_into(&mut self, rng: &mut dyn RngCore, out: &mut Vec<(u32, f64)>) {
        let p = self.problem;
        let u = p.complement[rng.gen_range(0..p.complement.len())];
        match &mut self.dist {
            Distances::Rows(rows) => {
                // At most one loss per target, so target order here and
                // node order on the BFS path give the same sums.
                for (i, row) in rows.chunks_exact(p.g.num_nodes()).enumerate() {
                    let d = row[u as usize];
                    if d != INFINITY && d > 0 {
                        out.push((i as u32, 1.0 / d as f64));
                    }
                }
            }
            Distances::Bfs(ws) => {
                ws.run(p.g, u);
                for (v, &pos) in p.a_pos.iter().enumerate() {
                    if pos == NONE {
                        continue;
                    }
                    let d = ws.dist(v as NodeId);
                    if d != INFINITY && d > 0 {
                        out.push((pos, 1.0 / d as f64));
                    }
                }
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
        let dist = match &self.rows {
            Some(rows) => Distances::Rows(rows),
            None => Distances::Bfs(BfsWorkspace::new(self.g.num_nodes())),
        };
        Box::new(HarmonicSampler {
            problem: self,
            dist,
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
/// set alone under the same seed.
pub fn rank_harmonic(
    g: &Graph,
    sets: &[Vec<NodeId>],
    eps: f64,
    delta: f64,
    rng: &mut dyn RngCore,
) -> Vec<HarmonicEstimate> {
    rank_harmonic_with(g, sets, eps, delta, rng, ROW_BUDGET)
}

/// [`rank_harmonic`] keeping distance rows only for sets with
/// `k·n ≤ row_budget`; 0 forces a BFS per sample.
fn rank_harmonic_with(
    g: &Graph,
    sets: &[Vec<NodeId>],
    eps: f64,
    delta: f64,
    rng: &mut dyn RngCore,
    row_budget: usize,
) -> Vec<HarmonicEstimate> {
    let probs: Vec<HarmonicApproxProblem> = sets
        .iter()
        .map(|t| {
            assert!(!t.is_empty());
            HarmonicApproxProblem::with_row_budget(g, t, row_budget)
        })
        .collect();
    let subs: Vec<Subscriber<LossAcc>> = probs
        .iter()
        .map(|problem| Subscriber {
            problem,
            exact: problem.exact.clone(),
            eps,
            delta,
            adaptive: true,
        })
        .collect();
    let refs: Vec<&HarmonicApproxProblem> = probs.iter().collect();
    let inners = estimate(&subs, rng.next_u64(), &mut LocalExec::new(&refs));
    sets.iter()
        .zip(inners)
        .map(|(targets, inner)| HarmonicEstimate {
            targets: targets.clone(),
            hc: inner.combined.clone(),
            inner,
        })
        .collect()
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
        rank_harmonic(g, &[targets.to_vec()], eps, 0.1, rng).remove(0)
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

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Ranks `sets` once with distance rows and once with a BFS per sample
    /// (row budget 0) and asserts the same bits, and that every set's
    /// exact part read off its rows is [`harmonic_exact_part`]'s.
    fn assert_rows_match_bfs(g: &Graph, sets: &[Vec<NodeId>], eps: f64, seed: u64) {
        let run = |row_budget| {
            let mut rng = StdRng::seed_from_u64(seed);
            rank_harmonic_with(g, sets, eps, 0.1, &mut rng, row_budget)
        };
        let (rows, bfs) = (run(ROW_BUDGET), run(0));
        for (i, (r, b)) in rows.iter().zip(&bfs).enumerate() {
            let (ro, bo) = (&r.inner.outcome, &b.inner.outcome);
            assert_eq!(bits(&r.hc), bits(&b.hc), "set {i}, seed {seed}");
            assert_eq!(ro.samples_used, bo.samples_used, "set {i}, seed {seed}");
            assert_eq!(ro.achieved_eps.to_bits(), bo.achieved_eps.to_bits());
        }
        for t in sets {
            let p = HarmonicApproxProblem::new(g, t);
            assert!(p.rows.is_some(), "rows kept under the budget");
            let reference = harmonic_exact_part(g, t);
            assert_eq!(bits(&p.exact.exact_risks), bits(&reference.exact_risks));
            assert_eq!(p.exact.lambda_hat.to_bits(), reference.lambda_hat.to_bits());
        }
    }

    #[test]
    fn rows_match_bfs_across_components() {
        // Targets in different components, the isolated node 5, k = 1 and
        // an A = V member, batched.
        let g = fixtures::disconnected_mix();
        let sets: Vec<Vec<u32>> = vec![
            vec![0, 3],
            vec![5],
            vec![4, 1, 5],
            vec![2],
            g.nodes().collect(),
        ];
        for seed in [1, 7, 42] {
            assert_rows_match_bfs(&g, &sets, 0.05, seed);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let est = rank_one(&g, &[5, 0], 0.05, &mut rng);
        assert!(est.inner.outcome.samples_used > 0);
        assert_eq!(est.hc[0], 0.0, "an isolated target has no harmonic mass");
    }

    #[test]
    fn rows_match_bfs_on_sparse_random_graphs() {
        // G(n, m) with m < n leaves isolated nodes and many components.
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = saphyra_gen::er::gnm(40, 30, &mut rng);
            let mut nodes: Vec<u32> = g.nodes().collect();
            for i in 0..nodes.len() {
                let j = rng.gen_range(i..nodes.len());
                nodes.swap(i, j);
            }
            let isolated = g.nodes().find(|&v| g.degree(v) == 0).expect("isolated");
            let sets: Vec<Vec<u32>> = vec![
                nodes[..6].to_vec(),
                vec![nodes[6]],
                vec![isolated],
                nodes[7..20].to_vec(),
            ];
            assert_rows_match_bfs(&g, &sets, 0.05, seed);
        }
    }

    /// The table of `k` plain [`bfs_row`] runs, one per target.
    fn plain_rows(g: &Graph, targets: &[NodeId]) -> Vec<u32> {
        let n = g.num_nodes();
        let mut rows = vec![INFINITY; targets.len() * n];
        let mut queue = Vec::new();
        for (&t, row) in targets.iter().zip(rows.chunks_exact_mut(n)) {
            bfs_row(g, t, row, &mut queue);
        }
        rows
    }

    #[test]
    fn fill_rows_matches_plain_bfs_on_both_sides_of_the_rule() {
        // Sparse G(n, m) (isolated nodes, many components), a grid and a
        // long path, with targets in random order: target 0's eccentricity
        // falls on both sides of k − 1.
        let mut rng = StdRng::seed_from_u64(26);
        let graphs = [
            saphyra_gen::er::gnm(300, 200, &mut rng),
            saphyra_gen::er::gnm(300, 290, &mut rng),
            fixtures::grid_graph(20, 15),
            fixtures::path_graph(200),
        ];
        let (mut plain, mut partial_word, mut full_word) = (0, 0, 0);
        for g in &graphs {
            let n = g.num_nodes();
            let mut ws = BfsWorkspace::new(n);
            let mut nodes: Vec<NodeId> = g.nodes().collect();
            for k in [1, 2, 17, 64, 65, 130] {
                for _ in 0..3 {
                    for i in 0..n {
                        let j = rng.gen_range(i..n);
                        nodes.swap(i, j);
                    }
                    let targets = &nodes[..k];
                    ws.run(g, targets[0]);
                    let sources = k - 1;
                    if sources > ws.eccentricity() as usize {
                        partial_word += usize::from(sources % 64 != 0);
                        full_word += usize::from(sources >= 64);
                    } else {
                        plain += usize::from(sources > 0);
                    }
                    let mut rows = vec![INFINITY; k * n];
                    fill_rows(g, targets, &mut rows);
                    assert!(rows == plain_rows(g, targets), "n {n}, k {k}");
                }
            }
        }
        assert!(graphs[0].nodes().any(|v| graphs[0].degree(v) == 0));
        assert!(plain > 0, "no plain fill ran");
        assert!(partial_word > 0, "no pass ended on a partial word");
        assert!(full_word > 0, "no pass filled a whole word");
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

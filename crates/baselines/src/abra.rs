//! ABRA (Riondato–Upfal, KDD 2016): node-pair sampling with
//! Rademacher-average progressive stopping.
//!
//! Each sample draws a uniform ordered pair `(s, t)` and credits **every**
//! node `v` on the s-t shortest-path DAG with its pair dependency
//! `φ_st(v) = σ_st(v)/σ_st ∈ [0, 1]` — a fractional loss, unlike the 0-1
//! losses of path sampling. This makes samples individually more
//! informative but far more expensive: a truncated BFS plus a backward
//! dependency accumulation per sample (the factor behind ABRA's slow
//! wall-clock in Fig. 3).
//!
//! Stopping follows ABRA's scheme: at doubling checkpoints compute the
//! Massart-style upper bound on the empirical Rademacher average
//! `R̃ ≤ min_{s>0} (1/s)·ln Σ_v exp(s²‖φ_v‖²/(2N²))`
//! (1-D convex minimization, here by ternary search in log-space) and stop
//! once `ξ = 2R̃ + 3√(ln(3/δ_r)/(2N)) ≤ ε`, spending `δ_r = δ/2^r` per
//! checkpoint. The diameter-VC bound of RK caps the worst case.

use rand::RngCore;
use saphyra_graph::bfs::BfsWorkspace;
use saphyra_graph::{Graph, NodeId};
use saphyra_stats::{stream, vc_sample_bound, C_VC};

use crate::common::{diameter_vc_bound, uniform_pair, BaselineEstimate};

/// ABRA configuration.
#[derive(Debug, Clone, Copy)]
pub struct AbraConfig {
    /// Additive error target ε.
    pub eps: f64,
    /// Failure probability δ.
    pub delta: f64,
}

impl AbraConfig {
    /// Standard configuration.
    pub fn new(eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
        AbraConfig { eps, delta }
    }
}

/// Scratch space for the backward dependency accumulation.
struct DagScratch {
    phi: Vec<f64>,
    mark: Vec<u32>,
    generation: u32,
    nodes: Vec<NodeId>,
}

impl DagScratch {
    fn new(n: usize) -> Self {
        DagScratch {
            phi: vec![0.0; n],
            mark: vec![0; n],
            generation: 0,
            nodes: Vec::new(),
        }
    }
}

/// Computes `φ_st(v)` for all nodes on the pair DAG into `scratch`
/// (`scratch.nodes` lists them). Requires `ws` to hold a σ-counting BFS
/// from `s` that reached `t`.
fn pair_dependencies(g: &Graph, ws: &BfsWorkspace, t: NodeId, scratch: &mut DagScratch) {
    scratch.generation = scratch.generation.wrapping_add(1).max(1);
    let generation = scratch.generation;
    scratch.nodes.clear();
    // Reverse reachability from t along predecessor edges.
    scratch.mark[t as usize] = generation;
    scratch.nodes.push(t);
    let mut head = 0usize;
    while head < scratch.nodes.len() {
        let v = scratch.nodes[head];
        head += 1;
        let dv = ws.dist(v);
        for &u in g.neighbors(v) {
            if ws.visited(u) && ws.dist(u) + 1 == dv && scratch.mark[u as usize] != generation {
                scratch.mark[u as usize] = generation;
                scratch.nodes.push(u);
            }
        }
    }
    // Process by decreasing distance: φ(v) = σs(v)·Σ_succ φ(w)/σs(w).
    scratch
        .nodes
        .sort_unstable_by_key(|&v| std::cmp::Reverse(ws.dist(v)));
    for &v in &scratch.nodes {
        scratch.phi[v as usize] = 0.0;
    }
    scratch.phi[t as usize] = 1.0;
    for &v in &scratch.nodes {
        if v == t {
            continue;
        }
        let dv = ws.dist(v);
        let mut acc = 0.0;
        for &w in g.neighbors(v) {
            if scratch.mark[w as usize] == generation && ws.visited(w) && ws.dist(w) == dv + 1 {
                acc += scratch.phi[w as usize] / ws.sigma(w);
            }
        }
        scratch.phi[v as usize] = ws.sigma(v) * acc;
    }
}

/// The Massart-style ERA upper bound: `min_s (1/s)·ln Σ_v exp(s²·q_v/(2N²))`
/// where `q_v = Σ_j φ_v(x_j)²`. `zero_nodes` counts functions with `q = 0`
/// (they contribute `exp(0) = 1` each).
fn era_upper_bound(sumsq_nonzero: &[f64], zero_nodes: usize, n_samples: usize) -> f64 {
    let nn = (n_samples as f64) * (n_samples as f64);
    let eval = |s: f64| -> f64 {
        let mut acc = zero_nodes as f64;
        for &q in sumsq_nonzero {
            acc += (s * s * q / (2.0 * nn)).exp();
        }
        acc.ln() / s
    };
    // Ternary search over ln s; the objective is unimodal.
    let (mut lo, mut hi) = (0.0f64.max(1e-9).ln(), (1e9f64).ln());
    for _ in 0..200 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if eval(m1.exp()) < eval(m2.exp()) {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    eval((0.5 * (lo + hi)).exp())
}

/// Draws `count` node-pair samples from chunks `first_chunk ..` and folds
/// their pair dependencies into `sums` / `sumsq`.
///
/// Chunks carry counter-based RNGs and fold inside the fixed-order groups
/// of [`stream::par_grouped_fold`]: one `f64` association order, so ABRA
/// stays bit-identical for every thread count like the SaPHyRa estimators
/// it is benchmarked against.
fn accumulate_block(
    g: &Graph,
    master: u64,
    first_chunk: u64,
    count: usize,
    sums: &mut [f64],
    sumsq: &mut [f64],
) {
    let n = g.num_nodes();
    let chunks = stream::num_chunks(count, stream::CHUNK);
    // Whole-graph f64 accumulators: cap groups so transient memory stays
    // bounded on large n (thread-count-independent, as f64 merging needs).
    // Trade-off: past ~2M nodes the cap shrinks below typical worker
    // counts and sampling parallelism degrades — inherent to O(n)-sized
    // deterministic f64 accumulators, acceptable for a baseline.
    let partials = stream::par_grouped_fold(
        chunks,
        stream::f64_groups(2 * n * std::mem::size_of::<f64>()),
        || (BfsWorkspace::new(n), DagScratch::new(n)),
        || (vec![0.0f64; n], vec![0.0f64; n]),
        |(ws, scratch), (s_acc, q_acc), c| {
            let mut rng = stream::chunk_rng(master, 0, first_chunk + c as u64);
            let len = stream::chunk_len(count, stream::CHUNK, c);
            for _ in 0..len {
                let (s, t) = uniform_pair(n, &mut rng);
                ws.run_counting(g, s, Some(t), |_| true);
                if ws.visited(t) && ws.dist(t) >= 2 {
                    pair_dependencies(g, ws, t, scratch);
                    for &v in &scratch.nodes {
                        if v == s || v == t {
                            continue;
                        }
                        let phi = scratch.phi[v as usize];
                        s_acc[v as usize] += phi;
                        q_acc[v as usize] += phi * phi;
                    }
                }
            }
        },
    );
    for (s_acc, q_acc) in partials {
        for v in 0..n {
            sums[v] += s_acc[v];
            sumsq[v] += q_acc[v];
        }
    }
}

/// Runs ABRA over the whole network.
pub fn abra(g: &Graph, cfg: &AbraConfig, rng: &mut dyn RngCore) -> BaselineEstimate {
    let n = g.num_nodes();
    if n < 2 || g.num_edges() == 0 {
        return BaselineEstimate {
            bc: vec![0.0; n],
            samples: 0,
            converged_early: true,
        };
    }
    let vc = diameter_vc_bound(g);
    let n0 = ((C_VC / (cfg.eps * cfg.eps) * (1.0 / cfg.delta).ln()).ceil() as usize).max(16);
    let nmax = vc_sample_bound(cfg.eps, cfg.delta, vc).max(n0);
    let master = rng.next_u64();

    let mut sums = vec![0.0f64; n];
    let mut sumsq = vec![0.0f64; n];

    let mut drawn = 0usize;
    let mut next_chunk = 0u64;
    let mut target = n0.min(nmax);
    let mut round = 0u32;
    let mut converged_early = false;
    loop {
        let block = target - drawn;
        accumulate_block(g, master, next_chunk, block, &mut sums, &mut sumsq);
        next_chunk += stream::num_chunks(block, stream::CHUNK) as u64;
        drawn = target;
        round += 1;
        let delta_r = cfg.delta / (1u64 << round.min(60)) as f64;
        let nonzero: Vec<f64> = sumsq.iter().copied().filter(|&q| q > 0.0).collect();
        let zero_nodes = n - nonzero.len();
        let era = era_upper_bound(&nonzero, zero_nodes, drawn);
        let xi = 2.0 * era + 3.0 * ((3.0 / delta_r).ln() / (2.0 * drawn as f64)).sqrt();
        if xi <= cfg.eps {
            converged_early = true;
            break;
        }
        if target >= nmax {
            break;
        }
        target = (2 * target).min(nmax);
    }

    let inv = 1.0 / drawn as f64;
    let bc: Vec<f64> = sums.iter().map(|&x| x * inv).collect();
    BaselineEstimate {
        bc,
        samples: drawn,
        converged_early,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saphyra_graph::brandes::betweenness_exact;
    use saphyra_graph::{fixtures, GraphBuilder};

    #[test]
    fn pair_dependencies_on_diamond() {
        // 0-1, 0-2, 1-3, 2-3: φ_03(1) = φ_03(2) = 1/2.
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
            .unwrap();
        let mut ws = BfsWorkspace::new(4);
        ws.run_counting(&g, 0, Some(3), |_| true);
        let mut scratch = DagScratch::new(4);
        pair_dependencies(&g, &ws, 3, &mut scratch);
        assert!((scratch.phi[1] - 0.5).abs() < 1e-12);
        assert!((scratch.phi[2] - 0.5).abs() < 1e-12);
        assert!((scratch.phi[3] - 1.0).abs() < 1e-12);
        assert!((scratch.phi[0] - 1.0).abs() < 1e-12); // source carries all
    }

    #[test]
    fn pair_dependencies_match_sigma_products() {
        // φ_st(v) must equal σs(v)·σt(v)/σ_st on every DAG node.
        let g = fixtures::grid_graph(5, 4);
        let (s, t) = (0u32, 19u32);
        let mut fwd = BfsWorkspace::new(20);
        let mut bwd = BfsWorkspace::new(20);
        fwd.run_counting(&g, s, None, |_| true);
        bwd.run_counting(&g, t, None, |_| true);
        let mut ws = BfsWorkspace::new(20);
        ws.run_counting(&g, s, Some(t), |_| true);
        let mut scratch = DagScratch::new(20);
        pair_dependencies(&g, &ws, t, &mut scratch);
        let d = fwd.dist(t);
        let sigma_st = fwd.sigma(t);
        for v in g.nodes() {
            let expect = if fwd.dist(v) + bwd.dist(v) == d {
                fwd.sigma(v) * bwd.sigma(v) / sigma_st
            } else {
                0.0
            };
            let got = if scratch.mark[v as usize] == scratch.generation {
                scratch.phi[v as usize]
            } else {
                0.0
            };
            assert!((got - expect).abs() < 1e-9, "node {v}: {got} vs {expect}");
        }
    }

    #[test]
    fn accuracy_on_fixtures() {
        for (g, seed) in [
            (fixtures::grid_graph(6, 5), 1u64),
            (fixtures::paper_fig2(), 2),
        ] {
            let truth = betweenness_exact(&g);
            let mut rng = StdRng::seed_from_u64(seed);
            let est = abra(&g, &AbraConfig::new(0.05, 0.1), &mut rng);
            for v in g.nodes() {
                let err = (est.bc[v as usize] - truth[v as usize]).abs();
                assert!(err < 0.05, "node {v}: err {err}");
            }
        }
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let g = fixtures::grid_graph(6, 5);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let mut rng = StdRng::seed_from_u64(5);
                    abra(&g, &AbraConfig::new(0.08, 0.1), &mut rng)
                })
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            let est = run(threads);
            // f64 dependencies merge in a fixed group order: exact bits.
            assert_eq!(est.bc, reference.bc, "{threads} threads");
            assert_eq!(est.samples, reference.samples);
        }
    }

    #[test]
    fn era_bound_behaves() {
        // More samples with the same per-sample mass shrink the bound.
        let a = era_upper_bound(&[4.0, 2.0], 100, 100);
        let b = era_upper_bound(&[4.0, 2.0], 100, 1000);
        assert!(b < a);
        // A zero-information family still pays the ln(n)/s union term but
        // stays finite and positive.
        let c = era_upper_bound(&[], 1000, 100);
        assert!(c.is_finite() && c > 0.0);
    }
}

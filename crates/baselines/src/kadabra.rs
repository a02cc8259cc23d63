//! KADABRA (Borassi–Natale, ESA 2016): adaptive path sampling with balanced
//! bidirectional BFS.
//!
//! Each sample is one uniform shortest path of a uniform ordered pair,
//! generated by the bidirectional search of Lemma 21 — the trick that makes
//! per-sample cost `n^{1/2+o(1)}` instead of Θ(m). Stopping is adaptive:
//! per-node empirical-Bernstein deviations under a per-node error budget
//! `δ_v = δ/(2n·R)` (union bound over nodes and doubling rounds; the
//! original optimizes the per-node split using top-k structure, which we
//! forgo — the schedule and bounds are otherwise the same family), with the
//! diameter-VC worst case as the hard budget.

use rand::RngCore;
use saphyra_graph::bbbfs::BiBfs;
use saphyra_graph::Graph;
use saphyra_stats::{
    bernoulli_sample_variance, doubling_rounds, empirical_bernstein_epsilon, vc_sample_bound, C_VC,
};

use crate::common::{diameter_vc_bound, uniform_pair, BaselineEstimate};

/// KADABRA configuration.
#[derive(Debug, Clone, Copy)]
pub struct KadabraConfig {
    /// Additive error target ε.
    pub eps: f64,
    /// Failure probability δ.
    pub delta: f64,
}

impl KadabraConfig {
    /// Standard configuration.
    pub fn new(eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
        KadabraConfig { eps, delta }
    }
}

/// Runs KADABRA over the whole network.
pub fn kadabra(g: &Graph, cfg: &KadabraConfig, rng: &mut dyn RngCore) -> BaselineEstimate {
    let n = g.num_nodes();
    let mut hits = vec![0u64; n];
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
    let rounds = doubling_rounds(n0, nmax);
    // Per-node, per-round budget (two-sided).
    let delta_node = (cfg.delta / (2.0 * n as f64 * rounds as f64)).max(1e-300);

    let mut bb = BiBfs::new(n);
    let mut path: Vec<u32> = Vec::new();
    let mut drawn = 0usize;
    let mut target = n0.min(nmax);
    let mut converged_early = false;
    loop {
        while drawn < target {
            let (s, t) = uniform_pair(n, rng);
            if let Some(res) = bb.query(g, s, t, |_| true) {
                if res.dist >= 2 {
                    bb.sample_path_into(g, res, rng, |_| true, &mut path);
                    for &v in &path[1..path.len() - 1] {
                        hits[v as usize] += 1;
                    }
                }
            }
            drawn += 1;
        }
        // Only nodes with hits can fail the check (zero-variance nodes pass
        // trivially at any realistic ε); scan once.
        let mut max_eps = 0.0f64;
        for &h in hits.iter() {
            if h == 0 {
                continue;
            }
            let var = bernoulli_sample_variance(h, drawn as u64);
            let e = empirical_bernstein_epsilon(drawn.max(2), delta_node.min(0.5), var);
            if e > max_eps {
                max_eps = e;
            }
        }
        // Zero-hit nodes: deviation bound with variance 0.
        let zero_eps = empirical_bernstein_epsilon(drawn.max(2), delta_node.min(0.5), 0.0);
        max_eps = max_eps.max(zero_eps);
        if max_eps <= cfg.eps {
            converged_early = true;
            break;
        }
        if target >= nmax {
            break;
        }
        target = (2 * target).min(nmax);
    }

    let inv = 1.0 / drawn as f64;
    let bc: Vec<f64> = hits.iter().map(|&h| h as f64 * inv).collect();
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
    use saphyra_graph::fixtures;

    #[test]
    fn accuracy_on_fixtures() {
        for (g, seed) in [
            (fixtures::grid_graph(6, 5), 1u64),
            (fixtures::paper_fig2(), 2),
            (fixtures::two_triangles_bridge(), 3),
        ] {
            let truth = betweenness_exact(&g);
            let mut rng = StdRng::seed_from_u64(seed);
            let est = kadabra(&g, &KadabraConfig::new(0.05, 0.1), &mut rng);
            for v in g.nodes() {
                let err = (est.bc[v as usize] - truth[v as usize]).abs();
                assert!(err < 0.05, "node {v}: err {err}");
            }
        }
    }

    #[test]
    fn adaptive_stop_spends_fewer_samples_on_low_variance_inputs() {
        // Complete graph: every betweenness is zero, so all hit variances
        // are zero and the Bernstein stop fires at the initial budget,
        // before the worst-case VC budget.
        let g = fixtures::complete_graph(20);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = KadabraConfig::new(0.05, 0.1);
        let est = kadabra(&g, &cfg, &mut rng);
        let vc = crate::common::diameter_vc_bound(&g);
        let nmax = saphyra_stats::vc_sample_bound(cfg.eps, cfg.delta, vc);
        assert!(est.converged_early);
        assert!(est.samples < nmax, "samples {} nmax {nmax}", est.samples);
        assert!(est.bc.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn respects_worst_case_budget() {
        let g = fixtures::grid_graph(5, 5);
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = KadabraConfig::new(0.1, 0.1);
        let est = kadabra(&g, &cfg, &mut rng);
        let vc = crate::common::diameter_vc_bound(&g);
        assert!(
            est.samples
                <= saphyra_stats::vc_sample_bound(cfg.eps, cfg.delta, vc).max(est.samples.min(1))
        );
    }
}

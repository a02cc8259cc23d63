//! Riondato–Kornaropoulos: fixed-size shortest-path sampling
//! ("Fast approximation of betweenness centrality through sampling",
//! DMKD 2016).
//!
//! The sample size comes from the diameter-based VC bound of Table I:
//! `N = c/ε² (⌊log₂(VD(V)−1)⌋ + 1 + ln(1/δ))`. Each sample picks a uniform
//! ordered pair, samples one uniform shortest path between them (here via
//! the same balanced bidirectional BFS the other estimators use — the
//! distribution is identical to the original's Dijkstra-based sampler) and
//! credits the path's inner nodes with `1/N`. Disconnected pairs are
//! counted as zero-hit samples, matching the Eq. 3 normalization.
//!
//! Sampling is parallelized with the same counter-based chunk-RNG
//! discipline as the SaPHyRa estimators ([`saphyra_stats::stream`],
//! [`saphyra_stats::stream::par_grouped_fold`]): each worker owns a
//! [`BiBfs`] workspace, draws whole chunks, and accumulates integer hit
//! counts, so the estimate is bit-identical for every thread count and
//! the baseline comparison stays apples-to-apples.

use rand::RngCore;
use saphyra_graph::bbbfs::BiBfs;
use saphyra_graph::Graph;
use saphyra_stats::{stream, vc_sample_bound};

use crate::common::{diameter_vc_bound, uniform_pair, BaselineEstimate};

/// RK configuration.
#[derive(Debug, Clone, Copy)]
pub struct RkConfig {
    /// Additive error target ε.
    pub eps: f64,
    /// Failure probability δ.
    pub delta: f64,
}

impl RkConfig {
    /// Standard configuration.
    pub fn new(eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
        RkConfig { eps, delta }
    }
}

/// Runs the RK estimator over the whole network.
pub fn rk(g: &Graph, cfg: &RkConfig, rng: &mut dyn RngCore) -> BaselineEstimate {
    let n = g.num_nodes();
    if n < 2 || g.num_edges() == 0 {
        return BaselineEstimate {
            bc: vec![0.0; n],
            samples: 0,
            converged_early: true,
        };
    }
    let vc = diameter_vc_bound(g);
    let samples = vc_sample_bound(cfg.eps, cfg.delta, vc).max(1);
    let master = rng.next_u64();

    let chunks = stream::num_chunks(samples, stream::CHUNK);
    // u64 counts merge exactly under any grouping: one O(n) accumulator
    // per worker, not per fixed group.
    let partials = stream::par_grouped_fold(
        chunks,
        stream::int_groups(),
        || (BiBfs::new(n), Vec::<u32>::new()),
        || vec![0u64; n],
        |(bb, path), local, c| {
            let mut rng = stream::chunk_rng(master, 0, c as u64);
            let len = stream::chunk_len(samples, stream::CHUNK, c);
            for _ in 0..len {
                let (s, t) = uniform_pair(n, &mut rng);
                let Some(res) = bb.query(g, s, t, |_| true) else {
                    continue; // disconnected pair: a zero-hit sample
                };
                if res.dist < 2 {
                    continue; // no inner nodes
                }
                bb.sample_path_into(g, res, &mut rng, |_| true, path);
                for &v in &path[1..path.len() - 1] {
                    local[v as usize] += 1;
                }
            }
        },
    );
    let mut counts = vec![0u64; n];
    for part in partials {
        for (t, x) in counts.iter_mut().zip(part) {
            *t += x;
        }
    }

    let inv = 1.0 / samples as f64;
    let bc: Vec<f64> = counts.iter().map(|&c| c as f64 * inv).collect();
    BaselineEstimate {
        bc,
        samples,
        converged_early: true,
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
            (fixtures::lollipop_graph(5, 5), 3),
        ] {
            let truth = betweenness_exact(&g);
            let mut rng = StdRng::seed_from_u64(seed);
            let est = rk(&g, &RkConfig::new(0.05, 0.1), &mut rng);
            for v in g.nodes() {
                let err = (est.bc[v as usize] - truth[v as usize]).abs();
                assert!(err < 0.05, "node {v}: err {err}");
            }
        }
    }

    #[test]
    fn sample_size_grows_with_tighter_eps() {
        let g = fixtures::grid_graph(5, 5);
        let mut rng = StdRng::seed_from_u64(4);
        let loose = rk(&g, &RkConfig::new(0.2, 0.1), &mut rng);
        let tight = rk(&g, &RkConfig::new(0.05, 0.1), &mut rng);
        assert!(tight.samples > loose.samples);
    }

    #[test]
    fn handles_disconnected_and_edgeless_graphs() {
        let g = fixtures::disconnected_mix();
        let mut rng = StdRng::seed_from_u64(5);
        let est = rk(&g, &RkConfig::new(0.1, 0.1), &mut rng);
        assert_eq!(est.bc.len(), 6);
        // All exact bc are zero here.
        assert!(est.bc.iter().all(|&x| x < 0.1));
        let empty = saphyra_graph::GraphBuilder::new(3).build().unwrap();
        let est = rk(&empty, &RkConfig::new(0.1, 0.1), &mut rng);
        assert_eq!(est.samples, 0);
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let g = fixtures::grid_graph(6, 6);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let mut rng = StdRng::seed_from_u64(77);
                    rk(&g, &RkConfig::new(0.08, 0.1), &mut rng)
                })
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            let est = run(threads);
            assert_eq!(est.bc, reference.bc, "{threads} threads");
            assert_eq!(est.samples, reference.samples);
        }
    }
}

//! Experiment plumbing: networks, ground-truth caching, the algorithm
//! dispatcher and subset generation.

use std::io::Write;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra_baselines::{abra, exact_betweenness, kadabra, AbraConfig, KadabraConfig};
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::{Graph, NodeId};

/// A named benchmark network.
pub struct Network {
    /// Display name (paper analogue).
    pub name: &'static str,
    /// The graph.
    pub graph: Graph,
}

/// Reads `SAPHYRA_SCALE` (`tiny` / `small` / `full`), defaulting to small.
pub fn scale_from_env() -> SizeClass {
    match std::env::var("SAPHYRA_SCALE").as_deref() {
        Ok("tiny") => SizeClass::Tiny,
        Ok("full") => SizeClass::Full,
        _ => SizeClass::Small,
    }
}

/// Reads `SAPHYRA_TRIALS` (subsets per configuration).
pub fn trials_from_env(default: usize) -> usize {
    std::env::var("SAPHYRA_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Reads `SAPHYRA_SEED`.
pub fn seed_from_env() -> u64 {
    std::env::var("SAPHYRA_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2022)
}

/// Builds the four simulated networks of Table II.
pub fn build_networks(scale: SizeClass, seed: u64) -> Vec<Network> {
    SimNetwork::all()
        .into_iter()
        .map(|net| Network {
            name: net.name(),
            graph: net.build(scale, seed),
        })
        .collect()
}

fn scale_tag(scale: SizeClass) -> &'static str {
    match scale {
        SizeClass::Tiny => "tiny",
        SizeClass::Small => "small",
        SizeClass::Full => "full",
    }
}

/// Exact betweenness with a file cache under `data/gt/` (the simulated
/// stand-in for the paper's precomputed Cray ground truth).
pub fn ground_truth(name: &str, g: &Graph, scale: SizeClass, seed: u64) -> Vec<f64> {
    let dir = std::path::Path::new("data/gt");
    let path = dir.join(format!("{name}-{}-{seed}.tsv", scale_tag(scale)));
    let fingerprint = format!("# n={} m={}", g.num_nodes(), g.num_edges());
    if let Ok(text) = std::fs::read_to_string(&path) {
        // The header fingerprints the graph; a stale cache (e.g. after a
        // generator change) is silently recomputed rather than reused.
        if text.lines().next() == Some(fingerprint.as_str()) {
            let vals: Vec<f64> = text
                .lines()
                .skip(1)
                .filter_map(|l| l.trim().parse().ok())
                .collect();
            if vals.len() == g.num_nodes() {
                return vals;
            }
        }
    }
    let t0 = Instant::now();
    let bc = exact_betweenness(g, 0);
    eprintln!(
        "[gt] computed exact betweenness for {name} ({} nodes) in {:.1}s",
        g.num_nodes(),
        t0.elapsed().as_secs_f64()
    );
    if std::fs::create_dir_all(dir).is_ok() {
        if let Ok(f) = std::fs::File::create(&path) {
            let mut w = std::io::BufWriter::new(f);
            let _ = writeln!(w, "{fingerprint}");
            for x in &bc {
                let _ = writeln!(w, "{x:.17e}");
            }
        }
    }
    bc
}

/// Draws `size` distinct nodes uniformly.
pub fn random_subset(g: &Graph, size: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let n = g.num_nodes();
    assert!(size <= n);
    let mut chosen = std::collections::HashSet::with_capacity(size * 2);
    let mut out = Vec::with_capacity(size);
    while out.len() < size {
        let v = rng.gen_range(0..n as NodeId);
        if chosen.insert(v) {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}

/// A ranking call's target set in the shape the service sees: 16 targets
/// led by the two highest-degree nodes, the rest drawn with a fixed seed,
/// so every call on one graph does the same work.
pub fn service_targets16(g: &Graph) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut by_degree: Vec<NodeId> = g.nodes().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut targets = by_degree[..2].to_vec();
    let mut pick = StdRng::seed_from_u64(16);
    while targets.len() < 16 {
        let v = pick.gen_range(0..n as NodeId);
        if !targets.contains(&v) {
            targets.push(v);
        }
    }
    targets
}

/// The four algorithms of Figs. 3-7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// ABRA (node-pair sampling, Rademacher stopping).
    Abra,
    /// KADABRA (path sampling, bidirectional BFS).
    Kadabra,
    /// SaPHyRa_bc with `A = V`.
    SaphyraFull,
    /// SaPHyRa_bc on the target subset.
    Saphyra,
}

impl Algo {
    /// Paper presentation order.
    pub fn all() -> [Algo; 4] {
        [Algo::Abra, Algo::Kadabra, Algo::SaphyraFull, Algo::Saphyra]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Abra => "ABRA",
            Algo::Kadabra => "KADABRA",
            Algo::SaphyraFull => "SaPHyRa-full",
            Algo::Saphyra => "SaPHyRa",
        }
    }

    /// Whether the estimator depends on the target subset (re-run per
    /// subset) or estimates all nodes at once.
    pub fn subset_aware(&self) -> bool {
        matches!(self, Algo::Saphyra)
    }
}

/// One timed run.
pub struct RunOutput {
    /// Wall-clock seconds (includes all preprocessing, as in the paper).
    pub seconds: f64,
    /// Estimates aligned with the `targets` passed to [`run_algo`].
    pub subset_bc: Vec<f64>,
    /// Samples drawn.
    pub samples: usize,
}

/// Runs one algorithm on one target subset. SaPHyRa timings include the
/// index build (the paper does not amortize preprocessing either).
pub fn run_algo(
    algo: Algo,
    g: &Graph,
    targets: &[NodeId],
    eps: f64,
    delta: f64,
    seed: u64,
) -> RunOutput {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    match algo {
        Algo::Abra => {
            let est = abra(g, &AbraConfig::new(eps, delta), &mut rng);
            RunOutput {
                seconds: t0.elapsed().as_secs_f64(),
                subset_bc: est.subset(targets),
                samples: est.samples,
            }
        }
        Algo::Kadabra => {
            let est = kadabra(g, &KadabraConfig::new(eps, delta), &mut rng);
            RunOutput {
                seconds: t0.elapsed().as_secs_f64(),
                subset_bc: est.subset(targets),
                samples: est.samples,
            }
        }
        Algo::SaphyraFull => {
            let cfg = SaphyraBcConfig::new(eps, delta);
            let sets = [g.nodes().collect()];
            let dec = BcDecomposition::compute(g);
            let est = dec.rank(g, &sets, &cfg, &mut rng).remove(0);
            let seconds = t0.elapsed().as_secs_f64();
            let subset_bc = targets
                .iter()
                .map(|&v| est.bc[est.targets.binary_search(&v).expect("target present")])
                .collect();
            RunOutput {
                seconds,
                subset_bc,
                samples: est.stats.samples,
            }
        }
        Algo::Saphyra => {
            let cfg = SaphyraBcConfig::new(eps, delta);
            let sets = [targets.to_vec()];
            let dec = BcDecomposition::compute(g);
            let est = dec.rank(g, &sets, &cfg, &mut rng).remove(0);
            RunOutput {
                seconds: t0.elapsed().as_secs_f64(),
                subset_bc: est.bc,
                samples: est.stats.samples,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saphyra_graph::fixtures;

    #[test]
    fn random_subsets_are_distinct_sorted() {
        let g = fixtures::grid_graph(10, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let s = random_subset(&g, 20, &mut rng);
        assert_eq!(s.len(), 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn all_algorithms_run_and_agree_roughly() {
        let g = fixtures::grid_graph(8, 6);
        let truth = saphyra_graph::brandes::betweenness_exact(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let targets = random_subset(&g, 10, &mut rng);
        for algo in Algo::all() {
            let out = run_algo(algo, &g, &targets, 0.05, 0.1, 7);
            assert_eq!(out.subset_bc.len(), 10, "{}", algo.name());
            for (i, &v) in targets.iter().enumerate() {
                let err = (out.subset_bc[i] - truth[v as usize]).abs();
                assert!(err < 0.06, "{} node {v}: err {err}", algo.name());
            }
        }
    }

    #[test]
    fn env_knobs_have_defaults() {
        assert!(trials_from_env(3).max(1) >= 1);
        let _ = scale_from_env();
        let _ = seed_from_env();
    }
}

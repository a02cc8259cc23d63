//! Golden SaPHyRa_bc estimates: the CRC-32 of the bits of every reported
//! quantity of a bc ranking, on the four simulated networks. The constants
//! were recorded once and must never be edited: a change to the bc kernels
//! (biconnected labels, the bidirectional BFS, `Exact_bc`) that moves any
//! bit of an estimate, a sample count or the iteration order of a sampled
//! path fails here.
//!
//! Per network (`tiny`, graph seed 5) there are two target sets: 16
//! targets led by the two highest-degree nodes (the shape of a served
//! request) and one lone cutpoint. Each set is ranked alone under two
//! seeds, and both sets together in one batched call under a third.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saphyra::bc::{BcDecomposition, BcEstimate, SaphyraBcConfig};
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::wire::crc32;
use saphyra_graph::{Bicomps, Graph, NodeId};

const GRAPH_SEED: u64 = 5;
const SOLO_SEEDS: [u64; 2] = [1, 7];
const BATCH_SEED: u64 = 42;

/// `(network, set, rank seed) → crc32 of the estimate's bits`; set 0 is
/// the 16-target set, set 1 the lone cutpoint.
const GOLDEN: [(&str, usize, u64, u32); 24] = [
    ("flickr-sim", 0, 1, 631781846),
    ("flickr-sim", 0, 7, 865916292),
    ("flickr-sim", 1, 1, 3696682696),
    ("flickr-sim", 1, 7, 2798416519),
    ("flickr-sim", 0, 42, 2572120886),
    ("flickr-sim", 1, 42, 163256222),
    ("livejournal-sim", 0, 1, 1721337985),
    ("livejournal-sim", 0, 7, 2349979457),
    ("livejournal-sim", 1, 1, 3281784236),
    ("livejournal-sim", 1, 7, 270143658),
    ("livejournal-sim", 0, 42, 3594224247),
    ("livejournal-sim", 1, 42, 2862257139),
    ("usa-road-sim", 0, 1, 2288497472),
    ("usa-road-sim", 0, 7, 3547689280),
    ("usa-road-sim", 1, 1, 764450614),
    ("usa-road-sim", 1, 7, 3553181509),
    ("usa-road-sim", 0, 42, 1987212126),
    ("usa-road-sim", 1, 42, 2499901876),
    ("orkut-sim", 0, 1, 3688772103),
    ("orkut-sim", 0, 7, 2566461798),
    ("orkut-sim", 1, 1, 281378672),
    ("orkut-sim", 1, 7, 3011777645),
    ("orkut-sim", 0, 42, 3156598479),
    ("orkut-sim", 1, 42, 843585843),
];

/// 16 targets: the two highest-degree nodes (ties to the lower id), then
/// 14 distinct non-isolated nodes drawn with a fixed seed.
fn sixteen_targets(g: &Graph) -> Vec<NodeId> {
    let mut by_degree: Vec<NodeId> = g.nodes().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut targets = by_degree[..2].to_vec();
    let mut pick = StdRng::seed_from_u64(16);
    while targets.len() < 16 {
        let v = pick.gen_range(0..g.num_nodes() as NodeId);
        if g.degree(v) > 0 && !targets.contains(&v) {
            targets.push(v);
        }
    }
    targets
}

/// The highest-degree cutpoint outside `others` (ties to the lower id).
fn lone_cutpoint(g: &Graph, bic: &Bicomps, others: &[NodeId]) -> NodeId {
    bic.cutpoints()
        .into_iter()
        .filter(|v| !others.contains(v))
        .min_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v))
        .expect("the network has a cutpoint outside the 16 targets")
}

fn estimate_crc(est: &BcEstimate) -> u32 {
    let mut bytes = Vec::new();
    for part in [&est.bc, &est.exact_path_part, &est.approx_part] {
        for x in part {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    let s = &est.stats;
    for x in [
        s.samples as u64,
        s.nmax as u64,
        s.rejected,
        s.lambda_hat.to_bits(),
        s.vc.vc_subset as u64,
    ] {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    crc32(&bytes)
}

#[test]
fn bc_estimates_match_recorded_bits() {
    let cfg = SaphyraBcConfig::new(0.1, 0.1);
    let mut got = Vec::new();
    for net in SimNetwork::all() {
        let g = net.build(SizeClass::Tiny, GRAPH_SEED);
        let dec = BcDecomposition::compute(&g);
        let sixteen = sixteen_targets(&g);
        let lone = lone_cutpoint(&g, &dec.bic, &sixteen);
        let sets = vec![sixteen, vec![lone]];
        for (i, set) in sets.iter().enumerate() {
            for seed in SOLO_SEEDS {
                let mut rng = StdRng::seed_from_u64(seed);
                let est = dec.rank(&g, std::slice::from_ref(set), &cfg, &mut rng);
                got.push((net.name(), i, seed, estimate_crc(&est[0])));
            }
        }
        let mut rng = StdRng::seed_from_u64(BATCH_SEED);
        for (i, est) in dec.rank(&g, &sets, &cfg, &mut rng).iter().enumerate() {
            got.push((net.name(), i, BATCH_SEED, estimate_crc(est)));
        }
    }
    assert_eq!(got, GOLDEN, "bc estimate bits moved");
}

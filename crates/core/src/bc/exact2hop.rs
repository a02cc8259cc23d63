//! `Exact_bc`: closed-form risk mass of the 2-hop exact subspace
//! (paper §IV-B, Lemmas 17-19).
//!
//! The exact subspace `X̂` holds every intra-component shortest path of
//! length 2 whose inner node is a target. For a path `s – v – t`
//! (`v ∈ A`, `d(s,t) = 2`, both edges in the same bicomponent `b`) the PISP
//! mass is `q_st / (σ_st · γη)` where `σ_st` is the number of common
//! neighbors of `s` and `t` — all of which provably lie in `b` whenever
//! `s, t` share a bicomponent (two distinct common neighbors close a cycle).
//!
//! The sweep follows the paper's two-phase algorithm: for every source
//! `s ∈ B` (the neighbors of targets), phase 1 counts intra-component
//! 2-paths (`σ_st`), phase 2 walks only through target inner nodes and
//! accumulates `ℓ̂` and `λ̂`. Complexity O(K), `K = Σ_{v∈B} deg(v)²`
//! (Lemma 18). Values are returned in *unnormalized* `q`-units; the ranker
//! divides by `γη`.
//!
//! Phase 2 needs the out-reach `r_b(t)` of every endpoint `t` it reaches
//! through a target `v`, and looking it up binary-searches component `b`'s
//! member list. Each call therefore first tabulates, over every target's
//! CSR slots, `r(component of the slot, neighbour)` (1.0 for
//! non-cutpoints, whose out-reach is 1 everywhere): Σ_{v∈A} deg(v)
//! entries, built once and read once per visit. Only `r_b(s)` is still
//! looked up, once per (source, target) edge.
//!
//! The bits of `lambda_raw` and `exact_raw` are fixed by the f64 summation
//! order, which is: `B` in first-seen order (targets in order, each
//! target's neighbours in slot order), then `s`'s slots, then `v`'s slots.
//! Any change to that order moves served bytes.

use saphyra_graph::{Bicomps, Graph, NodeId};

use super::outreach::Outreach;

const NONE: u32 = u32::MAX;

/// Output of the exact sweep, in unnormalized `q`-units
/// (divide by `γη` to get PISP probabilities).
#[derive(Debug, Clone)]
pub struct ExactBcOutput {
    /// `Σ_(s,t)` of `w^A_st · q_st / σ_st`: the mass of `X̂`.
    pub lambda_raw: f64,
    /// Per target `v`: `Σ_{(s,t): v common neighbor} q_st / σ_st`.
    pub exact_raw: Vec<f64>,
    /// CSR slots visited (the realized `K` of Lemma 18).
    pub work: u64,
}

/// Per-`t` 2-path count of the current source, valid while `stamp` equals
/// the source's generation.
#[derive(Clone, Copy, Default)]
struct PathCount {
    stamp: u32,
    count: u32,
}

/// Runs the `Exact_bc` sweep. `a_index[v]` maps node → target position or
/// `u32::MAX`.
pub fn exact_bc(
    g: &Graph,
    bic: &Bicomps,
    outreach: &Outreach,
    targets: &[NodeId],
    a_index: &[u32],
) -> ExactBcOutput {
    let n = g.num_nodes();
    let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
    let mut exact_raw = vec![0.0f64; targets.len()];
    let mut lambda_raw = 0.0f64;
    let mut work = 0u64;
    let (offsets, neighbors, _) = g.csr_arrays();
    let slots = |v: NodeId| offsets[v as usize] as usize..offsets[v as usize + 1] as usize;
    let labels = &bic.slot_bicomp;

    // B: unique neighbors of targets.
    let mut in_b = vec![false; n];
    let mut b_set: Vec<NodeId> = Vec::new();
    for &v in targets {
        for &u in &neighbors[slots(v)] {
            if !in_b[u as usize] {
                in_b[u as usize] = true;
                b_set.push(u);
            }
        }
    }

    // Only cutpoints have an out-reach other than 1.
    let r_of = |b: u32, v: NodeId| -> f64 {
        if bic.is_cutpoint[v as usize] {
            outreach.r_of(bic, b, v) as f64
        } else {
            1.0
        }
    };
    // r(component of slot, neighbour) over each target's slots:
    // `r_table[r_start[i]..r_start[i + 1]]` is aligned with target i's.
    let mut r_start = Vec::with_capacity(targets.len() + 1);
    let mut r_table = Vec::new();
    r_start.push(0);
    for &v in targets {
        let range = slots(v);
        r_table.extend(
            labels[range.clone()]
                .iter()
                .zip(&neighbors[range])
                .map(|(&b, &t)| r_of(b, t)),
        );
        r_start.push(r_table.len());
    }

    // Stamped scratch: adjacency marks and per-t 2-path counts.
    let mut adj_stamp = vec![0u32; n];
    let mut paths = vec![PathCount::default(); n];
    let mut generation = 0u32;

    for &s in &b_set {
        generation += 1;
        let s_slots = slots(s);
        let (s_labels, s_nbrs) = (&labels[s_slots.clone()], &neighbors[s_slots]);
        for &u in s_nbrs {
            adj_stamp[u as usize] = generation;
        }

        // Phase 1: count intra-component 2-paths s - v - t into σ_st.
        for (&b1, &v) in s_labels.iter().zip(s_nbrs) {
            let v_slots = slots(v);
            for (&b2, &t) in labels[v_slots.clone()].iter().zip(&neighbors[v_slots]) {
                work += 1;
                if b2 != b1 {
                    continue;
                }
                if t == s || adj_stamp[t as usize] == generation {
                    continue; // t is s itself or adjacent: not distance 2
                }
                let pc = &mut paths[t as usize];
                if pc.stamp != generation {
                    *pc = PathCount {
                        stamp: generation,
                        count: 0,
                    };
                }
                pc.count += 1;
            }
        }

        // Phase 2: accumulate mass through target inner nodes only.
        for (&b1, &v) in s_labels.iter().zip(s_nbrs) {
            let ai = a_index[v as usize];
            if ai == NONE {
                continue;
            }
            let r_s = r_of(b1, s);
            let ai = ai as usize;
            let v_slots = slots(v);
            let r_v = &r_table[r_start[ai]..r_start[ai + 1]];
            debug_assert_eq!(r_v.len(), v_slots.len());
            for ((&b2, &t), &r_t) in labels[v_slots.clone()]
                .iter()
                .zip(&neighbors[v_slots])
                .zip(r_v)
            {
                work += 1;
                if b2 != b1 {
                    continue;
                }
                if t == s || adj_stamp[t as usize] == generation {
                    continue;
                }
                let pc = paths[t as usize];
                debug_assert_eq!(pc.stamp, generation);
                let sigma = pc.count as f64;
                let q = r_s * r_t * norm;
                let mass = q / sigma;
                exact_raw[ai] += mass;
                lambda_raw += mass;
            }
        }
    }

    ExactBcOutput {
        lambda_raw,
        exact_raw,
        work,
    }
}

/// Brute-force reference: enumerates every ordered node pair, classifies the
/// 2-hop paths between them and sums the same masses. O(n² · Δ), tests only.
pub fn exact_bc_bruteforce(
    g: &Graph,
    bic: &Bicomps,
    outreach: &Outreach,
    targets: &[NodeId],
    a_index: &[u32],
) -> ExactBcOutput {
    let n = g.num_nodes();
    let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
    let mut exact_raw = vec![0.0f64; targets.len()];
    let mut lambda_raw = 0.0f64;
    for s in g.nodes() {
        for t in g.nodes() {
            if s == t || g.has_edge(s, t) {
                continue;
            }
            // Intra-component common neighbors (all 2-paths with both edges
            // in the same component).
            let mut sigma = 0usize;
            let mut inner: Vec<(NodeId, u32)> = Vec::new();
            for &v in g.neighbors(s) {
                if g.has_edge(v, t) {
                    let b1 = bic.edge_bicomp[g.edge_id(s, v).unwrap() as usize];
                    let b2 = bic.edge_bicomp[g.edge_id(v, t).unwrap() as usize];
                    if b1 == b2 {
                        sigma += 1;
                        inner.push((v, b1));
                    }
                }
            }
            if sigma == 0 {
                continue;
            }
            for &(v, b) in &inner {
                if a_index[v as usize] == NONE {
                    continue;
                }
                let q = outreach.r_of(bic, b, s) as f64 * outreach.r_of(bic, b, t) as f64 * norm;
                let mass = q / sigma as f64;
                exact_raw[a_index[v as usize] as usize] += mass;
                lambda_raw += mass;
            }
        }
    }
    ExactBcOutput {
        lambda_raw,
        exact_raw,
        work: 0,
    }
}

/// Builds the `a_index` map for a target list (panics on duplicates).
pub fn build_a_index(n: usize, targets: &[NodeId]) -> Vec<u32> {
    let mut a_index = vec![NONE; n];
    for (i, &v) in targets.iter().enumerate() {
        assert!(
            a_index[v as usize] == NONE,
            "duplicate target node {v} in subset"
        );
        a_index[v as usize] = i as u32;
    }
    a_index
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use saphyra_graph::fixtures::{self, fig2::*};
    use saphyra_graph::{BlockCutTree, GraphBuilder};

    fn setup(g: &Graph) -> (Bicomps, Outreach) {
        let bic = Bicomps::compute(g);
        let tree = BlockCutTree::compute(&bic);
        let or = Outreach::compute(&bic, &tree);
        (bic, or)
    }

    fn check(g: &Graph, targets: &[NodeId]) {
        let (bic, or) = setup(g);
        let a_index = build_a_index(g.num_nodes(), targets);
        let fast = exact_bc(g, &bic, &or, targets, &a_index);
        let slow = exact_bc_bruteforce(g, &bic, &or, targets, &a_index);
        assert!(
            (fast.lambda_raw - slow.lambda_raw).abs() < 1e-9,
            "lambda {} vs {}",
            fast.lambda_raw,
            slow.lambda_raw
        );
        for (i, (&a, &b)) in fast.exact_raw.iter().zip(&slow.exact_raw).enumerate() {
            assert!((a - b).abs() < 1e-9, "target {i}: {a} vs {b}");
        }
    }

    #[test]
    fn matches_bruteforce_on_fixtures() {
        let g = fixtures::paper_fig2();
        check(&g, &[C]);
        check(&g, &[D]);
        check(&g, &[A, G, J]);
        check(&g, &(0..11u32).collect::<Vec<_>>());
        let g = fixtures::grid_graph(5, 4);
        check(&g, &[6, 7, 12]);
        let g = fixtures::lollipop_graph(5, 4);
        check(&g, &[4, 5]);
        let g = fixtures::two_triangles_bridge();
        check(&g, &[2, 3]);
    }

    #[test]
    fn matches_bruteforce_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..8 {
            let n = 25;
            let mut b = GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen::<f64>() < 0.12 {
                        b.push(u, v);
                    }
                }
            }
            let g = b.build().unwrap();
            let mut targets: Vec<u32> = (0..n as u32).filter(|_| rng.gen::<f64>() < 0.3).collect();
            if targets.is_empty() {
                targets.push(round as u32 % n as u32);
            }
            check(&g, &targets);
        }
    }

    #[test]
    fn star_center_exact_mass_is_everything() {
        // Star: every shortest path is a 2-hop through the center. With
        // A = {center}, X̂ covers the whole PISP space minus nothing:
        // λ̂_raw = γη = Σ over leaf pairs of q/σ = total pair mass except
        // adjacent (center, leaf) pairs.
        let g = fixtures::star_graph(6);
        let (bic, or) = setup(&g);
        let a_index = build_a_index(6, &[0]);
        let out = exact_bc(&g, &bic, &or, &[0], &a_index);
        // 5 blocks of size 2; pairs within a block are adjacent -> no
        // distance-2 pairs inside any single bicomponent. So λ̂_raw = 0!
        // (Leaf-leaf paths cross blocks and exist only as broken pieces;
        // the center's betweenness is pure bcₐ.)
        assert_eq!(out.lambda_raw, 0.0);
        assert_eq!(out.exact_raw, vec![0.0]);
    }

    #[test]
    fn triangle_with_hair_has_two_hop_mass() {
        // Triangle {0,1,2} with pendant 3 on node 2: pair (0,1) has d=1;
        // pairs at distance 2 inside the triangle don't exist; attach the
        // square to create one.
        let g = GraphBuilder::new(5)
            .edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
            .build()
            .unwrap();
        let (bic, or) = setup(&g);
        // Cycle 0-1-2-3: pairs (0,2) and (1,3) are at distance 2 with two
        // common neighbors each.
        let a_index = build_a_index(5, &[1]);
        let out = exact_bc(&g, &bic, &or, &[1], &a_index);
        // Node 1 is the inner node of paths 0-1-2 (ordered both ways).
        // q_02 = r(0)·r(2)/(5·4) = (2·1)/20 (r(0)=2: node 4 hangs off 0).
        // σ_02 = 2 (via 1 and via 3). Mass per direction = 0.1/2 = 0.05.
        let expect = 2.0 * (2.0 * 1.0 / 20.0) / 2.0;
        assert!((out.exact_raw[0] - expect).abs() < 1e-12);
        check(&g, &[0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_targets_rejected() {
        build_a_index(5, &[1, 1]);
    }
}

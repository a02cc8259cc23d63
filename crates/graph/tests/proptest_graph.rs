//! Property-based invariants of the graph substrate.

use proptest::prelude::*;
use saphyra_graph::bbbfs::BiBfs;
use saphyra_graph::bfs::BfsWorkspace;
use saphyra_graph::{Bicomps, BlockCutTree, Graph, GraphBuilder};

/// Strategy: a random simple graph with 2..=16 nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=16).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.max(1))
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build().unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_adjacency_is_sorted_and_symmetric(g in arb_graph()) {
        for v in g.nodes() {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            for &u in ns {
                prop_assert!(g.has_edge(u, v));
                prop_assert_eq!(g.edge_id(u, v), g.edge_id(v, u));
            }
        }
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    #[test]
    fn degree_sum_equals_twice_edges(g in arb_graph()) {
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn bicomps_partition_edges(g in arb_graph()) {
        let bic = Bicomps::compute(&g);
        // Every edge has exactly one component label in range.
        for (_, _, eid) in g.edges() {
            prop_assert!((bic.bicomp_of_edge(eid) as usize) < bic.num_bicomps.max(1));
        }
        // A node is a cutpoint iff it belongs to >= 2 components.
        for v in g.nodes() {
            prop_assert_eq!(bic.is_cutpoint[v as usize], bic.bicomps_of(v).len() > 1);
        }
        // Component node lists are consistent with edge labels.
        for (u, v, eid) in g.edges() {
            let b = bic.bicomp_of_edge(eid);
            prop_assert!(bic.nodes_of(b).contains(&u));
            prop_assert!(bic.nodes_of(b).contains(&v));
        }
    }

    #[test]
    fn bicomps_are_internally_connected(g in arb_graph()) {
        let bic = Bicomps::compute(&g);
        let mut ws = BfsWorkspace::new(g.num_nodes());
        for b in 0..bic.num_bicomps as u32 {
            let nodes = bic.nodes_of(b);
            ws.run_counting(&g, nodes[0], None, |slot| bic.bicomp_of_slot(slot) == b);
            for &v in nodes {
                prop_assert!(ws.visited(v), "component {b} node {v} unreachable");
            }
        }
    }

    #[test]
    fn blockcut_branches_partition_component(g in arb_graph()) {
        let bic = Bicomps::compute(&g);
        let tree = BlockCutTree::compute(&bic);
        for (ci, &c) in tree.cutpoints.iter().enumerate() {
            let total: u64 = tree.branches(ci as u32).map(|(_, w)| w as u64).sum();
            // Branches cover everything except the cutpoint itself.
            let n_c = tree
                .branches(ci as u32)
                .next()
                .map(|(b, _)| tree.comp_total_of_bicomp[b as usize])
                .unwrap();
            prop_assert_eq!(total, n_c as u64 - 1, "cutpoint {}", c);
        }
    }

    #[test]
    fn bidirectional_bfs_matches_unidirectional(g in arb_graph()) {
        let n = g.num_nodes();
        let mut ws = BfsWorkspace::new(n);
        let mut bb = BiBfs::new(n);
        for s in g.nodes().take(4) {
            ws.run_counting(&g, s, None, |_| true);
            for t in g.nodes() {
                match bb.query(&g, s, t, |_| true) {
                    None => prop_assert!(!ws.visited(t)),
                    Some(r) => {
                        prop_assert_eq!(r.dist, ws.dist(t));
                        prop_assert!((r.sigma_st - ws.sigma(t)).abs() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn brandes_values_are_sane(g in arb_graph()) {
        let bc = saphyra_graph::brandes::betweenness_exact(&g);
        for (v, &x) in bc.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&x), "node {v}: {x}");
            // Degree-<2 nodes are never interior.
            if g.degree(v as u32) < 2 {
                prop_assert_eq!(x, 0.0);
            }
        }
    }

    #[test]
    fn subset_diameter_upper_is_sound_on_multi_component_subsets(
        g in arb_graph(),
        picks in proptest::collection::vec(0usize..1_000_000, 1..=8),
    ) {
        // arb_graph frequently produces disconnected graphs; the subset may
        // intersect several components, and the §IV-C upper bound must
        // dominate the exact subset diameter on every one of them.
        let mut subset: Vec<u32> = picks
            .iter()
            .map(|&ix| (ix % g.num_nodes()) as u32)
            .collect();
        subset.sort_unstable();
        subset.dedup();
        let exact = saphyra_graph::diameter::exact_subset_diameter(&g, &subset);
        let mut ws = BfsWorkspace::new(g.num_nodes());
        let upper = saphyra_graph::diameter::subset_diameter_upper(&g, &subset, &mut ws);
        prop_assert!(upper >= exact, "subset {:?}: upper {} < exact {}", subset, upper, exact);
    }

    #[test]
    fn edge_list_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        saphyra_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = saphyra_graph::io::read_edge_list(&buf[..], g.num_nodes()).unwrap();
        prop_assert_eq!(g.num_nodes(), g2.num_nodes());
        prop_assert_eq!(g.num_edges(), g2.num_edges());
    }
}

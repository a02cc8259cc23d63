//! Binary (de)serialization of a graph's decomposition substrate:
//! [`Bicomps`] and [`BlockCutTree`], built on the checked primitives of
//! [`crate::wire`].
//!
//! These encoders back the decomposition section of the service's registry
//! snapshots, so a large graph's full decomposition loads in O(bytes)
//! instead of re-running the O(m + n) preprocessing. Deserialization
//! *validates structure* (array lengths and id ranges against the graph)
//! so a corrupted or hand-crafted buffer is rejected with a [`WireError`];
//! end-to-end integrity is additionally guarded by the snapshot checksum
//! one layer up. The graph's own CSR arrays are validated by
//! [`Graph::assemble`].

use crate::bicomp::{slot_labels, Bicomps};
use crate::blockcut::BlockCutTree;
use crate::csr::{Graph, NodeId};
use crate::wire::{self, Reader, WireError};

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

// ---------------------------------------------------------------------------
// Bicomps
// ---------------------------------------------------------------------------

/// Appends the binary encoding of a biconnected decomposition.
pub fn write_bicomps(b: &Bicomps, out: &mut Vec<u8>) {
    wire::put_usize(out, b.num_bicomps);
    wire::put_vec_u32(out, &b.edge_bicomp);
    wire::put_vec_bool(out, &b.is_cutpoint);
    wire::put_vec_usize(out, &b.bicomp_node_offsets);
    wire::put_vec_u32(out, &b.bicomp_nodes);
    wire::put_vec_usize(out, &b.membership_offsets);
    wire::put_vec_u32(out, &b.membership_bicomps);
}

/// Checks that `offsets` is a monotone CSR offset array with `groups`
/// groups covering `total` payload entries.
fn check_offsets(
    offsets: &[usize],
    groups: usize,
    total: usize,
    what: &str,
) -> Result<(), WireError> {
    if offsets.len() != groups + 1
        || offsets.first() != Some(&0)
        || offsets.last() != Some(&total)
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return err(format!(
            "{what} offsets are not a valid CSR over {groups} groups"
        ));
    }
    Ok(())
}

/// Decodes a [`Bicomps`] for `g`, validating array lengths and id ranges
/// against the graph. The per-slot labels are not stored: they are
/// gathered from the validated edge labels.
pub fn read_bicomps(r: &mut Reader, g: &Graph) -> Result<Bicomps, WireError> {
    let (n, m) = (g.num_nodes(), g.num_edges());
    let num_bicomps = r.usize_()?;
    let edge_bicomp = r.vec_u32()?;
    let is_cutpoint = r.vec_bool()?;
    let bicomp_node_offsets = r.vec_usize()?;
    let bicomp_nodes = r.vec_u32()?;
    let membership_offsets = r.vec_usize()?;
    let membership_bicomps = r.vec_u32()?;

    if edge_bicomp.len() != m {
        return err("edge_bicomp length mismatches edge count");
    }
    if is_cutpoint.len() != n {
        return err("is_cutpoint length mismatches node count");
    }
    check_offsets(
        &bicomp_node_offsets,
        num_bicomps,
        bicomp_nodes.len(),
        "bicomp node",
    )?;
    check_offsets(
        &membership_offsets,
        n,
        membership_bicomps.len(),
        "membership",
    )?;
    let comp_ok = |&b: &u32| (b as usize) < num_bicomps;
    if !edge_bicomp.iter().all(comp_ok) || !membership_bicomps.iter().all(comp_ok) {
        return err("component id out of range");
    }
    if !bicomp_nodes.iter().all(|&v| (v as usize) < n) {
        return err("component member out of range");
    }

    Ok(Bicomps {
        num_bicomps,
        slot_bicomp: slot_labels(g, &edge_bicomp),
        edge_bicomp,
        is_cutpoint,
        bicomp_node_offsets,
        bicomp_nodes,
        membership_offsets,
        membership_bicomps,
    })
}

// ---------------------------------------------------------------------------
// BlockCutTree
// ---------------------------------------------------------------------------

/// Appends the binary encoding of a block-cut tree.
pub fn write_blockcut(t: &BlockCutTree, out: &mut Vec<u8>) {
    wire::put_vec_u32(out, &t.cutpoints);
    wire::put_vec_u32(out, &t.cut_index);
    wire::put_vec_usize(out, &t.cut_bicomp_offsets);
    wire::put_vec_u32(out, &t.cut_bicomps);
    wire::put_vec_u32(out, &t.cut_branch);
    wire::put_vec_u32(out, &t.comp_total_of_bicomp);
}

/// Decodes a [`BlockCutTree`] for `g`/`bic`, validating lengths and ranges.
pub fn read_blockcut(r: &mut Reader, g: &Graph, bic: &Bicomps) -> Result<BlockCutTree, WireError> {
    let n = g.num_nodes();
    let cutpoints: Vec<NodeId> = r.vec_u32()?;
    let cut_index = r.vec_u32()?;
    let cut_bicomp_offsets = r.vec_usize()?;
    let cut_bicomps = r.vec_u32()?;
    let cut_branch = r.vec_u32()?;
    let comp_total_of_bicomp = r.vec_u32()?;

    if cut_index.len() != n {
        return err("cut_index length mismatches node count");
    }
    if !cutpoints.iter().all(|&v| (v as usize) < n) {
        return err("cutpoint id out of range");
    }
    check_offsets(
        &cut_bicomp_offsets,
        cutpoints.len(),
        cut_bicomps.len(),
        "cut bicomp",
    )?;
    if cut_branch.len() != cut_bicomps.len() {
        return err("cut_branch length mismatches cut_bicomps");
    }
    if !cut_bicomps.iter().all(|&b| (b as usize) < bic.num_bicomps) {
        return err("cut-incident component id out of range");
    }
    if comp_total_of_bicomp.len() != bic.num_bicomps {
        return err("comp_total_of_bicomp length mismatches component count");
    }

    Ok(BlockCutTree {
        cutpoints,
        cut_index,
        cut_bicomp_offsets,
        cut_bicomps,
        cut_branch,
        comp_total_of_bicomp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn graphs() -> Vec<Graph> {
        vec![
            fixtures::paper_fig2(),
            fixtures::grid_graph(5, 4),
            fixtures::lollipop_graph(4, 3),
            fixtures::disconnected_mix(),
            crate::GraphBuilder::new(3).build().unwrap(), // edgeless
            crate::GraphBuilder::new(0).build().unwrap(), // empty
        ]
    }

    #[test]
    fn bicomps_and_blockcut_round_trip() {
        for g in graphs() {
            let bic = Bicomps::compute(&g);
            let tree = BlockCutTree::compute(&bic);
            let mut buf = Vec::new();
            write_bicomps(&bic, &mut buf);
            write_blockcut(&tree, &mut buf);
            let mut r = Reader::new(&buf);
            let bic2 = read_bicomps(&mut r, &g).unwrap();
            let tree2 = read_blockcut(&mut r, &g, &bic2).unwrap();
            assert!(r.is_empty());
            assert_eq!(bic, bic2);
            assert_eq!(bic.num_bicomps, bic2.num_bicomps);
            assert_eq!(bic.edge_bicomp, bic2.edge_bicomp);
            assert_eq!(bic.is_cutpoint, bic2.is_cutpoint);
            assert_eq!(bic.bicomp_nodes, bic2.bicomp_nodes);
            assert_eq!(tree.cutpoints, tree2.cutpoints);
            assert_eq!(tree.cut_branch, tree2.cut_branch);
            assert_eq!(tree.comp_total_of_bicomp, tree2.comp_total_of_bicomp);
        }
    }

    #[test]
    fn bicomps_with_wrong_lengths_are_rejected() {
        let g = fixtures::paper_fig2();
        let other = fixtures::grid_graph(2, 2);
        let bic = Bicomps::compute(&g);
        let mut buf = Vec::new();
        write_bicomps(&bic, &mut buf);
        // Valid against its own graph, invalid against a different one.
        assert!(read_bicomps(&mut Reader::new(&buf), &g).is_ok());
        assert!(read_bicomps(&mut Reader::new(&buf), &other).is_err());
    }
}

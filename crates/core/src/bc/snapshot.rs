//! Binary (de)serialization of the reusable SaPHyRa_bc preprocessing
//! ([`BcDecomposition`]), so a ranking service can restore a graph's full
//! index from disk instead of re-running the O(m + n) decomposition plus
//! the per-component diameter BFSes on every restart.
//!
//! The encoding composes the graph-substrate encoders
//! ([`saphyra_graph::binio`]) with this crate's own derived tables
//! (out-reach, bcₐ, γ, VC precomputation). Floats travel by bit pattern,
//! so a restored decomposition is *bit-identical* to the one that was
//! saved — rankings computed from it are byte-identical per seed, the
//! service's determinism contract extended across restarts.

use saphyra_graph::binio;
use saphyra_graph::wire::{self, Reader, WireError};
use saphyra_graph::Graph;

use super::outreach::Outreach;
use super::ranker::BcDecomposition;
use super::vcbound::VcPrecomp;

/// Format version of the decomposition encoding. Bump on any layout
/// change; readers reject mismatches (the caller then falls back to
/// recomputation).
pub const DEC_FORMAT_VERSION: u32 = 1;

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// Appends the binary encoding of `dec` (including a leading
/// [`DEC_FORMAT_VERSION`]).
pub fn write_decomposition(dec: &BcDecomposition, out: &mut Vec<u8>) {
    wire::put_u32(out, DEC_FORMAT_VERSION);
    binio::write_bicomps(&dec.bic, out);
    binio::write_blockcut(&dec.tree, out);
    wire::put_vec_u32(out, &dec.outreach.r);
    wire::put_vec_f64(out, &dec.outreach.pair_weight);
    wire::put_f64(out, dec.outreach.total_weight);
    wire::put_vec_f64(out, &dec.bca);
    wire::put_f64(out, dec.gamma);
    wire::put_u32(out, dec.vc_precomp.vd_upper);
    wire::put_u32(out, dec.vc_precomp.bd_upper);
    wire::put_vec_u32(out, &dec.vc_precomp.bicomp_diam_upper);
}

/// Decodes a [`BcDecomposition`] previously written by
/// [`write_decomposition`], validating the format version and every
/// cross-array length against `graph`.
pub fn read_decomposition(r: &mut Reader, graph: &Graph) -> Result<BcDecomposition, WireError> {
    let version = r.u32()?;
    if version != DEC_FORMAT_VERSION {
        return err(format!(
            "decomposition format version {version} != supported {DEC_FORMAT_VERSION}"
        ));
    }
    let bic = binio::read_bicomps(r, graph)?;
    let tree = binio::read_blockcut(r, graph, &bic)?;

    let outreach_r = r.vec_u32()?;
    if outreach_r.len() != bic.bicomp_nodes.len() {
        return err("out-reach length mismatches component memberships");
    }
    let pair_weight = r.vec_f64()?;
    if pair_weight.len() != bic.num_bicomps {
        return err("pair_weight length mismatches component count");
    }
    let total_weight = r.f64()?;
    let outreach = Outreach {
        r: outreach_r,
        pair_weight,
        total_weight,
    };

    let bca = r.vec_f64()?;
    if bca.len() != graph.num_nodes() {
        return err("bca length mismatches node count");
    }
    let gamma = r.f64()?;

    let vd_upper = r.u32()?;
    let bd_upper = r.u32()?;
    let bicomp_diam_upper = r.vec_u32()?;
    if bicomp_diam_upper.len() != bic.num_bicomps {
        return err("diameter-bound length mismatches component count");
    }
    let vc_precomp = VcPrecomp {
        vd_upper,
        bd_upper,
        bicomp_diam_upper,
    };

    Ok(BcDecomposition {
        bic,
        tree,
        outreach,
        bca,
        gamma,
        vc_precomp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::SaphyraBcConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saphyra_graph::fixtures;

    fn round_trip(g: &Graph) -> (BcDecomposition, BcDecomposition) {
        let dec = BcDecomposition::compute(g);
        let mut buf = Vec::new();
        write_decomposition(&dec, &mut buf);
        let mut r = Reader::new(&buf);
        let dec2 = read_decomposition(&mut r, g).unwrap();
        assert!(r.is_empty(), "trailing bytes after decomposition");
        (dec, dec2)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for g in [
            fixtures::paper_fig2(),
            fixtures::grid_graph(5, 5),
            fixtures::lollipop_graph(5, 4),
            fixtures::disconnected_mix(),
            saphyra_graph::GraphBuilder::new(4).build().unwrap(),
        ] {
            let (dec, dec2) = round_trip(&g);
            assert_eq!(dec.bic.edge_bicomp, dec2.bic.edge_bicomp);
            assert_eq!(dec.tree.cut_branch, dec2.tree.cut_branch);
            assert_eq!(dec.outreach.r, dec2.outreach.r);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&dec.outreach.pair_weight),
                bits(&dec2.outreach.pair_weight)
            );
            assert_eq!(
                dec.outreach.total_weight.to_bits(),
                dec2.outreach.total_weight.to_bits()
            );
            assert_eq!(bits(&dec.bca), bits(&dec2.bca));
            assert_eq!(dec.gamma.to_bits(), dec2.gamma.to_bits());
            assert_eq!(dec.vc_precomp.vd_upper, dec2.vc_precomp.vd_upper);
            assert_eq!(dec.vc_precomp.bd_upper, dec2.vc_precomp.bd_upper);
            assert_eq!(
                dec.vc_precomp.bicomp_diam_upper,
                dec2.vc_precomp.bicomp_diam_upper
            );
        }
    }

    #[test]
    fn restored_decomposition_ranks_bit_identically() {
        let g = fixtures::grid_graph(6, 5);
        let (dec, dec2) = round_trip(&g);
        let sets = [vec![3u32, 8, 14, 21]];
        let cfg = SaphyraBcConfig::new(0.1, 0.1);
        let rank = |dec: &BcDecomposition| {
            let mut rng = StdRng::seed_from_u64(42);
            dec.rank(&g, &sets, &cfg, &mut rng).remove(0)
        };
        let (fresh, restored) = (rank(&dec), rank(&dec2));
        for (a, b) in fresh.bc.iter().zip(&restored.bc) {
            assert_eq!(a.to_bits(), b.to_bits(), "restored ranks diverged");
        }
        assert_eq!(fresh.stats.samples, restored.stats.samples);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let g = fixtures::grid_graph(3, 3);
        let dec = BcDecomposition::compute(&g);
        let mut buf = Vec::new();
        write_decomposition(&dec, &mut buf);
        buf[0] ^= 0xFF; // mangle the leading version
        let e = read_decomposition(&mut Reader::new(&buf), &g).unwrap_err();
        assert!(e.to_string().contains("version"), "{e}");
    }

    #[test]
    fn wrong_graph_is_rejected() {
        let g = fixtures::grid_graph(4, 4);
        let dec = BcDecomposition::compute(&g);
        let mut buf = Vec::new();
        write_decomposition(&dec, &mut buf);
        let other = fixtures::grid_graph(3, 3);
        assert!(read_decomposition(&mut Reader::new(&buf), &other).is_err());
    }
}

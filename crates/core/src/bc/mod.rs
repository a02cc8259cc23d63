//! SaPHyRa_bc (paper §IV): ranking node subsets by betweenness centrality.
//!
//! Pipeline: biconnected decomposition → out-reach sets → ISP/PISP
//! distributions → 2-hop exact subspace (`Exact_bc`) → multistage rejection
//! sampler (`Gen_bc`) → the generic framework of [`crate::framework`] →
//! assembly `b̃c(v) = bcₐ(v) + γη(ℓ̂_v + λ·ℓ̃_v)` (Theorem 24).

pub mod exact2hop;
pub mod exact_full;
pub mod gen;
pub mod isp;
pub mod outreach;
pub mod ranker;
pub mod snapshot;
pub mod vcbound;

pub use exact2hop::{build_a_index, exact_bc, ExactBcOutput};
pub use gen::BcApproxProblem;
pub use isp::Pisp;
pub use outreach::{bca_values, gamma, Outreach};
pub use ranker::{BcDecomposition, BcEstimate, BcRunStats, SaphyraBcConfig};
pub use snapshot::{read_decomposition, write_decomposition, DEC_FORMAT_VERSION};
pub use vcbound::{vc_bounds, vc_bounds_from, vc_lhop, VcBoundReport, VcPrecomp};

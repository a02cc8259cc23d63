//! # saphyra-gen
//!
//! Synthetic network generators standing in for the paper's datasets.
//!
//! The evaluation of SaPHyRa (§V) uses four SNAP/DIMACS networks (Flickr,
//! LiveJournal, Orkut, USA-road) that are not available offline. Each
//! generator here reproduces the *structural regime* that drives the
//! corresponding experiment — degree distribution, diameter scale,
//! true-zero fraction, bicomponent structure — at laptop scale (the
//! [`datasets`] table lists the regime each stand-in preserves).
//!
//! * [`er`]: Erdős–Rényi `G(n, m)`;
//! * [`ba`]: Barabási–Albert preferential attachment, with optional pendant
//!   leaves (high true-zero regimes like Flickr);
//! * [`ws`]: Watts–Strogatz small world;
//! * [`rmat`]: R-MAT power-law graphs (LiveJournal / Orkut regimes);
//! * [`road`]: perturbed grid road networks with geographic sub-areas
//!   (USA-road regime, Fig. 7 / Table III);
//! * [`datasets`]: the four named simulated networks with paper-shaped
//!   defaults and reduced "tiny" variants for tests and Criterion benches.
//!
//! All generators are deterministic given a seed.

pub mod ba;
pub mod datasets;
pub mod er;
pub mod rmat;
pub mod road;
pub mod ws;

pub use datasets::{flickr_sim, lj_sim, orkut_sim, road_sim, SimNetwork};
pub use road::{Area, RoadNetwork};

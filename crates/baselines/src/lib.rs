//! # saphyra-baselines
//!
//! The comparison set of the SaPHyRa evaluation (§V-A), reimplemented from
//! the original papers so that all algorithms run in one runtime:
//!
//! * [`mod@rk`] — Riondato–Kornaropoulos (DMKD 2016): fixed sample size from
//!   the diameter-based VC bound, uniform pair + uniform shortest-path
//!   sampling.
//! * [`mod@abra`] — Riondato–Upfal ABRA (KDD 2016): node-pair sampling where
//!   each sample credits *every* node on the pair's shortest-path DAG with
//!   its pair dependency, stopped by an empirical Rademacher-average bound.
//! * [`mod@kadabra`] — Borassi–Natale (ESA 2016): single-path sampling via
//!   balanced bidirectional BFS with per-node adaptive Bernstein stopping.
//! * [`exact`] — parallel Brandes, the ground-truth oracle.
//!
//! All estimators return betweenness for *all* nodes — the paper's point:
//! they cannot exploit a target subset, while SaPHyRa_bc can.

pub mod abra;
pub mod common;
pub mod exact;
pub mod kadabra;
pub mod rk;

pub use abra::{abra, AbraConfig};
pub use common::BaselineEstimate;
pub use exact::exact_betweenness;
pub use kadabra::{kadabra, KadabraConfig};
pub use rk::{rk, RkConfig};

//! # saphyra
//!
//! A from-scratch Rust implementation of **SaPHyRa: A Learning Theory
//! Approach to Ranking Nodes in Large Networks** (Thai, Thai, Vu, Dinh —
//! ICDE 2022, arXiv:2203.01746).
//!
//! SaPHyRa ranks a *subset* of nodes by centrality. It recasts node ranking
//! as hypothesis ranking: each target node `v` becomes a hypothesis `h_v`
//! whose expected risk under a suitable sample distribution equals `v`'s
//! centrality. The sample space is partitioned into
//!
//! * an **exact subspace** — samples directly linked to the targets, whose
//!   risk mass is computed exactly (this removes the "false zeros" that ruin
//!   rankings of low-centrality nodes, Lemma 19), and
//! * an **approximate subspace** — everything else, estimated by adaptive
//!   sampling with empirical-Bernstein stopping (Lemma 3) and
//!   VC-dimension-bounded worst-case budgets (Lemma 4).
//!
//! The combined estimate `ℓ = ℓ̂ + λ·ℓ̃` is an (ε, δ)-estimate of the risks
//! (Theorem 6) with fewer samples than direct estimation (Lemma 7,
//! Claim 8).
//!
//! Module map:
//!
//! * [`framework`] — the generic machinery (§III): problem abstraction,
//!   Algorithm 1, variance-reduction analysis.
//! * [`bc`] — SaPHyRa_bc (§IV): the betweenness-centrality instantiation
//!   with bi-component (ISP) sampling, out-reach sets, the 2-hop exact
//!   subspace, the `Gen_bc` multistage sampler and personalized VC bounds.
//! * [`kpath`] — a second instantiation on k-path centrality (§II-A),
//!   demonstrating framework generality.
//! * [`closeness`] — harmonic centrality with fractional losses (the
//!   extension §VI proposes).
//!
//! ## Quick start
//!
//! ```
//! use rand::SeedableRng;
//! use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
//! use saphyra_graph::fixtures;
//!
//! let g = fixtures::grid_graph(8, 6);
//! let dec = BcDecomposition::compute(&g); // reusable across target sets
//! let sets = vec![vec![3, 11, 17, 25, 33], vec![0, 47]];
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cfg = SaphyraBcConfig::new(0.05, 0.1);
//! // One estimate per set, sampled in-process from one master seed.
//! let ests = dec.rank(&g, &sets, &cfg, &mut rng);
//! let ranking = ests[0].ranking(); // best-first target indices
//! assert_eq!(ranking.len(), sets[0].len());
//! ```

pub mod bc;
pub mod closeness;
pub mod framework;
pub mod kpath;
pub mod params;

pub use bc::{BcDecomposition, BcEstimate, SaphyraBcConfig};
pub use framework::{AdaptiveOutcome, ExactPart, HrProblem, SaphyraEstimate};

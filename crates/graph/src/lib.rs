//! # saphyra-graph
//!
//! Graph substrate for the SaPHyRa reproduction (ICDE 2022).
//!
//! This crate provides everything the SaPHyRa framework and its baselines
//! need from a graph engine:
//!
//! * [`Graph`]: a compressed-sparse-row (CSR) representation of undirected,
//!   unweighted simple graphs with per-slot *undirected edge ids* (needed by
//!   the biconnected-component machinery). [`Graph::assemble`] validates
//!   CSR arrays that did not come from the builder, such as those a
//!   snapshot boot decodes.
//! * [`wire`] / [`binio`]: checked little-endian primitives and the binary
//!   encoding of the biconnected decomposition and block-cut tree.
//! * [`builder::GraphBuilder`]: deduplicating, self-loop-dropping
//!   construction from edge lists. Its fill is the one CSR constructor:
//!   graph loads and [`delta`] patches both build through it.
//! * [`delta`]: batched edge inserts and deletes (the service's `PATCH`),
//!   with the mask of connected components a delta touched.
//! * [`bfs`]: breadth-first searches with reusable, stamp-cleared workspaces
//!   and optional edge filters (used to restrict traversal to a single
//!   biconnected component without extracting subgraphs).
//! * [`bbbfs`]: the balanced bidirectional BFS of Borassi–Natale (KADABRA),
//!   which computes `σ_st` and samples a uniformly random shortest `s`–`t`
//!   path while exploring only a small fraction of the graph.
//! * [`brandes`]: exact betweenness centrality (serial and
//!   crossbeam-parallel), the ground truth of the paper's evaluation.
//! * [`bicomp`]: iterative Hopcroft–Tarjan biconnected components, cutpoints
//!   and the block-cut tree (paper §IV-A, Fig. 2).
//! * [`diameter`]: eccentricity and diameter estimation (double sweep lower
//!   bounds, `2·ecc` upper bounds) feeding the VC-dimension bounds of
//!   Table I.
//! * [`connectivity`]: connected components.
//! * [`fixtures`]: small named graphs used across the workspace's tests,
//!   including the paper's Fig. 2 example.
//!
//! The crate is safe Rust throughout (`forbid(unsafe_code)`); the
//! workspace's only FFI is the service reactor's epoll binding.

#![forbid(unsafe_code)]

pub mod bbbfs;
pub mod bfs;
pub mod bicomp;
pub mod binio;
pub mod blockcut;
pub mod brandes;
pub mod builder;
pub mod connectivity;
pub mod csr;
pub mod delta;
pub mod diameter;
pub mod error;
pub mod fixtures;
pub mod io;
pub mod subgraph;
pub mod wire;

pub use bicomp::Bicomps;
pub use blockcut::BlockCutTree;
pub use builder::GraphBuilder;
pub use connectivity::Components;
pub use csr::{Graph, NodeId};
pub use delta::{AppliedDelta, DeltaError, EdgeDelta};
pub use error::GraphError;

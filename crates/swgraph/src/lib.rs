//! Small-world graph substrate: flow networks, generators and analysis.
//!
//! This crate supplies everything the FFMR reproduction needs around graphs:
//!
//! * [`FlowNetwork`] — a compact directed flow network with paired residual
//!   edges (edge `e` and its reverse `e ^ 1`), built via
//!   [`FlowNetworkBuilder`].
//! * [`gen`] — deterministic random-graph generators: Watts–Strogatz,
//!   Barabási–Albert, Erdős–Rényi, grids, and [`gen::social_crawl`], which
//!   reproduces the paper's nested Facebook crawl subsets FB1..FB6 at a
//!   configurable scale.
//! * [`bfs`] — breadth-first search and effective-diameter estimation.
//! * [`super_st`] — the paper's super-source/sink construction (Sec. V-A1):
//!   attach `w` high-degree terminals to a super source `s` and sink `t`
//!   with unbounded capacities.
//! * [`props`] — degree distributions, clustering coefficients and
//!   connected components, used to certify that generated graphs really
//!   are small-world.
//! * [`io`] — edge-list text serialization.
//!
//! # Example
//!
//! ```
//! use swgraph::gen;
//! use swgraph::bfs;
//!
//! let edges = gen::watts_strogatz(500, 6, 0.1, 42);
//! let net = swgraph::FlowNetwork::from_undirected_unit(500, &edges);
//! let d = bfs::estimate_diameter(&net, 8, 42);
//! assert!(d.max_observed <= 500);
//! assert!(d.max_observed >= 2, "a ring lattice is not complete");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod gen;
pub mod ids;
pub mod io;
pub mod network;
pub mod props;
pub mod super_st;

pub use ids::{EdgeId, IdHasher, IdMap, VertexId};
pub use network::{Capacity, FlowNetwork, FlowNetworkBuilder, INFINITE_CAPACITY};

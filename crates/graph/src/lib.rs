//! Directed multigraphs and dynamic graphs for anonymous-network
//! simulation.
//!
//! The communication structure of the paper's model (§2.1) is a *dynamic
//! graph*: an infinite sequence `G(1), G(2), ...` of directed graphs over a
//! fixed vertex set, each with a self-loop at every vertex. Static
//! networks are the constant sequences. Impossibility arguments (§3–4)
//! additionally need directed **multi**graphs, because the minimum base of
//! a network generally has parallel edges.
//!
//! This crate provides:
//!
//! - [`Digraph`]: a directed multigraph with optional output-port labels
//!   on edges (the paper's "output port awareness" colorings),
//! - [`generators`]: rings, stars, tori, hypercubes, random strongly
//!   connected digraphs, and graphs built as fibration lifts of a base,
//! - [`connectivity`]: strong connectivity, diameter, reachability,
//! - [`product`]: the round-composition product of §2.1 (footnote 3),
//! - [`dynamic`]: dynamic graphs, dynamic diameter, and round-indexed
//!   adversaries (static, periodic, randomized, asynchronous-start
//!   masking).
//!
//! # Example
//!
//! ```
//! use kya_graph::{generators, connectivity};
//! let ring = generators::directed_ring(6);
//! assert!(connectivity::is_strongly_connected(&ring));
//! assert_eq!(connectivity::diameter(&ring), Some(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
mod csr;
mod digraph;
pub mod dynamic;
pub mod generators;
pub mod product;
#[cfg(test)]
mod reference;

pub use csr::RoutingPlan;
pub use digraph::{Digraph, Edge, EdgeId, PortOrder, Vertex};
pub use dynamic::{
    DynamicGraph, Fairness, PairingScheduler, PeriodicGraph, RandomDynamicGraph, RoundRobinCover,
    SparselyConnected, StaticGraph, UniformRandom,
};

//! Graph fibrations for anonymous networks.
//!
//! A *fibration* `φ: G -> B` (§3 of the paper) is a graph morphism with
//! the unique edge-lifting property: for every edge `e` of `B` and every
//! vertex `i` of `G` over the target of `e`, exactly one edge of `G` over
//! `e` ends at `i`. Fibrations are the precise sense in which two
//! anonymous agents are indistinguishable: agents in the same *fibre* have
//! isomorphic in-neighborhoods, so — by the Lifting Lemma (Lemma 3.1) —
//! they behave identically when started identically.
//!
//! This crate provides:
//!
//! - [`GraphMorphism`]: vertex+edge maps with validity checking,
//! - [`verify_fibration`]: the unique-lifting check, plus the stronger
//!   covering check used under output port awareness (§4.3),
//! - [`coarsest_equitable_partition`]: the in-neighborhood partition
//!   refinement whose classes are the fibres of the minimum base,
//! - [`MinimumBase`]: the fibration-prime quotient of a graph (§3.2),
//!   with the projection fibration and the fibre-count data the paper's
//!   algorithms consume,
//! - [`iso`]: exact isomorphism testing for small valued/port-colored
//!   multigraphs (used to compare minimum bases).
//!
//! # Example
//!
//! ```
//! use kya_graph::generators;
//! use kya_fibration::MinimumBase;
//!
//! // A directed ring with all-equal inputs collapses to a single vertex
//! // with one self-loop: the agents are perfectly interchangeable.
//! let ring = generators::directed_ring(6);
//! let base = MinimumBase::compute(&ring, &vec![0u64; 6]);
//! assert_eq!(base.base().n(), 1);
//! assert_eq!(base.fibre_sizes(), &[6]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod iso;
mod min_base;
mod morphism;
#[cfg(test)]
mod reference;
mod refine;

pub use min_base::MinimumBase;
pub use morphism::{
    verify_covering, verify_fibration, FibrationError, GraphMorphism, MorphismError,
};
pub use refine::{coarsest_equitable_partition, Partition};

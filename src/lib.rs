//! `know-your-audience`: communication models and computability in
//! anonymous networks.
//!
//! This is the umbrella crate of the workspace, re-exporting every
//! sub-crate of the reproduction of Charron-Bost & Lambein-Monette,
//! *Know your audience: Communication model and computability in anonymous
//! networks* (PODC 2024 brief announcement / HAL hal-04334359).
//!
//! The workspace layers, bottom-up:
//!
//! - [`arith`]: exact big-integer/rational arithmetic, exact kernels, a
//!   Perron–Frobenius toolkit,
//! - [`graph`]: directed multigraphs, valuations, port colorings, dynamic
//!   graphs and their diameters,
//! - [`fibration`]: graph fibrations, the lifting lemma, minimum bases,
//! - [`runtime`]: the synchronous anonymous-network simulator with the four
//!   communication models of the paper,
//! - [`algos`]: gossip, the distributed minimum-base algorithm,
//!   fibre-cardinality solvers, Push-Sum, and Metropolis,
//! - [`core`]: function classes (set-/frequency-/multiset-based), metrics,
//!   and the computability tables the paper establishes,
//! - [`conformance`]: differential oracles cross-checking every execution
//!   path and both arithmetic backends on a seeded topology matrix
//!   (`kya check`).
//!
//! See the repository README for a guided tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! # Example
//!
//! Ask the characterization, then realize it with the witnessing
//! algorithm:
//!
//! ```
//! use know_your_audience::core::table::{computable_class, CentralizedHelp, NetworkKind};
//! use know_your_audience::core::functions::{average, FunctionClass};
//! use know_your_audience::algos::frequency::CensusOutdegree;
//! use know_your_audience::algos::min_base::ViewState;
//! use know_your_audience::graph::{generators, StaticGraph};
//! use know_your_audience::runtime::{CommunicationModel, Execution, Isotropic, RunConfig};
//!
//! // Theory: with outdegree awareness and no help, frequency-based
//! // functions (like the average) are computable...
//! let cell = computable_class(
//!     NetworkKind::Static,
//!     CommunicationModel::OutdegreeAware,
//!     CentralizedHelp::None,
//! );
//! assert_eq!(cell.class, Some(FunctionClass::FrequencyBased));
//!
//! // ...practice: compute it.
//! let values = vec![4, 4, 10];
//! let net = StaticGraph::new(generators::directed_ring(3));
//! let mut exec = Execution::new(Isotropic(CensusOutdegree), ViewState::initial(&values));
//! exec.drive(&net, RunConfig::rounds(10));
//! let census = exec.outputs()[0].clone().expect("stabilized by n + D");
//! assert_eq!(average(&census.canonical_vector()), average(&values));
//! ```

pub use kya_algos as algos;
pub use kya_arith as arith;
pub use kya_conformance as conformance;
pub use kya_core as core;
pub use kya_fibration as fibration;
pub use kya_graph as graph;
pub use kya_runtime as runtime;

//! Parallel experiment sweep harness.
//!
//! Every evaluation artifact of the paper — the Table 1/2 certifications
//! and the F1–F6 sweeps — is a cartesian product of axes (topology ×
//! size × seed × algorithm × variant × fault plan) whose cells are
//! independent runs. This crate is the one engine that executes such
//! products:
//!
//! - [`ExperimentSpec`] declares the axes with a
//!   builder API and enumerates the cells in a fixed order, each with a
//!   deterministic per-cell seed derived from the spec alone;
//! - [`Runner`] executes the cells on a fixed worker
//!   pool (work-stealing over an atomic queue) and reassembles results
//!   in cell order — so the output is **byte-identical for any worker
//!   count**, including 1;
//! - [`TopologyCache`] memoizes per-topology
//!   artifacts (graphs, diameters, minimum bases) so they are computed
//!   once and shared read-only across workers;
//! - [`ResultSink`] collects stable-schema
//!   [`CellRecord`]s and renders them as NDJSON or a
//!   single JSON document.
//!
//! The per-cell measurement type is
//! [`kya_runtime::CellReport`] — the same report a measured
//! `Execution::drive` produces, faulted or not, so experiment cell
//! functions are a few lines of glue.
//!
//! # Example
//!
//! ```
//! use kya_harness::spec::ExperimentSpec;
//! use kya_harness::runner::{CellOutcome, Runner};
//!
//! let spec = ExperimentSpec::new("demo")
//!     .topologies(["ring:{n}"])
//!     .sizes([4, 6])
//!     .algorithms(["noop"]);
//! let sink = Runner::new(&spec).workers(2).run(|ctx| {
//!     let g = ctx.graph().expect("parses");
//!     CellOutcome::new().ok(g.n() == ctx.cell.n)
//! });
//! assert_eq!(sink.records().len(), 2);
//! assert!(sink.all_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod runner;
pub mod sink;
pub mod spec;
pub mod topo;

pub use args::Args;
pub use runner::{CellCtx, CellOutcome, Runner, TelemetryMode};
pub use sink::{CellRecord, CellTelemetry, ResultSink};
pub use spec::{
    parse_graph, parse_net, parse_values, CellSpec, ExperimentSpec, Net, SpecError, SWEEP_FLAGS,
};
pub use topo::{TopologyCache, WorkerScope};

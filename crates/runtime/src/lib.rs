//! Synchronous execution of anonymous-network algorithms.
//!
//! This crate is the simulator on which every algorithm of the paper runs.
//! It realizes the computing model of §2 exactly:
//!
//! - computation proceeds in communication-closed **rounds**: in round `t`
//!   each agent sends, then receives, then transitions;
//! - agents are **deterministic, identical automata**: a single
//!   [`Algorithm`] value drives every agent, and nothing but the input
//!   value (and the messages received) can ever distinguish two agents;
//! - the network is a [`DynamicGraph`](kya_graph::DynamicGraph) with a
//!   self-loop at every vertex;
//! - what a sender may observe about its audience is fixed by the
//!   **communication model** (§2.2). The model distinction is enforced by
//!   the type system: a [`BroadcastAlgorithm`] produces its message from
//!   the local state alone, an [`IsotropicAlgorithm`] may additionally read
//!   its current outdegree, and only a full [`Algorithm`] (output port
//!   awareness) can address ports individually.
//!
//! Executions ([`Execution`]) expose per-round states and outputs, support
//! asynchronous starts via graph masking ([`adversary::AsyncStarts`],
//! following §5.3), and offer convergence detection in any metric
//! ([`metric`], §2.3).
//!
//! # Example: flooding the maximum (simple broadcast)
//!
//! ```
//! use kya_graph::{generators, StaticGraph};
//! use kya_runtime::{Broadcast, BroadcastAlgorithm, Execution, RunConfig};
//!
//! struct MaxFlood;
//! impl BroadcastAlgorithm for MaxFlood {
//!     type State = u32;
//!     type Msg = u32;
//!     type Output = u32;
//!     fn message(&self, state: &u32) -> u32 { *state }
//!     fn transition(&self, state: &u32, inbox: &[u32]) -> u32 {
//!         inbox.iter().copied().max().unwrap_or(*state).max(*state)
//!     }
//!     fn output(&self, state: &u32) -> u32 { *state }
//! }
//!
//! let net = StaticGraph::new(generators::directed_ring(5));
//! let mut exec = Execution::new(Broadcast(MaxFlood), vec![3, 1, 4, 1, 5]);
//! exec.drive(&net, RunConfig::rounds(4)); // diameter rounds suffice
//! assert!(exec.outputs().iter().all(|&x| x == 5));
//! ```
//!
//! Every run — plain, observed, measured, churned, faulted, parallel —
//! goes through [`Execution::drive`] with a [`RunConfig`] describing the
//! knobs; message faults are the executor's delivery policy, attached
//! with [`Execution::faults`]. Large-`n` f64 simulations can instead use
//! the flat executor ([`flat::FlatExecution`]), which is bitwise
//! identical to the boxed path at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod algorithm;
pub mod bandwidth;
pub mod bits;
pub mod churn;
mod config;
mod execution;
pub mod faults;
pub mod flat;
pub mod metric;
pub mod probe;
pub mod report;
mod shard;
pub mod telemetry;
pub mod testing;

pub use algorithm::{
    Algorithm, Broadcast, BroadcastAlgorithm, CommunicationModel, Isotropic, IsotropicAlgorithm,
};
pub use bandwidth::{BandwidthCap, ByteLedger, MessageCodec};
pub use config::{Backend, FlatRunConfig, RunConfig};
pub use execution::Execution;
pub use flat::{
    exact_degree, lane_columns, DegreeOverflow, FlatAlgorithm, FlatExecution, Inbox, Lanes,
    MAX_EXACT_DEGREE,
};
pub use probe::{
    CountingProbe, FlatProbe, FlatProbeSummary, FlatRoundEvent, NullProbe, PhaseTimes,
    ShardCounters,
};
pub use report::CellReport;
pub use shard::MIN_SPAWN_AGENTS;
pub use telemetry::{
    CountSummary, CountingObserver, Log2Histogram, NullObserver, Observer, RoundEvent, TraceSink,
};

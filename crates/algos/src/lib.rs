//! Distributed algorithms for anonymous networks.
//!
//! This crate implements every algorithm the paper uses or proposes,
//! ready to run on the [`kya_runtime`] simulator:
//!
//! - [`gossip`]: set flooding — the witness that **set-based** functions
//!   are computable under simple broadcast (§1, Table 1 column 1);
//! - [`views`]: truncated universal covers ("views") with structural
//!   sharing, and the `B(T)` candidate-base extraction at the heart of
//!   Boldi & Vigna's construction (§3.2);
//! - [`min_base`]: the distributed minimum-base algorithms, one per
//!   communication model, stabilizing by round `n + D` (§4.2);
//! - [`frequency`]: the fibre-cardinality solvers — the homogeneous
//!   system of eq. (1) for outdegree awareness, the ratio construction of
//!   eq. (4) for symmetric communications, the equal-fibre rule of
//!   eq. (3) for output port awareness — and the [`FibreCensus`] they
//!   produce, from which set-, frequency-, and multiset-based functions
//!   are evaluated (§4.2–4.5);
//! - [`push_sum`]: the Push-Sum family for dynamic networks — quot-sum
//!   (Theorem 5.2), the frequency vector of Algorithm 1, ℚ_N rounding
//!   (Corollary 5.3), and the leader variant (§5.5) — each written once
//!   over the [`Mass`](push_sum::Mass) numbers `f64`, `Enclosure` and
//!   exact rationals;
//! - [`metropolis`]: average consensus on symmetric dynamic networks —
//!   Metropolis and Lazy Metropolis weights under outdegree awareness,
//!   and the fixed-weight `1/N` variant that needs only a bound on the
//!   network size (§5);
//! - [`quantized`]: bounded-bandwidth averaging — Push-Sum with b-bit
//!   token shares and residual carry, Metropolis with antisymmetric
//!   integer transfers — whose messages fit a
//!   [`MessageCodec`](kya_runtime::MessageCodec) cap
//!   structurally and whose token mass is conserved exactly in ℚ
//!   (ROADMAP's bandwidth pillar);
//! - [`certified`]: the certified middle rung between the `f64` and exact
//!   rungs — the names of Push-Sum and Push-Sum frequency over
//!   directed-rounding [`Enclosure`](kya_arith::Enclosure)s, whose
//!   intervals certify the `f64` run, and the escalation counts;
//! - [`lifting`]: the Lifting Lemma (Lemma 3.1) as an executable check —
//!   run an algorithm on a base, lift fibrewise, and verify the lift is a
//!   legal execution upstairs. This is the engine of every impossibility
//!   demonstration in the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certified;
pub mod frequency;
pub mod gossip;
pub mod lifting;
pub mod metropolis;
pub mod min_base;
pub mod push_sum;
pub mod quantized;
pub mod views;

pub use frequency::FibreCensus;
pub use views::{CandidateBase, View};

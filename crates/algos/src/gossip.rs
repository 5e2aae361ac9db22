//! Set gossip — the simple broadcast baseline (§1, §6).
//!
//! "A simple flooding algorithm easily allows all agents to recover the
//! set of all input values in finite time, and thus to compute any
//! set-based function." This module is that algorithm: states are sets of
//! values, messages are the full set, transitions are unions. The set of
//! input values stabilizes at every agent within the (dynamic) diameter,
//! and any set-based function is read off the output.
//!
//! Gossip is **self-stabilizing for its output semantics** in the weak
//! sense discussed in §2.2 — and, more importantly for the paper's
//! impossibility side, it is the *maximal* power of simple broadcast:
//! Table 1's first column says nothing beyond set-based is computable,
//! no matter the centralized help.

use kya_runtime::BroadcastAlgorithm;

/// Set-flooding gossip over ordered values.
///
/// The state is the sorted, deduplicated set of values heard so far; the
/// output is the whole set, from which any set-based function (min, max,
/// "contains 7", size of support, ...) can be evaluated.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetGossip;

/// Sorted set of values as a vector (small sets, cache-friendly).
pub type ValueSet = Vec<u64>;

impl SetGossip {
    /// Initial states: singleton sets.
    pub fn initial(values: &[u64]) -> Vec<ValueSet> {
        values.iter().map(|&v| vec![v]).collect()
    }
}

impl BroadcastAlgorithm for SetGossip {
    type State = ValueSet;
    type Msg = ValueSet;
    type Output = ValueSet;

    fn message(&self, state: &ValueSet) -> ValueSet {
        state.clone()
    }

    fn transition(&self, state: &ValueSet, inbox: &[ValueSet]) -> ValueSet {
        let mut merged = state.clone();
        for m in inbox {
            merged.extend_from_slice(m);
        }
        merged.sort_unstable();
        merged.dedup();
        merged
    }

    fn output(&self, state: &ValueSet) -> ValueSet {
        state.clone()
    }
}

/// Evaluate the canonical set-based functions on a gossiped set.
pub mod set_functions {
    /// Minimum of the support.
    ///
    /// Returns `None` on an empty set.
    pub fn min(set: &[u64]) -> Option<u64> {
        set.first().copied()
    }

    /// Maximum of the support.
    ///
    /// Returns `None` on an empty set.
    pub fn max(set: &[u64]) -> Option<u64> {
        set.last().copied()
    }

    /// Whether a value is present.
    pub fn contains(set: &[u64], v: u64) -> bool {
        set.binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::{generators, RandomDynamicGraph, StaticGraph};
    use kya_runtime::{Broadcast, Execution, RunConfig};

    #[test]
    fn floods_static_network_in_diameter_rounds() {
        let g = generators::directed_ring(7);
        let net = StaticGraph::new(g);
        let values = [4u64, 4, 2, 9, 2, 2, 1];
        let mut exec = Execution::new(Broadcast(SetGossip), SetGossip::initial(&values));
        exec.drive(&net, RunConfig::rounds(6));
        for out in exec.outputs() {
            assert_eq!(out, vec![1, 2, 4, 9]);
        }
    }

    #[test]
    fn floods_dynamic_network() {
        let net = RandomDynamicGraph::directed(9, 4, 21);
        let values: Vec<u64> = (0..9).map(|i| i % 3).collect();
        let mut exec = Execution::new(Broadcast(SetGossip), SetGossip::initial(&values));
        exec.drive(&net, RunConfig::rounds(16));
        for out in exec.outputs() {
            assert_eq!(out, vec![0, 1, 2]);
        }
    }

    #[test]
    fn set_functions_work() {
        let set = vec![2u64, 5, 9];
        assert_eq!(set_functions::min(&set), Some(2));
        assert_eq!(set_functions::max(&set), Some(9));
        assert!(set_functions::contains(&set, 5));
        assert!(!set_functions::contains(&set, 4));
        assert_eq!(set_functions::min(&[]), None);
    }

    #[test]
    fn multiplicities_are_invisible() {
        // Two networks with the same support but different multiplicities
        // give identical gossip outputs — the set-based ceiling in action.
        let net3 = StaticGraph::new(generators::complete(3));
        let net5 = StaticGraph::new(generators::complete(5));
        let mut a = Execution::new(Broadcast(SetGossip), SetGossip::initial(&[1, 2, 2]));
        let mut b = Execution::new(Broadcast(SetGossip), SetGossip::initial(&[1, 1, 1, 2, 2]));
        a.drive(&net3, RunConfig::rounds(4));
        b.drive(&net5, RunConfig::rounds(4));
        assert_eq!(a.outputs()[0], b.outputs()[0]);
    }
}

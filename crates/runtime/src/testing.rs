//! Test utilities enforcing the model's semantic contracts.
//!
//! The executor delivers inboxes in a deterministic order for
//! reproducibility, but the *model* (§2.2) hands the transition function
//! a **multiset**: an algorithm whose transition depends on delivery
//! order is observing information that anonymous agents do not have.
//! [`check_multiset_invariance`] shuffles inboxes and compares results,
//! catching such violations in tests.
//!
//! Similarly, [`check_self_stabilization`] runs an algorithm from
//! adversarial initial states and verifies that the outputs still
//! converge to the target — the §2.2 notion of self-stabilization
//! (tolerance of arbitrary initialization).

use crate::algorithm::Algorithm;
use crate::config::RunConfig;
use crate::execution::Execution;
use crate::report::CellReport;
use kya_graph::DynamicGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Check that `algo.transition(state, inbox)` is invariant under
/// permutations of `inbox`: `trials` random shuffles are compared against
/// the original order.
///
/// Returns `true` when every shuffle produced an equal state.
pub fn check_multiset_invariance<A>(
    algo: &A,
    state: &A::State,
    inbox: &[A::Msg],
    trials: usize,
    seed: u64,
) -> bool
where
    A: Algorithm,
    A::State: PartialEq,
{
    let reference = algo.transition(state, inbox);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffled: Vec<A::Msg> = inbox.to_vec();
    for _ in 0..trials {
        shuffled.shuffle(&mut rng);
        if algo.transition(state, &shuffled) != reference {
            return false;
        }
    }
    true
}

/// Outcome of a self-stabilization probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelfStabOutcome<O> {
    /// All outputs reached `target` and stayed there.
    Stabilized {
        /// First round at the end of which outputs held the target.
        at_round: u64,
    },
    /// The run ended with some output away from the target.
    Diverged {
        /// Final outputs, for diagnostics.
        outputs: Vec<O>,
    },
}

/// Run `algo` from the (adversarial) states `corrupted` and check whether
/// every output equals `target(agent)` by round `max_rounds` and for the
/// remainder of the run.
///
/// This is the executable form of §2.2's self-stabilization: an
/// algorithm is self-stabilizing for a task when *arbitrary*
/// initialization still leads to the desired outputs. Callers craft the
/// corruption (garbage views, wrong masses, ...) — the harness only
/// observes outputs.
pub fn check_self_stabilization<A, F>(
    algo: A,
    net: &dyn DynamicGraph,
    corrupted: Vec<A::State>,
    target: F,
    max_rounds: u64,
) -> SelfStabOutcome<A::Output>
where
    A: Algorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: PartialEq,
    F: Fn(usize) -> A::Output,
{
    let n = corrupted.len();
    let targets: Vec<A::Output> = (0..n).map(&target).collect();
    let mut exec = Execution::new(algo, corrupted);
    let report = drive_to_targets(&mut exec, net, &targets, max_rounds);
    match report.converged_at {
        Some(at_round) => SelfStabOutcome::Stabilized { at_round },
        None => SelfStabOutcome::Diverged {
            outputs: exec.outputs(),
        },
    }
}

/// Drive `exec` for up to `max_rounds` rounds against per-agent
/// targets: a round's distance is the discrete distance of the output
/// vector from `targets` (0 when every agent holds its target, else 1),
/// and convergence at ε = 0 is judged as in [`Execution::drive`].
///
/// # Panics
///
/// Panics if `targets.len() != exec.n()`.
fn drive_to_targets<A>(
    exec: &mut Execution<A>,
    net: &dyn DynamicGraph,
    targets: &[A::Output],
    max_rounds: u64,
) -> CellReport
where
    A: Algorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: PartialEq,
{
    assert_eq!(targets.len(), exec.n(), "one target per agent");
    let dist = |outputs: &[A::Output]| if outputs == targets { 0.0 } else { 1.0 };
    exec.drive(net, RunConfig::rounds(max_rounds).measure_with(dist, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Broadcast, BroadcastAlgorithm};
    use kya_graph::{generators, StaticGraph};

    /// Order-respecting (BROKEN) algorithm: keeps the first message.
    struct FirstWins;
    impl BroadcastAlgorithm for FirstWins {
        type State = u32;
        type Msg = u32;
        type Output = u32;
        fn message(&self, s: &u32) -> u32 {
            *s
        }
        fn transition(&self, s: &u32, inbox: &[u32]) -> u32 {
            inbox.first().copied().unwrap_or(*s)
        }
        fn output(&self, s: &u32) -> u32 {
            *s
        }
    }

    /// Order-invariant algorithm: max.
    struct MaxWins;
    impl BroadcastAlgorithm for MaxWins {
        type State = u32;
        type Msg = u32;
        type Output = u32;
        fn message(&self, s: &u32) -> u32 {
            *s
        }
        fn transition(&self, s: &u32, inbox: &[u32]) -> u32 {
            inbox.iter().copied().max().unwrap_or(0).max(*s)
        }
        fn output(&self, s: &u32) -> u32 {
            *s
        }
    }

    #[test]
    fn detects_order_dependence() {
        let inbox = vec![1u32, 2, 3];
        assert!(!check_multiset_invariance(
            &Broadcast(FirstWins),
            &0,
            &inbox,
            16,
            7
        ));
        assert!(check_multiset_invariance(
            &Broadcast(MaxWins),
            &0,
            &inbox,
            16,
            7
        ));
    }

    #[test]
    fn drive_to_targets_checks_per_agent() {
        // Frozen states: each agent keeps its own value, so per-agent
        // targets equal to the initial values are hit at round 1.
        struct Keep;
        impl BroadcastAlgorithm for Keep {
            type State = u32;
            type Msg = ();
            type Output = u32;
            fn message(&self, _: &u32) {}
            fn transition(&self, s: &u32, _: &[()]) -> u32 {
                *s
            }
            fn output(&self, s: &u32) -> u32 {
                *s
            }
        }
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(Broadcast(Keep), vec![7, 8, 9]);
        let report = drive_to_targets(&mut exec, &net, &[7, 8, 9], 5);
        assert_eq!(report.converged_at, Some(1));
        // A wrong per-agent target never converges.
        let mut exec = Execution::new(Broadcast(Keep), vec![7, 8, 9]);
        let report = drive_to_targets(&mut exec, &net, &[7, 8, 0], 5);
        assert_eq!(report.converged_at, None);
    }

    #[test]
    #[should_panic(expected = "one target per agent")]
    fn drive_to_targets_rejects_wrong_arity() {
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(Broadcast(MaxWins), vec![1, 2, 3]);
        let _ = drive_to_targets(&mut exec, &net, &[1u32], 5);
    }

    #[test]
    fn max_flood_is_self_stabilizing_for_its_fixpoint() {
        // From any initial states, max-flooding stabilizes every output to
        // the max of the *corrupted* states — which is its correct
        // self-stabilization target (the algorithm's legitimate states
        // are "everyone holds the global max").
        let net = StaticGraph::new(generators::directed_ring(5));
        let corrupted = vec![9, 2, 7, 1, 4];
        let outcome = check_self_stabilization(Broadcast(MaxWins), &net, corrupted, |_| 9, 20);
        assert!(matches!(outcome, SelfStabOutcome::Stabilized { at_round } if at_round <= 5));
    }

    #[test]
    fn diverging_case_reports_outputs() {
        // An algorithm that never changes state cannot stabilize to a
        // different target.
        struct Frozen;
        impl BroadcastAlgorithm for Frozen {
            type State = u32;
            type Msg = ();
            type Output = u32;
            fn message(&self, _: &u32) {}
            fn transition(&self, s: &u32, _: &[()]) -> u32 {
                *s
            }
            fn output(&self, s: &u32) -> u32 {
                *s
            }
        }
        let net = StaticGraph::new(generators::directed_ring(3));
        let outcome = check_self_stabilization(Broadcast(Frozen), &net, vec![1, 2, 3], |_| 0, 10);
        assert_eq!(
            outcome,
            SelfStabOutcome::Diverged {
                outputs: vec![1, 2, 3]
            }
        );
    }
}

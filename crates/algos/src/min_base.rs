//! Distributed minimum-base computation (Boldi–Vigna style, §3.2/§4.2).
//!
//! Each agent grows its view by one level per round and extracts a
//! candidate base [`candidate_base`](crate::views::candidate_base()) from
//! it. From round `n + D` onward the candidate is guaranteed to be the
//! minimum base of the (model-appropriately valued) network:
//!
//! - [`MinBaseBroadcast`] builds plain views — the right object for the
//!   symmetric model, where the base alone supports the ratio solver of
//!   eq. (4);
//! - [`MinBaseOutdegree`] annotates every child edge with the sender's
//!   outdegree, so the candidate is the base of the valued graph `G_od`
//!   and carries the `b_i` coefficients of eq. (1);
//! - [`MinBasePorts`] annotates with output-port labels, producing the
//!   base of the colored graph `G_op` whose fibres all have equal
//!   cardinality (eq. 3).
//!
//! A memory cap (the `finite-state` flavour of §3.2, here realized as
//! view-depth truncation) can be layered on any of the three with
//! [`DepthCapped`]: correctness is retained whenever the cap is at least
//! the stabilization depth, and the cap bounds the state space.

use crate::views::{candidate_base, CandidateBase, ClassMode, View};
use kya_runtime::bits::StateBits;
use kya_runtime::{Algorithm, BroadcastAlgorithm, IsotropicAlgorithm};

/// Agent state for all distributed min-base algorithms: the input value
/// and the current view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewState {
    /// The agent's (encoded) input value.
    pub value: u64,
    /// The view accumulated so far (depth = rounds executed).
    pub view: View,
}

impl ViewState {
    /// Initial state for input `value`.
    pub fn new(value: u64) -> ViewState {
        ViewState {
            value,
            view: View::leaf(value),
        }
    }

    /// Initial states from a slice of inputs.
    pub fn initial(values: &[u64]) -> Vec<ViewState> {
        values.iter().map(|&v| ViewState::new(v)).collect()
    }
}

/// The value, then the view's words.
impl StateBits for ViewState {
    fn feed(&self, out: &mut Vec<u64>) {
        out.push(self.value);
        self.view.feed(out);
    }
}

/// Distributed min-base under **simple broadcast / symmetric
/// communications**: messages are bare views.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinBaseBroadcast;

impl BroadcastAlgorithm for MinBaseBroadcast {
    type State = ViewState;
    type Msg = View;
    type Output = Option<CandidateBase>;

    fn message(&self, state: &ViewState) -> View {
        state.view.clone()
    }

    fn transition(&self, state: &ViewState, inbox: &[View]) -> ViewState {
        let children = inbox.iter().map(|v| (0u64, v.clone())).collect();
        ViewState {
            value: state.value,
            view: View::node(state.value, children),
        }
    }

    fn output(&self, state: &ViewState) -> Option<CandidateBase> {
        candidate_base(&state.view, ClassMode::Broadcast)
    }
}

/// Distributed min-base under **outdegree awareness**: each message
/// carries `(sender outdegree, view)`, so views become views of the
/// valued graph `G_od` and the candidate base knows every fibre's
/// outdegree (the `b_i` of eq. 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinBaseOutdegree;

impl IsotropicAlgorithm for MinBaseOutdegree {
    type State = ViewState;
    type Msg = (u64, View);
    type Output = Option<CandidateBase>;

    fn message(&self, state: &ViewState, outdegree: usize) -> (u64, View) {
        (outdegree as u64, state.view.clone())
    }

    fn transition(&self, state: &ViewState, inbox: &[(u64, View)]) -> ViewState {
        let children = inbox.iter().map(|(d, v)| (*d, v.clone())).collect();
        ViewState {
            value: state.value,
            view: View::node(state.value, children),
        }
    }

    fn output(&self, state: &ViewState) -> Option<CandidateBase> {
        candidate_base(&state.view, ClassMode::OutdegreePairs)
    }
}

/// Distributed min-base under **output port awareness**: the message sent
/// on port `ℓ` carries `ℓ` itself, so receivers accumulate port-colored
/// views (views of `G_op`).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinBasePorts;

impl Algorithm for MinBasePorts {
    type State = ViewState;
    type Msg = (u64, View);
    type Output = Option<CandidateBase>;

    fn send(&self, state: &ViewState, outdegree: usize) -> Vec<(u64, View)> {
        (0..outdegree as u64)
            .map(|port| (port, state.view.clone()))
            .collect()
    }

    fn transition(&self, state: &ViewState, inbox: &[(u64, View)]) -> ViewState {
        let children = inbox.iter().map(|(p, v)| (*p, v.clone())).collect();
        ViewState {
            value: state.value,
            view: View::node(state.value, children),
        }
    }

    fn output(&self, state: &ViewState) -> Option<CandidateBase> {
        candidate_base(&state.view, ClassMode::PortColored)
    }
}

/// Memory-capped wrapper: after each transition the view is truncated to
/// the deepest `cap` levels, bounding the agent's state space — the
/// finite-state concession of §3.2/§4.2. Correct whenever
/// `cap >= stabilization depth + 1`; the F3 experiment sweeps the cap to
/// chart the correctness/memory trade-off.
#[derive(Clone, Copy, Debug)]
pub struct DepthCapped<A> {
    inner: A,
    cap: usize,
}

impl<A> DepthCapped<A> {
    /// Cap views of `inner` at depth `cap >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(inner: A, cap: usize) -> DepthCapped<A> {
        assert!(cap >= 1, "cap must be at least one level");
        DepthCapped { inner, cap }
    }

    /// The configured depth cap.
    pub fn cap(&self) -> usize {
        self.cap
    }
}

/// Truncating *from the top* is what a bounded agent can actually do: it
/// keeps the `cap` most recent levels by dropping leaves. Dropping the
/// deepest level of every subtree is exactly `truncate(depth - 1)`
/// applied before storing.
fn cap_view(view: View, cap: usize) -> View {
    if view.depth() > cap {
        view.truncate(cap)
    } else {
        view
    }
}

impl<A> Algorithm for DepthCapped<A>
where
    A: Algorithm<State = ViewState>,
{
    type State = ViewState;
    type Msg = A::Msg;
    type Output = A::Output;

    // Inconsistency-triggered reset (fault recovery): the root of an
    // agent's view must be its own input value — every transition
    // rebuilds the view as `node(value, ...)`, so a mismatch proves the
    // state was corrupted from outside (bit flip, restored checkpoint,
    // adversarial injection). A bounded agent cannot repair a corrupted
    // tree, but it can always rebuild from its input: behave as if the
    // view were the round-0 leaf. The crucial site is `send` — that is
    // where a corrupted view would otherwise enter the network and
    // linger in everyone's deep levels for up to `cap` rounds; resetting
    // there confines detectable corruption to its own agent and one
    // round. Consistent-looking corruption is still flushed by
    // truncation within `cap` rounds (the self-stabilization route).
    fn send(&self, state: &ViewState, outdegree: usize) -> Vec<A::Msg> {
        if state.view.value() != state.value {
            let reset = ViewState::new(state.value);
            self.inner.send(&reset, outdegree)
        } else {
            self.inner.send(state, outdegree)
        }
    }

    fn transition(&self, state: &ViewState, inbox: &[A::Msg]) -> ViewState {
        let reset;
        let state = if state.view.value() != state.value {
            reset = ViewState::new(state.value);
            &reset
        } else {
            state
        };
        let next = self.inner.transition(state, inbox);
        ViewState {
            value: next.value,
            view: cap_view(next.view, self.cap),
        }
    }

    fn output(&self, state: &ViewState) -> A::Output {
        self.inner.output(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_fibration::iso::are_isomorphic;
    use kya_fibration::MinimumBase;
    use kya_graph::{generators, StaticGraph};
    use kya_runtime::RunConfig;
    use kya_runtime::{Broadcast, Execution, Isotropic};

    fn broadcast_candidates(
        g: &kya_graph::Digraph,
        values: &[u64],
        rounds: u64,
    ) -> Vec<Option<CandidateBase>> {
        let net = StaticGraph::new(g.clone());
        let mut exec = Execution::new(Broadcast(MinBaseBroadcast), ViewState::initial(values));
        exec.drive(&net, RunConfig::rounds(rounds));
        exec.outputs()
    }

    #[test]
    fn broadcast_min_base_matches_centralized() {
        let cases: Vec<(kya_graph::Digraph, Vec<u64>)> = vec![
            (generators::directed_ring(6), vec![1, 2, 1, 2, 1, 2]),
            (generators::star(5), vec![0; 5]),
            (
                generators::random_strongly_connected(8, 6, 3),
                vec![0, 1, 0, 1, 0, 1, 0, 1],
            ),
        ];
        for (g, values) in cases {
            let n = g.n();
            let d = kya_graph::connectivity::diameter(&g.with_self_loops()).unwrap();
            let rounds = (n + d + 2) as u64;
            let outs = broadcast_candidates(&g, &values, rounds);
            let reference = MinimumBase::compute(&g.with_self_loops(), &values);
            for (agent, out) in outs.iter().enumerate() {
                let cb = out.as_ref().expect("stabilized by n + D");
                assert!(
                    are_isomorphic(
                        &cb.graph,
                        &cb.values,
                        reference.base(),
                        reference.base_values()
                    )
                    .is_some(),
                    "agent {agent}: candidate != centralized base"
                );
            }
        }
    }

    #[test]
    fn outdegree_min_base_carries_outdegrees() {
        let g = generators::star(4);
        let closed = g.with_self_loops();
        let net = StaticGraph::new(g);
        let mut exec = Execution::new(
            Isotropic(MinBaseOutdegree),
            ViewState::initial(&[0, 0, 0, 0]),
        );
        exec.drive(&net, RunConfig::rounds(10));
        for out in exec.outputs() {
            let cb = out.expect("stabilized");
            assert_eq!(cb.graph.n(), 2);
            let mut pairs: Vec<(u64, u64)> = cb
                .annotations
                .iter()
                .zip(&cb.values)
                .map(|(&a, &v)| (a, v))
                .collect();
            pairs.sort_unstable();
            // Leaf outdegree 2 (center + self), center outdegree 4.
            assert_eq!(pairs, vec![(2, 0), (4, 0)]);
        }
        let _ = closed;
    }

    #[test]
    fn port_min_base_on_port_symmetric_ring() {
        // Directed ring where each vertex sends port 0 on the ring edge
        // and port 1 on the self-loop: rotational symmetry preserved.
        let n = 5;
        let mut g = kya_graph::Digraph::new(n);
        for i in 0..n {
            g.add_edge_with_port(i, (i + 1) % n, Some(0));
            g.add_edge_with_port(i, i, Some(1));
        }
        let net = StaticGraph::new(g);
        let mut exec = Execution::new(MinBasePorts, ViewState::initial(&vec![7; n]));
        exec.drive(&net, RunConfig::rounds((2 * n) as u64));
        for out in exec.outputs() {
            let cb = out.expect("stabilized");
            assert_eq!(cb.graph.n(), 1, "port-symmetric ring collapses");
            // Two loops with distinct ports.
            let mut ports: Vec<Option<u32>> = cb.graph.edges().iter().map(|e| e.port).collect();
            ports.sort_unstable();
            assert_eq!(ports, vec![Some(0), Some(1)]);
        }
    }

    #[test]
    fn depth_cap_preserves_correctness_when_generous() {
        let g = generators::directed_ring(6);
        let values = [1u64, 2, 1, 2, 1, 2];
        let net = StaticGraph::new(g.clone());
        let capped = DepthCapped::new(Broadcast(MinBaseBroadcast), 16);
        let mut exec = Execution::new(capped, ViewState::initial(&values));
        exec.drive(&net, RunConfig::rounds(20));
        let reference = MinimumBase::compute(&g.with_self_loops(), &values);
        for out in exec.outputs() {
            let cb = out.expect("stabilized");
            assert!(are_isomorphic(
                &cb.graph,
                &cb.values,
                reference.base(),
                reference.base_values()
            )
            .is_some());
        }
        // States stay bounded: view depth never exceeds the cap.
        assert!(exec.states().iter().all(|s| s.view.depth() <= 16));
    }

    #[test]
    fn depth_cap_too_small_blinds_agents() {
        // With cap 1 the agents only ever see depth-1 views: candidate
        // extraction needs depth >= 2, so outputs stay None forever.
        let g = generators::directed_ring(4);
        let net = StaticGraph::new(g);
        let capped = DepthCapped::new(Broadcast(MinBaseBroadcast), 1);
        let mut exec = Execution::new(capped, ViewState::initial(&[0, 1, 2, 3]));
        exec.drive(&net, RunConfig::rounds(10));
        assert!(exec.outputs().iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_cap_rejected() {
        let _ = DepthCapped::new(Broadcast(MinBaseBroadcast), 0);
    }

    #[test]
    fn depth_capped_min_base_is_self_stabilizing() {
        // §3.2: Boldi & Vigna's algorithm is self-stabilizing. Our
        // depth-capped realization recovers from adversarially corrupted
        // views: garbage at depth d is pushed one level deeper each
        // round and truncated away once it passes the cap, so after
        // `cap` rounds the state is exactly what a clean run produces.
        use kya_runtime::testing::{check_self_stabilization, SelfStabOutcome};

        let g = generators::directed_ring(6);
        let values = [1u64, 2, 1, 2, 1, 2];
        let cap = 16;
        let net = StaticGraph::new(g.clone());

        // Reference: the clean run's stabilized candidate.
        let clean = DepthCapped::new(Broadcast(MinBaseBroadcast), cap);
        let mut reference = Execution::new(clean, ViewState::initial(&values));
        reference.drive(&net, RunConfig::rounds(40));
        let truth = reference.outputs()[0].clone().expect("stabilized");

        // Corrupted start: every agent begins with a *bogus* deep view
        // (wrong values, wrong shape), but its genuine input value.
        let corrupted: Vec<ViewState> = values
            .iter()
            .map(|&v| {
                let garbage = crate::views::View::node(
                    999,
                    vec![(
                        7,
                        crate::views::View::node(123, vec![(0, crate::views::View::leaf(55))]),
                    )],
                );
                ViewState {
                    value: v,
                    view: garbage,
                }
            })
            .collect();
        let algo = DepthCapped::new(Broadcast(MinBaseBroadcast), cap);
        let outcome = check_self_stabilization(algo, &net, corrupted, |_| Some(truth.clone()), 60);
        match outcome {
            SelfStabOutcome::Stabilized { at_round } => {
                assert!(
                    at_round <= (cap + g.n() + 6) as u64,
                    "recovered at {at_round}"
                );
            }
            SelfStabOutcome::Diverged { .. } => panic!("did not self-stabilize"),
        }
    }

    #[test]
    fn inconsistent_view_triggers_immediate_reset() {
        // A corrupted view whose root disagrees with the agent's input
        // is *detectable*, and DepthCapped flushes it in one transition
        // instead of waiting for truncation to push it past the cap.
        // With a generous cap (64) the truncation route would need ~64
        // rounds; the reset route recovers in n + D + slack rounds.
        use kya_runtime::testing::{check_self_stabilization, SelfStabOutcome};

        let g = generators::directed_ring(6);
        let values = [1u64, 2, 1, 2, 1, 2];
        let cap = 64;
        let net = StaticGraph::new(g.clone());

        let clean = DepthCapped::new(Broadcast(MinBaseBroadcast), cap);
        let mut reference = Execution::new(clean, ViewState::initial(&values));
        reference.drive(&net, RunConfig::rounds(40));
        let truth = reference.outputs()[0].clone().expect("stabilized");

        // Deep garbage with a mismatched root (999 != input value).
        let corrupted: Vec<ViewState> = values
            .iter()
            .map(|&v| ViewState {
                value: v,
                view: crate::views::View::node(
                    999,
                    vec![(
                        3,
                        crate::views::View::node(998, vec![(0, crate::views::View::leaf(997))]),
                    )],
                ),
            })
            .collect();
        let algo = DepthCapped::new(Broadcast(MinBaseBroadcast), cap);
        let outcome = check_self_stabilization(algo, &net, corrupted, |_| Some(truth.clone()), 40);
        match outcome {
            SelfStabOutcome::Stabilized { at_round } => {
                assert!(
                    at_round <= (g.n() + 6 + 4) as u64,
                    "reset should beat the {cap}-round truncation flush, got {at_round}"
                );
            }
            SelfStabOutcome::Diverged { .. } => panic!("did not recover"),
        }
    }

    #[test]
    fn uncapped_min_base_is_not_self_stabilizing() {
        // Without the cap, corrupted deep levels are never forgotten:
        // the candidate extraction keeps seeing ghost classes at the
        // oldest levels and the output can stay wrong forever. This is
        // why the paper needs the finite-state variant for
        // self-stabilization.
        let g = generators::directed_ring(6);
        let values = [1u64, 2, 1, 2, 1, 2];
        let net = StaticGraph::new(g.clone());
        let mut reference =
            Execution::new(Broadcast(MinBaseBroadcast), ViewState::initial(&values));
        reference.drive(&net, RunConfig::rounds(40));
        let truth = reference.outputs()[0].clone().expect("stabilized");

        // Corrupt with a view that mimics a *different* network: an
        // extra phantom value 77.
        let corrupted: Vec<ViewState> = values
            .iter()
            .map(|&v| ViewState {
                value: v,
                view: crate::views::View::leaf(77),
            })
            .collect();
        let mut exec = Execution::new(Broadcast(MinBaseBroadcast), corrupted);
        exec.drive(&net, RunConfig::rounds(40));
        let polluted = exec.outputs()[0].clone();
        // The phantom value survives at the deepest levels and keeps the
        // candidate different from the clean one.
        assert_ne!(polluted, Some(truth));
    }

    #[test]
    fn view_state_words_see_past_the_debug_text() {
        // Same value, same depth, different children: `Debug` prints only
        // value and depth, so it cannot tell these states apart.
        use crate::views::View;
        let state = |kids: [u64; 2]| ViewState {
            value: 1,
            view: View::node(1, kids.map(|k| (0, View::leaf(k))).to_vec()),
        };
        let (a, b) = (state([1, 2]), state([1, 3]));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(a.words(), b.words());
        // Rebuilding `a` in another child order interns the same view.
        assert_eq!(a.words(), state([2, 1]).words());
    }
}

//! Algorithm traits, one per communication model.
//!
//! §2.2 of the paper stratifies sending functions by what they may
//! observe:
//!
//! | model                 | sending function            | trait |
//! |-----------------------|-----------------------------|-------|
//! | simple broadcast      | `σ: Q -> M`                 | [`BroadcastAlgorithm`] |
//! | outdegree awareness   | `σ: Q x ℕ -> M`             | [`IsotropicAlgorithm`] |
//! | output port awareness | `σ: Q x ℕ -> M^k`           | [`Algorithm`] |
//! | symmetric             | broadcast on bidirectional nets | [`BroadcastAlgorithm`] + class restriction |
//!
//! The wrappers [`Broadcast`] and [`Isotropic`] embed the weaker models
//! into the general one, mirroring the paper's inclusions; the executor
//! only ever sees an [`Algorithm`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// The four communication models of the paper (§2.2).
///
/// The model is a property of the *network class plus sending-function
/// type*, not of the executor: symmetric communications is simple
/// broadcast restricted to bidirectional networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CommunicationModel {
    /// Blind broadcast: the message depends on the state only.
    SimpleBroadcast,
    /// The sender knows its current outdegree; the message may depend on
    /// it but is the same on every link (isotropic).
    OutdegreeAware,
    /// Simple broadcast over networks whose links are all bidirectional.
    Symmetric,
    /// The sender addresses each labelled output port individually
    /// (meaningful for static networks only).
    OutputPortAware,
}

impl CommunicationModel {
    /// All four models, in the order of the paper's Table 1 columns.
    pub const ALL: [CommunicationModel; 4] = [
        CommunicationModel::SimpleBroadcast,
        CommunicationModel::OutdegreeAware,
        CommunicationModel::Symmetric,
        CommunicationModel::OutputPortAware,
    ];
}

impl fmt::Display for CommunicationModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CommunicationModel::SimpleBroadcast => "simple broadcast",
            CommunicationModel::OutdegreeAware => "outdegree awareness",
            CommunicationModel::Symmetric => "symmetric communications",
            CommunicationModel::OutputPortAware => "output port awareness",
        };
        f.write_str(s)
    }
}

/// An anonymous-network algorithm in the most general (output port aware)
/// form: `A = (Q, M, σ, δ)` plus an output projection (§2.2–2.3).
///
/// Determinism and anonymity are structural: the executor calls these
/// methods with nothing but local data, and every agent runs the *same*
/// `Algorithm` value.
///
/// # Contract
///
/// - [`Algorithm::send`] must return exactly `outdegree` messages; message
///   `k` is emitted on output port `k`.
/// - [`Algorithm::transition`] must treat `inbox` as a **multiset**: its
///   result may not depend on the order of the slice. (The executor
///   preserves a deterministic order so runs are reproducible, but any
///   order-sensitivity would be an anonymity violation; tests can check
///   this with shuffled deliveries.)
pub trait Algorithm {
    /// Local state (`Q`).
    type State: Clone + fmt::Debug;
    /// Message alphabet (`M`).
    type Msg: Clone + fmt::Debug;
    /// Output value extracted from the state (the `x_i` of §2.3).
    type Output: Clone + PartialEq + fmt::Debug;

    /// The messages to send, one per output port (`σ(q, d⁻)`).
    ///
    /// `outdegree` counts every outgoing link of the current round,
    /// including the self-loop, and is always at least 1.
    fn send(&self, state: &Self::State, outdegree: usize) -> Vec<Self::Msg>;

    /// The state after receiving `inbox` (`δ(q, multiset)`).
    fn transition(&self, state: &Self::State, inbox: &[Self::Msg]) -> Self::State;

    /// [`Algorithm::transition`], additionally told the agent's own
    /// outdegree for the round being folded.
    ///
    /// An output-port-aware automaton already observed `outdegree` when
    /// its round-`t` sending function ran; splitting `σ`/`δ` into two
    /// callbacks artificially lost that information at transition time.
    /// Executors always call this variant with the current round
    /// graph's outdegree. The default ignores it and forwards to
    /// [`Algorithm::transition`], so existing algorithms are
    /// unaffected; quantized algorithms with a residual carry
    /// (`kya_algos::quantized`) override it to recompute the shares
    /// they just sent.
    fn transition_with_outdegree(
        &self,
        state: &Self::State,
        outdegree: usize,
        inbox: &[Self::Msg],
    ) -> Self::State {
        let _ = outdegree;
        self.transition(state, inbox)
    }

    /// The state after folding back `lost`: the messages this agent
    /// sent this round that a fault plan kept from their recipient
    /// (dropped in flight, or bounced off a crashed agent; see
    /// [`crate::faults`]). The executor returns them within the same
    /// communication-closed round, a link-layer bounce, and calls this
    /// after the transition, only when `lost` is non-empty.
    ///
    /// This is the algorithm's self-healing hook: a mass-conserving
    /// algorithm re-merges the lost shares, which are rescattered over
    /// the surviving links next round. The default discards them, so a
    /// fault-oblivious algorithm leaks what the network loses; plain
    /// Push-Sum under drops is the F6 negative control.
    fn reabsorb(&self, state: &Self::State, lost: &[Self::Msg]) -> Self::State {
        let _ = lost;
        state.clone()
    }

    /// The agent's current output.
    fn output(&self, state: &Self::State) -> Self::Output;
}

/// An algorithm for the **outdegree awareness** model: the same message on
/// every link, but the message may depend on the outdegree.
pub trait IsotropicAlgorithm {
    /// Local state.
    type State: Clone + fmt::Debug;
    /// Message alphabet.
    type Msg: Clone + fmt::Debug;
    /// Output value.
    type Output: Clone + PartialEq + fmt::Debug;

    /// The message broadcast to all `outdegree` recipients.
    fn message(&self, state: &Self::State, outdegree: usize) -> Self::Msg;

    /// The state after receiving `inbox` (a multiset; see
    /// [`Algorithm::transition`]).
    fn transition(&self, state: &Self::State, inbox: &[Self::Msg]) -> Self::State;

    /// Transition additionally told the round's outdegree (see
    /// [`Algorithm::transition_with_outdegree`]): legitimate in this
    /// model because the sending function `σ: Q x ℕ -> M` already
    /// observes it. Defaults to ignoring the outdegree.
    fn transition_with_outdegree(
        &self,
        state: &Self::State,
        outdegree: usize,
        inbox: &[Self::Msg],
    ) -> Self::State {
        let _ = outdegree;
        self.transition(state, inbox)
    }

    /// The state after folding back undelivered messages; see
    /// [`Algorithm::reabsorb`]. Defaults to discarding them.
    fn reabsorb(&self, state: &Self::State, lost: &[Self::Msg]) -> Self::State {
        let _ = lost;
        state.clone()
    }

    /// The agent's current output.
    fn output(&self, state: &Self::State) -> Self::Output;
}

/// An algorithm for the **simple broadcast** model: the message depends on
/// the local state alone. This is also the sending discipline of the
/// symmetric model (§2.2).
pub trait BroadcastAlgorithm {
    /// Local state.
    type State: Clone + fmt::Debug;
    /// Message alphabet.
    type Msg: Clone + fmt::Debug;
    /// Output value.
    type Output: Clone + PartialEq + fmt::Debug;

    /// The message broadcast blindly to every recipient.
    fn message(&self, state: &Self::State) -> Self::Msg;

    /// The state after receiving `inbox` (a multiset; see
    /// [`Algorithm::transition`]).
    fn transition(&self, state: &Self::State, inbox: &[Self::Msg]) -> Self::State;

    /// The agent's current output.
    fn output(&self, state: &Self::State) -> Self::Output;
}

/// Adapter embedding an [`IsotropicAlgorithm`] into the general model:
/// the same message is replicated on every port (§2.2's isotropy
/// condition `σ(q, k)[ℓ] = σ(q, k)[ℓ']`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Isotropic<A>(pub A);

impl<A: IsotropicAlgorithm> Algorithm for Isotropic<A> {
    type State = A::State;
    type Msg = A::Msg;
    type Output = A::Output;

    fn send(&self, state: &Self::State, outdegree: usize) -> Vec<Self::Msg> {
        vec![self.0.message(state, outdegree); outdegree]
    }

    fn transition(&self, state: &Self::State, inbox: &[Self::Msg]) -> Self::State {
        self.0.transition(state, inbox)
    }

    fn transition_with_outdegree(
        &self,
        state: &Self::State,
        outdegree: usize,
        inbox: &[Self::Msg],
    ) -> Self::State {
        self.0.transition_with_outdegree(state, outdegree, inbox)
    }

    fn reabsorb(&self, state: &Self::State, lost: &[Self::Msg]) -> Self::State {
        self.0.reabsorb(state, lost)
    }

    fn output(&self, state: &Self::State) -> Self::Output {
        self.0.output(state)
    }
}

/// Adapter embedding a [`BroadcastAlgorithm`] into the general model: the
/// graph-invariance condition `σ(q, k)[ℓ] = σ(q, 1)[1]` of §2.2.
/// `Broadcast` deliberately keeps the default
/// [`Algorithm::transition_with_outdegree`]: a simple-broadcast
/// automaton must not observe its outdegree at any point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Broadcast<A>(pub A);

impl<A: BroadcastAlgorithm> Algorithm for Broadcast<A> {
    type State = A::State;
    type Msg = A::Msg;
    type Output = A::Output;

    fn send(&self, state: &Self::State, outdegree: usize) -> Vec<Self::Msg> {
        vec![self.0.message(state); outdegree]
    }

    fn transition(&self, state: &Self::State, inbox: &[Self::Msg]) -> Self::State {
        self.0.transition(state, inbox)
    }

    fn output(&self, state: &Self::State) -> Self::Output {
        self.0.output(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl BroadcastAlgorithm for Echo {
        type State = i32;
        type Msg = i32;
        type Output = i32;
        fn message(&self, state: &i32) -> i32 {
            *state
        }
        fn transition(&self, state: &i32, _inbox: &[i32]) -> i32 {
            *state
        }
        fn output(&self, state: &i32) -> i32 {
            *state
        }
    }

    struct DegreeTagger;
    impl IsotropicAlgorithm for DegreeTagger {
        type State = usize;
        type Msg = usize;
        type Output = usize;
        fn message(&self, _state: &usize, outdegree: usize) -> usize {
            outdegree
        }
        fn transition(&self, state: &usize, _inbox: &[usize]) -> usize {
            *state
        }
        fn output(&self, state: &usize) -> usize {
            *state
        }
    }

    #[test]
    fn broadcast_replicates_message() {
        let a = Broadcast(Echo);
        assert_eq!(a.send(&7, 3), vec![7, 7, 7]);
        assert_eq!(a.output(&7), 7);
        assert_eq!(a.transition(&7, &[1, 2]), 7);
    }

    #[test]
    fn isotropic_sees_outdegree() {
        let a = Isotropic(DegreeTagger);
        assert_eq!(a.send(&0, 4), vec![4, 4, 4, 4]);
    }

    #[test]
    fn model_display_and_order() {
        assert_eq!(
            CommunicationModel::ALL.map(|m| m.to_string()),
            [
                "simple broadcast",
                "outdegree awareness",
                "symmetric communications",
                "output port awareness"
            ]
        );
    }
}

//! Fault injection and measured recovery (experiment F6).
//!
//! The paper's computability results assume a *fault-free* dynamic
//! network: every scripted edge of `G_t` delivers its message, and every
//! agent survives. This module asks the robustness question the model
//! makes precise: *which* communication-model/algorithm pairs keep (or
//! regain) their guarantees when the adversary also drops links,
//! duplicates messages, and crashes agents?
//!
//! Everything follows the §5.3 idiom that [`crate::adversary::AsyncStarts`]
//! established: a fault regime is a **transformation of the dynamic
//! graph**, not a change to the executor or to the algorithm's contract.
//! Two layers are provided, because link faults have two inequivalent
//! readings:
//!
//! - [`FaultyNetwork`] applies a [`FaultPlan`] at the **graph level**.
//!   A dropped link is removed *before* senders compute their messages,
//!   so an outdegree-aware sender sees its true (reduced) audience. This
//!   is the fail-aware reading: Push-Sum under a `FaultyNetwork` still
//!   conserves mass, because its shares are split over surviving links
//!   only. Self-loops always survive and crashed agents keep *only*
//!   their self-loop, exactly mirroring the `i = j` exemption of the
//!   async-start masking.
//! - An [`Execution`](crate::Execution) given the plan with
//!   [`Execution::faults`](crate::Execution::faults) applies it at the
//!   **message level**: the plan is the executor's delivery policy.
//!   Messages are computed against the scripted graph and *then* lost in
//!   flight. Senders overestimate their audience, which is where real
//!   lossy networks break mass conservation. Undeliverable messages are
//!   bounced back to their sender within the communication-closed round
//!   (a link-layer NACK), and what the sender does with the bounce is the
//!   algorithm's choice via [`Algorithm::reabsorb`](crate::Algorithm::reabsorb):
//!   a self-healing algorithm re-merges the lost shares, while the
//!   default discards them — the negative control.
//!
//! Both layers are driven by the same deterministic, serializable
//! [`FaultPlan`]: every coin is a pure function of `(seed, round, src,
//! dst)`, so a fault script can be stored next to an experiment's JSON
//! output and replayed bit-for-bit.

use kya_graph::{Digraph, DynamicGraph};
use serde::{Deserialize, Serialize};
use std::ops::Range;

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

/// One agent-crash interval of a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashWindow {
    /// The crashed agent.
    pub agent: usize,
    /// First faulty round (rounds are numbered from 1).
    pub from: u64,
    /// First round the agent is live again (exclusive bound); `None`
    /// means crash-stop — the agent never recovers.
    pub until: Option<u64>,
}

impl CrashWindow {
    /// Whether the window covers round `t`.
    pub fn covers(&self, t: u64) -> bool {
        t >= self.from && self.until.is_none_or(|u| t < u)
    }
}

/// A deterministic, seeded fault script.
///
/// The plan is a pure function: every decision (drop a link, duplicate
/// it, delay a retry) is derived by hashing `(seed, round, src, dst)`,
/// so the same plan value always produces the same fault pattern, on any
/// platform. Plans serialize to JSON for archival next to experiment
/// results.
///
/// Build with the fluent API:
///
/// ```
/// use kya_runtime::faults::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .drop_links(0.3)       // each non-self-loop link fails i.i.d.
///     .duplicate(0.1)        // each surviving link may double-deliver
///     .retry_within(4)       // graph level: dropped links retry in <= 4 rounds
///     .crash(2, 10..20)      // agent 2 is down for rounds 10..20
///     .crash_stop(5, 30);    // agent 5 dies at round 30 for good
/// assert!(!plan.is_quiescent());
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    retry_within: Option<u64>,
    horizon: Option<u64>,
    crashes: Vec<CrashWindow>,
}

/// Domain-separation salts: one per kind of coin, so the drop pattern
/// does not correlate with the duplication or delay pattern.
const SALT_DROP: u64 = 0x6472_6f70_6c69_6e6b; // "droplink"
const SALT_DUP: u64 = 0x6475_706c_6963_6174; // "duplicat"
const SALT_DELAY: u64 = 0x6465_6c61_795f_5f5f; // "delay___"

fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A quiescent plan (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            retry_within: None,
            horizon: None,
            crashes: Vec::new(),
        }
    }

    /// Drop each non-self-loop link i.i.d. with probability `p` per
    /// round.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1` (`p = 1` would disconnect the network
    /// permanently, which no recovery notion survives).
    pub fn drop_links(mut self, p: f64) -> FaultPlan {
        assert!((0.0..1.0).contains(&p), "drop rate must be in [0, 1)");
        self.drop_p = p;
        self
    }

    /// Deliver each surviving non-self-loop link twice with probability
    /// `p` per round (message duplication).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn duplicate(mut self, p: f64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication rate must be in [0, 1]"
        );
        self.dup_p = p;
        self
    }

    /// Graph level only: a link dropped at round `t` is redelivered at a
    /// deterministic round in `t+1 ..= t+bound`, so a `T`-interval
    /// connected network stays `(T + bound)`-interval connected.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn retry_within(mut self, bound: u64) -> FaultPlan {
        assert!(bound >= 1, "retry bound must be at least one round");
        self.retry_within = Some(bound);
        self
    }

    /// Probabilistic link faults (drops and duplications) cease after
    /// round `last`: the network is fault-free from round `last + 1` on,
    /// so recovery after the final fault is a well-defined quantity.
    /// Crash windows are explicit intervals and are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `last == 0` (use a quiescent plan instead).
    pub fn until(mut self, last: u64) -> FaultPlan {
        assert!(last >= 1, "fault horizon must be at least one round");
        self.horizon = Some(last);
        self
    }

    /// Crash `agent` for the rounds in `window` (crash-recover).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or starts at round 0.
    pub fn crash(mut self, agent: usize, window: Range<u64>) -> FaultPlan {
        assert!(window.start >= 1, "rounds are numbered from 1");
        assert!(window.start < window.end, "empty crash window");
        self.crashes.push(CrashWindow {
            agent,
            from: window.start,
            until: Some(window.end),
        });
        self
    }

    /// Crash `agent` at round `from`, permanently (crash-stop).
    ///
    /// # Panics
    ///
    /// Panics if `from == 0`.
    pub fn crash_stop(mut self, agent: usize, from: u64) -> FaultPlan {
        assert!(from >= 1, "rounds are numbered from 1");
        self.crashes.push(CrashWindow {
            agent,
            from,
            until: None,
        });
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-round link-drop probability.
    pub fn drop_rate(&self) -> f64 {
        self.drop_p
    }

    /// The per-round duplication probability.
    pub fn duplicate_rate(&self) -> f64 {
        self.dup_p
    }

    /// The graph-level retry bound, if any.
    pub fn retry_bound(&self) -> Option<u64> {
        self.retry_within
    }

    /// The round after which probabilistic link faults cease, if any.
    pub fn horizon(&self) -> Option<u64> {
        self.horizon
    }

    /// The scripted crash windows.
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// Whether the plan injects no faults at all (the identity
    /// adversary).
    pub fn is_quiescent(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0 && self.crashes.is_empty()
    }

    /// Whether `agent` is crashed at round `t`.
    pub fn is_crashed(&self, agent: usize, t: u64) -> bool {
        self.crashes.iter().any(|w| w.agent == agent && w.covers(t))
    }

    /// The last round at which a *scripted* crash state changes (an
    /// agent goes down or comes back). Crash-stops change state once,
    /// when they begin. Returns 0 for a crash-free plan. Note this is
    /// about the script; probabilistic link faults never cease, so
    /// recovery experiments measure from the last *observed* fault
    /// instead (see [`FaultEvents::last_fault_round`]).
    pub fn last_crash_transition(&self) -> u64 {
        self.crashes
            .iter()
            .map(|w| w.until.unwrap_or(w.from))
            .max()
            .unwrap_or(0)
    }

    /// The raw per-round drop coin for the link `src -> dst` at round
    /// `t`. Self-loops never drop.
    pub fn drops(&self, t: u64, src: usize, dst: usize) -> bool {
        if src == dst || self.drop_p == 0.0 || self.past_horizon(t) {
            return false;
        }
        self.coin(SALT_DROP, t, src, dst) < self.drop_p
    }

    /// The per-round duplication coin for the link `src -> dst` at round
    /// `t`. Self-loops never duplicate.
    pub fn duplicates(&self, t: u64, src: usize, dst: usize) -> bool {
        if src == dst || self.dup_p == 0.0 || self.past_horizon(t) {
            return false;
        }
        self.coin(SALT_DUP, t, src, dst) < self.dup_p
    }

    fn past_horizon(&self, t: u64) -> bool {
        self.horizon.is_some_and(|h| t > h)
    }

    /// Graph-level availability of the link `src -> dst` at round `t`:
    /// blocked when its drop coin fires, unless a drop from one of the
    /// previous `retry_within` rounds scheduled its redelivery for `t`.
    pub fn link_blocked(&self, t: u64, src: usize, dst: usize) -> bool {
        if !self.drops(t, src, dst) {
            return false;
        }
        let Some(bound) = self.retry_within else {
            return true;
        };
        // Redelivery forced at t by an earlier drop?
        let earliest = t.saturating_sub(bound).max(1);
        for t_prev in earliest..t {
            if self.drops(t_prev, src, dst) && t_prev + self.retry_delay(t_prev, src, dst) == t {
                return false;
            }
        }
        true
    }

    /// The deterministic redelivery delay in `1..=retry_within` for a
    /// drop at round `t` (graph level).
    ///
    /// # Panics
    ///
    /// Panics if no retry bound is configured.
    pub fn retry_delay(&self, t: u64, src: usize, dst: usize) -> u64 {
        let bound = self.retry_within.expect("retry bound configured");
        1 + self.raw(SALT_DELAY, t, src, dst) % bound
    }

    fn raw(&self, salt: u64, t: u64, src: usize, dst: usize) -> u64 {
        let mut h = self.seed ^ salt;
        for w in [t, src as u64, dst as u64] {
            h = splitmix_finalize(h.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(w));
        }
        h
    }

    /// A uniform coin in `[0, 1)`, pure in all arguments.
    fn coin(&self, salt: u64, t: u64, src: usize, dst: usize) -> f64 {
        (self.raw(salt, t, src, dst) >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------
// Graph-level faults: FaultyNetwork
// ---------------------------------------------------------------------

/// A [`DynamicGraph`] adversary applying a [`FaultPlan`] *before* the
/// round is communicated — the fail-aware reading of link faults (see
/// the module docs for the contrast with the message-level reading).
///
/// Round `t`'s graph is the inner graph with: every link incident to a
/// crashed agent removed, every link whose drop coin fires removed
/// (unless an earlier drop scheduled its retry for `t`), and every link
/// whose duplication coin fires doubled. Self-loops always survive, and
/// [`Digraph::with_self_loops`] closure is applied last — the same
/// invariant-preserving shape as [`crate::adversary::AsyncStarts`].
#[derive(Clone, Debug)]
pub struct FaultyNetwork<G> {
    inner: G,
    plan: FaultPlan,
}

impl<G: DynamicGraph> FaultyNetwork<G> {
    /// Wrap `inner` with a fault script.
    ///
    /// # Panics
    ///
    /// Panics if the plan crashes an agent outside `0..inner.n()`.
    pub fn new(inner: G, plan: FaultPlan) -> FaultyNetwork<G> {
        for w in plan.crashes() {
            assert!(
                w.agent < inner.n(),
                "crash window names agent {} but the network has {} agents",
                w.agent,
                inner.n()
            );
        }
        FaultyNetwork { inner, plan }
    }

    /// The fault script.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped fault-free network.
    pub fn inner(&self) -> &G {
        &self.inner
    }
}

impl<G: DynamicGraph> DynamicGraph for FaultyNetwork<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph(&self, t: u64) -> Digraph {
        let g = self.inner.graph(t);
        let mut out = Digraph::new(g.n());
        for e in g.edges() {
            if e.src == e.dst {
                // Self-loops always survive, even on crashed agents.
                out.add_edge_with_port(e.src, e.dst, e.port);
                continue;
            }
            if self.plan.is_crashed(e.src, t) || self.plan.is_crashed(e.dst, t) {
                continue;
            }
            if self.plan.link_blocked(t, e.src, e.dst) {
                continue;
            }
            out.add_edge_with_port(e.src, e.dst, e.port);
            if self.plan.duplicates(t, e.src, e.dst) {
                out.add_edge_with_port(e.src, e.dst, e.port);
            }
        }
        out.with_self_loops()
    }

    fn diameter_hint(&self) -> Option<usize> {
        // Probabilistic drops and crash windows void any a-priori bound;
        // only the identity plan (possibly with duplication, which never
        // lengthens paths) can forward the inner hint.
        if self.plan.drop_p == 0.0 && self.plan.crashes.is_empty() {
            self.inner.diameter_hint()
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Message-level faults
// ---------------------------------------------------------------------

/// Counters of faults actually injected by an
/// [`Execution`](crate::Execution) running under a [`FaultPlan`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvents {
    /// Messages dropped in flight.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages bounced because their recipient was crashed.
    pub bounced_to_crashed: u64,
    /// Rounds during which at least one agent was crashed.
    pub crashed_rounds: u64,
    /// The last round at which any fault occurred (0 = none yet).
    pub last_fault_round: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Broadcast, BroadcastAlgorithm};
    use crate::metric::DiscreteMetric;
    use crate::report::CellReport;
    use crate::{Execution, RunConfig};
    use kya_graph::{generators, StaticGraph};

    /// Max-flood gossip, used as a fault-oblivious probe.
    #[derive(Clone)]
    struct MaxFlood;
    impl BroadcastAlgorithm for MaxFlood {
        type State = u32;
        type Msg = u32;
        type Output = u32;
        fn message(&self, state: &u32) -> u32 {
            *state
        }
        fn transition(&self, state: &u32, inbox: &[u32]) -> u32 {
            inbox.iter().copied().max().unwrap_or(0).max(*state)
        }
        fn output(&self, state: &u32) -> u32 {
            *state
        }
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::new(7)
            .drop_links(0.25)
            .duplicate(0.5)
            .retry_within(3)
            .until(50)
            .crash(1, 5..9)
            .crash_stop(2, 20);
        let json = serde::to_json_string(&plan);
        let back: FaultPlan = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, plan);
    }

    #[test]
    fn coins_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1).drop_links(0.5);
        let b = FaultPlan::new(1).drop_links(0.5);
        let c = FaultPlan::new(2).drop_links(0.5);
        let pattern = |p: &FaultPlan| -> Vec<bool> {
            (1..200u64)
                .flat_map(|t| (0..4).map(move |s| (t, s)))
                .map(|(t, s)| p.drops(t, s, (s + 1) % 4))
                .collect()
        };
        assert_eq!(pattern(&a), pattern(&b), "same seed, same pattern");
        assert_ne!(pattern(&a), pattern(&c), "different seed differs");
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let plan = FaultPlan::new(99).drop_links(0.3);
        let total = 10_000;
        let dropped = (1..=total).filter(|&t| plan.drops(t, 0, 1)).count() as f64;
        let rate = dropped / total as f64;
        assert!((rate - 0.3).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn horizon_silences_link_faults() {
        let plan = FaultPlan::new(8).drop_links(0.9).duplicate(0.9).until(25);
        assert!(
            (1..=25u64).any(|t| plan.drops(t, 0, 1)),
            "0.9 drop rate fires before the horizon"
        );
        for t in 26..200u64 {
            assert!(!plan.drops(t, 0, 1));
            assert!(!plan.duplicates(t, 0, 1));
        }
    }

    #[test]
    fn self_loops_never_drop() {
        let plan = FaultPlan::new(3).drop_links(0.99).duplicate(0.99);
        for t in 1..100 {
            assert!(!plan.drops(t, 2, 2));
            assert!(!plan.duplicates(t, 2, 2));
        }
    }

    #[test]
    fn quiescent_plan_is_identity_adversary() {
        let inner = StaticGraph::new(generators::random_strongly_connected(6, 4, 5));
        let faulty = FaultyNetwork::new(
            StaticGraph::new(generators::random_strongly_connected(6, 4, 5)),
            FaultPlan::new(0),
        );
        for t in 1..20 {
            let a = inner.graph(t).with_self_loops();
            let b = faulty.graph(t);
            assert_eq!(
                a.multiplicity_matrix(),
                b.multiplicity_matrix(),
                "round {t}"
            );
        }
        assert_eq!(faulty.diameter_hint(), inner.diameter_hint());
    }

    #[test]
    fn crashed_agent_keeps_only_self_loop() {
        let net = FaultyNetwork::new(
            StaticGraph::new(generators::complete(4)),
            FaultPlan::new(0).crash(2, 3..6),
        );
        let g = net.graph(4);
        assert!(g.has_self_loop(2));
        assert_eq!(g.outdegree(2), 1, "only the self-loop");
        assert_eq!(g.indegree(2), 1, "only the self-loop");
        // Outside the window the agent is fully restored.
        let g7 = net.graph(7);
        assert_eq!(g7.outdegree(2), 4);
    }

    #[test]
    fn retry_redelivers_within_bound() {
        let bound = 4;
        let plan = FaultPlan::new(11).drop_links(0.4).retry_within(bound);
        let net = FaultyNetwork::new(StaticGraph::new(generators::directed_ring(5)), plan.clone());
        for t in 1..200u64 {
            if plan.drops(t, 0, 1) {
                let redelivery = t + plan.retry_delay(t, 0, 1);
                assert!(redelivery <= t + bound);
                let g = net.graph(redelivery);
                assert!(
                    g.multiplicity(0, 1) >= 1,
                    "drop at {t} not redelivered at {redelivery}"
                );
            }
        }
    }

    #[test]
    fn duplication_doubles_the_edge() {
        let plan = FaultPlan::new(21).duplicate(0.9);
        let net = FaultyNetwork::new(StaticGraph::new(generators::directed_ring(3)), plan.clone());
        let mut saw_double = false;
        for t in 1..50 {
            let g = net.graph(t);
            for (src, dst) in [(0usize, 1usize), (1, 2), (2, 0)] {
                let expect = if plan.duplicates(t, src, dst) { 2 } else { 1 };
                assert_eq!(g.multiplicity(src, dst), expect);
                saw_double |= expect == 2;
            }
        }
        assert!(saw_double, "0.9 duplication never fired in 50 rounds");
    }

    #[test]
    fn crashed_agents_are_frozen() {
        // Agent 1 crashes before the flood reaches it and recovers
        // later: while frozen its state must not change.
        let g = generators::directed_ring(4).with_self_loops();
        let plan = FaultPlan::new(0).crash(1, 1..6);
        let mut exec = Execution::new(Broadcast(MaxFlood), vec![9, 0, 0, 0]).faults(plan);
        for _ in 0..5 {
            exec.step(&g);
            assert_eq!(exec.states()[1], 0, "frozen during the window");
        }
        // After recovery the flood proceeds.
        for _ in 0..8 {
            exec.step(&g);
        }
        assert!(exec.outputs().iter().all(|&x| x == 9));
        assert!(exec.events().crashed_rounds >= 5);
        assert!(exec.events().bounced_to_crashed > 0);
    }

    #[test]
    fn default_reabsorb_discards_bounces() {
        // MaxFlood keeps the default `reabsorb`: the bounced message is
        // simply gone.
        let g = generators::directed_ring(2).with_self_loops();
        let plan = FaultPlan::new(0).crash_stop(1, 1);
        let mut exec = Execution::new(Broadcast(MaxFlood), vec![5, 1]).faults(plan);
        exec.step(&g);
        assert_eq!(exec.states(), &[5, 1], "bounce discarded, states stable");
    }

    #[test]
    fn recovery_report_on_crash_recover() {
        // Flood a 4-ring; agent 1 is down for rounds 1..4, so the flood
        // completes only after it recovers.
        let net = StaticGraph::new(generators::directed_ring(4));
        let plan = FaultPlan::new(0).crash(1, 1..4);
        let mut exec = Execution::new(Broadcast(MaxFlood), vec![9, 0, 0, 0]).faults(plan);
        let report = exec.drive(
            &net,
            RunConfig::rounds(20).measure(&DiscreteMetric, &9u32, 0.0),
        );
        assert_eq!(report.last_fault_round, 3);
        assert_eq!(report.max_divergence_during_faults, 1.0);
        let recovered = report.converged_at.expect("flood completes");
        assert!(recovered > 3 && recovered <= 10, "recovered at {recovered}");
        assert_eq!(
            report.convergence_rounds,
            Some(recovered - 3),
            "measured from the last fault"
        );
        assert_eq!(*report.distances.last().unwrap(), 0.0);
        assert_eq!(report.final_distance, 0.0);
        assert_eq!(report.rounds_run, 20);
    }

    #[test]
    fn recovery_report_serializes() {
        let net = StaticGraph::new(generators::complete(3));
        let plan = FaultPlan::new(5).drop_links(0.2);
        let mut exec = Execution::new(Broadcast(MaxFlood), vec![1, 2, 3]).faults(plan);
        let report = exec.drive(
            &net,
            RunConfig::rounds(10).measure(&DiscreteMetric, &3u32, 0.0),
        );
        let json = serde::to_json_string(&report);
        let back: CellReport = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, report);
    }
}

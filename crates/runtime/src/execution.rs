//! The round-by-round executor.

use crate::algorithm::Algorithm;
use crate::churn::{Membership, ReinjectPolicy};
use crate::config::RunConfig;
use crate::faults::{FaultEvents, FaultPlan};
use crate::metric::Metric;
use crate::report::{CellReport, Measure, Seal};
use crate::shard::{map_agents, shard_ranges};
use crate::telemetry::{NullObserver, Observer};
use kya_graph::{Digraph, DynamicGraph};

/// An execution of an [`Algorithm`] on a network: the sequence of global
/// states `C^0, C^1, ...` of §2.2, advanced one communication-closed round
/// at a time.
///
/// The executor is model-agnostic: the communication-model discipline is
/// in the algorithm's type (see [`crate::Broadcast`] /
/// [`crate::Isotropic`]). Port assignment within a round uses the graph's
/// port labels when present (sorted by label) and edge insertion order
/// otherwise, so port-aware algorithms require port-colored static
/// graphs to be meaningful — exactly the paper's proviso (§2.2).
///
/// Message loss changes only what a round delivers: attach a
/// [`FaultPlan`] with [`Execution::faults`] and every round applies its
/// crash, drop and duplication coins in flight (see [`crate::faults`]).
#[derive(Clone, Debug)]
pub struct Execution<A: Algorithm> {
    algo: A,
    states: Vec<A::State>,
    round: u64,
    plan: Option<FaultPlan>,
    events: FaultEvents,
}

impl<A: Algorithm> Execution<A> {
    /// Start an execution from the given initial states (one per agent).
    pub fn new(algo: A, initial_states: Vec<A::State>) -> Execution<A> {
        Execution {
            algo,
            states: initial_states,
            round: 0,
            plan: None,
            events: FaultEvents::default(),
        }
    }

    /// Deliver every round under `plan`, the **message-level** reading
    /// of link faults: senders compute their messages against the
    /// scripted graph, and the plan decides what arrives. Per round `t`:
    ///
    /// 1. A **crashed** agent (per the plan's windows) sends nothing and
    ///    keeps its state frozen — it resumes from that state if its
    ///    window ends (crash-recover) or never (crash-stop).
    /// 2. Every live agent sends as usual. Each non-self-loop message is
    ///    then bounced if its recipient is crashed, else dropped with the
    ///    plan's drop rate, else delivered twice with its duplication
    ///    rate. Self-loop messages always deliver.
    /// 3. Live agents transition on what actually arrived, then
    ///    [`Algorithm::reabsorb`] their dropped and bounced messages.
    ///
    /// The coins are the same pure functions
    /// [`FaultyNetwork`](crate::faults::FaultyNetwork) uses, so one plan
    /// describes one fault pattern at either layer. Surviving messages
    /// keep the canonical delivery order (see [`Execution::step`]), so
    /// a quiescent plan is bit-identical to no plan.
    ///
    /// # Panics
    ///
    /// Panics if a crash window names an agent outside `0..n()`.
    pub fn faults(mut self, plan: FaultPlan) -> Execution<A> {
        for w in plan.crashes() {
            assert!(
                w.agent < self.states.len(),
                "crash window names agent {} but there are {} agents",
                w.agent,
                self.states.len()
            );
        }
        self.plan = Some(plan);
        self
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.states.len()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current states, indexed by agent.
    pub fn states(&self) -> &[A::State] {
        &self.states
    }

    /// Current outputs, indexed by agent.
    pub fn outputs(&self) -> Vec<A::Output> {
        self.states.iter().map(|s| self.algo.output(s)).collect()
    }

    /// The algorithm being executed.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// Counters of the faults the plan has injected so far (all zero
    /// without a plan).
    pub fn events(&self) -> &FaultEvents {
        &self.events
    }

    /// Execute one round on the given communication graph.
    ///
    /// The graph must have `n()` vertices and a self-loop at every vertex
    /// (§2.1); [`Digraph::with_self_loops`] provides the closure.
    ///
    /// **Delivery order contract:** every inbox is delivered in ascending
    /// `(source id, port rank)` order, where the port rank of an edge is
    /// its index in the source's `(port label, edge id)`-sorted out-edge
    /// list. Algorithms must treat the inbox as a multiset, but f64
    /// summation is order-sensitive, so every execution path — `step`,
    /// [`Execution::step_parallel`], faulted or not — pins this one
    /// order to keep float runs bit-identical across paths (conformance
    /// check `paths`, `kya check`).
    ///
    /// # Panics
    ///
    /// Panics if the vertex count mismatches, a self-loop is missing, or
    /// the algorithm returns the wrong number of port messages.
    pub fn step(&mut self, graph: &Digraph) {
        self.route_round(graph, &Inline, &mut NullObserver);
    }

    /// Like [`Execution::step`], with an [`Observer`] seeing the round
    /// boundaries, every delivered message (in the deterministic routing
    /// order; twice for a duplicated one) and every message a fault plan
    /// kept from its recipient (`on_message_dropped`).
    ///
    /// # Panics
    ///
    /// Same contract as [`Execution::step`].
    pub fn step_observed<O: Observer<A>>(&mut self, graph: &Digraph, obs: &mut O) {
        self.route_round(graph, &Inline, obs);
    }

    /// Execute one configured run (see [`RunConfig`] for the knobs).
    ///
    /// Per round: apply the membership's rejoin policy (if churned),
    /// fetch the round's graph, step — sequentially or sharded over
    /// `cfg.threads` contiguous agent ranges, observed or not, under the
    /// fault plan if one is attached — and, if measuring, record the
    /// round's distance. Convergence at tolerance ε is judged post hoc
    /// over the whole trace (§2.3): the full budget is executed unless a
    /// [`RunConfig::confirm`] window closes early or an output goes
    /// non-finite (no later round can converge, so the run ends at once
    /// with [`CellReport::diverged_at`] set).
    ///
    /// The report's `last_fault_round` is the later of the last fault
    /// the plan injected during the run and — when a
    /// [`membership`](RunConfig::membership) is attached — the last
    /// membership transition inside the budget, so `converged_at` only
    /// reports recovery after both scripts went quiet. Its `events` are
    /// the fault counters' delta over this run.
    ///
    /// Non-consuming: the execution can be driven again afterwards; a
    /// second call measures from the current round. For unmeasured
    /// configs the report carries only `rounds_run`.
    ///
    /// # Panics
    ///
    /// Same per-round contract as [`Execution::step`]; additionally
    /// panics if `cfg.threads == 0`.
    pub fn drive(&mut self, net: &dyn DynamicGraph, cfg: RunConfig<'_, A>) -> CellReport
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        assert!(cfg.threads > 0, "at least one worker thread");
        let RunConfig {
            rounds,
            threads,
            mut observer,
            membership,
            dist,
            eps,
            confirm,
            invariant,
            bandwidth,
        } = cfg;
        let start = self.round;
        let before = self.events;
        let measure = Measure {
            rounds,
            dist,
            eps,
            confirm,
        };
        let step = |exec: &mut Self| {
            if let Some((membership, reinit)) = membership {
                exec.apply_rejoins(membership, reinit);
            }
            let g = net.graph_ref(exec.round + 1);
            if let Some((cap, ledger)) = bandwidth {
                ledger.charge_round(g.edge_count() as u64, cap.bits_per_edge());
            }
            match (&mut observer, threads) {
                (Some(o), t) => exec.route_round(&g, &Sharded(t), o),
                (None, 1) => exec.step(&g),
                (None, t) => exec.step_parallel(&g, t),
            }
        };
        let seal = |exec: &Self| {
            // Only rounds inside this run count; a membership transition
            // beyond the budget is clamped to the final round, which
            // leaves the trace unconverged — the honest verdict.
            let since_start = |r: u64| if r > start { r } else { 0 };
            let faults = since_start(exec.events.last_fault_round);
            let churn = membership.map_or(0, |(m, _)| since_start(m.last_transition()));
            Seal {
                last_fault_round: faults.max(churn.min(exec.round)),
                events: FaultEvents {
                    dropped: exec.events.dropped - before.dropped,
                    duplicated: exec.events.duplicated - before.duplicated,
                    bounced_to_crashed: exec.events.bounced_to_crashed - before.bounced_to_crashed,
                    crashed_rounds: exec.events.crashed_rounds - before.crashed_rounds,
                    last_fault_round: exec.events.last_fault_round,
                },
                mass: invariant.map(|f| f(&exec.states)),
            }
        };
        let report = measure.run(self, start, step, Self::outputs, seal);
        if let (Some(obs), Some(round)) = (observer.as_mut(), report.converged_at) {
            obs.on_converged(round, report.final_distance);
        }
        report
    }

    /// Apply the membership's rejoin transitions for the **upcoming**
    /// round (`round() + 1`): under [`ReinjectPolicy::Reset`], every
    /// agent rejoining at that round has its parked state replaced by
    /// `reinit(agent, &parked)`; under [`ReinjectPolicy::Carry`] states
    /// are untouched. Returns the rejoining agents either way.
    ///
    /// `reinit` receives the parked state so callers can account the
    /// mass delta `fresh − parked` explicitly (the F8 ledger) — e.g. by
    /// accumulating into a `std::cell::Cell` captured by the closure.
    ///
    /// Call this immediately before stepping on the round's graph;
    /// [`Execution::drive`] does so for every round it runs when the
    /// config carries a [`membership`](RunConfig::membership).
    pub fn apply_rejoins(
        &mut self,
        membership: &Membership,
        reinit: &dyn Fn(usize, &A::State) -> A::State,
    ) -> Vec<usize> {
        let rejoining = membership.rejoining_at(self.round + 1);
        if membership.policy() == ReinjectPolicy::Reset {
            for &v in &rejoining {
                self.states[v] = reinit(v, &self.states[v]);
            }
        }
        rejoining
    }

    /// Like [`Execution::step`], but computes sends and transitions
    /// sharded over `threads` contiguous agent ranges.
    ///
    /// Bit-identical to `step` — the round is communication closed, so
    /// per-agent work is embarrassingly parallel. Routing is the same
    /// sequential pass as in [`Execution::step`]: it delivers in the
    /// canonical ascending `(source id, port rank)` order and tosses a
    /// fault plan's coins in that order, so f64 runs and fault events
    /// match the sequential path bitwise. Each sharded phase spawns
    /// threads only if every shard holds at least
    /// [`crate::MIN_SPAWN_AGENTS`] agents, and then the calling thread
    /// works the first shard; otherwise the phase's shards run in order
    /// on the calling thread.
    ///
    /// # Panics
    ///
    /// Same contract as [`Execution::step`]; additionally panics if
    /// `threads == 0`.
    pub fn step_parallel(&mut self, graph: &Digraph, threads: usize)
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        self.route_round(graph, &Sharded(threads), &mut NullObserver);
    }

    /// Like [`Execution::step_parallel`], with an [`Observer`].
    ///
    /// The observer runs on the calling thread and sees the **same event
    /// stream** as [`Execution::step_observed`]: sends and transitions
    /// are sharded, but routing — observer callbacks and fault coins —
    /// is one sequential pass in the sequential executor's order.
    /// `tests/parallel_equivalence.rs` pins this for every algorithm in
    /// `kya_algos`.
    ///
    /// # Panics
    ///
    /// Same contract as [`Execution::step_parallel`].
    pub fn step_parallel_observed<O: Observer<A>>(
        &mut self,
        graph: &Digraph,
        threads: usize,
        obs: &mut O,
    ) where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        self.route_round(graph, &Sharded(threads), obs);
    }

    /// The one round body of every step. Sends run under
    /// `schedule`; then one routing pass in the canonical `(source id,
    /// port rank)` order tosses the fault plan's coins, feeds the
    /// observer and fills the inboxes; then transitions (with
    /// [`Algorithm::reabsorb`] of lost messages) run under `schedule`.
    fn route_round<S: Schedule<A>, O: Observer<A>>(
        &mut self,
        graph: &Digraph,
        schedule: &S,
        obs: &mut O,
    ) {
        assert_eq!(graph.n(), self.states.len(), "graph size != agent count");
        self.round += 1;
        let t = self.round;
        let n = graph.n();
        let frozen: Vec<bool> = match &self.plan {
            Some(plan) => (0..n).map(|v| plan.is_crashed(v, t)).collect(),
            None => Vec::new(),
        };
        if frozen.contains(&true) {
            self.events.crashed_rounds += 1;
            self.events.last_fault_round = t;
        }
        obs.on_round_start(t, &self.states);
        let cx = RoundCtx::new(&self.algo, graph, t, frozen);

        let mut inboxes: Vec<Vec<A::Msg>> = (0..n)
            .map(|v| Vec::with_capacity(graph.indegree(v)))
            .collect();
        let mut lost: Vec<Vec<A::Msg>> = match &self.plan {
            Some(_) => (0..n).map(|_| Vec::new()).collect(),
            None => Vec::new(),
        };
        let order = graph.port_ranks();
        for (v, msgs) in schedule.sends(&cx, &self.states).enumerate() {
            for (msg, &e) in msgs.into_iter().zip(order.out_edges_ranked(v)) {
                let dst = graph.edges()[e].dst;
                if let Some(plan) = self.plan.as_ref().filter(|_| dst != v) {
                    let fault = if cx.is_frozen(dst) {
                        Some(&mut self.events.bounced_to_crashed)
                    } else if plan.drops(t, v, dst) {
                        Some(&mut self.events.dropped)
                    } else {
                        None
                    };
                    if let Some(count) = fault {
                        *count += 1;
                        self.events.last_fault_round = t;
                        obs.on_message_dropped(t, v, dst, &msg);
                        lost[v].push(msg);
                        continue;
                    }
                    if plan.duplicates(t, v, dst) {
                        self.events.duplicated += 1;
                        self.events.last_fault_round = t;
                        obs.on_message(t, v, dst, &msg);
                        inboxes[dst].push(msg.clone());
                    }
                }
                obs.on_message(t, v, dst, &msg);
                inboxes[dst].push(msg);
            }
        }

        schedule.transitions(&cx, &mut self.states, inboxes, &lost);
        obs.on_round_end(t, &self.algo, &self.states);
    }

    /// Run for up to `max_rounds` rounds against per-agent targets: the
    /// measured distance of a round is `max_i δ(output_i, targets[i])`,
    /// and ε-convergence is judged as in [`Execution::drive`]. This is
    /// the primitive behind [`crate::testing::check_self_stabilization`].
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != n()`.
    pub fn run_until_targets<M: Metric<A::Output>>(
        &mut self,
        net: &dyn DynamicGraph,
        metric: &M,
        targets: &[A::Output],
        eps: f64,
        max_rounds: u64,
    ) -> CellReport
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        assert_eq!(targets.len(), self.n(), "one target per agent");
        let dist = |outputs: &[A::Output]| {
            outputs
                .iter()
                .zip(targets)
                .map(|(o, t)| {
                    let d = metric.distance(o, t);
                    if d.is_finite() {
                        d
                    } else {
                        f64::INFINITY
                    }
                })
                .fold(0.0, f64::max)
        };
        self.drive(net, RunConfig::rounds(max_rounds).measure_with(dist, eps))
    }
}

/// One round's read-only inputs: what the per-agent send and transition
/// work of every schedule reads besides the agent's own state.
struct RoundCtx<'r, A: Algorithm> {
    algo: &'r A,
    graph: &'r Digraph,
    round: u64,
    /// Crashed agents this round; empty without a fault plan.
    frozen: Vec<bool>,
}

impl<'r, A: Algorithm> RoundCtx<'r, A> {
    /// The context of round `round` on `graph`, after checking the
    /// self-loop closure of §2.1.
    fn new(algo: &'r A, graph: &'r Digraph, round: u64, frozen: Vec<bool>) -> Self {
        if !graph.is_self_loop_closed() {
            for v in 0..graph.n() {
                assert!(
                    graph.has_self_loop(v),
                    "round {round}: vertex {v} lacks a self-loop"
                );
            }
        }
        RoundCtx {
            algo,
            graph,
            round,
            frozen,
        }
    }

    fn is_frozen(&self, v: usize) -> bool {
        self.frozen.get(v).copied().unwrap_or(false)
    }

    /// Agent `v`'s messages, checked to be one per output port; none
    /// from a crashed agent.
    fn send(&self, v: usize, state: &A::State) -> Vec<A::Msg> {
        if self.is_frozen(v) {
            return Vec::new();
        }
        let outdeg = self.graph.outdegree(v);
        let msgs = self.algo.send(state, outdeg);
        assert_eq!(
            msgs.len(),
            outdeg,
            "round {}: wrong message count from agent {v}",
            self.round
        );
        msgs
    }

    /// Agent `v`'s next state from its inbox and its entry of `lost`
    /// (which is empty without a fault plan); `None` for a crashed
    /// agent, whose state stays as it is.
    fn transition(
        &self,
        v: usize,
        state: &A::State,
        inbox: &[A::Msg],
        lost: &[Vec<A::Msg>],
    ) -> Option<A::State> {
        if self.is_frozen(v) {
            return None;
        }
        let next = self
            .algo
            .transition_with_outdegree(state, self.graph.outdegree(v), inbox);
        match lost.get(v) {
            Some(lost) if !lost.is_empty() => Some(self.algo.reabsorb(&next, lost)),
            _ => Some(next),
        }
    }
}

/// Where a round's per-agent send and transition phases run. A trait
/// rather than a thread count so that [`Execution::step`] needs no
/// `Send`/`Sync` bounds: [`Inline`] runs every agent on the calling
/// thread, [`Sharded`] over contiguous agent ranges.
trait Schedule<A: Algorithm> {
    /// Every agent's messages, in agent order.
    fn sends<'s>(
        &'s self,
        cx: &'s RoundCtx<'s, A>,
        states: &'s [A::State],
    ) -> impl Iterator<Item = Vec<A::Msg>> + 's;

    /// Replace every live agent's state by its transition.
    fn transitions(
        &self,
        cx: &RoundCtx<'_, A>,
        states: &mut Vec<A::State>,
        inboxes: Vec<Vec<A::Msg>>,
        lost: &[Vec<A::Msg>],
    );
}

/// Every agent on the calling thread, in agent order. Sends are
/// produced as the routing pass consumes them, and each inbox is
/// dropped as soon as its agent has transitioned in place.
struct Inline;

impl<A: Algorithm> Schedule<A> for Inline {
    fn sends<'s>(
        &'s self,
        cx: &'s RoundCtx<'s, A>,
        states: &'s [A::State],
    ) -> impl Iterator<Item = Vec<A::Msg>> + 's {
        states.iter().enumerate().map(|(v, s)| cx.send(v, s))
    }

    fn transitions(
        &self,
        cx: &RoundCtx<'_, A>,
        states: &mut Vec<A::State>,
        inboxes: Vec<Vec<A::Msg>>,
        lost: &[Vec<A::Msg>],
    ) {
        for (v, inbox) in inboxes.into_iter().enumerate() {
            if let Some(next) = cx.transition(v, &states[v], &inbox, lost) {
                states[v] = next;
            }
        }
    }
}

/// Contiguous agent ranges, one per thread, under the spawn rule of
/// [`map_agents`].
struct Sharded(usize);

impl Sharded {
    fn ranges(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        assert!(self.0 > 0, "at least one worker thread");
        shard_ranges(n, self.0)
    }
}

impl<A> Schedule<A> for Sharded
where
    A: Algorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
{
    fn sends<'s>(
        &'s self,
        cx: &'s RoundCtx<'s, A>,
        states: &'s [A::State],
    ) -> impl Iterator<Item = Vec<A::Msg>> + 's {
        map_agents(&self.ranges(states.len()), |v| cx.send(v, &states[v])).into_iter()
    }

    fn transitions(
        &self,
        cx: &RoundCtx<'_, A>,
        states: &mut Vec<A::State>,
        inboxes: Vec<Vec<A::Msg>>,
        lost: &[Vec<A::Msg>],
    ) {
        let current = &states[..];
        let next = map_agents(&self.ranges(current.len()), |v| {
            cx.transition(v, &current[v], &inboxes[v], lost)
                .unwrap_or_else(|| current[v].clone())
        });
        *states = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Broadcast, BroadcastAlgorithm};
    use kya_graph::{generators, StaticGraph};

    /// Gossip the set of seen values; output the set's maximum.
    #[derive(Clone)]
    struct SetGossip;
    impl BroadcastAlgorithm for SetGossip {
        type State = Vec<u32>; // sorted set
        type Msg = Vec<u32>;
        type Output = u32;
        fn message(&self, state: &Vec<u32>) -> Vec<u32> {
            state.clone()
        }
        fn transition(&self, state: &Vec<u32>, inbox: &[Vec<u32>]) -> Vec<u32> {
            let mut merged = state.clone();
            for m in inbox {
                merged.extend_from_slice(m);
            }
            merged.sort_unstable();
            merged.dedup();
            merged
        }
        fn output(&self, state: &Vec<u32>) -> u32 {
            *state.last().expect("non-empty set")
        }
    }

    #[test]
    fn gossip_floods_in_diameter_rounds() {
        let net = StaticGraph::new(generators::directed_ring(6));
        let inits: Vec<Vec<u32>> = [3, 9, 2, 9, 1, 4].iter().map(|&v| vec![v]).collect();
        let mut exec = Execution::new(Broadcast(SetGossip), inits);
        exec.drive(&net, RunConfig::rounds(5));
        assert!(exec.outputs().iter().all(|&x| x == 9));
        // All agents hold the full set.
        assert!(exec.states().iter().all(|s| s == &vec![1, 2, 3, 4, 9]));
    }

    #[test]
    fn run_until_measures_convergence() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(6));
        let inits: Vec<Vec<u32>> = (0..6).map(|v| vec![v]).collect();
        let mut exec = Execution::new(Broadcast(SetGossip), inits);
        let report = exec.drive(
            &net,
            RunConfig::rounds(20).measure(&DiscreteMetric, &5u32, 0.0),
        );
        // The max floods the ring in diameter = 5 rounds.
        assert_eq!(report.converged_at, Some(5));
        assert_eq!(report.convergence_rounds, Some(5));
        assert_eq!(report.rounds_run, 20, "full budget is executed");
        assert_eq!(report.final_distance, 0.0);
        assert_eq!(exec.round(), 20, "non-consuming: execution advanced");
    }

    #[test]
    fn confirm_window_stops_early() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(6));
        let inits: Vec<Vec<u32>> = (0..6).map(|v| vec![v]).collect();
        let mut exec = Execution::new(Broadcast(SetGossip), inits);
        let report = exec.drive(
            &net,
            RunConfig::rounds(10_000)
                .measure(&DiscreteMetric, &5u32, 0.0)
                .confirm(3),
        );
        assert_eq!(report.converged_at, Some(5));
        assert_eq!(report.rounds_run, 8, "5 to converge + 3 to confirm");
        assert_eq!(exec.round(), 8);
    }

    #[test]
    fn run_until_resumes_from_current_round() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(6));
        let inits: Vec<Vec<u32>> = (0..6).map(|v| vec![v]).collect();
        let mut exec = Execution::new(Broadcast(SetGossip), inits);
        exec.drive(&net, RunConfig::rounds(2));
        let report = exec.drive(
            &net,
            RunConfig::rounds(10).measure(&DiscreteMetric, &5u32, 0.0),
        );
        // Rounds are absolute: convergence still lands at round 5, but
        // only 3 of this call's rounds were needed.
        assert_eq!(report.converged_at, Some(5));
        assert_eq!(report.convergence_rounds, Some(3));
        assert_eq!(report.rounds_run, 10);
    }

    #[test]
    fn run_until_targets_checks_per_agent() {
        use crate::metric::DiscreteMetric;
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
        let targets = [7u32, 8, 9];
        let report = exec.run_until_targets(&net, &DiscreteMetric, &targets, 0.0, 5);
        assert_eq!(report.converged_at, Some(1));
        // A wrong per-agent target never converges.
        let mut exec = Execution::new(Broadcast(Keep), vec![7, 8, 9]);
        let report = exec.run_until_targets(&net, &DiscreteMetric, &[7, 8, 0], 0.0, 5);
        assert_eq!(report.converged_at, None);
    }

    #[test]
    #[should_panic(expected = "one target per agent")]
    fn run_until_targets_rejects_wrong_arity() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(Broadcast(SetGossip), vec![vec![1], vec![2], vec![3]]);
        let _ = exec.run_until_targets(&net, &DiscreteMetric, &[1u32], 0.0, 5);
    }

    /// Frozen states: each agent keeps its value forever.
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

    #[test]
    fn run_until_with_zero_budget_reports_nothing() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(Broadcast(Keep), vec![5, 5, 5]);
        let report = exec.drive(
            &net,
            RunConfig::rounds(0).measure(&DiscreteMetric, &5u32, 0.0),
        );
        // Zero rounds: nothing measured, so nothing converged — even
        // though the initial states already sit on the target.
        assert_eq!(report.rounds_run, 0);
        assert_eq!(report.converged_at, None);
        assert_eq!(report.final_distance, 0.0, "empty trace defaults to 0");
        assert!(report.distances.is_empty());
        assert_eq!(exec.round(), 0, "no rounds executed");
        // The early-exit variant behaves identically at budget 0.
        let report = exec.drive(
            &net,
            RunConfig::rounds(0)
                .measure(&DiscreteMetric, &5u32, 0.0)
                .confirm(3),
        );
        assert_eq!(report.rounds_run, 0);
        assert_eq!(report.converged_at, None);
    }

    #[test]
    fn run_until_on_already_converged_states_reports_round_one() {
        use crate::metric::{DiscreteMetric, EuclideanMetric};
        // Outputs sit on the target from the start; convergence is still
        // dated to the end of round 1, the first *measured* round.
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(Broadcast(Keep), vec![5, 5, 5]);
        let report = exec.drive(
            &net,
            RunConfig::rounds(4).measure(&DiscreteMetric, &5u32, 0.0),
        );
        assert_eq!(report.converged_at, Some(1));
        assert_eq!(report.convergence_rounds, Some(1));
        assert_eq!(report.rounds_run, 4);
        assert!(report.distances.iter().all(|&d| d == 0.0));
        // Same under a continuous metric on f64 outputs.
        struct KeepF;
        impl BroadcastAlgorithm for KeepF {
            type State = f64;
            type Msg = ();
            type Output = f64;
            fn message(&self, _: &f64) {}
            fn transition(&self, s: &f64, _: &[()]) -> f64 {
                *s
            }
            fn output(&self, s: &f64) -> f64 {
                *s
            }
        }
        let mut exec = Execution::new(Broadcast(KeepF), vec![2.5, 2.5, 2.5]);
        let report = exec.drive(
            &net,
            RunConfig::rounds(4).measure(&EuclideanMetric, &2.5, 0.0),
        );
        assert_eq!(report.converged_at, Some(1));
        // A confirm window stops right after it closes.
        let mut exec = Execution::new(Broadcast(Keep), vec![5, 5, 5]);
        let report = exec.drive(
            &net,
            RunConfig::rounds(1000)
                .measure(&DiscreteMetric, &5u32, 0.0)
                .confirm(2),
        );
        assert_eq!(report.converged_at, Some(1));
        assert_eq!(report.rounds_run, 3, "1 to converge + 2 to confirm");
    }

    #[test]
    fn eps_zero_discrete_vs_euclidean() {
        use crate::metric::{DiscreteMetric, EuclideanMetric};
        struct KeepF;
        impl BroadcastAlgorithm for KeepF {
            type State = f64;
            type Msg = ();
            type Output = f64;
            fn message(&self, _: &f64) {}
            fn transition(&self, s: &f64, _: &[()]) -> f64 {
                *s
            }
            fn output(&self, s: &f64) -> f64 {
                *s
            }
        }
        let net = StaticGraph::new(generators::directed_ring(3));
        // Outputs a hair off the target: the discrete metric says
        // distance 1 and the euclidean metric a tiny positive number —
        // at eps = 0.0 neither ever converges.
        let inits = vec![1.0, 1.0, 1.0 + 1e-12];
        let mut exec = Execution::new(Broadcast(KeepF), inits.clone());
        let report = exec.drive(
            &net,
            RunConfig::rounds(5).measure(&DiscreteMetric, &1.0, 0.0),
        );
        assert_eq!(report.converged_at, None);
        assert_eq!(report.final_distance, 1.0, "discrete: unequal is 1");
        let mut exec = Execution::new(Broadcast(KeepF), inits);
        let report = exec.drive(
            &net,
            RunConfig::rounds(5).measure(&EuclideanMetric, &1.0, 0.0),
        );
        assert_eq!(report.converged_at, None);
        assert!(report.final_distance > 0.0 && report.final_distance < 1e-11);
        // Exactly on target, eps = 0.0 converges under both metrics.
        let mut exec = Execution::new(Broadcast(KeepF), vec![1.0, 1.0, 1.0]);
        assert_eq!(
            exec.drive(
                &net,
                RunConfig::rounds(5).measure(&DiscreteMetric, &1.0, 0.0)
            )
            .converged_at,
            Some(1)
        );
        let mut exec = Execution::new(Broadcast(KeepF), vec![1.0, 1.0, 1.0]);
        assert_eq!(
            exec.drive(
                &net,
                RunConfig::rounds(5).measure(&EuclideanMetric, &1.0, 0.0)
            )
            .converged_at,
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "lacks a self-loop")]
    fn missing_self_loop_rejected() {
        let g = generators::directed_ring(3); // no self-loops
        let mut exec = Execution::new(Broadcast(SetGossip), vec![vec![1], vec![2], vec![3]]);
        exec.step(&g);
    }

    #[test]
    #[should_panic(expected = "graph size")]
    fn size_mismatch_rejected() {
        let g = generators::directed_ring(4).with_self_loops();
        let mut exec = Execution::new(Broadcast(SetGossip), vec![vec![1]]);
        exec.step(&g);
    }

    #[test]
    fn parallel_step_matches_sequential() {
        let g = generators::random_strongly_connected(12, 10, 3).with_self_loops();
        let inits: Vec<Vec<u32>> = (0..12).map(|v| vec![v % 4]).collect();
        let mut seq = Execution::new(Broadcast(SetGossip), inits.clone());
        let mut par = Execution::new(Broadcast(SetGossip), inits);
        for _ in 0..8 {
            seq.step(&g);
            par.step_parallel(&g, 4);
            assert_eq!(seq.states(), par.states());
            assert_eq!(seq.round(), par.round());
        }
    }

    /// Order-sensitive f64 fold: the sum of the inbox, accumulated in
    /// delivery order. Any reordering of the inbox changes the rounding
    /// and hence the bit pattern of the result.
    #[derive(Clone)]
    struct OrderSum;
    impl BroadcastAlgorithm for OrderSum {
        type State = f64;
        type Msg = f64;
        type Output = f64;
        fn message(&self, s: &f64) -> f64 {
            *s
        }
        fn transition(&self, _: &f64, inbox: &[f64]) -> f64 {
            inbox.iter().fold(0.0, |acc, m| acc + m)
        }
        fn output(&self, s: &f64) -> f64 {
            *s
        }
    }

    #[test]
    fn parallel_routing_restores_delivery_order() {
        // In-star built with sources in *descending* order, so the
        // center's in-edge list is the reverse of the canonical
        // ascending-source delivery order; the self-loops come last.
        // step_parallel must deliver in canonical order, or the
        // f64 fold below rounds differently.
        let n = 6;
        let mut g = Digraph::new(n);
        for src in (1..n).rev() {
            g.add_edge(src, 0);
        }
        let g = g.with_self_loops();
        // Magnitudes spread far enough that every permutation of the
        // sum rounds differently.
        let inits = vec![1e16, 3.0, 1e-7, 2.0, 1e7, 1.0];
        let mut seq = Execution::new(Broadcast(OrderSum), inits.clone());
        let mut par = Execution::new(Broadcast(OrderSum), inits);
        for _ in 0..4 {
            seq.step(&g);
            par.step_parallel(&g, 3);
            for (a, b) in seq.states().iter().zip(par.states()) {
                assert_eq!(a.to_bits(), b.to_bits(), "f64 paths diverged bitwise");
            }
        }
    }

    /// Sends one message too few from the last agent: a send-contract
    /// violation that only a spawned shard sees.
    struct ShortLast {
        n: usize,
    }
    impl Algorithm for ShortLast {
        type State = usize;
        type Msg = ();
        type Output = usize;
        fn send(&self, v: &usize, outdegree: usize) -> Vec<()> {
            let short = usize::from(*v == self.n - 1);
            vec![(); outdegree - short]
        }
        fn transition(&self, v: &usize, _: &[()]) -> usize {
            *v
        }
        fn output(&self, v: &usize) -> usize {
            *v
        }
    }

    #[test]
    #[should_panic(expected = "wrong message count")]
    fn spawned_shard_panic_keeps_its_message() {
        let n = 3 * crate::MIN_SPAWN_AGENTS;
        let g = generators::directed_ring(n).with_self_loops();
        let mut exec = Execution::new(ShortLast { n }, (0..n).collect());
        exec.step_parallel(&g, 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn parallel_step_rejects_zero_threads() {
        let g = generators::directed_ring(2).with_self_loops();
        let mut exec = Execution::new(Broadcast(SetGossip), vec![vec![1], vec![2]]);
        exec.step_parallel(&g, 0);
    }

    #[test]
    fn deterministic_replay() {
        let net = StaticGraph::new(generators::random_strongly_connected(8, 6, 11));
        let inits: Vec<Vec<u32>> = (0..8).map(|v| vec![v * 7 % 5]).collect();
        let mut a = Execution::new(Broadcast(SetGossip), inits.clone());
        let mut b = Execution::new(Broadcast(SetGossip), inits);
        a.drive(&net, RunConfig::rounds(10));
        b.drive(&net, RunConfig::rounds(10));
        assert_eq!(a.states(), b.states());
    }
}

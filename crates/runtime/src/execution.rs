//! The round-by-round executor.

use crate::algorithm::Algorithm;
use crate::churn::{Membership, ReinjectPolicy};
use crate::config::RunConfig;
use crate::faults::FaultEvents;
use crate::metric::Metric;
use crate::report::CellReport;
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
#[derive(Clone, Debug)]
pub struct Execution<A: Algorithm> {
    algo: A,
    states: Vec<A::State>,
    round: u64,
}

impl<A: Algorithm> Execution<A> {
    /// Start an execution from the given initial states (one per agent).
    pub fn new(algo: A, initial_states: Vec<A::State>) -> Execution<A> {
        Execution {
            algo,
            states: initial_states,
            round: 0,
        }
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

    /// Execute one round on the given communication graph.
    ///
    /// The graph must have `n()` vertices and a self-loop at every vertex
    /// (§2.1); [`Digraph::with_self_loops`] provides the closure.
    ///
    /// **Delivery order contract:** every inbox is delivered in ascending
    /// `(source id, port rank)` order, where the port rank of an edge is
    /// its index in the source's `(port label, edge id)`-sorted out-edge
    /// list. Algorithms must treat the inbox as a multiset, but f64
    /// summation is order-sensitive, so all execution paths — `step`,
    /// [`Execution::step_parallel`], and `FaultyExecution` — pin this
    /// one order to keep float runs bit-identical across paths
    /// (conformance check `paths`, `kya check`).
    ///
    /// # Panics
    ///
    /// Panics if the vertex count mismatches, a self-loop is missing, or
    /// the algorithm returns the wrong number of port messages.
    pub fn step(&mut self, graph: &Digraph) {
        self.step_observed(graph, &mut NullObserver);
    }

    /// Like [`Execution::step`], with an [`Observer`] seeing the round
    /// boundaries and every delivered message (in the deterministic
    /// routing order).
    ///
    /// # Panics
    ///
    /// Same contract as [`Execution::step`].
    pub fn step_observed<O: Observer<A>>(&mut self, graph: &Digraph, obs: &mut O) {
        assert_eq!(graph.n(), self.states.len(), "graph size != agent count");
        self.round += 1;
        obs.on_round_start(self.round, &self.states);
        let n = graph.n();
        let mut inboxes: Vec<Vec<A::Msg>> = (0..n)
            .map(|v| Vec::with_capacity(graph.indegree(v)))
            .collect();
        for v in 0..n {
            assert!(
                graph.has_self_loop(v),
                "round {}: vertex {v} lacks a self-loop",
                self.round
            );
            let outdeg = graph.outdegree(v);
            let msgs = self.algo.send(&self.states[v], outdeg);
            assert_eq!(
                msgs.len(),
                outdeg,
                "algorithm produced {} messages for outdegree {outdeg}",
                msgs.len()
            );
            // Port discipline: out-edges in (port, edge id) order, from
            // the graph's cached canonical port order.
            for (msg, &e) in msgs.into_iter().zip(graph.port_ranks().out_edges_ranked(v)) {
                let dst = graph.edges()[e].dst;
                obs.on_message(self.round, v, dst, &msg);
                inboxes[dst].push(msg);
            }
        }
        for (v, inbox) in inboxes.into_iter().enumerate() {
            self.states[v] =
                self.algo
                    .transition_with_outdegree(&self.states[v], graph.outdegree(v), &inbox);
        }
        obs.on_round_end(self.round, &self.algo, &self.states);
    }

    /// Execute one configured run: the single entry point behind every
    /// legacy `run*` method (see [`RunConfig`] for the knobs).
    ///
    /// Per round: apply the membership's rejoin policy (if churned),
    /// fetch the round's graph, step — sequentially or sharded over
    /// `cfg.threads` contiguous agent ranges, observed or not — and,
    /// if measuring, record the round's distance. Convergence at
    /// tolerance ε is judged post hoc over the whole trace (§2.3): the
    /// full budget is executed unless a [`RunConfig::confirm`] window
    /// closes early or an output goes non-finite (no later round can
    /// converge, so the run ends at once with
    /// [`CellReport::diverged_at`] set).
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
        let mut distances = Vec::new();
        let mut entered: Option<u64> = None;
        let mut executed: u64 = 0;
        while executed < rounds {
            if let Some((membership, reinit)) = membership {
                self.apply_rejoins(membership, reinit);
            }
            let g = net.graph_ref(self.round + 1);
            if let Some((cap, ledger)) = bandwidth {
                ledger.charge_round(g.edge_count() as u64, cap.bits_per_edge());
            }
            match (&mut observer, threads) {
                (None, 1) => self.step(&g),
                (None, t) => self.step_parallel(&g, t),
                (Some(o), 1) => self.step_observed(&g, o),
                (Some(o), t) => self.step_parallel_observed(&g, t, o),
            }
            executed += 1;
            if let Some(dist) = &dist {
                let d = dist(&self.outputs());
                distances.push(d);
                if !d.is_finite() {
                    break;
                }
                if let Some(confirm) = confirm {
                    if d <= eps {
                        let at = *entered.get_or_insert(self.round);
                        if self.round - at >= confirm {
                            break;
                        }
                    } else {
                        entered = None;
                    }
                }
            }
        }
        let measured = dist.is_some();
        let mass = invariant.map(|f| f(&self.states));
        let mut report =
            CellReport::from_trace(start, distances, eps, 0, FaultEvents::default(), mass);
        if !measured {
            report.rounds_run = executed;
        }
        if let Some(obs) = observer.as_mut() {
            if let Some(round) = report.converged_at {
                obs.on_converged(round, report.final_distance);
            }
        }
        report
    }

    /// Execute `rounds` rounds on a dynamic graph, starting from the round
    /// after the current one.
    #[deprecated(note = "use `drive(net, RunConfig::rounds(rounds))`")]
    pub fn run(&mut self, net: &dyn DynamicGraph, rounds: u64)
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        let _ = self.drive(net, RunConfig::rounds(rounds));
    }

    /// Like [`Execution::run`], driving an [`Observer`] each round.
    #[deprecated(note = "use `drive(net, RunConfig::rounds(rounds).observer(obs))`")]
    pub fn run_observed<O: Observer<A>>(&mut self, net: &dyn DynamicGraph, rounds: u64, obs: &mut O)
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        let _ = self.drive(net, RunConfig::rounds(rounds).observer(obs));
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
    /// [`Execution::run_churned`] does so for every round it runs.
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

    /// Execute `rounds` rounds under churn: each round, first apply the
    /// membership's rejoin policy ([`Execution::apply_rejoins`]), then
    /// step on the network's graph. The network is expected to mask
    /// absent agents (wrap it in [`crate::churn::ChurnMasked`]) — this
    /// method only owns the *state* side of churn, the re-injection.
    #[deprecated(
        note = "use `drive(net, RunConfig::rounds(rounds).membership(membership, reinit))`"
    )]
    pub fn run_churned(
        &mut self,
        net: &dyn DynamicGraph,
        membership: &Membership,
        reinit: &dyn Fn(usize, &A::State) -> A::State,
        rounds: u64,
    ) where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        let _ = self.drive(
            net,
            RunConfig::rounds(rounds).membership(membership, reinit),
        );
    }

    /// Like [`Execution::step`], but computes sends, routing, and
    /// transitions sharded over `threads` contiguous agent ranges.
    ///
    /// Bit-identical to `step` — the round is communication closed, so
    /// per-agent work is embarrassingly parallel, and routing is sharded
    /// by *destination*: each worker assembles its agents' inboxes from
    /// the in-edge lists and then restores the canonical ascending
    /// `(source id, port rank)` delivery order (see
    /// [`Execution::step_observed`]). In-edge lists are in insertion
    /// order, not source order, so the sort is load-bearing: without it
    /// f64 runs diverge bitwise from the sequential path
    /// (`tests/conformance.rs` pins this). Each phase spawns threads
    /// only if every shard holds at least [`crate::MIN_SPAWN_AGENTS`]
    /// agents, and then the calling thread works the first shard;
    /// otherwise the phase's shards run in order on the calling thread.
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
        assert!(threads > 0, "at least one worker thread");
        assert_eq!(graph.n(), self.states.len(), "graph size != agent count");
        self.round += 1;
        let n = graph.n();
        for v in 0..n {
            assert!(
                graph.has_self_loop(v),
                "round {}: vertex {v} lacks a self-loop",
                self.round
            );
        }
        let algo = &self.algo;
        let states = &self.states;
        let round = self.round;
        let ranges = shard_ranges(n, threads);
        let order = graph.port_ranks();

        // Phase 1: sends, sharded over contiguous agent ranges; shards
        // concatenate in range order, so no re-sort is needed.
        let sends: Vec<Vec<A::Msg>> =
            map_agents(&ranges, |v| send_checked(algo, graph, states, round, v));

        // Phase 2: routing, sharded by contiguous destination ranges.
        // Workers read in-edges (insertion order) and sort each inbox
        // back into the canonical ascending (src, port rank) delivery
        // order; sends[v][r] is the message the algorithm addressed to
        // port rank r of agent v.
        let sends_ref = &sends;
        let inboxes: Vec<Vec<A::Msg>> = map_agents(&ranges, |dst| {
            let mut keyed: Vec<(u64, A::Msg)> = graph
                .in_edges(dst)
                .map(|e| {
                    let src = graph.edges()[e].src;
                    let rank = order.rank(e);
                    let key = ((src as u64) << 32) | rank as u64;
                    (key, sends_ref[src][rank as usize].clone())
                })
                .collect();
            keyed.sort_unstable_by_key(|&(k, _)| k);
            keyed.into_iter().map(|(_, m)| m).collect()
        });

        // Phase 3: transitions, sharded over contiguous agent ranges.
        let inboxes_ref = &inboxes;
        self.states = map_agents(&ranges, |v| {
            algo.transition_with_outdegree(&states[v], graph.outdegree(v), &inboxes_ref[v])
        });
    }

    /// Like [`Execution::step_parallel`], with an [`Observer`].
    ///
    /// The observer runs on the calling thread and sees the **same event
    /// stream** as [`Execution::step_observed`]: `on_message` fires in
    /// the sequential routing phase, which iterates agents and ports in
    /// the sequential executor's order. `tests/parallel_equivalence.rs`
    /// pins this for every algorithm in `kya_algos`.
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
        assert!(threads > 0, "at least one worker thread");
        assert_eq!(graph.n(), self.states.len(), "graph size != agent count");
        self.round += 1;
        obs.on_round_start(self.round, &self.states);
        let n = graph.n();
        for v in 0..n {
            assert!(
                graph.has_self_loop(v),
                "round {}: vertex {v} lacks a self-loop",
                self.round
            );
        }
        let algo = &self.algo;
        let states = &self.states;
        let round = self.round;
        let ranges = shard_ranges(n, threads);

        // Phase 1: sends, sharded over contiguous agent ranges.
        let sends: Vec<Vec<A::Msg>> =
            map_agents(&ranges, |v| send_checked(algo, graph, states, round, v));

        // Phase 2: route (sequential — cheap) with the same port order as
        // the sequential step.
        let mut inboxes: Vec<Vec<A::Msg>> = (0..n)
            .map(|v| Vec::with_capacity(graph.indegree(v)))
            .collect();
        let order = graph.port_ranks();
        for (v, msgs) in sends.into_iter().enumerate() {
            for (msg, &e) in msgs.into_iter().zip(order.out_edges_ranked(v)) {
                let dst = graph.edges()[e].dst;
                obs.on_message(self.round, v, dst, &msg);
                inboxes[dst].push(msg);
            }
        }

        // Phase 3: transitions, sharded over contiguous agent ranges.
        let inboxes_ref = &inboxes;
        self.states = map_agents(&ranges, |v| {
            algo.transition_with_outdegree(&states[v], graph.outdegree(v), &inboxes_ref[v])
        });
        obs.on_round_end(self.round, &self.algo, &self.states);
    }

    /// Run for up to `max_rounds` rounds, measuring the worst-case
    /// distance of the outputs from `target` each round, and report when
    /// the outputs entered the ε-ball *and stayed there* for the rest of
    /// the run (§2.3's convergence at tolerance `eps`).
    ///
    /// The full budget is executed — convergence is judged post-hoc over
    /// the whole trace, so a transient dip into the ball does not count —
    /// unless an output goes non-finite, which ends the run at once with
    /// [`CellReport::diverged_at`] set. Non-consuming: the execution can
    /// be stepped or measured again afterwards; a second call measures
    /// from the current round.
    #[deprecated(
        note = "use `drive(net, RunConfig::rounds(max_rounds).measure(metric, target, eps))`"
    )]
    pub fn run_until<M: Metric<A::Output>>(
        &mut self,
        net: &dyn DynamicGraph,
        metric: &M,
        target: &A::Output,
        eps: f64,
        max_rounds: u64,
    ) -> CellReport
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        self.drive(
            net,
            RunConfig::rounds(max_rounds).measure(metric, target, eps),
        )
    }

    /// Like [`Execution::run_until`], driving an [`Observer`] each round
    /// (and firing `on_converged` when the sealed report says so).
    #[deprecated(
        note = "use `drive(net, RunConfig::rounds(max_rounds).measure(metric, target, eps).observer(obs))`"
    )]
    pub fn run_until_observed<M: Metric<A::Output>, O: Observer<A>>(
        &mut self,
        net: &dyn DynamicGraph,
        metric: &M,
        target: &A::Output,
        eps: f64,
        max_rounds: u64,
        obs: &mut O,
    ) -> CellReport
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        self.drive(
            net,
            RunConfig::rounds(max_rounds)
                .measure(metric, target, eps)
                .observer(obs),
        )
    }

    /// Like [`Execution::run_until`], but stop early once the outputs
    /// have stayed within `eps` of `target` for `confirm` consecutive
    /// rounds — the budget-saving variant for sweeps whose cells
    /// converge long before `max_rounds`.
    ///
    /// The stay-in-ball criterion is unchanged; only the observation
    /// window is truncated, so `converged_at` equals the full-budget
    /// answer whenever the algorithm does not leave the ball again after
    /// `confirm` rounds inside it.
    #[deprecated(
        note = "use `drive(net, RunConfig::rounds(max_rounds).measure(metric, target, eps).confirm(confirm))`"
    )]
    pub fn run_until_converged<M: Metric<A::Output>>(
        &mut self,
        net: &dyn DynamicGraph,
        metric: &M,
        target: &A::Output,
        eps: f64,
        max_rounds: u64,
        confirm: u64,
    ) -> CellReport
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        self.drive(
            net,
            RunConfig::rounds(max_rounds)
                .measure(metric, target, eps)
                .confirm(confirm),
        )
    }

    /// Like [`Execution::run_until_converged`], driving an [`Observer`]
    /// each round.
    #[allow(clippy::too_many_arguments)] // mirrors run_until_converged + observer
    #[deprecated(
        note = "use `drive(net, RunConfig::rounds(max_rounds).measure(metric, target, eps).confirm(confirm).observer(obs))`"
    )]
    pub fn run_until_converged_observed<M: Metric<A::Output>, O: Observer<A>>(
        &mut self,
        net: &dyn DynamicGraph,
        metric: &M,
        target: &A::Output,
        eps: f64,
        max_rounds: u64,
        confirm: u64,
        obs: &mut O,
    ) -> CellReport
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        self.drive(
            net,
            RunConfig::rounds(max_rounds)
                .measure(metric, target, eps)
                .confirm(confirm)
                .observer(obs),
        )
    }

    /// Like [`Execution::run_until`], but against per-agent targets:
    /// the measured distance of a round is `max_i δ(output_i,
    /// targets[i])`. This is the primitive behind
    /// [`crate::testing::check_self_stabilization`].
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

/// Agent `v`'s round-`round` messages, checked to be one per output
/// port — the send phase of both parallel steps.
fn send_checked<A: Algorithm>(
    algo: &A,
    graph: &Digraph,
    states: &[A::State],
    round: u64,
    v: usize,
) -> Vec<A::Msg> {
    let outdeg = graph.outdegree(v);
    let msgs = algo.send(&states[v], outdeg);
    assert_eq!(
        msgs.len(),
        outdeg,
        "round {round}: wrong message count from agent {v}"
    );
    msgs
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
    fn run_until_converged_stops_early() {
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
        // run_until_converged stops right after the confirm window.
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
        // step_parallel routes by in-edge list and must sort back to
        // canonical order, or the f64 fold below rounds differently.
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

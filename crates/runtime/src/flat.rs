//! The flat executor: agent-major state, CSR routing, one message per
//! agent, one pass per round — the million-agent hot path.
//!
//! The boxed [`Execution`](crate::Execution) allocates a
//! `Vec<Vec<A::Msg>>` of inboxes every round and re-derives the
//! canonical delivery order by sorting; that tops out around 10^3–10^4
//! agents. [`FlatExecution`] rebuilds the round loop from the ground up
//! for isotropic f64 algorithms on **static** graphs:
//!
//! - **State** lives in one agent-major `n × STATE_LANES` buffer (agent
//!   `v` owns one fixed-width chunk), updated in place — no boxed
//!   automata, no per-agent allocation, no state double-buffer: the pass
//!   copies an agent's chunk to the stack, and the transition writes the
//!   new state straight back into it (an agent's transition reads only
//!   its own state and its inbox).
//! - **Messages** live in a double-buffered `n × MSG_LANES` message
//!   column. An isotropic agent sends the *same* message on every port,
//!   so the column holds each message exactly once; nothing is copied
//!   per edge.
//! - **Routing** is frozen at construction into a [`RoutingPlan`]: per
//!   destination, the list of in-sources sorted once into the canonical
//!   ascending `(source id, port rank)` order. An agent's [`Inbox`] is a
//!   view of the message column through that list.
//! - **A round is one pass**: walk the state and next-message buffers
//!   in lockstep, one fixed-width chunk per agent: fold the inbox into
//!   the new state and emit the next round's message from it into the
//!   other message buffer. After construction the executor allocates
//!   nothing but the per-round shard bookkeeping.
//! - **Parallelism** shards that pass over contiguous agent ranges (each
//!   shard owns one span of the state buffer and one of the
//!   next-message buffer — split mutable slices, no unsafe), under the
//!   spawn rule the boxed
//!   executor uses too: the calling thread works the first shard and
//!   one scoped worker each of the others, unless a shard is under
//!   [`MIN_SPAWN_AGENTS`](crate::MIN_SPAWN_AGENTS) agents — then all of
//!   them run in order on the calling thread, the same partition, hence
//!   the same bits. Every write is statically assigned and every read is
//!   of the previous round's column, so parallel runs are **bitwise
//!   identical** to sequential ones at any thread count (`kya check`
//!   oracle `flat`, and the proptest in `tests/flat_equivalence.rs`, pin
//!   this against the boxed path).
//!
//! The price is genericity: a [`FlatAlgorithm`] is isotropic (one
//! message per round, replicated to every port) with fixed-width f64
//! state and message vectors. Push-Sum and Metropolis — the paper's
//! quantitative workhorses — fit exactly; `kya-algos` implements both.

use kya_graph::{Digraph, RoutingPlan};
use std::ops::Range;
use std::time::Instant;

use crate::config::FlatRunConfig;
use crate::probe::{FlatProbe, NullProbe, PhaseTimes, ShardCounters};
use crate::report::{CellReport, Measure, Seal};
use crate::shard::{run_shards, shard_ranges};

/// Target number of strided samples per state lane handed to
/// [`FlatProbe::on_lane_sample`] each round. The stride is computed
/// from `n` alone, so the sample set is independent of thread count.
const LANE_SAMPLE_TARGET: usize = 64;

/// Maximum number of f64 lanes a flat state or message may use; bounds
/// the executor's stack scratch buffers.
pub const MAX_LANES: usize = 4;

/// Largest structural degree a flat algorithm may carry in an f64 lane
/// without rounding: every integer up to `2^53 - 1` is exactly
/// representable, `2^53 + 1` is not.
pub const MAX_EXACT_DEGREE: usize = (1 << 53) - 1;

/// A structural degree too large to represent exactly as an f64 lane
/// value (see [`exact_degree`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegreeOverflow(pub usize);

impl std::fmt::Display for DegreeOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "degree {} exceeds 2^53 - 1 and is not exactly representable as f64",
            self.0
        )
    }
}

impl std::error::Error for DegreeOverflow {}

/// Convert a structural degree to its exact f64 representation, or fail
/// when the integer would round.
///
/// Flat algorithms that tag messages with degrees (Metropolis) store
/// them in f64 lanes; a degree at or above `2^53` would silently round
/// and corrupt the weight `1/(1 + max(d_i, d_j))`. [`FlatExecution::new`]
/// enforces this bound over the whole routing plan at construction, so
/// inside a running flat algorithm `d as f64` is already exact.
pub fn exact_degree(d: usize) -> Result<f64, DegreeOverflow> {
    if d <= MAX_EXACT_DEGREE {
        Ok(d as f64)
    } else {
        Err(DegreeOverflow(d))
    }
}

/// One agent's inbox for one round: a read-only view of the round's
/// message column through the agent's in-source list, yielding one
/// `MSG_LANES`-lane message per in-edge in the canonical
/// `(source id, port rank)` delivery order. Nothing is copied until a
/// transition reads it.
#[derive(Clone, Copy, Debug)]
pub struct Inbox<'a> {
    column: &'a [f64],
    sources: &'a [u32],
    lanes: usize,
}

impl<'a> Inbox<'a> {
    /// The inbox that delivers, in order, message `sources[k]` of
    /// `column` (a column of `lanes`-lane messages, one per agent).
    #[inline]
    pub(crate) fn new(column: &'a [f64], sources: &'a [u32], lanes: usize) -> Inbox<'a> {
        Inbox {
            column,
            sources,
            lanes,
        }
    }

    /// Number of messages delivered (the agent's in-degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether no message is delivered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The messages, each `lanes` lanes wide, in delivery order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [f64]> + 'a {
        let (column, lanes) = (self.column, self.lanes);
        self.sources.iter().map(move |&src| {
            let at = src as usize * lanes;
            &column[at..at + lanes]
        })
    }
}

/// An isotropic f64 algorithm over fixed-width f64 lanes, runnable by
/// [`FlatExecution`].
///
/// Semantics mirror [`IsotropicAlgorithm`](crate::IsotropicAlgorithm):
/// one message per round computed from the state and the outdegree,
/// replicated to every output port; the transition folds the inbox —
/// delivered in the canonical `(source id, port rank)` order — into the
/// next state. To stay bitwise identical to a boxed twin, perform the
/// same floating-point operations in the same order (the [`Inbox`]
/// yields `MSG_LANES`-sized messages in exactly the boxed delivery
/// order).
pub trait FlatAlgorithm: Sync {
    /// Number of f64 lanes per agent state (1..=[`MAX_LANES`]).
    const STATE_LANES: usize;
    /// Number of f64 lanes per message (1..=[`MAX_LANES`]).
    const MSG_LANES: usize;

    /// Compute the round's message from `state` (`STATE_LANES` lanes)
    /// into `msg` (`MSG_LANES` lanes), given the sender's outdegree.
    fn message(&self, state: &[f64], outdegree: usize, msg: &mut [f64]);

    /// Fold `inbox` (one message per in-edge, canonical delivery order)
    /// into `next` (`STATE_LANES` lanes).
    fn transition(&self, state: &[f64], inbox: Inbox<'_>, next: &mut [f64]);

    /// [`FlatAlgorithm::transition`], additionally told the agent's own
    /// outdegree — the flat spelling of
    /// [`Algorithm::transition_with_outdegree`](crate::Algorithm::transition_with_outdegree).
    /// The executor always calls this variant with the routing plan's
    /// outdegree; the default ignores it, so plain flat algorithms are
    /// unaffected while quantized residual-carry algorithms override.
    fn transition_with_outdegree(
        &self,
        state: &[f64],
        outdegree: usize,
        inbox: Inbox<'_>,
        next: &mut [f64],
    ) {
        let _ = outdegree;
        self.transition(state, inbox, next);
    }

    /// Project an agent's output from its state lanes.
    fn output(&self, state: &[f64]) -> f64;
}

/// A flat execution: an agent-major state buffer plus a double-buffered
/// message column, stepped in one pass per round. See the module docs
/// for the layout and determinism contract.
pub struct FlatExecution<A: FlatAlgorithm> {
    algo: A,
    round: u64,
    plan: RoutingPlan,
    /// Agent `v` owns lanes `v * STATE_LANES..(v + 1) * STATE_LANES`.
    state: Vec<f64>,
    /// This round's messages: agent `v` owns lanes
    /// `v * MSG_LANES..(v + 1) * MSG_LANES`.
    msgs: Vec<f64>,
    /// The next round's messages, written by the round's pass.
    next_msgs: Vec<f64>,
}

impl<A: FlatAlgorithm> FlatExecution<A> {
    /// Build a flat execution of `algo` on the **static** graph `graph`
    /// from the given state columns (`STATE_LANES` columns of one entry
    /// per agent), interleave them once into the agent-major state
    /// buffer, and emit the first round's messages.
    ///
    /// # Panics
    ///
    /// Panics if the column count or a column length mismatches, a lane
    /// count is zero or exceeds [`MAX_LANES`], a vertex lacks a
    /// self-loop (§2.1), or a degree exceeds [`MAX_EXACT_DEGREE`] (the
    /// [`exact_degree`] precondition of degree-tagged algorithms).
    pub fn new(algo: A, graph: &Digraph, columns: Vec<Vec<f64>>) -> FlatExecution<A> {
        assert!(
            (1..=MAX_LANES).contains(&A::STATE_LANES),
            "STATE_LANES out of range"
        );
        assert!(
            (1..=MAX_LANES).contains(&A::MSG_LANES),
            "MSG_LANES out of range"
        );
        assert_eq!(columns.len(), A::STATE_LANES, "one column per state lane");
        let n = graph.n();
        for col in &columns {
            assert_eq!(col.len(), n, "column length != agent count");
        }
        if !graph.is_self_loop_closed() {
            for v in 0..n {
                assert!(graph.has_self_loop(v), "vertex {v} lacks a self-loop");
            }
        }
        let plan = RoutingPlan::new(graph);
        for v in 0..n {
            if let Err(e) = exact_degree(plan.outdegree(v).max(plan.indegree(v))) {
                panic!("vertex {v}: {e}");
            }
        }
        let (sl, ml) = (A::STATE_LANES, A::MSG_LANES);
        let mut state = Vec::with_capacity(n * sl);
        for v in 0..n {
            state.extend(columns.iter().map(|col| col[v]));
        }
        // Free the columns before the message buffers exist, so set-up
        // holds no more than the running engine does.
        drop(columns);
        let mut msgs = vec![0.0; n * ml];
        for (v, (st, msg)) in state
            .chunks_exact(sl)
            .zip(msgs.chunks_exact_mut(ml))
            .enumerate()
        {
            algo.message(st, plan.outdegree(v), msg);
        }
        FlatExecution {
            algo,
            round: 0,
            plan,
            state,
            next_msgs: vec![0.0; n * ml],
            msgs,
        }
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.plan.n()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The algorithm being executed.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// The routing plan the executor runs on.
    pub fn plan(&self) -> &RoutingPlan {
        &self.plan
    }

    /// Agent `v`'s state: its `STATE_LANES` lanes.
    pub fn state(&self, v: usize) -> &[f64] {
        let sl = A::STATE_LANES;
        &self.state[v * sl..(v + 1) * sl]
    }

    /// Current outputs, indexed by agent.
    pub fn outputs(&self) -> Vec<f64> {
        self.state
            .chunks_exact(A::STATE_LANES)
            .map(|st| self.algo.output(st))
            .collect()
    }

    /// Resident buffer bytes — the flat engine's whole per-run
    /// footprint: the state buffer, both message buffers, and the
    /// routing plan's arrays. Measured over *capacities*, so it is what
    /// the allocator actually holds. `tests/flat_probe.rs` pins this
    /// against the B/agent figures in EXPERIMENTS.md.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.msgs.capacity() + self.next_msgs.capacity() + self.state.capacity())
            + self.plan.resident_bytes()
    }

    /// Execute one round sequentially.
    pub fn step(&mut self) {
        self.step_threads(1);
    }

    /// Execute one round with its pass sharded across `threads`
    /// contiguous agent ranges. Bitwise identical to
    /// [`FlatExecution::step`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn step_threads(&mut self, threads: usize) {
        self.step_probed(threads, &mut NullProbe);
    }

    /// Execute one round under a [`FlatProbe`]: per-shard counters are
    /// delivered in ascending shard order after the join, state lanes
    /// are sampled at a thread-independent stride, and the wall-clock
    /// phase breakdown arrives through the separate
    /// [`FlatProbe::on_phase_times`] hook. With [`NullProbe`] (whose
    /// `ENABLED` is `false`) every probe branch const-folds away and
    /// this *is* [`FlatExecution::step_threads`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn step_probed<P: FlatProbe>(&mut self, threads: usize, probe: &mut P) {
        assert!(threads > 0, "at least one worker thread");
        let n = self.n();
        let round = self.round + 1;
        if P::ENABLED {
            probe.on_round_start(round, n);
        }
        let mut times = PhaseTimes::default();
        let mut mark = if P::ENABLED {
            Some(Instant::now())
        } else {
            None
        };

        // Each shard owns its contiguous agent range's span of the state
        // buffer and of the next message buffer; all shards read the
        // whole current message column.
        let ranges = shard_ranges(n, threads);
        let states = split_spans(&mut self.state, &ranges, A::STATE_LANES);
        let outs = split_spans(&mut self.next_msgs, &ranges, A::MSG_LANES);
        let shards: Vec<Shard<'_>> = ranges
            .iter()
            .zip(states.into_iter().zip(outs))
            .map(|(range, (state, msgs))| Shard {
                range: range.clone(),
                state,
                msgs,
            })
            .collect();
        let (algo, plan, msgs) = (&self.algo, &self.plan, &self.msgs[..]);
        lap(&mut mark, &mut times.route_us);

        let counters: Vec<ShardCounters> =
            run_shards(&ranges, shards, |s| pass_range::<A, P>(algo, plan, msgs, s));
        lap(&mut mark, &mut times.pass_us);

        std::mem::swap(&mut self.msgs, &mut self.next_msgs);
        self.round += 1;

        if P::ENABLED {
            let mut total = ShardCounters::default();
            for (i, c) in counters.iter().enumerate() {
                probe.on_shard(i, c);
                total.merge(c);
            }
            // Strided lane sampling over the post-round state; the
            // stride depends on n only, never on the thread count.
            let stride = (n / LANE_SAMPLE_TARGET).max(1);
            let mut samples = Vec::with_capacity(n.div_ceil(stride));
            for lane in 0..A::STATE_LANES {
                samples.clear();
                let agents = self.state.chunks_exact(A::STATE_LANES).step_by(stride);
                samples.extend(agents.map(|st| st[lane]));
                probe.on_lane_sample(round, lane, &samples);
            }
            probe.on_round_end(round, &total);
            lap(&mut mark, &mut times.merge_us);
            probe.on_phase_times(round, &times);
        }
    }

    /// Execute `rounds` rounds at the given thread count.
    pub fn run(&mut self, rounds: u64, threads: usize) {
        for _ in 0..rounds {
            self.step_threads(threads);
        }
    }

    /// Execute `rounds` rounds under a [`FlatProbe`].
    pub fn run_probed<P: FlatProbe>(&mut self, rounds: u64, threads: usize, probe: &mut P) {
        for _ in 0..rounds {
            self.step_probed(threads, probe);
        }
    }

    /// Drive the execution under a [`FlatRunConfig`] — the flat twin of
    /// [`Execution::drive`](crate::Execution::drive): a round budget
    /// plus optional residual measurement, ε-convergence judged post
    /// hoc over the whole trace, and confirmed early stopping. Closes
    /// the `RunConfig::measure` parity gap, so flat sweeps report
    /// `converged_at` instead of only fixed budgets.
    pub fn drive(&mut self, cfg: FlatRunConfig<'_>) -> CellReport {
        self.drive_probed(cfg, &mut NullProbe)
    }

    /// [`FlatExecution::drive`] with a [`FlatProbe`] attached to every
    /// executed round.
    pub fn drive_probed<P: FlatProbe>(
        &mut self,
        cfg: FlatRunConfig<'_>,
        probe: &mut P,
    ) -> CellReport {
        let FlatRunConfig {
            rounds,
            threads,
            dist,
            eps,
            confirm,
            bandwidth,
        } = cfg;
        let start = self.round;
        let measure = Measure {
            rounds,
            dist,
            eps,
            confirm,
        };
        let step = |exec: &mut Self| {
            if let Some((cap, ledger)) = bandwidth {
                // One delivery per edge: the same per-round charge as
                // the boxed drive's `edge_count()`.
                ledger.charge_round(exec.plan.slots() as u64, cap.bits_per_edge());
            }
            exec.step_probed(threads, probe);
        };
        measure.run(self, start, step, Self::outputs, |_| Seal::default())
    }
}

/// Advance the phase timer: charge the elapsed time since the last lap
/// to `slot` and restart. A `None` mark (probe disabled) is free.
fn lap(mark: &mut Option<Instant>, slot: &mut u64) {
    if let Some(t) = mark {
        *slot = t.elapsed().as_micros() as u64;
        *mark = Some(Instant::now());
    }
}

/// Split `buf` into one mutable span per range, where range `r` owns
/// `buf[r.start * width..r.end * width]`. The ranges must tile
/// `0..buf.len() / width` in order — which [`shard_ranges`] guarantees.
fn split_spans<'b>(
    buf: &'b mut [f64],
    ranges: &[Range<usize>],
    width: usize,
) -> Vec<&'b mut [f64]> {
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = buf;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.len() * width);
        parts.push(head);
        rest = tail;
    }
    parts
}

/// One shard of a round's pass: a contiguous agent range with its spans
/// of the state buffer and of the next message buffer.
struct Shard<'b> {
    range: Range<usize>,
    state: &'b mut [f64],
    msgs: &'b mut [f64],
}

/// The round's pass over one shard: per agent, copy its state chunk to
/// the stack, fold the inbox (a view of the current message column) into
/// the chunk in place, and emit the next round's message from it.
/// Returns the shard's counters — all accumulation is gated on
/// `P::ENABLED`, so the [`NullProbe`] instantiation pays nothing.
fn pass_range<A: FlatAlgorithm, P: FlatProbe>(
    algo: &A,
    plan: &RoutingPlan,
    msgs: &[f64],
    shard: Shard<'_>,
) -> ShardCounters {
    let Shard {
        range,
        state,
        msgs: out,
    } = shard;
    let (sl, ml) = (A::STATE_LANES, A::MSG_LANES);
    let mut counters = ShardCounters::default();
    if P::ENABLED {
        let slots = plan.inbox_slots_in(range.clone()) as u64;
        counters.agents = range.len() as u64;
        counters.messages_routed = slots;
        // One state write and one message write per agent.
        counters.lane_writes = (range.len() * (sl + ml)) as u64;
        counters.inbox_bytes = slots * (ml * std::mem::size_of::<f64>()) as u64;
    }
    let mut cur = [0.0f64; MAX_LANES];
    let chunks = state.chunks_exact_mut(sl).zip(out.chunks_exact_mut(ml));
    for (v, (st, msg)) in range.zip(chunks) {
        cur[..sl].copy_from_slice(st);
        let outdegree = plan.outdegree(v);
        let inbox = Inbox::new(msgs, plan.sources_of(v), ml);
        algo.transition_with_outdegree(&cur[..sl], outdegree, inbox, st);
        algo.message(st, outdegree, msg);
    }
    counters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MIN_SPAWN_AGENTS;
    use kya_graph::generators;

    /// Order-sensitive f64 fold: sums the first message lane in
    /// delivery order — any inbox reordering changes the rounding.
    struct OrderSum;
    impl FlatAlgorithm for OrderSum {
        const STATE_LANES: usize = 1;
        const MSG_LANES: usize = 1;
        fn message(&self, state: &[f64], _outdegree: usize, msg: &mut [f64]) {
            msg[0] = state[0];
        }
        fn transition(&self, _state: &[f64], inbox: Inbox<'_>, next: &mut [f64]) {
            next[0] = inbox.iter().fold(0.0, |acc, m| acc + m[0]);
        }
        fn output(&self, state: &[f64]) -> f64 {
            state[0]
        }
    }

    fn in_star(n: usize) -> Digraph {
        // Sources inserted in descending order: the canonical delivery
        // order is the reverse of the in-edge lists.
        let mut g = Digraph::new(n);
        for src in (1..n).rev() {
            g.add_edge(src, 0);
        }
        g.with_self_loops()
    }

    #[test]
    fn parallel_is_bitwise_identical_to_sequential() {
        let g = in_star(6);
        let inits = vec![1e16, 3.0, 1e-7, 2.0, 1e7, 1.0];
        let mut seq = FlatExecution::new(OrderSum, &g, vec![inits.clone()]);
        let mut two = FlatExecution::new(OrderSum, &g, vec![inits.clone()]);
        let mut four = FlatExecution::new(OrderSum, &g, vec![inits]);
        for _ in 0..4 {
            seq.step();
            two.step_threads(2);
            four.step_threads(4);
            for v in 0..6 {
                assert_eq!(seq.state(v)[0].to_bits(), two.state(v)[0].to_bits());
                assert_eq!(seq.state(v)[0].to_bits(), four.state(v)[0].to_bits());
            }
        }
        assert_eq!(seq.round(), 4);
    }

    #[test]
    fn spawned_shards_match_the_sequential_pass() {
        // Large enough that 2 and 3 threads really spawn workers: every
        // shard spans at least `MIN_SPAWN_AGENTS` agents.
        let n = 3 * MIN_SPAWN_AGENTS;
        let g = generators::random_strongly_connected(n, 2 * n, 9).with_self_loops();
        let inits: Vec<f64> = (0..n).map(|i| ((i * 7919) % 1013) as f64 * 1e-3).collect();
        let mut seq = FlatExecution::new(OrderSum, &g, vec![inits.clone()]);
        let mut two = FlatExecution::new(OrderSum, &g, vec![inits.clone()]);
        let mut three = FlatExecution::new(OrderSum, &g, vec![inits]);
        for _ in 0..3 {
            seq.step();
            two.step_threads(2);
            three.step_threads(3);
        }
        let bits = |e: &FlatExecution<OrderSum>| -> Vec<u64> {
            (0..n).map(|v| e.state(v)[0].to_bits()).collect()
        };
        assert_eq!(bits(&seq), bits(&two));
        assert_eq!(bits(&seq), bits(&three));
    }

    /// Order-sensitive fold at lane widths no shipped algorithm uses:
    /// three state lanes, `MAX_LANES` message lanes. Every lane feeds a
    /// different one, so a wrong stride in the state or message buffer
    /// mixes agents or lanes and changes the bits.
    struct WideMix;
    impl FlatAlgorithm for WideMix {
        const STATE_LANES: usize = 3;
        const MSG_LANES: usize = MAX_LANES;
        fn message(&self, state: &[f64], outdegree: usize, msg: &mut [f64]) {
            let d = outdegree as f64;
            msg[0] = state[0] / d;
            msg[1] = state[1] / d;
            msg[2] = state[2];
            msg[3] = state[0] - state[2];
        }
        fn transition(&self, state: &[f64], inbox: Inbox<'_>, next: &mut [f64]) {
            let (mut a, mut b, mut c) = (0.0, 0.0, state[2]);
            for m in inbox.iter() {
                a += m[0];
                b += m[1] + 1e-3 * m[3];
                c = 0.5 * c + m[2];
            }
            next[0] = a;
            next[1] = b;
            next[2] = c;
        }
        fn output(&self, state: &[f64]) -> f64 {
            state[0] / state[1]
        }
    }

    /// [`WideMix`] for the boxed executor: the same operations in the
    /// same order on arrays.
    #[derive(Clone)]
    struct BoxedWideMix;
    impl crate::IsotropicAlgorithm for BoxedWideMix {
        type State = [f64; 3];
        type Msg = [f64; 4];
        type Output = f64;
        fn message(&self, s: &[f64; 3], outdegree: usize) -> [f64; 4] {
            let mut msg = [0.0; 4];
            WideMix.message(s, outdegree, &mut msg);
            msg
        }
        fn transition(&self, s: &[f64; 3], inbox: &[[f64; 4]]) -> [f64; 3] {
            let (mut a, mut b, mut c) = (0.0, 0.0, s[2]);
            for m in inbox {
                a += m[0];
                b += m[1] + 1e-3 * m[3];
                c = 0.5 * c + m[2];
            }
            [a, b, c]
        }
        fn output(&self, s: &[f64; 3]) -> f64 {
            s[0] / s[1]
        }
    }

    #[test]
    fn wide_lanes_match_the_boxed_executor_at_every_thread_count() {
        use crate::{Execution, Isotropic};

        let n = 3 * MIN_SPAWN_AGENTS;
        let g = generators::random_strongly_connected(n, 2 * n, 5).with_self_loops();
        let inits: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                let x = ((i * 7919) % 1013) as f64;
                [x * 1e-3, 1.0 + (i % 7) as f64, x * 1e5]
            })
            .collect();
        let columns: Vec<Vec<f64>> = (0..3)
            .map(|l| inits.iter().map(|s| s[l]).collect())
            .collect();
        let mut boxed = Execution::new(Isotropic(BoxedWideMix), inits);
        let mut flats: Vec<(usize, FlatExecution<WideMix>)> = [1, 2, 3]
            .into_iter()
            .map(|t| (t, FlatExecution::new(WideMix, &g, columns.clone())))
            .collect();
        for round in 1..=3 {
            boxed.step(&g);
            for (threads, flat) in &mut flats {
                flat.step_threads(*threads);
                for (v, want) in boxed.states().iter().enumerate() {
                    let got = flat.state(v);
                    for l in 0..3 {
                        assert_eq!(
                            got[l].to_bits(),
                            want[l].to_bits(),
                            "round {round}, {threads} thread(s): agent {v} lane {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_boxed_executor_on_order_sensitive_sums() {
        use crate::algorithm::{Broadcast, BroadcastAlgorithm};
        use crate::Execution;

        #[derive(Clone)]
        struct BoxedOrderSum;
        impl BroadcastAlgorithm for BoxedOrderSum {
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

        let g = in_star(6);
        let inits = vec![1e16, 3.0, 1e-7, 2.0, 1e7, 1.0];
        let mut boxed = Execution::new(Broadcast(BoxedOrderSum), inits.clone());
        let mut flat = FlatExecution::new(OrderSum, &g, vec![inits]);
        for _ in 0..4 {
            boxed.step(&g);
            flat.step_threads(3);
            for (v, a) in boxed.states().iter().enumerate() {
                let b = flat.state(v)[0];
                assert_eq!(a.to_bits(), b.to_bits(), "flat diverged from boxed");
            }
        }
    }

    #[test]
    fn inbox_views_the_column_in_source_order() {
        let column = [10.0, 11.0, 20.0, 21.0, 30.0, 31.0];
        let inbox = Inbox::new(&column, &[2, 0, 2], 2);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        let msgs: Vec<&[f64]> = inbox.iter().collect();
        assert_eq!(msgs, vec![&[30.0, 31.0][..], &[10.0, 11.0], &[30.0, 31.0]]);
        assert!(Inbox::new(&column, &[], 2).is_empty());
    }

    #[test]
    fn zero_allocation_after_construction_costs_nothing_per_round() {
        // Behavioural proxy: the resident footprint is invariant across
        // rounds (the buffers are reused, never regrown).
        let g = generators::directed_ring(32).with_self_loops();
        let mut exec = FlatExecution::new(OrderSum, &g, vec![vec![1.0; 32]]);
        let before = exec.resident_bytes();
        exec.run(10, 2);
        assert_eq!(exec.resident_bytes(), before);
        assert_eq!(exec.round(), 10);
    }

    #[test]
    #[should_panic(expected = "lacks a self-loop")]
    fn missing_self_loop_rejected() {
        let g = generators::directed_ring(3);
        let _ = FlatExecution::new(OrderSum, &g, vec![vec![0.0; 3]]);
    }

    #[test]
    #[should_panic(expected = "column length")]
    fn column_arity_checked() {
        let g = generators::directed_ring(3).with_self_loops();
        let _ = FlatExecution::new(OrderSum, &g, vec![vec![0.0; 2]]);
    }

    #[test]
    fn exact_degree_boundary() {
        // Every degree up to 2^53 - 1 converts exactly...
        assert_eq!(exact_degree(0), Ok(0.0));
        assert_eq!(exact_degree(MAX_EXACT_DEGREE), Ok(9007199254740991.0));
        assert_eq!(
            exact_degree(MAX_EXACT_DEGREE).unwrap() as usize,
            MAX_EXACT_DEGREE
        );
        // ...and the first inexact integers are rejected rather than
        // silently rounded (2^53 itself converts exactly, but 2^53 + 1
        // would collapse onto it — the bound excludes the whole plateau).
        assert_eq!(
            exact_degree(MAX_EXACT_DEGREE + 1),
            Err(DegreeOverflow(1 << 53))
        );
        assert_eq!(
            exact_degree(MAX_EXACT_DEGREE + 2),
            Err(DegreeOverflow((1 << 53) + 1))
        );
        assert!(exact_degree(usize::MAX).is_err());
        let msg = DegreeOverflow(1 << 53).to_string();
        assert!(msg.contains("2^53"), "unhelpful error: {msg}");
    }
}

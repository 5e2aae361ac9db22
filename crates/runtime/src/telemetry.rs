//! Round-level observers: per-round counters, residual series, and
//! NDJSON traces for any [`Execution`](crate::Execution).
//!
//! The paper's quantitative claims are *rates* — Push-Sum's geometric
//! convergence (Theorem 5.2) and the ergodic-coefficient bounds of
//! §5.2–5.3 speak about per-round residual decay — yet a bare
//! `run_until` only keeps the distance trace. An [`Observer`] hooks into
//! the executor's round structure and sees every round boundary and
//! every delivered message, turning an execution into a measured one:
//!
//! - [`NullObserver`] — the zero-cost default. `step` and
//!   `step_parallel` run the same round body as `step_observed` and
//!   `step_parallel_observed`, with a `NullObserver`; monomorphization
//!   erases the empty hooks entirely (a benchmark guard in
//!   `tests/telemetry.rs` pins this).
//! - [`CountingObserver`] — messages delivered (split into self-loop and
//!   real-link traffic), payload bytes, fault-dropped messages, and peak
//!   state size, summarized as a [`CountSummary`].
//! - [`TraceSink`] — one [`RoundEvent`] per round (counters plus an
//!   optional residual), buffered with a stable serde schema and
//!   rendered as NDJSON.
//!
//! Payload and state sizes use the `Debug` rendering's byte length as a
//! deterministic, dependency-free proxy for serialized size: the repo
//! has no wire format, and `Debug` is the one encoding every `Msg` and
//! `State` already carries. The proxy is documented, stable across runs,
//! and only ever computed by opt-in observers.

use crate::algorithm::Algorithm;
use crate::metric::{max_distance, Metric};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Round-scoped hooks driven by the executors.
///
/// Every hook has an empty default body, so an observer implements only
/// what it measures. Within one round the executor guarantees the call
/// order `on_round_start` → `on_message`/`on_message_dropped` (one call
/// per message, in the deterministic routing order shared by `step` and
/// `step_parallel`) → `on_round_end`; `on_converged` fires at most once
/// per measuring run, after the report is sealed.
pub trait Observer<A: Algorithm> {
    /// A round began: `round` is the 1-based round number about to
    /// execute, `states` the configuration it starts from.
    fn on_round_start(&mut self, round: u64, states: &[A::State]) {
        let _ = (round, states);
    }

    /// A message was delivered from `src` to `dst` (`src == dst` is the
    /// self-loop). A duplicated message fires once per delivered copy.
    fn on_message(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        let _ = (round, src, dst, msg);
    }

    /// A message was lost to fault injection (dropped in flight or
    /// bounced off a crashed recipient) — fired only by an
    /// [`Execution`](crate::Execution) running under a fault plan
    /// ([`Execution::faults`](crate::Execution::faults)).
    fn on_message_dropped(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        let _ = (round, src, dst, msg);
    }

    /// A round completed: `states` is the configuration after every
    /// transition; `algo` allows output projection.
    fn on_round_end(&mut self, round: u64, algo: &A, states: &[A::State]) {
        let _ = (round, algo, states);
    }

    /// A measuring run (a `drive` with a `measure*` knob) determined
    /// that the outputs converged at the end of `round` with final
    /// distance `final_distance`.
    fn on_converged(&mut self, round: u64, final_distance: f64) {
        let _ = (round, final_distance);
    }
}

// Forwarding impl so `&mut dyn Observer<A>` (what a `RunConfig` holds)
// satisfies the `O: Observer<A>` bounds of `step_observed` and friends.
impl<A: Algorithm, O: Observer<A> + ?Sized> Observer<A> for &mut O {
    fn on_round_start(&mut self, round: u64, states: &[A::State]) {
        (**self).on_round_start(round, states);
    }

    fn on_message(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        (**self).on_message(round, src, dst, msg);
    }

    fn on_message_dropped(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        (**self).on_message_dropped(round, src, dst, msg);
    }

    fn on_round_end(&mut self, round: u64, algo: &A, states: &[A::State]) {
        (**self).on_round_end(round, algo, states);
    }

    fn on_converged(&mut self, round: u64, final_distance: f64) {
        (**self).on_converged(round, final_distance);
    }
}

/// The zero-cost default observer: every hook is the empty default.
///
/// `Execution::step` is exactly `step_observed(graph, &mut
/// NullObserver)`; the generic instantiation compiles to the PR-2 loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullObserver;

impl<A: Algorithm> Observer<A> for NullObserver {}

/// Flat counters accumulated by [`CountingObserver`] and [`TraceSink`].
///
/// All sizes are `Debug`-rendering byte lengths (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountSummary {
    /// Rounds observed (`on_round_end` calls).
    pub rounds: u64,
    /// Messages delivered over real links (`src != dst`).
    pub messages: u64,
    /// Messages delivered over self-loops (`src == dst`).
    pub self_messages: u64,
    /// Payload bytes of every delivered message, self-loops included.
    pub payload_bytes: u64,
    /// Messages lost to fault injection (drops and bounces).
    pub dropped: u64,
    /// Largest single-agent state seen at any round end, in bytes.
    pub peak_state_bytes: u64,
}

/// Byte length of a value's `Debug` rendering, reusing `buf`.
fn debug_len(buf: &mut String, value: &impl std::fmt::Debug) -> u64 {
    buf.clear();
    let _ = write!(buf, "{value:?}");
    buf.len() as u64
}

/// Counts traffic and state growth: messages sent/received per round,
/// payload bytes, fault-dropped messages, and the peak state size.
#[derive(Clone, Debug, Default)]
pub struct CountingObserver {
    summary: CountSummary,
    buf: String,
}

impl CountingObserver {
    /// A fresh counter.
    pub fn new() -> CountingObserver {
        CountingObserver::default()
    }

    /// The counters accumulated so far.
    pub fn summary(&self) -> CountSummary {
        self.summary
    }
}

impl<A: Algorithm> Observer<A> for CountingObserver {
    fn on_message(&mut self, _round: u64, src: usize, dst: usize, msg: &A::Msg) {
        if src == dst {
            self.summary.self_messages += 1;
        } else {
            self.summary.messages += 1;
        }
        self.summary.payload_bytes += debug_len(&mut self.buf, msg);
    }

    fn on_message_dropped(&mut self, _round: u64, _src: usize, _dst: usize, _msg: &A::Msg) {
        self.summary.dropped += 1;
    }

    fn on_round_end(&mut self, _round: u64, _algo: &A, states: &[A::State]) {
        self.summary.rounds += 1;
        for s in states {
            let bytes = debug_len(&mut self.buf, s);
            self.summary.peak_state_bytes = self.summary.peak_state_bytes.max(bytes);
        }
    }
}

/// One row of a trace: the counters of a single round, plus the residual
/// when the sink was built with a metric.
///
/// Serializes with a stable field order (`round`, `messages`,
/// `self_messages`, `payload_bytes`, `dropped`, `residual`) — the schema
/// the CI trace-determinism job diffs byte for byte.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundEvent {
    /// The 1-based round number.
    pub round: u64,
    /// Messages delivered over real links this round.
    pub messages: u64,
    /// Messages delivered over self-loops this round.
    pub self_messages: u64,
    /// Payload bytes delivered this round (self-loops included).
    pub payload_bytes: u64,
    /// Messages lost to fault injection this round.
    pub dropped: u64,
    /// Worst-case distance from the target at the round's end, when a
    /// residual metric was attached.
    pub residual: Option<f64>,
}

impl RoundEvent {
    fn empty(round: u64) -> RoundEvent {
        RoundEvent {
            round,
            messages: 0,
            self_messages: 0,
            payload_bytes: 0,
            dropped: 0,
            residual: None,
        }
    }
}

/// Type of the optional residual computation a [`TraceSink`] carries.
type ResidualFn<A> = Box<dyn FnMut(&A, &[<A as Algorithm>::State]) -> f64>;

/// Buffers one [`RoundEvent`] per round and renders them as NDJSON; also
/// accumulates the same [`CountSummary`] as a [`CountingObserver`], so a
/// traced cell needs a single observer.
pub struct TraceSink<A: Algorithm> {
    events: Vec<RoundEvent>,
    current: Option<RoundEvent>,
    summary: CountSummary,
    buf: String,
    residual: Option<ResidualFn<A>>,
}

impl<A: Algorithm> Default for TraceSink<A> {
    fn default() -> TraceSink<A> {
        TraceSink::new()
    }
}

impl<A: Algorithm> TraceSink<A> {
    /// A sink recording counters only (`residual` stays `null`).
    pub fn new() -> TraceSink<A> {
        TraceSink {
            events: Vec::new(),
            current: None,
            summary: CountSummary::default(),
            buf: String::new(),
            residual: None,
        }
    }

    /// A sink that additionally records the per-round worst-case
    /// distance of the outputs from `target` under `metric`.
    pub fn with_residual<M>(metric: M, target: A::Output) -> TraceSink<A>
    where
        M: Metric<A::Output> + 'static,
        A::Output: 'static,
    {
        let mut sink = TraceSink::new();
        sink.residual = Some(Box::new(move |algo: &A, states: &[A::State]| {
            let outputs: Vec<A::Output> = states.iter().map(|s| algo.output(s)).collect();
            max_distance(&metric, &outputs, &target)
        }));
        sink
    }

    /// The buffered rounds so far (completed rounds only).
    pub fn events(&self) -> &[RoundEvent] {
        &self.events
    }

    /// The counters accumulated so far.
    pub fn summary(&self) -> CountSummary {
        self.summary
    }

    /// Consume the sink: buffered events plus the final counters.
    pub fn finish(self) -> (Vec<RoundEvent>, CountSummary) {
        (self.events, self.summary)
    }

    /// One compact JSON object per round, in round order.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_value().to_json());
            out.push('\n');
        }
        out
    }

    fn current_mut(&mut self, round: u64) -> &mut RoundEvent {
        self.current.get_or_insert_with(|| RoundEvent::empty(round))
    }
}

impl<A: Algorithm> Observer<A> for TraceSink<A> {
    fn on_round_start(&mut self, round: u64, _states: &[A::State]) {
        self.current = Some(RoundEvent::empty(round));
    }

    fn on_message(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        let bytes = debug_len(&mut self.buf, msg);
        let is_self = src == dst;
        let e = self.current_mut(round);
        if is_self {
            e.self_messages += 1;
        } else {
            e.messages += 1;
        }
        e.payload_bytes += bytes;
        if is_self {
            self.summary.self_messages += 1;
        } else {
            self.summary.messages += 1;
        }
        self.summary.payload_bytes += bytes;
    }

    fn on_message_dropped(&mut self, round: u64, _src: usize, _dst: usize, _msg: &A::Msg) {
        self.current_mut(round).dropped += 1;
        self.summary.dropped += 1;
    }

    fn on_round_end(&mut self, round: u64, algo: &A, states: &[A::State]) {
        let mut e = self
            .current
            .take()
            .unwrap_or_else(|| RoundEvent::empty(round));
        if let Some(f) = self.residual.as_mut() {
            e.residual = Some(f(algo, states));
        }
        self.summary.rounds += 1;
        for s in states {
            let bytes = debug_len(&mut self.buf, s);
            self.summary.peak_state_bytes = self.summary.peak_state_bytes.max(bytes);
        }
        self.events.push(e);
    }
}

/// A deterministic fixed-bucket base-2 histogram over f64 magnitudes or
/// integer counts.
///
/// Buckets are binary exponents: a finite non-zero sample `x` lands in
/// bucket `e` iff `2^e <= |x| < 2^(e+1)`, read straight off the IEEE-754
/// exponent bits (subnormals all collapse into the minimum exponent
/// bucket, −1023). Zero and non-finite samples are tallied separately so
/// the histogram never invents a magnitude for them. There is no
/// floating-point arithmetic anywhere in the bucketing, so the histogram
/// is bitwise reproducible across platforms, runs, and thread counts —
/// it may appear in fingerprinted output (DESIGN.md §10).
///
/// The serde schema is stable by construction:
/// `{"zeros": u, "non_finite": u, "buckets": [[exp, count], ...]}` with
/// buckets sorted by ascending exponent and empty buckets omitted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Log2Histogram {
    zeros: u64,
    non_finite: u64,
    buckets: std::collections::BTreeMap<i32, u64>,
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Record one f64 sample by magnitude.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
        } else if x == 0.0 {
            self.zeros += 1;
        } else {
            let exp = ((x.to_bits() >> 52) & 0x7ff) as i32 - 1023;
            *self.buckets.entry(exp).or_insert(0) += 1;
        }
    }

    /// Record one non-negative integer count (`0` lands in `zeros`,
    /// `c > 0` in bucket `floor(log2 c)`).
    pub fn record_count(&mut self, c: u64) {
        if c == 0 {
            self.zeros += 1;
        } else {
            let exp = 63 - c.leading_zeros() as i32;
            *self.buckets.entry(exp).or_insert(0) += 1;
        }
    }

    /// Build a histogram over a slice of f64 samples.
    pub fn from_values(values: &[f64]) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for &x in values {
            h.record(x);
        }
        h
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.zeros + self.non_finite + self.buckets.values().sum::<u64>()
    }

    /// Samples that were exactly zero.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// Samples that were NaN or infinite.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Occupied `(exponent, count)` buckets in ascending exponent order.
    pub fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.buckets.iter().map(|(&e, &c)| (e, c))
    }

    /// Count in the bucket of binary exponent `exp` (0 when empty).
    pub fn count(&self, exp: i32) -> u64 {
        self.buckets.get(&exp).copied().unwrap_or(0)
    }
}

impl Serialize for Log2Histogram {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let buckets = self
            .buckets
            .iter()
            .map(|(&e, &c)| Value::Seq(vec![Value::Int(e as i64), Value::UInt(c)]))
            .collect();
        Value::Map(vec![
            ("zeros".to_string(), Value::UInt(self.zeros)),
            ("non_finite".to_string(), Value::UInt(self.non_finite)),
            ("buckets".to_string(), Value::Seq(buckets)),
        ])
    }
}

impl Deserialize for Log2Histogram {
    fn from_value(v: &serde::Value) -> Result<Log2Histogram, serde::Error> {
        let zeros = u64::from_value(v.field("zeros")?)?;
        let non_finite = u64::from_value(v.field("non_finite")?)?;
        let pairs: Vec<(i64, u64)> = Vec::from_value(v.field("buckets")?)?;
        let mut buckets = std::collections::BTreeMap::new();
        for (e, c) in pairs {
            let exp = i32::try_from(e).map_err(|_| serde::Error::custom("exponent overflow"))?;
            if buckets.insert(exp, c).is_some() {
                return Err(serde::Error::custom("duplicate histogram bucket"));
            }
        }
        Ok(Log2Histogram {
            zeros,
            non_finite,
            buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Broadcast, BroadcastAlgorithm};
    use crate::metric::DiscreteMetric;
    use crate::{Execution, RunConfig};
    use kya_graph::{generators, StaticGraph};

    /// Flood the maximum value.
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
            inbox.iter().copied().max().unwrap_or(*state).max(*state)
        }
        fn output(&self, state: &u32) -> u32 {
            *state
        }
    }

    #[test]
    fn counting_observer_counts_ring_traffic() {
        // Directed ring with self-loops: n real links + n self-loops per
        // round.
        let g = generators::directed_ring(5).with_self_loops();
        let mut exec = Execution::new(Broadcast(MaxFlood), vec![1, 2, 3, 4, 9]);
        let mut obs = CountingObserver::new();
        for _ in 0..4 {
            exec.step_observed(&g, &mut obs);
        }
        let s = obs.summary();
        assert_eq!(s.rounds, 4);
        assert_eq!(s.messages, 4 * 5);
        assert_eq!(s.self_messages, 4 * 5);
        assert_eq!(s.dropped, 0);
        // Every u32 here renders as one digit: 2 × 5 msgs × 1 byte/round.
        assert_eq!(s.payload_bytes, 4 * 10);
        assert_eq!(s.peak_state_bytes, 1);
    }

    #[test]
    fn trace_sink_buffers_rounds_with_residuals() {
        let net = StaticGraph::new(generators::directed_ring(4));
        let mut exec = Execution::new(Broadcast(MaxFlood), vec![9, 0, 0, 0]);
        let mut sink = TraceSink::with_residual(DiscreteMetric, 9u32);
        let report = exec.drive(
            &net,
            RunConfig::rounds(5)
                .measure(&DiscreteMetric, &9, 0.0)
                .observer(&mut sink),
        );
        assert_eq!(sink.events().len(), 5);
        for (i, e) in sink.events().iter().enumerate() {
            assert_eq!(e.round, i as u64 + 1);
            assert_eq!(e.messages, 4);
            assert_eq!(e.self_messages, 4);
            assert_eq!(e.residual, Some(report.distances[i]));
        }
        let nd = sink.to_ndjson();
        assert_eq!(nd.lines().count(), 5);
        assert!(
            nd.lines().next().unwrap().starts_with("{\"round\":1,"),
            "{nd}"
        );
        let (events, summary) = sink.finish();
        assert_eq!(summary.rounds, 5);
        assert_eq!(summary.messages, 5 * 4);
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn round_event_roundtrips_through_json() {
        let e = RoundEvent {
            round: 7,
            messages: 12,
            self_messages: 6,
            payload_bytes: 99,
            dropped: 2,
            residual: Some(0.125),
        };
        let json = serde::to_json_string(&e);
        let back: RoundEvent = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, e);
        let none = RoundEvent::empty(1);
        let json = serde::to_json_string(&none);
        assert!(json.contains("\"residual\":null"), "{json}");
        let back: RoundEvent = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, none);
    }

    #[test]
    fn count_summary_roundtrips_through_json() {
        let s = CountSummary {
            rounds: 3,
            messages: 10,
            self_messages: 5,
            payload_bytes: 42,
            dropped: 1,
            peak_state_bytes: 8,
        };
        let json = serde::to_json_string(&s);
        let back: CountSummary = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn log2_histogram_buckets_by_binary_exponent() {
        let mut h = Log2Histogram::new();
        for &x in &[1.0, 1.5, 1.999, 2.0, 3.0, 0.5, -4.0, 0.0, f64::NAN] {
            h.record(x);
        }
        assert_eq!(h.count(0), 3, "[1, 2) bucket");
        assert_eq!(h.count(1), 2, "[2, 4) bucket");
        assert_eq!(h.count(-1), 1, "[0.5, 1) bucket");
        assert_eq!(h.count(2), 1, "magnitude bucketing ignores sign");
        assert_eq!(h.zeros(), 1);
        assert_eq!(h.non_finite(), 1);
        assert_eq!(h.total(), 9);
        // Subnormals collapse into the minimum exponent bucket.
        h.record(f64::MIN_POSITIVE / 4.0);
        assert_eq!(h.count(-1023), 1);
    }

    #[test]
    fn log2_histogram_counts_and_schema_are_stable() {
        let mut h = Log2Histogram::new();
        for c in [0u64, 1, 2, 3, 4, 1024] {
            h.record_count(c);
        }
        assert_eq!(h.zeros(), 1);
        assert_eq!(h.count(0), 1, "count 1");
        assert_eq!(h.count(1), 2, "counts 2 and 3");
        assert_eq!(h.count(2), 1, "count 4");
        assert_eq!(h.count(10), 1, "count 1024");
        let json = serde::to_json_string(&h);
        assert_eq!(
            json,
            r#"{"zeros":1,"non_finite":0,"buckets":[[0,1],[1,2],[2,1],[10,1]]}"#,
        );
        let back: Log2Histogram = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, h);
    }
}

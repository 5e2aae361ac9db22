//! Probes: the flat executor's round events.
//!
//! The boxed executor's [`Observer`](crate::Observer) sees every message
//! as a value — far too slow for the million-agent flat engine, whose
//! whole point is that messages are never materialized individually. A
//! [`CountingProbe`], attached with
//! [`FlatRunConfig::probe`](crate::FlatRunConfig::probe), records the
//! same [`RoundEvent`] a boxed [`TraceSink`](crate::TraceSink) does
//! without seeing a message: every round of a static network delivers
//! the routing plan's slots, so the counters come from the plan (its
//! self-loop slots counted once per probed drive), and the digest is the
//! one sample digest ([`crate::telemetry`]) both engines take of the
//! post-round states.
//!
//! Determinism contract (DESIGN.md §10): the events are a pure function
//! of the algorithm, the initial states and the graph — **byte-identical
//! across thread counts and to the boxed trace of the same run** (the
//! conformance `probe` oracle compares the NDJSON of the flat probe at
//! threads 1/2/4 with the boxed `TraceSink`'s). Wall-clock phase timings
//! are the deliberate exception: they accumulate in a separate block
//! ([`CountingProbe::timing`]) and never enter the stream.
//!
//! An unprobed run pays nothing: the executor computes no counter and
//! reads no clock.

use crate::bits::StateBits;
use crate::telemetry::{sample_digest, CountSummary, RoundEvent};
use serde::{Deserialize, Serialize};

/// Wall-clock microseconds per phase of one flat round.
///
/// Timing is measured only when a probe is attached and **never** part
/// of the deterministic event stream ([`CountingProbe::events`]
/// excludes it; [`CountingProbe::timing`] hands back the accumulated
/// block separately).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Shard layout and span splitting.
    pub route_us: u64,
    /// The round's pass: inbox fold, transition, and next-message
    /// emission, fused per agent.
    pub pass_us: u64,
    /// The round event: counters and the state digest.
    pub merge_us: u64,
}

impl PhaseTimes {
    /// Accumulate another round's phase times into this block.
    fn accumulate(&mut self, other: &PhaseTimes) {
        self.route_us += other.route_us;
        self.pass_us += other.pass_us;
        self.merge_us += other.merge_us;
    }
}

/// The flat engine's round recorder: one [`RoundEvent`] per round and
/// the run's [`CountSummary`] — the schema of a boxed
/// [`TraceSink`](crate::TraceSink) — plus the (separate,
/// nondeterministic) accumulated [`PhaseTimes`].
#[derive(Clone, Debug, Default)]
pub struct CountingProbe {
    summary: CountSummary,
    events: Vec<RoundEvent>,
    timing: PhaseTimes,
}

impl CountingProbe {
    /// A fresh probe.
    pub fn new() -> CountingProbe {
        CountingProbe::default()
    }

    /// Run totals so far.
    pub fn summary(&self) -> CountSummary {
        self.summary
    }

    /// The per-round event stream, rendered by
    /// [`telemetry::to_ndjson`](crate::telemetry::to_ndjson).
    pub fn events(&self) -> &[RoundEvent] {
        &self.events
    }

    /// Accumulated wall-clock phase breakdown — the timing block. Never
    /// include this in fingerprinted or NDJSON output.
    pub fn timing(&self) -> PhaseTimes {
        self.timing
    }

    /// Record round `round` of a flat run: `traffic` holds its counters
    /// (the same every round of a static plan), `state_words` the size
    /// of one agent's state, and `states` the post-round configuration
    /// that the digest samples.
    pub(crate) fn record_round<S: StateBits>(
        &mut self,
        round: u64,
        (traffic, state_words): &(RoundEvent, u64),
        states: impl ExactSizeIterator<Item = S>,
    ) {
        let e = RoundEvent {
            round,
            digest: sample_digest(states),
            ..traffic.clone()
        };
        self.summary.add(&e, *state_words);
        self.events.push(e);
    }

    /// Add one round's wall-clock phase breakdown to the timing block.
    pub(crate) fn record_times(&mut self, times: &PhaseTimes) {
        self.timing.accumulate(times);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::to_ndjson;

    #[test]
    fn counting_probe_records_round_events() {
        let mut p = CountingProbe::new();
        let traffic = RoundEvent {
            messages: 12,
            self_messages: 4,
            payload_words: 32,
            ..RoundEvent::empty(0)
        };
        p.record_round(1, &(traffic, 2), [1.0, 2.0].iter());
        let s = p.summary();
        assert_eq!((s.rounds, s.messages, s.self_messages), (1, 12, 4));
        assert_eq!((s.payload_words, s.dropped, s.peak_state_words), (32, 0, 2));
        assert_eq!(p.events()[0].round, 1);
        assert_eq!(p.events()[0].digest, sample_digest([1.0, 2.0].iter()));
        // The stream excludes timing and serializes stably.
        let ndjson = to_ndjson(p.events());
        assert!(ndjson.starts_with("{\"round\":1,"), "{ndjson}");
        assert!(!ndjson.contains("_us"), "timing leaked into the stream");
        let back: RoundEvent = serde::from_json_str(ndjson.trim_end()).expect("stream line parses");
        assert_eq!(back, p.events()[0]);
    }

    #[test]
    fn phase_times_accumulate_separately_from_the_stream() {
        let mut p = CountingProbe::new();
        p.record_times(&PhaseTimes {
            route_us: 1,
            pass_us: 5,
            merge_us: 4,
        });
        p.record_times(&PhaseTimes {
            route_us: 10,
            pass_us: 50,
            merge_us: 40,
        });
        assert_eq!(p.timing().pass_us, 55);
        assert!(p.events().is_empty(), "timing alone emits no stream");
    }
}

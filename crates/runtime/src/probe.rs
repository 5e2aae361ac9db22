//! Probes: deterministic metrics for the flat executor's sharded hot
//! path.
//!
//! The boxed executor's [`Observer`](crate::Observer) sees every message
//! as a value — far too slow for the million-agent flat engine, whose
//! whole point is that messages are never materialized individually. A
//! [`CountingProbe`], attached with
//! [`FlatRunConfig::probe`](crate::FlatRunConfig::probe), instead counts
//! each round from the routing plan: every round of a static network
//! delivers the plan's slots and writes every agent's state and message
//! lanes, whatever the thread count, so the probe records the same
//! stream at any thread count. On top of the counters, the probe digests
//! a strided subset of every state lane each round — enough to
//! fingerprint the trajectory without walking all `n` agents.
//!
//! Determinism contract (DESIGN.md §10): the per-round events are a pure
//! function of the algorithm, the initial columns, and the routing plan
//! — **bitwise identical across thread counts** (the conformance `probe`
//! oracle byte-diffs the streams at threads 1/2/4). Wall-clock phase
//! timings are the deliberate exception: they accumulate in a separate
//! block ([`CountingProbe::timing`]) and never enter the stream.
//!
//! An unprobed run pays nothing: the executor computes no counter and
//! reads no clock.

use crate::bits::Fnv1a;
use crate::telemetry::Log2Histogram;
use serde::{Deserialize, Serialize};

/// Target number of strided samples per state lane digested each round.
/// The stride is computed from `n` alone, so the sample set is
/// independent of thread count.
const LANE_SAMPLE_TARGET: usize = 64;

/// Wall-clock microseconds per phase of one flat round.
///
/// Timing is measured only when a probe is attached and **never** part
/// of the deterministic probe stream ([`CountingProbe::to_ndjson`] excludes
/// it; [`CountingProbe::timing`] hands back the accumulated block
/// separately).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Shard layout and span splitting.
    pub route_us: u64,
    /// The round's pass: inbox fold, transition, and next-message
    /// emission, fused per agent.
    pub pass_us: u64,
    /// Round counters and lane sampling.
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

/// One round of the deterministic probe stream (the flat analogue of
/// [`RoundEvent`](crate::RoundEvent)). Every field is thread-count
/// invariant; `sample_digest` folds the strided lane samples' exact
/// bits, so two streams agree iff the trajectories agree bitwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlatRoundEvent {
    /// 1-based round number.
    pub round: u64,
    /// Messages delivered this round (= the plan's slot count).
    pub messages_routed: u64,
    /// f64 lane writes of the round's pass.
    pub lane_writes: u64,
    /// Message-column bytes read by the round's inboxes.
    pub inbox_bytes: u64,
    /// FNV-1a over the bit patterns of the round's strided lane samples.
    pub sample_digest: u64,
}

/// Totals of a probed flat run, serialized into harness telemetry
/// blocks (`CellTelemetry.probe`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlatProbeSummary {
    /// Rounds observed.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages_routed: u64,
    /// Total f64 lane writes.
    pub lane_writes: u64,
    /// Total message-column bytes read by inboxes.
    pub inbox_bytes: u64,
    /// Individual lane samples hashed into the round digests.
    pub lane_samples: u64,
}

/// The workhorse probe: merged per-round counters, a bit-exact sample
/// digest per round, a per-round message-volume [`Log2Histogram`], and
/// the (separate, nondeterministic) accumulated [`PhaseTimes`].
#[derive(Clone, Debug, Default)]
pub struct CountingProbe {
    summary: FlatProbeSummary,
    events: Vec<FlatRoundEvent>,
    volume: Log2Histogram,
    timing: PhaseTimes,
}

impl CountingProbe {
    /// A fresh probe.
    pub fn new() -> CountingProbe {
        CountingProbe::default()
    }

    /// Run totals so far.
    pub fn summary(&self) -> FlatProbeSummary {
        self.summary.clone()
    }

    /// The per-round event stream.
    pub fn events(&self) -> &[FlatRoundEvent] {
        &self.events
    }

    /// Histogram of per-round delivered message volume.
    pub fn volume_histogram(&self) -> &Log2Histogram {
        &self.volume
    }

    /// Accumulated wall-clock phase breakdown — the timing block. Never
    /// include this in fingerprinted or NDJSON output.
    pub fn timing(&self) -> PhaseTimes {
        self.timing
    }

    /// The deterministic probe stream: one JSON object per round.
    /// Byte-identical at any thread count (CI diffs `--threads 1` vs
    /// `4`); contains no timing.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&serde::to_json_string(e));
            out.push('\n');
        }
        out
    }

    /// Record one executed round over a plan of `slots` inbox slots, with
    /// `lanes = (STATE_LANES, MSG_LANES)`: the round delivers `slots`
    /// messages, reading `slots × MSG_LANES × 8` message-column bytes,
    /// and writes one state and one message per agent. Then digest the
    /// exact bits of a strided sample of every state lane of the
    /// post-round agent-major `state` buffer: per lane in lane order, the
    /// lane index, then agents `0, s, 2s, ...` for a stride `s` chosen
    /// from the agent count alone.
    pub(crate) fn record_round(
        &mut self,
        round: u64,
        slots: usize,
        state: &[f64],
        (lanes, msg_lanes): (usize, usize),
    ) {
        let agents = state.len() / lanes;
        let messages_routed = slots as u64;
        let lane_writes = (agents * (lanes + msg_lanes)) as u64;
        let inbox_bytes = (slots * msg_lanes * std::mem::size_of::<f64>()) as u64;
        let stride = (agents / LANE_SAMPLE_TARGET).max(1);
        let mut digest = Fnv1a::new();
        for lane in 0..lanes {
            digest.write_word(lane as u64);
            for agent in state.chunks_exact(lanes).step_by(stride) {
                digest.write_word(agent[lane].to_bits());
                self.summary.lane_samples += 1;
            }
        }
        self.summary.rounds += 1;
        self.summary.messages_routed += messages_routed;
        self.summary.lane_writes += lane_writes;
        self.summary.inbox_bytes += inbox_bytes;
        self.volume.record_count(messages_routed);
        self.events.push(FlatRoundEvent {
            round,
            messages_routed,
            lane_writes,
            inbox_bytes,
            sample_digest: digest.digest(),
        });
    }

    /// Add one round's wall-clock phase breakdown to the timing block.
    pub(crate) fn record_times(&mut self, times: &PhaseTimes) {
        self.timing.accumulate(times);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_probe_counts_rounds_from_the_plan() {
        let mut p = CountingProbe::new();
        p.record_round(1, 16, &[1.0, 2.0], (1, 2));
        let s = p.summary();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.messages_routed, 16);
        assert_eq!(s.lane_writes, 6);
        assert_eq!(s.inbox_bytes, 256);
        assert_eq!(s.lane_samples, 2);
        assert_eq!(p.events().len(), 1);
        assert_eq!(p.events()[0].messages_routed, 16);
        assert_eq!(p.volume_histogram().count(4), 1, "16 messages → bucket 4");
        // The stream excludes timing and serializes stably.
        let ndjson = p.to_ndjson();
        assert!(ndjson.starts_with("{\"round\":1,"), "{ndjson}");
        assert!(!ndjson.contains("_us"), "timing leaked into the stream");
        let back: FlatRoundEvent =
            serde::from_json_str(ndjson.trim_end()).expect("stream line parses");
        assert_eq!(back, p.events()[0]);
    }

    #[test]
    fn sample_digest_is_bit_sensitive() {
        let mut a = CountingProbe::new();
        let mut b = CountingProbe::new();
        for (p, x) in [(&mut a, 1.0f64), (&mut b, 1.0 + f64::EPSILON)] {
            p.record_round(1, 0, &[x], (1, 1));
        }
        assert_ne!(a.events()[0].sample_digest, b.events()[0].sample_digest);
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
        assert!(p.to_ndjson().is_empty(), "timing alone emits no stream");
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let s = FlatProbeSummary {
            rounds: 5,
            messages_routed: 100,
            lane_writes: 400,
            inbox_bytes: 1600,
            lane_samples: 40,
        };
        let json = serde::to_json_string(&s);
        let back: FlatProbeSummary = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, s);
    }
}

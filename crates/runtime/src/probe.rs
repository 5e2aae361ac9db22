//! Probes: deterministic metrics for the flat executor's sharded hot
//! path.
//!
//! The boxed executor's [`Observer`](crate::Observer) sees every message
//! as a value — far too slow for the million-agent flat engine, whose
//! whole point is that messages are never materialized individually. A
//! [`CountingProbe`], attached with
//! [`FlatRunConfig::probe`](crate::FlatRunConfig::probe), instead reads
//! the *shard* structure of the round: each shard of the round's single
//! pass reports plain counters for its agent range, and the main thread
//! merges them in canonical ascending shard order after the join, so the
//! probe records the same stream at any thread count. On top of the
//! counters, the probe digests a strided subset of every state lane each
//! round — enough to fingerprint the trajectory without walking all `n`
//! agents.
//!
//! Determinism contract (DESIGN.md §10): the per-round events are a pure
//! function of the algorithm, the initial columns, and the routing plan
//! — **bitwise identical across thread counts** (the conformance `probe`
//! oracle byte-diffs the streams at threads 1/2/4). Wall-clock phase
//! timings are the deliberate exception: they accumulate in a separate
//! block ([`CountingProbe::timing`]) and never enter the stream.
//!
//! An unprobed run pays only for the counters: each shard computes them
//! once from its range, outside the per-agent loop, and the executor
//! reads no clock.

use crate::bits::Fnv1a;
use crate::telemetry::Log2Histogram;
use serde::{Deserialize, Serialize};

/// Plain counters of one shard of one round's pass. Per-shard values
/// depend on the shard layout (and therefore on the thread count); only
/// their merged per-round totals enter the probe stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ShardCounters {
    /// Messages the shard delivered: the inbox slots (in-edges) of its
    /// agents.
    pub(crate) messages_routed: u64,
    /// f64 lane writes the shard performed: each agent's new state and
    /// next message.
    pub(crate) lane_writes: u64,
    /// Message-column bytes the shard's inboxes read
    /// (`messages_routed × MSG_LANES × 8`).
    pub(crate) inbox_bytes: u64,
}

impl ShardCounters {
    /// Fold another shard's counters into this one.
    fn merge(&mut self, other: &ShardCounters) {
        self.messages_routed += other.messages_routed;
        self.lane_writes += other.lane_writes;
        self.inbox_bytes += other.inbox_bytes;
    }
}

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
    /// Counter merge and lane sampling.
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

    /// Record one executed round: merge the per-shard counters (in
    /// ascending shard order) into the round's totals, and digest the
    /// exact bits of a strided sample of every state lane of the
    /// post-round agent-major `state` buffer (`lanes` lanes per agent):
    /// per lane in lane order, the lane index, then agents `0, s, 2s,
    /// ...` for a stride `s` chosen from the agent count alone.
    pub(crate) fn record_round(
        &mut self,
        round: u64,
        shards: &[ShardCounters],
        state: &[f64],
        lanes: usize,
    ) {
        let mut total = ShardCounters::default();
        for c in shards {
            total.merge(c);
        }
        let stride = (state.len() / lanes / LANE_SAMPLE_TARGET).max(1);
        let mut digest = Fnv1a::new();
        for lane in 0..lanes {
            digest.write_word(lane as u64);
            for agent in state.chunks_exact(lanes).step_by(stride) {
                digest.write_word(agent[lane].to_bits());
                self.summary.lane_samples += 1;
            }
        }
        self.summary.rounds += 1;
        self.summary.messages_routed += total.messages_routed;
        self.summary.lane_writes += total.lane_writes;
        self.summary.inbox_bytes += total.inbox_bytes;
        self.volume.record_count(total.messages_routed);
        self.events.push(FlatRoundEvent {
            round,
            messages_routed: total.messages_routed,
            lane_writes: total.lane_writes,
            inbox_bytes: total.inbox_bytes,
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
    fn counting_probe_merges_shards_into_round_totals() {
        let mut p = CountingProbe::new();
        let shards = [
            ShardCounters {
                messages_routed: 9,
                lane_writes: 16,
                inbox_bytes: 144,
            },
            ShardCounters {
                messages_routed: 7,
                lane_writes: 16,
                inbox_bytes: 112,
            },
        ];
        p.record_round(1, &shards, &[1.0, 2.0], 1);
        let s = p.summary();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.messages_routed, 16);
        assert_eq!(s.lane_writes, 32);
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
            p.record_round(1, &[ShardCounters::default()], &[x], 1);
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

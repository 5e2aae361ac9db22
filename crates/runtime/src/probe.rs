//! Probes: deterministic metrics for the flat executor's sharded hot
//! path.
//!
//! The boxed executor's [`Observer`](crate::Observer) sees every message
//! as a value — far too slow for the million-agent flat engine, whose
//! whole point is that messages are never materialized individually. A
//! [`FlatProbe`] instead hooks the *shard* structure of
//! [`FlatExecution::step_probed`](crate::FlatExecution::step_probed):
//! each shard of the round's single pass accumulates plain counters
//! ([`ShardCounters`]) while it runs, and the main thread merges them in
//! canonical ascending shard order after the join, so a probe observes
//! the same stream at any thread count. On top of the counters, the
//! executor samples a strided
//! subset of every state lane each round ([`FlatProbe::on_lane_sample`])
//! — enough to fingerprint the trajectory without walking all `n`
//! agents.
//!
//! Determinism contract (DESIGN.md §10): everything a probe receives
//! through the counter and sample hooks is a pure function of the
//! algorithm, the initial columns, and the routing plan — **bitwise
//! identical across thread counts** (the conformance `probe` oracle
//! byte-diffs the streams at threads 1/2/4). Wall-clock phase timings
//! are the deliberate exception: they arrive only through the separate
//! [`FlatProbe::on_phase_times`] hook and must never be mixed into
//! fingerprinted output.
//!
//! Like the observer layer, the null case is free:
//! [`NullProbe`] sets [`FlatProbe::ENABLED`] to `false`, every counter
//! accumulation in the hot loops is gated on that associated `const`,
//! and monomorphization folds the branches away — `step_threads` *is*
//! `step_probed::<NullProbe>`, and the `flat_engine` bench guard pins
//! the zero cost.

use crate::bits::Fnv1a;
use crate::telemetry::Log2Histogram;
use serde::{Deserialize, Serialize};

/// Plain counters accumulated by one shard of one round's pass.
///
/// Per-shard values depend on the shard layout (and therefore on the
/// thread count); only the merged per-round totals delivered to
/// [`FlatProbe::on_round_end`] are thread-count invariant. Probes that
/// want deterministic output must aggregate totals, not shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Agents the shard processed (its contiguous range length).
    pub agents: u64,
    /// Messages the shard delivered: the inbox slots (in-edges) of its
    /// agents.
    pub messages_routed: u64,
    /// f64 lane writes the shard performed: each agent's new state and
    /// next message.
    pub lane_writes: u64,
    /// Message-column bytes the shard's inboxes read
    /// (`messages_routed × MSG_LANES × 8`).
    pub inbox_bytes: u64,
}

impl ShardCounters {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &ShardCounters) {
        self.agents += other.agents;
        self.messages_routed += other.messages_routed;
        self.lane_writes += other.lane_writes;
        self.inbox_bytes += other.inbox_bytes;
    }
}

/// Wall-clock microseconds per phase of one flat round.
///
/// Timing is measured only when a probe is enabled, reported only
/// through [`FlatProbe::on_phase_times`], and **never** part of the
/// deterministic probe stream ([`CountingProbe::to_ndjson`] excludes
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
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.route_us += other.route_us;
        self.pass_us += other.pass_us;
        self.merge_us += other.merge_us;
    }
}

/// Phase-level hooks driven by
/// [`FlatExecution::step_probed`](crate::FlatExecution::step_probed).
///
/// Per round, the call order is fixed: `on_round_start` → one
/// `on_shard` per shard in ascending shard order → one `on_lane_sample`
/// per state lane in lane order → `on_round_end` with the merged totals
/// → `on_phase_times`. All hooks run on the calling
/// thread; worker threads only fill [`ShardCounters`] by value.
pub trait FlatProbe {
    /// Whether the executor should do any probe work at all. The hot
    /// loops gate every accumulation on this associated `const`, so a
    /// `false` instantiation (the [`NullProbe`]) compiles to the bare
    /// unprobed round.
    const ENABLED: bool = true;

    /// Round `round` (1-based) over `n` agents is about to execute.
    fn on_round_start(&mut self, round: u64, n: usize) {
        let _ = (round, n);
    }

    /// Counters of shard `shard` (ascending order).
    fn on_shard(&mut self, shard: usize, counters: &ShardCounters) {
        let _ = (shard, counters);
    }

    /// A strided sample of state lane `lane` after the round's swap:
    /// agents `0, s, 2s, ...` for a deterministic stride `s` chosen from
    /// `n` alone.
    fn on_lane_sample(&mut self, round: u64, lane: usize, samples: &[f64]) {
        let _ = (round, lane, samples);
    }

    /// The round finished; `total` is merged over all shards
    /// (thread-count invariant).
    fn on_round_end(&mut self, round: u64, total: &ShardCounters) {
        let _ = (round, total);
    }

    /// Wall-clock phase breakdown of the round. Keep this out of any
    /// deterministic output.
    fn on_phase_times(&mut self, round: u64, times: &PhaseTimes) {
        let _ = (round, times);
    }
}

/// The zero-cost default: disables all probe work at compile time.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProbe;

impl FlatProbe for NullProbe {
    const ENABLED: bool = false;
}

impl<P: FlatProbe> FlatProbe for &mut P {
    const ENABLED: bool = P::ENABLED;

    fn on_round_start(&mut self, round: u64, n: usize) {
        (**self).on_round_start(round, n);
    }

    fn on_shard(&mut self, shard: usize, counters: &ShardCounters) {
        (**self).on_shard(shard, counters);
    }

    fn on_lane_sample(&mut self, round: u64, lane: usize, samples: &[f64]) {
        (**self).on_lane_sample(round, lane, samples);
    }

    fn on_round_end(&mut self, round: u64, total: &ShardCounters) {
        (**self).on_round_end(round, total);
    }

    fn on_phase_times(&mut self, round: u64, times: &PhaseTimes) {
        (**self).on_phase_times(round, times);
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
    cur: ShardCounters,
    cur_digest: Fnv1a,
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
}

impl FlatProbe for CountingProbe {
    fn on_round_start(&mut self, _round: u64, _n: usize) {
        self.cur = ShardCounters::default();
        self.cur_digest = Fnv1a::new();
    }

    fn on_shard(&mut self, _shard: usize, counters: &ShardCounters) {
        self.cur.merge(counters);
    }

    fn on_lane_sample(&mut self, _round: u64, lane: usize, samples: &[f64]) {
        self.cur_digest.write_word(lane as u64);
        for &x in samples {
            self.cur_digest.write_word(x.to_bits());
        }
        self.summary.lane_samples += samples.len() as u64;
    }

    fn on_round_end(&mut self, round: u64, total: &ShardCounters) {
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
            sample_digest: self.cur_digest.digest(),
        });
    }

    fn on_phase_times(&mut self, _round: u64, times: &PhaseTimes) {
        self.timing.accumulate(times);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled_at_compile_time() {
        const { assert!(!NullProbe::ENABLED) };
        const { assert!(CountingProbe::ENABLED) };
        // The forwarding impl inherits the wrapped probe's switch.
        const { assert!(!<&mut NullProbe as FlatProbe>::ENABLED) };
    }

    #[test]
    fn counting_probe_merges_shards_into_round_totals() {
        let mut p = CountingProbe::new();
        p.on_round_start(1, 8);
        p.on_shard(
            0,
            &ShardCounters {
                agents: 4,
                messages_routed: 9,
                lane_writes: 16,
                inbox_bytes: 144,
            },
        );
        p.on_shard(
            1,
            &ShardCounters {
                agents: 4,
                messages_routed: 7,
                lane_writes: 16,
                inbox_bytes: 112,
            },
        );
        p.on_lane_sample(1, 0, &[1.0, 2.0]);
        let total = p.cur;
        assert_eq!(total.messages_routed, 16);
        p.on_round_end(1, &total);
        let s = p.summary();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.messages_routed, 16);
        assert_eq!(s.lane_writes, 32);
        assert_eq!(s.inbox_bytes, 256);
        assert_eq!(s.lane_samples, 2);
        assert_eq!(p.events().len(), 1);
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
            p.on_round_start(1, 2);
            p.on_lane_sample(1, 0, &[x]);
            p.on_round_end(1, &ShardCounters::default());
        }
        assert_ne!(a.events()[0].sample_digest, b.events()[0].sample_digest);
    }

    #[test]
    fn phase_times_accumulate_separately_from_the_stream() {
        let mut p = CountingProbe::new();
        p.on_phase_times(
            1,
            &PhaseTimes {
                route_us: 1,
                pass_us: 5,
                merge_us: 4,
            },
        );
        p.on_phase_times(
            2,
            &PhaseTimes {
                route_us: 10,
                pass_us: 50,
                merge_us: 40,
            },
        );
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

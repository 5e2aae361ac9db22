//! Stable-schema result records and the sinks that collect them.
//!
//! Every cell produces one [`CellRecord`] with a fixed field order, so
//! the NDJSON/JSON renderings are byte-stable across runs and worker
//! counts — the property the CI determinism job diffs for.

use crate::runner::CellOutcome;
use crate::spec::{CellSpec, ExperimentSpec};
use kya_runtime::telemetry::{CountSummary, RoundEvent};
use kya_runtime::CellReport;
use serde::{Deserialize, Serialize, Value};

/// The optional `telemetry` block of a [`CellRecord`]: the cell's
/// observer counters plus the runner's own measurements.
///
/// The counter fields are deterministic (they restate the cell's
/// [`CountSummary`], from a boxed observer or a flat probe); `wall_us` and `queue_wait_us` are wall-clock and
/// therefore the **one deliberate exception** to byte-stable output —
/// they are only ever non-zero when the runner runs with telemetry
/// enabled (`kya trace`), never in plain sweeps, so the CI determinism
/// jobs that diff sweep NDJSON are unaffected.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CellTelemetry {
    /// Rounds the cell's observer saw.
    pub rounds: u64,
    /// Messages delivered over real links.
    pub messages: u64,
    /// Messages delivered over self-loops.
    pub self_messages: u64,
    /// Payload words delivered: the [`StateBits`](kya_runtime::bits::StateBits)
    /// words of every message, self-loops included.
    pub payload_words: u64,
    /// Messages lost to fault injection.
    pub dropped: u64,
    /// Largest single-agent state seen, in `StateBits` words.
    pub peak_state_words: u64,
    /// Wall-clock microseconds the cell function ran for (0 unless the
    /// runner's telemetry mode is on).
    pub wall_us: u64,
    /// Microseconds between the sweep starting and this cell being
    /// picked off the queue (0 unless the runner's telemetry mode is
    /// on).
    pub queue_wait_us: u64,
    /// [`TopologyCache`](crate::TopologyCache) hits by this cell's
    /// worker while the cell ran.
    pub cache_hits: u64,
    /// Cache misses by this cell's worker while the cell ran.
    pub cache_misses: u64,
}

impl CellTelemetry {
    /// A block carrying an observer's counters, with the runner-side
    /// fields zeroed.
    fn from_counts(c: &CountSummary) -> CellTelemetry {
        CellTelemetry {
            rounds: c.rounds,
            messages: c.messages,
            self_messages: c.self_messages,
            payload_words: c.payload_words,
            dropped: c.dropped,
            peak_state_words: c.peak_state_words,
            ..CellTelemetry::default()
        }
    }
}

/// One cell's result: the resolved axis values plus the outcome.
///
/// Serializes to a JSON object with a fixed key order (`experiment`,
/// `cell`, `topology`, `n`, `seed`, `algorithm`, `variant`, `plan`,
/// `cell_seed`, `ok`, `report`, `telemetry`, `details`); absent
/// verdicts, reports, and telemetry serialize as `null` so every record
/// has every key. The per-round trace buffer is **not** part of the
/// record's JSON — [`ResultSink::to_trace_ndjson`] renders it as its
/// own stream.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// The experiment name.
    pub experiment: String,
    /// The cell index in enumeration order.
    pub cell: usize,
    /// The resolved topology label.
    pub topology: String,
    /// The size-axis value.
    pub n: usize,
    /// The seed-axis value.
    pub seed: u64,
    /// The algorithm-axis label.
    pub algorithm: String,
    /// The variant-axis label.
    pub variant: String,
    /// The fault-plan label (e.g. `quiescent`, `p0.3+c2`).
    pub plan: String,
    /// The derived per-cell seed (replays the cell exactly).
    pub cell_seed: u64,
    /// Pass/fail verdict, when the cell is a certification.
    pub ok: Option<bool>,
    /// Measurement report, when the cell produced one.
    pub report: Option<CellReport>,
    /// Observer counters plus runner timing, when telemetry was on.
    pub telemetry: Option<CellTelemetry>,
    /// Experiment-specific detail fields, in insertion order.
    pub details: Vec<(String, Value)>,
    /// Per-round trace events, when the cell ran with a trace sink
    /// (rendered by [`ResultSink::to_trace_ndjson`], not in the record's
    /// own JSON).
    pub trace: Vec<RoundEvent>,
}

impl CellRecord {
    /// Assemble the record for `cell` from its outcome.
    pub fn new(spec: &ExperimentSpec, cell: &CellSpec, outcome: CellOutcome) -> CellRecord {
        CellRecord {
            experiment: spec.name().to_string(),
            cell: cell.index,
            topology: cell.topology.clone(),
            n: cell.n,
            seed: cell.seed,
            algorithm: cell.algorithm.clone(),
            variant: cell.variant.clone(),
            plan: cell.plan.label(),
            cell_seed: cell.cell_seed,
            ok: outcome.ok,
            report: outcome.report,
            telemetry: outcome.telemetry.as_ref().map(CellTelemetry::from_counts),
            details: outcome.details,
            trace: outcome.trace,
        }
    }

    /// Look up a detail value by key.
    pub fn detail(&self, key: &str) -> Option<&Value> {
        self.details.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl Serialize for CellRecord {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "experiment".to_string(),
                Value::Str(self.experiment.clone()),
            ),
            ("cell".to_string(), Value::UInt(self.cell as u64)),
            ("topology".to_string(), Value::Str(self.topology.clone())),
            ("n".to_string(), Value::UInt(self.n as u64)),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("algorithm".to_string(), Value::Str(self.algorithm.clone())),
            ("variant".to_string(), Value::Str(self.variant.clone())),
            ("plan".to_string(), Value::Str(self.plan.clone())),
            ("cell_seed".to_string(), Value::UInt(self.cell_seed)),
            ("ok".to_string(), self.ok.map_or(Value::Null, Value::Bool)),
            (
                "report".to_string(),
                self.report.as_ref().map_or(Value::Null, |r| r.to_value()),
            ),
            (
                "telemetry".to_string(),
                self.telemetry
                    .as_ref()
                    .map_or(Value::Null, |t| t.to_value()),
            ),
            ("details".to_string(), Value::Map(self.details.clone())),
        ])
    }
}

/// An in-memory collection of records in cell order, with stable
/// renderings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSink {
    records: Vec<CellRecord>,
}

impl ResultSink {
    /// An empty sink.
    pub fn new() -> ResultSink {
        ResultSink::default()
    }

    /// Append a record.
    pub fn push(&mut self, record: CellRecord) {
        self.records.push(record);
    }

    /// The collected records, in cell order.
    pub fn records(&self) -> &[CellRecord] {
        &self.records
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records were collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether no record carries a failing verdict (records without a
    /// verdict count as passing).
    pub fn all_ok(&self) -> bool {
        self.records.iter().all(|r| r.ok != Some(false))
    }

    /// Records with a failing verdict.
    pub fn failures(&self) -> Vec<&CellRecord> {
        self.records
            .iter()
            .filter(|r| r.ok == Some(false))
            .collect()
    }

    /// One compact JSON object per line, in cell order — the format the
    /// CI determinism job diffs between worker counts.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_value().to_json());
            out.push('\n');
        }
        out
    }

    /// One compact JSON object per **round event**, in cell order: each
    /// line is the cell's identifying keys (`experiment`, `cell`,
    /// `topology`, `n`) followed by the event's own fields. Cells
    /// without a trace buffer contribute no lines. Every field is
    /// deterministic, so the stream is byte-stable across runs and
    /// worker counts — the property the trace CI job diffs.
    pub fn to_trace_ndjson(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            for event in &r.trace {
                let mut entries = vec![
                    ("experiment".to_string(), Value::Str(r.experiment.clone())),
                    ("cell".to_string(), Value::UInt(r.cell as u64)),
                    ("topology".to_string(), Value::Str(r.topology.clone())),
                    ("n".to_string(), Value::UInt(r.n as u64)),
                ];
                match event.to_value() {
                    Value::Map(fields) => entries.extend(fields),
                    other => entries.push(("event".to_string(), other)),
                }
                out.push_str(&Value::Map(entries).to_json());
                out.push('\n');
            }
        }
        out
    }

    /// A single JSON document: `{"experiment": ..., "cells": [...]}`.
    pub fn to_json(&self) -> String {
        let experiment = self
            .records
            .first()
            .map(|r| r.experiment.clone())
            .unwrap_or_default();
        Value::Map(vec![
            ("experiment".to_string(), Value::Str(experiment)),
            ("cells".to_string(), Value::UInt(self.records.len() as u64)),
            (
                "records".to_string(),
                Value::Seq(self.records.iter().map(|r| r.to_value()).collect()),
            ),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CellOutcome;
    use crate::spec::ExperimentSpec;

    fn record() -> CellRecord {
        let spec = ExperimentSpec::new("t").topologies(["ring:{n}"]).sizes([4]);
        let cell = &spec.cells()[0];
        CellRecord::new(
            &spec,
            cell,
            CellOutcome::new().ok(true).detail("rounds_to_eps", 17u64),
        )
    }

    #[test]
    fn record_serializes_with_fixed_key_order() {
        let json = serde::to_json_string(&record());
        let exp = json.find("\"experiment\"").unwrap();
        let cell = json.find("\"cell\"").unwrap();
        let ok = json.find("\"ok\"").unwrap();
        let details = json.find("\"details\"").unwrap();
        assert!(exp < cell && cell < ok && ok < details, "{json}");
        assert!(json.contains("\"report\":null"), "{json}");
        assert!(json.contains("\"rounds_to_eps\":17"), "{json}");
    }

    #[test]
    fn sink_renders_ndjson_one_line_per_record() {
        let mut sink = ResultSink::new();
        sink.push(record());
        sink.push(record());
        let nd = sink.to_ndjson();
        assert_eq!(nd.lines().count(), 2);
        assert!(nd.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
    }

    #[test]
    fn all_ok_ignores_verdictless_records() {
        let mut sink = ResultSink::new();
        sink.push(record());
        let mut bad = record();
        bad.ok = None;
        sink.push(bad);
        assert!(sink.all_ok());
        assert!(sink.failures().is_empty());
        let mut bad = record();
        bad.ok = Some(false);
        sink.push(bad);
        assert!(!sink.all_ok());
        assert_eq!(sink.failures().len(), 1);
    }

    #[test]
    fn json_document_wraps_records() {
        let mut sink = ResultSink::new();
        sink.push(record());
        let doc = sink.to_json();
        assert!(doc.starts_with("{\"experiment\":\"t\""), "{doc}");
        assert!(doc.contains("\"cells\":1"), "{doc}");
    }
}

//! `kya profile` — the machine-readable flat-engine perf snapshot.
//!
//! Runs a seeded flat+boxed Push-Sum matrix and assembles a versioned
//! JSON document (`BENCH_flat.json`) with rounds/s, bytes/agent, the
//! wall-clock phase breakdown, and a host fingerprint — the repo's
//! perf-trajectory artifact and the CI regression hook.
//!
//! Two outputs, two disciplines (DESIGN.md §10):
//!
//! - [`run`] produces the **snapshot**: it contains wall-clock numbers
//!   (rounds/s, `phase_us`) and a host fingerprint, so it is *not*
//!   byte-stable — each measurement run writes a new trajectory point.
//!   [`validate`] checks a snapshot against the schema, which *is*
//!   stable ([`SCHEMA_VERSION`]).
//! - [`probe_stream`] produces the **deterministic probe stream** of
//!   the same matrix: the round events (counters and bit-exact state
//!   digests) a boxed trace would record, nothing wall-clock. The
//!   contract test pins it at `--threads 1` and `4`.

use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::{generators, Digraph, StaticGraph};
use kya_runtime::telemetry;
use kya_runtime::{CountingProbe, Execution, FlatExecution, FlatRunConfig, Isotropic, RunConfig};
use serde::Value;
use std::time::Instant;

/// Version of the `BENCH_flat.json` schema this build writes.
pub const SCHEMA_VERSION: u64 = 2;

/// The `kind` discriminator of a snapshot document.
pub const KIND: &str = "kya-flat-profile";

/// Convergence tolerance of the profile's measured runs.
const EPS: f64 = 1e-9;

/// Boxed cells are capped at this size: the boxed executor is the
/// baseline being escaped, and a 10^6-agent boxed run would dominate
/// the whole profile's wall-clock for a number nobody reads.
const BOXED_MAX_N: usize = 100_000;

/// The profile matrix: sizes, round budget, thread counts, seed.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Agent counts, one flat cell per (size, thread count).
    pub sizes: Vec<usize>,
    /// Round budget per cell.
    pub rounds: u64,
    /// Thread counts for the flat cells (boxed runs at 1 thread).
    pub threads: Vec<usize>,
    /// Seed of the random strongly-connected topology.
    pub seed: u64,
}

impl ProfileConfig {
    /// The full matrix of the acceptance criteria: n ∈ {10^5, 10^6}.
    pub fn full() -> ProfileConfig {
        ProfileConfig {
            sizes: vec![100_000, 1_000_000],
            rounds: 20,
            threads: vec![1, 4],
            seed: 1,
        }
    }

    /// A seconds-scale matrix for CI (`kya profile --smoke`).
    pub fn smoke() -> ProfileConfig {
        ProfileConfig {
            sizes: vec![1_000, 5_000],
            rounds: 8,
            threads: vec![1, 2],
            seed: 1,
        }
    }

    fn topology_label(&self, n: usize) -> String {
        format!("random:{n}:{}:{}", 2 * n, self.seed)
    }

    fn graph(&self, n: usize) -> Digraph {
        generators::random_strongly_connected(n, 2 * n, self.seed).with_self_loops()
    }

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % 101) as f64).collect()
    }
}

fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, |p| p.get())
}

fn host_fingerprint() -> Value {
    map(vec![
        ("os", Value::Str(std::env::consts::OS.to_string())),
        ("arch", Value::Str(std::env::consts::ARCH.to_string())),
        ("cpus", Value::UInt(host_cpus() as u64)),
    ])
}

/// Whether a cell runs more threads than the host has CPUs. Such a
/// cell time-slices cores: its rounds/s is not a speedup measurement.
fn oversubscribed(threads: usize) -> Value {
    Value::Bool(threads > host_cpus())
}

fn opt_u64(v: Option<u64>) -> Value {
    v.map_or(Value::Null, Value::UInt)
}

/// One flat cell: a pure timed run for rounds/s, then a probed measured
/// run for `converged_at`, the counters, and the phase breakdown.
fn flat_cell(cfg: &ProfileConfig, g: &Digraph, n: usize, threads: usize) -> Value {
    let values = ProfileConfig::values(n);
    let target = values.iter().sum::<f64>() / n.max(1) as f64;
    let states = PushSumState::averaging(&values);

    let mut timed = FlatExecution::new(PushSum, g, PushSumState::columns(&states));
    let bytes = timed.resident_bytes();
    let start = Instant::now();
    timed.drive(FlatRunConfig::rounds(cfg.rounds).threads(threads));
    let secs = start.elapsed().as_secs_f64().max(1e-9);

    let mut probed = FlatExecution::new(PushSum, g, PushSumState::columns(&states));
    let mut probe = CountingProbe::new();
    let report = probed.drive(
        FlatRunConfig::rounds(cfg.rounds)
            .threads(threads)
            .measure(target, EPS)
            .confirm(2)
            .probe(&mut probe),
    );
    // Every message is `MSG_LANES` f64 lanes of one `StateBits` word
    // each, so the inbox reads 8 bytes per payload word.
    let summary = probe.summary();
    let times = probe.timing();
    map(vec![
        ("engine", Value::Str("flat".to_string())),
        ("topology", Value::Str(cfg.topology_label(n))),
        ("n", Value::UInt(n as u64)),
        ("threads", Value::UInt(threads as u64)),
        ("oversubscribed", oversubscribed(threads)),
        ("rounds", Value::UInt(cfg.rounds)),
        ("rounds_per_sec", Value::Float(cfg.rounds as f64 / secs)),
        (
            "bytes_per_agent",
            Value::Float(bytes as f64 / n.max(1) as f64),
        ),
        ("converged_at", opt_u64(report.converged_at)),
        (
            "messages_routed",
            Value::UInt(summary.messages + summary.self_messages),
        ),
        ("inbox_bytes", Value::UInt(8 * summary.payload_words)),
        (
            "phase_us",
            map(vec![
                ("route", Value::UInt(times.route_us)),
                ("pass", Value::UInt(times.pass_us)),
                ("merge", Value::UInt(times.merge_us)),
            ]),
        ),
    ])
}

/// One boxed baseline cell: a pure timed run only (the boxed executor
/// has its own observer stack; here it is just the speedup denominator).
fn boxed_cell(cfg: &ProfileConfig, g: &Digraph, n: usize) -> Value {
    let states = PushSumState::averaging(&ProfileConfig::values(n));
    let net = StaticGraph::new(g.clone());
    let mut exec = Execution::new(Isotropic(PushSum), states);
    let start = Instant::now();
    exec.drive(&net, RunConfig::rounds(cfg.rounds));
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    map(vec![
        ("engine", Value::Str("boxed".to_string())),
        ("topology", Value::Str(cfg.topology_label(n))),
        ("n", Value::UInt(n as u64)),
        ("threads", Value::UInt(1)),
        ("oversubscribed", oversubscribed(1)),
        ("rounds", Value::UInt(cfg.rounds)),
        ("rounds_per_sec", Value::Float(cfg.rounds as f64 / secs)),
        ("bytes_per_agent", Value::Null),
        ("converged_at", Value::Null),
        ("messages_routed", Value::Null),
        ("inbox_bytes", Value::Null),
        ("phase_us", Value::Null),
    ])
}

/// Run the profile matrix and assemble the snapshot document.
pub fn run(cfg: &ProfileConfig) -> Value {
    let mut cells = Vec::new();
    for &n in &cfg.sizes {
        let g = cfg.graph(n);
        for &t in &cfg.threads {
            cells.push(flat_cell(cfg, &g, n, t));
        }
        if n <= BOXED_MAX_N {
            cells.push(boxed_cell(cfg, &g, n));
        }
    }
    map(vec![
        ("schema_version", Value::UInt(SCHEMA_VERSION)),
        ("kind", Value::Str(KIND.to_string())),
        ("host", host_fingerprint()),
        (
            "config",
            map(vec![
                (
                    "sizes",
                    Value::Seq(cfg.sizes.iter().map(|&n| Value::UInt(n as u64)).collect()),
                ),
                ("rounds", Value::UInt(cfg.rounds)),
                (
                    "threads",
                    Value::Seq(cfg.threads.iter().map(|&t| Value::UInt(t as u64)).collect()),
                ),
                ("seed", Value::UInt(cfg.seed)),
            ]),
        ),
        ("cells", Value::Seq(cells)),
    ])
}

/// The deterministic probe stream of the matrix at one thread count:
/// per cell, a header line (`{"cell": ..., "n": ..., "rounds": ...}`)
/// followed by the cell's [`CountingProbe`] round events as NDJSON.
/// Contains neither the thread count nor any wall-clock value, so two
/// streams from different `--threads` must be byte-identical — the
/// contract test checks exactly that.
pub fn probe_stream(cfg: &ProfileConfig, threads: usize) -> String {
    let mut out = String::new();
    for &n in &cfg.sizes {
        let g = cfg.graph(n);
        let states = PushSumState::averaging(&ProfileConfig::values(n));
        let mut exec = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
        let mut probe = CountingProbe::new();
        exec.drive(
            FlatRunConfig::rounds(cfg.rounds)
                .threads(threads)
                .probe(&mut probe),
        );
        let header = map(vec![
            ("cell", Value::Str(cfg.topology_label(n))),
            ("n", Value::UInt(n as u64)),
            ("rounds", Value::UInt(cfg.rounds)),
        ]);
        out.push_str(&header.to_json());
        out.push('\n');
        out.push_str(&telemetry::to_ndjson(probe.events()));
    }
    out
}

/// Integer accessor tolerant of the parser's `Int`/builder's `UInt`
/// split: a freshly built snapshot carries `UInt`s, a JSON round-trip
/// comes back as `Int`s.
fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn expect_key(cell: &Value, key: &str, where_: &str) -> Result<(), String> {
    if cell.get(key).is_none() {
        return Err(format!("{where_}: missing key `{key}`"));
    }
    Ok(())
}

/// Check a parsed snapshot against the [`SCHEMA_VERSION`] schema: the
/// version/kind discriminators, the host fingerprint, the config block,
/// and every cell's required keys (each labelled `oversubscribed` or
/// not; flat cells must carry `bytes_per_agent`, `messages_routed`, and
/// the three-phase `phase_us` block). Returns the first violation.
pub fn validate(doc: &Value) -> Result<(), String> {
    match doc.get("schema_version").map(value_u64) {
        Some(Some(v)) if v == SCHEMA_VERSION => {}
        Some(_) => {
            return Err(format!(
                "unsupported schema_version {:?}",
                doc.get("schema_version")
            ))
        }
        None => return Err("missing key `schema_version`".to_string()),
    }
    match doc.get("kind").and_then(Value::as_str) {
        Some(k) if k == KIND => {}
        other => return Err(format!("kind is {other:?}, expected `{KIND}`")),
    }
    let host = doc.get("host").ok_or("missing key `host`")?;
    for key in ["os", "arch", "cpus"] {
        expect_key(host, key, "host")?;
    }
    let config = doc.get("config").ok_or("missing key `config`")?;
    for key in ["sizes", "rounds", "threads", "seed"] {
        expect_key(config, key, "config")?;
    }
    let cells = doc
        .get("cells")
        .and_then(Value::as_seq)
        .ok_or("missing or non-array key `cells`")?;
    if cells.is_empty() {
        return Err("`cells` is empty".to_string());
    }
    for (i, cell) in cells.iter().enumerate() {
        let where_ = format!("cells[{i}]");
        for key in [
            "engine",
            "topology",
            "n",
            "threads",
            "oversubscribed",
            "rounds",
            "rounds_per_sec",
            "bytes_per_agent",
            "converged_at",
            "messages_routed",
            "inbox_bytes",
            "phase_us",
        ] {
            expect_key(cell, key, &where_)?;
        }
        if cell.get("engine").and_then(Value::as_str) == Some("flat") {
            for key in ["bytes_per_agent", "messages_routed"] {
                if matches!(cell.get(key), Some(Value::Null)) {
                    return Err(format!("{where_}: flat cell has null `{key}`"));
                }
            }
            let phases = cell.get("phase_us").ok_or("unreachable")?;
            for key in ["route", "pass", "merge"] {
                expect_key(phases, key, &format!("{where_}.phase_us"))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProfileConfig {
        ProfileConfig {
            sizes: vec![64],
            rounds: 3,
            threads: vec![1, 2],
            seed: 7,
        }
    }

    #[test]
    fn snapshot_validates_against_its_own_schema() {
        let doc = run(&tiny());
        validate(&doc).expect("schema-valid");
        // And survives a JSON round-trip.
        let text = doc.to_json();
        let back = Value::from_json(&text).expect("parses");
        validate(&back).expect("round-tripped snapshot still valid");
    }

    #[test]
    fn cells_past_the_cpu_count_are_labelled_oversubscribed() {
        let cpus = host_cpus();
        let doc = run(&ProfileConfig {
            threads: vec![1, cpus + 1],
            ..tiny()
        });
        let labels: Vec<(u64, bool)> = doc
            .get("cells")
            .and_then(Value::as_seq)
            .expect("cells")
            .iter()
            .map(|c| {
                let threads = c.get("threads").and_then(value_u64).expect("threads");
                let over = matches!(c.get("oversubscribed"), Some(Value::Bool(true)));
                (threads, over)
            })
            .collect();
        // Two flat cells plus the one-thread boxed baseline.
        assert_eq!(
            labels,
            vec![(1, cpus < 1), ((cpus + 1) as u64, true), (1, cpus < 1)]
        );
    }

    #[test]
    fn probe_stream_is_thread_count_invariant() {
        let cfg = tiny();
        let one = probe_stream(&cfg, 1);
        let four = probe_stream(&cfg, 4);
        assert!(!one.is_empty());
        assert_eq!(one, four, "probe stream depends on thread count");
        assert!(!one.contains("_us"), "wall-clock leaked into the stream");
    }

    #[test]
    fn validate_rejects_wrong_version_and_missing_cells() {
        let doc = map(vec![
            ("schema_version", Value::UInt(99)),
            ("kind", Value::Str(KIND.to_string())),
        ]);
        assert!(validate(&doc).unwrap_err().contains("schema_version"));
        let mut ok = run(&tiny());
        if let Value::Map(fields) = &mut ok {
            fields.retain(|(k, _)| k != "cells");
        }
        assert!(validate(&ok).unwrap_err().contains("cells"));
    }
}

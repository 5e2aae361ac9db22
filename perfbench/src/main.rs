//! `perfbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <flat_250k|check_full|census_exact> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--wrong-expected]
//!           [--trace-out <file>]
//! ```
//!
//! One process runs one workload. It builds the workload's inputs from
//! `--seed`, repeats the timed phase for about `--seconds`, checks every
//! output, and prints a host record followed, as its last line, by one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, computed from in-memory spans that are
//! written to `--trace-out` when the run ends. `--smoke` shrinks every
//! input to toy size; `--wrong-expected` perturbs every expected value,
//! so a correct program must fail its gates. See `README.md`.

mod census;
mod check;
mod flat;
mod host;
mod trace;

use std::path::PathBuf;
use trace::Tracer;

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub wrong: bool,
    pub nproc: usize,
}

impl Cfg {
    /// The same run shrunk to one toy-size pass: what a traced run uses
    /// to measure the layers its own workload leaves idle.
    fn probe(&self) -> Cfg {
        Cfg {
            seconds: 0.0,
            smoke: true,
            ..self.clone()
        }
    }

    /// Whether to start another repetition of the timed phase, given
    /// the seconds `spent` in earlier repetitions (set-up plus timed
    /// phase; correctness gates are not counted): always the first (the
    /// first two when traced, one traced and one not), then while one
    /// more of the last one's length still fits in the time budget.
    pub fn another(&self, reps: usize, spent: f64, last: f64) -> bool {
        let min = if self.traced { 2 } else { 1 };
        reps < min || spent + last <= self.seconds
    }
}

/// A named metric value with its unit.
#[derive(Clone, Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    host: Vec<(String, String)>,
}

fn put(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    // The first writer wins: a workload's own full-size measurement is
    // recorded before any toy-size probe of the same layer.
    if !list.iter().any(|m| m.name == name) {
        list.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

impl Outcome {
    /// Count one checked operation; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// A deterministic count: every repetition must give the same value,
    /// which is recorded as a per-layer metric.
    pub fn count(&mut self, name: &str, values: &[u64]) {
        let first = values.first().copied().unwrap_or(0);
        self.check(values.iter().all(|&v| v == first), || {
            format!("{name} differs between repetitions: {values:?}")
        });
        self.layer(name, first as f64, "count");
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        put(&mut self.e2e, name, value, unit);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        put(&mut self.layer, name, value, unit);
    }

    pub fn host(&mut self, key: &str, value: impl ToString) {
        if !self.host.iter().any(|(k, _)| k == key) {
            self.host.push((key.to_string(), value.to_string()));
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

const WORKLOADS: [&str; 3] = ["flat_250k", "check_full", "census_exact"];

fn run_workload(name: &str, cfg: &Cfg, tr: &mut Tracer, out: &mut Outcome) {
    match name {
        "flat_250k" => flat::run(cfg, tr, out),
        "check_full" => check::run(cfg, tr, out),
        "census_exact" => census::run(cfg, tr, out),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Args {
    workload: String,
    cfg: Cfg,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut smoke = false;
    let mut wrong = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            "--wrong-expected" => wrong = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Args {
        workload,
        cfg: Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced: traced.ok_or("--trace is required")?,
            smoke,
            wrong,
            nproc: host::nproc(),
        },
        trace_out,
    })
}

fn json_metrics(list: &[Metric]) -> String {
    let body: Vec<String> = list
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity: a non-finite reading is
            // reported as the largest finite value and fails the run.
            let v = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = &args.cfg;
    let mut tr = Tracer::new(cfg.traced);
    let mut out = Outcome::default();
    out.host("nproc", cfg.nproc);
    run_workload(&args.workload, cfg, &mut tr, &mut out);
    if cfg.traced {
        // Layers the workload leaves idle are measured on toy inputs.
        let probe = cfg.probe();
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            run_workload(other, &probe, &mut tr, &mut out);
        }
    }
    let gbps = host::stream_gbps(cfg.nproc, cfg.smoke);
    out.host("stream_gbps", gbps);
    out.layer("host.stream_gbps", gbps, "GB/s");
    let achieved = out
        .layer
        .iter()
        .find(|m| m.name == "runtime.flat.achieved_gbps");
    if let Some(achieved) = achieved.map(|m| m.value) {
        out.layer("runtime.flat.bw_frac", achieved / gbps, "ratio");
    }
    let metrics = if cfg.traced { &out.layer } else { &out.e2e }.clone();
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        out.check(false, || format!("metric {} is not finite", m.name));
    }
    if let (true, Some(path)) = (cfg.traced, &args.trace_out) {
        if let Err(e) = tr.write_ndjson(path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let host: Vec<String> = out
        .host
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"spans\":{},\"host\":{{{}}}}}",
        args.workload,
        cfg.seed,
        tr.len(),
        host.join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn first_metric_writer_wins() {
        let mut out = Outcome::default();
        out.layer("x", 1.0, "s");
        out.layer("x", 2.0, "s");
        assert_eq!(out.layer.len(), 1);
        assert_eq!(out.layer[0].value, 1.0);
    }

    #[test]
    fn unequal_counts_fail() {
        let mut out = Outcome::default();
        out.count("c", &[3, 3, 3]);
        assert_eq!(out.failed, 0);
        out.count("d", &[3, 4]);
        assert_eq!((out.attempted, out.failed), (2, 1));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.below(100)
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.below(100)
            })
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 100));
    }
}

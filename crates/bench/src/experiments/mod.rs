//! The experiment registry: every evaluation binary (`table1`,
//! `table2`, `f1`–`f8`) is a thin shim over [`run_main`], which drives a
//! [`kya_harness::Runner`] sweep from a set of [`ExperimentSpec`]s.
//!
//! Shared flags (every experiment): `--workers N` (parallelism; output
//! is byte-identical for every N), `--ndjson` / `--json` (machine
//! output), plus the harness sweep flags `--sizes`, `--seeds`, `--seed`,
//! `--rounds`, `--eps` where the experiment honours them. Experiments
//! may add extras (e.g. F6's `--drops` / `--crashes`).

pub mod f1;
pub mod f2;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod f7;
pub mod f8;
pub mod flat;
pub mod table1;
pub mod table2;

use kya_graph::{
    DynamicGraph, PairingScheduler, RandomDynamicGraph, RoundRobinCover, SparselyConnected,
    UniformRandom,
};
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, Runner, SpecError};
use kya_harness::{TelemetryMode, TopologyCache, SWEEP_FLAGS};
use kya_runtime::adversary::AsyncStarts;
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::telemetry::TraceSink;
use kya_runtime::{Algorithm, Execution, RunConfig};
use std::io::{self, Write};
use std::process::ExitCode;

/// Flags `kya trace` accepts on top of the sweep and experiment flags.
pub const TRACE_FLAGS: &[&str] = &["trace-out", "residuals"];

/// One registered experiment: spec construction, the per-cell function,
/// and the human rendering of a finished sweep.
pub struct Experiment {
    /// Registry name (`kya sweep <name>`, and the binary's identity).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Experiment-specific flags accepted on top of [`SWEEP_FLAGS`].
    pub extra_flags: &'static [&'static str],
    /// Build the specs to sweep (applying flag overrides).
    pub build: fn(&Args) -> Result<Vec<ExperimentSpec>, SpecError>,
    /// Execute one cell.
    pub cell: fn(&CellCtx) -> CellOutcome,
    /// Render one finished spec's sink for humans.
    pub render: fn(&ResultSink) -> String,
}

/// All registered experiments.
pub const EXPERIMENTS: &[&Experiment] = &[
    &table1::EXPERIMENT,
    &table2::EXPERIMENT,
    &f1::EXPERIMENT,
    &f2::EXPERIMENT,
    &f4::EXPERIMENT,
    &f5::EXPERIMENT,
    &f6::EXPERIMENT,
    &f7::EXPERIMENT,
    &f8::EXPERIMENT,
    &flat::EXPERIMENT,
];

/// Look up an experiment by registry name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().copied().find(|e| e.name == name)
}

/// Run an experiment end to end and render its sinks as the flags ask
/// (`--ndjson`, `--json`, or the experiment's own table); returns the
/// text, which the caller prints, and whether every verdict-bearing
/// cell passed.
///
/// # Errors
///
/// Returns a [`SpecError`] for unknown experiments or malformed flags.
pub fn run(name: &str, argv: &[String]) -> Result<(String, bool), SpecError> {
    let (exp, sinks) = run_collect(name, argv, TelemetryMode::off(), &[])?;
    let args = Args::parse(argv);
    let mut text = String::new();
    for sink in &sinks {
        if args.is_set("ndjson") {
            text.push_str(&sink.to_ndjson());
        } else if args.is_set("json") {
            text.push_str(&sink.to_json());
            text.push('\n');
        } else {
            text.push_str(&(exp.render)(sink));
            text.push('\n');
        }
    }
    Ok((text, sinks.iter().all(ResultSink::all_ok)))
}

/// Parse flags, build the specs, and sweep them — the shared engine of
/// `kya sweep` (telemetry off) and `kya trace` (telemetry on). Returns
/// the registry entry and one sink per spec, in spec order, leaving the
/// rendering to the caller.
///
/// # Errors
///
/// Returns a [`SpecError`] for unknown experiments, bare arguments, or
/// flags outside [`SWEEP_FLAGS`] + the experiment's extras +
/// `extra_valid`.
pub fn run_collect(
    name: &str,
    argv: &[String],
    telemetry: TelemetryMode,
    extra_valid: &[&str],
) -> Result<(&'static Experiment, Vec<ResultSink>), SpecError> {
    let exp = find(name).ok_or_else(|| {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        SpecError(format!(
            "unknown experiment `{name}` (known: {})",
            known.join(", ")
        ))
    })?;
    let args = Args::parse(argv);
    if !args.bare().is_empty() {
        return Err(SpecError(format!(
            "unexpected arguments {:?} for `{name}`",
            args.bare()
        )));
    }
    let mut valid: Vec<&str> = SWEEP_FLAGS.to_vec();
    valid.extend_from_slice(exp.extra_flags);
    valid.extend_from_slice(extra_valid);
    args.reject_unknown(name, &valid)?;
    let workers = args.usize_flag("workers", 1)?;

    let specs = (exp.build)(&args)?;
    // One cache across the experiment's specs: e.g. F1's ring sweep and
    // F2's ring sweep each share parsed graphs and diameters.
    let cache = TopologyCache::new();
    let sinks: Vec<ResultSink> = specs
        .iter()
        .map(|spec| {
            Runner::new(spec)
                .workers(workers)
                .telemetry(telemetry)
                .run_with_cache(&cache, exp.cell)
        })
        .collect();
    Ok((exp, sinks))
}

/// Run `exec` until its outputs sit in a stable ε-ball around `target`
/// (`RunConfig::confirm` semantics), honouring the context's telemetry
/// mode: with telemetry on, a [`TraceSink`] with a residual column
/// observes every round and its counters/events land in the outcome;
/// with `--residuals`, the report additionally keeps its per-round
/// distance series. Returns the convergence verdict alongside the
/// assembled outcome so callers can attach it (or not) as `ok`.
pub(crate) fn observed_convergence<A>(
    ctx: &CellCtx,
    mut exec: Execution<A>,
    net: &dyn DynamicGraph,
    target: f64,
    eps: f64,
    confirm: u64,
) -> (bool, CellOutcome)
where
    A: Algorithm<Output = f64> + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
{
    let mode = ctx.telemetry;
    if !mode.enabled() {
        let report = exec.drive(
            net,
            RunConfig::rounds(ctx.rounds())
                .measure(&EuclideanMetric, &target, eps)
                .confirm(confirm),
        );
        return (
            report.converged(),
            CellOutcome::new().report(report.without_trace()),
        );
    }
    let mut sink = TraceSink::with_residual(EuclideanMetric, target);
    let report = exec.drive(
        net,
        RunConfig::rounds(ctx.rounds())
            .measure(&EuclideanMetric, &target, eps)
            .confirm(confirm)
            .observer(&mut sink),
    );
    let (events, summary) = sink.finish();
    let converged = report.converged();
    let mut outcome = CellOutcome::new().telemetry(summary);
    if mode.trace {
        outcome = outcome.trace(events);
    }
    let report = if mode.residuals {
        report
    } else {
        report.without_trace()
    };
    (converged, outcome.report(report))
}

/// The shared `main` of every experiment binary: parse `std::env` args,
/// run, exit non-zero on errors or failed certifications.
pub fn run_main(name: &str) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    main_with(name, &argv, &mut io::stdout().lock())
}

/// [`run_main`] writing to `out`. A reader that closes the pipe early
/// (`f1_pushsum_rate --ndjson | head`) has taken all the output it
/// wants, so a broken pipe ends the binary quietly and successfully;
/// any other failed write is an error.
fn main_with(name: &str, argv: &[String], out: &mut dyn Write) -> ExitCode {
    let (text, ok) = match run(name, argv) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: cannot write to standard output: {e}");
            ExitCode::FAILURE
        }
        Ok(()) if ok => ExitCode::SUCCESS,
        Ok(()) => {
            eprintln!("{name}: some cells FAILED — see [XX] lines above");
            ExitCode::FAILURE
        }
    }
}

/// Interpret the dynamic-network topology labels the static-graph
/// grammar does not cover:
///
/// - `dyn:directed:N:EXTRA:SEED` / `dyn:symmetric:N:EXTRA:SEED` — a
///   [`RandomDynamicGraph`];
/// - `async:MAXDELAY:SEED:<dyn label>` — asynchronous starts on top of
///   a random dynamic graph;
/// - `sparse:BASEGAP:HORIZON:<dyn label>` — the geometric
///   sparsely-connected schedule (gaps 2, 4, 8, …);
/// - `pair:uniform:N:SEED` / `pair:cover:N:SEED` — an Angluin-style
///   [`PairingScheduler`] over `N` agents (seeded random matchings, or
///   the deterministic round-robin tournament).
pub fn dynamic_net(label: &str) -> Option<Box<dyn DynamicGraph>> {
    fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
        s.parse().ok()
    }
    fn rand_net(parts: &[&str]) -> Option<RandomDynamicGraph> {
        match parts {
            ["dyn", "directed", n, extra, seed] => Some(RandomDynamicGraph::directed(
                num(n)?,
                num(extra)?,
                num(seed)?,
            )),
            ["dyn", "symmetric", n, extra, seed] => Some(RandomDynamicGraph::symmetric(
                num(n)?,
                num(extra)?,
                num(seed)?,
            )),
            _ => None,
        }
    }
    let parts: Vec<&str> = label.split(':').collect();
    match parts.as_slice() {
        ["dyn", ..] => rand_net(&parts).map(|g| Box::new(g) as Box<dyn DynamicGraph>),
        ["async", delay, seed, rest @ ..] => {
            let inner = rand_net(rest)?;
            Some(Box::new(AsyncStarts::random(
                inner,
                num(delay)?,
                num(seed)?,
            )))
        }
        ["sparse", gap, horizon, rest @ ..] => {
            let inner = rand_net(rest)?;
            Some(Box::new(SparselyConnected::geometric(
                inner,
                num(gap)?,
                num(horizon)?,
            )))
        }
        ["pair", "uniform", n, seed] => {
            let n: usize = num(n)?;
            Some(Box::new(PairingScheduler::new(
                n.max(2),
                UniformRandom::new((n / 2).max(1)),
                num(seed)?,
            )))
        }
        ["pair", "cover", n, seed] => Some(Box::new(PairingScheduler::new(
            num::<usize>(n)?.max(2),
            RoundRobinCover,
            num(seed)?,
        ))),
        _ => None,
    }
}

/// Parse a comma-separated `f64` list flag with a default (used by F6's
/// `--drops`).
pub(crate) fn f64_list_flag(
    args: &Args,
    key: &str,
    default: &[f64],
) -> Result<Vec<f64>, SpecError> {
    match args.optional(key) {
        None => Ok(default.to_vec()),
        Some(s) => s
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|item| {
                item.parse().map_err(|_| {
                    SpecError(format!("--{key} entries must be numbers, got `{item}`"))
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard output after its reader has gone: every write fails.
    struct ClosedPipe(io::ErrorKind);

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_ends_the_binary_quietly() {
        let argv = ["--sizes".to_string(), "16".to_string()];
        let code = main_with("flat", &argv, &mut ClosedPipe(io::ErrorKind::BrokenPipe));
        assert_eq!(code, ExitCode::SUCCESS);
        // Any other failed write, and any bad request, is an error.
        let code = main_with("flat", &argv, &mut ClosedPipe(io::ErrorKind::WriteZero));
        assert_eq!(code, ExitCode::FAILURE);
        let bad = ["--vaules".to_string()];
        let code = main_with("flat", &bad, &mut ClosedPipe(io::ErrorKind::BrokenPipe));
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn registry_finds_all_experiments() {
        for name in [
            "table1", "table2", "f1", "f2", "f4", "f5", "f6", "f7", "f8", "flat",
        ] {
            assert!(find(name).is_some(), "{name} registered");
        }
        assert!(find("f3").is_none(), "F3 rides inside f2");
        let argv = vec!["--nonsense".to_string()];
        assert!(run("f6", &argv).is_err(), "unknown flag rejected");
        assert!(run("nope", &[]).is_err(), "unknown experiment rejected");
    }

    #[test]
    fn traced_f1_rings_decay_monotonically_and_match_counters() {
        let argv: Vec<String> = ["--sizes", "8", "--seeds", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mode = TelemetryMode {
            trace: true,
            residuals: false,
        };
        let (_, sinks) = run_collect("f1", &argv, mode, TRACE_FLAGS).unwrap();
        assert_eq!(sinks.len(), 3, "f1 sweeps three specs");
        for sink in &sinks {
            for r in sink.records() {
                let t = r.telemetry.as_ref().expect("traced cells carry telemetry");
                assert_eq!(t.rounds as usize, r.trace.len(), "one event per round");
                let msgs: u64 = r.trace.iter().map(|e| e.messages).sum();
                let selfs: u64 = r.trace.iter().map(|e| e.self_messages).sum();
                assert_eq!(msgs, t.messages, "trace totals match the summary");
                assert_eq!(selfs, t.self_messages);
                assert!(r.trace.iter().all(|e| e.residual.is_some()));
            }
        }
        // Push-Sum on a connected directed ring: the worst-case distance
        // to the average never grows, and shrinks strictly until it hits
        // the f64 noise floor (ties only appear at ~1e-13 residuals).
        let rings = sinks[0].records();
        assert!(!rings.is_empty());
        for r in rings {
            let res: Vec<f64> = r.trace.iter().map(|e| e.residual.unwrap()).collect();
            assert!(
                res.windows(2).all(|w| w[1] <= w[0]),
                "residuals not monotone on {}",
                r.topology
            );
            assert!(
                res.windows(2).all(|w| w[1] < w[0] || w[0] < 1e-9),
                "residuals plateau above the noise floor on {}",
                r.topology
            );
            assert!(*res.last().unwrap() < 1e-6, "decayed below eps");
        }
    }

    #[test]
    fn sweeps_without_telemetry_stay_bare() {
        let argv: Vec<String> = ["--sizes", "4", "--seeds", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (_, sinks) = run_collect("f1", &argv, TelemetryMode::off(), &[]).unwrap();
        for sink in &sinks {
            for r in sink.records() {
                assert!(r.telemetry.is_none());
                assert!(r.trace.is_empty());
                let rep = r.report.as_ref().expect("f1 cells report");
                assert!(rep.distances.is_empty(), "residual series stripped");
            }
        }
    }

    #[test]
    fn dynamic_labels_parse() {
        assert!(dynamic_net("dyn:directed:12:6:555").is_some());
        assert!(dynamic_net("dyn:symmetric:16:4:2718").is_some());
        assert!(dynamic_net("async:8:4:dyn:symmetric:16:4:9182").is_some());
        assert!(dynamic_net("sparse:2:1023:dyn:directed:10:4:48").is_some());
        assert!(dynamic_net("pair:uniform:12:7").is_some());
        assert!(dynamic_net("pair:cover:9:0").is_some());
        assert!(dynamic_net("ring:6").is_none());
        assert!(dynamic_net("dyn:undirected:4:1:1").is_none());
        assert!(dynamic_net("pair:lottery:4:1").is_none());
    }
}

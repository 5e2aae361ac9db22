//! The experiment registry behind `kya sweep NAME` and `kya trace NAME`:
//! each experiment (`table1`, `table2`, `f1`–`f8`, `flat`) builds a set
//! of [`ExperimentSpec`]s, and [`run`] drives a [`kya_harness::Runner`]
//! sweep over them.
//!
//! Shared flags (every experiment): `--workers N` (parallelism; output
//! is byte-identical for every N), `--ndjson` / `--json` (machine
//! output), plus the harness sweep flags `--sizes`, `--seeds`, `--seed`,
//! `--rounds`, `--eps` where the experiment honours them; a sweep flag
//! an experiment's cells never read is an error, not a silent no-op.
//! Experiments may add extras (e.g. F6's `--drops` / `--crashes`).

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

use kya_graph::DynamicGraph;
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, Runner, SpecError};
use kya_harness::{TelemetryMode, TopologyCache, SWEEP_FLAGS};
use kya_runtime::bits::StateBits;
use kya_runtime::churn::ChurnPlan;
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::telemetry::TraceSink;
use kya_runtime::{Algorithm, Execution, RunConfig};

/// Flags `kya trace` accepts on top of the sweep and experiment flags.
pub const TRACE_FLAGS: &[&str] = &["trace-out", "residuals"];

/// One registered experiment: spec construction, the per-cell function,
/// and the human rendering of a finished sweep.
pub struct Experiment {
    /// Registry name (`kya sweep <name>`).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Experiment-specific flags accepted on top of [`SWEEP_FLAGS`].
    pub extra_flags: &'static [&'static str],
    /// Sweep flags the cells never read (Table 1's cells run a fixed set
    /// of networks, whatever the axes say); naming one is an error.
    pub ignored_flags: &'static [&'static str],
    /// The networks the cells run on.
    pub nets: Nets,
    /// Whether the variant axis holds [`ChurnPlan`] labels, whose
    /// windows [`run_collect`] checks against each cell's network.
    pub churn_variants: bool,
    /// Build the specs to sweep (applying flag overrides).
    pub build: fn(&Args) -> Result<Vec<ExperimentSpec>, SpecError>,
    /// Execute one cell.
    pub cell: fn(&CellCtx) -> CellOutcome,
    /// Render one finished spec's sink for humans.
    pub render: fn(&ResultSink) -> String,
}

/// The networks an experiment's cells run on, which decides how
/// [`run_collect`] resolves every topology label before any cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Nets {
    /// Static graphs of the [`kya_harness::parse_graph`] grammar.
    Static,
    /// Any network of the [`kya_harness::parse_net`] grammar.
    Any,
    /// Not resolved up front: the cells ignore the topology axis, or
    /// record a bad label as a failed cell.
    Unchecked,
}

impl Nets {
    /// Resolve `label` as these networks, through `cache`, and return its
    /// agent count (`None` when unchecked) or the error a bad label
    /// gives.
    fn resolve(self, cache: &TopologyCache, label: &str) -> Result<Option<usize>, SpecError> {
        match self {
            Nets::Static => cache.graph(label).map(|g| Some(g.n())),
            Nets::Any => cache.net(label).map(|net| Some(net.n())),
            Nets::Unchecked => Ok(None),
        }
    }
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
    if let Some(flag) = exp.ignored_flags.iter().find(|f| args.is_set(f)) {
        return Err(SpecError(format!(
            "`{name}` does not take --{flag}: its cells never read it"
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
    // A bad label, or a fault or churn script that breaks a rule or
    // names an agent its network lacks, ends the sweep here, before any
    // cell runs. Every cell crosses every plan and variant, so the
    // scripts are checked once per distinct network size.
    for spec in &specs {
        let churn = if exp.churn_variants {
            spec.variant_axis()
        } else {
            &[]
        };
        let mut checked = Vec::new();
        for label in spec.topology_labels() {
            let Some(n) = exp.nets.resolve(&cache, &label)? else {
                continue;
            };
            if checked.contains(&n) {
                continue;
            }
            checked.push(n);
            spec.plan_axis()
                .iter()
                .try_for_each(|plan| plan.check(n))
                .and_then(|()| {
                    churn
                        .iter()
                        .try_for_each(|v| ChurnPlan::parse(v)?.check_agents(n))
                })
                .map_err(|e| SpecError(format!("{label}: {e}")))?;
        }
    }
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
    A::State: Send + Sync + StateBits,
    A::Msg: Send + Sync + StateBits,
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

/// `spec` split into one spec per size of its size axis (an empty axis
/// counts as size 0), each on the topology `label(n)`: for a network
/// whose other parameters depend on its size, such as the extra pairs
/// of a symmetric one, which
/// [`kya_graph::generators::extra_pair_room`] bounds. A `--topologies`
/// axis leaves `spec` whole.
pub(crate) fn per_size(
    spec: ExperimentSpec,
    args: &Args,
    label: impl Fn(usize) -> String,
) -> Vec<ExperimentSpec> {
    if args.optional("topologies").is_some() {
        return vec![spec];
    }
    let sizes = match spec.size_axis() {
        [] => vec![0],
        sizes => sizes.to_vec(),
    };
    sizes
        .into_iter()
        .map(|n| spec.clone().topologies([label(n)]).sizes([n]))
        .collect()
}

/// The fixed inputs of the F6, F7 and F8 sweeps: agent `i` holds
/// `7i mod 13`, so the values spread over `0..13`.
pub fn inputs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 13) as f64).collect()
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
        let argv = vec!["--sizes".to_string(), "0,5".to_string()];
        assert!(run("table1", &argv).is_err(), "ignored flag rejected");
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
}

//! `kya` — the know-your-audience command line.
//!
//! ```text
//! kya tables                       print the paper's computability tables
//! kya minbase  --graph SPEC --values VALS
//!                                  centralized minimum base + fibre census
//! kya census   --graph SPEC --values VALS --model MODEL [--n | --leader K]
//!                                  run the distributed census to stabilization
//! kya pushsum  --n N --values VALS [--rounds R] [--bound B] [--seed S]
//!                                  Push-Sum frequencies on a random dynamic net
//! kya gossip   --graph SPEC --values VALS
//!                                  flood the value set (simple broadcast)
//! kya faults   --graph SPEC --values VALS [--drop P] [--dup P] [--crash A:FROM:UNTIL]
//!              [--until H] [--rounds R] [--seed S] [--eps E] [--plain] [--json]
//!                                  Push-Sum averaging under a fault script,
//!                                  with a measured recovery report (F6)
//! kya churn    --n N --values VALS [--fairness uniform|cover] [--churn SPEC]
//!              [--algo healing|metropolis] [--drop P] [--until H] [--rounds R]
//!              [--seed S] [--eps E] [--json]
//!                                  averaging on an Angluin-style pairing
//!                                  scheduler under a churn script, with a
//!                                  churn-aware recovery report (F8)
//! kya bandwidth --graph SPEC --values VALS [--bits B|inf] [--algo qpushsum|qmetropolis]
//!              [--rounds R] [--json]
//!                                  quantized averaging under a b-bit
//!                                  bandwidth cap, with the byte ledger and
//!                                  exact-ℚ token accounting (F7)
//! kya sweep    [EXPERIMENT] [--workers N] [--ndjson | --json] [flags...]
//!                                  run a registered experiment sweep on the
//!                                  parallel harness; no EXPERIMENT lists them
//! kya trace    [EXPERIMENT] [--trace-out FILE] [--residuals] [flags...]
//!                                  run a sweep with round-level telemetry:
//!                                  records (with counters) on stdout, one
//!                                  NDJSON line per round in the trace file
//! kya check    [--matrix small|full] [--workers N] [--ndjson] [--only CHECK]
//!                                  run the conformance matrix: differential
//!                                  oracles keeping the execution paths and
//!                                  arithmetic backends in agreement
//!                                  (--only restricts to one oracle, e.g.
//!                                  `--only backend` for the certified
//!                                  enclosure oracle alone)
//! kya profile  [--out FILE] [--smoke] [--threads LIST] [--probe-out FILE]
//!              [--validate FILE]
//!                                  run the seeded flat+boxed profile matrix
//!                                  and write the versioned BENCH_flat.json
//!                                  snapshot (rounds/s, bytes/agent, phase
//!                                  breakdown, host fingerprint)
//! ```
//!
//! Graph specs: `ring:6`, `biring:6`, `star:5`, `instar:5`, `path:4`,
//! `complete:4`, `torus:3x4` (or `torus:12`), `hypercube:3`,
//! `debruijn:2x3`, `kautz:2x1`, `layered:3x8`, `random:N:EXTRA:SEED`,
//! `randbi:N:EXTRA:SEED`.
//! Value lists: `1,2,3` or `5x3,7` (repeat shorthand).

use kya_algos::frequency::{CensusOutdegree, CensusPorts, CensusSymmetric, FibreCensus};
use kya_algos::gossip::SetGossip;
use kya_algos::metropolis::Metropolis;
use kya_algos::min_base::ViewState;
use kya_algos::push_sum::{round_to_grid, FrequencyState, PushSum, PushSumFrequency, PushSumState};
use kya_arith::{BigInt, BigRational};
use kya_bench::experiments::{f6, f7, f8};
use kya_core::table::{render_table, NetworkKind};
use kya_fibration::MinimumBase;
use kya_graph::{connectivity, Digraph, RandomDynamicGraph, StaticGraph};
use kya_harness::{
    parse_graph, parse_values, Args, CellOutcome, ExperimentSpec, Runner, SpecError, TelemetryMode,
};
use kya_runtime::churn::ChurnPlan;
use kya_runtime::faults::{parse_crashes, FaultPlan};
use kya_runtime::{BandwidthCap, Broadcast, ByteLedger, Execution, Isotropic, RunConfig};
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "usage:
  kya tables
  kya minbase --graph SPEC --values VALS
  kya census  --graph SPEC --values VALS --model outdegree|symmetric|ports [--n | --leader K]
  kya pushsum --n N --values VALS [--rounds R] [--bound B] [--seed S]
  kya gossip  --graph SPEC --values VALS
  kya faults  --graph SPEC --values VALS [--drop P] [--dup P] [--crash A:FROM:UNTIL,...]
              [--until H] [--rounds R] [--seed S] [--eps E] [--plain] [--json]
  kya churn   --n N --values VALS [--fairness uniform|cover] [--churn SPEC]
              [--algo healing|metropolis] [--drop P] [--until H] [--rounds R]
              [--seed S] [--eps E] [--json]
  kya bandwidth --graph SPEC --values VALS [--bits B|inf] [--algo qpushsum|qmetropolis]
              [--rounds R] [--json]
  kya sweep   [EXPERIMENT] [--workers N] [--ndjson | --json] [--engine boxed|flat|both]
              [sweep flags...]
  kya trace   [EXPERIMENT] [--trace-out FILE] [--residuals] [sweep flags...]
  kya check   [--matrix small|full] [--workers N] [--ndjson] [--only CHECK]
  kya profile [--out FILE] [--smoke] [--threads LIST] [--probe-out FILE]
              [--validate FILE]

graph specs: ring:6 biring:6 star:5 instar:N path:4 complete:4 torus:3x4
             torus:12 hypercube:3 debruijn:2x3 kautz:2x1 layered:3x8
             random:N:EXTRA:SEED randbi:N:EXTRA:SEED
value lists: 1,2,3 or 5x3,7 (repeat shorthand)
crash specs: AGENT:FROM:UNTIL (crash-recover) or AGENT:FROM:- (crash-stop)
churn specs: stable, or cAGENT:LEAVE:REJOIN[,...][+reset] (- = never rejoin),
             e.g. c1:10:30 or c1:10:30,2:20:45+reset
sweeps:      table1 table2 f1 f2 f4 f5 f6 f7 f8 flat (run `kya sweep` to list)";

/// Why a command stopped: a bad request, or a failed write to standard
/// output.
#[derive(Debug)]
enum CliError {
    Spec(SpecError),
    Io(io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Spec(e) => e.fmt(f),
            CliError::Io(e) => write!(f, "cannot write to standard output: {e}"),
        }
    }
}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> CliError {
        CliError::Spec(e)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> CliError {
        CliError::Io(e)
    }
}

/// The message `kya` exits with, or `None` for success. A reader that
/// closes the pipe early (`kya check --ndjson | head`) has taken all the
/// output it wants, so a broken pipe ends the command quietly and
/// successfully; any other failed write is an error.
fn exit_message(result: Result<(), CliError>) -> Option<String> {
    match result {
        Ok(()) => None,
        Err(CliError::Io(e)) if e.kind() == io::ErrorKind::BrokenPipe => None,
        Err(e) => Some(e.to_string()),
    }
}

fn graph_and_values(args: &Args) -> Result<(Digraph, Vec<u64>), SpecError> {
    let g = parse_graph(args.required("graph")?)?;
    let values = parse_values(args.required("values")?)?;
    if values.len() != g.n() {
        return Err(SpecError(format!(
            "graph has {} agents but {} values were given",
            g.n(),
            values.len()
        )));
    }
    Ok((g, values))
}

fn print_census(
    out: &mut dyn Write,
    census: &FibreCensus,
    n: usize,
    args: &Args,
) -> io::Result<()> {
    writeln!(out, "fibre census (ray {:?}):", census.ray())?;
    for (v, f) in census.frequencies() {
        writeln!(out, "  value {v}: frequency {f}")?;
    }
    if args.is_set("n") {
        match census.multiplicities_known_n(n) {
            Ok(mults) => {
                writeln!(out, "with n = {n} known:")?;
                for (v, m) in mults {
                    writeln!(out, "  value {v}: multiplicity {m}")?;
                }
            }
            Err(e) => writeln!(out, "with n known: {e}")?,
        }
    }
    if let Some(k) = args.optional("leader") {
        let ell: usize = k.parse().unwrap_or(1);
        match census.multiplicities_with_leaders(ell, kya_core::value::is_leader) {
            Ok(mults) => {
                writeln!(out, "with {ell} leader(s):")?;
                for (v, m) in mults {
                    let (payload, lead) = kya_core::value::decode(v);
                    writeln!(
                        out,
                        "  value {payload}{}: multiplicity {m}",
                        if lead { " (leader)" } else { "" }
                    )?;
                }
            }
            Err(e) => writeln!(out, "with leader(s): {e}")?,
        }
    }
    Ok(())
}

fn cmd_tables(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "{}", render_table(NetworkKind::Static))?;
    writeln!(out, "{}", render_table(NetworkKind::Dynamic))?;
    Ok(())
}

fn cmd_minbase(out: &mut dyn Write, args: &Args) -> Result<(), CliError> {
    let (g, values) = graph_and_values(args)?;
    if !connectivity::is_strongly_connected(&g) {
        return Err(SpecError("graph is not strongly connected".into()).into());
    }
    let closed = g.with_self_loops();
    let mb = MinimumBase::compute(&closed, &values);
    writeln!(
        out,
        "minimum base: {} fibres (graph is {}fibration prime)",
        mb.base().n(),
        if mb.is_prime() { "" } else { "not " }
    )?;
    for (i, members) in mb.partition().members().iter().enumerate() {
        writeln!(
            out,
            "  fibre {i}: value {}, size {}, members {:?}",
            mb.base_values()[i],
            members.len(),
            members
        )?;
    }
    writeln!(
        out,
        "base multiplicities {:?}",
        mb.base().multiplicity_matrix()
    )?;
    Ok(())
}

fn cmd_census(out: &mut dyn Write, args: &Args) -> Result<(), CliError> {
    let (g, mut values) = graph_and_values(args)?;
    if !connectivity::is_strongly_connected(&g) {
        return Err(SpecError("graph is not strongly connected".into()).into());
    }
    if args.optional("leader").is_some() {
        // Flag agent 0 as (the first) leader through its value.
        values[0] = kya_core::value::encode(values[0], true);
    }
    let d = connectivity::diameter(&g.with_self_loops()).unwrap_or(g.n());
    let rounds = (g.n() + d + 6) as u64;
    let net = StaticGraph::new(g.clone());
    let model = args.required("model")?;
    let census = match model {
        "outdegree" => {
            let mut exec = Execution::new(Isotropic(CensusOutdegree), ViewState::initial(&values));
            exec.drive(&net, RunConfig::rounds(rounds));
            exec.outputs()[0].clone()
        }
        "symmetric" => {
            if !g.is_bidirectional() {
                return Err(
                    SpecError("the symmetric model needs a bidirectional graph".into()).into(),
                );
            }
            let mut exec = Execution::new(Broadcast(CensusSymmetric), ViewState::initial(&values));
            exec.drive(&net, RunConfig::rounds(rounds));
            exec.outputs()[0].clone()
        }
        "ports" => {
            let mut exec = Execution::new(CensusPorts, ViewState::initial(&values));
            exec.drive(&net, RunConfig::rounds(rounds));
            exec.outputs()[0].clone()
        }
        other => {
            return Err(SpecError(format!(
                "unknown model `{other}` (outdegree, symmetric, ports)"
            ))
            .into())
        }
    };
    match census {
        Some(census) => {
            writeln!(
                out,
                "stabilized after at most {rounds} rounds (n + D + slack)"
            )?;
            print_census(out, &census, g.n(), args)?;
            Ok(())
        }
        None => {
            Err(SpecError("census did not stabilize within n + D + slack rounds".into()).into())
        }
    }
}

fn cmd_pushsum(out: &mut dyn Write, args: &Args) -> Result<(), CliError> {
    let n: usize = args
        .required("n")?
        .parse()
        .map_err(|_| SpecError("--n must be a number".into()))?;
    let values = parse_values(args.required("values")?)?;
    if values.len() != n {
        return Err(SpecError(format!("--n {n} but {} values were given", values.len())).into());
    }
    let rounds = args.u64_flag("rounds", 600)?;
    let seed = args.u64_flag("seed", 42)?;
    let net = RandomDynamicGraph::directed(n, (n / 2).max(1), seed);
    let mut exec = Execution::new(
        Isotropic(PushSumFrequency::frequency()),
        FrequencyState::initial(&values),
    );
    exec.drive(&net, RunConfig::rounds(rounds));
    let est = exec.outputs()[0].clone();
    writeln!(
        out,
        "push-sum frequency estimates after {rounds} rounds (agent 0):"
    )?;
    for (v, x) in &est {
        writeln!(out, "  value {v}: {x:.9}")?;
    }
    if let Some(b) = args.optional("bound") {
        let bound: usize = b
            .parse()
            .map_err(|_| SpecError("--bound must be a number".into()))?;
        writeln!(out, "rounded to the grid Q_{bound}:")?;
        // round_to_grid clamps to [0, 1] and sends non-finite estimates
        // (leader mode before any weight arrives) to 0, so every printed
        // frequency is a genuine grid point.
        for (v, f) in round_to_grid(&est, bound) {
            writeln!(out, "  value {v}: {f}")?;
        }
    }
    Ok(())
}

fn cmd_gossip(out: &mut dyn Write, args: &Args) -> Result<(), CliError> {
    let (g, values) = graph_and_values(args)?;
    let d = connectivity::diameter(&g.with_self_loops())
        .ok_or_else(|| SpecError("graph is not strongly connected".into()))?;
    let net = StaticGraph::new(g);
    let mut exec = Execution::new(Broadcast(SetGossip), SetGossip::initial(&values));
    exec.drive(&net, RunConfig::rounds(d as u64 + 1));
    writeln!(
        out,
        "value set after D + 1 = {} rounds: {:?}",
        d + 1,
        exec.outputs()[0]
    )?;
    Ok(())
}

/// The F6 one-off: a single-cell harness sweep over the scripted fault
/// plan that runs F6's cell body ([`f6::recovery`]) on the given values,
/// reported as a [`kya_runtime::CellReport`].
fn cmd_faults(out: &mut dyn Write, args: &Args) -> Result<(), CliError> {
    let (g, values) = graph_and_values(args)?;
    if !connectivity::is_strongly_connected(&g) {
        return Err(SpecError("graph is not strongly connected".into()).into());
    }
    let n = g.n();
    let drop_p = args.f64_flag("drop", 0.0)?;
    let dup_p = args.f64_flag("dup", 0.0)?;
    let rounds = args.u64_flag("rounds", 300)?.max(1);
    let seed = args.u64_flag("seed", 42)?;
    let eps = args.f64_flag("eps", 1e-6)?;
    // Probabilistic faults cease at the horizon (default: half the run)
    // so "rounds to recover after the last fault" is well defined.
    let horizon = args.u64_flag("until", rounds / 2)?.max(1);
    let mut plan = FaultPlan::new(seed).until(horizon);
    if drop_p != 0.0 {
        plan = plan.drop_links(drop_p);
    }
    if dup_p != 0.0 {
        plan = plan.duplicate(dup_p);
    }
    if let Some(spec) = args.optional("crash") {
        plan = parse_crashes(spec, plan).map_err(SpecError)?;
    }
    plan.check(n).map_err(SpecError)?;
    let plain = args.is_set("plain");

    let inputs: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let target = inputs.iter().sum::<f64>() / n as f64;
    let spec = ExperimentSpec::new("faults")
        .topologies([args.required("graph")?.to_string()])
        .sizes([n])
        .algorithms([if plain { "plain" } else { "healing" }])
        .plans([plan.clone()])
        .rounds(rounds)
        .eps(eps)
        .base_seed(seed);
    let sink = Runner::new(&spec)
        .run(|ctx| CellOutcome::new().report(f6::recovery(ctx, &inputs, plan.clone())));
    let record = sink.records().first().expect("one cell");
    let report = record.report.as_ref().expect("report recorded");
    if args.is_set("json") {
        writeln!(out, "{}", serde::to_json_string(record))?;
        return Ok(());
    }
    writeln!(
        out,
        "push-sum ({}) averaging to {target} under fault plan:",
        if plain {
            "plain, lossy — negative control"
        } else {
            "self-healing"
        }
    )?;
    writeln!(out, "  {}", serde::to_json_string(&plan))?;
    writeln!(
        out,
        "injected: {} drops, {} duplications, {} bounces to crashed agents",
        report.events.dropped, report.events.duplicated, report.events.bounced_to_crashed
    )?;
    writeln!(out, "{report}")?;
    Ok(())
}

/// The deterministic `--json` record of one `kya bandwidth` run.
#[derive(serde::Serialize)]
struct BandwidthRecord {
    graph: String,
    algorithm: String,
    cap: String,
    rounds: u64,
    n: usize,
    outputs: Vec<f64>,
    /// Exact token ratios in ℚ, one per agent — empty for `--bits inf`,
    /// where the run is plain f64 and has no token ledger.
    exact: Vec<String>,
    mass_conserved: bool,
    /// Max |output − input mean|, the convergence residual.
    residual: f64,
    bits_per_edge: u64,
    total_bits: u64,
    total_bytes: u64,
}

/// The F7 one-off: quantized Push-Sum or Metropolis on a static graph
/// under a b-bit bandwidth cap ([`f7::quantized`]), with the per-round
/// byte ledger, exact-ℚ token accounting, and the convergence residual
/// the cap costs.
fn cmd_bandwidth(out: &mut dyn Write, args: &Args) -> Result<(), CliError> {
    let (g, values) = graph_and_values(args)?;
    if !connectivity::is_strongly_connected(&g) {
        return Err(SpecError("graph is not strongly connected".into()).into());
    }
    let cap_s = args.optional("bits").unwrap_or("8");
    let cap = BandwidthCap::parse(cap_s)
        .ok_or_else(|| SpecError(format!("invalid --bits `{cap_s}` (1..=52, or `inf`)")))?;
    let algo_name = args.optional("algo").unwrap_or("qpushsum");
    if !matches!(algo_name, "qpushsum" | "qmetropolis") {
        return Err(SpecError(format!(
            "unknown --algo `{algo_name}` (qpushsum|qmetropolis)"
        ))
        .into());
    }
    let rounds = args.u64_flag("rounds", 200)?.max(1);
    let g = g.with_self_loops();
    let n = g.n();
    let edges = g.edge_count() as u64;
    let inputs: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let target = inputs.iter().sum::<f64>() / n as f64;
    let ledger = ByteLedger::new();
    let net = StaticGraph::new(g);

    let (outputs, exact, mass_conserved) = match (algo_name, cap.codec()) {
        (_, Some(codec)) => {
            let bound = inputs.iter().copied().fold(1.0f64, f64::max);
            let run = f7::quantized(algo_name, codec, bound, &inputs, &net, rounds, &ledger);
            let exact = run
                .ratios
                .iter()
                .map(|&(num, den)| {
                    BigRational::new(BigInt::from(num), BigInt::from(den)).to_string()
                })
                .collect();
            (run.outputs, exact, run.conserved)
        }
        // `--bits inf`: the unquantized algorithm with the cap rung as a
        // pure observer — no tokens, so no exact column; the ledger
        // still meters the full 64 bits per edge per round.
        ("qpushsum", None) => {
            let mut exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&inputs));
            exec.drive(&net, RunConfig::rounds(rounds).bandwidth(cap, &ledger));
            (exec.outputs(), Vec::new(), true)
        }
        (_, None) => {
            let mut exec = Execution::new(Isotropic(Metropolis), inputs.clone());
            exec.drive(&net, RunConfig::rounds(rounds).bandwidth(cap, &ledger));
            (exec.outputs(), Vec::new(), true)
        }
    };
    let residual = outputs
        .iter()
        .map(|x| (x - target).abs())
        .fold(0.0f64, f64::max);
    let record = BandwidthRecord {
        graph: args.required("graph")?.to_string(),
        algorithm: algo_name.to_string(),
        cap: cap.label(),
        rounds,
        n,
        outputs,
        exact,
        mass_conserved,
        residual,
        bits_per_edge: cap.bits_per_edge(),
        total_bits: ledger.total_bits(),
        total_bytes: ledger.total_bytes(),
    };
    if args.is_set("json") {
        writeln!(out, "{}", serde::to_json_string(&record))?;
        return Ok(());
    }
    writeln!(
        out,
        "{} averaging to {target} under cap {} ({} bits/edge/round), {rounds} rounds:",
        record.algorithm, record.cap, record.bits_per_edge
    )?;
    for (v, x) in record.outputs.iter().enumerate() {
        match record.exact.get(v) {
            Some(r) => writeln!(out, "  agent {v}: {x:.9}  (exact {r})")?,
            None => writeln!(out, "  agent {v}: {x:.9}")?,
        }
    }
    writeln!(
        out,
        "token mass conserved exactly: {}",
        if record.mass_conserved { "yes" } else { "NO" }
    )?;
    writeln!(out, "max |x_i - target|: {residual:.3e}")?;
    writeln!(
        out,
        "ledger: {edges} edges x {rounds} rounds x {} bits = {} bits ({} bytes)",
        record.bits_per_edge, record.total_bits, record.total_bytes
    )?;
    Ok(())
}

/// The F8 one-off: a single-cell harness sweep over an Angluin-style
/// pairing scheduler, a churn script, and optional message faults that
/// runs F8's cell body ([`f8::recovery`]) on the given values —
/// self-healing Push-Sum or Metropolis averaging with the churn-aware
/// recovery report (convergence counts only strictly after the last
/// fault *or churn transition*).
fn cmd_churn(out: &mut dyn Write, args: &Args) -> Result<(), CliError> {
    let n: usize = args
        .required("n")?
        .parse()
        .map_err(|_| SpecError("--n must be a number".into()))?;
    if n < 2 {
        return Err(SpecError("--n must be at least 2".into()).into());
    }
    let values = parse_values(args.required("values")?)?;
    if values.len() != n {
        return Err(SpecError(format!("--n {n} but {} values were given", values.len())).into());
    }
    let fairness = args.optional("fairness").unwrap_or("uniform");
    if !matches!(fairness, "uniform" | "cover") {
        return Err(SpecError(format!("unknown fairness `{fairness}` (uniform, cover)")).into());
    }
    let algo = args.optional("algo").unwrap_or("healing");
    if !matches!(algo, "healing" | "metropolis") {
        return Err(SpecError(format!("unknown algorithm `{algo}` (healing, metropolis)")).into());
    }
    let churn = ChurnPlan::parse(args.optional("churn").unwrap_or("stable")).map_err(SpecError)?;
    churn.check_agents(n).map_err(SpecError)?;
    let drop_p = args.f64_flag("drop", 0.0)?;
    let rounds = args.u64_flag("rounds", 300)?.max(1);
    let seed = args.u64_flag("seed", 42)?;
    let eps = args.f64_flag("eps", 1e-6)?;
    let horizon = args.u64_flag("until", rounds / 2)?.max(1);
    let mut plan = FaultPlan::new(seed).until(horizon);
    if drop_p != 0.0 {
        plan = plan.drop_links(drop_p);
    }
    plan.check(n).map_err(SpecError)?;

    let inputs: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let target = inputs.iter().sum::<f64>() / n as f64;
    let spec = ExperimentSpec::new("churn")
        .topologies([format!("pair:{fairness}:{{n}}:{{seed}}")])
        .sizes([n])
        .seeds([seed])
        .algorithms([algo])
        .variants([churn.label()])
        .plans([plan.clone()])
        .rounds(rounds)
        .eps(eps)
        .base_seed(seed);
    let sink = Runner::new(&spec)
        .run(|ctx| CellOutcome::new().report(f8::recovery(ctx, &inputs, plan.clone())));
    let record = sink.records().first().expect("one cell");
    let report = record.report.as_ref().expect("report recorded");
    if args.is_set("json") {
        writeln!(out, "{}", serde::to_json_string(record))?;
        return Ok(());
    }
    let membership = churn.membership(n);
    writeln!(
        out,
        "{} averaging to {target} on pair:{fairness}:{n} under churn `{}`:",
        if algo == "healing" {
            "self-healing push-sum"
        } else {
            "metropolis"
        },
        churn.label()
    )?;
    writeln!(out, "  fault plan: {}", serde::to_json_string(&plan))?;
    writeln!(
        out,
        "  membership: {} windows, live count at horizon {}, last transition round {}",
        churn.windows().len(),
        membership.live_count(rounds),
        membership.last_transition()
    )?;
    writeln!(
        out,
        "injected: {} drops, {} duplications, {} bounces to crashed agents",
        report.events.dropped, report.events.duplicated, report.events.bounced_to_crashed
    )?;
    writeln!(out, "{report}")?;
    Ok(())
}

fn cmd_sweep(out: &mut dyn Write, argv: &[String]) -> Result<(), CliError> {
    let Some(name) = argv.first() else {
        writeln!(out, "available experiment sweeps:")?;
        for e in kya_bench::experiments::EXPERIMENTS {
            writeln!(out, "  {:<8} {}", e.name, e.about)?;
        }
        return Ok(());
    };
    let (text, ok) = kya_bench::experiments::run(name, &argv[1..])?;
    write!(out, "{text}")?;
    match ok {
        true => Ok(()),
        false => Err(SpecError(format!(
            "sweep `{name}`: some cells FAILED — see [XX] lines above"
        ))
        .into()),
    }
}

/// `kya trace EXPERIMENT` — the experiment's sweep with round-level
/// telemetry on: cell records (including their `telemetry` counter
/// blocks) stream to stdout as NDJSON, and the per-round event stream
/// goes to `--trace-out` (default `EXPERIMENT.trace.ndjson`). The trace
/// file carries only deterministic fields, so it is byte-identical
/// across runs and worker counts.
fn cmd_trace(out: &mut dyn Write, argv: &[String]) -> Result<(), CliError> {
    let Some(name) = argv.first() else {
        writeln!(out, "experiments traceable with `kya trace NAME`:")?;
        for e in kya_bench::experiments::EXPERIMENTS {
            writeln!(out, "  {:<8} {}", e.name, e.about)?;
        }
        return Ok(());
    };
    let rest = &argv[1..];
    let args = Args::parse(rest);
    let mode = TelemetryMode {
        trace: true,
        residuals: args.is_set("residuals"),
    };
    let out_path = args
        .optional("trace-out")
        .map_or_else(|| format!("{name}.trace.ndjson"), str::to_string);
    let (_, sinks) =
        kya_bench::experiments::run_collect(name, rest, mode, kya_bench::experiments::TRACE_FLAGS)?;
    let mut trace = String::new();
    for sink in &sinks {
        write!(out, "{}", sink.to_ndjson())?;
        trace.push_str(&sink.to_trace_ndjson());
    }
    std::fs::write(&out_path, &trace)
        .map_err(|e| SpecError(format!("cannot write trace to `{out_path}`: {e}")))?;
    eprintln!(
        "kya trace: {} round events written to {out_path}",
        trace.lines().count()
    );
    match sinks.iter().all(kya_harness::ResultSink::all_ok) {
        true => Ok(()),
        false => Err(SpecError(format!(
            "trace `{name}`: some cells FAILED — see records above"
        ))
        .into()),
    }
}

/// The conformance matrix: run every differential oracle and report
/// per-check pass/fail counts (or the raw NDJSON stream with
/// `--ndjson`, which is byte-identical at any `--workers N`).
fn cmd_check(out: &mut dyn Write, args: &Args) -> Result<(), CliError> {
    let matrix = kya_conformance::Matrix::parse(args.optional("matrix").unwrap_or("small"))?;
    let workers = match args.optional("workers") {
        Some(w) => w
            .parse::<usize>()
            .map_err(|_| SpecError(format!("invalid worker count `{w}`")))?,
        None => 1,
    };
    let only = match args.optional("only") {
        Some(name) => Some(kya_conformance::CheckKind::parse(name).ok_or_else(|| {
            SpecError(format!(
                "unknown check `{name}` (paths|backend|relabel|mass|lift|churn|flat|probe|bandwidth)"
            ))
        })?),
        None => None,
    };
    let results = kya_conformance::run_only(matrix, workers, only);
    if args.is_set("ndjson") {
        write!(out, "{}", kya_conformance::to_ndjson(&results))?;
    } else {
        for (kind, sink) in &results {
            let failures = sink.failures();
            writeln!(
                out,
                "{kind:?}: {} cells, {} failed",
                sink.len(),
                failures.len()
            )?;
            for r in failures {
                writeln!(out, "  FAIL {}", serde::to_json_string(r))?;
            }
        }
    }
    if kya_conformance::all_ok(&results) {
        Ok(())
    } else {
        Err(SpecError(format!(
            "conformance: {} cell(s) FAILED",
            kya_conformance::failure_count(&results)
        ))
        .into())
    }
}

/// `kya profile` — run the flat+boxed profile matrix and write the
/// schema-versioned `BENCH_flat.json` snapshot; or, with `--probe-out`,
/// write the matrix's *deterministic* probe stream (the artifact the
/// contract test compares across `--threads`); or, with `--validate`,
/// check an existing snapshot against the schema without running
/// anything.
fn cmd_profile(out: &mut dyn Write, args: &Args) -> Result<(), CliError> {
    use kya_bench::profile::{self, ProfileConfig};
    if let Some(path) = args.optional("validate") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("cannot read `{path}`: {e}")))?;
        let doc = serde::Value::from_json(&text)
            .map_err(|e| SpecError(format!("`{path}` is not JSON: {e}")))?;
        profile::validate(&doc).map_err(SpecError)?;
        writeln!(
            out,
            "kya profile: `{path}` is a valid schema-v{} snapshot",
            profile::SCHEMA_VERSION
        )?;
        return Ok(());
    }
    let mut cfg = if args.is_set("smoke") {
        ProfileConfig::smoke()
    } else {
        ProfileConfig::full()
    };
    let default_threads = cfg.threads.clone();
    cfg.threads = args.usize_list_flag("threads", &default_threads)?;
    if cfg.threads.contains(&0) {
        return Err(SpecError("--threads entries must be positive".into()).into());
    }
    if let Some(path) = args.optional("probe-out") {
        // Probe-stream mode runs at ONE thread count (the first of
        // `--threads`) and writes only deterministic bytes, so two
        // invocations differing in `--threads` must produce identical
        // files.
        let t = cfg.threads.first().copied().unwrap_or(1);
        let stream = profile::probe_stream(&cfg, t);
        std::fs::write(path, &stream)
            .map_err(|e| SpecError(format!("cannot write probe stream to `{path}`: {e}")))?;
        eprintln!(
            "kya profile: {} probe lines written to {path}",
            stream.lines().count()
        );
        return Ok(());
    }
    let doc = profile::run(&cfg);
    profile::validate(&doc).map_err(SpecError)?;
    let path = args.optional("out").unwrap_or("BENCH_flat.json");
    std::fs::write(path, format!("{}\n", doc.to_json()))
        .map_err(|e| SpecError(format!("cannot write snapshot to `{path}`: {e}")))?;
    let cells = doc
        .get("cells")
        .and_then(serde::Value::as_seq)
        .map_or(0, <[serde::Value]>::len);
    writeln!(
        out,
        "kya profile: wrote {path} ({cells} cells, schema v{})",
        profile::SCHEMA_VERSION
    )?;
    Ok(())
}

fn run(out: &mut dyn Write) -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return Err(SpecError(USAGE.into()).into());
    };
    if cmd == "sweep" {
        // The experiment owns its flag set (including extras like F6's
        // `--drops`), so delegate before generic flag validation.
        return cmd_sweep(out, &argv[1..]);
    }
    if cmd == "trace" {
        return cmd_trace(out, &argv[1..]);
    }
    let args = Args::parse(&argv[1..]);
    if !args.bare().is_empty() {
        return Err(SpecError(format!("unexpected arguments {:?}\n\n{USAGE}", args.bare())).into());
    }
    let kya_cmd = format!("kya {cmd}");
    match cmd.as_str() {
        "tables" => {
            args.reject_unknown(&kya_cmd, &[])?;
            cmd_tables(out)
        }
        "minbase" => {
            args.reject_unknown(&kya_cmd, &["graph", "values"])?;
            cmd_minbase(out, &args)
        }
        "census" => {
            args.reject_unknown(&kya_cmd, &["graph", "values", "model", "n", "leader"])?;
            cmd_census(out, &args)
        }
        "pushsum" => {
            args.reject_unknown(&kya_cmd, &["n", "values", "rounds", "bound", "seed"])?;
            cmd_pushsum(out, &args)
        }
        "gossip" => {
            args.reject_unknown(&kya_cmd, &["graph", "values"])?;
            cmd_gossip(out, &args)
        }
        "faults" => {
            args.reject_unknown(
                &kya_cmd,
                &[
                    "graph", "values", "drop", "dup", "crash", "until", "rounds", "seed", "eps",
                    "plain", "json",
                ],
            )?;
            cmd_faults(out, &args)
        }
        "churn" => {
            args.reject_unknown(
                &kya_cmd,
                &[
                    "n", "values", "fairness", "churn", "algo", "drop", "until", "rounds", "seed",
                    "eps", "json",
                ],
            )?;
            cmd_churn(out, &args)
        }
        "bandwidth" => {
            args.reject_unknown(
                &kya_cmd,
                &["graph", "values", "bits", "algo", "rounds", "json"],
            )?;
            cmd_bandwidth(out, &args)
        }
        "check" => {
            args.reject_unknown(&kya_cmd, &["matrix", "workers", "ndjson", "only"])?;
            cmd_check(out, &args)
        }
        "profile" => {
            args.reject_unknown(
                &kya_cmd,
                &["out", "smoke", "threads", "probe-out", "validate"],
            )?;
            cmd_profile(out, &args)
        }
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(SpecError(format!("unknown command `{other}`\n\n{USAGE}")).into()),
    }
}

fn main() -> ExitCode {
    let mut out = io::stdout().lock();
    let result = run(&mut out).and_then(|()| Ok(out.flush()?));
    match exit_message(result) {
        None => ExitCode::SUCCESS,
        Some(msg) => {
            eprintln!("kya: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["--graph", "ring:5", "--n", "--values", "1,2"]);
        assert_eq!(a.required("graph").unwrap(), "ring:5");
        assert_eq!(a.optional("n"), Some("true"));
        assert_eq!(a.optional("values"), Some("1,2"));
        assert!(a.required("missing").is_err());
        assert!(a.bare().is_empty());
    }

    #[test]
    fn bare_arguments_detected() {
        let a = args(&["oops", "--graph", "ring:3"]);
        assert_eq!(a.bare(), &["oops".to_string()]);
    }

    #[test]
    fn graph_and_values_length_check() {
        let a = args(&["--graph", "ring:3", "--values", "1,2"]);
        assert!(graph_and_values(&a).is_err());
        let a = args(&["--graph", "ring:3", "--values", "1,2,3"]);
        let (g, v) = graph_and_values(&a).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn subcommands_run() {
        assert!(cmd_tables(&mut io::sink()).is_ok());
        let a = args(&["--graph", "star:4", "--values", "7,1,1,1"]);
        assert!(cmd_minbase(&mut io::sink(), &a).is_ok());
        assert!(cmd_gossip(&mut io::sink(), &a).is_ok());
        let a = args(&[
            "--graph",
            "star:4",
            "--values",
            "7,1,1,1",
            "--model",
            "symmetric",
        ]);
        assert!(cmd_census(&mut io::sink(), &a).is_ok());
        let a = args(&[
            "--graph",
            "ring:4",
            "--values",
            "7,1,1,1",
            "--model",
            "symmetric",
        ]);
        assert!(
            cmd_census(&mut io::sink(), &a).is_err(),
            "directed ring is not symmetric"
        );
        let a = args(&[
            "--n", "4", "--values", "1x2,9x2", "--rounds", "200", "--bound", "4",
        ]);
        assert!(cmd_pushsum(&mut io::sink(), &a).is_ok());
    }

    #[test]
    fn unknown_flags_rejected_with_valid_set() {
        let a = args(&["--graph", "ring:3", "--vaules", "1,2,3"]);
        let err = a
            .reject_unknown("kya minbase", &["graph", "values"])
            .unwrap_err();
        assert!(err.0.contains("--vaules"), "{err}");
        assert!(
            err.0.contains("--graph, --values"),
            "names the valid set: {err}"
        );
        let a = args(&["--anything", "x"]);
        let err = a.reject_unknown("kya tables", &[]).unwrap_err();
        assert!(err.0.contains("takes none"), "{err}");
        let a = args(&["--graph", "ring:3", "--values", "1,2,3"]);
        assert!(a
            .reject_unknown("kya minbase", &["graph", "values"])
            .is_ok());
    }

    #[test]
    fn faults_subcommand_runs() {
        let a = args(&[
            "--graph",
            "biring:6",
            "--values",
            "3,1,4,1,5,9",
            "--drop",
            "0.3",
            "--rounds",
            "200",
            "--seed",
            "7",
        ]);
        assert!(cmd_faults(&mut io::sink(), &a).is_ok());
        // Negative control and JSON output paths.
        let a = args(&[
            "--graph",
            "biring:6",
            "--values",
            "3,1,4,1,5,9",
            "--drop",
            "0.3",
            "--rounds",
            "200",
            "--plain",
            "--json",
        ]);
        assert!(cmd_faults(&mut io::sink(), &a).is_ok());
        // Crash specs: recover and stop, validated against n.
        let a = args(&[
            "--graph",
            "complete:4",
            "--values",
            "8,0,0,0",
            "--crash",
            "1:5:15,2:30:-",
        ]);
        assert!(cmd_faults(&mut io::sink(), &a).is_ok());
        let a = args(&[
            "--graph", "ring:3", "--values", "1,2,3", "--crash", "9:5:15",
        ]);
        assert!(cmd_faults(&mut io::sink(), &a)
            .unwrap_err()
            .to_string()
            .contains("out of range"));
        let a = args(&[
            "--graph", "ring:3", "--values", "1,2,3", "--crash", "1:15:5",
        ]);
        assert!(cmd_faults(&mut io::sink(), &a)
            .unwrap_err()
            .to_string()
            .contains("empty"));
        let a = args(&["--graph", "ring:3", "--values", "1,2,3", "--drop", "1.5"]);
        assert!(cmd_faults(&mut io::sink(), &a).is_err());
    }

    #[test]
    fn churn_subcommand_runs() {
        // Carry rejoin on the round-robin cover, no message faults.
        let a = args(&[
            "--n",
            "6",
            "--values",
            "3,1,4,1,5,9",
            "--fairness",
            "cover",
            "--churn",
            "c1:10:30",
            "--rounds",
            "200",
        ]);
        assert!(cmd_churn(&mut io::sink(), &a).is_ok());
        // Reset rejoin + message drops + metropolis, JSON output path.
        let a = args(&[
            "--n",
            "6",
            "--values",
            "3,1,4,1,5,9",
            "--churn",
            "c1:10:30,2:20:45+reset",
            "--algo",
            "metropolis",
            "--drop",
            "0.2",
            "--rounds",
            "200",
            "--seed",
            "7",
            "--json",
        ]);
        assert!(cmd_churn(&mut io::sink(), &a).is_ok());
        // Validation: fairness, algo, churn label, and window sanity.
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--fairness", "lottery"]);
        assert!(cmd_churn(&mut io::sink(), &a)
            .unwrap_err()
            .to_string()
            .contains("unknown fairness"));
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--algo", "gossip"]);
        assert!(cmd_churn(&mut io::sink(), &a)
            .unwrap_err()
            .to_string()
            .contains("unknown algorithm"));
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--churn", "c9:5:15"]);
        assert!(cmd_churn(&mut io::sink(), &a)
            .unwrap_err()
            .to_string()
            .contains("out of range"));
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--churn", "c1:15:5"]);
        assert!(cmd_churn(&mut io::sink(), &a)
            .unwrap_err()
            .to_string()
            .contains("empty"));
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--churn", "bogus"]);
        assert!(cmd_churn(&mut io::sink(), &a).is_err());
        let a = args(&["--n", "4", "--values", "1,2"]);
        assert!(cmd_churn(&mut io::sink(), &a)
            .unwrap_err()
            .to_string()
            .contains("values were given"));
    }

    #[test]
    fn profile_subcommand_writes_and_validates_snapshots() {
        let dir = std::env::temp_dir();
        let out = dir.join("kya-cli-test-profile.json");
        let a = args(&[
            "--smoke",
            "--threads",
            "1",
            "--out",
            &out.display().to_string(),
        ]);
        assert!(cmd_profile(&mut io::sink(), &a).is_ok());
        // The written snapshot passes its own validator...
        let a = args(&["--validate", &out.display().to_string()]);
        assert!(cmd_profile(&mut io::sink(), &a).is_ok());
        // ...and a corrupted one is rejected with the offending key.
        let text = std::fs::read_to_string(&out).unwrap();
        std::fs::write(&out, text.replace("\"kind\":", "\"kin\":")).unwrap();
        let err = cmd_profile(&mut io::sink(), &a).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        let _ = std::fs::remove_file(&out);
        // Probe streams are byte-identical across thread counts.
        let p1 = dir.join("kya-cli-test-probe1.ndjson");
        let p4 = dir.join("kya-cli-test-probe4.ndjson");
        for (path, t) in [(&p1, "1"), (&p4, "4")] {
            let a = args(&[
                "--smoke",
                "--threads",
                t,
                "--probe-out",
                &path.display().to_string(),
            ]);
            assert!(cmd_profile(&mut io::sink(), &a).is_ok());
        }
        let s1 = std::fs::read(&p1).unwrap();
        let s4 = std::fs::read(&p4).unwrap();
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p4);
        assert!(!s1.is_empty());
        assert_eq!(s1, s4, "probe stream depends on --threads");
        // Zero threads and missing validate targets are rejected.
        let a = args(&["--smoke", "--threads", "0"]);
        assert!(cmd_profile(&mut io::sink(), &a).is_err());
        let a = args(&["--validate", "/nonexistent/kya-profile.json"]);
        assert!(cmd_profile(&mut io::sink(), &a)
            .unwrap_err()
            .to_string()
            .contains("cannot read"));
    }

    /// Standard output after its reader has gone: every write fails.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_ends_the_command_quietly() {
        let err = cmd_tables(&mut ClosedPipe).unwrap_err();
        assert!(
            matches!(&err, CliError::Io(e) if e.kind() == io::ErrorKind::BrokenPipe),
            "{err:?}"
        );
        assert_eq!(exit_message(Err(err)), None);
        let argv: Vec<String> = vec!["flat".into(), "--sizes".into(), "16".into()];
        assert_eq!(exit_message(cmd_sweep(&mut ClosedPipe, &argv)), None);
        assert_eq!(exit_message(Ok(())), None);
        // Any other failed write, and any bad request, is an error.
        let full = CliError::Io(io::ErrorKind::WriteZero.into());
        let msg = exit_message(Err(full)).expect("a failed write is an error");
        assert!(msg.starts_with("cannot write to standard output"), "{msg}");
        let bad = CliError::Spec(SpecError("bad request".into()));
        assert_eq!(exit_message(Err(bad)).as_deref(), Some("bad request"));
    }

    #[test]
    fn sweep_delegates_to_the_registry() {
        assert!(
            cmd_sweep(&mut io::sink(), &[]).is_ok(),
            "bare `kya sweep` lists experiments"
        );
        let argv: Vec<String> = vec!["nope".into()];
        assert!(
            cmd_sweep(&mut io::sink(), &argv).is_err(),
            "unknown experiment rejected"
        );
        let argv: Vec<String> = vec!["f6".into(), "--bogus".into()];
        assert!(
            cmd_sweep(&mut io::sink(), &argv).is_err(),
            "unknown sweep flag rejected"
        );
    }

    #[test]
    fn trace_writes_round_events() {
        assert!(
            cmd_trace(&mut io::sink(), &[]).is_ok(),
            "bare `kya trace` lists experiments"
        );
        let out = std::env::temp_dir().join("kya-cli-test-trace.ndjson");
        let argv: Vec<String> = vec![
            "f1".into(),
            "--sizes".into(),
            "4".into(),
            "--seeds".into(),
            "1".into(),
            "--trace-out".into(),
            out.display().to_string(),
        ];
        assert!(cmd_trace(&mut io::sink(), &argv).is_ok());
        let trace = std::fs::read_to_string(&out).expect("trace file written");
        let _ = std::fs::remove_file(&out);
        assert!(!trace.is_empty(), "f1 cells emit round events");
        assert!(trace
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(trace.contains("\"residual\":"), "residual column present");
        let argv: Vec<String> = vec!["f1".into(), "--bogus".into()];
        assert!(
            cmd_trace(&mut io::sink(), &argv).is_err(),
            "unknown trace flag rejected"
        );
    }
}

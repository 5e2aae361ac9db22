//! **F4** — the §5 averaging family compared on random symmetric
//! dynamic networks, with and without asynchronous starts. The
//! algorithm axis carries the five §5 update rules; cells measure
//! rounds to a stable 1e-9 ε-ball via `RunConfig::confirm`.

use super::{observed_convergence, per_size, Experiment, Nets};
use kya_algos::metropolis::{FixedWeight, LazyMetropolis, Metropolis};
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::generators;
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, SpecError};
use kya_runtime::{Broadcast, Execution, Isotropic};

/// The F4 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "f4",
    about: "averaging family: Push-Sum vs Metropolis vs fixed-weight, sync and async starts",
    extra_flags: &[],
    ignored_flags: &[],
    nets: Nets::Any,
    churn_variants: false,
    build,
    cell,
    render,
};

const CONFIRM: u64 = 50;

fn build(args: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    // Four extra pairs per round, or as many as a small network has room
    // for.
    let pairs = |n| generators::extra_pair_room(n).min(4);
    let sync = ExperimentSpec::new("f4_sync")
        .sizes([16])
        .algorithms([
            "pushsum",
            "metropolis",
            "lazy-metropolis",
            "fixed-1n",
            "fixed-4n",
        ])
        .rounds(200_000)
        .eps(1e-9)
        .with_args(args)?;
    let async_starts = ExperimentSpec::new("f4_async")
        .sizes([16])
        .algorithms(["pushsum", "metropolis", "fixed-1n"])
        .rounds(200_000)
        .eps(1e-9)
        .with_args(args)?;
    let mut specs = per_size(sync, args, |n| {
        format!("dyn:symmetric:{n}:{}:2718", pairs(n))
    });
    specs.extend(per_size(async_starts, args, |n| {
        format!("async:8:4:dyn:symmetric:{n}:{}:9182", pairs(n))
    }));
    Ok(specs)
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    let net = ctx.net().expect("label resolved before the sweep");
    let net = &*net;
    let n = net.n();
    let values: Vec<f64> = (0..n).map(|i| ((i * i) % 29) as f64).collect();
    let target = values.iter().sum::<f64>() / n as f64;
    let eps = ctx.eps();
    let (_, outcome) = match ctx.cell.algorithm.as_str() {
        "pushsum" => observed_convergence(
            ctx,
            Execution::new(Isotropic(PushSum), PushSumState::averaging(&values)),
            net,
            target,
            eps,
            CONFIRM,
        ),
        "metropolis" => observed_convergence(
            ctx,
            Execution::new(Isotropic(Metropolis), values.clone()),
            net,
            target,
            eps,
            CONFIRM,
        ),
        "lazy-metropolis" => observed_convergence(
            ctx,
            Execution::new(Isotropic(LazyMetropolis), values.clone()),
            net,
            target,
            eps,
            CONFIRM,
        ),
        "fixed-1n" => observed_convergence(
            ctx,
            Execution::new(Broadcast(FixedWeight::new(n)), values.clone()),
            net,
            target,
            eps,
            CONFIRM,
        ),
        "fixed-4n" => observed_convergence(
            ctx,
            Execution::new(Broadcast(FixedWeight::new(4 * n)), values.clone()),
            net,
            target,
            eps,
            CONFIRM,
        ),
        other => panic!("unknown f4 algorithm `{other}`"),
    };
    outcome
}

fn render(sink: &ResultSink) -> String {
    let mut out = String::new();
    let name = sink.records().first().map(|r| r.experiment.as_str());
    out.push_str(match name {
        Some("f4_async") => "F4. asynchronous starts (agents wake within 8 rounds):\n",
        _ => "F4. averaging on random symmetric dynamic graphs, synchronous starts:\n",
    });
    for r in sink.records() {
        let line = match r.report.as_ref().and_then(|rep| rep.converged_at) {
            Some(k) => format!("{:>18}: {k:>7} rounds to eps\n", r.algorithm),
            None => format!("{:>18}: no convergence in budget\n", r.algorithm),
        };
        out.push_str(&line);
    }
    if name == Some("f4_async") {
        out.push_str(
            "\nReading: Metropolis-family updates converge fastest; the \
             bound-only 1/N rule pays for its weaker model with more rounds; \
             asynchronous starts delay but do not break convergence — §5's \
             qualitative account.\n",
        );
    }
    out
}

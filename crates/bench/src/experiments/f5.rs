//! **F5** — the §6 open regime: a geometric communication schedule
//! (gaps 2, 4, 8, …) that is never permanently split but has no finite
//! dynamic diameter. Cells run the full horizon and sample the
//! worst-case error at exponentially spaced checkpoints from the
//! round-by-round trace `run_until` records.

use super::{per_size, Experiment, Nets};
use kya_algos::metropolis::{FixedWeight, Metropolis};
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::generators;
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, SpecError};
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::{Broadcast, CellReport, Execution, Isotropic, RunConfig};

/// The F5 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "f5",
    about: "weak connectivity: geometric schedules, no finite dynamic diameter (open question)",
    extra_flags: &[],
    ignored_flags: &[],
    nets: Nets::Any,
    churn_variants: false,
    build,
    cell,
    render,
};

const CHECKPOINTS: [u64; 8] = [7, 15, 31, 63, 127, 255, 511, 1023];

fn build(args: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    let sym = ExperimentSpec::new("f5_symmetric")
        .sizes([10])
        .algorithms(["fixed-1n", "metropolis"])
        .rounds(1023)
        .with_args(args)?;
    let dir = ExperimentSpec::new("f5_directed")
        .topologies(["sparse:2:1023:dyn:directed:{n}:4:48"])
        .sizes([10])
        .algorithms(["pushsum"])
        .rounds(1023)
        .with_args(args)?;
    // Three extra pairs per round, or as many as a small network has
    // room for.
    let mut specs = per_size(sym, args, |n| {
        let pairs = generators::extra_pair_room(n).min(3);
        format!("sparse:2:1023:dyn:symmetric:{n}:{pairs}:47")
    });
    specs.push(dir);
    Ok(specs)
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    let net = ctx.net().expect("label resolved before the sweep");
    let net = &*net;
    let n = net.n();
    let values: Vec<f64> = (0..n).map(|i| ((i * 11) % 17) as f64).collect();
    let target = values.iter().sum::<f64>() / n as f64;
    let m = &EuclideanMetric;
    let report: CellReport = match ctx.cell.algorithm.as_str() {
        "pushsum" => Execution::new(Isotropic(PushSum), PushSumState::averaging(&values)).drive(
            net,
            RunConfig::rounds(ctx.rounds()).measure(m, &target, ctx.eps()),
        ),
        "metropolis" => Execution::new(Isotropic(Metropolis), values.clone()).drive(
            net,
            RunConfig::rounds(ctx.rounds()).measure(m, &target, ctx.eps()),
        ),
        "fixed-1n" => Execution::new(Broadcast(FixedWeight::new(n)), values.clone()).drive(
            net,
            RunConfig::rounds(ctx.rounds()).measure(m, &target, ctx.eps()),
        ),
        other => panic!("unknown f5 algorithm `{other}`"),
    };
    // Worst-case error at each scheduled checkpoint, read off the trace.
    let mut out = CellOutcome::new();
    for &cp in &CHECKPOINTS {
        if let Some(&err) = report.distances.get(cp as usize - 1) {
            out = out.detail(format!("t{cp}"), err);
        }
    }
    out.report(report.without_trace())
}

fn render(sink: &ResultSink) -> String {
    let mut out = String::new();
    let name = sink.records().first().map(|r| r.experiment.as_str());
    out.push_str(match name {
        Some("f5_directed") => "F5. directed topologies at scheduled rounds (open question):\n",
        _ => "F5. symmetric topologies at scheduled rounds (Moreau applies):\n",
    });
    for r in sink.records() {
        out.push_str(&format!("{:>14}:", r.algorithm));
        for &cp in &CHECKPOINTS {
            if let Some(serde::Value::Float(err)) = r.detail(&format!("t{cp}")) {
                out.push_str(&format!("  t={cp}: {err:.1e}"));
            }
        }
        out.push('\n');
    }
    if name == Some("f5_directed") {
        out.push_str(
            "\nReading: every scheduled communication round still contracts \
             the disagreement, so all three algorithms keep converging — but \
             per wall-clock round the rate collapses with the growing gaps. \
             Positive empirical evidence for (not a proof of) the §6 open \
             question.\n",
        );
    }
    out
}

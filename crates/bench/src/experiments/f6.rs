//! **F6** — fault injection and measured recovery: link-drop rates ×
//! crash-recover counts (the fault-plan axis) × three topologies ×
//! {self-healing, plain lossy} Push-Sum. The sweep whose NDJSON output
//! the CI determinism job diffs across `--workers` values, and the
//! wall-clock benchmark for the parallel harness.
//!
//! All fault coins derive from the per-cell seed (a pure function of
//! `--seed` and the cell index), so output is byte-identical across
//! runs and worker counts.

use super::{f64_list_flag, Experiment, Nets};
use kya_algos::push_sum::{total_mass, PushSum, PushSumState, SelfHealingPushSum};
use kya_graph::StaticGraph;
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, SpecError};
use kya_runtime::faults::FaultPlan;
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::{CellReport, Execution, FlatAlgorithm, Isotropic, RunConfig};

/// The F6 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "f6",
    about: "fault injection: drop/crash sweep, self-healing vs lossy Push-Sum, measured recovery",
    extra_flags: &["drops", "crashes", "horizon"],
    ignored_flags: &[],
    nets: Nets::Static,
    churn_variants: false,
    build,
    cell,
    render,
};

fn build(args: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    let drops = f64_list_flag(args, "drops", &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5])?;
    let crash_counts = args.usize_list_flag("crashes", &[0, 1, 2])?;
    let horizon = args.u64_flag("horizon", 60)?;
    // `run_collect` checks each plan (rates, horizon, crashed agents)
    // before any cell runs.
    let mut plans = Vec::new();
    for &p in &drops {
        for &crashes in &crash_counts {
            let mut plan = FaultPlan::new(0).until(horizon);
            if p > 0.0 {
                plan = plan.drop_links(p);
            }
            // Staggered crash-recover windows inside the fault horizon.
            for c in 0..crashes {
                let from = 10 + 10 * c as u64;
                plan = plan.crash(c, from..from + 20);
            }
            plans.push(plan);
        }
    }
    Ok(vec![ExperimentSpec::new("f6_fault_recovery")
        .topologies(["ring:{n}", "torus:{n}", "random:{n}:8:{seed}"])
        .sizes([12])
        .algorithms(["healing", "plain"])
        .plans(plans)
        .rounds(800)
        .eps(1e-6)
        .with_args(args)?])
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    let n = ctx.graph().expect("static label").n();
    CellOutcome::new().report(recovery(ctx, &super::inputs(n), ctx.fault_plan()).without_trace())
}

/// The F6 cell body: Push-Sum averaging of `values` on the cell's static
/// graph under `plan`, self-healing (`healing`) or plain (`plain`) by
/// the cell's algorithm, measured against the mean of `values` with the
/// z-mass deficit as the invariant. The report keeps its per-round
/// distances.
///
/// # Panics
///
/// Panics if the cell's topology is not a static graph, `values` does
/// not have one entry per agent, `plan` crashes an agent the graph
/// lacks, or the algorithm is neither name.
pub fn recovery(ctx: &CellCtx, values: &[f64], plan: FaultPlan) -> CellReport {
    let g = ctx.graph().expect("static label");
    let net = StaticGraph::new((*g).clone());
    match ctx.cell.algorithm.as_str() {
        "healing" => drive(SelfHealingPushSum, ctx, &net, values, plan),
        "plain" => drive(PushSum, ctx, &net, values, plan),
        other => panic!("unknown f6 algorithm `{other}`"),
    }
}

fn drive<A>(
    algo: A,
    ctx: &CellCtx,
    net: &StaticGraph,
    values: &[f64],
    plan: FaultPlan,
) -> CellReport
where
    A: FlatAlgorithm<State = PushSumState>,
{
    let n = values.len();
    let target = values.iter().sum::<f64>() / n as f64;
    // z mass starts (and must stay) at n: the signed deficit is n - Σz.
    let z_deficit = move |states: &[PushSumState]| n as f64 - total_mass(states).1;
    Execution::new(Isotropic(algo), PushSumState::averaging(values))
        .faults(plan)
        .drive(
            net,
            RunConfig::rounds(ctx.rounds())
                .measure(&EuclideanMetric, &target, ctx.eps())
                .invariant(&z_deficit),
        )
}

fn render(sink: &ResultSink) -> String {
    let mut out = String::from("F6. fault recovery: self-healing vs plain (lossy) Push-Sum\n");
    out.push_str(&format!(
        "{:>16} {:>12} {:>8} {:>12} {:>12} {:>12}\n",
        "graph", "plan", "algo", "converged", "final dist", "mass deficit"
    ));
    for r in sink.records() {
        let Some(rep) = r.report.as_ref() else {
            continue;
        };
        out.push_str(&format!(
            "{:>16} {:>12} {:>8} {:>12} {:>12.2e} {:>12.2e}\n",
            r.topology,
            r.plan,
            r.algorithm,
            rep.converged_at.map_or("-".to_string(), |k| k.to_string()),
            rep.final_distance,
            rep.mass_deficit.unwrap_or(0.0),
        ));
    }
    out.push_str(
        "\nReading: the self-healing variant re-enters the eps-ball after \
         the faults cease at every drop rate; the lossy control keeps a \
         persistent mass deficit and a wrong limit.\n",
    );
    out
}

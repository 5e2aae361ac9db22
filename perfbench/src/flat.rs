//! `flat_250k`: f64 Push-Sum on `FlatExecution` until ε-agreement.
//!
//! Each repetition generates the seeded random strongly connected graph,
//! builds the flat execution (the set-up), and drives it at `nproc`
//! threads until `measure(mean, 1e-9).confirm(2)` reports convergence
//! (the timed phase). Once per run the same problem is also solved at
//! one thread, and both must converge at the same round.

use crate::trace::Tracer;
use crate::{median, quantile, Cfg, Outcome, Rng};
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::{generators, Digraph, RoutingPlan};
use kya_runtime::faults::FaultEvents;
use kya_runtime::metric::{max_distance, EuclideanMetric};
use kya_runtime::{CellReport, FlatAlgorithm, FlatExecution, FlatRunConfig};
use std::time::Instant;

/// Agents of the full-size run (extra random edges: twice as many).
/// The state, send buffer, arena and plan take 208 B per agent, 52 MB
/// in all: far above a 4 MiB L2. At 10^6 agents one repetition takes
/// about 10 s on a 2-core x86-64 host, too few per run for a steady
/// median.
const AGENTS: usize = 250_000;
const SMOKE_AGENTS: usize = 10_000;
const EPS: f64 = 1e-9;
/// Round budget: far above the ~110 rounds the full size needs.
const MAX_ROUNDS: u64 = 5_000;

const STEP: &str = "runtime.flat.step_threads";
const STEP_T1: &str = "runtime.flat.step_threads.t1";

struct Problem {
    graph: Digraph,
    values: Vec<f64>,
    /// The mean of the integer inputs, rounded once.
    mean: f64,
}

fn generate(n: usize, seed: u64, tr: &mut Tracer) -> Problem {
    let graph = tr.span("graph.generate", |_| {
        generators::random_strongly_connected(n, 2 * n, seed).with_self_loops()
    });
    let mut rng = Rng::new(seed, 1);
    let ints: Vec<u64> = (0..n).map(|_| rng.below(100)).collect();
    let mean = ints.iter().sum::<u64>() as f64 / n as f64;
    let values = ints.into_iter().map(|v| v as f64).collect();
    Problem {
        graph,
        values,
        mean,
    }
}

fn build(p: &Problem, tr: &mut Tracer) -> FlatExecution<PushSum> {
    let columns = PushSumState::columns(&PushSumState::averaging(&p.values));
    tr.span("runtime.flat.new", |_| {
        FlatExecution::new(PushSum, &p.graph, columns)
    })
}

/// Drive to ε-agreement. Untraced, this is one `drive` call; traced, the
/// same loop is spelled out so every `step_threads` call gets a span.
fn solve(
    exec: &mut FlatExecution<PushSum>,
    target: f64,
    threads: usize,
    step: &'static str,
    tr: &mut Tracer,
) -> CellReport {
    if !tr.enabled() {
        return exec.drive(
            FlatRunConfig::rounds(MAX_ROUNDS)
                .threads(threads)
                .measure(target, EPS)
                .confirm(2),
        );
    }
    let mut distances = Vec::new();
    let mut entered: Option<u64> = None;
    for _ in 0..MAX_ROUNDS {
        tr.span(step, |_| exec.step_threads(threads));
        let outputs = tr.span("runtime.flat.outputs", |_| exec.outputs());
        let d = max_distance(&EuclideanMetric, &outputs, &target);
        distances.push(d);
        if !d.is_finite() {
            break;
        }
        if d <= EPS {
            let at = *entered.get_or_insert(exec.round());
            if exec.round() - at >= 2 {
                break;
            }
        } else {
            entered = None;
        }
    }
    CellReport::from_trace(0, distances, EPS, 0, FaultEvents::default(), None)
}

/// Check one solved execution against the expected mean.
fn gate(exec: &FlatExecution<PushSum>, report: &CellReport, expected: f64, out: &mut Outcome) {
    out.check(report.converged() && report.diverged_at.is_none(), || {
        format!("flat run did not converge: {report}")
    });
    let worst = max_distance(&EuclideanMetric, &exec.outputs(), &expected);
    out.check(worst <= EPS, || {
        format!("flat output {worst:e} away from the mean {expected}")
    });
}

pub fn run(cfg: &Cfg, tr: &mut Tracer, out: &mut Outcome) {
    let n = if cfg.smoke { SMOKE_AGENTS } else { AGENTS };
    let threads = cfg.nproc;
    out.host("threads", threads);
    out.host("oversubscribed", threads > cfg.nproc);
    let mark = tr.len();
    let (mut setup, mut wall, mut traced_wall) = (Vec::new(), Vec::new(), Vec::new());
    let (mut converged, mut slots) = (Vec::new(), Vec::new());
    let (mut bytes, mut rounds_run) = (0, 0);
    let (mut spent, mut last) = (0.0, 0.0);
    while cfg.another(wall.len() + traced_wall.len(), spent, last) {
        let rep = wall.len() + traced_wall.len();
        // A traced run alternates traced and untraced repetitions; the
        // difference of their medians is the tracing overhead.
        let was = tr.set_enabled(cfg.traced && rep % 2 == 0);
        let t = Instant::now();
        let problem = generate(n, cfg.seed, tr);
        let mut exec = build(&problem, tr);
        setup.push(t.elapsed().as_secs_f64());
        if tr.enabled() {
            tr.span("graph.plan_build", |_| RoutingPlan::new(&problem.graph));
        }
        slots.push(exec.plan().slots() as u64);
        bytes = exec.resident_bytes();

        let t = Instant::now();
        let report = solve(&mut exec, problem.mean, threads, STEP, tr);
        let secs = t.elapsed().as_secs_f64();
        last = secs + setup[rep];
        spent += last;
        eprintln!(
            "perfbench: repetition {rep}: set-up {:.4} s, timed {secs:.4} s",
            setup[rep]
        );
        if tr.enabled() {
            traced_wall.push(secs);
        } else {
            wall.push(secs);
        }
        out.e2e("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        let expected = problem.mean + if cfg.wrong { 1.0 } else { 0.0 };
        gate(&exec, &report, expected, out);
        converged.push(report.converged_at.unwrap_or(0));
        rounds_run = report.rounds_run;
        drop(exec);

        if rep == 0 {
            // The one-thread baseline of the same problem: its rounds
            // are the single-thread layer metric, and it must converge
            // at the same round.
            let mut exec = build(&problem, tr);
            let report = solve(&mut exec, problem.mean, 1, STEP_T1, tr);
            gate(&exec, &report, expected, out);
            converged.push(report.converged_at.unwrap_or(0));
        }
        tr.set_enabled(was);
    }

    let wall_s = median(&wall);
    out.e2e("wall_s", wall_s, "s");
    out.e2e("setup_s", median(&setup), "s");
    out.e2e(
        "agent_rounds_per_s",
        (n as u64 * rounds_run) as f64 / wall_s,
        "1/s",
    );
    out.e2e("cells_per_s", 1.0 / wall_s, "1/s");

    out.count("algos.pushsum.rounds_to_eps", &converged);
    out.count("graph.plan_slots", &slots);
    if !cfg.traced {
        return;
    }
    out.layer("trace_overhead_s", median(&traced_wall) - wall_s, "s");
    out.layer(
        "graph.generate_s",
        median(&tr.secs(mark, "graph.generate")),
        "s",
    );
    out.layer(
        "graph.plan_build_s",
        median(&tr.secs(mark, "graph.plan_build")),
        "s",
    );
    out.layer(
        "runtime.flat.new_s",
        median(&tr.secs(mark, "runtime.flat.new")),
        "s",
    );
    let rounds: Vec<f64> = tr.secs(mark, STEP).iter().map(|s| s * 1e6).collect();
    let rounds_t1: Vec<f64> = tr.secs(mark, STEP_T1).iter().map(|s| s * 1e6).collect();
    let p50 = median(&rounds);
    out.layer("runtime.flat.round_us.p50", p50, "us");
    out.layer("runtime.flat.round_us.p90", quantile(&rounds, 0.9), "us");
    out.layer("runtime.flat.round_t1_us.p50", median(&rounds_t1), "us");
    out.layer(
        "runtime.flat.thread_speedup",
        median(&rounds_t1) / p50,
        "ratio",
    );
    out.layer("runtime.flat.bytes_per_agent", bytes as f64 / n as f64, "B");
    let computed = computed_bytes_per_round(n, slots[0] as usize);
    out.layer("runtime.flat.computed_bytes_per_round", computed, "B");
    out.layer("runtime.flat.achieved_gbps", computed / p50 / 1e3, "GB/s");
}

/// Bytes one Push-Sum round moves, computed from the plan sizes and lane
/// counts (not measured): read the state columns, write and re-read the
/// send buffer, write and re-read the message arena, write the next
/// columns, and read the plan's offset and gather arrays once.
fn computed_bytes_per_round(n: usize, slots: usize) -> f64 {
    let f = std::mem::size_of::<f64>() as f64;
    let u = std::mem::size_of::<usize>() as f64;
    let state = <PushSum as FlatAlgorithm>::STATE_LANES as f64;
    let msg = <PushSum as FlatAlgorithm>::MSG_LANES as f64;
    let (n, slots) = (n as f64, slots as f64);
    f * (2.0 * state * n + 4.0 * msg * slots) + u * (2.0 * (n + 1.0) + slots)
}

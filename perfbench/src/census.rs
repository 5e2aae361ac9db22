//! `census_exact`: the paper's exact pipeline.
//!
//! Each repetition builds the inputs (the set-up), then times three
//! steps: the minimum base of a seeded random strongly connected graph
//! with three input values; exact ℚ Push-Sum on `star:256` and
//! `ring:1024`; and the certified-interval twin on the same cells,
//! followed by an audit that every exact output lies inside its
//! enclosure. Exact mass must be conserved and the fibres must cover the
//! graph.

use crate::trace::Tracer;
use crate::{median, Cfg, Outcome, Rng};
use kya_algos::certified::{CertifiedPushSum, CertifiedPushSumState};
use kya_algos::push_sum::{PushSum, PushSumExact, PushSumExactState, PushSumState};
use kya_arith::{BigInt, BigRational, Enclosure};
use kya_fibration::MinimumBase;
use kya_graph::{generators, Digraph, StaticGraph};
use kya_runtime::{Execution, Isotropic, RunConfig};
use std::time::Instant;

struct Size {
    fib_vertices: usize,
    star: usize,
    ring: usize,
    rounds: u64,
}

const FULL: Size = Size {
    fib_vertices: 100_000,
    star: 256,
    ring: 1024,
    rounds: 400,
};

const SMOKE: Size = Size {
    fib_vertices: 2_000,
    star: 16,
    ring: 32,
    rounds: 60,
};

const EXACT_ROUND: &str = "algos.pushsum_exact.round";
const CERTIFIED_ROUND: &str = "algos.certified.round";
const BOXED_ROUND: &str = "runtime.boxed.step";
const CONTAINS: &str = "arith.contains_rational";

/// One averaging cell: a closed graph and its seeded integer inputs.
struct Cell {
    label: String,
    graph: Digraph,
    net: StaticGraph,
    inputs: Vec<i64>,
}

struct Inputs {
    fib: Digraph,
    fib_values: Vec<u64>,
    cells: Vec<Cell>,
}

fn setup(size: &Size, seed: u64, tr: &mut Tracer) -> Inputs {
    let n = size.fib_vertices;
    let fib = tr.span("graph.generate", |_| {
        generators::random_strongly_connected(n, n, seed).with_self_loops()
    });
    let mut rng = Rng::new(seed, 2);
    let fib_values = (0..n).map(|_| rng.below(3)).collect();
    let cells = [
        (format!("star:{}", size.star), generators::star(size.star)),
        (
            format!("ring:{}", size.ring),
            generators::directed_ring(size.ring),
        ),
    ]
    .into_iter()
    .map(|(label, g)| {
        let inputs = (0..g.n()).map(|_| rng.below(1000) as i64).collect();
        Cell {
            label,
            net: StaticGraph::new(g.clone()),
            graph: g.with_self_loops(),
            inputs,
        }
    })
    .collect();
    Inputs {
        fib,
        fib_values,
        cells,
    }
}

/// Exact Push-Sum on one cell: one `drive` call, or one span per
/// `step` when traced.
fn exact(cell: &Cell, rounds: u64, tr: &mut Tracer) -> Execution<Isotropic<PushSumExact>> {
    let mut exec = Execution::new(
        Isotropic(PushSumExact),
        PushSumExactState::averaging(&cell.inputs),
    );
    if tr.enabled() {
        for _ in 0..rounds {
            tr.span(EXACT_ROUND, |_| exec.step(&cell.graph));
        }
    } else {
        exec.drive(&cell.net, RunConfig::rounds(rounds));
    }
    exec
}

/// The certified-interval twin of [`exact`].
fn certified(cell: &Cell, rounds: u64, tr: &mut Tracer) -> Vec<Enclosure> {
    let floats: Vec<f64> = cell.inputs.iter().map(|&v| v as f64).collect();
    let mut exec = Execution::new(
        Isotropic(CertifiedPushSum),
        CertifiedPushSumState::averaging(&floats),
    );
    if tr.enabled() {
        for _ in 0..rounds {
            tr.span(CERTIFIED_ROUND, |_| exec.step(&cell.graph));
        }
    } else {
        exec.drive(&cell.net, RunConfig::rounds(rounds));
    }
    exec.outputs()
}

/// What one repetition's timed phase produced, for the checks.
struct Solved {
    fibre_sizes: Vec<usize>,
    exact: Vec<Vec<PushSumExactState>>,
    outputs: Vec<Vec<BigRational>>,
    enclosures: Vec<Vec<Enclosure>>,
    contained: Vec<Vec<bool>>,
}

fn solve(inp: &Inputs, size: &Size, tr: &mut Tracer) -> Solved {
    let base = tr.span("fibration.min_base", |_| {
        MinimumBase::compute(&inp.fib, &inp.fib_values)
    });
    let mut s = Solved {
        fibre_sizes: base.fibre_sizes(),
        exact: Vec::new(),
        outputs: Vec::new(),
        enclosures: Vec::new(),
        contained: Vec::new(),
    };
    for cell in &inp.cells {
        let exec = exact(cell, size.rounds, tr);
        let outputs = exec.outputs();
        let enclosures = certified(cell, size.rounds, tr);
        let contained = outputs
            .iter()
            .zip(&enclosures)
            .map(|(q, e)| tr.span(CONTAINS, |_| e.contains_rational(q)))
            .collect();
        s.exact.push(exec.states().to_vec());
        s.outputs.push(outputs);
        s.enclosures.push(enclosures);
        s.contained.push(contained);
    }
    s
}

fn gate(inp: &Inputs, s: &Solved, wrong: bool, out: &mut Outcome) {
    let fib_n = inp.fib.n() + usize::from(wrong);
    let covered: usize = s.fibre_sizes.iter().sum();
    out.check(covered == fib_n, || {
        format!("fibre sizes sum to {covered}, not {fib_n}")
    });
    for (k, cell) in inp.cells.iter().enumerate() {
        let states = &s.exact[k];
        let y: BigRational = states.iter().map(|st| &st.y).sum();
        let z: BigRational = states.iter().map(|st| &st.z).sum();
        let inputs = cell.inputs.iter().sum::<i64>() + i64::from(wrong);
        out.check(y == BigRational::from_integer(inputs), || {
            format!("{}: exact value mass {y} != {inputs}", cell.label)
        });
        let n = cell.inputs.len() as i64;
        out.check(z == BigRational::from_integer(n), || {
            format!("{}: exact weight mass {z} != {n}", cell.label)
        });
        for (v, (inside, e)) in s.contained[k].iter().zip(&s.enclosures[k]).enumerate() {
            out.check(*inside && e.width().is_finite(), || {
                format!(
                    "{}: agent {v}: exact output {} outside [{}, {}]",
                    cell.label,
                    s.outputs[k][v],
                    e.lo(),
                    e.hi()
                )
            });
        }
    }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer, out: &mut Outcome) {
    let size = if cfg.smoke { &SMOKE } else { &FULL };
    let mark = tr.len();
    let (mut setup_s, mut wall, mut traced_wall) = (Vec::new(), Vec::new(), Vec::new());
    let (mut classes, mut den_bits) = (Vec::new(), Vec::new());
    let (mut spent, mut last) = (0.0, 0.0);
    let mut solved = None;
    while cfg.another(wall.len() + traced_wall.len(), spent, last) {
        let rep = wall.len() + traced_wall.len();
        let was = tr.set_enabled(cfg.traced && rep % 2 == 0);
        let t = Instant::now();
        let inp = setup(size, cfg.seed, tr);
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let s = solve(&inp, size, tr);
        let secs = t.elapsed().as_secs_f64();
        last = secs + setup_s[rep];
        spent += last;
        eprintln!(
            "perfbench: repetition {rep}: set-up {:.4} s, timed {secs:.4} s",
            setup_s[rep]
        );
        if tr.enabled() {
            traced_wall.push(secs);
        } else {
            wall.push(secs);
        }
        tr.set_enabled(was);
        out.e2e("peak_rss_mb", crate::host::peak_rss_mb(), "MB");

        gate(&inp, &s, cfg.wrong, out);
        classes.push(s.fibre_sizes.len() as u64);
        den_bits.push(max_den_bits(&s.exact));
        solved = Some((inp, s));
    }
    let (inp, s) = solved.expect("at least one repetition");

    // Exact and certified runs each execute every cell agent each round;
    // the minimum base is one more cell.
    let agents: usize = inp.cells.iter().map(|c| c.inputs.len()).sum();
    let wall_s = median(&wall);
    out.e2e("wall_s", wall_s, "s");
    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e(
        "agent_rounds_per_s",
        2.0 * (agents as u64 * size.rounds) as f64 / wall_s,
        "1/s",
    );
    out.e2e(
        "cells_per_s",
        (1 + 2 * inp.cells.len()) as f64 / wall_s,
        "1/s",
    );

    out.count("fibration.classes", &classes);
    out.count("arith.max_den_bits", &den_bits);
    if !cfg.traced {
        return;
    }
    let width = s
        .enclosures
        .iter()
        .flatten()
        .map(Enclosure::width)
        .fold(0.0, f64::max);
    out.layer("algos.certified.max_width", width, "1");
    out.layer("trace_overhead_s", median(&traced_wall) - wall_s, "s");
    out.layer(
        "fibration.min_base_s",
        median(&tr.secs(mark, "fibration.min_base")),
        "s",
    );
    out.layer(
        "graph.generate_s",
        median(&tr.secs(mark, "graph.generate")),
        "s",
    );
    out.layer(
        "algos.pushsum_exact.round_us",
        us(tr, mark, EXACT_ROUND),
        "us",
    );
    out.layer(
        "algos.certified.round_us",
        us(tr, mark, CERTIFIED_ROUND),
        "us",
    );
    out.layer("arith.contains_us", us(tr, mark, CONTAINS), "us");

    // Layer-only measurements, after the timed phase: the f64 boxed
    // executor on the same cells, and the big-integer kernels on
    // operands from the final exact states.
    let was = tr.set_enabled(true);
    let mark = tr.len();
    for cell in &inp.cells {
        let floats: Vec<f64> = cell.inputs.iter().map(|&v| v as f64).collect();
        let mut exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&floats));
        for _ in 0..size.rounds {
            tr.span(BOXED_ROUND, |_| exec.step(&cell.graph));
        }
    }
    out.layer("runtime.boxed.round_us", us(tr, mark, BOXED_ROUND), "us");
    let (a, b) = operands(&s.exact);
    for _ in 0..200 {
        std::hint::black_box(tr.span("arith.gcd", |_| kya_arith::gcd(&a, &b)));
        std::hint::black_box(tr.span("arith.div_rem", |_| a.div_rem(&b)));
    }
    out.layer("arith.gcd_us", us(tr, mark, "arith.gcd"), "us");
    out.layer("arith.div_rem_us", us(tr, mark, "arith.div_rem"), "us");
    tr.set_enabled(was);
}

/// Median duration in microseconds of the spans named `name` since `mark`.
fn us(tr: &Tracer, mark: usize, name: &str) -> f64 {
    median(&tr.secs(mark, name)) * 1e6
}

/// Widest denominator of any final exact state, in bits.
fn max_den_bits(exact: &[Vec<PushSumExactState>]) -> u64 {
    exact
        .iter()
        .flatten()
        .flat_map(|st| [st.y.denom().bits(), st.z.denom().bits()])
        .max()
        .unwrap_or(0) as u64
}

/// The numerators of the final exact state with the widest value
/// denominator: the operand pair of the gcd and division timings.
fn operands(exact: &[Vec<PushSumExactState>]) -> (BigInt, BigInt) {
    let st = exact
        .iter()
        .flatten()
        .max_by_key(|st| st.y.denom().bits())
        .expect("at least one exact state");
    (st.y.numer().abs(), st.z.numer().abs())
}

//! **F7** — the bounded-bandwidth survival matrix: quantized Push-Sum
//! and quantized Metropolis across the symmetric topology family under
//! every cap `b ∈ {1, 2, 4, 8, ∞}`, with the per-round byte ledger and
//! exact-ℚ token accounting.
//!
//! Each capped cell records a **survival verdict**: the run survives
//! when the final consensus diameter is within the accuracy its cap can
//! attain — two effective grid steps for quantized Metropolis (whose
//! transfers round to a `2^shift` token window), or one part in `2^b`
//! of the initial spread for quantized Push-Sum (whose token ratios
//! carry no fixed output grid). Dead cells — notably Push-Sum on every
//! non-complete topology, where saturating shares freeze the y tokens
//! while z keeps mixing — are *findings*, not failures: a cell only
//! fails `ok` when an invariant breaks — token mass not conserved
//! exactly, a ledger mismatch, or the `b = ∞` rung not reproducing the
//! uncapped fingerprint bitwise.

use super::{Experiment, Nets};
use kya_algos::metropolis::Metropolis;
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_algos::quantized::{QuantizedMetropolis, QuantizedPushSum};
use kya_arith::{BigInt, BigRational};
use kya_graph::{DynamicGraph, StaticGraph};
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, SpecError};
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::{BandwidthCap, ByteLedger, Execution, Isotropic, MessageCodec, RunConfig};

/// The F7 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "f7",
    about: "bounded bandwidth: quantized averaging survival matrix across caps b=1,2,4,8,inf",
    extra_flags: &[],
    ignored_flags: &[],
    nets: Nets::Static,
    churn_variants: false,
    build,
    cell,
    render,
};

fn build(args: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    // Symmetric topologies only: quantized Metropolis conserves tokens
    // through antisymmetric pairwise transfers, which need every link to
    // be bidirectional.
    Ok(vec![ExperimentSpec::new("f7_bandwidth")
        .topologies(["biring:{n}", "complete:{n}", "path:{n}"])
        .sizes([8, 12])
        .algorithms(["qpushsum", "qmetropolis"])
        .variants(["b1", "b2", "b4", "b8", "binf"])
        .rounds(600)
        .with_args(args)?])
}

/// Order-sensitive splitmix fold over the state bits — the same
/// fingerprint on both sides of the `b = ∞` comparison.
fn digest(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for b in bits {
        h = (h ^ b).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
    }
    h
}

/// Max pairwise output distance — the consensus diameter.
fn diameter(outs: &[f64]) -> f64 {
    let lo = outs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = outs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

/// Exact consensus diameter of the token ratios, in ℚ.
fn exact_diameter(ratios: &[(u64, u64)]) -> BigRational {
    let qs: Vec<BigRational> = ratios
        .iter()
        .map(|&(num, den)| BigRational::new(BigInt::from(num), BigInt::from(den)))
        .collect();
    let mut max = BigRational::zero();
    for a in &qs {
        for b in &qs {
            let d = (a - b).abs();
            if d > max {
                max = d;
            }
        }
    }
    max
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    let g = ctx.graph().expect("static label").with_self_loops();
    let n = g.n();
    let edges = g.edge_count() as u64;
    let rounds = ctx.rounds();
    let values = super::inputs(n);
    let target = values.iter().sum::<f64>() / n as f64;
    let spread0 = diameter(&values);
    let net = StaticGraph::new(g);
    let cap = BandwidthCap::parse(&ctx.cell.variant).expect("cap variant");
    let ledger = ByteLedger::new();

    let Some(codec) = cap.codec() else {
        // b = ∞: the unquantized algorithm, once bare and once under the
        // Unlimited rung — the rung must be a pure observer.
        let (bare, metered, converged_at) = match ctx.cell.algorithm.as_str() {
            "qpushsum" => {
                let mut bare = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
                bare.drive(&net, RunConfig::rounds(rounds));
                let mut metered =
                    Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
                let report = metered.drive(
                    &net,
                    RunConfig::rounds(rounds)
                        .measure(&EuclideanMetric, &target, 1e-9)
                        .bandwidth(cap, &ledger),
                );
                let d = |e: &Execution<Isotropic<PushSum>>| {
                    digest(
                        e.states()
                            .iter()
                            .flat_map(|s| [s.y.to_bits(), s.z.to_bits()]),
                    )
                };
                (d(&bare), d(&metered), report.converged_at)
            }
            "qmetropolis" => {
                let mut bare = Execution::new(Isotropic(Metropolis), values.clone());
                bare.drive(&net, RunConfig::rounds(rounds));
                let mut metered = Execution::new(Isotropic(Metropolis), values.clone());
                let report = metered.drive(
                    &net,
                    RunConfig::rounds(rounds)
                        .measure(&EuclideanMetric, &target, 1e-9)
                        .bandwidth(cap, &ledger),
                );
                let d = |e: &Execution<Isotropic<Metropolis>>| {
                    digest(e.states().iter().map(|x| x.to_bits()))
                };
                (d(&bare), d(&metered), report.converged_at)
            }
            other => panic!("unknown f7 algorithm `{other}`"),
        };
        let ledger_ok = ledger.total_bits() == rounds * edges * 64;
        return CellOutcome::new()
            .ok(bare == metered && ledger_ok)
            .detail("survived", true)
            .detail("digest", format!("{metered:016x}"))
            .detail("uncapped_digest", format!("{bare:016x}"))
            .detail("qerr", "0".to_string())
            .detail(
                "converged_at",
                converged_at.map_or("-".to_string(), |k| k.to_string()),
            )
            .detail("bytes", ledger.total_bytes());
    };

    // Capped arm: the quantized twin. A cell survives when the final
    // consensus diameter is within the accuracy the cap can attain:
    // two effective grid steps (the transfer rule's rounding window) or,
    // where the outputs carry no fixed grid (quantized Push-Sum's token
    // ratios), one part in 2^b of the initial spread.
    let run = quantized(
        &ctx.cell.algorithm,
        codec,
        13.0,
        &values,
        &net,
        rounds,
        &ledger,
    );
    let floor = run
        .grid
        .map_or(spread0 / codec.levels() as f64, |step| 2.0 * step);
    let survived = diameter(&run.outputs) <= floor;
    let residual = run
        .outputs
        .iter()
        .map(|x| (x - target).abs())
        .fold(0.0f64, f64::max);
    let ledger_ok = ledger.total_bits() == rounds * edges * u64::from(codec.bits());
    CellOutcome::new()
        .ok(run.conserved && ledger_ok)
        .detail("survived", survived)
        .detail(
            "digest",
            format!("{:016x}", digest(run.outputs.iter().map(|x| x.to_bits()))),
        )
        .detail("qerr", exact_diameter(&run.ratios).to_string())
        .detail("residual", residual)
        .detail("bytes", ledger.total_bytes())
}

/// One capped quantized averaging run ([`quantized`]).
pub struct QuantizedRun {
    /// The agents' final outputs.
    pub outputs: Vec<f64>,
    /// Each agent's exact token ratio `(num, den)`: its output in ℚ.
    pub ratios: Vec<(u64, u64)>,
    /// Whether the total token mass was conserved exactly.
    pub conserved: bool,
    /// The grid step quantized Metropolis transfers move in, or `None`
    /// for quantized Push-Sum, whose token ratios carry no fixed grid.
    pub grid: Option<f64>,
}

/// The capped F7 run: `qpushsum` or `qmetropolis` (the latter for values
/// in `[0, bound]`) averaging `values` on `net` for `rounds` rounds with
/// `codec`'s b-bit codewords, charging the cap's traffic to `ledger`.
///
/// # Panics
///
/// Panics on any other algorithm name, on `values` outside the
/// algorithm's range, or if `values` does not have one entry per agent.
pub fn quantized(
    algorithm: &str,
    codec: MessageCodec,
    bound: f64,
    values: &[f64],
    net: &dyn DynamicGraph,
    rounds: u64,
    ledger: &ByteLedger,
) -> QuantizedRun {
    let cap = BandwidthCap::Bits(codec.bits());
    match algorithm {
        "qpushsum" => {
            let algo = QuantizedPushSum::new(codec.bits());
            let states = algo.initial(values);
            let before = QuantizedPushSum::total_tokens(&states);
            let mut exec = Execution::new(Isotropic(algo), states);
            exec.drive(net, RunConfig::rounds(rounds).bandwidth(cap, ledger));
            QuantizedRun {
                outputs: exec.outputs(),
                ratios: exec
                    .states()
                    .iter()
                    .map(|s| (s.y as u64, s.z as u64))
                    .collect(),
                conserved: QuantizedPushSum::total_tokens(exec.states()) == before,
                grid: None,
            }
        }
        "qmetropolis" => {
            let algo = QuantizedMetropolis::new(codec.bits(), bound);
            let states = algo.initial(values);
            let before = QuantizedMetropolis::total_tokens(&states);
            let mut exec = Execution::new(Isotropic(algo), states);
            exec.drive(net, RunConfig::rounds(rounds).bandwidth(cap, ledger));
            QuantizedRun {
                outputs: exec.outputs(),
                ratios: exec
                    .states()
                    .iter()
                    .map(|&x| (x as u64, codec.levels()))
                    .collect(),
                conserved: QuantizedMetropolis::total_tokens(exec.states()) == before,
                grid: Some(algo.resolution()),
            }
        }
        other => panic!("unknown f7 algorithm `{other}`"),
    }
}

fn render(sink: &ResultSink) -> String {
    let mut out = String::from(
        "F7. bounded bandwidth: quantized averaging under b-bit caps\n\
         (survival = consensus diameter within the cap's attainable\n\
         accuracy; dead cells are findings, [XX] marks broken invariants)\n",
    );
    out.push_str(&format!(
        "{:>14} {:>12} {:>6} {:>9} {:>12} {:>10} {:>24}\n",
        "graph", "algo", "cap", "survived", "residual", "bytes", "exact diameter"
    ));
    for r in sink.records() {
        let survived = matches!(r.detail("survived"), Some(serde::Value::Bool(true)));
        let residual = match r.detail("residual") {
            Some(serde::Value::Float(x)) => format!("{x:.2e}"),
            _ => "-".to_string(),
        };
        let bytes = match r.detail("bytes") {
            Some(serde::Value::Int(b)) => b.to_string(),
            Some(serde::Value::UInt(b)) => b.to_string(),
            _ => "-".to_string(),
        };
        let qerr = match r.detail("qerr") {
            Some(serde::Value::Str(s)) => {
                let mut s = s.clone();
                if s.len() > 24 {
                    s.truncate(21);
                    s.push_str("...");
                }
                s
            }
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:>14} {:>12} {:>6} {:>9} {:>12} {:>10} {:>24}{}\n",
            r.topology,
            r.algorithm,
            r.variant,
            if survived { "yes" } else { "DIED" },
            residual,
            bytes,
            qerr,
            if r.ok == Some(false) { "  [XX]" } else { "" },
        ));
    }
    out.push_str(
        "\nReading: quantized Push-Sum survives exactly where the per-port\n\
         share v*2^b/d fits the codeword — i.e. where max value <= degree\n\
         (complete graphs), independent of b: under uniform saturation every\n\
         agent sends and receives the same capped flow, y freezes while z\n\
         mixes, and the ratios stall. Quantized Metropolis survives at every\n\
         cap by coarsening instead: its antisymmetric transfers round to the\n\
         2^shift window, so accuracy (the residual column) improves ~2x per\n\
         bit while bytes/round grow linearly.\n",
    );
    out
}

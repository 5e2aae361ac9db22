//! A probed **million-agent** Push-Sum run on the flat SoA/CSR engine,
//! with the residual distribution rendered as a deterministic log2
//! histogram — the observability stack end to end.
//!
//! Run with `cargo run --release --example flat_profile`
//! (debug builds work but take minutes at n = 10^6).
//!
//! A [`CountingProbe`] rides the sharded hot path for free-ish: the
//! round events and totals a boxed trace would record (counters read off
//! the routing plan and a bit-exact state digest per round, identical at
//! any thread count and to the boxed trace — conformance oracle `probe`
//! pins that), and a separate wall-clock phase breakdown that never
//! touches the deterministic stream. For the machine-readable artifact version of
//! this run, see `kya profile` and `BENCH_flat.json`.

use know_your_audience::algos::push_sum::{PushSum, PushSumState};
use know_your_audience::graph::generators;
use know_your_audience::runtime::telemetry::Log2Histogram;
use know_your_audience::runtime::{CountingProbe, FlatExecution, FlatRunConfig};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let rounds = 60u64;
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));

    println!("building random strongly-connected digraph, n = {n} ...");
    let g = generators::random_strongly_connected(n, 2 * n, 1).with_self_loops();
    let values: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
    let target = values.iter().sum::<f64>() / n as f64;
    let states = PushSumState::averaging(&values);

    let mut exec = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
    println!(
        "resident footprint: {:.1} B/agent ({} slots)",
        exec.resident_bytes() as f64 / n as f64,
        exec.plan().slots()
    );

    let mut probe = CountingProbe::new();
    let report = exec.drive(
        FlatRunConfig::rounds(rounds)
            .threads(threads)
            .measure(target, 1e-9)
            .confirm(2)
            .probe(&mut probe),
    );
    let summary = probe.summary();
    let times = probe.timing();
    println!(
        "ran {} rounds at {threads} threads: {} messages over links, {} over self-loops, \
         {} payload words",
        summary.rounds, summary.messages, summary.self_messages, summary.payload_words
    );
    println!(
        "phase breakdown: route {} us, pass {} us, merge {} us",
        times.route_us, times.pass_us, times.merge_us
    );
    match report.converged_at {
        Some(r) => println!("converged to the average at round {r} (eps 1e-9)"),
        None => println!("not yet within eps 1e-9 after {rounds} rounds"),
    }

    // The residual distribution: |output − target| bucketed by binary
    // exponent. Deterministic, so the histogram is diffable run to run.
    let residuals: Vec<f64> = exec.outputs().iter().map(|x| x - target).collect();
    let hist = Log2Histogram::from_values(&residuals);
    println!("\nresidual histogram (log2 buckets):");
    println!("  exact zeros: {}", hist.zeros());
    let max = hist.buckets().map(|(_, c)| c).max().unwrap_or(1);
    for (exp, count) in hist.buckets() {
        let bar = "#".repeat((count * 40 / max).max(1) as usize);
        println!("  2^{exp:>4}: {count:>8} {bar}");
    }
    println!("\nserialized: {}", serde::to_json_string(&hist));
}

//! Criterion bench: the flat CSR engine against the boxed executor
//! on the same graphs and rounds. Both paths compute bit-identical
//! Push-Sum states (the conformance flat oracle pins that), so the gap
//! is pure engine overhead: per-round message boxing and inbox
//! allocation on the boxed side vs one pass over reused state and
//! message columns, routed by a precomputed plan, on the flat side.
//!
//! The `flat_probe_overhead` group prices the probe: a plain `drive` vs
//! a `drive` with a `CountingProbe` attached (the measured cost of real
//! metrics; EXPERIMENTS.md quotes this table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::generators;
use kya_runtime::{CountingProbe, Execution, FlatExecution, FlatRunConfig, Isotropic, RunConfig};
use std::time::Duration;

const ROUNDS: u64 = 20;

fn values_for(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 101) as f64).collect()
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("flat_engine_20_rounds");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for n in [1_000usize, 10_000] {
        let g = generators::random_strongly_connected(n, 2 * n, 5).with_self_loops();
        let states = PushSumState::averaging(&values_for(n));
        group.bench_with_input(BenchmarkId::new("boxed_t1", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = Execution::new(Isotropic(PushSum), states.clone());
                exec.drive(
                    &kya_graph::StaticGraph::new(g.clone()),
                    RunConfig::rounds(ROUNDS),
                );
                exec.outputs()[0]
            })
        });
        group.bench_with_input(BenchmarkId::new("flat_t1", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
                exec.drive(FlatRunConfig::rounds(ROUNDS));
                exec.outputs()[0]
            })
        });
        group.bench_with_input(BenchmarkId::new("flat_t4", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
                exec.drive(FlatRunConfig::rounds(ROUNDS).threads(4));
                exec.outputs()[0]
            })
        });
    }
    group.finish();
}

fn bench_probe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("flat_probe_overhead");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let n = 10_000usize;
    let g = generators::random_strongly_connected(n, 2 * n, 5).with_self_loops();
    let states = PushSumState::averaging(&values_for(n));
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("bare", threads), &threads, |b, &t| {
            b.iter(|| {
                let mut exec = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
                exec.drive(FlatRunConfig::rounds(ROUNDS).threads(t));
                exec.outputs()[0]
            })
        });
        group.bench_with_input(
            BenchmarkId::new("counting_probe", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let mut exec = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
                    let mut probe = CountingProbe::new();
                    exec.drive(FlatRunConfig::rounds(ROUNDS).threads(t).probe(&mut probe));
                    (exec.outputs()[0], probe.summary().messages)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_probe_overhead);
criterion_main!(benches);

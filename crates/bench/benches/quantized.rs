//! Criterion bench: the quantized (b-bit) averaging twins against their
//! unquantized originals on the same graphs and rounds. The quantized
//! variants trade f64 multiplies for u64 token arithmetic plus the
//! residual-carry bookkeeping in `transition_with_outdegree`; this
//! bench measures what that costs per round, and what the cap width
//! (1 vs 8 bits — same arithmetic, different saturation behaviour)
//! changes, on both the boxed and flat executors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_algos::quantized::{QuantizedMetropolis, QuantizedPushSum};
use kya_bench::experiments::inputs;
use kya_graph::generators;
use kya_runtime::{lane_columns, Execution, FlatExecution, FlatRunConfig, Isotropic, RunConfig};
use std::time::Duration;

const ROUNDS: u64 = 20;

fn bench_quantized_pushsum(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantized_pushsum_20_rounds");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for n in [1_000usize, 10_000] {
        let g = generators::random_strongly_connected(n, 2 * n, 5).with_self_loops();
        let values = inputs(n);
        let plain = PushSumState::averaging(&values);
        group.bench_with_input(BenchmarkId::new("plain_boxed", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = Execution::new(Isotropic(PushSum), plain.clone());
                exec.drive(
                    &kya_graph::StaticGraph::new(g.clone()),
                    RunConfig::rounds(ROUNDS),
                );
                exec.outputs()[0]
            })
        });
        for bits in [1u32, 8] {
            let algo = QuantizedPushSum::new(bits);
            let states = algo.initial(&values);
            group.bench_with_input(BenchmarkId::new(format!("b{bits}_boxed"), n), &n, |b, _| {
                b.iter(|| {
                    let mut exec = Execution::new(Isotropic(algo), states.clone());
                    exec.drive(
                        &kya_graph::StaticGraph::new(g.clone()),
                        RunConfig::rounds(ROUNDS),
                    );
                    exec.outputs()[0]
                })
            });
            group.bench_with_input(
                BenchmarkId::new(format!("b{bits}_flat_t4"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut exec = FlatExecution::new(algo, &g, PushSumState::columns(&states));
                        exec.drive(FlatRunConfig::rounds(ROUNDS).threads(4));
                        exec.outputs()[0]
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_quantized_metropolis(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantized_metropolis_20_rounds");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for n in [1_000usize] {
        let g = generators::bidirectional_ring(n).with_self_loops();
        let values = inputs(n);
        for bits in [1u32, 8] {
            let algo = QuantizedMetropolis::new(bits, 13.0);
            let states = algo.initial(&values);
            group.bench_with_input(BenchmarkId::new(format!("b{bits}_boxed"), n), &n, |b, _| {
                b.iter(|| {
                    let mut exec = Execution::new(Isotropic(algo), states.clone());
                    exec.drive(
                        &kya_graph::StaticGraph::new(g.clone()),
                        RunConfig::rounds(ROUNDS),
                    );
                    exec.outputs()[0]
                })
            });
            group.bench_with_input(
                BenchmarkId::new(format!("b{bits}_flat_t4"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut exec = FlatExecution::new(algo, &g, lane_columns(&states));
                        exec.drive(FlatRunConfig::rounds(ROUNDS).threads(4));
                        exec.outputs()[0]
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_quantized_pushsum, bench_quantized_metropolis);
criterion_main!(benches);

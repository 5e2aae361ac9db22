//! Criterion bench: sequential vs parallel executor stepping. At the
//! n = 32 and 128 measured here every shard is far below
//! `MIN_SPAWN_AGENTS`, so `parallel_4` runs its four shards in order on
//! the calling thread and prices only the sharding bookkeeping of its two
//! sharded phases (sends, transitions) around the one sequential routing
//! pass in canonical order, not thread spawns.
//! The `trace_sink` entries price the telemetry layer: `sequential` is
//! the `NullObserver`-monomorphized path, so any gap between the two is
//! exactly the opt-in observer cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kya_algos::gossip::SetGossip;
use kya_graph::{generators, DynamicGraph, StaticGraph};
use kya_runtime::{Broadcast, Execution, RunConfig, TraceSink};
use std::time::Duration;

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_step_20_rounds");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for n in [32usize, 128] {
        let g = generators::random_strongly_connected(n, 2 * n, 5).with_self_loops();
        let inits: Vec<Vec<u64>> = (0..n as u64).map(|v| vec![v % 16]).collect();
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = Execution::new(Broadcast(SetGossip), inits.clone());
                for _ in 0..20 {
                    exec.step(&g);
                }
                exec.round()
            })
        });
        group.bench_with_input(BenchmarkId::new("parallel_4", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = Execution::new(Broadcast(SetGossip), inits.clone());
                exec.drive(&g, RunConfig::rounds(20).threads(4));
                exec.round()
            })
        });
        group.bench_with_input(BenchmarkId::new("trace_sink", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = Execution::new(Broadcast(SetGossip), inits.clone());
                let mut obs = TraceSink::new();
                exec.drive(&g, RunConfig::rounds(20).observer(&mut obs));
                obs.summary().messages
            })
        });
    }
    group.finish();
}

/// Prices the `DynamicGraph::graph_ref` borrowing accessor against the
/// by-value `graph(t)`: on static schedules the former is a pointer
/// copy, the latter clones the whole edge list every round — the clone
/// the measuring loops used to pay before they migrated to `graph_ref`.
fn bench_graph_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_graph_access_40_rounds");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for n in [64usize, 256] {
        let net = StaticGraph::new(generators::random_strongly_connected(n, 2 * n, 5));
        let inits: Vec<Vec<u64>> = (0..n as u64).map(|v| vec![v % 16]).collect();
        group.bench_with_input(BenchmarkId::new("graph_owned", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = Execution::new(Broadcast(SetGossip), inits.clone());
                for t in 1..=40u64 {
                    let g = net.graph(t);
                    exec.step(&g);
                }
                exec.round()
            })
        });
        group.bench_with_input(BenchmarkId::new("graph_ref", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = Execution::new(Broadcast(SetGossip), inits.clone());
                for t in 1..=40u64 {
                    let g = net.graph_ref(t);
                    exec.step(&g);
                }
                exec.round()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_step, bench_graph_access);
criterion_main!(benches);

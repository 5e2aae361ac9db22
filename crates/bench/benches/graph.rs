//! Criterion bench: building the graph a flat run starts from — the
//! seeded random strongly connected digraph with `2n` extra edges, its
//! self-loop closure, and the routing plan of that closure (which
//! freezes the closure's adjacency). This is the set-up `kya profile`
//! and the flat perfbench workload pay before their first round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kya_graph::{generators, RoutingPlan};
use std::time::Duration;

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group
        .measurement_time(Duration::from_secs(4))
        .sample_size(10);
    for n in [10_000usize, 250_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let g = generators::random_strongly_connected(n, 2 * n, 1).with_self_loops();
                RoutingPlan::new(&g).slots()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_graph_build);
criterion_main!(benches);

//! Criterion bench: the full distributed minimum-base pipeline — view
//! growth plus candidate extraction plus kernel solve — per network size
//! (feeds Table 1's positive cells and F2), and the view machinery in
//! isolation (ablation A2: hash-consing makes equal deep views O(1) to
//! compare; without it the pipeline is exponential), and the centralized
//! `MinimumBase::compute` on the exact-census graph family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kya_algos::frequency::CensusOutdegree;
use kya_algos::min_base::ViewState;
use kya_algos::views::{candidate_base, ClassMode, View};
use kya_fibration::MinimumBase;
use kya_graph::{generators, StaticGraph};
use kya_runtime::{Execution, Isotropic, RunConfig};
use std::time::Duration;

fn bench_census_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("census_outdegree_n_plus_d_rounds");
    group
        .measurement_time(Duration::from_secs(4))
        .sample_size(10);
    for n in [6usize, 10, 14] {
        let g = generators::random_strongly_connected(n, n, 3);
        let values: Vec<u64> = (0..n).map(|i| (i % 3) as u64).collect();
        let rounds = kya_bench::stabilization_budget(&g);
        let net = StaticGraph::new(g.clone());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut exec =
                    Execution::new(Isotropic(CensusOutdegree), ViewState::initial(&values));
                exec.drive(&net, RunConfig::rounds(rounds));
                exec.outputs()[0].clone()
            })
        });
    }
    group.finish();
}

fn bench_candidate_extraction(c: &mut Criterion) {
    // Build a deep view once, then measure candidate extraction alone.
    let mut group = c.benchmark_group("candidate_base_extraction");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for n in [8usize, 16] {
        let g = generators::random_strongly_connected(n, n, 7).with_self_loops();
        let values: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
        let mut views: Vec<View> = values.iter().map(|&v| View::leaf(v)).collect();
        for _ in 0..(2 * n) {
            views = (0..n)
                .map(|v| {
                    let children: Vec<(u64, View)> = g
                        .in_edges(v)
                        .map(|e| (0u64, views[g.edges()[e].src].clone()))
                        .collect();
                    View::node(values[v], children)
                })
                .collect();
        }
        let deep = views[0].clone();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| candidate_base(&deep, ClassMode::Broadcast))
        });
    }
    group.finish();
}

fn bench_centralized_min_base(c: &mut Criterion) {
    // The graph family of the exact census: a random strongly connected
    // digraph with n extra edges, self-loops, and 3 input values.
    let mut group = c.benchmark_group("centralized_min_base");
    group
        .measurement_time(Duration::from_secs(4))
        .sample_size(10);
    for n in [10_000usize, 100_000] {
        let g = generators::random_strongly_connected(n, n, 1).with_self_loops();
        let values: Vec<u64> = (0..n).map(|i| (i % 3) as u64).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| MinimumBase::compute(&g, &values).base().n())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_census_pipeline,
    bench_candidate_extraction,
    bench_centralized_min_base
);
criterion_main!(benches);

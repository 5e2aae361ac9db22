//! End-to-end properties of the parallel experiment harness: worker
//! count never changes output bytes, and warm [`TopologyCache`] hits
//! never change results relative to a cold cache.

use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::StaticGraph;
use kya_harness::{CellCtx, CellOutcome, ExperimentSpec, Runner, TopologyCache};
use kya_runtime::faults::FaultPlan;
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::{Execution, Isotropic, RunConfig};
use proptest::prelude::*;

/// A representative sweep: three topology families × two sizes × two
/// seeds × a fault-plan axis, with real algorithm work in every cell.
fn demo_spec() -> ExperimentSpec {
    ExperimentSpec::new("harness_demo")
        .topologies(["ring:{n}", "torus:{n}", "random:{n}:4:{seed}"])
        .sizes([6, 9])
        .seeds([1, 2])
        .plans([FaultPlan::new(0), FaultPlan::new(0).drop_links(0.2)])
        .rounds(200)
        .eps(1e-6)
}

/// Push-Sum averaging over the cell's graph; the cell seed perturbs the
/// inputs so identical outputs across runs cannot be a coincidence of
/// constant data.
fn demo_cell(ctx: &CellCtx) -> CellOutcome {
    let g = ctx.graph().expect("static label");
    let n = g.n();
    let values: Vec<f64> = (0..n)
        .map(|i| ((i as u64 * 31 + ctx.cell.cell_seed) % 97) as f64)
        .collect();
    let target = values.iter().sum::<f64>() / n as f64;
    let net = StaticGraph::new((*g).clone());
    let report = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values)).drive(
        &net,
        RunConfig::rounds(ctx.rounds()).measure(&EuclideanMetric, &target, ctx.eps()),
    );
    CellOutcome::new()
        .ok(report.converged())
        .detail(
            "diameter",
            ctx.cache.diameter(&ctx.cell.topology).ok().flatten(),
        )
        .report(report.without_trace())
}

#[test]
fn worker_count_never_changes_output_bytes() {
    let spec = demo_spec();
    let baseline = Runner::new(&spec).workers(1).run(demo_cell).to_ndjson();
    assert!(baseline.lines().count() >= 24, "sweep is non-trivial");
    for workers in [2, 4, 16] {
        let parallel = Runner::new(&spec)
            .workers(workers)
            .run(demo_cell)
            .to_ndjson();
        assert_eq!(baseline, parallel, "{workers} workers diverged from 1");
    }
}

#[test]
fn shared_cache_matches_private_caches() {
    let spec = demo_spec();
    let private = Runner::new(&spec).workers(2).run(demo_cell).to_ndjson();
    // One cache reused across three consecutive runs: later runs hit
    // memoized graphs, diameters, and bases only.
    let shared = TopologyCache::new();
    let mut outputs = Vec::new();
    for _ in 0..3 {
        outputs.push(
            Runner::new(&spec)
                .workers(2)
                .run_with_cache(&shared, demo_cell)
                .to_ndjson(),
        );
    }
    assert!(
        outputs.iter().all(|o| *o == private),
        "warm cache changed results"
    );
    let (hits, misses) = shared.stats();
    assert!(hits > misses, "repeat runs are mostly cache hits");
}

#[test]
fn per_worker_cache_counters_partition_the_totals() {
    let spec = demo_spec();
    let cache = TopologyCache::new();
    let _ = Runner::new(&spec)
        .workers(4)
        .run_with_cache(&cache, demo_cell);
    let per_worker = cache.worker_stats();
    let (hits, misses) = cache.stats();
    let hit_sum: u64 = per_worker.iter().map(|&(_, h, _)| h).sum();
    let miss_sum: u64 = per_worker.iter().map(|&(_, _, m)| m).sum();
    assert_eq!(hit_sum, hits, "worker hit buckets sum to the global total");
    assert_eq!(
        miss_sum, misses,
        "worker miss buckets sum to the global total"
    );
    // The runner's pre-warm pass runs outside any worker scope (the None
    // bucket); the cells themselves run under workers 0..4.
    assert!(
        per_worker
            .iter()
            .all(|&(w, _, _)| w.is_none() || w < Some(4)),
        "unexpected worker bucket: {per_worker:?}"
    );
    let worker_hits: u64 = per_worker
        .iter()
        .filter(|(w, _, _)| w.is_some())
        .map(|&(_, h, _)| h)
        .sum();
    assert!(worker_hits > 0, "cells hit the cache under worker scopes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cache hits are invisible: for any (size, seed, drop rate), a
    /// pre-warmed shared cache and a cold private cache produce the
    /// same bytes at any worker count.
    #[test]
    fn cache_hits_never_change_results(
        n in 3usize..10,
        seed in 0u64..1000,
        drop_ppm in 0u32..500_000,
        workers in 1usize..5,
    ) {
        let spec = ExperimentSpec::new("harness_prop")
            .topologies(["ring:{n}", "random:{n}:3:{seed}"])
            .sizes([n, n + 1])
            .seeds([seed])
            .plans([FaultPlan::new(0).drop_links(f64::from(drop_ppm) / 1e6)])
            .rounds(120)
            .base_seed(seed);
        let cold = Runner::new(&spec).workers(workers).run(demo_cell).to_ndjson();
        let warm_cache = TopologyCache::new();
        // Warm every label (and its diameter) before the measured run.
        let _ = Runner::new(&spec).workers(1).run_with_cache(&warm_cache, demo_cell);
        let warm = Runner::new(&spec)
            .workers(workers)
            .run_with_cache(&warm_cache, demo_cell)
            .to_ndjson();
        prop_assert_eq!(cold, warm);
    }
}

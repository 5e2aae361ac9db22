//! Criterion bench: the certified backend vs the pure-ℚ baseline.
//!
//! The conformance backend oracle's exact cells used to pay full
//! `BigRational` arithmetic on every operation; the certified backend
//! replaces that with directed-rounding [`Enclosure`] runs that escalate
//! to ℚ only when an enclosure cannot certify. This bench measures the
//! replacement on exactly the full-matrix backend-cell workloads
//! (ring / complete, n ∈ {4, 6, 8, 12}, 40 rounds, scalar and frequency
//! Push-Sum) — the speedup figures quoted in EXPERIMENTS.md:
//!
//! - `certified_pushsum_*` / `exact_pushsum_*`: the certified enclosure
//!   run vs the exact run of the scalar backend cell (the exact run is
//!   also what a cell pays *when* it escalates);
//! - `*_frequency_*`: the same two backends on Algorithm 1's
//!   frequency-vector instances.
//!
//! `cargo bench -p kya-bench --bench certified -- --test` is the CI
//! smoke invocation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kya_algos::certified::{
    CertifiedFrequencyState, CertifiedPushSum, CertifiedPushSumFrequency, CertifiedPushSumState,
};
use kya_algos::push_sum::{
    ExactFrequencyState, PushSumExact, PushSumExactState, PushSumFrequencyExact,
};
use kya_graph::{generators, StaticGraph};
use kya_runtime::{Execution, Isotropic, RunConfig};
use std::time::Duration;

/// The full conformance matrix's round budget.
const ROUNDS: u64 = 40;

/// The full matrix's size axis.
const SIZES: [usize; 4] = [4, 6, 8, 12];

/// The backend cells' deterministic inputs: small values in `1..=9`.
fn vals(n: usize) -> Vec<u64> {
    (0..n).map(|i| 1 + (i as u64 * 7 + 3) % 9).collect()
}

fn bench_scalar(c: &mut Criterion) {
    for (family, make) in [
        ("ring", generators::directed_ring as fn(usize) -> _),
        ("complete", generators::complete as fn(usize) -> _),
    ] {
        let mut group = c.benchmark_group(format!("backend_pushsum_{family}"));
        group
            .measurement_time(Duration::from_secs(3))
            .sample_size(20);
        for n in SIZES {
            let net = StaticGraph::new(make(n));
            let floats: Vec<f64> = vals(n).iter().map(|&v| v as f64).collect();
            let ints: Vec<i64> = vals(n).iter().map(|&v| v as i64).collect();
            group.bench_with_input(BenchmarkId::new("certified", n), &n, |b, _| {
                b.iter(|| {
                    let mut exec = Execution::new(
                        Isotropic(CertifiedPushSum),
                        CertifiedPushSumState::averaging(&floats),
                    );
                    exec.drive(&net, RunConfig::rounds(ROUNDS));
                    exec.outputs()
                })
            });
            group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
                b.iter(|| {
                    let mut exec = Execution::new(
                        Isotropic(PushSumExact),
                        PushSumExactState::averaging(&ints),
                    );
                    exec.drive(&net, RunConfig::rounds(ROUNDS));
                    exec.outputs()
                })
            });
        }
        group.finish();
    }
}

fn bench_frequency(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_frequency_ring");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    for n in SIZES {
        let net = StaticGraph::new(generators::directed_ring(n));
        let values = vals(n);
        group.bench_with_input(BenchmarkId::new("certified", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = Execution::new(
                    Isotropic(CertifiedPushSumFrequency),
                    CertifiedFrequencyState::initial(&values),
                );
                exec.drive(&net, RunConfig::rounds(ROUNDS));
                exec.outputs()
            })
        });
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| {
                let mut exec = Execution::new(
                    Isotropic(PushSumFrequencyExact),
                    ExactFrequencyState::initial(&values),
                );
                exec.drive(&net, RunConfig::rounds(ROUNDS));
                exec.outputs()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalar, bench_frequency);
criterion_main!(benches);

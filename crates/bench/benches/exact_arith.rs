//! Criterion bench: the exact-arithmetic hot path.
//!
//! The `BigRational` referee is what caps the network sizes the exact
//! demonstrations can reach, so this bench measures it directly:
//!
//! - `exact_pushsum_*`: full exact Push-Sum runs (200 rounds) on the
//!   cycle and the star, n ∈ {8, 32, 128} — the workload whose
//!   rounds/sec figures are tracked in EXPERIMENTS.md — plus the
//!   census-sized cells `exact_pushsum_star/256` and
//!   `exact_pushsum_cycle/1024` (50 rounds, so `--test` stays quick);
//! - `bigint_kernels`: the kernels the rational ops bottom out in
//!   (multi-limb division and gcd) on operands of a few thousand bits,
//!   and the two rational hot-path calls of exact Push-Sum on
//!   numerators of the same size over a power-of-two denominator:
//!   `div_integer` (the share split) and `rat_add_equal_den` (summing
//!   two shares with the same denominator);
//! - `rational_sum`: one inbox sum of k ∈ {2, 16, 256} shares with
//!   512-bit parts, over power-of-two denominators (`dyadic`: shift
//!   alignment, no gcd) or over odd ones (`odd`: one denominator gcd per
//!   new denominator and one normalising gcd).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kya_algos::push_sum::{PushSumExact, PushSumExactState};
use kya_arith::{gcd, BigInt, BigRational};
use kya_graph::{generators, StaticGraph};
use kya_runtime::{Execution, Isotropic, RunConfig};
use std::time::Duration;

const ROUNDS: u64 = 200;
/// Rounds of the census-sized cells.
const CENSUS_ROUNDS: u64 = 50;

fn exact_run(net: &StaticGraph, n: usize, rounds: u64) -> Vec<BigRational> {
    let values: Vec<i64> = (0..n).map(|i| (i * i % 97) as i64).collect();
    let mut exec = Execution::new(
        Isotropic(PushSumExact),
        PushSumExactState::averaging(&values),
    );
    exec.drive(net, RunConfig::rounds(rounds));
    exec.outputs()
}

fn bench_exact_pushsum(c: &mut Criterion) {
    for (family, make, census_n) in [
        (
            "exact_pushsum_cycle",
            generators::directed_ring as fn(usize) -> _,
            1024,
        ),
        (
            "exact_pushsum_star",
            generators::star as fn(usize) -> _,
            256,
        ),
    ] {
        let mut group = c.benchmark_group(family);
        group
            .measurement_time(Duration::from_secs(5))
            .sample_size(10);
        for (n, rounds) in [
            (8usize, ROUNDS),
            (32, ROUNDS),
            (128, ROUNDS),
            (census_n, CENSUS_ROUNDS),
        ] {
            let net = StaticGraph::new(make(n));
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
                b.iter(|| exact_run(&net, n, rounds))
            });
        }
        group.finish();
    }
}

/// Deterministic pseudo-random big integer of `limbs` 64-bit limbs
/// (xorshift — no rand dependency needed in a bench fixture).
fn pseudo_big(limbs: usize, mut seed: u64) -> BigInt {
    let mut acc = BigInt::zero();
    for _ in 0..limbs {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        acc = (acc << 64) + BigInt::from(seed | 1);
    }
    acc
}

fn bench_bigint_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_kernels");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for limbs in [8usize, 32] {
        let a = pseudo_big(2 * limbs, 0xDEAD_BEEF);
        let b = pseudo_big(limbs, 0xC0FF_EE11);
        group.bench_with_input(
            BenchmarkId::new("div_rem", limbs * 64),
            &limbs,
            |bench, _| bench.iter(|| a.div_rem(&b)),
        );
        group.bench_with_input(BenchmarkId::new("gcd", limbs * 64), &limbs, |bench, _| {
            bench.iter(|| gcd(&a, &b))
        });
        // Odd numerators over one power-of-two denominator: the shape of
        // exact Push-Sum shares on the census cells.
        let den = &BigInt::one() << (limbs * 64);
        let x = BigRational::new(b.clone(), den.clone());
        let y = BigRational::new(pseudo_big(limbs, 0x5EED_CAFE), den);
        group.bench_with_input(
            BenchmarkId::new("div_integer", limbs * 64),
            &limbs,
            |bench, _| bench.iter(|| x.div_integer(2)),
        );
        group.bench_with_input(
            BenchmarkId::new("rat_add_equal_den", limbs * 64),
            &limbs,
            |bench, _| bench.iter(|| &x + &y),
        );
    }
    group.finish();
}

/// Inbox-shaped sums: `dyadic` shares over `2^(512 + i mod 8)` (senders
/// whose denominators are a few rounds apart), `odd` shares over
/// `D · (2i + 1)` for one odd 512-bit `D` (out-degrees that are not
/// powers of two).
fn bench_rational_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("rational_sum");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let odd_den = pseudo_big(8, 0x0DD5_EED5);
    for k in [2usize, 16, 256] {
        let dyadic: Vec<BigRational> = (0..k)
            .map(|i| {
                BigRational::new(
                    pseudo_big(8, 0x5EED_0000 + i as u64),
                    &BigInt::one() << (512 + i % 8),
                )
            })
            .collect();
        let odd: Vec<BigRational> = (0..k)
            .map(|i| {
                BigRational::new(
                    pseudo_big(8, 0x0DD0_0000 + i as u64),
                    &odd_den * &BigInt::from(2 * i as u64 + 1),
                )
            })
            .collect();
        for (shape, terms) in [("dyadic", &dyadic), ("odd", &odd)] {
            group.bench_with_input(BenchmarkId::new(shape, k), &k, |b, _| {
                b.iter(|| terms.iter().sum::<BigRational>())
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_pushsum,
    bench_bigint_kernels,
    bench_rational_sum
);
criterion_main!(benches);

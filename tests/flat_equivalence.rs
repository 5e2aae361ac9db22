//! Property test: the flat SoA/CSR engine ([`FlatExecution`]) is
//! **bitwise** identical to the boxed executor — not approximately, not
//! up to reassociation — on random seeded digraphs, at every thread
//! count. The flat engine's in-source lists replay the canonical
//! ascending `(source id, port rank)` delivery order over a column of
//! one message per agent, so every f64 operation happens in the same
//! sequence as in `Execution::step`; this test is the contract.

use kya_algos::metropolis::Metropolis;
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_algos::quantized::{QuantizedMetropolis, QuantizedPushSum};
use kya_graph::generators;
use kya_runtime::{Execution, FlatExecution, Isotropic, RunConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Push-Sum: y and z lanes match the boxed state bit for bit after
    /// every budget, at 1, 2, and 4 threads.
    #[test]
    fn flat_pushsum_is_bitwise_boxed(
        n in 3usize..24,
        extra in 0usize..30,
        seed in 0u64..1000,
        rounds in 1u64..12,
    ) {
        let g = generators::random_strongly_connected(n, extra, seed).with_self_loops();
        let values: Vec<f64> = (0..n).map(|i| ((i as u64 * 37 + seed) % 101) as f64).collect();
        let states = PushSumState::averaging(&values);

        let mut boxed = Execution::new(Isotropic(PushSum), states.clone());
        boxed.drive(&kya_graph::StaticGraph::new(g.clone()), RunConfig::rounds(rounds));

        for threads in [1usize, 2, 4] {
            let mut flat = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
            flat.run(rounds, threads);
            prop_assert_eq!(flat.round(), boxed.round());
            for (v, s) in boxed.states().iter().enumerate() {
                prop_assert_eq!(
                    flat.state(v)[0].to_bits(), s.y.to_bits(),
                    "y lane, agent {} at {} threads", v, threads
                );
                prop_assert_eq!(
                    flat.state(v)[1].to_bits(), s.z.to_bits(),
                    "z lane, agent {} at {} threads", v, threads
                );
            }
        }
    }

    /// Metropolis: the degree exchange (usize max on the boxed path,
    /// f64 max of exact small integers on the flat path) lands on the
    /// same bits too.
    #[test]
    fn flat_metropolis_is_bitwise_boxed(
        n in 3usize..20,
        extra in 0usize..24,
        seed in 0u64..1000,
        rounds in 1u64..10,
    ) {
        let g = generators::random_strongly_connected(n, extra, seed).with_self_loops();
        let values: Vec<f64> = (0..n).map(|i| ((i as u64 * 53 + seed) % 97) as f64 / 7.0).collect();

        let mut boxed = Execution::new(Isotropic(Metropolis), values.clone());
        boxed.drive(&kya_graph::StaticGraph::new(g.clone()), RunConfig::rounds(rounds));

        for threads in [1usize, 2, 4] {
            let mut flat = FlatExecution::new(Metropolis, &g, vec![values.clone()]);
            flat.run(rounds, threads);
            for (v, s) in boxed.states().iter().enumerate() {
                prop_assert_eq!(
                    flat.state(v)[0].to_bits(), s.to_bits(),
                    "agent {} at {} threads", v, threads
                );
            }
        }
    }

    /// Quantized Push-Sum: integer token lanes (y and z) match the
    /// boxed residual-carry path bit for bit under every cap, at 1, 2,
    /// and 4 threads — both sides route the round outdegree through
    /// `transition_with_outdegree`, so the u64 token arithmetic replays
    /// identically.
    #[test]
    fn flat_quantized_pushsum_is_bitwise_boxed(
        n in 3usize..20,
        extra in 0usize..24,
        seed in 0u64..1000,
        rounds in 1u64..12,
        bsel in 0usize..4,
    ) {
        let bits = [1u32, 2, 4, 8][bsel];
        let g = generators::random_strongly_connected(n, extra, seed).with_self_loops();
        let values: Vec<f64> = (0..n).map(|i| ((i as u64 * 37 + seed) % 11) as f64).collect();
        let algo = QuantizedPushSum::new(bits);
        let states = algo.initial(&values);

        let mut boxed = Execution::new(Isotropic(algo), states.clone());
        boxed.drive(&kya_graph::StaticGraph::new(g.clone()), RunConfig::rounds(rounds));

        for threads in [1usize, 2, 4] {
            let mut flat = FlatExecution::new(algo, &g, PushSumState::columns(&states));
            flat.run(rounds, threads);
            for (v, s) in boxed.states().iter().enumerate() {
                prop_assert_eq!(
                    flat.state(v)[0].to_bits(), s.y.to_bits(),
                    "y lane, agent {} at {} threads, b={}", v, threads, bits
                );
                prop_assert_eq!(
                    flat.state(v)[1].to_bits(), s.z.to_bits(),
                    "z lane, agent {} at {} threads, b={}", v, threads, bits
                );
            }
        }
    }

    /// Quantized Metropolis: the antisymmetric integer transfers land on
    /// the same token counts on both executors under every cap.
    #[test]
    fn flat_quantized_metropolis_is_bitwise_boxed(
        n in 3usize..20,
        extra in 0usize..24,
        seed in 0u64..1000,
        rounds in 1u64..10,
        bsel in 0usize..4,
    ) {
        let bits = [1u32, 2, 4, 8][bsel];
        let g = generators::random_strongly_connected(n, extra, seed).with_self_loops();
        let values: Vec<f64> = (0..n).map(|i| ((i as u64 * 53 + seed) % 11) as f64).collect();
        let algo = QuantizedMetropolis::new(bits, 11.0);
        let states = algo.initial(&values);

        let mut boxed = Execution::new(Isotropic(algo), states.clone());
        boxed.drive(&kya_graph::StaticGraph::new(g.clone()), RunConfig::rounds(rounds));

        for threads in [1usize, 2, 4] {
            let mut flat = FlatExecution::new(algo, &g, QuantizedMetropolis::columns(&states));
            flat.run(rounds, threads);
            for (v, s) in boxed.states().iter().enumerate() {
                prop_assert_eq!(
                    flat.state(v)[0].to_bits(), s.to_bits(),
                    "agent {} at {} threads, b={}", v, threads, bits
                );
            }
        }
    }
}

/// The proptests above stay small, so their shards run in order on the
/// calling thread. At 20 000 agents every shard at 2 and 3 threads is
/// big enough to get a worker thread of its own; the bits still match.
#[test]
fn flat_pushsum_is_bitwise_boxed_on_worker_threads() {
    let n = 20_000;
    let g = generators::random_strongly_connected(n, 2 * n, 17).with_self_loops();
    let values: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
    let states = PushSumState::averaging(&values);
    let rounds = 4;

    let mut boxed = Execution::new(Isotropic(PushSum), states.clone());
    boxed.drive(
        &kya_graph::StaticGraph::new(g.clone()),
        RunConfig::rounds(rounds),
    );

    for threads in [2usize, 3] {
        let mut flat = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
        flat.run(rounds, threads);
        for (v, s) in boxed.states().iter().enumerate() {
            assert_eq!(
                flat.state(v)[0].to_bits(),
                s.y.to_bits(),
                "y, agent {v}, {threads} threads"
            );
            assert_eq!(
                flat.state(v)[1].to_bits(),
                s.z.to_bits(),
                "z, agent {v}, {threads} threads"
            );
        }
    }
}

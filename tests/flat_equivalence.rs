//! Property test: the flat SoA/CSR engine ([`FlatExecution`]) is
//! **bitwise** identical to the boxed executor — not approximately, not
//! up to reassociation — on random seeded digraphs, at every thread
//! count. Both engines run the one `FlatAlgorithm` impl of each
//! algorithm (the boxed one through the blanket `IsotropicAlgorithm`
//! adapter), so what this pins is the engines: the flat in-source lists
//! replay the canonical ascending `(source id, port rank)` delivery
//! order over a column of one message per agent, sharding never moves
//! a write, and the lane layout round-trips every state.

use kya_algos::metropolis::Metropolis;
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_algos::quantized::{QuantizedMetropolis, QuantizedPushSum};
use kya_graph::{generators, Digraph};
use kya_runtime::flat::MAX_LANES;
use kya_runtime::{
    lane_columns, Execution, FlatAlgorithm, FlatExecution, Isotropic, Lanes, RunConfig,
};
use proptest::prelude::*;

/// Drive `algo` for `rounds` rounds on the boxed executor and on the
/// flat executor at each of `threads`, and compare every agent's state
/// lanes bit for bit.
fn engines_agree<F: FlatAlgorithm + Clone>(
    algo: F,
    states: Vec<F::State>,
    g: &Digraph,
    rounds: u64,
    threads: &[usize],
) -> Result<(), String> {
    let columns = lane_columns(&states);
    let mut boxed = Execution::new(Isotropic(algo.clone()), states);
    boxed.drive(
        &kya_graph::StaticGraph::new(g.clone()),
        RunConfig::rounds(rounds),
    );
    let mut want = [0.0; MAX_LANES];
    for &t in threads {
        let mut flat = FlatExecution::new(algo.clone(), g, columns.clone());
        flat.run(rounds, t);
        if flat.round() != boxed.round() {
            return Err(format!("{t} threads ran {} rounds", flat.round()));
        }
        for (v, s) in boxed.states().iter().enumerate() {
            s.store(&mut want[..F::STATE_LANES]);
            for (l, (w, x)) in want.iter().zip(flat.state(v)).enumerate() {
                if w.to_bits() != x.to_bits() {
                    return Err(format!("agent {v} lane {l} at {t} threads: {x} != {w}"));
                }
            }
        }
    }
    Ok(())
}

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
        let res = engines_agree(PushSum, states, &g, rounds, &[1, 2, 4]);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    /// Metropolis: the degree exchange (a `usize` in the boxed
    /// `DegreeTagged` message, an exact f64 lane on the flat path)
    /// lands on the same bits too.
    #[test]
    fn flat_metropolis_is_bitwise_boxed(
        n in 3usize..20,
        extra in 0usize..24,
        seed in 0u64..1000,
        rounds in 1u64..10,
    ) {
        let g = generators::random_strongly_connected(n, extra, seed).with_self_loops();
        let values: Vec<f64> = (0..n).map(|i| ((i as u64 * 53 + seed) % 97) as f64 / 7.0).collect();
        let res = engines_agree(Metropolis, values, &g, rounds, &[1, 2, 4]);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    /// Quantized Push-Sum: integer token lanes (y and z) match the
    /// boxed residual-carry path bit for bit under every cap, at 1, 2,
    /// and 4 threads — both engines route the round outdegree through
    /// `transition_with_outdegree`.
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
        let res = engines_agree(algo, algo.initial(&values), &g, rounds, &[1, 2, 4]);
        prop_assert!(res.is_ok(), "b={}: {}", bits, res.unwrap_err());
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
        let res = engines_agree(algo, algo.initial(&values), &g, rounds, &[1, 2, 4]);
        prop_assert!(res.is_ok(), "b={}: {}", bits, res.unwrap_err());
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
    if let Err(e) = engines_agree(PushSum, states, &g, 4, &[2, 3]) {
        panic!("{e}");
    }
}

//! Probed flat runs: the deterministic probe stream is **bitwise**
//! identical at every thread count, its counters restate the routing
//! plan's ground truth, measured flat drives report convergence exactly
//! like the boxed executor, and the resident-footprint numbers pin the
//! EXPERIMENTS.md figures. A probed `drive` computes the same bits as
//! an unprobed one.

use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::{generators, Digraph, StaticGraph};
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::{CountingProbe, Execution, FlatExecution, FlatRunConfig, Isotropic, RunConfig};
use proptest::prelude::*;

fn values_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64 * 37 + seed) % 101) as f64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The probe's NDJSON stream — merged per-round counters plus the
    /// strided sample digests — is byte-identical at 1, 2, and 4
    /// threads on random seeded digraphs: per-shard accounting merges
    /// in canonical shard order, so the shard layout never leaks.
    #[test]
    fn probe_stream_is_bitwise_identical_across_thread_counts(
        n in 3usize..24,
        extra in 0usize..30,
        seed in 0u64..1000,
        rounds in 1u64..12,
    ) {
        let g = generators::random_strongly_connected(n, extra, seed).with_self_loops();
        let states = PushSumState::columns(&PushSumState::averaging(&values_for(n, seed)));
        let mut baseline: Option<(String, CountingProbe)> = None;
        for threads in [1usize, 2, 4] {
            let mut exec = FlatExecution::new(PushSum, &g, states.clone());
            let mut probe = CountingProbe::new();
            exec.drive(FlatRunConfig::rounds(rounds).threads(threads).probe(&mut probe));
            let stream = probe.to_ndjson();
            match &baseline {
                None => baseline = Some((stream, probe)),
                Some((base_stream, base_probe)) => {
                    prop_assert_eq!(
                        base_stream, &stream,
                        "probe stream diverged at {} threads", threads
                    );
                    prop_assert_eq!(base_probe.events(), probe.events());
                    prop_assert_eq!(base_probe.summary(), probe.summary());
                }
            }
        }
    }
}

/// Every per-round event restates the routing plan: a round delivers
/// exactly `plan.slots()` messages, each read once from the message
/// column, and writes one state and one message per agent.
#[test]
fn probe_counters_match_the_routing_plan() {
    let n = 17;
    let g = generators::random_strongly_connected(n, 2 * n, 5).with_self_loops();
    let states = PushSumState::columns(&PushSumState::averaging(&values_for(n, 5)));
    let rounds = 9u64;
    let mut exec = FlatExecution::new(PushSum, &g, states);
    let slots = exec.plan().slots() as u64;
    let mut probe = CountingProbe::new();
    exec.drive(FlatRunConfig::rounds(rounds).threads(3).probe(&mut probe));
    assert_eq!(probe.events().len() as u64, rounds);
    for event in probe.events() {
        assert_eq!(event.messages_routed, slots);
        assert_eq!(event.inbox_bytes, slots * 2 * 8, "MSG_LANES=2 f64 lanes");
        // Lane writes: `STATE_LANES + MSG_LANES` per agent, independent
        // of the edge count — nothing is copied per edge.
        assert_eq!(event.lane_writes, 4 * n as u64);
    }
    let summary = probe.summary();
    assert_eq!(summary.rounds, rounds);
    assert_eq!(summary.messages_routed, rounds * slots);
    assert_eq!(summary.inbox_bytes, rounds * slots * 16);
}

/// A measured flat drive reports `converged_at` (and the residual
/// trajectory behind it) exactly like the boxed executor's measured
/// drive — the `RunConfig::measure` parity gap the probe PR closes.
#[test]
fn measured_flat_drive_matches_boxed_convergence() {
    let n = 12;
    let g = generators::random_strongly_connected(n, 3 * n, 11).with_self_loops();
    let values = values_for(n, 11);
    let target = values.iter().sum::<f64>() / n as f64;
    let states = PushSumState::averaging(&values);
    let rounds = 400u64;
    let eps = 1e-9;

    let net = StaticGraph::new(g.clone());
    let mut boxed = Execution::new(Isotropic(PushSum), states.clone());
    let boxed_report = boxed.drive(
        &net,
        RunConfig::rounds(rounds)
            .measure(&EuclideanMetric, &target, eps)
            .confirm(2),
    );
    assert!(
        boxed_report.converged_at.is_some(),
        "budget large enough to converge"
    );

    for threads in [1usize, 2, 4] {
        let mut flat = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
        let report = flat.drive(
            FlatRunConfig::rounds(rounds)
                .threads(threads)
                .measure(target, eps)
                .confirm(2),
        );
        assert_eq!(
            report.converged_at, boxed_report.converged_at,
            "{threads} threads"
        );
        assert_eq!(report.rounds_run, boxed_report.rounds_run);
    }
}

/// The resident footprint is exactly the EXPERIMENTS.md figures. Push-Sum
/// holds 16 B of state and 32 B of double-buffered messages per agent,
/// and the plan 12 B per agent plus 4 B per slot, plus one trailing 8 B
/// offset: a directed ring with self-loops (2 slots/agent) holds
/// 68 B/agent, a ring-plus-chord (3 slots/agent) 72 B/agent.
#[test]
fn resident_bytes_pins_the_experiments_numbers() {
    let n = 1024;
    // Ring + self-loops: slots = 2n, so 48n f64 buffer bytes + 12n + 8n
    // + 8 plan bytes.
    let ring = generators::directed_ring(n).with_self_loops();
    let states = PushSumState::columns(&PushSumState::averaging(&values_for(n, 1)));
    let mut exec = FlatExecution::new(PushSum, &ring, states.clone());
    assert_eq!(exec.resident_bytes(), 68 * n + 8);
    // The footprint is capacity-based and no buffer grows with rounds
    // or thread count.
    exec.drive(FlatRunConfig::rounds(3).threads(2));
    assert_eq!(exec.resident_bytes(), 68 * n + 8);

    // Ring + chord v→v+2 + self-loops: slots = 3n → 68n + 4n + 8.
    let mut chord = Digraph::new(n);
    for v in 0..n {
        chord.add_edge(v, (v + 1) % n);
        chord.add_edge(v, (v + 2) % n);
    }
    let chord = chord.with_self_loops();
    let exec = FlatExecution::new(PushSum, &chord, states);
    assert_eq!(exec.resident_bytes(), 72 * n + 8);
}

/// A probe only reads: a probed `drive` produces bit-identical states
/// to an unprobed `drive` and to the same rounds of `step_threads`.
#[test]
fn probed_runs_compute_the_same_bits_as_unprobed_runs() {
    let n = 19;
    let g = generators::random_strongly_connected(n, n, 23).with_self_loops();
    let states = PushSumState::columns(&PushSumState::averaging(&values_for(n, 23)));
    let rounds = 7u64;

    let mut bare = FlatExecution::new(PushSum, &g, states.clone());
    bare.drive(FlatRunConfig::rounds(rounds).threads(2));

    let mut stepped = FlatExecution::new(PushSum, &g, states.clone());
    for _ in 0..rounds {
        stepped.step_threads(2);
    }

    let mut counted = FlatExecution::new(PushSum, &g, states);
    let mut probe = CountingProbe::new();
    counted.drive(FlatRunConfig::rounds(rounds).threads(2).probe(&mut probe));
    assert_eq!(probe.summary().rounds, rounds);

    for lane in 0..2 {
        for v in 0..n {
            let want = bare.state(v)[lane].to_bits();
            assert_eq!(stepped.state(v)[lane].to_bits(), want, "step_threads");
            assert_eq!(
                counted.state(v)[lane].to_bits(),
                want,
                "CountingProbe perturbed"
            );
        }
    }
}

//! Probed flat runs: the probe records the boxed trace's round events
//! — its NDJSON equals the boxed `TraceSink` NDJSON of the same run,
//! bitwise, at every thread count — its counters agree with the
//! graph's edge list, measured flat drives report convergence exactly
//! like the boxed executor, and the resident-footprint numbers pin the
//! EXPERIMENTS.md figures. A probed `drive` computes the same bits as
//! an unprobed one.

use kya_algos::metropolis::Metropolis;
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_algos::quantized::QuantizedPushSum;
use kya_graph::{generators, Digraph, StaticGraph};
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::telemetry::{to_ndjson, TraceSink};
use kya_runtime::{
    lane_columns, CountingProbe, Execution, FlatAlgorithm, FlatExecution, FlatRunConfig, Isotropic,
    RunConfig,
};
use proptest::prelude::*;

fn values_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64 * 37 + seed) % 101) as f64)
        .collect()
}

/// Drive `algo` for `rounds` rounds on the boxed executor under a
/// [`TraceSink`] and on the flat executor probed at 1, 2 and 4 threads:
/// every probe must record the trace's NDJSON byte for byte, and its
/// totals.
fn probe_matches_trace<F: FlatAlgorithm + Clone>(
    algo: F,
    states: Vec<F::State>,
    g: &Digraph,
    rounds: u64,
) -> Result<(), String> {
    let columns = lane_columns(&states);
    let mut trace = TraceSink::new();
    Execution::new(Isotropic(algo.clone()), states)
        .drive(g, RunConfig::rounds(rounds).observer(&mut trace));
    let want = to_ndjson(trace.events());
    for threads in [1usize, 2, 4] {
        let mut exec = FlatExecution::new(algo.clone(), g, columns.clone());
        let mut probe = CountingProbe::new();
        exec.drive(
            FlatRunConfig::rounds(rounds)
                .threads(threads)
                .probe(&mut probe),
        );
        let got = to_ndjson(probe.events());
        if got != want {
            return Err(format!("{threads} threads:\n{got}boxed:\n{want}"));
        }
        if probe.summary() != trace.summary() {
            return Err(format!(
                "{threads} threads: totals {:?}, boxed {:?}",
                probe.summary(),
                trace.summary()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flat probe records what the boxed trace records: the same
    /// real-link and self-loop message counts, payload words and state
    /// digests every round, at every thread count (so the shard layout
    /// never leaks), for Push-Sum, Metropolis and 4-bit quantized
    /// Push-Sum on random strongly connected digraphs.
    #[test]
    fn probe_streams_equal_the_boxed_trace(
        n in 3usize..24,
        extra in 0usize..30,
        seed in 0u64..1000,
        rounds in 1u64..12,
    ) {
        let g = generators::random_strongly_connected(n, extra, seed).with_self_loops();
        let values = values_for(n, seed);
        let res = probe_matches_trace(PushSum, PushSumState::averaging(&values), &g, rounds);
        prop_assert!(res.is_ok(), "pushsum: {}", res.unwrap_err());
        let res = probe_matches_trace(Metropolis, values.clone(), &g, rounds);
        prop_assert!(res.is_ok(), "metropolis: {}", res.unwrap_err());
        let q = QuantizedPushSum::new(4);
        let small: Vec<f64> = values.iter().map(|v| v % 11.0).collect();
        let res = probe_matches_trace(q, q.initial(&small), &g, rounds);
        prop_assert!(res.is_ok(), "qpushsum b=4: {}", res.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The probe's NDJSON stream — per-round counters plus the strided
    /// sample digests — is byte-identical at 1, 2, 3 and 4 threads on
    /// random seeded digraphs: per-shard accounting merges in canonical
    /// shard order, so the shard layout never leaks, even when the
    /// shards are uneven.
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
        for threads in [1usize, 2, 3, 4] {
            let mut exec = FlatExecution::new(PushSum, &g, states.clone());
            let mut probe = CountingProbe::new();
            exec.drive(FlatRunConfig::rounds(rounds).threads(threads).probe(&mut probe));
            let stream = to_ndjson(probe.events());
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

/// Every per-round event agrees with the graph the plan was built
/// from: a round delivers one message per edge, split into real links
/// and self-loops by the edge list itself, each carrying Push-Sum's two
/// payload words, and the routing plan holds exactly those edges.
#[test]
fn probe_counters_match_the_routing_plan() {
    let n = 17;
    let g = generators::random_strongly_connected(n, 2 * n, 5).with_self_loops();
    let self_loops = g.edges().iter().filter(|e| e.src == e.dst).count() as u64;
    let links = g.edge_count() as u64 - self_loops;
    assert!(self_loops >= n as u64 && links > 0);
    let states = PushSumState::columns(&PushSumState::averaging(&values_for(n, 5)));
    let rounds = 9u64;
    let mut exec = FlatExecution::new(PushSum, &g, states);
    assert_eq!(exec.plan().slots() as u64, links + self_loops);
    let mut probe = CountingProbe::new();
    exec.drive(FlatRunConfig::rounds(rounds).threads(3).probe(&mut probe));
    assert_eq!(probe.events().len() as u64, rounds);
    for (i, event) in probe.events().iter().enumerate() {
        assert_eq!(event.round, i as u64 + 1);
        assert_eq!(event.messages, links);
        assert_eq!(event.self_messages, self_loops);
        assert_eq!(
            event.payload_words,
            (links + self_loops) * 2,
            "two f64 words per message"
        );
        assert_eq!(event.dropped, 0);
        assert_eq!(event.residual, None);
    }
    let summary = probe.summary();
    assert_eq!(summary.rounds, rounds);
    assert_eq!(summary.messages, rounds * links);
    assert_eq!(summary.self_messages, rounds * self_loops);
    assert_eq!(summary.payload_words, rounds * (links + self_loops) * 2);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.peak_state_words, 2, "two f64 lanes of state");
}

/// Past 64 agents the digest samples a stride of them; the flat probe
/// samples the same agents as the boxed trace.
#[test]
fn strided_probe_streams_equal_the_boxed_trace() {
    let n = 300;
    let g = generators::random_strongly_connected(n, n, 7).with_self_loops();
    let states = PushSumState::averaging(&values_for(n, 7));
    if let Err(e) = probe_matches_trace(PushSum, states, &g, 5) {
        panic!("{e}");
    }
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

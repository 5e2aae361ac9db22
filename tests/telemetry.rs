//! End-to-end telemetry: observer counters flow unchanged from an
//! execution into `CellRecord` telemetry blocks, trace streams are
//! byte-stable across runs and worker counts, and the **unobserved**
//! `step` computes exactly the pre-observer round body.

use kya_algos::gossip::SetGossip;
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::{Digraph, StaticGraph};
use kya_harness::{parse_graph, CellCtx, CellOutcome, ExperimentSpec, Runner, TelemetryMode};
use kya_runtime::telemetry::TraceSink;
use kya_runtime::{Algorithm, Broadcast, Execution, Isotropic, RunConfig};

const ROUNDS: u64 = 7;

fn demo_spec() -> ExperimentSpec {
    ExperimentSpec::new("telemetry_demo")
        .topologies(["ring:{n}", "torus:{n}"])
        .sizes([6, 9])
        .rounds(ROUNDS)
}

/// Runs a Push-Sum execution under a [`TraceSink`] and reports its
/// run totals with its per-round events, so the test can cross-check
/// the two against each other.
fn traced_cell(ctx: &CellCtx) -> CellOutcome {
    let g = ctx.graph().expect("static label");
    let n = g.n();
    let values: Vec<f64> = (0..n).map(|i| ((i * i) % 13) as f64).collect();
    let net = StaticGraph::new((*g).clone());
    let mut trace = TraceSink::new();
    Execution::new(Isotropic(PushSum), PushSumState::averaging(&values))
        .drive(&net, RunConfig::rounds(ctx.rounds()).observer(&mut trace));
    let (events, summary) = trace.finish();
    CellOutcome::new().telemetry(summary).trace(events)
}

#[test]
fn counting_totals_land_in_cell_records() {
    let spec = demo_spec();
    let mode = TelemetryMode {
        trace: true,
        residuals: false,
    };
    let sink = Runner::new(&spec)
        .telemetry(mode)
        .workers(2)
        .run(traced_cell);
    assert_eq!(sink.records().len(), 4);
    for r in sink.records() {
        let t = r.telemetry.as_ref().expect("telemetry block recorded");
        // Independent ground truth: one delivery per edge of the closed
        // graph per round, of which exactly the n self-loops are
        // self-messages (rings and tori have none of their own).
        let closed = parse_graph(&r.topology).expect("grammar").with_self_loops();
        let n = closed.n() as u64;
        let edges = closed.edge_count() as u64;
        assert_eq!(t.rounds, ROUNDS, "{}", r.topology);
        assert_eq!(t.self_messages, ROUNDS * n, "{}", r.topology);
        assert_eq!(t.messages, ROUNDS * (edges - n), "{}", r.topology);
        assert_eq!(t.dropped, 0);
        // Every f64 Push-Sum message is the pair `(y, z)`, two words,
        // and every state is one `PushSumState`, two words.
        assert_eq!(
            t.payload_words,
            2 * (t.messages + t.self_messages),
            "{}",
            r.topology
        );
        assert_eq!(t.peak_state_words, 2, "{}", r.topology);
        // The trace stream restates the same counters per round.
        assert_eq!(r.trace.len() as u64, ROUNDS);
        let msgs: u64 = r.trace.iter().map(|e| e.messages).sum();
        let words: u64 = r.trace.iter().map(|e| e.payload_words).sum();
        assert_eq!(msgs, t.messages);
        assert_eq!(words, t.payload_words);
    }
}

#[test]
fn trace_streams_are_identical_across_runs_and_workers() {
    let spec = demo_spec();
    let mode = TelemetryMode {
        trace: true,
        residuals: false,
    };
    let run = |workers: usize| {
        Runner::new(&spec)
            .telemetry(mode)
            .workers(workers)
            .run(traced_cell)
            .to_trace_ndjson()
    };
    let baseline = run(1);
    assert!(!baseline.is_empty());
    assert_eq!(baseline, run(1), "repeat run diverged");
    assert_eq!(baseline, run(4), "worker count changed trace bytes");
}

/// The executor's round body before the observer layer existed,
/// reproduced against the public APIs — the cost baseline that the
/// `NullObserver`-monomorphized `step` must match.
fn baseline_step<A: Algorithm>(algo: &A, states: &mut [A::State], graph: &Digraph) {
    let n = graph.n();
    let mut inboxes: Vec<Vec<A::Msg>> = (0..n)
        .map(|v| Vec::with_capacity(graph.indegree(v)))
        .collect();
    for (v, state) in states.iter().enumerate() {
        assert!(graph.has_self_loop(v));
        let outdeg = graph.outdegree(v);
        let msgs = algo.send(state, outdeg);
        assert_eq!(msgs.len(), outdeg);
        let mut ports: Vec<_> = graph
            .out_edges(v)
            .map(|e| (graph.edges()[e].port, e))
            .collect();
        ports.sort_unstable();
        for (msg, (_, e)) in msgs.into_iter().zip(ports) {
            inboxes[graph.edges()[e].dst].push(msg);
        }
    }
    for (v, inbox) in inboxes.into_iter().enumerate() {
        states[v] = algo.transition(&states[v], &inbox);
    }
}

/// The `NullObserver`-monomorphized `step` computes byte-for-byte the
/// same states as the inline pre-observer round body.
///
/// This test used to double as an env-gated wall-clock comparison
/// (`KYA_TIMING_ASSERT=1` armed a median-of-9 `step` vs baseline timing
/// assert). That gate is retired: wall-clock now lives in the separate
/// timing channel — the `flat_engine` bench's probe-overhead group and
/// the `phase_us` block of `kya profile` — and never inside a functional
/// test, which keeps `cargo test` load-insensitive. Only the
/// unconditional state-equality check remains.
#[test]
fn unobserved_step_matches_inline_baseline() {
    let g = parse_graph("random:64:4:7")
        .expect("grammar")
        .with_self_loops();
    let values: Vec<u64> = (0..64).map(|i| (i * 37) % 101).collect();
    const STEPS: usize = 40;
    let algo = Broadcast(SetGossip);
    let mut states = SetGossip::initial(&values);
    let mut exec = Execution::new(Broadcast(SetGossip), SetGossip::initial(&values));
    for _ in 0..STEPS {
        baseline_step(&algo, &mut states, &g);
        exec.step(&g);
        assert_eq!(
            exec.states(),
            &states[..],
            "observed executor diverged from the inline round body"
        );
    }
}

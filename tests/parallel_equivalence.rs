//! A sequential and a sharded `Execution::drive` are one semantics with
//! two schedules: for every algorithm in `kya_algos` they must produce
//! identical per-round states **and** drive an [`Observer`] through an
//! identical event stream (same hooks, same order, same arguments). The
//! routing phase of a sharded round iterates agents and ports in the
//! sequential executor's order precisely so this holds; this test pins
//! it, on a small network whose shards run on the calling thread and on
//! one large enough to spawn workers.

use kya_algos::frequency::{CensusOutdegree, CensusPorts, CensusSymmetric};
use kya_algos::gossip::SetGossip;
use kya_algos::metropolis::{FixedWeight, LazyMetropolis, Metropolis};
use kya_algos::min_base::{MinBaseBroadcast, MinBaseOutdegree, MinBasePorts, ViewState};
use kya_algos::push_sum::{PushSum, PushSumState, SelfHealingPushSum};
use kya_graph::{generators, Digraph};
use kya_harness::parse_graph;
use kya_runtime::bits::StateBits;
use kya_runtime::{
    Algorithm, Broadcast, Execution, Isotropic, Observer, RunConfig, TraceSink, MIN_SPAWN_AGENTS,
};

/// Records every observer hook as a rendered line, so two runs can be
/// compared with one `assert_eq!` regardless of state/message types.
#[derive(Default)]
struct Recorder {
    events: Vec<String>,
}

impl<A: Algorithm> Observer<A> for Recorder
where
    A::State: std::fmt::Debug,
    A::Msg: std::fmt::Debug,
{
    fn on_round_start(&mut self, round: u64, states: &[A::State]) {
        self.events.push(format!("start {round} {states:?}"));
    }

    fn on_message(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        self.events
            .push(format!("msg {round} {src}->{dst} {msg:?}"));
    }

    fn on_round_end(&mut self, round: u64, _algo: &A, states: &[A::State]) {
        self.events.push(format!("end {round} {states:?}"));
    }
}

const ROUNDS: usize = 5;

fn check<A, F>(make: F, label: &str)
where
    A: Algorithm + Sync,
    A::State: std::fmt::Debug + Send + Sync,
    A::Msg: std::fmt::Debug + Send + Sync,
    F: Fn() -> Execution<A>,
{
    // Bidirectional so the symmetric-model algorithms are in contract.
    let g = parse_graph("biring:6").expect("grammar").with_self_loops();
    let mut seq = make();
    let mut par = make();
    let mut seq_obs = Recorder::default();
    let mut par_obs = Recorder::default();
    for round in 0..ROUNDS {
        seq.drive(&g, RunConfig::rounds(1).observer(&mut seq_obs));
        par.drive(&g, RunConfig::rounds(1).threads(3).observer(&mut par_obs));
        assert_eq!(
            format!("{:?}", seq.states()),
            format!("{:?}", par.states()),
            "{label}: states diverge at round {round}"
        );
    }
    assert_eq!(
        seq_obs.events, par_obs.events,
        "{label}: observer event streams diverge"
    );
    // Sanity: the streams are non-trivial — every round fired its
    // bracketing hooks and at least one delivery per edge.
    let msgs = seq_obs
        .events
        .iter()
        .filter(|e| e.starts_with("msg"))
        .count();
    assert_eq!(
        msgs,
        ROUNDS * g.edge_count(),
        "{label}: one event per delivery"
    );
    assert_eq!(
        seq_obs
            .events
            .iter()
            .filter(|e| e.starts_with("start"))
            .count(),
        ROUNDS,
        "{label}"
    );
}

#[test]
fn every_algorithm_agrees_between_schedules() {
    let values: [u64; 6] = [3, 1, 4, 1, 5, 9];
    let floats: Vec<f64> = values.iter().map(|&v| v as f64).collect();

    check(
        || Execution::new(Broadcast(SetGossip), SetGossip::initial(&values)),
        "SetGossip",
    );
    check(
        || Execution::new(Broadcast(MinBaseBroadcast), ViewState::initial(&values)),
        "MinBaseBroadcast",
    );
    check(
        || Execution::new(Isotropic(MinBaseOutdegree), ViewState::initial(&values)),
        "MinBaseOutdegree",
    );
    check(
        || Execution::new(MinBasePorts, ViewState::initial(&values)),
        "MinBasePorts",
    );
    check(
        || Execution::new(Isotropic(CensusOutdegree), ViewState::initial(&values)),
        "CensusOutdegree",
    );
    check(
        || Execution::new(Broadcast(CensusSymmetric), ViewState::initial(&values)),
        "CensusSymmetric",
    );
    check(
        || Execution::new(CensusPorts, ViewState::initial(&values)),
        "CensusPorts",
    );
    check(
        || Execution::new(Isotropic(PushSum), PushSumState::averaging(&floats)),
        "PushSum",
    );
    check(
        || {
            Execution::new(
                Isotropic(SelfHealingPushSum),
                PushSumState::averaging(&floats),
            )
        },
        "SelfHealingPushSum",
    );
    check(
        || Execution::new(Isotropic(Metropolis), floats.clone()),
        "Metropolis",
    );
    check(
        || Execution::new(Isotropic(LazyMetropolis), floats.clone()),
        "LazyMetropolis",
    );
    check(
        || Execution::new(Broadcast(FixedWeight::new(6)), floats.clone()),
        "FixedWeight",
    );
}

/// Steps `make()` three ways on `g` — sequentially, at 2 threads and at
/// 3 threads — and requires bitwise-equal states every round; then runs
/// observed sequential and 3-thread drives and requires equal
/// [`TraceSink`] counters.
fn check_spawned<A, F>(make: F, g: &Digraph, label: &str)
where
    A: Algorithm + Sync,
    A::State: Send + Sync + StateBits,
    A::Msg: Send + Sync + StateBits,
    F: Fn() -> Execution<A>,
{
    let mut seq = make();
    let mut two = make();
    let mut three = make();
    for round in 1..=3 {
        seq.step(g);
        two.drive(g, RunConfig::rounds(1).threads(2));
        three.drive(g, RunConfig::rounds(1).threads(3));
        let want = seq.states().words();
        assert!(
            want == two.states().words(),
            "{label}: 2 threads, round {round}"
        );
        assert!(
            want == three.states().words(),
            "{label}: 3 threads, round {round}"
        );
    }
    let (mut seq, mut par) = (make(), make());
    let (mut seq_obs, mut par_obs) = (TraceSink::new(), TraceSink::new());
    seq.drive(g, RunConfig::rounds(3).observer(&mut seq_obs));
    par.drive(g, RunConfig::rounds(3).threads(3).observer(&mut par_obs));
    assert_eq!(
        seq_obs.summary(),
        par_obs.summary(),
        "{label}: observer counters"
    );
    assert!(
        seq.states().words() == par.states().words(),
        "{label}: observed states"
    );
}

/// Every shard of a `3 · MIN_SPAWN_AGENTS`-agent network at 2 or 3
/// threads is at least `MIN_SPAWN_AGENTS` long, so these parallel
/// steps run on spawned workers, not only on the calling thread.
#[test]
fn spawned_shards_agree_with_the_sequential_step() {
    let n = 3 * MIN_SPAWN_AGENTS;
    let g = generators::random_strongly_connected(n, 2 * n, 17).with_self_loops();
    // Full 53-bit mantissas, so any reordered sum shows in the bits.
    let floats: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.618_033_988_749_895).fract() * 1e3)
        .collect();
    check_spawned(
        || Execution::new(Isotropic(PushSum), PushSumState::averaging(&floats)),
        &g,
        "PushSum",
    );
    check_spawned(
        || Execution::new(Isotropic(Metropolis), floats.clone()),
        &g,
        "Metropolis",
    );
}

/// One observer event of a Push-Sum run, bit for bit: kind, round,
/// source, destination and the message's `(y, z)` bits.
type PushSumEvent = (&'static str, u64, usize, usize, u64, u64);

/// Records every delivered and every dropped Push-Sum message.
#[derive(Default)]
struct PushSumStream {
    events: Vec<PushSumEvent>,
}

impl Observer<Isotropic<SelfHealingPushSum>> for PushSumStream {
    fn on_message(&mut self, round: u64, src: usize, dst: usize, msg: &(f64, f64)) {
        let (y, z) = (msg.0.to_bits(), msg.1.to_bits());
        self.events.push(("msg", round, src, dst, y, z));
    }

    fn on_message_dropped(&mut self, round: u64, src: usize, dst: usize, msg: &(f64, f64)) {
        let (y, z) = (msg.0.to_bits(), msg.1.to_bits());
        self.events.push(("drop", round, src, dst, y, z));
    }
}

/// A fault plan is the executor's delivery policy, so a faulted run may
/// shard its sends and transitions like any other: on the same
/// `3 · MIN_SPAWN_AGENTS`-agent digraph, self-healing Push-Sum under
/// drops, duplicates and crashes must reach bitwise-equal states, equal
/// fault counters and an equal observer stream (drops included) at 1, 2
/// and 4 threads, observed or not.
#[test]
fn faulted_runs_agree_across_thread_counts() {
    use kya_graph::StaticGraph;
    use kya_runtime::faults::FaultPlan;

    let n = 3 * MIN_SPAWN_AGENTS;
    let net = StaticGraph::new(generators::random_strongly_connected(n, 2 * n, 17));
    let floats: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.618_033_988_749_895).fract() * 1e3)
        .collect();
    let plan = FaultPlan::new(23)
        .drop_links(0.2)
        .duplicate(0.1)
        .crash(5, 2..4)
        .crash_stop(n - 1, 3);
    let make = || {
        Execution::new(
            Isotropic(SelfHealingPushSum),
            PushSumState::averaging(&floats),
        )
        .faults(plan.clone())
    };
    let bits = |exec: &Execution<Isotropic<SelfHealingPushSum>>| -> Vec<u64> {
        exec.states()
            .iter()
            .flat_map(|s| [s.y.to_bits(), s.z.to_bits()])
            .collect()
    };
    let run = |threads: usize| {
        let mut stream = PushSumStream::default();
        let mut observed = make();
        let report = observed.drive(
            &net,
            RunConfig::rounds(4).threads(threads).observer(&mut stream),
        );
        let mut unobserved = make();
        unobserved.drive(&net, RunConfig::rounds(4).threads(threads));
        assert!(
            bits(&observed) == bits(&unobserved),
            "{threads} threads: the observer changed the states"
        );
        assert_eq!(observed.events(), unobserved.events());
        (bits(&observed), report.events, stream.events)
    };
    let (want_bits, want_events, want_stream) = run(1);
    assert!(want_events.dropped > 0 && want_events.duplicated > 0);
    assert!(want_events.bounced_to_crashed > 0 && want_events.crashed_rounds > 0);
    assert!(want_stream.iter().any(|e| e.0 == "drop"));
    for threads in [2, 4] {
        let (bits, events, stream) = run(threads);
        assert!(bits == want_bits, "{threads} threads: states");
        assert_eq!(events, want_events, "{threads} threads: fault counters");
        assert!(stream == want_stream, "{threads} threads: observer stream");
    }
}

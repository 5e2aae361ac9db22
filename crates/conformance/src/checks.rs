//! The differential oracles, one per check kind.
//!
//! Every oracle is a pure function of the harness [`CellCtx`]: the cell
//! names a topology, an algorithm, and a derived seed, and the oracle
//! returns a pass/fail [`CellOutcome`] whose details are deterministic —
//! so the whole matrix serializes to byte-identical NDJSON at any
//! `--workers N`, which the CI job diffs.

use crate::fingerprint::Fingerprint;
use crate::nets::{build_net, lift_ring};
use kya_algos::certified::{
    CertifiedFrequencyState, CertifiedPushSum, CertifiedPushSumFrequency, CertifiedPushSumState,
    EscalationStats,
};
use kya_algos::gossip::SetGossip;
use kya_algos::lifting::check_lifting;
use kya_algos::metropolis::Metropolis;
use kya_algos::min_base::{DepthCapped, MinBaseBroadcast, ViewState};
use kya_algos::push_sum::{
    total_mass, ExactFrequencyState, FrequencyState, PushSum, PushSumExact, PushSumExactState,
    PushSumFrequency, PushSumFrequencyExact, PushSumState, SelfHealingPushSum,
};
use kya_algos::quantized::{QuantizedMetropolis, QuantizedPushSum};
use kya_arith::{BigInt, BigRational};
use kya_graph::{Digraph, DynamicGraph, StaticGraph};
use kya_harness::{parse_graph, CellCtx, CellOutcome, ChurnSpec};
use kya_runtime::bits::StateBits;
use kya_runtime::churn::ChurnMasked;
use kya_runtime::faults::{FaultPlan, FaultyNetwork};
use kya_runtime::flat::MAX_LANES;
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::telemetry::{CountingObserver, NullObserver, Observer};
use kya_runtime::{
    lane_columns, Algorithm, Backend, BandwidthCap, Broadcast, ByteLedger, CountingProbe,
    Execution, FlatAlgorithm, FlatExecution, FlatRunConfig, Isotropic, Lanes, MessageCodec,
    RunConfig,
};
use std::cell::{Cell, RefCell};

/// The oracle kinds, in the fixed order `kya check` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// (b) Byte-identical state streams across all execution paths.
    Paths,
    /// (a) Every f64 output lies in a machine-checked interval enclosure
    /// of the algorithm (directed rounding), escalating to an exact ℚ
    /// replay when an enclosure cannot certify — no heuristic tolerance.
    Backend,
    /// (c) Vertex-relabeling equivariance.
    Relabel,
    /// (c) Mass conservation under graph- and message-level faults.
    Mass,
    /// (c) Lift/base indistinguishability along a ring fibration.
    Lift,
    /// (c) Mass conservation, frozen absence, and stabilization under
    /// the combined pairing + churn + faults stack.
    Churn,
    /// (b) Flat CSR executor bitwise identical to the boxed
    /// executor at 1, 2 and 4 threads.
    Flat,
    /// (b) Probed flat runs: the deterministic probe stream (merged
    /// shard counters + strided sample digests) byte-identical at 1, 2
    /// and 4 threads, and the counters equal to the routing plan's
    /// ground truth.
    Probe,
    /// (c) Bounded-bandwidth laws of the quantized variants: every
    /// payload a `b`-bit cell broadcasts is a codeword (audited message
    /// by message), token mass is conserved exactly in ℚ, the f64
    /// trajectory coincides bitwise with the exact token ratios and
    /// stays within the `ℚ_{2^b}` grid envelope, flat ≡ boxed bitwise
    /// at 1/2/4 threads with identical byte ledgers, and the `b = ∞`
    /// rung reproduces the uncapped run bitwise.
    Bandwidth,
}

impl CheckKind {
    /// The check's CLI name, as accepted by `kya check --only`.
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Paths => "paths",
            CheckKind::Backend => "backend",
            CheckKind::Relabel => "relabel",
            CheckKind::Mass => "mass",
            CheckKind::Lift => "lift",
            CheckKind::Churn => "churn",
            CheckKind::Flat => "flat",
            CheckKind::Probe => "probe",
            CheckKind::Bandwidth => "bandwidth",
        }
    }

    /// Parse a CLI check name (the inverse of [`CheckKind::name`]).
    pub fn parse(s: &str) -> Option<CheckKind> {
        [
            CheckKind::Paths,
            CheckKind::Backend,
            CheckKind::Relabel,
            CheckKind::Mass,
            CheckKind::Lift,
            CheckKind::Churn,
            CheckKind::Flat,
            CheckKind::Probe,
            CheckKind::Bandwidth,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }

    /// Dispatch a cell to its oracle.
    pub fn run(self, ctx: &CellCtx) -> CellOutcome {
        match self {
            CheckKind::Paths => check_paths(ctx),
            CheckKind::Backend => check_backend(ctx),
            CheckKind::Relabel => check_relabel(ctx),
            CheckKind::Mass => check_mass(ctx),
            CheckKind::Lift => check_lift(ctx),
            CheckKind::Churn => check_churn(ctx),
            CheckKind::Flat => check_flat(ctx),
            CheckKind::Probe => check_probe(ctx),
            CheckKind::Bandwidth => check_bandwidth(ctx),
        }
    }
}

/// Heuristic rounding tolerance for the *non-backend* f64 oracles
/// (relabel equivariance, self-healing mass): every round performs an
/// `O(n)`-term f64 accumulation, each operation contributing at most one
/// ulp of relative error on magnitudes bounded by `scale`, and
/// first-order error compounds linearly in the round count —
/// `tol = c · rounds · n · ε_mach · scale` with safety factor `c = 8`,
/// floored at `32 · ε_mach · scale` so a degenerate cell (`rounds == 0`
/// or `n == 0`) still tolerates the handful of roundings its setup and
/// measurement perform instead of demanding bitwise equality by
/// accident.
///
/// The backend oracle no longer uses this model at all: it certifies
/// each f64 output against a machine-checked [`kya_arith::Enclosure`]
/// (see [`CheckKind::Backend`]).
pub fn f64_tolerance(rounds: u64, n: usize, scale: f64) -> f64 {
    let scale = scale.max(1.0);
    let linear = 8.0 * rounds as f64 * n as f64 * f64::EPSILON * scale;
    linear.max(32.0 * f64::EPSILON * scale)
}

/// `splitmix64` finalizer — the same mixer the harness uses for cell
/// seeds, reused to derive deterministic per-cell input values.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Small input values in `1..=9` (repeats on purpose — the frequency
/// solvers need collisions to be interesting).
fn vals_u64(seed: u64, n: usize) -> Vec<u64> {
    (0..n).map(|i| 1 + mix(seed ^ (i as u64 + 1)) % 9).collect()
}

/// Full-precision f64 inputs in `(0, 1)`: every mantissa bit is live, so
/// any reordering of a 3-term-or-longer sum almost surely changes the
/// rounding — what the paths oracle needs to catch delivery-order bugs.
fn vals_f64(seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (mix(seed ^ (i as u64 + 0x9e37)) >> 11) as f64 / (1u64 << 53) as f64 + 0.25)
        .collect()
}

fn fail(msg: impl Into<String>) -> CellOutcome {
    CellOutcome::new().ok(false).detail("error", msg.into())
}

// ---------------------------------------------------------------------
// (b) Path agreement
// ---------------------------------------------------------------------

/// Run the five entry points side by side and demand bit-identical
/// global states after every round: `step` (the reference), the sharded
/// `step_parallel`, `step_observed`, `step_parallel_observed`, and `step`
/// on an execution under a quiescent fault plan (`faulty_quiescent`). Each round the reference
/// states are written once as [`StateBits`] words and every other path
/// is compared against them word for word (two reused buffers, no
/// per-round rendering), then the reference words are folded into the
/// fingerprint.
fn paths_agree<A>(
    algo: A,
    inits: Vec<A::State>,
    net: &dyn DynamicGraph,
    rounds: u64,
) -> Result<u64, String>
where
    A: Algorithm + Clone + Sync,
    A::State: Send + Sync + StateBits,
    A::Msg: Send + Sync,
{
    let mut seq = Execution::new(algo.clone(), inits.clone());
    let mut par = Execution::new(algo.clone(), inits.clone());
    let mut obs = Execution::new(algo.clone(), inits.clone());
    let mut par_obs = Execution::new(algo.clone(), inits.clone());
    let mut faulty = Execution::new(algo, inits).faults(FaultPlan::new(0));
    let mut counter = CountingObserver::new();
    let mut fp = Fingerprint::new();
    let (mut canon, mut other) = (Vec::new(), Vec::new());
    for t in 1..=rounds {
        let g = net.graph_ref(t);
        seq.step(&g);
        par.step_parallel(&g, 3);
        obs.step_observed(&g, &mut counter);
        par_obs.step_parallel_observed(&g, 2, &mut NullObserver);
        faulty.step(&g);
        canon.clear();
        seq.states().feed(&mut canon);
        let others = [
            ("step_parallel", par.states()),
            ("step_observed", obs.states()),
            ("step_parallel_observed", par_obs.states()),
            ("faulty_quiescent", faulty.states()),
        ];
        for (name, states) in others {
            other.clear();
            states.feed(&mut other);
            if other != canon {
                return Err(format!(
                    "round {t}: `{name}` diverged bitwise from sequential `step`"
                ));
            }
        }
        fp.absorb_words(&canon);
    }
    Ok(fp.digest())
}

fn check_paths(ctx: &CellCtx) -> CellOutcome {
    let cell = ctx.cell;
    let net = match build_net(&cell.topology) {
        Ok(net) => net,
        Err(e) => return fail(e.0),
    };
    let n = net.n();
    let rounds = ctx.rounds();
    let seed = cell.cell_seed;
    let vals = vals_u64(seed, n);
    let res = match cell.algorithm.as_str() {
        "pushsum" => paths_agree(
            Isotropic(PushSum),
            PushSumState::averaging(&vals_f64(seed, n)),
            net.as_ref(),
            rounds,
        ),
        "metropolis" => paths_agree(
            Isotropic(Metropolis),
            vals_f64(seed, n),
            net.as_ref(),
            rounds,
        ),
        "gossip" => paths_agree(
            Broadcast(SetGossip),
            SetGossip::initial(&vals),
            net.as_ref(),
            rounds,
        ),
        "pushsum-freq" => paths_agree(
            Isotropic(PushSumFrequency::frequency()),
            FrequencyState::initial(&vals),
            net.as_ref(),
            rounds,
        ),
        "pushsum-leader" => {
            let leaders: Vec<bool> = (0..n).map(|v| v == 0).collect();
            paths_agree(
                Isotropic(PushSumFrequency::with_leaders(1)),
                FrequencyState::initial_with_leaders(&vals, &leaders),
                net.as_ref(),
                rounds,
            )
        }
        "minbase" => paths_agree(
            DepthCapped::new(Broadcast(MinBaseBroadcast), 3),
            ViewState::initial(&vals),
            net.as_ref(),
            rounds.min(8), // views grow with depth; 8 rounds saturate the cap
        ),
        other => return fail(format!("unknown paths algorithm `{other}`")),
    };
    match res {
        Ok(digest) => CellOutcome::new()
            .ok(true)
            .detail("digest", format!("{digest:016x}")),
        Err(e) => fail(e),
    }
}

// ---------------------------------------------------------------------
// (b') Flat engine vs boxed executor
// ---------------------------------------------------------------------

/// Run `algo` on the boxed sequential executor (the canon) and on the
/// flat CSR executor at 1, 2 and 4 threads, and demand bit-identical
/// states after every round: a boxed state's [`Lanes`] against the flat
/// agent's lanes, compared by f64 `to_bits`. Both engines run the one
/// [`FlatAlgorithm`] impl, so this is the differential oracle of the
/// engines themselves: delivery order, sharding and lane layout.
fn flat_agree<F>(algo: F, inits: Vec<F::State>, g: &Digraph, rounds: u64) -> Result<u64, String>
where
    F: FlatAlgorithm + Clone,
    F::State: StateBits,
{
    let columns = lane_columns(&inits);
    let mut boxed = Execution::new(Isotropic(algo.clone()), inits);
    let mut flats: Vec<(usize, FlatExecution<F>)> = [1usize, 2, 4]
        .iter()
        .map(|&t| (t, FlatExecution::new(algo.clone(), g, columns.clone())))
        .collect();
    let mut fp = Fingerprint::new();
    let mut canon = [0.0; MAX_LANES];
    for t in 1..=rounds {
        boxed.step(g);
        for (threads, exec) in &mut flats {
            exec.step_threads(*threads);
            for (v, state) in boxed.states().iter().enumerate() {
                state.store(&mut canon[..F::STATE_LANES]);
                for (l, (c, x)) in canon.iter().zip(exec.state(v)).enumerate() {
                    if c.to_bits() != x.to_bits() {
                        return Err(format!(
                            "round {t}: flat engine at {threads} thread(s) diverged \
                             bitwise from boxed `step` at agent {v} lane {l}"
                        ));
                    }
                }
            }
        }
        fp.absorb(boxed.states());
    }
    Ok(fp.digest())
}

fn check_flat(ctx: &CellCtx) -> CellOutcome {
    let cell = ctx.cell;
    // The flat engine runs on static graphs; close the self-loops once,
    // the same closure `StaticGraph::new` applies for the boxed path.
    // `instar` is the conformance-local worst case (see `nets::instar`);
    // everything else parses through the shared harness families.
    let open = if cell.topology == format!("instar:{}", cell.n) {
        Ok(crate::nets::instar(cell.n))
    } else {
        parse_graph(&cell.topology)
    };
    let g = match open {
        Ok(g) => g.with_self_loops(),
        Err(e) => return fail(e.0),
    };
    let n = g.n();
    let rounds = ctx.rounds();
    let seed = cell.cell_seed;
    let res = match cell.algorithm.as_str() {
        "pushsum" => flat_agree(
            PushSum,
            PushSumState::averaging(&vals_f64(seed, n)),
            &g,
            rounds,
        ),
        "metropolis" => flat_agree(Metropolis, vals_f64(seed, n), &g, rounds),
        other => return fail(format!("unknown flat algorithm `{other}`")),
    };
    match res {
        Ok(digest) => CellOutcome::new()
            .ok(true)
            .detail("digest", format!("{digest:016x}")),
        Err(e) => fail(e),
    }
}

/// Run the same probed flat execution at 1, 2 and 4 threads and demand
/// the [`CountingProbe`] NDJSON streams — merged per-round counters plus
/// the bit-exact strided sample digests — are **byte-identical**, then
/// check the counters against the routing plan's ground truth: every
/// round delivers exactly `plan.slots()` messages, reads exactly
/// `slots × MSG_LANES × 8` message-column bytes, and writes one state and
/// one message per agent. Returns the fingerprint of the (shared)
/// stream.
fn probe_streams_agree<F: FlatAlgorithm + Clone>(
    flat: F,
    columns: Vec<Vec<f64>>,
    g: &Digraph,
    rounds: u64,
) -> Result<u64, String> {
    let mut baseline: Option<String> = None;
    for t in [1usize, 2, 4] {
        let mut exec = FlatExecution::new(flat.clone(), g, columns.clone());
        let mut probe = CountingProbe::new();
        exec.run_probed(rounds, t, &mut probe);
        let slots = exec.plan().slots() as u64;
        let s = probe.summary();
        if s.rounds != rounds {
            return Err(format!(
                "probe at {t} thread(s) saw {} rounds, expected {rounds}",
                s.rounds
            ));
        }
        if s.messages_routed != rounds * slots {
            return Err(format!(
                "probe at {t} thread(s) counted {} routed messages, \
                 plan ground truth is {}",
                s.messages_routed,
                rounds * slots
            ));
        }
        let bytes = slots * (F::MSG_LANES * std::mem::size_of::<f64>()) as u64;
        let writes = (g.n() * (F::STATE_LANES + F::MSG_LANES)) as u64;
        for e in probe.events() {
            if (e.messages_routed, e.inbox_bytes, e.lane_writes) != (slots, bytes, writes) {
                return Err(format!(
                    "round {}: probe at {t} thread(s) reported {} messages / \
                     {} inbox bytes / {} lane writes, plan ground truth is \
                     {slots} / {bytes} / {writes}",
                    e.round, e.messages_routed, e.inbox_bytes, e.lane_writes
                ));
            }
        }
        let stream = probe.to_ndjson();
        match &baseline {
            None => baseline = Some(stream),
            Some(b) if *b != stream => {
                return Err(format!(
                    "probe stream at {t} thread(s) differs bytewise from 1 thread"
                ));
            }
            Some(_) => {}
        }
    }
    let mut fp = Fingerprint::new();
    fp.absorb_bytes(baseline.unwrap_or_default().as_bytes());
    Ok(fp.digest())
}

fn check_probe(ctx: &CellCtx) -> CellOutcome {
    let cell = ctx.cell;
    let open = if cell.topology == format!("instar:{}", cell.n) {
        Ok(crate::nets::instar(cell.n))
    } else {
        parse_graph(&cell.topology)
    };
    let g = match open {
        Ok(g) => g.with_self_loops(),
        Err(e) => return fail(e.0),
    };
    let n = g.n();
    let rounds = ctx.rounds();
    let seed = cell.cell_seed;
    let res = match cell.algorithm.as_str() {
        "pushsum" => probe_streams_agree(
            PushSum,
            PushSumState::columns(&PushSumState::averaging(&vals_f64(seed, n))),
            &g,
            rounds,
        ),
        "metropolis" => probe_streams_agree(Metropolis, vec![vals_f64(seed, n)], &g, rounds),
        other => return fail(format!("unknown probe algorithm `{other}`")),
    };
    match res {
        Ok(digest) => CellOutcome::new()
            .ok(true)
            .detail("digest", format!("{digest:016x}")),
        Err(e) => fail(e),
    }
}

// ---------------------------------------------------------------------
// (b'') Bounded bandwidth — quantized variants under b-bit caps
// ---------------------------------------------------------------------

/// Observer auditing the structural cap: every payload lane of every
/// broadcast message must be a valid codeword (a nonnegative integer at
/// most `2^b - 1`). Records the first violation instead of panicking so
/// the cell fails with a deterministic NDJSON detail.
struct CapAudit {
    max: f64,
    payload_lanes: usize,
    violation: Option<String>,
}

impl CapAudit {
    fn new(codec: MessageCodec, payload_lanes: usize) -> CapAudit {
        CapAudit {
            max: codec.max_codeword() as f64,
            payload_lanes,
            violation: None,
        }
    }
}

impl<A: Algorithm<Msg = (f64, f64)>> Observer<A> for CapAudit {
    fn on_message(&mut self, round: u64, src: usize, _dst: usize, msg: &(f64, f64)) {
        let lanes = [msg.0, msg.1];
        for (l, &w) in lanes.iter().enumerate().take(self.payload_lanes) {
            let is_codeword = w >= 0.0 && w.fract() == 0.0 && w <= self.max;
            if !is_codeword && self.violation.is_none() {
                self.violation = Some(format!(
                    "round {round}: agent {src} lane {l} payload {w} is not a \
                     codeword (max {})",
                    self.max
                ));
            }
        }
    }
}

/// The `b = ∞` arm: the `bandwidth` rung with [`BandwidthCap::Unlimited`]
/// must be a pure observer — the metered run's [`StateBits`] words equal
/// the plain run's — and the ledger charges the full 64 bits per edge
/// per round.
fn unlimited_rung_is_pure<A>(
    algo: A,
    inits: Vec<A::State>,
    g: &Digraph,
    rounds: u64,
) -> Result<u64, String>
where
    A: Algorithm + Clone + Sync,
    A::State: Send + Sync + StateBits,
    A::Msg: Send + Sync,
{
    let net = StaticGraph::new(g.clone());
    let mut plain = Execution::new(algo.clone(), inits.clone());
    plain.drive(&net, RunConfig::rounds(rounds));
    let ledger = ByteLedger::new();
    let mut metered = Execution::new(algo, inits);
    metered.drive(
        &net,
        RunConfig::rounds(rounds).bandwidth(BandwidthCap::Unlimited, &ledger),
    );
    let plain_words = plain.states().words();
    if metered.states().words() != plain_words {
        return Err("b = inf rung changed the trajectory (must be a pure observer)".into());
    }
    let expected = rounds * g.edge_count() as u64 * 64;
    if ledger.total_bits() != expected {
        return Err(format!(
            "b = inf ledger charged {} bits, expected {expected}",
            ledger.total_bits()
        ));
    }
    let mut fp = Fingerprint::new();
    fp.absorb_words(&plain_words);
    Ok(fp.digest())
}

/// The shared capped-arm laws, after the algorithm-specific boxed run:
/// exact ℚ token-mass conservation, the f64 output bitwise equal to the
/// correctly-rounded exact token ratio, the ratio within the `ℚ_{2^b}`
/// grid envelope of [`MessageCodec::snap`], and ledger totals equal to
/// `rounds × edges × b` on both executors.
#[allow(clippy::too_many_arguments)] // one flat law list, named inline
fn capped_laws(
    codec: MessageCodec,
    ratios: &[(u64, u64)],
    outputs: &[f64],
    mass_before: BigRational,
    mass_after: BigRational,
    boxed_ledger: &ByteLedger,
    flat_ledger: &ByteLedger,
    edges: u64,
    rounds: u64,
) -> Result<BigRational, String> {
    if mass_after != mass_before {
        return Err(format!(
            "exact token mass drifted: {mass_before} -> {mass_after}"
        ));
    }
    let expected = rounds * edges * codec.bits() as u64;
    if boxed_ledger.total_bits() != expected {
        return Err(format!(
            "boxed ledger charged {} bits, expected {expected}",
            boxed_ledger.total_bits()
        ));
    }
    if flat_ledger.total_bits() != boxed_ledger.total_bits() {
        return Err(format!(
            "flat ledger ({} bits) disagrees with boxed ledger ({} bits)",
            flat_ledger.total_bits(),
            boxed_ledger.total_bits()
        ));
    }
    let exact: Vec<BigRational> = ratios
        .iter()
        .map(|&(num, den)| BigRational::new(BigInt::from(num), BigInt::from(den)))
        .collect();
    let mean = {
        let num: BigRational = exact.iter().sum();
        &num / &BigRational::from_integer(exact.len() as i64)
    };
    let mut max_err = BigRational::zero();
    for (v, (r, &o)) in exact.iter().zip(outputs).enumerate() {
        if r.to_f64().to_bits() != o.to_bits() {
            return Err(format!(
                "agent {v}: f64 output {o:e} escapes the exact ℚ trajectory {r}"
            ));
        }
        let snapped = codec.snap(r);
        if (r - &snapped).abs() > codec.grid_radius() {
            return Err(format!(
                "agent {v}: best_approximation left ratio {r} at distance > 1/2^{} \
                 from the ℚ_{{2^{}}} grid",
                codec.bits() + 1,
                codec.bits()
            ));
        }
        let err = (r - &mean).abs();
        if err > max_err {
            max_err = err;
        }
    }
    Ok(max_err)
}

/// The bandwidth oracle family. Per cell (`qpushsum` / `qmetropolis` ×
/// cap `b1`..`binf`):
///
/// - **structural cap** — a [`CapAudit`] observer rides the boxed run
///   and verifies every broadcast payload lane is a codeword below
///   `2^b` (degree lanes are structural metadata, not payload — see
///   DESIGN.md decision 12);
/// - **exact conservation** — total token mass over all agents,
///   measured in exact ℚ, is invariant over the whole run;
/// - **ℚ envelope** — each agent's f64 output equals the correctly
///   rounded exact token ratio bitwise, and the ratio is within half a
///   grid step of its [`MessageCodec::snap`] projection onto
///   `ℚ_{2^b}` (the `best_approximation` grid);
/// - **flat ≡ boxed** — bitwise state agreement at 1, 2 and 4 threads
///   ([`flat_agree`]), with byte-identical ledgers from both executors;
/// - **`b = ∞`** — the unquantized algorithm under an
///   [`BandwidthCap::Unlimited`] rung is bitwise identical to the
///   uncapped baseline ([`unlimited_rung_is_pure`]).
fn check_bandwidth(ctx: &CellCtx) -> CellOutcome {
    let cell = ctx.cell;
    let g = match parse_graph(&cell.topology) {
        Ok(g) => g.with_self_loops(),
        Err(e) => return fail(e.0),
    };
    let n = g.n();
    let edges = g.edge_count() as u64;
    let rounds = ctx.rounds();
    let seed = cell.cell_seed;
    let values = vals_f64(seed, n);
    let Some(cap) = BandwidthCap::parse(&cell.variant) else {
        return fail(format!("unknown bandwidth variant `{}`", cell.variant));
    };
    match (cell.algorithm.as_str(), cap.codec()) {
        ("qpushsum", None) => {
            match unlimited_rung_is_pure(
                Isotropic(PushSum),
                PushSumState::averaging(&values),
                &g,
                rounds,
            ) {
                Ok(digest) => CellOutcome::new()
                    .ok(true)
                    .detail("digest", format!("{digest:016x}")),
                Err(e) => fail(e),
            }
        }
        ("qmetropolis", None) => {
            match unlimited_rung_is_pure(Isotropic(Metropolis), values, &g, rounds) {
                Ok(digest) => CellOutcome::new()
                    .ok(true)
                    .detail("digest", format!("{digest:016x}")),
                Err(e) => fail(e),
            }
        }
        ("qpushsum", Some(codec)) => {
            let algo = QuantizedPushSum::new(codec.bits());
            let inits = algo.initial(&values);
            let (y0, z0) = QuantizedPushSum::total_tokens(&inits);
            let ledger = ByteLedger::new();
            let mut audit = CapAudit::new(codec, 2);
            let mut boxed = Execution::new(Isotropic(algo), inits.clone());
            boxed.drive(
                &StaticGraph::new(g.clone()),
                RunConfig::rounds(rounds)
                    .observer(&mut audit)
                    .bandwidth(cap, &ledger),
            );
            if let Some(v) = audit.violation {
                return fail(v);
            }
            let digest = match flat_agree(algo, inits.clone(), &g, rounds) {
                Ok(d) => d,
                Err(e) => return fail(e),
            };
            let flat_ledger = ByteLedger::new();
            let mut flat = FlatExecution::new(algo, &g, PushSumState::columns(&inits));
            flat.drive(FlatRunConfig::rounds(rounds).bandwidth(cap, &flat_ledger));
            let (y1, z1) = QuantizedPushSum::total_tokens(boxed.states());
            let scale = BigInt::from(codec.levels());
            let ratios: Vec<(u64, u64)> = boxed
                .states()
                .iter()
                .map(|s| (s.y as u64, s.z as u64))
                .collect();
            // The conserved quantity is the token pair; fold both sums
            // into one ℚ mass `Σy / 2^b` (z is checked via the ratios).
            if z1 != z0 {
                return fail(format!("z tokens drifted: {z0} -> {z1}"));
            }
            match capped_laws(
                codec,
                &ratios,
                &boxed.outputs(),
                BigRational::new(BigInt::from(y0), scale.clone()),
                BigRational::new(BigInt::from(y1), scale),
                &ledger,
                &flat_ledger,
                edges,
                rounds,
            ) {
                Ok(qerr) => CellOutcome::new()
                    .ok(true)
                    .detail("digest", format!("{digest:016x}"))
                    .detail("bits", ledger.total_bits())
                    .detail("qerr", qerr.to_string()),
                Err(e) => fail(e),
            }
        }
        ("qmetropolis", Some(codec)) => {
            let algo = QuantizedMetropolis::new(codec.bits(), 1.25);
            let inits = algo.initial(&values);
            let t0 = QuantizedMetropolis::total_tokens(&inits);
            let ledger = ByteLedger::new();
            // Lane 1 is the degree tag — structural metadata, audited
            // lanes are the value payload only.
            let mut audit = CapAudit::new(codec, 1);
            let mut boxed = Execution::new(Isotropic(algo), inits.clone());
            boxed.drive(
                &StaticGraph::new(g.clone()),
                RunConfig::rounds(rounds)
                    .observer(&mut audit)
                    .bandwidth(cap, &ledger),
            );
            if let Some(v) = audit.violation {
                return fail(v);
            }
            let digest = match flat_agree(algo, inits.clone(), &g, rounds) {
                Ok(d) => d,
                Err(e) => return fail(e),
            };
            let flat_ledger = ByteLedger::new();
            let mut flat = FlatExecution::new(algo, &g, lane_columns(&inits));
            flat.drive(FlatRunConfig::rounds(rounds).bandwidth(cap, &flat_ledger));
            let t1 = QuantizedMetropolis::total_tokens(boxed.states());
            let scale = BigInt::from(codec.levels());
            let ratios: Vec<(u64, u64)> = boxed
                .states()
                .iter()
                .map(|&x| (x as u64, codec.levels()))
                .collect();
            match capped_laws(
                codec,
                &ratios,
                &boxed.outputs(),
                BigRational::new(BigInt::from(t0), scale.clone()),
                BigRational::new(BigInt::from(t1), scale),
                &ledger,
                &flat_ledger,
                edges,
                rounds,
            ) {
                Ok(qerr) => CellOutcome::new()
                    .ok(true)
                    .detail("digest", format!("{digest:016x}"))
                    .detail("bits", ledger.total_bits())
                    .detail("qerr", qerr.to_string()),
                Err(e) => fail(e),
            }
        }
        (other, _) => fail(format!("unknown bandwidth algorithm `{other}`")),
    }
}

// ---------------------------------------------------------------------
// (a) Backend agreement — certified enclosures, no tolerance
// ---------------------------------------------------------------------

/// The certified backend oracle. Per cell it runs the f64 algorithm and
/// its certified twin ([`CertifiedPushSum`] / [`CertifiedPushSumFrequency`])
/// side by side and demands every f64 output lie **inside** its
/// machine-checked enclosure — a sound bound on every round-to-nearest
/// trajectory (see `kya_arith::interval`), so there is no tolerance knob
/// to tune and nothing for a genuine divergence to hide under.
///
/// When an enclosure cannot certify its comparison (unbounded interval:
/// a weight that could not be proven positive), the cell *escalates*: it
/// replays on the exact backend ([`PushSumExact`] /
/// [`PushSumFrequencyExact`]), audits that the exact ground truth also
/// lies in the enclosure, and fails the uncertifiable f64 output —
/// exactly the case the retired `f64_tolerance` comparison used to mask.
/// The `exact` variant forces the escalated path on every cell (the cost
/// baseline).
///
/// Certification and escalation counts land in the NDJSON details, so
/// CI can watch the escalation rate (see `tests/escalation_guard.rs`).
fn check_backend(ctx: &CellCtx) -> CellOutcome {
    let cell = ctx.cell;
    let net = match build_net(&cell.topology) {
        Ok(net) => net,
        Err(e) => return fail(e.0),
    };
    let n = net.n();
    let rounds = ctx.rounds();
    let vals = vals_u64(cell.cell_seed, n);
    let backend = match cell.variant.as_str() {
        // The bare axis means the default backend under test.
        "" => Backend::Certified,
        v => match Backend::parse(v) {
            Some(Backend::F64) | None => {
                return fail(format!("unknown backend variant `{v}`"));
            }
            Some(b) => b,
        },
    };
    match cell.algorithm.as_str() {
        "pushsum" => {
            let floats: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
            let mut approx = Execution::new(Isotropic(PushSum), PushSumState::averaging(&floats));
            let mut cert = Execution::new(
                Isotropic(CertifiedPushSum),
                CertifiedPushSumState::averaging(&floats),
            );
            approx.drive(net.as_ref(), RunConfig::rounds(rounds));
            cert.drive(net.as_ref(), RunConfig::rounds(rounds));
            let enc = cert.outputs();
            let approx_out = approx.outputs();
            let mut stats = EscalationStats::default();
            let mut max_width = 0.0f64;
            for (v, (&f, e)) in approx_out.iter().zip(&enc).enumerate() {
                stats.record(e.is_bounded());
                if !e.contains(f) {
                    return fail(format!(
                        "agent {v}: f64 output {f:e} escapes its certified enclosure \
                         [{:e}, {:e}]",
                        e.lo(),
                        e.hi()
                    ));
                }
                if e.is_bounded() {
                    max_width = max_width.max(e.width());
                }
            }
            if backend == Backend::Exact || stats.escalations > 0 {
                let ints: Vec<i64> = vals.iter().map(|&v| v as i64).collect();
                let mut exact =
                    Execution::new(Isotropic(PushSumExact), PushSumExactState::averaging(&ints));
                exact.drive(net.as_ref(), RunConfig::rounds(rounds));
                let ground = exact.outputs();
                for (v, (q, e)) in ground.iter().zip(&enc).enumerate() {
                    if !e.contains_rational(q) {
                        return fail(format!(
                            "agent {v}: exact output escapes its enclosure — unsound interval"
                        ));
                    }
                    if !e.is_bounded() {
                        return fail(format!(
                            "agent {v}: f64 output {:e} is uncertifiable (unbounded \
                             enclosure; exact ground truth {:e})",
                            approx_out[v],
                            q.to_f64()
                        ));
                    }
                }
            }
            CellOutcome::new()
                .ok(true)
                .detail("backend", backend.as_str().to_string())
                .detail("certifications", stats.certifications)
                .detail("escalations", stats.escalations)
                .detail("max_width", format!("{max_width:e}"))
        }
        "frequency" => {
            let mut approx = Execution::new(
                Isotropic(PushSumFrequency::frequency()),
                FrequencyState::initial(&vals),
            );
            let mut cert = Execution::new(
                Isotropic(CertifiedPushSumFrequency),
                CertifiedFrequencyState::initial(&vals),
            );
            approx.drive(net.as_ref(), RunConfig::rounds(rounds));
            cert.drive(net.as_ref(), RunConfig::rounds(rounds));
            let enc = cert.outputs();
            let approx_out = approx.outputs();
            let mut stats = EscalationStats::default();
            let mut max_width = 0.0f64;
            for (v, (a, em)) in approx_out.iter().zip(&enc).enumerate() {
                if a.keys().ne(em.keys()) {
                    return fail(format!(
                        "agent {v}: key sets differ: f64 {:?} vs certified {:?}",
                        a.keys().collect::<Vec<_>>(),
                        em.keys().collect::<Vec<_>>()
                    ));
                }
                for (val, e) in em {
                    stats.record(e.is_bounded());
                    let f = a[val];
                    if !e.contains(f) {
                        return fail(format!(
                            "agent {v} value {val}: f64 frequency {f:e} escapes its \
                             enclosure [{:e}, {:e}]",
                            e.lo(),
                            e.hi()
                        ));
                    }
                    if e.is_bounded() {
                        max_width = max_width.max(e.width());
                    }
                }
            }
            if backend == Backend::Exact || stats.escalations > 0 {
                let mut exact = Execution::new(
                    Isotropic(PushSumFrequencyExact),
                    ExactFrequencyState::initial(&vals),
                );
                exact.drive(net.as_ref(), RunConfig::rounds(rounds));
                let ground = exact.outputs();
                for (v, (qm, em)) in ground.iter().zip(&enc).enumerate() {
                    for (val, q) in qm {
                        let Some(e) = em.get(val) else {
                            return fail(format!(
                                "agent {v}: exact value {val} missing from the certified run"
                            ));
                        };
                        if !e.contains_rational(q) {
                            return fail(format!(
                                "agent {v} value {val}: exact frequency escapes its \
                                 enclosure — unsound interval"
                            ));
                        }
                    }
                    for (val, e) in em {
                        if !e.is_bounded() {
                            return fail(format!(
                                "agent {v} value {val}: f64 frequency is uncertifiable \
                                 (weight sign unresolved by the enclosure)"
                            ));
                        }
                    }
                }
            }
            CellOutcome::new()
                .ok(true)
                .detail("backend", backend.as_str().to_string())
                .detail("certifications", stats.certifications)
                .detail("escalations", stats.escalations)
                .detail("max_width", format!("{max_width:e}"))
        }
        other => fail(format!("unknown backend algorithm `{other}`")),
    }
}

// ---------------------------------------------------------------------
// (c) Relabeling equivariance
// ---------------------------------------------------------------------

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ (i as u64) << 17) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Run `algo` on `g` and on `g.relabel(perm)` (inputs carried along the
/// permutation) and compare final states fibrewise with `agree`.
fn relabel_agree<A, F>(
    algo: A,
    inits: Vec<A::State>,
    g: &Digraph,
    perm: &[usize],
    rounds: u64,
    agree: F,
) -> Result<(), String>
where
    A: Algorithm + Clone + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    F: Fn(&A::State, &A::State) -> bool,
{
    let mut permuted_inits = inits.clone();
    for (v, &p) in perm.iter().enumerate() {
        permuted_inits[p] = inits[v].clone();
    }
    let mut original = Execution::new(algo.clone(), inits);
    let mut relabeled = Execution::new(algo, permuted_inits);
    original.drive(&StaticGraph::new(g.clone()), RunConfig::rounds(rounds));
    relabeled.drive(
        &StaticGraph::new(g.relabel(perm)),
        RunConfig::rounds(rounds),
    );
    for (v, &p) in perm.iter().enumerate() {
        if !agree(&original.states()[v], &relabeled.states()[p]) {
            return Err(format!(
                "vertex {v} (relabeled {p}) differs after {rounds} rounds"
            ));
        }
    }
    Ok(())
}

fn check_relabel(ctx: &CellCtx) -> CellOutcome {
    let cell = ctx.cell;
    // Relabeling is defined on static graphs; parse the loop-less graph
    // so both copies get their self-loop closure the same way.
    let g = match parse_graph(&cell.topology) {
        Ok(g) => g,
        Err(e) => return fail(e.0),
    };
    let n = g.n();
    let rounds = ctx.rounds();
    let perm = permutation(cell.cell_seed, n);
    let vals = vals_u64(cell.cell_seed, n);
    let res = match cell.algorithm.as_str() {
        // Order-insensitive state: relabeling must commute *exactly*.
        "gossip" => relabel_agree(
            Broadcast(SetGossip),
            SetGossip::initial(&vals),
            &g,
            &perm,
            rounds,
            |a, b| a == b,
        ),
        // Exact arithmetic: multiset-invariant transitions, so exact
        // equality holds even though delivery orders differ.
        "pushsum-exact" => relabel_agree(
            Isotropic(PushSumExact),
            PushSumExactState::averaging(&vals.iter().map(|&v| v as i64).collect::<Vec<_>>()),
            &g,
            &perm,
            rounds,
            |a, b| a == b,
        ),
        // f64: relabeling permutes inbox orders, so agreement only up to
        // the accumulated-rounding tolerance.
        "pushsum" => {
            let tol = f64_tolerance(rounds, n, 9.0);
            relabel_agree(
                Isotropic(PushSum),
                PushSumState::averaging(&vals.iter().map(|&v| v as f64).collect::<Vec<_>>()),
                &g,
                &perm,
                rounds,
                move |a, b| (a.y - b.y).abs() <= tol && (a.z - b.z).abs() <= tol,
            )
        }
        other => return fail(format!("unknown relabel algorithm `{other}`")),
    };
    match res {
        Ok(()) => CellOutcome::new().ok(true),
        Err(e) => fail(e),
    }
}

// ---------------------------------------------------------------------
// (c) Mass conservation under faults
// ---------------------------------------------------------------------

fn check_mass(ctx: &CellCtx) -> CellOutcome {
    let cell = ctx.cell;
    let g = match parse_graph(&cell.topology) {
        Ok(g) => g,
        Err(e) => return fail(e.0),
    };
    let n = g.n();
    let rounds = ctx.rounds();
    let vals = vals_u64(cell.cell_seed, n);
    let plan = ctx.fault_plan();
    match cell.algorithm.as_str() {
        // Graph-level faults (FaultyNetwork): links vanish from the
        // round graph, but every share the sender splits still lands
        // somewhere — mass is conserved *exactly*, checked in exact
        // arithmetic.
        "exact-graph-faults" => {
            let ints: Vec<i64> = vals.iter().map(|&v| v as i64).collect();
            let inits = PushSumExactState::averaging(&ints);
            let y0: BigRational = inits.iter().map(|s| &s.y).sum();
            let z0: BigRational = inits.iter().map(|s| &s.z).sum();
            let net = FaultyNetwork::new(StaticGraph::new(g), plan);
            let mut exec = Execution::new(Isotropic(PushSumExact), inits);
            exec.drive(&net, RunConfig::rounds(rounds));
            let y: BigRational = exec.states().iter().map(|s| &s.y).sum();
            let z: BigRational = exec.states().iter().map(|s| &s.z).sum();
            if y != y0 || z != z0 {
                return fail(format!(
                    "exact mass drifted under graph faults: y {y0} -> {y}, z {z0} -> {z}"
                ));
            }
            CellOutcome::new().ok(true)
        }
        // Message-level faults (the plan as the executor's delivery
        // policy): dropped shares bounce
        // back to the sender and SelfHealingPushSum reabsorbs them, so
        // f64 mass is conserved up to accumulated rounding.
        "healing-message-faults" => {
            let floats: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
            let mut exec = Execution::new(
                Isotropic(SelfHealingPushSum),
                PushSumState::averaging(&floats),
            )
            .faults(plan);
            exec.drive(&StaticGraph::new(g), RunConfig::rounds(rounds));
            let (_, z) = total_mass(exec.states());
            let deficit = (n as f64 - z).abs();
            let tol = f64_tolerance(rounds, n, 9.0);
            if deficit > tol {
                return fail(format!(
                    "self-healing z mass deficit {deficit:e} > tol {tol:e}"
                ));
            }
            CellOutcome::new()
                .ok(true)
                .detail("z_deficit", format!("{deficit:e}"))
        }
        other => fail(format!("unknown mass algorithm `{other}`")),
    }
}

// ---------------------------------------------------------------------
// (c) Lift/base indistinguishability
// ---------------------------------------------------------------------

fn check_lift(ctx: &CellCtx) -> CellOutcome {
    let cell = ctx.cell;
    let n = cell.n;
    if n < 4 || !n.is_multiple_of(2) {
        return fail(format!("liftring needs an even n >= 4, got {n}"));
    }
    let (gc, bc, phic) = lift_ring(n);
    let base_vals = vals_u64(cell.cell_seed, n / 2);
    let rounds = ctx.rounds();
    let res = match cell.algorithm.as_str() {
        "gossip" => check_lifting(
            &Broadcast(SetGossip),
            &gc,
            &bc,
            &phic,
            SetGossip::initial(&base_vals),
            rounds,
        ),
        "pushsum-exact" => check_lifting(
            &Isotropic(PushSumExact),
            &gc,
            &bc,
            &phic,
            PushSumExactState::averaging(&base_vals.iter().map(|&v| v as i64).collect::<Vec<_>>()),
            rounds,
        ),
        other => return fail(format!("unknown lift algorithm `{other}`")),
    };
    match res {
        Ok(()) => CellOutcome::new().ok(true),
        Err(v) => fail(v.to_string()),
    }
}

// ---------------------------------------------------------------------
// (c) Churn under the combined adversary stack
// ---------------------------------------------------------------------

/// The churn oracle family, on the full pairing ∘ churn ∘ faults stack:
///
/// - `exact-mass` — exact-backend mass conservation *modulo the explicit
///   reinjection ledger*: under `Carry` total `(Σy, Σz)` over all agent
///   slots (present or parked) is exactly conserved; under `Reset` it
///   drifts by exactly the sum of declared `fresh − parked` deltas,
///   which the reinit closure records as it fires.
/// - `healing-mass` — message-level faults with `SelfHealingPushSum`:
///   the f64 `z` mass matches `n` plus the reset ledger within the
///   derived tolerance, and the attached [`CellReport`] performs the
///   quiescence/stabilization detection (convergence only counts
///   strictly after the last fault *or churn* transition).
/// - `frozen-absence` — an absent agent (self-loop only) is bit-frozen:
///   its state words ([`StateBits`]) are identical, round over round, for
///   the whole absence window, even under graph-level faults.
///
/// Every arm's details (fingerprint digests, deficits, counts) land in
/// the NDJSON record, so the CI byte-diff across `--workers` values
/// certifies they are worker-invariant.
///
/// [`CellReport`]: kya_runtime::CellReport
fn check_churn(ctx: &CellCtx) -> CellOutcome {
    let cell = ctx.cell;
    let net = match build_net(&cell.topology) {
        Ok(net) => net,
        Err(e) => return fail(e.0),
    };
    let n = net.n();
    let rounds = ctx.rounds();
    let spec = match ChurnSpec::parse(&cell.variant) {
        Ok(spec) => spec,
        Err(e) => return fail(e.0),
    };
    let membership = spec.build(cell.cell_seed).membership(n);
    let plan = ctx.fault_plan();
    let vals = vals_u64(cell.cell_seed, n);
    match cell.algorithm.as_str() {
        "exact-mass" => {
            let ints: Vec<i64> = vals.iter().map(|&v| v as i64).collect();
            let fresh = PushSumExactState::averaging(&ints);
            let inits = fresh.clone();
            let y0: BigRational = inits.iter().map(|s| &s.y).sum();
            let z0: BigRational = inits.iter().map(|s| &s.z).sum();
            let stack = FaultyNetwork::new(ChurnMasked::new(net, membership.clone()), plan);
            let ledger = RefCell::new((BigRational::zero(), BigRational::zero()));
            let reinit = |v: usize, parked: &PushSumExactState| {
                let f = fresh[v].clone();
                let mut l = ledger.borrow_mut();
                l.0 = &l.0 + &(&f.y - &parked.y);
                l.1 = &l.1 + &(&f.z - &parked.z);
                f
            };
            let mut exec = Execution::new(Isotropic(PushSumExact), inits);
            exec.drive(
                &stack,
                RunConfig::rounds(rounds).membership(&membership, &reinit),
            );
            let y: BigRational = exec.states().iter().map(|s| &s.y).sum();
            let z: BigRational = exec.states().iter().map(|s| &s.z).sum();
            let (ly, lz) = ledger.into_inner();
            let (ey, ez) = (&y0 + &ly, &z0 + &lz);
            if y != ey || z != ez {
                return fail(format!(
                    "exact mass drifted beyond the reinjection ledger: \
                     y expected {ey} got {y}, z expected {ez} got {z}"
                ));
            }
            let mut fp = Fingerprint::new();
            fp.absorb(exec.states());
            CellOutcome::new()
                .ok(true)
                .detail("digest", format!("{:016x}", fp.digest()))
        }
        "healing-mass" => {
            let floats: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
            let mean = floats.iter().sum::<f64>() / n as f64;
            let fresh = PushSumState::averaging(&floats);
            let stack = ChurnMasked::new(net, membership.clone());
            let ledger_z = Cell::new(0.0f64);
            let reinit = |v: usize, parked: &PushSumState| {
                let f = fresh[v];
                ledger_z.set(ledger_z.get() + (f.z - parked.z));
                f
            };
            let mut exec =
                Execution::new(Isotropic(SelfHealingPushSum), fresh.clone()).faults(plan);
            let report = exec.drive(
                &stack,
                RunConfig::rounds(rounds)
                    .membership(&membership, &reinit)
                    .measure(&EuclideanMetric, &mean, ctx.eps()),
            );
            let (_, z) = total_mass(exec.states());
            let expected = n as f64 + ledger_z.get();
            let deficit = (z - expected).abs();
            let tol = f64_tolerance(rounds, n, 9.0);
            if deficit > tol {
                return fail(format!(
                    "self-healing z mass deficit {deficit:e} > tol {tol:e} \
                     (reset ledger {:e})",
                    ledger_z.get()
                ));
            }
            CellOutcome::new()
                .ok(true)
                .detail("z_deficit", format!("{deficit:e}"))
                .report(report.without_trace())
        }
        "frozen-absence" => {
            let floats: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
            let fresh = PushSumState::averaging(&floats);
            let stack = FaultyNetwork::new(ChurnMasked::new(net, membership.clone()), plan);
            let reinit = |v: usize, _parked: &PushSumState| fresh[v];
            let mut exec = Execution::new(Isotropic(PushSum), fresh.clone());
            // Each absent agent's state words are parked when its absence
            // starts; every round of the window must reproduce them bit
            // for bit.
            let mut parked: Vec<Option<Vec<u64>>> = vec![None; n];
            let mut frozen_agent_rounds = 0u64;
            for t in 1..=rounds {
                for v in exec.apply_rejoins(&membership, &reinit) {
                    parked[v] = None;
                }
                for (v, slot) in parked.iter_mut().enumerate() {
                    if !membership.is_member(v, t) && slot.is_none() {
                        *slot = Some(exec.states()[v].words());
                    }
                }
                let g = stack.graph_ref(t);
                exec.step(&g);
                for (v, slot) in parked.iter().enumerate() {
                    if !membership.is_member(v, t) {
                        if slot.as_ref() != Some(&exec.states()[v].words()) {
                            return fail(format!(
                                "round {t}: absent agent {v} drifted from its parked state \
                                 (now {:?})",
                                exec.states()[v]
                            ));
                        }
                        frozen_agent_rounds += 1;
                    }
                }
            }
            CellOutcome::new()
                .ok(true)
                .detail("frozen_agent_rounds", frozen_agent_rounds)
        }
        other => fail(format!("unknown churn algorithm `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_tolerance_is_floored_above_zero() {
        // Regression: `f64_tolerance(0, n, scale)` used to return 0.0,
        // turning every zero-round oracle comparison into an accidental
        // demand for bitwise equality.
        assert!(f64_tolerance(0, 8, 9.0) > 0.0);
        assert!(f64_tolerance(20, 0, 9.0) > 0.0);
        assert!(f64_tolerance(0, 0, 0.0) > 0.0);
        // The floor is a small multiple of machine epsilon at the scale.
        assert_eq!(f64_tolerance(0, 8, 1.0), 32.0 * f64::EPSILON);
        assert_eq!(f64_tolerance(0, 8, 4.0), 128.0 * f64::EPSILON);
        // Away from the degenerate corner the linear model is unchanged.
        assert_eq!(
            f64_tolerance(20, 8, 9.0),
            8.0 * 20.0 * 8.0 * f64::EPSILON * 9.0
        );
        // Monotone in each argument.
        assert!(f64_tolerance(40, 8, 9.0) > f64_tolerance(20, 8, 9.0));
        assert!(f64_tolerance(20, 16, 9.0) > f64_tolerance(20, 8, 9.0));
    }
}

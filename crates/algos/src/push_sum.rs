//! The Push-Sum family (§5.1–5.5).
//!
//! Push-Sum maintains a value mass `y` and a weight mass `z`, both
//! rescattered each round in equal shares over the sender's out-edges
//! (eqs. 6–7); the output is the ratio `x = y / z`. Column-stochasticity
//! of the rescattering conserves both totals, and a finite dynamic
//! diameter forces the ratios to consensus on the *quot-sum*
//! `Σ v / Σ w` (Theorem 5.2). With unit weights the quot-sum is the
//! average; with per-value unit masses it is the frequency vector
//! (Algorithm 1); with weights seeded only at `ℓ` known leaders it
//! recovers exact multiplicities (§5.5).
//!
//! Push-Sum requires **outdegree awareness** (the shares are `1/d⁻`),
//! uses no persistent memory beyond the masses, is not self-stabilizing,
//! but tolerates asynchronous starts (§5.3): run it under
//! [`kya_runtime::adversary::AsyncStarts`] and it still converges.
//!
//! Two arithmetic backends are provided: `f64` (fast; what any practical
//! deployment would use) and exact [`BigRational`] (the simulator's
//! referee: mass conservation holds *exactly*, which the property tests
//! exploit).

use kya_arith::{BigInt, BigRational};
use kya_runtime::bits::StateBits;
use kya_runtime::{lane_columns, FlatAlgorithm, Inbox, IsotropicAlgorithm, Lanes};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Scalar Push-Sum, f64 backend
// ---------------------------------------------------------------------

/// Scalar Push-Sum over `f64` (Theorem 5.2): output converges to
/// `Σ v_i / Σ w_i`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushSum;

/// State of scalar Push-Sum: the two masses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PushSumState {
    /// Value mass `y`.
    pub y: f64,
    /// Weight mass `z` (positive).
    pub z: f64,
}

impl StateBits for PushSumState {
    fn feed(&self, out: &mut Vec<u64>) {
        self.y.feed(out);
        self.z.feed(out);
    }
}

impl PushSumState {
    /// Initial state from input value `v` and weight `w > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `w <= 0` (the paper requires `w_i ∈ ℝ_{>0}`).
    pub fn new(v: f64, w: f64) -> PushSumState {
        assert!(w > 0.0, "push-sum weights must be positive");
        PushSumState { y: v, z: w }
    }

    /// Unit-weight initial states (computes the average of `values`).
    pub fn averaging(values: &[f64]) -> Vec<PushSumState> {
        values.iter().map(|&v| PushSumState::new(v, 1.0)).collect()
    }

    /// Struct-of-arrays columns (`[y-lane, z-lane]`) for the flat
    /// executor ([`kya_runtime::FlatExecution`]) from boxed states.
    pub fn columns(states: &[PushSumState]) -> Vec<Vec<f64>> {
        lane_columns(states)
    }
}

/// Lanes `[y, z]`.
impl Lanes for PushSumState {
    const LANES: usize = 2;

    #[inline]
    fn load(lanes: &[f64]) -> PushSumState {
        let (y, z) = <(f64, f64)>::load(lanes);
        PushSumState { y, z }
    }

    #[inline]
    fn store(&self, lanes: &mut [f64]) {
        (self.y, self.z).store(lanes);
    }
}

/// State lanes `[y, z]`, message lanes `[y/d, z/d]`. The boxed executor
/// runs this code too (`Isotropic(PushSum)`, with [`PushSumState`]
/// states and `(f64, f64)` messages).
impl FlatAlgorithm for PushSum {
    type State = PushSumState;
    type Msg = (f64, f64);

    #[inline]
    fn message(&self, state: &[f64], outdegree: usize, msg: &mut [f64]) {
        let d = outdegree as f64;
        msg[0] = state[0] / d;
        msg[1] = state[1] / d;
    }

    #[inline]
    fn transition(&self, _state: &[f64], inbox: impl Inbox, next: &mut [f64]) {
        let mut y = 0.0;
        let mut z = 0.0;
        for m in inbox {
            y += m[0];
            z += m[1];
        }
        next[0] = y;
        next[1] = z;
    }

    /// The mass quotient `y / z`, deliberately unguarded: on lopsided
    /// topologies (e.g. a directed in-star, where a leaf halves its
    /// masses every round) `z` underflows to exactly `0.0` after ~1075
    /// rounds and the output goes inf/NaN. The runtime surfaces this as
    /// [`CellReport::diverged_at`](kya_runtime::CellReport) rather than
    /// the algorithm masking it — a non-finite output *is* the signal
    /// that f64 left the regime where Theorem 5.2's analysis applies
    /// (the exact backend [`PushSumExact`] has no such failure mode).
    #[inline]
    fn output(&self, state: &[f64]) -> f64 {
        state[0] / state[1]
    }
}

// ---------------------------------------------------------------------
// Self-healing Push-Sum (F6)
// ---------------------------------------------------------------------

/// Push-Sum with a link-layer bounce handler: the same dynamics as
/// [`PushSum`], plus an [`IsotropicAlgorithm::reabsorb`] that folds
/// undelivered shares back into the sender's masses.
///
/// Why this matters: Push-Sum conserves `Σ y` and `Σ z` because the
/// rescattering matrix is column-stochastic — every share the sender
/// splits off lands *somewhere*. Under message loss (an execution with a
/// fault plan, [`kya_runtime::Execution::faults`]) a dropped share lands
/// nowhere and the invariant breaks permanently: plain Push-Sum, which
/// keeps the default discarding `reabsorb`, then converges to the
/// quot-sum of whatever mass survived, which is wrong (the F6 negative
/// control exhibits this).
/// Re-absorbing the bounced share restores column-stochasticity of the
/// *effective* rescattering — the lost fraction simply stays with the
/// sender for one round — so both totals are conserved through arbitrary
/// drop/crash faults and convergence to the true quot-sum resumes as
/// soon as the network is connected often enough again.
///
/// ```
/// use kya_algos::push_sum::{total_mass, PushSumState, SelfHealingPushSum};
/// use kya_graph::{generators, StaticGraph};
/// use kya_runtime::faults::FaultPlan;
/// use kya_runtime::{Execution, Isotropic, RunConfig};
///
/// let net = StaticGraph::new(generators::directed_ring(4));
/// let plan = FaultPlan::new(9).drop_links(0.3).until(30);
/// let mut exec = Execution::new(
///     Isotropic(SelfHealingPushSum),
///     PushSumState::averaging(&[0.0, 4.0, 0.0, 0.0]),
/// )
/// .faults(plan);
/// exec.drive(&net, RunConfig::rounds(300));
/// let (y, z) = total_mass(exec.states());
/// assert!((y - 4.0).abs() < 1e-9 && (z - 4.0).abs() < 1e-9);
/// assert!(exec.outputs().iter().all(|x| (x - 1.0).abs() < 1e-9));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfHealingPushSum;

impl IsotropicAlgorithm for SelfHealingPushSum {
    type State = PushSumState;
    type Msg = (f64, f64);
    type Output = f64;

    fn message(&self, state: &PushSumState, outdegree: usize) -> (f64, f64) {
        IsotropicAlgorithm::message(&PushSum, state, outdegree)
    }

    fn transition(&self, state: &PushSumState, inbox: &[(f64, f64)]) -> PushSumState {
        IsotropicAlgorithm::transition(&PushSum, state, inbox)
    }

    fn output(&self, state: &PushSumState) -> f64 {
        IsotropicAlgorithm::output(&PushSum, state)
    }

    fn reabsorb(&self, state: &PushSumState, lost: &[(f64, f64)]) -> PushSumState {
        let mut next = *state;
        for &(ys, zs) in lost {
            next.y += ys;
            next.z += zs;
        }
        next
    }
}

/// Total `(Σ y, Σ z)` mass of a population of Push-Sum states — the
/// conserved quantity of Theorem 5.2, and the invariant the F6
/// experiments monitor under faults.
pub fn total_mass(states: &[PushSumState]) -> (f64, f64) {
    states
        .iter()
        .fold((0.0, 0.0), |(y, z), s| (y + s.y, z + s.z))
}

// ---------------------------------------------------------------------
// Scalar Push-Sum, exact backend
// ---------------------------------------------------------------------

/// Scalar Push-Sum over exact rationals: identical dynamics, exact mass
/// conservation. Used as the referee in property tests and in the
/// lifting-lemma demonstrations (floating point would break exact state
/// equality between a base execution and its lift).
#[derive(Clone, Copy, Debug, Default)]
pub struct PushSumExact;

/// State of exact Push-Sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PushSumExactState {
    /// Value mass.
    pub y: BigRational,
    /// Weight mass (positive).
    pub z: BigRational,
}

impl StateBits for PushSumExactState {
    fn feed(&self, out: &mut Vec<u64>) {
        self.y.feed(out);
        self.z.feed(out);
    }
}

impl PushSumExactState {
    /// Initial state from value `v` and weight `w > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not positive.
    pub fn new(v: BigRational, w: BigRational) -> PushSumExactState {
        assert!(w.is_positive(), "push-sum weights must be positive");
        PushSumExactState { y: v, z: w }
    }

    /// Unit-weight initial states from integer values.
    pub fn averaging(values: &[i64]) -> Vec<PushSumExactState> {
        values
            .iter()
            .map(|&v| PushSumExactState::new(BigRational::from_integer(v), BigRational::one()))
            .collect()
    }
}

/// The message is shared: every out-edge of a sender carries the same
/// `Arc`, so sending copies a pointer per edge, not two big rationals.
impl IsotropicAlgorithm for PushSumExact {
    type State = PushSumExactState;
    type Msg = Arc<(BigRational, BigRational)>;
    type Output = BigRational;

    fn message(&self, state: &PushSumExactState, outdegree: usize) -> Self::Msg {
        let d = outdegree as u64;
        Arc::new((state.y.div_integer(d), state.z.div_integer(d)))
    }

    fn transition(&self, _state: &PushSumExactState, inbox: &[Self::Msg]) -> PushSumExactState {
        let y = inbox.iter().map(|m| &m.0).sum();
        let z = inbox.iter().map(|m| &m.1).sum();
        PushSumExactState { y, z }
    }

    fn output(&self, state: &PushSumExactState) -> BigRational {
        &state.y / &state.z
    }
}

// ---------------------------------------------------------------------
// Frequency Push-Sum (Algorithm 1) with optional leaders and rounding
// ---------------------------------------------------------------------

/// Push-Sum for the frequency function (the paper's Algorithm 1), with
/// the §5.5 leader variant folded in.
///
/// Each agent runs one Push-Sum instance per *value* it has heard of. On
/// first hearing of a value `ω`, an agent joins that instance with
/// `y[ω] = 0` and `z[ω] = 1` — except in leader mode, where non-leaders
/// join with `z[ω] = 0` and only the `ℓ` leaders carry weight, so
/// `ℓ · x[ω]` converges to the exact multiplicity of `ω`.
#[derive(Clone, Copy, Debug)]
pub struct PushSumFrequency {
    /// `None`: frequency mode (every agent weighs 1). `Some(ell)`:
    /// leader mode with `ell` leaders known to everyone.
    pub leaders: Option<usize>,
}

impl PushSumFrequency {
    /// Standard frequency mode (Algorithm 1).
    pub fn frequency() -> PushSumFrequency {
        PushSumFrequency { leaders: None }
    }

    /// Leader mode with `ell >= 1` known leaders (§5.5).
    ///
    /// # Panics
    ///
    /// Panics if `ell == 0`.
    pub fn with_leaders(ell: usize) -> PushSumFrequency {
        assert!(ell >= 1, "leader mode needs at least one leader");
        PushSumFrequency { leaders: Some(ell) }
    }
}

/// Per-value mass pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mass {
    /// Value mass for this input value.
    pub y: f64,
    /// Weight mass for this input value.
    pub z: f64,
}

impl StateBits for Mass {
    fn feed(&self, out: &mut Vec<u64>) {
        self.y.feed(out);
        self.z.feed(out);
    }
}

/// State of [`PushSumFrequency`]: masses per known value.
#[derive(Clone, Debug, PartialEq)]
pub struct FrequencyState {
    /// Whether this agent is a leader (meaningful in leader mode only).
    pub is_leader: bool,
    /// Per-value masses; keys are the values heard of so far.
    pub masses: BTreeMap<u64, Mass>,
}

impl StateBits for FrequencyState {
    fn feed(&self, out: &mut Vec<u64>) {
        self.is_leader.feed(out);
        self.masses.feed(out);
    }
}

impl FrequencyState {
    /// Initial state for an agent with input `value`.
    ///
    /// In frequency mode pass `is_leader = false` for everyone. In leader
    /// mode the weight mass starts at 1 for leaders and 0 otherwise
    /// (§5.5: "its variables `z_i[ω]` are initially set to zero instead of
    /// one" for non-leaders).
    pub fn new(value: u64, is_leader: bool, leader_mode: bool) -> FrequencyState {
        let z0 = if leader_mode && !is_leader { 0.0 } else { 1.0 };
        let mut masses = BTreeMap::new();
        masses.insert(value, Mass { y: 1.0, z: z0 });
        FrequencyState { is_leader, masses }
    }

    /// Initial states for plain frequency mode.
    pub fn initial(values: &[u64]) -> Vec<FrequencyState> {
        values
            .iter()
            .map(|&v| FrequencyState::new(v, false, false))
            .collect()
    }

    /// Initial states for leader mode: `leaders[i]` flags agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn initial_with_leaders(values: &[u64], leaders: &[bool]) -> Vec<FrequencyState> {
        assert_eq!(values.len(), leaders.len(), "one leader flag per agent");
        values
            .iter()
            .zip(leaders)
            .map(|(&v, &l)| FrequencyState::new(v, l, true))
            .collect()
    }

    fn join_mass(&self, leader_mode: bool) -> f64 {
        if leader_mode && !self.is_leader {
            0.0
        } else {
            1.0
        }
    }
}

/// The frequency estimate vector: per value, the current `x[ω] = y/z`
/// (`f64::INFINITY` while `z[ω] = 0`, which the paper notes happens only
/// finitely often in leader mode).
pub type FrequencyEstimate = BTreeMap<u64, f64>;

impl IsotropicAlgorithm for PushSumFrequency {
    type State = FrequencyState;
    type Msg = BTreeMap<u64, Mass>;
    type Output = FrequencyEstimate;

    fn message(&self, state: &FrequencyState, outdegree: usize) -> Self::Msg {
        let d = outdegree as f64;
        state
            .masses
            .iter()
            .map(|(&v, m)| {
                (
                    v,
                    Mass {
                        y: m.y / d,
                        z: m.z / d,
                    },
                )
            })
            .collect()
    }

    fn transition(&self, state: &FrequencyState, inbox: &[Self::Msg]) -> FrequencyState {
        let leader_mode = self.leaders.is_some();
        // Values heard of before this round: they participate in the sums.
        // Newly discovered values: the agent joins that instance *now*
        // (Algorithm 1, lines 9-12): its own contribution for the value is
        // (y, z) = (0, join), added on top of the received shares.
        let mut next: BTreeMap<u64, Mass> = BTreeMap::new();
        for msg in inbox {
            for (&v, share) in msg {
                let e = next.entry(v).or_insert(Mass { y: 0.0, z: 0.0 });
                e.y += share.y;
                e.z += share.z;
            }
        }
        // Join newly heard instances with the appropriate weight.
        for (v, mass) in next.iter_mut() {
            if !state.masses.contains_key(v) {
                mass.z += state.join_mass(leader_mode);
            }
        }
        FrequencyState {
            is_leader: state.is_leader,
            masses: next,
        }
    }

    fn output(&self, state: &FrequencyState) -> FrequencyEstimate {
        state
            .masses
            .iter()
            .map(|(&v, m)| {
                let x = if m.z > 0.0 { m.y / m.z } else { f64::INFINITY };
                let x = match self.leaders {
                    Some(ell) => x * ell as f64,
                    None => x,
                };
                (v, x)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Exact frequency Push-Sum
// ---------------------------------------------------------------------

/// Algorithm 1 over **exact rationals**: per-value masses in ℚ, so the
/// per-value mass invariants (`Σ_i y_i[ω] = multiplicity(ω)` and, once
/// everyone has joined, `Σ_i z_i[ω] = n`) hold *exactly* at every round.
/// The referee implementation for the `f64` variant and the engine of
/// exactness tests; denominators grow with the round number, so prefer
/// the `f64` variant for long runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushSumFrequencyExact;

/// Per-value exact mass pair.
pub type ExactMass = (BigRational, BigRational);

/// State of [`PushSumFrequencyExact`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactFrequencyState {
    /// Per-value `(y, z)` masses.
    pub masses: BTreeMap<u64, ExactMass>,
}

impl ExactFrequencyState {
    /// Initial states: each agent starts the instance of its own value
    /// with `(y, z) = (1, 1)`.
    pub fn initial(values: &[u64]) -> Vec<ExactFrequencyState> {
        values
            .iter()
            .map(|&v| {
                let mut masses = BTreeMap::new();
                masses.insert(v, (BigRational::one(), BigRational::one()));
                ExactFrequencyState { masses }
            })
            .collect()
    }
}

/// Shares one `Arc`'d map per sender, like [`PushSumExact`]; each
/// value's shares, plus the unit weight of a newly joined instance, are
/// summed with one normalisation.
impl IsotropicAlgorithm for PushSumFrequencyExact {
    type State = ExactFrequencyState;
    type Msg = Arc<BTreeMap<u64, ExactMass>>;
    type Output = BTreeMap<u64, BigRational>;

    fn message(&self, state: &ExactFrequencyState, outdegree: usize) -> Self::Msg {
        let d = outdegree as u64;
        Arc::new(
            state
                .masses
                .iter()
                .map(|(&v, (y, z))| (v, (y.div_integer(d), z.div_integer(d))))
                .collect(),
        )
    }

    fn transition(&self, state: &ExactFrequencyState, inbox: &[Self::Msg]) -> ExactFrequencyState {
        let mut shares: BTreeMap<u64, Vec<&ExactMass>> = BTreeMap::new();
        for msg in inbox {
            for (&v, mass) in msg.iter() {
                shares.entry(v).or_default().push(mass);
            }
        }
        let one = BigRational::one();
        let masses = shares
            .into_iter()
            .map(|(v, ms)| {
                let join = (!state.masses.contains_key(&v)).then_some(&one);
                let y = ms.iter().map(|m| &m.0).sum();
                let z = ms.iter().map(|m| &m.1).chain(join).sum();
                (v, (y, z))
            })
            .collect();
        ExactFrequencyState { masses }
    }

    fn output(&self, state: &ExactFrequencyState) -> Self::Output {
        state
            .masses
            .iter()
            .filter(|(_, (_, z))| z.is_positive())
            .map(|(&v, (y, z))| (v, y / z))
            .collect()
    }
}

/// Round a raw frequency estimate to the grid `ℚ_N` (§5.4): each
/// estimate is snapped to the nearest rational with denominator at most
/// `bound`. With `bound >= n`, the snapped values are *exactly* the input
/// frequencies once the estimates are within `1/(2 bound²)` — turning
/// asymptotic convergence into finite-time exact computation
/// (Corollary 5.3).
///
/// Non-finite estimates (leader mode before weight arrives) round to 0,
/// and snapped values are clamped to `[0, 1]`: a frequency estimate that
/// drifted slightly outside the unit interval (f64 cancellation can
/// produce `-1e-12`, or `1 + 1e-12` for a value everyone holds) must not
/// escape the frequency grid `ℚ_N ⊂ [0, 1]` as a negative or
/// greater-than-one "frequency".
pub fn round_to_grid(estimate: &FrequencyEstimate, bound: usize) -> BTreeMap<u64, BigRational> {
    let n = BigInt::from(bound.max(1));
    let one = BigRational::one();
    estimate
        .iter()
        .map(|(&v, &x)| {
            let snapped = BigRational::from_f64(x)
                .map(|r| r.best_approximation(&n))
                .unwrap_or_else(BigRational::zero);
            let snapped = if snapped.is_negative() {
                BigRational::zero()
            } else if snapped > one {
                one.clone()
            } else {
                snapped
            };
            (v, snapped)
        })
        .collect()
}

/// Normalize a raw estimate into a frequency function (the `x̄` of §5.4:
/// divide by the sum so entries sum to one), for use when *no* bound on
/// the network size is known and only continuous-in-frequency functions
/// are computable (Corollary 5.5).
///
/// Returns an empty map if the estimate sums to zero or is not finite.
pub fn normalize_estimate(estimate: &FrequencyEstimate) -> BTreeMap<u64, f64> {
    let total: f64 = estimate.values().sum();
    if !total.is_finite() || total <= 0.0 {
        return BTreeMap::new();
    }
    estimate.iter().map(|(&v, &x)| (v, x / total)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::{generators, DynamicGraph, RandomDynamicGraph, StaticGraph};
    use kya_runtime::adversary::AsyncStarts;
    use kya_runtime::faults::FaultPlan;
    use kya_runtime::RunConfig;
    use kya_runtime::{Execution, Isotropic};

    #[test]
    fn averaging_on_static_ring() {
        let values = [1.0, 2.0, 3.0, 4.0, 10.0];
        let net = StaticGraph::new(generators::directed_ring(5));
        let mut exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
        exec.drive(&net, RunConfig::rounds(400));
        let avg = values.iter().sum::<f64>() / 5.0;
        for x in exec.outputs() {
            assert!((x - avg).abs() < 1e-9, "{x} != {avg}");
        }
    }

    #[test]
    fn in_star_underflow_surfaces_divergence_not_convergence() {
        use kya_graph::Digraph;
        use kya_runtime::metric::EuclideanMetric;
        // Directed in-star: every leaf sends to the center (plus the
        // mandatory self-loops). A leaf's outdegree is 2, so it halves
        // (y, z) every round; z underflows to exactly 0.0 near round
        // 1075 and the output goes inf/NaN. The center meanwhile holds
        // essentially all the mass and sits on the correct average, so
        // a NaN-dropping max_distance would let the dead leaves vanish
        // from the maximum and falsely report convergence (~round 1080).
        let n = 8;
        let mut g = Digraph::new(n);
        for leaf in 1..n {
            g.add_edge(leaf, 0);
        }
        let net = StaticGraph::new(g.with_self_loops());
        let values: Vec<f64> = (0..n).map(|v| v as f64).collect();
        let target = values.iter().sum::<f64>() / n as f64;
        let mut exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
        let report = exec.drive(
            &net,
            RunConfig::rounds(1400).measure(&EuclideanMetric, &target, 1e-9),
        );
        assert!(
            report.diverged_at.is_some(),
            "leaf z underflow must surface as divergence: {report}"
        );
        assert!(!report.converged(), "a diverged run never converges");
        assert!(
            report.rounds_run < 1400,
            "divergence ends the run early, got {} rounds",
            report.rounds_run
        );
    }

    #[test]
    fn quot_sum_with_weights() {
        // quot-sum = (1*2 + 3*4) / (2 + 4) — wait, quot-sum is
        // sum(v)/sum(w): (1 + 3) / (2 + 4) = 2/3.
        let net = StaticGraph::new(generators::complete(4));
        let inits = vec![
            PushSumState::new(1.0, 2.0),
            PushSumState::new(3.0, 4.0),
            PushSumState::new(0.0, 1.0),
            PushSumState::new(0.0, 1.0),
        ];
        let mut exec = Execution::new(Isotropic(PushSum), inits);
        exec.drive(&net, RunConfig::rounds(200));
        let target = 4.0 / 8.0;
        for x in exec.outputs() {
            assert!((x - target).abs() < 1e-10);
        }
    }

    #[test]
    fn exact_push_sum_conserves_mass() {
        let net = StaticGraph::new(generators::random_strongly_connected(6, 5, 2));
        let inits = PushSumExactState::averaging(&[3, 1, 4, 1, 5, 9]);
        let total_y: BigRational = inits.iter().map(|s| &s.y).sum();
        let total_z: BigRational = inits.iter().map(|s| &s.z).sum();
        let mut exec = Execution::new(Isotropic(PushSumExact), inits);
        exec.drive(&net, RunConfig::rounds(25));
        let y_now: BigRational = exec.states().iter().map(|s| &s.y).sum();
        let z_now: BigRational = exec.states().iter().map(|s| &s.z).sum();
        assert_eq!(y_now, total_y, "y mass is conserved exactly");
        assert_eq!(z_now, total_z, "z mass is conserved exactly");
    }

    /// Pins the exact referee's bytes: FNV-1a over the `Display` of every
    /// final `(y, z)` of exact Push-Sum on `star:64` and
    /// `directed_ring:128` after 200 rounds. The constant was computed
    /// with the allocating ℚ kernels that the word-sized fast paths
    /// replaced, so a kernel that changes a single exact state fails here.
    #[test]
    fn exact_pushsum_fingerprint() {
        const EXPECTED: u64 = 0xe012_7846_20ab_2795;
        let mut hash = kya_runtime::bits::Fnv1a::new();
        for g in [generators::star(64), generators::directed_ring(128)] {
            let values: Vec<i64> = (0..g.n() as i64).map(|i| i * 7919 % 1001 - 500).collect();
            let mut exec = Execution::new(
                Isotropic(PushSumExact),
                PushSumExactState::averaging(&values),
            );
            exec.drive(&StaticGraph::new(g), RunConfig::rounds(200));
            for st in exec.states() {
                hash.write(format!("{} {}\n", st.y, st.z).as_bytes());
            }
        }
        let hash = hash.digest();
        assert_eq!(hash, EXPECTED, "exact Push-Sum fingerprint {hash:#018x}");
    }

    /// The non-dyadic sibling of [`exact_pushsum_fingerprint`]: on
    /// `star:6`, `complete:5` and `random:9:12:3` some out-degree is not
    /// a power of two, so shares carry odd denominator factors and every
    /// inbox sum has to normalise. Pins exact Push-Sum on all three and
    /// exact frequency Push-Sum on `random:9:12:3`, hashed as in the
    /// dyadic pin; the constant predates the one-normalisation inbox sum.
    #[test]
    fn exact_pushsum_fingerprint_non_dyadic() {
        const EXPECTED: u64 = 0x8ae1_2390_9b01_f511;
        let mut hash = kya_runtime::bits::Fnv1a::new();
        let graphs = [
            generators::star(6),
            generators::complete(5),
            generators::random_strongly_connected(9, 12, 3),
        ];
        for g in &graphs {
            let values: Vec<i64> = (0..g.n() as i64).map(|i| i * 7919 % 1001 - 500).collect();
            let mut exec = Execution::new(
                Isotropic(PushSumExact),
                PushSumExactState::averaging(&values),
            );
            exec.drive(&StaticGraph::new(g.clone()), RunConfig::rounds(60));
            for st in exec.states() {
                hash.write(format!("{} {}\n", st.y, st.z).as_bytes());
            }
        }
        let values = [3u64, 1, 4, 1, 5, 9, 2, 6, 5];
        let mut exec = Execution::new(
            Isotropic(PushSumFrequencyExact),
            ExactFrequencyState::initial(&values),
        );
        exec.drive(&StaticGraph::new(graphs[2].clone()), RunConfig::rounds(30));
        for st in exec.states() {
            for (v, (y, z)) in &st.masses {
                hash.write(format!("{v}: {y} {z}\n").as_bytes());
            }
        }
        let hash = hash.digest();
        assert_eq!(
            hash, EXPECTED,
            "non-dyadic exact Push-Sum fingerprint {hash:#018x}"
        );
    }

    #[test]
    fn averaging_on_dynamic_graphs() {
        let net = RandomDynamicGraph::directed(8, 6, 77);
        let values: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
        exec.drive(&net, RunConfig::rounds(600));
        let avg = 3.5;
        for x in exec.outputs() {
            assert!((x - avg).abs() < 1e-8, "{x}");
        }
    }

    #[test]
    fn tolerates_asynchronous_starts() {
        let inner = StaticGraph::new(generators::bidirectional_ring(6));
        let net = AsyncStarts::new(inner, vec![1, 4, 2, 7, 3, 1]);
        let values = [6.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
        exec.drive(&net, RunConfig::rounds(800));
        for x in exec.outputs() {
            assert!((x - 1.0).abs() < 1e-8, "{x}");
        }
    }

    #[test]
    fn self_healing_conserves_mass_under_drops() {
        // 30% of non-self-loop messages are lost in flight for 60
        // rounds. Self-healing Push-Sum reabsorbs every bounced share,
        // so (Σy, Σz) is invariant at every single round, and after the
        // faults cease the outputs converge to the true average.
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let n = values.len();
        let net = StaticGraph::new(generators::bidirectional_ring(n));
        let plan = FaultPlan::new(42).drop_links(0.3).until(60);
        let mut exec = Execution::new(
            Isotropic(SelfHealingPushSum),
            PushSumState::averaging(&values),
        )
        .faults(plan);
        let y0: f64 = values.iter().sum();
        for _ in 0..500u64 {
            let g = net.graph(exec.round() + 1);
            exec.step(&g);
            let (y, z) = total_mass(exec.states());
            assert!(
                (y - y0).abs() < 1e-9 && (z - n as f64).abs() < 1e-9,
                "round {}: mass ({y}, {z}) drifted from ({y0}, {n})",
                exec.round()
            );
        }
        assert!(exec.events().dropped > 0, "the plan did inject drops");
        let avg = y0 / n as f64;
        for x in exec.outputs() {
            assert!((x - avg).abs() < 1e-9, "{x} != {avg}");
        }
    }

    #[test]
    fn self_healing_survives_crash_recover() {
        // An agent is down for 20 rounds: its mass is frozen on board
        // and every share addressed to it bounces. Total mass never
        // moves, and convergence completes after it comes back.
        let values = [10.0, 0.0, 0.0, 0.0, 0.0];
        let net = StaticGraph::new(generators::complete(5));
        let plan = FaultPlan::new(7).crash(0, 5..25);
        let mut exec = Execution::new(
            Isotropic(SelfHealingPushSum),
            PushSumState::averaging(&values),
        )
        .faults(plan);
        for _ in 0..400u64 {
            let g = net.graph(exec.round() + 1);
            exec.step(&g);
            let (y, z) = total_mass(exec.states());
            assert!((y - 10.0).abs() < 1e-9 && (z - 5.0).abs() < 1e-9);
        }
        assert!(exec.events().bounced_to_crashed > 0);
        for x in exec.outputs() {
            assert!((x - 2.0).abs() < 1e-9, "{x}");
        }
    }

    #[test]
    fn plain_push_sum_leaks_mass_under_drops() {
        // Negative control: identical fault pattern, but the bounced
        // shares are discarded (the default `reabsorb`). The conserved quantity decays
        // and never comes back: the deficit persists long after the
        // faults cease.
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let n = values.len();
        let net = StaticGraph::new(generators::bidirectional_ring(n));
        let plan = FaultPlan::new(42).drop_links(0.3).until(60);
        let mut exec =
            Execution::new(Isotropic(PushSum), PushSumState::averaging(&values)).faults(plan);
        exec.drive(&net, RunConfig::rounds(500));
        let (_, z) = total_mass(exec.states());
        let deficit = n as f64 - z;
        assert!(
            deficit > 0.5,
            "losing 30% of messages for 60 rounds must leave a visible
             weight deficit, got {deficit:.3}"
        );
    }

    #[test]
    fn frequency_estimates_converge() {
        // Values: three 1s and one 9 → frequencies 3/4 and 1/4.
        let values = [1u64, 1, 1, 9];
        let net = StaticGraph::new(generators::complete(4));
        let mut exec = Execution::new(
            Isotropic(PushSumFrequency::frequency()),
            FrequencyState::initial(&values),
        );
        exec.drive(&net, RunConfig::rounds(300));
        for est in exec.outputs() {
            assert!((est[&1] - 0.75).abs() < 1e-9);
            assert!((est[&9] - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn rounding_clamps_to_unit_interval() {
        // An estimate pushed slightly outside [0, 1] by f64 cancellation
        // must snap back onto the frequency grid, never to a negative or
        // greater-than-one rational.
        let mut est = FrequencyEstimate::new();
        est.insert(1, -1e-12); // tiny negative: snaps to 0, not -p/q
        est.insert(2, -0.05); // would snap to -1/12 on N = 12 unclamped
        est.insert(3, 1.0 + 1e-12); // tiny overshoot above 1
        est.insert(4, 1.06); // would snap to 13/12 on N = 12 unclamped
        est.insert(5, f64::INFINITY); // non-finite -> 0 (documented rule)
        est.insert(6, f64::NAN);
        let grid = round_to_grid(&est, 12);
        assert_eq!(grid[&1], BigRational::zero());
        assert_eq!(grid[&2], BigRational::zero());
        assert_eq!(grid[&3], BigRational::one());
        assert_eq!(grid[&4], BigRational::one());
        assert_eq!(grid[&5], BigRational::zero());
        assert_eq!(grid[&6], BigRational::zero());
        // In-range estimates are untouched by the clamp.
        let mut ok = FrequencyEstimate::new();
        ok.insert(7, 0.3333333333);
        assert_eq!(round_to_grid(&ok, 3)[&7], BigRational::from_i64(1, 3));
    }

    #[test]
    fn rounding_gives_exact_frequencies() {
        let values = [5u64, 5, 7];
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(
            Isotropic(PushSumFrequency::frequency()),
            FrequencyState::initial(&values),
        );
        exec.drive(&net, RunConfig::rounds(150));
        // Bound N = 4 >= n = 3.
        for est in exec.outputs() {
            let grid = round_to_grid(&est, 4);
            assert_eq!(grid[&5], BigRational::from_i64(2, 3));
            assert_eq!(grid[&7], BigRational::from_i64(1, 3));
        }
    }

    #[test]
    fn leader_mode_recovers_multiplicities() {
        // 5 agents, one leader; values: two 3s, three 8s.
        let values = [3u64, 8, 3, 8, 8];
        let leaders = [true, false, false, false, false];
        let net = StaticGraph::new(generators::complete(5));
        let mut exec = Execution::new(
            Isotropic(PushSumFrequency::with_leaders(1)),
            FrequencyState::initial_with_leaders(&values, &leaders),
        );
        exec.drive(&net, RunConfig::rounds(400));
        for est in exec.outputs() {
            assert!((est[&3] - 2.0).abs() < 1e-8, "mult of 3: {}", est[&3]);
            assert!((est[&8] - 3.0).abs() < 1e-8, "mult of 8: {}", est[&8]);
        }
    }

    #[test]
    fn normalized_estimates_sum_to_one() {
        let values = [2u64, 2, 4, 6];
        let net = StaticGraph::new(generators::directed_torus(2, 2));
        let mut exec = Execution::new(
            Isotropic(PushSumFrequency::frequency()),
            FrequencyState::initial(&values),
        );
        exec.drive(&net, RunConfig::rounds(120));
        for est in exec.outputs() {
            let norm = normalize_estimate(&est);
            let total: f64 = norm.values().sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!((norm[&2] - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_weight_rejected() {
        let _ = PushSumState::new(1.0, 0.0);
    }

    #[test]
    fn exact_frequency_masses_are_invariant() {
        // Per-value y mass equals the multiplicity at every round, and z
        // mass reaches exactly n once everyone has joined the instance.
        let values = [4u64, 9, 4, 4];
        let n = values.len();
        let net = StaticGraph::new(generators::directed_ring(n));
        let mut exec = Execution::new(
            Isotropic(PushSumFrequencyExact),
            ExactFrequencyState::initial(&values),
        );
        for round in 1..=12u64 {
            let g = net.graph(round);
            exec.step(&g);
            for omega in [4u64, 9] {
                let y_total: BigRational = exec
                    .states()
                    .iter()
                    .filter_map(|s| s.masses.get(&omega).map(|(y, _)| y))
                    .sum();
                let mult = values.iter().filter(|&&v| v == omega).count() as i64;
                assert_eq!(
                    y_total,
                    BigRational::from_integer(mult),
                    "round {round} value {omega}"
                );
            }
            if round >= n as u64 {
                // Everyone joined: z mass is exactly n per value.
                for omega in [4u64, 9] {
                    let z_total: BigRational = exec
                        .states()
                        .iter()
                        .filter_map(|s| s.masses.get(&omega).map(|(_, z)| z))
                        .sum();
                    assert_eq!(z_total, BigRational::from_integer(n as i64));
                }
            }
        }
    }

    #[test]
    fn exact_and_f64_frequency_agree() {
        let values = [1u64, 1, 7];
        let net = StaticGraph::new(generators::complete(3));
        let mut exact = Execution::new(
            Isotropic(PushSumFrequencyExact),
            ExactFrequencyState::initial(&values),
        );
        let mut float = Execution::new(
            Isotropic(PushSumFrequency::frequency()),
            FrequencyState::initial(&values),
        );
        exact.drive(&net, RunConfig::rounds(20));
        float.drive(&net, RunConfig::rounds(20));
        let e = exact.outputs()[0].clone();
        let f = float.outputs()[0].clone();
        for (v, x) in &f {
            let ex = e[v].to_f64();
            assert!((ex - x).abs() < 1e-9, "value {v}: {ex} vs {x}");
        }
    }

    #[test]
    fn convergence_rate_tracks_theorem_bound() {
        // Theorem 5.2: within eps after O(n^2 D log(1/eps)) rounds. We
        // check the much weaker empirical claim that halving eps adds at
        // most ~linearly many rounds (geometric convergence).
        let n = 6;
        let net = StaticGraph::new(generators::directed_ring(n));
        let values: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
        let avg = values.iter().sum::<f64>() / n as f64;
        let mut exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
        let mut rounds_to = Vec::new();
        let mut eps = 1e-2;
        for _ in 0..4 {
            while exec.outputs().iter().any(|x| (x - avg).abs() > eps) {
                let g = net.graph(exec.round() + 1);
                exec.step(&g);
                assert!(exec.round() < 10_000, "no convergence");
            }
            rounds_to.push(exec.round());
            eps /= 100.0;
        }
        // Each 100x tightening costs a bounded number of extra rounds.
        let increments: Vec<u64> = rounds_to.windows(2).map(|w| w[1] - w[0]).collect();
        for w in increments.windows(2) {
            assert!(w[1] <= w[0] + 50, "super-geometric slowdown: {rounds_to:?}");
        }
    }
}

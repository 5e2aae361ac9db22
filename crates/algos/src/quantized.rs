//! Quantized averaging under a b-bit bandwidth cap.
//!
//! The paper's algorithms assume unbounded-size messages; this module
//! asks what survives a `b`-bit pipe (following Blanc–Di Luna–
//! Viglietta's one-bit anonymous dynamic networks and Hendrickx–
//! Olshevsky–Tsitsiklis's quantized function computation). The
//! discipline everywhere is **integer token arithmetic in f64 lanes**:
//!
//! - mass is held as whole tokens on the grid `ℚ_{2^b}` — an initial
//!   value `v` becomes `round(v · 2^b)` tokens;
//! - every token count stays a nonnegative integer far below `2^53`,
//!   so its f64 lane representation is *exact* and token sums are
//!   order-independent — no floating-point rounding anywhere in the
//!   dynamics (both engines run the one [`FlatAlgorithm`] impl, so
//!   they agree bitwise in any case);
//! - every payload a [`QuantizedPushSum`] agent emits is a codeword of
//!   the [`MessageCodec`], i.e. fits `b` bits *structurally* — the
//!   executor meters the cap ([`RunConfig::bandwidth`]) but never
//!   truncates.
//!
//! Exact conservation comes from two different mechanisms:
//!
//! - [`QuantizedPushSum`] keeps a **residual carry**: an agent with `y`
//!   tokens and outdegree `d` ships `q = min(⌊y/d⌋, 2^b - 1)` tokens
//!   per port and keeps `r = y - d·q` at home, so
//!   `Σ_i y_i` is invariant round by round. Recomputing `q` requires
//!   the round's outdegree at transition time, which is why it
//!   overrides
//!   [`transition_with_outdegree`](FlatAlgorithm::transition_with_outdegree)
//!   (and why that hook exists).
//! - [`QuantizedMetropolis`] uses **antisymmetric integer transfers**:
//!   both endpoints of a bidirectional link compute the transfer
//!   `⌊(x̂_j - x̂_i) / (1 + max(d_i, d_j))⌋` (i64 division, truncating
//!   toward zero) from the *same* exchanged codewords, so
//!   `T_{ji} = -T_{ij}` exactly and the token sum is invariant on any
//!   symmetric graph — no outdegree hook needed.
//!
//! [`MessageCodec`]: kya_runtime::MessageCodec
//! [`RunConfig::bandwidth`]: kya_runtime::RunConfig::bandwidth

use crate::push_sum::PushSumState;
use kya_runtime::{FlatAlgorithm, Inbox, MessageCodec};

/// Reinterpret a token lane as a count: the dynamics keep every lane a
/// nonnegative integer below 2^53, so the cast is exact.
fn tokens(lane: f64) -> u64 {
    debug_assert!(
        lane >= 0.0 && lane.fract() == 0.0 && lane <= (1u64 << 53) as f64,
        "token lane {lane} is not a small nonnegative integer"
    );
    lane as u64
}

/// Push-Sum over `b`-bit token shares with residual carry.
///
/// State is a [`PushSumState`] whose `y`/`z` hold *token counts*:
/// `initial` turns a value `v` into `round(v · 2^b)` numerator tokens
/// and `2^b` denominator tokens; the output is the token ratio `y/z`.
/// Each round an agent with outdegree `d` broadcasts
/// `(min(⌊y/d⌋, 2^b - 1), min(⌊z/d⌋, 2^b - 1))` — codewords by
/// construction — and keeps the residuals, so the global token sums are
/// exactly invariant (and, divided by `2^b`, mass is exactly conserved
/// in ℚ).
///
/// `z` starts at `2^b ≥ 2` and can never reach 0: an agent either ships
/// nothing (`⌊z/d⌋ = 0`, keeps everything) or keeps the residual and
/// receives its own self-loop share back, so the output never divides
/// by zero.
///
/// Under message faults it is self-healing (it overrides
/// [`FlatAlgorithm::reabsorb`]): bounced shares are integer token
/// parcels and reabsorbing them restores the sum exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuantizedPushSum {
    codec: MessageCodec,
}

impl QuantizedPushSum {
    /// Quantized Push-Sum on the grid `ℚ_{2^bits}`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside the [`MessageCodec`] range.
    pub fn new(bits: u32) -> QuantizedPushSum {
        QuantizedPushSum {
            codec: MessageCodec::new(bits),
        }
    }

    /// The codec enforcing this instance's cap.
    pub fn codec(&self) -> MessageCodec {
        self.codec
    }

    /// Tokens per unit of mass, `2^bits` (exact as f64).
    pub fn scale(&self) -> f64 {
        self.codec.levels() as f64
    }

    /// Token states for the given nonnegative finite initial values:
    /// `y = round(v · 2^bits)`, `z = 2^bits`.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite value: token counts are
    /// unsigned.
    pub fn initial(&self, values: &[f64]) -> Vec<PushSumState> {
        values
            .iter()
            .map(|&v| {
                assert!(
                    v.is_finite() && v >= 0.0,
                    "quantized push-sum values must be finite and >= 0, got {v}"
                );
                PushSumState {
                    y: (v * self.scale()).round(),
                    z: self.scale(),
                }
            })
            .collect()
    }

    /// The per-port token shares of state lanes `[y, z]` at outdegree
    /// `d` — the single deterministic function both `message` and the
    /// residual recomputation in `transition_with_outdegree` use.
    fn shares(&self, state: &[f64], d: usize) -> (u64, u64) {
        let d = d.max(1) as u64;
        (
            self.codec.encode(tokens(state[0]) / d),
            self.codec.encode(tokens(state[1]) / d),
        )
    }

    /// Total `(y, z)` token counts over all agents — the exactly
    /// conserved quantity (integer arithmetic, no rounding).
    pub fn total_tokens(states: &[PushSumState]) -> (u64, u64) {
        states
            .iter()
            .fold((0, 0), |(y, z), s| (y + tokens(s.y), z + tokens(s.z)))
    }
}

/// State lanes `[y, z]` ([`PushSumState`] on the boxed executor),
/// message lanes `[qy, qz]`; integer token arithmetic throughout.
impl FlatAlgorithm for QuantizedPushSum {
    type State = PushSumState;
    type Msg = (f64, f64);

    #[inline]
    fn message(&self, state: &[f64], outdegree: usize, msg: &mut [f64]) {
        let (qy, qz) = self.shares(state, outdegree);
        msg[0] = qy as f64;
        msg[1] = qz as f64;
    }

    fn transition(&self, _state: &[f64], _inbox: impl Inbox, _next: &mut [f64]) {
        unreachable!(
            "QuantizedPushSum's residual carry needs the round's outdegree; \
             executors must call transition_with_outdegree"
        )
    }

    #[inline]
    fn transition_with_outdegree(
        &self,
        state: &[f64],
        outdegree: usize,
        inbox: impl Inbox,
        next: &mut [f64],
    ) {
        let (qy, qz) = self.shares(state, outdegree);
        let d = outdegree.max(1) as u64;
        // Residual carry: what the d port shares did not take stays home.
        let mut y = tokens(state[0]) - d * qy;
        let mut z = tokens(state[1]) - d * qz;
        for m in inbox {
            y += tokens(m[0]);
            z += tokens(m[1]);
        }
        next[0] = y as f64;
        next[1] = z as f64;
    }

    fn reabsorb(&self, state: &mut [f64], lost: impl Inbox) {
        let mut y = tokens(state[0]);
        let mut z = tokens(state[1]);
        for m in lost {
            y += tokens(m[0]);
            z += tokens(m[1]);
        }
        state[0] = y as f64;
        state[1] = z as f64;
    }

    #[inline]
    fn output(&self, state: &[f64]) -> f64 {
        state[0] / state[1]
    }
}

/// Metropolis averaging over `b`-bit quantized token values on
/// symmetric networks.
///
/// State is a single token-count lane (`x = round(v · 2^bits)` tokens;
/// output `x / 2^bits`). The message carries the codeword
/// `w = min(x >> shift, 2^b - 1)` — the top `b`-bit window of the token
/// count, where `shift` is fixed at construction from the value bound —
/// plus the sender's neighbor count on a structural metadata lane (the
/// cap governs payload lanes; see DESIGN.md decision 12). Both
/// endpoints reconstruct `x̂ = w << shift` and apply the integer
/// transfer `(x̂_j - x̂_i) / (1 + max(d_i, d_j))` with i64 truncating
/// division; truncation is an odd function, so the two transfers cancel
/// exactly and `Σ x` is invariant on any bidirectional graph. Token
/// counts stay nonnegative: total outflow of agent `i` is less than
/// `x̂_i ≤ x_i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuantizedMetropolis {
    codec: MessageCodec,
    shift: u32,
}

impl QuantizedMetropolis {
    /// Quantized Metropolis with `bits`-bit value codewords, for values
    /// in `[0, value_bound]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside the [`MessageCodec`] range or
    /// `value_bound` is not a positive finite number.
    pub fn new(bits: u32, value_bound: f64) -> QuantizedMetropolis {
        assert!(
            value_bound.is_finite() && value_bound > 0.0,
            "value bound must be positive and finite, got {value_bound}"
        );
        let codec = MessageCodec::new(bits);
        let max_tokens = (value_bound * codec.levels() as f64).round() as u64;
        let mut shift = 0;
        while (max_tokens >> shift) > codec.max_codeword() {
            shift += 1;
        }
        QuantizedMetropolis { codec, shift }
    }

    /// The codec enforcing this instance's cap.
    pub fn codec(&self) -> MessageCodec {
        self.codec
    }

    /// Low token bits dropped before encoding (window granularity).
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// The value-unit grid step the cap can express, `2^shift / 2^bits`
    /// — transfers move in multiples of this, so it bounds the attainable
    /// consensus accuracy.
    pub fn resolution(&self) -> f64 {
        (1u64 << self.shift) as f64 / self.scale()
    }

    /// Tokens per unit of mass, `2^bits` (exact as f64).
    pub fn scale(&self) -> f64 {
        self.codec.levels() as f64
    }

    /// Token states for the given values in `[0, value_bound]`.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite value.
    pub fn initial(&self, values: &[f64]) -> Vec<f64> {
        values
            .iter()
            .map(|&v| {
                assert!(
                    v.is_finite() && v >= 0.0,
                    "quantized metropolis values must be finite and >= 0, got {v}"
                );
                (v * self.scale()).round()
            })
            .collect()
    }

    /// Total token count over all agents — the exactly conserved
    /// quantity on symmetric graphs.
    pub fn total_tokens(states: &[f64]) -> u64 {
        states.iter().map(|&x| tokens(x)).sum()
    }

    /// The reconstructed `b`-bit window value `x̂` both endpoints agree
    /// on.
    fn quantize(&self, x: u64) -> i64 {
        self.codec
            .decode_shifted(self.codec.encode_shifted(x, self.shift), self.shift) as i64
    }

    /// Fold one round: `x += Σ_j (x̂_j - x̂_i) / (1 + max(d_i, d_j))` in
    /// truncating integer arithmetic (the self term vanishes).
    fn fold(&self, x: u64, own_degree: u64, pairs: impl Iterator<Item = (u64, u64)>) -> f64 {
        let own_hat = self.quantize(x);
        let mut acc = x as i64;
        for (w, degree) in pairs {
            let their_hat = (self.codec.decode(w) << self.shift) as i64;
            let dmax = degree.max(own_degree) as i64;
            acc += (their_hat - own_hat) / (1 + dmax);
        }
        debug_assert!(acc >= 0, "token count went negative: {acc}");
        acc as f64
    }
}

/// One state lane `[x]`, message lanes `[w, degree]`; integer token
/// arithmetic throughout.
impl FlatAlgorithm for QuantizedMetropolis {
    type State = f64;
    type Msg = (f64, f64);

    #[inline]
    fn message(&self, state: &[f64], outdegree: usize, msg: &mut [f64]) {
        msg[0] = self.codec.encode_shifted(tokens(state[0]), self.shift) as f64;
        msg[1] = outdegree.saturating_sub(1) as f64;
    }

    #[inline]
    fn transition(&self, state: &[f64], inbox: impl Inbox, next: &mut [f64]) {
        // Own degree = inbox size minus the self-loop, as in Metropolis.
        let own = inbox.len().saturating_sub(1) as u64;
        next[0] = self.fold(
            tokens(state[0]),
            own,
            inbox.map(|m| (tokens(m[0]), tokens(m[1]))),
        );
    }

    #[inline]
    fn output(&self, state: &[f64]) -> f64 {
        state[0] / self.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::{generators, Digraph, StaticGraph};
    use kya_runtime::faults::FaultPlan;
    use kya_runtime::{
        BandwidthCap, ByteLedger, Execution, Isotropic, IsotropicAlgorithm, RunConfig,
    };

    fn biring(n: usize) -> Digraph {
        let mut g = Digraph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n);
            g.add_edge((v + 1) % n, v);
        }
        g.with_self_loops()
    }

    #[test]
    fn pushsum_messages_fit_the_cap() {
        for bits in [1, 2, 4, 8] {
            let algo = QuantizedPushSum::new(bits);
            let max = algo.codec().max_codeword() as f64;
            for s in algo.initial(&[0.0, 0.4, 1.0, 7.5]) {
                for d in 1..6 {
                    let (qy, qz) = IsotropicAlgorithm::message(&algo, &s, d);
                    assert!(qy <= max && qz <= max, "b={bits} d={d}: ({qy}, {qz})");
                }
            }
        }
    }

    #[test]
    fn pushsum_conserves_tokens_exactly() {
        let algo = QuantizedPushSum::new(4);
        let g = generators::random_strongly_connected(7, 5, 11).with_self_loops();
        let states = algo.initial(&[0.1, 0.9, 0.5, 0.3, 0.7, 0.2, 0.8]);
        let before = QuantizedPushSum::total_tokens(&states);
        let mut exec = Execution::new(Isotropic(algo), states);
        exec.drive(&StaticGraph::new(g), RunConfig::rounds(50));
        assert_eq!(QuantizedPushSum::total_tokens(exec.states()), before);
    }

    #[test]
    fn pushsum_converges_at_eight_bits() {
        let algo = QuantizedPushSum::new(8);
        let values = [0.1, 0.9, 0.5, 0.3];
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        let mut exec = Execution::new(Isotropic(algo), algo.initial(&values));
        exec.drive(&StaticGraph::new(biring(4)), RunConfig::rounds(200));
        for o in exec.outputs() {
            assert!(
                (o - avg).abs() < 0.02,
                "output {o} vs average {avg} at 8 bits"
            );
        }
    }

    #[test]
    fn pushsum_z_stays_positive() {
        let algo = QuantizedPushSum::new(1);
        let mut exec = Execution::new(Isotropic(algo), algo.initial(&[0.0, 1.0, 0.5]));
        let g = generators::random_strongly_connected(3, 3, 5).with_self_loops();
        exec.drive(&StaticGraph::new(g), RunConfig::rounds(80));
        for s in exec.states() {
            assert!(s.z >= 1.0, "z lane drained to {}", s.z);
        }
    }

    #[test]
    fn pushsum_reabsorbs_bounced_tokens_exactly() {
        let algo = QuantizedPushSum::new(4);
        let states = algo.initial(&[0.2, 0.8, 0.5, 0.4, 0.6]);
        let before = QuantizedPushSum::total_tokens(&states);
        let g = generators::random_strongly_connected(5, 6, 3).with_self_loops();
        let plan = FaultPlan::new(0xfeed).drop_links(0.3).until(60);
        let mut exec = Execution::new(Isotropic(algo), states).faults(plan);
        let report = exec.drive(&StaticGraph::new(g), RunConfig::rounds(60));
        assert!(report.events.dropped > 0, "plan injected no drops");
        assert_eq!(QuantizedPushSum::total_tokens(exec.states()), before);
    }

    #[test]
    fn pushsum_conserves_tokens_under_churn_and_faults() {
        use kya_runtime::churn::{ChurnMasked, ChurnPlan};

        let algo = QuantizedPushSum::new(4);
        let states = algo.initial(&[0.2, 0.8, 0.5, 0.4, 0.6, 0.9]);
        let before = QuantizedPushSum::total_tokens(&states);
        // Agent 2 leaves and rejoins, agent 4 departs for good; the
        // membership mask removes a parked agent's links from the round
        // graph, so no share is ever addressed to an absent agent, and
        // the identity reinjection keeps the parked tokens — total mass
        // must not move by a single token, even with 30% link drops
        // bouncing shares back through reabsorb.
        let membership = ChurnPlan::new(7)
            .leave(2, 10..25)
            .depart(4, 30)
            .membership(6);
        let net = ChurnMasked::new(StaticGraph::new(biring(6)), membership.clone());
        let plan = FaultPlan::new(0xbeef).drop_links(0.3).until(40);
        let keep = |_: usize, parked: &PushSumState| *parked;
        let mut exec = Execution::new(Isotropic(algo), states).faults(plan);
        let report = exec.drive(&net, RunConfig::rounds(50).membership(&membership, &keep));
        assert!(report.events.dropped > 0, "plan injected no drops");
        assert_eq!(QuantizedPushSum::total_tokens(exec.states()), before);
    }

    #[test]
    fn metropolis_conserves_tokens_exactly() {
        for bits in [1, 2, 4, 8] {
            let algo = QuantizedMetropolis::new(bits, 1.0);
            let states = algo.initial(&[0.1, 0.9, 0.5, 0.3, 0.7, 0.2]);
            let before = QuantizedMetropolis::total_tokens(&states);
            let mut exec = Execution::new(Isotropic(algo), states);
            exec.drive(&StaticGraph::new(biring(6)), RunConfig::rounds(60));
            assert_eq!(
                QuantizedMetropolis::total_tokens(exec.states()),
                before,
                "b={bits}"
            );
            for &x in exec.states() {
                assert!(x >= 0.0, "b={bits}: token count went negative: {x}");
            }
        }
    }

    #[test]
    fn metropolis_messages_fit_the_cap() {
        for bits in [1, 2, 4, 8] {
            let algo = QuantizedMetropolis::new(bits, 1.0);
            let max = algo.codec().max_codeword() as f64;
            for x in algo.initial(&[0.0, 0.3, 1.0]) {
                let (w, _) = IsotropicAlgorithm::message(&algo, &x, 4);
                assert!(w <= max, "b={bits}: codeword {w} exceeds {max}");
            }
        }
    }

    #[test]
    fn metropolis_converges_at_eight_bits() {
        let algo = QuantizedMetropolis::new(8, 1.0);
        let values = [0.1, 0.9, 0.5, 0.3, 0.7, 0.2];
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        let mut exec = Execution::new(Isotropic(algo), algo.initial(&values));
        exec.drive(&StaticGraph::new(biring(6)), RunConfig::rounds(300));
        for o in exec.outputs() {
            // Quantized consensus stalls within one window step of the
            // average; 8 bits with shift 1 gives steps of 2/256.
            assert!((o - avg).abs() < 0.05, "output {o} vs average {avg}");
        }
    }

    #[test]
    fn ledger_meters_both_capped_and_unlimited_runs() {
        let g = biring(5);
        let edges = g.edge_count() as u64;
        let algo = QuantizedPushSum::new(2);
        let ledger = ByteLedger::new();
        let mut exec = Execution::new(Isotropic(algo), algo.initial(&[0.1, 0.2, 0.3, 0.4, 0.5]));
        exec.drive(
            &StaticGraph::new(g.clone()),
            RunConfig::rounds(10).bandwidth(BandwidthCap::Bits(2), &ledger),
        );
        assert_eq!(ledger.total_bits(), 10 * edges * 2);
        assert_eq!(ledger.rounds(), 10);

        let ledger = ByteLedger::new();
        let states = [1.0, 2.0, 3.0, 4.0, 5.0]
            .iter()
            .map(|&v| PushSumState::new(v, 1.0))
            .collect();
        let mut exec = Execution::new(Isotropic(crate::push_sum::PushSum), states);
        exec.drive(
            &StaticGraph::new(g),
            RunConfig::rounds(10).bandwidth(BandwidthCap::Unlimited, &ledger),
        );
        assert_eq!(ledger.total_bits(), 10 * edges * 64);
    }

    #[test]
    fn one_bit_ring_starves() {
        // The canonical survival failure: on a bidirectional ring every
        // agent has outdegree 3 (self-loop included) but only 2^1 = 2
        // denominator tokens, so ⌊2/3⌋ = 0 — no tokens ever move and
        // the outputs stay at their initial ratios.
        let algo = QuantizedPushSum::new(1);
        let values = [0.0, 1.0, 0.0, 1.0];
        let states = algo.initial(&values);
        let mut exec = Execution::new(Isotropic(algo), states.clone());
        exec.drive(&StaticGraph::new(biring(4)), RunConfig::rounds(40));
        assert_eq!(exec.states(), &states[..], "b=1 tokens must be frozen");
    }
}

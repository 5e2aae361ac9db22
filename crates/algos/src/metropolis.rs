//! Average consensus on symmetric dynamic networks (§5, first method).
//!
//! On bidirectional networks, averaging can use *doubly* stochastic
//! updates, which preserve the average of the agents' values at every
//! round:
//!
//! - [`Metropolis`]: weights `1 / (1 + max(d_i, d_j))` — the classical
//!   Metropolis–Hastings choice, requiring outdegree awareness (the
//!   sender attaches its degree to the message; its own degree is the
//!   inbox size minus the self-loop);
//! - [`LazyMetropolis`]: weights `1 / (2 max(d_i, d_j))` (Olshevsky),
//!   same requirements, better worst-case rate on paths;
//! - [`FixedWeight`]: weights `1/N` for a known bound `N >= n` — this
//!   needs *no* outdegree awareness at all (the paper's \[24\] thesis
//!   variant): it is a pure broadcast algorithm on symmetric networks,
//!   witnessing the "bound known + symmetric" cell of Table 2.
//!
//! All three tolerate asynchronous starts and use no persistent memory.
//! None is self-stabilizing. Convergence on any symmetric dynamic graph
//! with finite dynamic diameter follows from Moreau's theorem, quadratic
//! rates from \[10\].

use kya_runtime::{BroadcastAlgorithm, FlatAlgorithm, Inbox, Lanes};

/// Metropolis averaging: `x_i += Σ_j (x_j - x_i) / (1 + max(d_i, d_j))`
/// over distinct neighbors `j` (the self term vanishes, so the inbox can
/// be processed uniformly).
///
/// Degrees count *neighbors* (not the self-loop). Intended for simple
/// bidirectional graphs; parallel edges would double-count neighbors.
#[derive(Clone, Copy, Debug, Default)]
pub struct Metropolis;

/// Message of the Metropolis family: the sender's value and degree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeTagged {
    /// Sender's current output value.
    pub x: f64,
    /// Sender's neighbor count this round (outdegree minus self-loop).
    pub degree: usize,
}

/// Lanes `[x, degree]`: every degree is below 2^53 (the flat executor
/// checks this at construction), so the f64 lane holds it exactly.
impl Lanes for DegreeTagged {
    const LANES: usize = 2;

    #[inline]
    fn load(lanes: &[f64]) -> DegreeTagged {
        let (x, degree) = <(f64, f64)>::load(lanes);
        DegreeTagged {
            x,
            degree: degree as usize,
        }
    }

    #[inline]
    fn store(&self, lanes: &mut [f64]) {
        (self.x, self.degree as f64).store(lanes);
    }
}

/// `x + Σ_j w(max(d_i, d_j)) · (x_j - x)` over the inbox's
/// `[x_j, d_j]` lanes. Own degree `d_i` = inbox size minus the
/// self-loop message; the own message contributes `(x - x) = 0`, so it
/// needs no special-casing. Degrees are exact small integers, so the
/// f64 `max` is the integer `max`.
#[inline]
fn metropolis_step(x: f64, inbox: impl Inbox, weight: impl Fn(f64) -> f64) -> f64 {
    let own = inbox.len().saturating_sub(1) as f64;
    let mut acc = x;
    for m in inbox {
        acc += weight(m[1].max(own)) * (m[0] - x);
    }
    acc
}

/// One state lane `[x]`, message lanes `[x, degree]` ([`DegreeTagged`]
/// on the boxed executor).
impl FlatAlgorithm for Metropolis {
    type State = f64;
    type Msg = DegreeTagged;

    #[inline]
    fn message(&self, state: &[f64], outdegree: usize, msg: &mut [f64]) {
        msg[0] = state[0];
        msg[1] = outdegree.saturating_sub(1) as f64;
    }

    #[inline]
    fn transition(&self, state: &[f64], inbox: impl Inbox, next: &mut [f64]) {
        next[0] = metropolis_step(state[0], inbox, |dmax| 1.0 / (1.0 + dmax));
    }

    #[inline]
    fn output(&self, state: &[f64]) -> f64 {
        state[0]
    }
}

/// Lazy Metropolis averaging (Olshevsky): weights `1 / (2 max(d_i, d_j))`.
#[derive(Clone, Copy, Debug, Default)]
pub struct LazyMetropolis;

/// The lanes and message of [`Metropolis`], with the lazy weights.
impl FlatAlgorithm for LazyMetropolis {
    type State = f64;
    type Msg = DegreeTagged;

    #[inline]
    fn message(&self, state: &[f64], outdegree: usize, msg: &mut [f64]) {
        FlatAlgorithm::message(&Metropolis, state, outdegree, msg);
    }

    #[inline]
    fn transition(&self, state: &[f64], inbox: impl Inbox, next: &mut [f64]) {
        next[0] = metropolis_step(state[0], inbox, |dmax| 1.0 / (2.0 * dmax.max(0.5)));
    }

    #[inline]
    fn output(&self, state: &[f64]) -> f64 {
        state[0]
    }
}

/// Fixed-weight averaging with a known bound `N >= n`:
/// `x_i += Σ_j (x_j - x_i) / N`.
///
/// The update matrix is symmetric and doubly stochastic whenever every
/// degree is below `N`, which `N >= n` guarantees — so the average is
/// preserved and consensus follows on any symmetric dynamic graph with
/// finite dynamic diameter. Crucially, this is a **pure broadcast**
/// algorithm: the sender needs no knowledge of its audience; only the
/// global bound `N` is required.
#[derive(Clone, Copy, Debug)]
pub struct FixedWeight {
    /// The known bound on the network size.
    pub bound: usize,
}

impl FixedWeight {
    /// Averaging with bound `n_bound >= n >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n_bound == 0`.
    pub fn new(n_bound: usize) -> FixedWeight {
        assert!(n_bound >= 1, "bound must be positive");
        FixedWeight { bound: n_bound }
    }
}

impl BroadcastAlgorithm for FixedWeight {
    type State = f64;
    type Msg = f64;
    type Output = f64;

    fn message(&self, state: &f64) -> f64 {
        *state
    }

    fn transition(&self, state: &f64, inbox: &[f64]) -> f64 {
        let w = 1.0 / self.bound as f64;
        let mut acc = *state;
        for &xj in inbox {
            acc += w * (xj - state);
        }
        acc
    }

    fn output(&self, state: &f64) -> f64 {
        *state
    }
}

/// Metropolis on **static symmetric networks under pure broadcast**:
/// §2.2 observes that in a static bidirectional network, an agent learns
/// its outdegree at the end of round one (it equals the number of
/// messages received minus the self-loop). This algorithm makes that
/// observation executable: a one-round learning phase, then Metropolis
/// proper, with no outdegree awareness in the sending function at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticSymmetricMetropolis;

/// State of [`StaticSymmetricMetropolis`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LearnedState {
    /// Round 1 has not completed: the degree is unknown.
    Learning {
        /// The value to average.
        x: f64,
    },
    /// Degree learned; running Metropolis.
    Running {
        /// The current estimate.
        x: f64,
        /// The learned neighbor count (constant in a static network).
        degree: usize,
    },
}

impl LearnedState {
    /// Initial states from values.
    pub fn initial(values: &[f64]) -> Vec<LearnedState> {
        values
            .iter()
            .map(|&x| LearnedState::Learning { x })
            .collect()
    }

    fn x(&self) -> f64 {
        match *self {
            LearnedState::Learning { x } | LearnedState::Running { x, .. } => x,
        }
    }
}

/// Broadcast message: the value, plus the sender's degree once learned
/// (`None` during round one — receivers skip the update that round).
pub type LearnedMsg = (f64, Option<usize>);

impl BroadcastAlgorithm for StaticSymmetricMetropolis {
    type State = LearnedState;
    type Msg = LearnedMsg;
    type Output = f64;

    fn message(&self, state: &LearnedState) -> LearnedMsg {
        match *state {
            LearnedState::Learning { x } => (x, None),
            LearnedState::Running { x, degree } => (x, Some(degree)),
        }
    }

    fn transition(&self, state: &LearnedState, inbox: &[LearnedMsg]) -> LearnedState {
        // Static symmetric network: #neighbors = inbox - self-loop.
        let degree = inbox.len().saturating_sub(1);
        let x = state.x();
        // Until every neighbor has announced a degree, hold still (this
        // happens exactly during round one).
        if inbox.iter().any(|(_, d)| d.is_none()) {
            return LearnedState::Running { x, degree };
        }
        let mut acc = x;
        for &(xj, dj) in inbox {
            let dmax = dj.expect("checked above").max(degree) as f64;
            acc += (xj - x) / (1.0 + dmax);
        }
        LearnedState::Running { x: acc, degree }
    }

    fn output(&self, state: &LearnedState) -> f64 {
        state.x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::{generators, DynamicGraph, RandomDynamicGraph, StaticGraph};
    use kya_runtime::adversary::AsyncStarts;
    use kya_runtime::{Broadcast, Execution, Isotropic, RunConfig};

    fn assert_converges_to_average<A>(
        algo: A,
        net: &dyn kya_graph::DynamicGraph,
        values: &[f64],
        rounds: u64,
        tol: f64,
    ) where
        A: kya_runtime::Algorithm<State = f64, Output = f64> + Sync,
        A::Msg: Send + Sync,
    {
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        let mut exec = Execution::new(algo, values.to_vec());
        exec.drive(net, RunConfig::rounds(rounds));
        for x in exec.outputs() {
            assert!((x - avg).abs() < tol, "{x} != {avg}");
        }
        // Average preservation (doubly stochastic updates).
        let mean_now: f64 = exec.outputs().iter().sum::<f64>() / values.len() as f64;
        assert!((mean_now - avg).abs() < 1e-9);
    }

    #[test]
    fn metropolis_static_ring() {
        let values = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let net = StaticGraph::new(generators::bidirectional_ring(6));
        assert_converges_to_average(Isotropic(Metropolis), &net, &values, 500, 1e-8);
    }

    #[test]
    fn lazy_metropolis_static_path() {
        let values = [10.0, 0.0, 0.0, 0.0];
        let net = StaticGraph::new(generators::bidirectional_path(4));
        assert_converges_to_average(Isotropic(LazyMetropolis), &net, &values, 800, 1e-8);
    }

    #[test]
    fn fixed_weight_needs_only_a_bound() {
        let values = [3.0, -1.0, 7.0, 5.0, 2.0];
        let net = StaticGraph::new(generators::star(5));
        assert_converges_to_average(Broadcast(FixedWeight::new(8)), &net, &values, 900, 1e-8);
    }

    #[test]
    fn metropolis_on_dynamic_symmetric() {
        let net = RandomDynamicGraph::symmetric(7, 3, 13);
        let values: Vec<f64> = (0..7).map(|i| (i * i) as f64).collect();
        assert_converges_to_average(Isotropic(Metropolis), &net, &values, 600, 1e-7);
    }

    #[test]
    fn fixed_weight_on_dynamic_symmetric_with_async_starts() {
        let inner = RandomDynamicGraph::symmetric(6, 2, 5);
        let net = AsyncStarts::new(inner, vec![1, 5, 2, 3, 8, 1]);
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_converges_to_average(Broadcast(FixedWeight::new(6)), &net, &values, 1200, 1e-7);
    }

    #[test]
    fn metropolis_average_is_invariant_each_round() {
        let net = StaticGraph::new(generators::hypercube(3));
        let values: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let avg: f64 = values.iter().sum::<f64>() / 8.0;
        let mut exec = Execution::new(Isotropic(Metropolis), values);
        for _ in 0..20 {
            let g = net.graph(exec.round() + 1);
            exec.step(&g);
            let mean: f64 = exec.outputs().iter().sum::<f64>() / 8.0;
            assert!((mean - avg).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_rejected() {
        let _ = FixedWeight::new(0);
    }

    #[test]
    fn static_symmetric_metropolis_is_pure_broadcast() {
        // No outdegree at send time — yet it averages on static
        // bidirectional networks (the §2.2 degree-learning remark).
        let values = [10.0, 4.0, 7.0, 7.0, 2.0];
        let avg = 6.0;
        for g in [
            generators::star(5),
            generators::bidirectional_ring(5),
            generators::random_bidirectional_connected(5, 2, 9),
        ] {
            let net = StaticGraph::new(g);
            let mut exec = Execution::new(
                Broadcast(StaticSymmetricMetropolis),
                LearnedState::initial(&values),
            );
            exec.drive(&net, RunConfig::rounds(800));
            for x in exec.outputs() {
                assert!((x - avg).abs() < 1e-8, "{x}");
            }
        }
    }

    #[test]
    fn static_symmetric_metropolis_matches_isotropic_metropolis() {
        // After the one-round learning phase, the trajectories coincide
        // with the outdegree-aware Metropolis started one round late.
        let values = [1.0, 2.0, 3.0, 4.0];
        let g = generators::bidirectional_ring(4);
        let net = StaticGraph::new(g);
        let mut learned = Execution::new(
            Broadcast(StaticSymmetricMetropolis),
            LearnedState::initial(&values),
        );
        learned.drive(&net, RunConfig::rounds(21)); // 1 learning round + 20 metropolis rounds
        let mut aware = Execution::new(Isotropic(Metropolis), values.to_vec());
        aware.drive(&net, RunConfig::rounds(20));
        for (a, b) in learned.outputs().iter().zip(aware.outputs()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn averaging_on_population_protocol_matchings() {
        // The §2 footnote-2 network class: pairwise interactions. The
        // fixed-weight rule keeps the average invariant and converges.
        let n = 8;
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let avg = 3.5;
        let net = kya_graph::PairwiseMatching::new(n, 4, 21);
        let mut exec = Execution::new(Broadcast(FixedWeight::new(n)), values);
        exec.drive(&net, RunConfig::rounds(4000));
        for x in exec.outputs() {
            assert!((x - avg).abs() < 1e-7, "{x}");
        }
    }
}

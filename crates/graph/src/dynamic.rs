//! Dynamic graphs and the dynamic diameter.
//!
//! A dynamic graph (§2.1) is an infinite sequence `G(1), G(2), ...` of
//! digraphs on a fixed vertex set, each containing every self-loop. The
//! *dynamic diameter* is the smallest `D` such that every window
//! `G(t) ∘ ... ∘ G(t+D-1)` is the complete (reflexive) graph: any agent's
//! information reaches every agent within any `D` consecutive rounds.

use crate::product::{compose, is_complete_reflexive};
use crate::{generators, Digraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// A round-indexed communication topology.
///
/// Implementations must be deterministic functions of the round number so
/// that executions are reproducible (randomized adversaries fix a seed at
/// construction). Rounds are numbered from `1`, matching the paper.
///
/// Graphs returned by [`DynamicGraph::graph`] must contain a self-loop at
/// every vertex; use [`Digraph::with_self_loops`] when implementing.
pub trait DynamicGraph {
    /// Number of agents (constant over time).
    fn n(&self) -> usize;

    /// The communication graph of round `t >= 1`, owned.
    ///
    /// Executors should prefer [`DynamicGraph::graph_ref`], which lets
    /// static and periodic networks lend their phase graph instead of
    /// cloning the full adjacency every round.
    fn graph(&self, t: u64) -> Digraph;

    /// The communication graph of round `t >= 1`, borrowed when the
    /// implementation stores it (static and periodic networks) and owned
    /// otherwise.
    ///
    /// The default forwards to [`DynamicGraph::graph`]; implementations
    /// that keep their round graphs materialized should override it with
    /// `Cow::Borrowed` — the executors call this every round, and the
    /// clone of a large adjacency is pure overhead.
    fn graph_ref(&self, t: u64) -> Cow<'_, Digraph> {
        Cow::Owned(self.graph(t))
    }

    /// An upper bound on the dynamic diameter, if the adversary knows one
    /// by construction.
    fn diameter_hint(&self) -> Option<usize> {
        None
    }
}

/// Boxed dynamic graphs forward to their contents, so the adversary
/// wrappers (which are generic over `G: DynamicGraph`) can stack on top
/// of a `Box<dyn DynamicGraph>` produced by a topology parser.
impl<G: DynamicGraph + ?Sized> DynamicGraph for Box<G> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn graph(&self, t: u64) -> Digraph {
        (**self).graph(t)
    }

    fn graph_ref(&self, t: u64) -> Cow<'_, Digraph> {
        (**self).graph_ref(t)
    }

    fn diameter_hint(&self) -> Option<usize> {
        (**self).diameter_hint()
    }
}

/// A static network: the same graph every round.
///
/// ```
/// use kya_graph::{generators, DynamicGraph, StaticGraph};
/// let net = StaticGraph::new(generators::directed_ring(4));
/// assert_eq!(net.n(), 4);
/// assert!(net.graph(1).has_self_loop(0));
/// ```
#[derive(Clone, Debug)]
pub struct StaticGraph {
    g: Digraph,
}

impl StaticGraph {
    /// Wrap a digraph as a constant dynamic graph (self-loops are added).
    pub fn new(g: Digraph) -> StaticGraph {
        StaticGraph {
            g: g.with_self_loops(),
        }
    }

    /// The underlying static graph (with self-loops).
    pub fn underlying(&self) -> &Digraph {
        &self.g
    }
}

impl DynamicGraph for StaticGraph {
    fn n(&self) -> usize {
        self.g.n()
    }

    fn graph(&self, _t: u64) -> Digraph {
        self.g.clone()
    }

    fn graph_ref(&self, _t: u64) -> Cow<'_, Digraph> {
        Cow::Borrowed(&self.g)
    }

    fn diameter_hint(&self) -> Option<usize> {
        crate::connectivity::diameter(&self.g)
    }
}

/// A periodic dynamic graph cycling through a fixed list of graphs.
#[derive(Clone, Debug)]
pub struct PeriodicGraph {
    phases: Vec<Digraph>,
}

impl PeriodicGraph {
    /// Cycle through `phases` (self-loops are added to each phase).
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or the vertex counts differ.
    pub fn new(phases: Vec<Digraph>) -> PeriodicGraph {
        assert!(
            !phases.is_empty(),
            "periodic graph needs at least one phase"
        );
        let n = phases[0].n();
        assert!(
            phases.iter().all(|g| g.n() == n),
            "phases on different vertex sets"
        );
        PeriodicGraph {
            phases: phases.into_iter().map(|g| g.with_self_loops()).collect(),
        }
    }

    /// Number of phases in the period.
    pub fn period(&self) -> usize {
        self.phases.len()
    }

    /// The phase index of round `t`: round 1 is phase 0, and
    /// `graph(t) == graph(t + period)` for every `t >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` — rounds are numbered from 1 (§2.1), and a
    /// round-0 query would silently alias phase `period - 1` through the
    /// `(t - 1) % period` wrap-around.
    fn phase_index(&self, t: u64) -> usize {
        assert!(t >= 1, "rounds are numbered from 1");
        ((t - 1) % self.phases.len() as u64) as usize
    }
}

impl DynamicGraph for PeriodicGraph {
    fn n(&self) -> usize {
        self.phases[0].n()
    }

    /// # Panics
    ///
    /// Panics if `t == 0`: rounds are numbered from 1 (§2.1).
    fn graph(&self, t: u64) -> Digraph {
        self.phases[self.phase_index(t)].clone()
    }

    fn graph_ref(&self, t: u64) -> Cow<'_, Digraph> {
        Cow::Borrowed(&self.phases[self.phase_index(t)])
    }
}

/// A randomized adversary: each round is an independent random strongly
/// connected digraph (Hamiltonian cycle + extra edges), deterministic
/// given the seed and round number.
///
/// Every round being strongly connected, the dynamic diameter is at most
/// `n - 1`.
#[derive(Clone, Debug)]
pub struct RandomDynamicGraph {
    n: usize,
    extra_edges: usize,
    seed: u64,
    symmetric: bool,
}

impl RandomDynamicGraph {
    /// Random strongly connected digraphs on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn directed(n: usize, extra_edges: usize, seed: u64) -> RandomDynamicGraph {
        assert!(n > 0, "dynamic graph needs at least one vertex");
        RandomDynamicGraph {
            n,
            extra_edges,
            seed,
            symmetric: false,
        }
    }

    /// Random connected bidirectional graphs on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn symmetric(n: usize, extra_pairs: usize, seed: u64) -> RandomDynamicGraph {
        assert!(n > 0, "dynamic graph needs at least one vertex");
        RandomDynamicGraph {
            n,
            extra_edges: extra_pairs,
            seed,
            symmetric: true,
        }
    }
}

impl DynamicGraph for RandomDynamicGraph {
    fn n(&self) -> usize {
        self.n
    }

    fn graph(&self, t: u64) -> Digraph {
        let mut mix = StdRng::seed_from_u64(self.seed ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let round_seed: u64 = mix.gen();
        let g = if self.symmetric {
            generators::random_bidirectional_connected(self.n, self.extra_edges, round_seed)
        } else {
            generators::random_strongly_connected(self.n, self.extra_edges, round_seed)
        };
        g.with_self_loops()
    }

    fn diameter_hint(&self) -> Option<usize> {
        Some(self.n.saturating_sub(1).max(1))
    }
}

/// A population-protocol-style adversary (§2 footnote 2 of the paper):
/// each round is a random *matching* — disjoint bidirectional pairs —
/// so every vertex has degree zero or one. This is the dynamic,
/// symmetric network class population protocols live in. Random
/// matchings make any pair interact infinitely often with probability 1,
/// and over any window of `O(n log n)` rounds the composed graph is
/// complete with high probability, so the dynamic diameter is finite in
/// practice (though not worst-case bounded — the paper's §6 discusses
/// exactly this weaker connectivity regime).
#[derive(Clone, Debug)]
pub struct PairwiseMatching {
    n: usize,
    seed: u64,
    pairs_per_round: usize,
}

impl PairwiseMatching {
    /// Random matchings on `n` vertices with up to `pairs` disjoint pairs
    /// per round (capped at `n / 2`), deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `pairs == 0`.
    pub fn new(n: usize, pairs: usize, seed: u64) -> PairwiseMatching {
        assert!(n > 0, "population needs at least one agent");
        assert!(pairs > 0, "at least one interaction per round");
        PairwiseMatching {
            n,
            seed,
            pairs_per_round: pairs.min(n / 2),
        }
    }
}

impl DynamicGraph for PairwiseMatching {
    fn n(&self) -> usize {
        self.n
    }

    fn graph(&self, t: u64) -> Digraph {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(self.seed ^ t.wrapping_mul(0xd134_2543_de82_ef95));
        let mut order: Vec<usize> = (0..self.n).collect();
        order.shuffle(&mut rng);
        let mut g = Digraph::new(self.n);
        for pair in order.chunks_exact(2).take(self.pairs_per_round) {
            g.add_edge(pair[0], pair[1]);
            g.add_edge(pair[1], pair[0]);
        }
        g.with_self_loops()
    }
}

/// A pluggable fairness condition for [`PairingScheduler`]: given the
/// population size, the round number, and the scheduler seed, produce the
/// disjoint pairs that interact this round.
///
/// Implementations must be pure functions of `(n, t, seed)` so schedules
/// are reproducible, and must return *disjoint* pairs of distinct agents
/// (a matching). The two canonical conditions from the population-protocol
/// literature (Angluin et al.) are provided: [`UniformRandom`] (each round
/// an independent uniformly random matching — fair with probability 1) and
/// [`RoundRobinCover`] (a deterministic round-robin tournament covering
/// every pair within a bounded window — fair by construction).
pub trait Fairness {
    /// The disjoint interaction pairs of round `t >= 1`.
    fn pairs(&self, n: usize, t: u64, seed: u64) -> Vec<(usize, usize)>;

    /// A short label naming the condition (used in topology labels).
    fn label(&self) -> &'static str;
}

/// Uniformly random matchings: each round, shuffle the agents and pair
/// them off greedily, keeping up to `pairs` interactions. Every pair of
/// agents interacts infinitely often with probability 1 — the standard
/// probabilistic fairness of population protocols.
#[derive(Clone, Copy, Debug)]
pub struct UniformRandom {
    pairs: usize,
}

impl UniformRandom {
    /// Up to `pairs` disjoint interactions per round.
    ///
    /// # Panics
    ///
    /// Panics if `pairs == 0`.
    pub fn new(pairs: usize) -> UniformRandom {
        assert!(pairs > 0, "at least one interaction per round");
        UniformRandom { pairs }
    }
}

impl Fairness for UniformRandom {
    fn pairs(&self, n: usize, t: u64, seed: u64) -> Vec<(usize, usize)> {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed ^ t.wrapping_mul(0xa0761d6478bd642f));
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        order
            .chunks_exact(2)
            .take(self.pairs.min(n / 2))
            .map(|p| (p[0], p[1]))
            .collect()
    }

    fn label(&self) -> &'static str {
        "uniform"
    }
}

/// Deterministic round-robin tournament fairness (the circle method):
/// with `m = n` rounded up to even, round `t` plays the `((t-1) mod
/// (m-1))`-th tournament round, so **every** pair of agents interacts at
/// least once in any window of `m - 1` consecutive rounds. For odd `n`
/// the ghost player's opponent sits the round out. This is the strongest
/// (bounded) fairness condition: the composed interaction graph over any
/// `m - 1` rounds is complete.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobinCover;

impl Fairness for RoundRobinCover {
    fn pairs(&self, n: usize, t: u64, _seed: u64) -> Vec<(usize, usize)> {
        if n < 2 {
            return Vec::new();
        }
        // Circle method: fix player m-1, rotate the rest. Pairs of round
        // r (0-indexed): (m-1, r) and ((r+i) mod (m-1), (r+m-1-i) mod
        // (m-1)) for i in 1..m/2. Agents >= n are the ghost for odd n.
        let m = n + n % 2;
        let r = ((t - 1) % (m as u64 - 1)) as usize;
        let mut out = Vec::with_capacity(m / 2);
        if m - 1 < n {
            out.push((m - 1, r));
        }
        for i in 1..m / 2 {
            let a = (r + i) % (m - 1);
            let b = (r + m - 1 - i) % (m - 1);
            if a < n && b < n {
                out.push((a, b));
            }
        }
        out
    }

    fn label(&self) -> &'static str {
        "cover"
    }
}

/// An Angluin-style population-protocol scheduler: each round a matching
/// of pairwise interactions chosen by a pluggable [`Fairness`] condition.
///
/// This generalizes [`PairwiseMatching`] (which is the uniform-random
/// special case with its own legacy salt): the fairness condition decides
/// *which* pairs meet, and the scheduler materializes each interaction as
/// a bidirectional edge (population-protocol interactions are symmetric
/// exchanges in our communication-model reading). Composes freely with
/// the masking adversaries — `FaultyNetwork`, churn masking, and
/// `AsyncStarts` all wrap any `DynamicGraph`, this one included.
#[derive(Clone, Debug)]
pub struct PairingScheduler<F> {
    n: usize,
    fairness: F,
    seed: u64,
}

impl<F: Fairness> PairingScheduler<F> {
    /// Schedule pairwise interactions over `n` agents under `fairness`,
    /// deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, fairness: F, seed: u64) -> PairingScheduler<F> {
        assert!(n > 0, "population needs at least one agent");
        PairingScheduler { n, fairness, seed }
    }

    /// The fairness condition in use.
    pub fn fairness(&self) -> &F {
        &self.fairness
    }
}

impl<F: Fairness> DynamicGraph for PairingScheduler<F> {
    fn n(&self) -> usize {
        self.n
    }

    fn graph(&self, t: u64) -> Digraph {
        let mut g = Digraph::new(self.n);
        for (a, b) in self.fairness.pairs(self.n, t, self.seed) {
            debug_assert!(a != b && a < self.n && b < self.n);
            g.add_edge(a, b);
            g.add_edge(b, a);
        }
        g.with_self_loops()
    }
}

/// The weak-connectivity regime of the paper's §6: a network that is
/// *never permanently split* yet has **no finite dynamic diameter** —
/// communication happens only at scheduled rounds, with idle (self-loop
/// only) rounds in between whose gaps grow without bound.
///
/// At the `k`-th scheduled round the graph is a random connected
/// topology; everywhere else it is edgeless (self-loops only). With the
/// default geometric schedule (`gap(k) = base_gap * 2^k`), every pair of
/// agents still communicates infinitely often, but no window length `D`
/// ever guarantees full mixing — exactly the class where the paper asks
/// which computability results survive (Moreau's theorem covers the
/// symmetric algorithms; the outdegree-aware case is open).
#[derive(Clone, Debug)]
pub struct SparselyConnected<G> {
    inner: G,
    schedule: Vec<u64>,
}

impl<G: DynamicGraph> SparselyConnected<G> {
    /// Communicate (using `inner`'s round-`t` graph) only at rounds
    /// `t_1 < t_2 < ...` with geometrically growing gaps:
    /// `t_{k+1} = t_k + base_gap * 2^k`, starting at round 1, until
    /// `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `base_gap == 0`.
    pub fn geometric(inner: G, base_gap: u64, horizon: u64) -> SparselyConnected<G> {
        assert!(base_gap >= 1, "gaps must be positive");
        let mut schedule = Vec::new();
        let mut t = 1u64;
        let mut gap = base_gap;
        while t <= horizon {
            schedule.push(t);
            t = t.saturating_add(gap);
            gap = gap.saturating_mul(2);
        }
        SparselyConnected { inner, schedule }
    }

    /// The scheduled communication rounds.
    pub fn schedule(&self) -> &[u64] {
        &self.schedule
    }
}

impl<G: DynamicGraph> DynamicGraph for SparselyConnected<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph(&self, t: u64) -> Digraph {
        if self.schedule.binary_search(&t).is_ok() {
            self.inner.graph(t)
        } else {
            Digraph::new(self.inner.n()).with_self_loops()
        }
    }
}

/// Measure the dynamic diameter over the window `[1, t_max]`: the smallest
/// `D <= d_max` such that for every `t` with `t + D - 1 <= t_max`, the
/// product `G(t) ∘ ... ∘ G(t+D-1)` is complete-reflexive. Returns `None`
/// if no such `D` exists within the bounds.
///
/// For a [`StaticGraph`] this equals the static diameter (checked by
/// tests), and for genuinely dynamic adversaries it is the empirical
/// counterpart of the paper's dynamic diameter.
pub fn measured_dynamic_diameter(
    net: &dyn DynamicGraph,
    t_max: u64,
    d_max: usize,
) -> Option<usize> {
    'outer: for d in 1..=d_max {
        let mut t = 1u64;
        while t + d as u64 - 1 <= t_max {
            let mut acc = net.graph_ref(t).into_owned();
            for s in 1..d {
                acc = compose(&acc, &net.graph_ref(t + s as u64));
            }
            if !is_complete_reflexive(&acc) {
                continue 'outer;
            }
            t += 1;
        }
        return Some(d);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_graph_diameter_matches() {
        let net = StaticGraph::new(generators::directed_ring(5));
        assert_eq!(net.diameter_hint(), Some(4));
        assert_eq!(measured_dynamic_diameter(&net, 10, 10), Some(4));
    }

    #[test]
    fn periodic_alternation() {
        // Alternate between two halves of a ring; union over 2 rounds is
        // the whole ring, so the dynamic diameter is finite but larger
        // than either phase alone allows.
        let n = 4;
        let mut even = Digraph::new(n);
        let mut odd = Digraph::new(n);
        for i in 0..n {
            let j = (i + 1) % n;
            if i % 2 == 0 {
                even.add_edge(i, j);
            } else {
                odd.add_edge(i, j);
            }
        }
        let net = PeriodicGraph::new(vec![even, odd]);
        assert_eq!(net.period(), 2);
        let d = measured_dynamic_diameter(&net, 20, 20).expect("finite dynamic diameter");
        assert!(d >= 4, "alternation cannot beat the full ring, got {d}");
    }

    #[test]
    fn periodic_graph_indexing() {
        let a = generators::directed_ring(3);
        let b = generators::complete(3);
        let net = PeriodicGraph::new(vec![a.clone(), b.clone()]);
        // Round 1 -> phase 0, round 2 -> phase 1, round 3 -> phase 0.
        assert_eq!(net.graph(1).edge_count(), net.graph(3).edge_count());
        assert!(net.graph(2).edge_count() > net.graph(1).edge_count());
    }

    #[test]
    #[should_panic(expected = "rounds are numbered from 1")]
    fn periodic_graph_rejects_round_zero() {
        let net = PeriodicGraph::new(vec![generators::directed_ring(3)]);
        let _ = net.graph(0);
    }

    #[test]
    fn graph_ref_matches_graph() {
        let ring = generators::directed_ring(5);
        let statics = StaticGraph::new(ring.clone());
        let periodic = PeriodicGraph::new(vec![ring, generators::complete(5)]);
        let random = RandomDynamicGraph::directed(5, 2, 9);
        let nets: [&dyn DynamicGraph; 3] = [&statics, &periodic, &random];
        for net in nets {
            for t in 1..=6 {
                assert_eq!(net.graph_ref(t).as_ref(), &net.graph(t), "round {t}");
            }
        }
        // The borrowing accessors actually borrow.
        assert!(matches!(statics.graph_ref(3), Cow::Borrowed(_)));
        assert!(matches!(periodic.graph_ref(3), Cow::Borrowed(_)));
    }

    #[test]
    fn pairwise_matching_is_degree_at_most_one() {
        let pop = PairwiseMatching::new(7, 3, 5);
        for t in 1..=10 {
            let g = pop.graph(t);
            assert!(g.is_bidirectional());
            for v in 0..7 {
                // Self-loop plus at most one partner.
                assert!(g.outdegree(v) <= 2, "round {t} vertex {v}");
                assert!(g.has_self_loop(v));
            }
        }
        // Deterministic.
        assert_eq!(
            pop.graph(4).edges(),
            PairwiseMatching::new(7, 3, 5).graph(4).edges()
        );
    }

    #[test]
    fn pairwise_matching_mixes_eventually() {
        // Over enough rounds the composed graph becomes complete: the
        // empirical dynamic diameter is finite.
        let pop = PairwiseMatching::new(6, 3, 11);
        let d = measured_dynamic_diameter(&pop, 120, 80).expect("mixes");
        assert!(
            d >= 3,
            "matchings cannot mix in fewer rounds than pairs allow"
        );
    }

    #[test]
    fn uniform_pairing_is_a_matching_and_deterministic() {
        let net = PairingScheduler::new(9, UniformRandom::new(4), 77);
        for t in 1..=12 {
            let g = net.graph(t);
            assert!(g.is_bidirectional());
            for v in 0..9 {
                assert!(g.has_self_loop(v));
                assert!(g.outdegree(v) <= 2, "round {t} vertex {v} degree");
            }
        }
        let again = PairingScheduler::new(9, UniformRandom::new(4), 77);
        assert_eq!(net.graph(5).edges(), again.graph(5).edges());
        // A different seed reshuffles.
        let other = PairingScheduler::new(9, UniformRandom::new(4), 78);
        assert!((1..=20).any(|t| net.graph(t).edges() != other.graph(t).edges()));
    }

    #[test]
    fn round_robin_cover_hits_every_pair_within_the_window() {
        for n in [2usize, 3, 4, 5, 6, 7, 8] {
            let m = n + n % 2;
            let net = PairingScheduler::new(n, RoundRobinCover, 0);
            let mut seen = vec![vec![false; n]; n];
            for t in 1..m as u64 {
                let g = net.graph(t);
                assert!(g.is_bidirectional());
                for v in 0..n {
                    assert!(g.outdegree(v) <= 2, "matching per round");
                }
                for (a, b) in RoundRobinCover.pairs(n, t, 0) {
                    assert_ne!(a, b);
                    seen[a][b] = true;
                    seen[b][a] = true;
                }
            }
            for (a, row) in seen.iter().enumerate() {
                for (b, &hit) in row.iter().enumerate() {
                    assert!(a == b || hit, "n={n}: pair ({a},{b}) missed");
                }
            }
            // The schedule is periodic with period m - 1.
            assert_eq!(
                net.graph(1).edges(),
                net.graph(m as u64).edges(),
                "n={n}: period m-1"
            );
        }
    }

    #[test]
    fn pairing_scheduler_mixes_under_both_fairness_conditions() {
        let uniform = PairingScheduler::new(6, UniformRandom::new(3), 11);
        assert!(measured_dynamic_diameter(&uniform, 120, 80).is_some());
        let cover = PairingScheduler::new(6, RoundRobinCover, 0);
        let d = measured_dynamic_diameter(&cover, 40, 30).expect("cover mixes");
        assert!(d >= 3, "pairwise interactions cannot mix instantly");
    }

    #[test]
    fn sparse_connectivity_has_unbounded_gaps() {
        let inner = RandomDynamicGraph::symmetric(5, 2, 3);
        let sparse = SparselyConnected::geometric(inner, 2, 1000);
        let sched = sparse.schedule().to_vec();
        assert_eq!(&sched[..4], &[1, 3, 7, 15]);
        // Idle rounds are self-loop only.
        let idle = sparse.graph(2);
        assert_eq!(idle.edge_count(), 5);
        assert!((0..5).all(|v| idle.has_self_loop(v)));
        // Scheduled rounds carry the inner topology.
        assert!(sparse.graph(3).edge_count() > 5);
        // No finite dynamic diameter within any growing window: the gap
        // between consecutive communications eventually exceeds any D.
        let gaps: Vec<u64> = sched.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.windows(2).all(|w| w[1] >= w[0]));
        assert!(*gaps.last().unwrap() > 64);
    }

    #[test]
    fn random_dynamic_is_deterministic_and_connected() {
        let net = RandomDynamicGraph::directed(8, 4, 42);
        assert_eq!(net.graph(7).edges(), net.graph(7).edges());
        for t in 1..=5 {
            assert!(crate::connectivity::is_strongly_connected(&net.graph(t)));
        }
        let d = measured_dynamic_diameter(&net, 12, 8).expect("connected every round");
        assert!(d <= 7);
        let sym = RandomDynamicGraph::symmetric(6, 2, 7);
        for t in 1..=5 {
            assert!(sym.graph(t).is_bidirectional());
        }
    }
}

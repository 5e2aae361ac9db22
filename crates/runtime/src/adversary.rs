//! Network adversaries beyond the plain generators: asynchronous starts
//! and self-stabilization harnesses.
//!
//! §5.3 of the paper reduces asynchronous starts to a graph
//! transformation: "an execution with the dynamic graph G and the agents
//! starting at rounds `s_i` is similar to the execution where all agents
//! start at round one and with the dynamic graph Ĝ" whose round-`t` edges
//! are `{(i, j) ∈ E_t : i = j ∨ t >= max(s_i, s_j)}`. [`AsyncStarts`]
//! implements exactly that masking, so *any* algorithm can be tested
//! under asynchronous starts without touching the executor.

use kya_graph::{Digraph, DynamicGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mask a dynamic graph so that agents appear asleep before their start
/// rounds (§5.3): an edge `i -> j` with `i != j` is delivered at round `t`
/// only if `t >= max(s_i, s_j)`; self-loops always survive.
#[derive(Debug)]
pub struct AsyncStarts<G> {
    inner: G,
    starts: Vec<u64>,
}

impl<G: DynamicGraph> AsyncStarts<G> {
    /// Wrap `inner` with per-agent start rounds.
    ///
    /// # Panics
    ///
    /// Panics if `starts.len() != inner.n()` or some start round is `0`
    /// (rounds are numbered from 1).
    pub fn new(inner: G, starts: Vec<u64>) -> AsyncStarts<G> {
        assert_eq!(starts.len(), inner.n(), "one start round per agent");
        assert!(
            starts.iter().all(|&s| s >= 1),
            "start rounds are numbered from 1"
        );
        AsyncStarts { inner, starts }
    }

    /// Random start rounds in `1..=max_delay`, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `max_delay == 0`.
    pub fn random(inner: G, max_delay: u64, seed: u64) -> AsyncStarts<G> {
        assert!(max_delay >= 1, "max_delay must be at least 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let starts = (0..inner.n())
            .map(|_| rng.gen_range(1..=max_delay))
            .collect();
        AsyncStarts::new(inner, starts)
    }

    /// The start round of each agent.
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }
}

impl<G: DynamicGraph> DynamicGraph for AsyncStarts<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph(&self, t: u64) -> Digraph {
        let g = self.inner.graph(t);
        let mut masked = Digraph::new(g.n());
        for e in g.edges() {
            if e.src == e.dst || t >= self.starts[e.src].max(self.starts[e.dst]) {
                masked.add_edge_with_port(e.src, e.dst, e.port);
            }
        }
        masked.with_self_loops()
    }

    fn diameter_hint(&self) -> Option<usize> {
        // The paper: max(s_i) + D bounds the masked dynamic diameter.
        let all_started_by = self.starts.iter().copied().max().unwrap_or(1);
        self.inner
            .diameter_hint()
            .map(|d| d + all_started_by as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::{generators, StaticGraph};

    #[test]
    fn masking_removes_early_edges() {
        let net = StaticGraph::new(generators::complete(3));
        let masked = AsyncStarts::new(net, vec![1, 3, 1]);
        // Round 1: agent 1 still asleep; only 0 <-> 2 plus self-loops.
        let g1 = masked.graph(1);
        assert_eq!(g1.multiplicity(0, 2), 1);
        assert_eq!(g1.multiplicity(0, 1), 0);
        assert_eq!(g1.multiplicity(1, 2), 0);
        assert!(g1.has_self_loop(1));
        // Round 3: everything restored.
        let g3 = masked.graph(3);
        assert_eq!(g3.multiplicity(0, 1), 1);
        assert_eq!(g3.multiplicity(1, 2), 1);
    }

    #[test]
    fn starts_and_hint() {
        let net = StaticGraph::new(generators::complete(3));
        let masked = AsyncStarts::new(net, vec![2, 5, 1]);
        assert_eq!(masked.starts(), &[2, 5, 1]);
        assert_eq!(masked.diameter_hint(), Some(1 + 5));
    }

    #[test]
    fn random_starts_deterministic() {
        let a = AsyncStarts::random(StaticGraph::new(generators::complete(4)), 6, 9);
        let b = AsyncStarts::random(StaticGraph::new(generators::complete(4)), 6, 9);
        assert_eq!(a.starts(), b.starts());
        assert!(a.starts().iter().all(|&s| (1..=6).contains(&s)));
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn zero_start_rejected() {
        let _ = AsyncStarts::new(StaticGraph::new(generators::complete(2)), vec![0, 1]);
    }
}

//! The round-composition product of communication graphs.
//!
//! §2.1 (footnote 3) of the paper composes the graphs of consecutive
//! rounds: the product `G1 ∘ G2` has an edge `i -> j` exactly when some
//! relay `k` satisfies `i -> k` in `G1` and `k -> j` in `G2` — information
//! travelling one hop per round. The *dynamic diameter* is the smallest
//! window `D` over which every such product is complete.

use crate::Digraph;

/// The composition `g1 ∘ g2`: edge `i -> j` iff there is `k` with
/// `i -> k` in `g1` and `k -> j` in `g2`.
///
/// The result is a simple graph (multiplicities collapsed): the model only
/// cares whether information can flow.
///
/// # Panics
///
/// Panics if the vertex counts differ.
pub fn compose(g1: &Digraph, g2: &Digraph) -> Digraph {
    assert_eq!(g1.n(), g2.n(), "product of graphs on different vertex sets");
    let n = g1.n();
    let mut out = Digraph::new(n);
    let mut row = vec![false; n];
    for i in 0..n {
        for x in row.iter_mut() {
            *x = false;
        }
        for k in g1.out_neighbors(i) {
            for j in g2.out_neighbors(k) {
                row[j] = true;
            }
        }
        for (j, &reach) in row.iter().enumerate() {
            if reach {
                out.add_edge(i, j);
            }
        }
    }
    out
}

/// Whether `g` is the complete graph *with self-loops*: every ordered
/// pair (including `i = i`) is an edge.
pub fn is_complete_reflexive(g: &Digraph) -> bool {
    let n = g.n();
    let m = g.multiplicity_matrix();
    (0..n).all(|i| (0..n).all(|j| m[i][j] > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ring_composition_doubles_reach() {
        let r = generators::directed_ring(5).with_self_loops();
        let r2 = compose(&r, &r);
        // After two rounds, vertex 0 reaches 0, 1, 2.
        let reach: Vec<usize> = r2.out_neighbors(0).collect();
        assert_eq!(reach, vec![0, 1, 2]);
    }

    #[test]
    fn ring_needs_n_minus_one_rounds() {
        let n = 6;
        let r = generators::directed_ring(n).with_self_loops();
        let mut acc = r.clone();
        let mut rounds = 1;
        while !is_complete_reflexive(&acc) {
            acc = compose(&acc, &r);
            rounds += 1;
        }
        assert_eq!(rounds, n - 1);
    }

    #[test]
    fn composition_models_two_hop_relay() {
        // 0 -> 1 in g1, 1 -> 2 in g2 yields 0 -> 2.
        let g1 = Digraph::from_edges(3, [(0, 1)]);
        let g2 = Digraph::from_edges(3, [(1, 2)]);
        let p = compose(&g1, &g2);
        assert_eq!(p.multiplicity(0, 2), 1);
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "different vertex sets")]
    fn compose_rejects_mismatched() {
        let _ = compose(&Digraph::new(2), &Digraph::new(3));
    }

    use proptest::prelude::*;

    fn arb_graph(n: usize) -> impl Strategy<Value = Digraph> {
        proptest::collection::vec((0..n, 0..n), 0..12)
            .prop_map(move |edges| Digraph::from_edges(n, edges))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Relation composition is associative (up to multiplicity
        /// collapse, which compose applies uniformly).
        #[test]
        fn compose_is_associative(
            a in arb_graph(5),
            b in arb_graph(5),
            c in arb_graph(5),
        ) {
            let left = compose(&compose(&a, &b), &c);
            let right = compose(&a, &compose(&b, &c));
            prop_assert_eq!(left.multiplicity_matrix(), right.multiplicity_matrix());
        }

        /// The reflexive identity graph is a two-sided unit on simple
        /// graphs.
        #[test]
        fn identity_graph_is_unit(a in arb_graph(4)) {
            let id = Digraph::new(4).with_self_loops();
            // Collapse a to its simple form first (compose outputs are
            // simple graphs).
            let simple = compose(&a, &id);
            prop_assert_eq!(
                compose(&id, &simple).multiplicity_matrix(),
                simple.multiplicity_matrix()
            );
            prop_assert_eq!(
                compose(&simple, &id).multiplicity_matrix(),
                simple.multiplicity_matrix()
            );
        }
    }
}

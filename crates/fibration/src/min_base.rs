//! The minimum base of a (valued, port-colored) graph.
//!
//! Every graph has, up to isomorphism, a unique *fibration prime* base —
//! a graph that admits no further collapse — reached by quotienting along
//! the coarsest in-equitable partition (§3.2 of the paper, after Boldi &
//! Vigna). The minimum base, together with the fibre cardinalities, is
//! the complete "anonymity type" of a static network: it is what any
//! agent can eventually learn, and the paper's positive results (§4.2)
//! all start from it.

use crate::morphism::GraphMorphism;
use crate::refine::{coarsest_equitable_partition, in_key, InKey, Partition};
use kya_graph::{Digraph, Edge, EdgeId, Vertex};

/// The minimum base of a graph: the quotient multigraph, the projection
/// fibration, and the fibre data.
///
/// ```
/// use kya_graph::generators;
/// use kya_fibration::MinimumBase;
///
/// // Star on 5 vertices: center collapses to one base vertex, the four
/// // leaves to another.
/// let g = generators::star(5);
/// let mb = MinimumBase::compute(&g, &vec![0; 5]);
/// assert_eq!(mb.base().n(), 2);
/// let mut sizes = mb.fibre_sizes().to_vec();
/// sizes.sort_unstable();
/// assert_eq!(sizes, vec![1, 4]);
/// ```
#[derive(Clone, Debug)]
pub struct MinimumBase {
    base: Digraph,
    base_values: Vec<u64>,
    partition: Partition,
    projection: GraphMorphism,
}

impl MinimumBase {
    /// Compute the minimum base of `g` with vertex values `values`
    /// (port labels on edges, if any, are respected automatically).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != g.n()` or `g` has no vertices.
    pub fn compute(g: &Digraph, values: &[u64]) -> MinimumBase {
        assert!(g.n() > 0, "minimum base of the empty graph");
        let partition = coarsest_equitable_partition(g, values);
        let class_of = partition.classes();
        // `v`'s in-edges as (key, position in `in_edges`, edge id), ordered
        // by (source class, port), ties in in-edge order.
        let sort_in_edges = |v: Vertex, scratch: &mut Vec<(InKey, usize, EdgeId)>| {
            scratch.clear();
            scratch.extend(g.in_edges(v).enumerate().map(|(k, e)| {
                let edge = g.edges()[e];
                (in_key(class_of[edge.src], edge.port), k, e)
            }));
            scratch.sort_unstable();
        };

        // Class ids are canonical by first occurrence, so class `j`'s
        // first member is the `j`-th vertex that opens a new class.
        let mut reps: Vec<Vertex> = Vec::with_capacity(partition.num_classes());
        for (v, &c) in class_of.iter().enumerate() {
            if c == reps.len() {
                reps.push(v);
            }
        }

        // Base vertices = classes. Base in-edges of class `j` = in-edges
        // of its representative, with sources replaced by their classes;
        // they get the consecutive ids `base_start[j]..base_start[j + 1]`.
        // `base_sorted` lists each class's base edges in key order.
        let mut base_edges = Vec::new();
        let mut base_start = Vec::with_capacity(reps.len() + 1);
        let mut base_sorted = Vec::with_capacity(g.edge_count());
        let mut scratch = Vec::new();
        base_start.push(0);
        for (j, &rep) in reps.iter().enumerate() {
            let first = base_edges.len();
            base_edges.extend(g.in_edges(rep).map(|e| {
                let edge = g.edges()[e];
                Edge {
                    src: class_of[edge.src],
                    dst: j,
                    port: edge.port,
                }
            }));
            sort_in_edges(rep, &mut scratch);
            base_sorted.extend(scratch.iter().map(|&(_, k, _)| first + k));
            base_start.push(base_edges.len());
        }
        let base = Digraph::from_edge_vec(reps.len(), base_edges);

        // Edge map: the partition is equitable, so every member of class
        // `j` has the representative's multiset of keys. Zipping the two
        // key-ordered lists maps the k-th in-edge of each key group to the
        // k-th base edge of that group.
        let mut edge_map = vec![usize::MAX; g.edge_count()];
        for (v, &j) in class_of.iter().enumerate() {
            sort_in_edges(v, &mut scratch);
            let group = &base_sorted[base_start[j]..base_start[j + 1]];
            assert_eq!(
                scratch.len(),
                group.len(),
                "equitable partition guarantees matching groups"
            );
            for (&(key, _, e), &b) in scratch.iter().zip(group) {
                debug_assert_eq!(key, in_key(base.edges()[b].src, base.edges()[b].port));
                edge_map[e] = b;
            }
        }

        let base_values: Vec<u64> = reps.iter().map(|&rep| values[rep]).collect();
        let projection = GraphMorphism {
            vertex_map: class_of.to_vec(),
            edge_map,
        };
        MinimumBase {
            base,
            base_values,
            partition,
            projection,
        }
    }

    /// The quotient multigraph.
    pub fn base(&self) -> &Digraph {
        &self.base
    }

    /// Values of the base vertices (each fibre is value-homogeneous).
    pub fn base_values(&self) -> &[u64] {
        &self.base_values
    }

    /// The fibre partition of the original vertices.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The projection fibration `G -> base`.
    pub fn projection(&self) -> &GraphMorphism {
        &self.projection
    }

    /// Cardinalities of the fibres, indexed by base vertex.
    pub fn fibre_sizes(&self) -> Vec<usize> {
        self.partition.class_sizes()
    }

    /// The multiplicity `d_{i,j}`: number of base edges from `i` to `j`
    /// (equivalently, in-edges from fibre `i` at any vertex of fibre `j`).
    pub fn edge_multiplicity(&self, i: Vertex, j: Vertex) -> usize {
        self.base.multiplicity(i, j)
    }

    /// Whether the original graph is fibration prime (it *is* its own
    /// minimum base: no two vertices are indistinguishable).
    pub fn is_prime(&self) -> bool {
        self.base.n() == self.partition.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morphism::verify_fibration;
    use crate::reference;
    use kya_graph::generators;
    use proptest::prelude::*;

    fn check(g: &Digraph, values: &[u64]) -> MinimumBase {
        let mb = MinimumBase::compute(g, values);
        verify_fibration(mb.projection(), g, mb.base(), values, mb.base_values())
            .expect("projection must be a fibration");
        mb
    }

    #[test]
    fn uniform_ring_collapses_to_loop() {
        let g = generators::directed_ring(9);
        let mb = check(&g, &[0; 9]);
        assert_eq!(mb.base().n(), 1);
        assert_eq!(mb.base().edge_count(), 1);
        assert_eq!(mb.fibre_sizes(), vec![9]);
        assert!(!mb.is_prime());
    }

    #[test]
    fn valued_ring_collapses_to_smaller_ring() {
        // R_6 with values of period 2 collapses to R_2.
        let g = generators::directed_ring(6);
        let values: Vec<u64> = (0..6).map(|v| (v % 2) as u64).collect();
        let mb = check(&g, &values);
        assert_eq!(mb.base().n(), 2);
        assert_eq!(mb.fibre_sizes(), vec![3, 3]);
        assert_eq!(mb.edge_multiplicity(0, 1), 1);
        assert_eq!(mb.edge_multiplicity(1, 0), 1);
        assert_eq!(mb.edge_multiplicity(0, 0), 0);
    }

    #[test]
    fn star_base_has_parallel_edges() {
        let g = generators::star(4); // center + 3 leaves
        let mb = check(&g, &[0; 4]);
        assert_eq!(mb.base().n(), 2);
        // The center's class receives 3 parallel edges from the leaf class.
        let (center_class, leaf_class) = if mb.fibre_sizes()[0] == 1 {
            (0, 1)
        } else {
            (1, 0)
        };
        assert_eq!(mb.edge_multiplicity(leaf_class, center_class), 3);
        assert_eq!(mb.edge_multiplicity(center_class, leaf_class), 1);
    }

    #[test]
    fn prime_graph_is_its_own_base() {
        // A ring with all-distinct values is rigid.
        let g = generators::directed_ring(5);
        let values: Vec<u64> = (0..5).map(|v| v as u64).collect();
        let mb = check(&g, &values);
        assert!(mb.is_prime());
        assert_eq!(mb.base().n(), 5);
        assert_eq!(mb.base().edge_count(), 5);
    }

    #[test]
    fn lift_of_base_recovers_base_fibres() {
        // Build a lift with prescribed fibre sizes and check the minimum
        // base recovers the fibre-size ray (up to overall ordering).
        let mut base = Digraph::new(2);
        base.add_edge(0, 1);
        base.add_edge(1, 0);
        base.add_edge(0, 0);
        // Fibre sizes (2, 4): fibre 1 vertices each get 1 in-edge from
        // fibre 0; fibre 0 vertices get in-edges from fibres 1 and 0.
        let (g, fibre_of) = generators::lift(&base, &[2, 4], 1);
        let mb = check(&g, &[0; 6]);
        // The minimum base may be even smaller than `base` if the lift
        // added accidental symmetry, but fibre classes must refine the
        // prescribed fibres' *coarsening*: here sizes must group 2 and 4.
        let mut sizes = mb.fibre_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 4]);
        // Every computed fibre must be a union of... in fact equal to the
        // prescribed fibres here.
        for members in mb.partition().members() {
            let f0 = fibre_of[members[0]];
            assert!(members.iter().all(|&v| fibre_of[v] == f0));
        }
    }

    #[test]
    fn hypercube_is_homogeneous() {
        let g = generators::hypercube(3);
        let mb = check(&g, &[0; 8]);
        assert_eq!(mb.base().n(), 1);
        assert_eq!(mb.base().edge_count(), 3);
        assert_eq!(mb.fibre_sizes(), vec![8]);
    }

    #[test]
    fn symmetric_ports_still_collapse() {
        // Bidirectional ring with ports assigned by direction (clockwise
        // port 0, counterclockwise port 1): the rotational symmetry is
        // preserved, so the graph still collapses to a single vertex with
        // two port-colored loops.
        let n = 4;
        let mut g = Digraph::new(n);
        for i in 0..n {
            g.add_edge_with_port(i, (i + 1) % n, Some(0));
            g.add_edge_with_port((i + 1) % n, i, Some(1));
        }
        let mb = check(&g, &vec![0; n]);
        assert_eq!(mb.base().n(), 1);
        assert_eq!(mb.base().edge_count(), 2);
    }

    #[test]
    fn asymmetric_ports_prevent_collapse() {
        // The same ring with insertion-order canonical ports breaks the
        // symmetry: vertices become pairwise distinguishable.
        let g = generators::bidirectional_ring(4).with_canonical_ports();
        let mb = check(&g, &[0; 4]);
        assert_eq!(mb.base().n(), 4);
        assert!(mb.is_prime());
    }

    #[test]
    fn random_graphs_projection_verifies() {
        for seed in 0..8u64 {
            let g = generators::random_strongly_connected(14, 12, seed);
            let values: Vec<u64> = (0..14).map(|v| (v % 4) as u64).collect();
            let _ = check(&g, &values);
        }
    }

    #[test]
    fn fibre_count_equation_holds() {
        // eq. (1) of the paper: b_i |fibre(i)| = sum_j d_{i,j} |fibre(j)|
        // where b_i is the outdegree of any member of fibre i.
        for seed in [3u64, 5, 8] {
            let base = generators::random_strongly_connected(3, 2, seed);
            let (g, _) = generators::lift(&base, &[2, 3, 4], 1);
            let mb = check(&g, &vec![0; g.n()]);
            let sizes = mb.fibre_sizes();
            for i in 0..mb.base().n() {
                let member = mb.partition().members()[i][0];
                // b_i: outdegree shared by fibre members only when the
                // lift is outdegree-homogeneous; compute per-member sum
                // instead: total edges leaving fibre i equals
                // sum_j d_{i,j} |fibre(j)|.
                let total_out: usize = mb.partition().members()[i]
                    .iter()
                    .map(|&v| g.outdegree(v))
                    .sum();
                let rhs: usize = (0..mb.base().n())
                    .map(|j| mb.edge_multiplicity(i, j) * sizes[j])
                    .sum();
                assert_eq!(total_out, rhs, "seed {seed}, fibre {i}");
                let _ = member;
            }
        }
    }

    /// A random multigraph on `n` vertices from `(src, dst, port code)`
    /// draws: indices are taken mod `n`, port code 0 is unlabelled and
    /// code `c > 0` is port `c - 1`. Every third edge is doubled, so
    /// parallel edges always occur.
    fn random_multigraph(n: usize, draws: &[(usize, usize, u32)]) -> Digraph {
        let mut g = Digraph::new(n);
        for (i, &(s, d, code)) in draws.iter().enumerate() {
            let port = code.checked_sub(1);
            g.add_edge_with_port(s % n, d % n, port);
            if i % 3 == 0 {
                g.add_edge_with_port(s % n, d % n, port);
            }
        }
        g
    }

    /// `g`'s edges re-added in the order of `shuffle` keys, so that
    /// same-fibre vertices list their in-edges in different orders.
    fn reorder(g: &Digraph, shuffle: &[u64]) -> Digraph {
        let mut order: Vec<usize> = (0..g.edge_count()).collect();
        order.sort_by_key(|&e| (shuffle[e % shuffle.len()].rotate_left(e as u32), e));
        let mut h = Digraph::new(g.n());
        for e in order {
            let edge = g.edges()[e];
            h.add_edge_with_port(edge.src, edge.dst, edge.port);
        }
        h
    }

    fn assert_matches_reference(g: &Digraph, values: &[u64]) {
        let mb = check(g, values);
        let (partition, base, base_values, projection) = reference::minimum_base(g, values);
        assert_eq!(mb.partition(), &partition);
        assert_eq!(mb.base(), &base);
        assert_eq!(mb.base_values(), &base_values[..]);
        assert_eq!(mb.projection(), &projection);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat refinement and cursor-free quotient agree exactly
        /// with the reference construction on random multigraphs with
        /// self-loops, parallel edges and mixed port labels.
        #[test]
        fn flat_minimum_base_matches_reference_on_random_multigraphs(
            n in 1usize..=64,
            draws in proptest::collection::vec(
                (0usize..64, 0usize..64, 0u32..4),
                0..160,
            ),
            colours in 1u64..=4,
            value_seed in any::<u64>(),
        ) {
            let g = random_multigraph(n, &draws);
            let values: Vec<u64> = (0..n as u64)
                .map(|v| (value_seed.rotate_left(v as u32 * 7) ^ v) % colours)
                .collect();
            assert_matches_reference(&g, &values);
            assert_matches_reference(&g.with_self_loops(), &values);
        }

        /// The same on shuffled lifts of random multigraphs, whose large
        /// fibres exercise the in-group matching of the edge map.
        #[test]
        fn flat_minimum_base_matches_reference_on_lifts(
            base_n in 1usize..=6,
            draws in proptest::collection::vec(
                (0usize..6, 0usize..6, 0u32..3),
                1..14,
            ),
            fibre_sizes in proptest::collection::vec(1usize..=10, 6),
            twist in 0usize..4,
            colours in 1u64..=4,
            shuffle in proptest::collection::vec(any::<u64>(), 1..8),
        ) {
            let base = random_multigraph(base_n, &draws).with_self_loops();
            let (lifted, fibre_of) = generators::lift(&base, &fibre_sizes[..base_n], twist);
            let g = reorder(&lifted, &shuffle);
            let values: Vec<u64> = fibre_of.iter().map(|&b| b as u64 % colours).collect();
            assert_matches_reference(&g, &values);
        }
    }
}

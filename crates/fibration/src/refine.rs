//! Coarsest in-equitable partition via color refinement.
//!
//! Two agents of an anonymous network can only ever be distinguished by
//! the values and the (iterated) in-neighborhood structure they observe.
//! The coarsest partition that is *equitable with respect to in-edges* —
//! every two vertices of a class have, for each class `C` and port label
//! `p`, equally many in-edges labelled `p` from `C` — is exactly the
//! partition into fibres of the minimum base (§3.2).

use kya_graph::{Digraph, Vertex};
use std::collections::HashMap;

/// A partition of the vertices `0..n` into numbered classes.
///
/// Class ids are canonical: classes are numbered by first occurrence, so
/// two runs on isomorphically-presented graphs yield identical vectors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    class_of: Vec<usize>,
    num_classes: usize,
}

impl Partition {
    /// Build from an arbitrary class-id vector (ids are canonicalized).
    pub fn from_class_ids(ids: &[usize]) -> Partition {
        let ranked;
        let ids = if ids.iter().all(|&id| id < ids.len()) {
            ids
        } else {
            ranked = ranks(ids);
            &ranked
        };
        // Dense remap: every id is now below the vertex count.
        let mut remap = vec![usize::MAX; ids.len()];
        let mut num_classes = 0;
        let class_of = ids
            .iter()
            .map(|&id| {
                if remap[id] == usize::MAX {
                    remap[id] = num_classes;
                    num_classes += 1;
                }
                remap[id]
            })
            .collect();
        Partition {
            class_of,
            num_classes,
        }
    }

    /// The class of vertex `v`.
    pub fn class_of(&self, v: Vertex) -> usize {
        self.class_of[v]
    }

    /// Class ids, indexed by vertex.
    pub fn classes(&self) -> &[usize] {
        &self.class_of
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.class_of.len()
    }

    /// Whether the partition has no vertices.
    pub fn is_empty(&self) -> bool {
        self.class_of.is_empty()
    }

    /// The members of each class, sorted.
    pub fn members(&self) -> Vec<Vec<Vertex>> {
        let mut out = vec![Vec::new(); self.num_classes];
        for (v, &c) in self.class_of.iter().enumerate() {
            out[c].push(v);
        }
        out
    }

    /// Sizes of the classes.
    pub fn class_sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.num_classes];
        for &c in &self.class_of {
            out[c] += 1;
        }
        out
    }

    /// Whether this partition refines `other` (every class of `self` is
    /// contained in a class of `other`).
    ///
    /// # Panics
    ///
    /// Panics if the partitions have different lengths.
    pub fn refines(&self, other: &Partition) -> bool {
        assert_eq!(self.len(), other.len(), "partition length mismatch");
        let mut image: Vec<Option<usize>> = vec![None; self.num_classes];
        for v in 0..self.len() {
            let mine = self.class_of[v];
            let theirs = other.class_of[v];
            match image[mine] {
                None => image[mine] = Some(theirs),
                Some(t) if t == theirs => {}
                Some(_) => return false,
            }
        }
        true
    }
}

/// The rank of each element of `xs` in the sorted set of its values.
fn ranks<T: Ord + Copy>(xs: &[T]) -> Vec<usize> {
    let mut set = xs.to_vec();
    set.sort_unstable();
    set.dedup();
    xs.iter()
        .map(|x| set.binary_search(x).expect("value is in its own set"))
        .collect()
}

/// What an in-edge shows its target: the class of its source and its
/// port label, packed as `class << 64 | port code` with code 0 for an
/// unlabelled edge and `p + 1` for port `p`. Keys order like
/// `(class, port)` tuples, and a slice of them hashes as one contiguous
/// byte string.
pub(crate) type InKey = u128;

/// The [`InKey`] of an in-edge from a source of class `class`.
pub(crate) fn in_key(class: usize, port: Option<u32>) -> InKey {
    (class as u128) << 64 | port.map_or(0, |p| u128::from(p) + 1)
}

/// Compute the coarsest partition of `g`'s vertices that refines the
/// initial coloring `init` and is equitable with respect to in-edges
/// (counting port labels).
///
/// This is the fibre partition of the minimum base: vertices in the same
/// class have isomorphic iterated in-neighborhoods and are therefore
/// indistinguishable to any deterministic anonymous algorithm started
/// uniformly (Lifting Lemma, §3.1).
///
/// Each round gives every vertex the signature (own class, sorted
/// multiset of in-edge (source class, port) keys) and numbers the
/// distinct signatures by first occurrence. The signatures live in one
/// flat buffer over the graph's in-edge CSR, and are interned by exact
/// slice equality, so a round allocates only its intern table and the
/// result is exact (no hashing collisions). Rounds stop when the class
/// count stops growing, after at most `n` rounds.
///
/// # Panics
///
/// Panics if `init.len() != g.n()`.
///
/// ```
/// use kya_graph::generators;
/// use kya_fibration::coarsest_equitable_partition;
///
/// // Ring of 6 with values alternating 0/1: two classes.
/// let g = generators::directed_ring(6);
/// let init: Vec<u64> = (0..6).map(|v| (v % 2) as u64).collect();
/// let p = coarsest_equitable_partition(&g, &init);
/// assert_eq!(p.num_classes(), 2);
/// ```
pub fn coarsest_equitable_partition(g: &Digraph, init: &[u64]) -> Partition {
    assert_eq!(init.len(), g.n(), "one initial color per vertex");
    let n = g.n();
    // Initial ids depend only on the color *set*, not on vertex order.
    let mut class_of = ranks(init);
    let mut num_classes = class_of.iter().copied().max().map_or(0, |m| m + 1);

    // `in_src_port[g.in_range(v)]` are the (source, port) pairs of `v`'s
    // in-edges, laid out along the graph's own in-edge CSR.
    let in_src_port: Vec<(Vertex, Option<u32>)> = (0..n)
        .flat_map(|v| g.in_edges(v))
        .map(|e| (g.edges()[e].src, g.edges()[e].port))
        .collect();

    let mut keys: Vec<InKey> = vec![0; in_src_port.len()];
    let mut next = vec![0usize; n];
    // A partition into singletons cannot split further.
    while num_classes < n {
        for (key, &(src, port)) in keys.iter_mut().zip(&in_src_port) {
            *key = in_key(class_of[src], port);
        }
        for v in 0..n {
            keys[g.in_range(v)].sort_unstable();
        }
        let mut ids: HashMap<(usize, &[InKey]), usize> = HashMap::with_capacity(num_classes);
        for v in 0..n {
            let signature = (class_of[v], &keys[g.in_range(v)]);
            let fresh = ids.len();
            next[v] = *ids.entry(signature).or_insert(fresh);
        }
        if ids.len() == num_classes {
            break;
        }
        num_classes = ids.len();
        std::mem::swap(&mut class_of, &mut next);
    }
    Partition::from_class_ids(&class_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::generators;

    #[test]
    fn uniform_ring_is_one_class() {
        let g = generators::directed_ring(7);
        let p = coarsest_equitable_partition(&g, &[0; 7]);
        assert_eq!(p.num_classes(), 1);
        assert_eq!(p.class_sizes(), vec![7]);
    }

    #[test]
    fn values_split_classes() {
        let g = generators::directed_ring(6);
        let init: Vec<u64> = vec![0, 1, 2, 0, 1, 2];
        let p = coarsest_equitable_partition(&g, &init);
        assert_eq!(p.num_classes(), 3);
        assert_eq!(p.members(), vec![vec![0, 3], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn asymmetric_values_fully_split() {
        let g = generators::directed_ring(4);
        let init: Vec<u64> = vec![9, 1, 1, 1];
        let p = coarsest_equitable_partition(&g, &init);
        // The unique 9 breaks all ring symmetry: everyone distinguishable.
        assert_eq!(p.num_classes(), 4);
    }

    #[test]
    fn star_splits_center_from_leaves() {
        let g = generators::star(5);
        let p = coarsest_equitable_partition(&g, &[0; 5]);
        assert_eq!(p.num_classes(), 2);
        let sizes = p.class_sizes();
        assert!(sizes.contains(&1) && sizes.contains(&4));
    }

    #[test]
    fn ports_refine() {
        // Two vertices each with two in-edges; with distinct ports on one
        // side only, the symmetry breaks.
        let mut g = Digraph::new(2);
        g.add_edge_with_port(0, 1, Some(0));
        g.add_edge_with_port(0, 1, Some(1));
        g.add_edge_with_port(1, 0, Some(0));
        g.add_edge_with_port(1, 0, Some(0));
        let p = coarsest_equitable_partition(&g, &[0, 0]);
        assert_eq!(p.num_classes(), 2);
    }

    #[test]
    fn partition_utilities() {
        let p = Partition::from_class_ids(&[5, 9, 5, 7]);
        assert_eq!(p.classes(), &[0, 1, 0, 2]);
        assert_eq!(p.num_classes(), 3);
        assert_eq!(p.class_sizes(), vec![2, 1, 1]);
        assert!(!p.is_empty());
        assert_eq!(p.len(), 4);
        let finer = Partition::from_class_ids(&[0, 1, 2, 3]);
        let coarser = Partition::from_class_ids(&[0, 0, 0, 0]);
        assert!(finer.refines(&p));
        assert!(p.refines(&coarser));
        assert!(!coarser.refines(&p));
        assert!(p.refines(&p));
    }

    #[test]
    fn initial_color_order_does_not_matter() {
        // Same color classes presented with different ids give the same
        // partition.
        let g = generators::directed_ring(4);
        let a = coarsest_equitable_partition(&g, &[10, 20, 10, 20]);
        let b = coarsest_equitable_partition(&g, &[7, 3, 7, 3]);
        // Canonical ids come from sorted color order, so a and b match up
        // to class renaming; class sizes certainly agree.
        assert_eq!(a.num_classes(), b.num_classes());
        assert_eq!(a.class_sizes().len(), b.class_sizes().len());
    }

    use kya_graph::Digraph;

    #[test]
    fn refinement_is_equitable() {
        // Property: in the final partition, any two same-class vertices
        // have identical in-profiles by class.
        for seed in 0..10u64 {
            let g = generators::random_strongly_connected(12, 10, seed);
            let init: Vec<u64> = (0..12).map(|v| (v % 3) as u64).collect();
            let p = coarsest_equitable_partition(&g, &init);
            let profile = |v: usize| {
                let mut prof: Vec<(usize, Option<u32>)> = g
                    .in_edges(v)
                    .map(|e| (p.class_of(g.edges()[e].src), g.edges()[e].port))
                    .collect();
                prof.sort_unstable();
                prof
            };
            for members in p.members() {
                let first = profile(members[0]);
                for &v in &members[1..] {
                    assert_eq!(profile(v), first, "class not equitable (seed {seed})");
                }
            }
        }
    }

    #[test]
    fn extreme_port_labels_stay_distinct() {
        // Sources 0 and 1 have different colours. Source 0 feeds vertices
        // 2..6 three edges each, and only the port multisets differ:
        // {None, 0, MAX} twice (in different orders), then one swap of
        // None for 0 and one of MAX for 0. Vertex 6 hears source 0 on
        // port MAX, vertex 7 hears source 1 unlabelled. A packed
        // (class, port) key that confused None, 0 and MAX, or let a port
        // spill into the class bits, would merge some of them.
        let max = Some(u32::MAX);
        let mut g = Digraph::new(8);
        g.add_edge(0, 0);
        g.add_edge(1, 1);
        let ports = [
            [None, Some(0), max],
            [max, None, Some(0)],
            [Some(0), Some(0), max],
            [None, Some(0), Some(0)],
        ];
        for (k, labels) in ports.iter().enumerate() {
            for &port in labels {
                g.add_edge_with_port(0, k + 2, port);
            }
        }
        g.add_edge_with_port(0, 6, max);
        g.add_edge_with_port(1, 7, None);
        let init = [0, 1, 2, 2, 2, 2, 2, 2];
        let p = coarsest_equitable_partition(&g, &init);
        assert_eq!(p.classes(), &[0, 1, 2, 2, 3, 4, 5, 6]);
        assert_eq!(p, crate::reference::partition(&g, &init));
    }

    #[test]
    fn marked_ring_needs_about_n_rounds() {
        // One marked agent on a directed ring of 64: the mark's distance
        // spreads one hop per round, so refinement runs until every
        // agent is alone in its class.
        let n = 64;
        let g = generators::directed_ring(n);
        let mut init = vec![0u64; n];
        init[5] = 1;
        let p = coarsest_equitable_partition(&g, &init);
        assert_eq!(p.num_classes(), n);
        assert_eq!(p.classes(), &(0..n).collect::<Vec<_>>()[..]);
        assert_eq!(p, crate::reference::partition(&g, &init));
        // One mark every 8 agents: refinement stops when the count stops
        // growing, at 8 classes.
        let periodic: Vec<u64> = (0..n).map(|v| u64::from(v % 8 == 0)).collect();
        let p = coarsest_equitable_partition(&g, &periodic);
        assert_eq!(p.num_classes(), 8);
        assert_eq!(p, crate::reference::partition(&g, &periodic));
    }

    #[test]
    fn from_class_ids_handles_ids_beyond_the_length() {
        let p = Partition::from_class_ids(&[usize::MAX, 3, usize::MAX, 1_000]);
        assert_eq!(p.classes(), &[0, 1, 0, 2]);
        assert_eq!(p.num_classes(), 3);
        assert!(Partition::from_class_ids(&[]).is_empty());
    }
}

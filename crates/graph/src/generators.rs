//! Graph families used throughout the paper and its experiments.
//!
//! The impossibility proofs revolve around *rings* (§4.1 collapses `R_n`
//! onto `R_p` by a fibration); the positive results are exercised on
//! arbitrary strongly connected digraphs. The [`lift`] generator builds a
//! graph *from* a base and prescribed fibre sizes, which gives test cases
//! whose minimum base (and hence fibre-cardinality vector) is known by
//! construction.

use crate::{Digraph, Edge, Vertex};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The directed ring `R_n`: edges `i -> (i+1) mod n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn directed_ring(n: usize) -> Digraph {
    assert!(n > 0, "ring needs at least one vertex");
    Digraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// The bidirectional ring: edges `i <-> (i+1) mod n`.
///
/// For `n = 1` this is a single vertex with a self-loop; for `n = 2` the
/// two antiparallel edges are kept (no deduplication).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn bidirectional_ring(n: usize) -> Digraph {
    assert!(n > 0, "ring needs at least one vertex");
    let mut g = Digraph::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        g.add_edge(i, j);
        g.add_edge(j, i);
    }
    g
}

/// The complete digraph (no self-loops): every ordered pair `(i, j)`,
/// `i != j`.
pub fn complete(n: usize) -> Digraph {
    let mut g = Digraph::new(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// The bidirectional star: center `0`, leaves `1..n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Digraph {
    assert!(n > 0, "star needs at least one vertex");
    let mut g = Digraph::new(n);
    for leaf in 1..n {
        g.add_edge(0, leaf);
        g.add_edge(leaf, 0);
    }
    g
}

/// The bidirectional path `0 - 1 - ... - n-1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn bidirectional_path(n: usize) -> Digraph {
    assert!(n > 0, "path needs at least one vertex");
    let mut g = Digraph::new(n);
    for i in 0..n.saturating_sub(1) {
        g.add_edge(i, i + 1);
        g.add_edge(i + 1, i);
    }
    g
}

/// The directed torus (wrap-around grid) of `rows x cols` vertices with
/// edges east and south.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn directed_torus(rows: usize, cols: usize) -> Digraph {
    assert!(rows > 0 && cols > 0, "torus needs positive dimensions");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut g = Digraph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            g.add_edge(idx(r, c), idx(r, (c + 1) % cols));
            g.add_edge(idx(r, c), idx((r + 1) % rows, c));
        }
    }
    g
}

/// The bidirectional hypercube on `2^dim` vertices.
pub fn hypercube(dim: u32) -> Digraph {
    let n = 1usize << dim;
    let mut g = Digraph::new(n);
    for v in 0..n {
        for b in 0..dim {
            let u = v ^ (1 << b);
            if u > v {
                g.add_edge(v, u);
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A random strongly connected digraph: a Hamiltonian cycle through a
/// random vertex order plus `extra_edges` random non-loop edges.
///
/// Deterministic given `seed`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_strongly_connected(n: usize, extra_edges: usize, seed: u64) -> Digraph {
    assert!(n > 0, "graph needs at least one vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<Vertex> = (0..n).collect();
    order.shuffle(&mut rng);
    let extra_edges = if n > 1 { extra_edges } else { 0 };
    let mut edges = Vec::with_capacity(n + extra_edges);
    edges.extend((0..n).map(|i| Edge {
        src: order[i],
        dst: order[(i + 1) % n],
        port: None,
    }));
    while edges.len() < n + extra_edges {
        let src = rng.gen_range(0..n);
        let dst = rng.gen_range(0..n);
        if src != dst {
            edges.push(Edge {
                src,
                dst,
                port: None,
            });
        }
    }
    Digraph::from_edge_vec(n, edges)
}

/// A random connected *bidirectional* graph: a random spanning tree plus
/// `extra_pairs` random antiparallel edge pairs.
///
/// Deterministic given `seed`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_bidirectional_connected(n: usize, extra_pairs: usize, seed: u64) -> Digraph {
    assert!(n > 0, "graph needs at least one vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Digraph::new(n);
    // The ordered pairs joined so far. Checking them, not the graph,
    // keeps its adjacency from being rebuilt after every accepted pair.
    let mut joined = HashSet::new();
    // Random attachment spanning tree.
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        g.add_edge(v, parent);
        g.add_edge(parent, v);
        joined.extend([(v, parent), (parent, v)]);
    }
    let mut added = 0;
    while added < extra_pairs && n > 1 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && joined.insert((a, b)) {
            joined.insert((b, a));
            g.add_edge(a, b);
            g.add_edge(b, a);
            added += 1;
        }
    }
    g
}

/// The de Bruijn graph `B(b, k)`: vertices are length-`k` words over a
/// `b`-letter alphabet, with an edge `w -> w'` when `w'` is `w` shifted
/// left by one letter. Every vertex has in- and outdegree `b`, diameter
/// exactly `k`, and the graph is vertex-transitive-like enough that the
/// uniform-value minimum base is a single vertex with `b` loops — a
/// classic stress test for anonymous computation.
///
/// # Panics
///
/// Panics if `b == 0`, `k == 0`, or `b^k` overflows `usize`.
pub fn de_bruijn(b: usize, k: u32) -> Digraph {
    assert!(b > 0 && k > 0, "de Bruijn graph needs positive parameters");
    let n = b
        .checked_pow(k)
        .expect("de Bruijn graph size overflows usize");
    let mut g = Digraph::new(n);
    for w in 0..n {
        // Shift left: drop the leading digit, append any letter.
        let shifted = (w % b.pow(k - 1)) * b;
        for letter in 0..b {
            g.add_edge(w, shifted + letter);
        }
    }
    g
}

/// The Kautz graph `K(b, k)`: the de Bruijn construction restricted to
/// words with no two consecutive equal letters — `(b+1) * b^k` vertices,
/// uniform degree `b`, diameter `k + 1`.
///
/// # Panics
///
/// Panics if `b == 0` or the size overflows.
pub fn kautz(b: usize, k: u32) -> Digraph {
    assert!(b > 0, "Kautz graph needs b >= 1");
    // Enumerate words of length k+1 over b+1 letters without equal
    // adjacent letters; index them densely.
    let len = (k + 1) as usize;
    let mut words: Vec<Vec<usize>> = Vec::new();
    let mut stack: Vec<Vec<usize>> = (0..=b).map(|l| vec![l]).collect();
    while let Some(w) = stack.pop() {
        if w.len() == len {
            words.push(w);
            continue;
        }
        for l in 0..=b {
            if l != *w.last().expect("non-empty") {
                let mut next = w.clone();
                next.push(l);
                stack.push(next);
            }
        }
    }
    words.sort();
    let index: std::collections::HashMap<&[usize], usize> = words
        .iter()
        .enumerate()
        .map(|(i, w)| (w.as_slice(), i))
        .collect();
    let mut g = Digraph::new(words.len());
    for (i, w) in words.iter().enumerate() {
        for l in 0..=b {
            if l != w[len - 1] {
                let mut shifted = w[1..].to_vec();
                shifted.push(l);
                g.add_edge(i, index[shifted.as_slice()]);
            }
        }
    }
    g
}

/// A layered cycle with controllable diameter: `groups` groups of
/// `group_size` vertices arranged in a directed cycle, with complete
/// bipartite edges between consecutive groups. The diameter is exactly
/// `groups` for `groups >= 2` (one hop moves you one layer; reaching a
/// different vertex of your own layer takes a full loop), independent of
/// the group size — the knob the convergence-rate experiments sweep.
///
/// # Panics
///
/// Panics if either parameter is zero.
pub fn layered_cycle(groups: usize, group_size: usize) -> Digraph {
    assert!(
        groups > 0 && group_size > 0,
        "layered cycle needs positive dimensions"
    );
    let n = groups * group_size;
    let mut g = Digraph::new(n);
    for layer in 0..groups {
        let next = (layer + 1) % groups;
        for a in 0..group_size {
            for b in 0..group_size {
                g.add_edge(layer * group_size + a, next * group_size + b);
            }
        }
    }
    g
}

/// Like [`lift`], but searches seeded random wirings until the lifted
/// graph is strongly connected (the paper's network class), retrying up
/// to `attempts` times.
///
/// For each base edge `i -> j`, a balanced random assignment is drawn:
/// every fibre-`j` vertex receives exactly one lift, and the fibre-`i`
/// sources are spread as evenly as possible (so out-degrees within a
/// fibre differ by at most one per base edge).
///
/// Returns `None` if no strongly connected wiring was found.
///
/// # Panics
///
/// Panics on the same inputs as [`lift`], or if `base` itself is not
/// strongly connected (then no lift can be).
pub fn connected_lift(
    base: &Digraph,
    fibre_sizes: &[usize],
    seed: u64,
    attempts: usize,
) -> Option<(Digraph, Vec<Vertex>)> {
    assert!(
        crate::connectivity::is_strongly_connected(base),
        "base must be strongly connected"
    );
    assert_eq!(
        fibre_sizes.len(),
        base.n(),
        "one fibre size per base vertex"
    );
    assert!(
        fibre_sizes.iter().all(|&s| s > 0),
        "fibres must be non-empty"
    );
    let mut first = vec![0usize; base.n()];
    let mut total = 0;
    for (i, &s) in fibre_sizes.iter().enumerate() {
        first[i] = total;
        total += s;
    }
    let mut fibre_of = vec![0usize; total];
    for (b, &s) in fibre_sizes.iter().enumerate() {
        for k in 0..s {
            fibre_of[first[b] + k] = b;
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..attempts {
        let mut g = Digraph::new(total);
        for e in base.edges() {
            let (i, j) = (e.src, e.dst);
            let (si, sj) = (fibre_sizes[i], fibre_sizes[j]);
            // Balanced multiset of sources: each fibre-i vertex repeated
            // floor/ceil(sj/si) times, shuffled.
            let mut sources: Vec<Vertex> = (0..sj).map(|k| first[i] + k % si).collect();
            sources.shuffle(&mut rng);
            for (k, &src) in sources.iter().enumerate() {
                g.add_edge_with_port(src, first[j] + k, e.port);
            }
        }
        if crate::connectivity::is_strongly_connected(&g) {
            return Some((g, fibre_of));
        }
    }
    None
}

/// Build the fibration lift of `base` with the given fibre sizes: fibre
/// `i` of the result has `fibre_sizes[i]` vertices, and each vertex in
/// fibre `j` receives, for every `i -> j` base edge, exactly one in-edge
/// from a vertex of fibre `i` (chosen round-robin, rotated by `twist` to
/// vary the wiring).
///
/// The projection onto `base` is a fibration by construction, so the
/// minimum base of the lift is (a quotient of) `base` — this is the
/// primary generator for graphs with a known fibre structure.
///
/// **Caveat**: the lift of a strongly connected base need not be
/// strongly connected (a fibre-`i` vertex may receive no lift of an
/// `i -> j` edge when fibre `i` is larger than fibre `j`, and even
/// uniform cyclic wirings can split into disjoint components). Use
/// [`connected_lift`] when the paper's strongly-connected network class
/// is required.
///
/// Returns the lifted graph together with the fibre assignment
/// `fibre_of[v] = base vertex of v`.
///
/// # Panics
///
/// Panics if `fibre_sizes.len() != base.n()` or any fibre is empty.
pub fn lift(base: &Digraph, fibre_sizes: &[usize], twist: usize) -> (Digraph, Vec<Vertex>) {
    assert_eq!(
        fibre_sizes.len(),
        base.n(),
        "one fibre size per base vertex"
    );
    assert!(
        fibre_sizes.iter().all(|&s| s > 0),
        "fibres must be non-empty"
    );
    let mut first = vec![0usize; base.n()];
    let mut total = 0;
    for (i, &s) in fibre_sizes.iter().enumerate() {
        first[i] = total;
        total += s;
    }
    let mut g = Digraph::new(total);
    let mut fibre_of = vec![0usize; total];
    for (b, &s) in fibre_sizes.iter().enumerate() {
        for k in 0..s {
            fibre_of[first[b] + k] = b;
        }
    }
    // For each base edge e: i -> j, connect fibre i to fibre j so that
    // each fibre-j vertex gets exactly one lift of e.
    for (eidx, e) in base.edges().iter().enumerate() {
        let (i, j) = (e.src, e.dst);
        let (si, sj) = (fibre_sizes[i], fibre_sizes[j]);
        for k in 0..sj {
            let src = first[i] + (k + twist * (eidx + 1)) % si;
            let dst = first[j] + k;
            g.add_edge_with_port(src, dst, e.port);
        }
    }
    (g, fibre_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_strongly_connected;

    #[test]
    fn ring_shapes() {
        let r = directed_ring(5);
        assert_eq!(r.edge_count(), 5);
        assert!(is_strongly_connected(&r));
        let b = bidirectional_ring(5);
        assert_eq!(b.edge_count(), 10);
        assert!(b.is_bidirectional());
        let one = bidirectional_ring(1);
        assert!(one.has_self_loop(0));
    }

    #[test]
    fn complete_star_path() {
        assert_eq!(complete(4).edge_count(), 12);
        assert!(star(5).is_bidirectional());
        assert_eq!(star(5).outdegree(0), 4);
        assert!(bidirectional_path(4).is_bidirectional());
        assert_eq!(bidirectional_path(1).edge_count(), 0);
    }

    #[test]
    fn torus_and_hypercube() {
        let t = directed_torus(3, 4);
        assert_eq!(t.n(), 12);
        assert!(is_strongly_connected(&t));
        assert!(t.edges().iter().all(|e| e.src != e.dst));
        let h = hypercube(3);
        assert_eq!(h.n(), 8);
        assert!(h.is_bidirectional());
        assert!(is_strongly_connected(&h));
        assert_eq!(h.outdegree(0), 3);
    }

    #[test]
    fn de_bruijn_shapes() {
        let g = de_bruijn(2, 3);
        assert_eq!(g.n(), 8);
        assert!(is_strongly_connected(&g));
        for v in 0..8 {
            assert_eq!(g.outdegree(v), 2);
            assert_eq!(g.indegree(v), 2);
        }
        assert_eq!(crate::connectivity::diameter(&g), Some(3));
        // Word 000 (= 0) has a self-loop: shift(000) + 0 = 000.
        assert!(g.has_self_loop(0));
    }

    #[test]
    fn kautz_shapes() {
        let g = kautz(2, 1);
        // (b+1) * b^k = 3 * 2 = 6 vertices, degree b = 2.
        assert_eq!(g.n(), 6);
        assert!(is_strongly_connected(&g));
        for v in 0..6 {
            assert_eq!(g.outdegree(v), 2);
        }
        // Kautz graphs are loop-free by construction.
        assert!((0..6).all(|v| !g.has_self_loop(v)));
        assert_eq!(crate::connectivity::diameter(&g), Some(2));
    }

    #[test]
    fn layered_cycle_diameter_is_group_count() {
        for groups in 2..6 {
            for size in [1usize, 2, 3] {
                let g = layered_cycle(groups, size);
                assert!(is_strongly_connected(&g));
                // Reaching your own layer's sibling needs a full loop.
                let d = crate::connectivity::diameter(&g).unwrap();
                if size > 1 {
                    assert_eq!(d, groups, "groups={groups} size={size}");
                } else {
                    assert_eq!(d, groups - 1, "single-vertex layers form a ring");
                }
            }
        }
    }

    #[test]
    fn connected_lift_is_connected_and_fibred() {
        let base = random_strongly_connected(3, 2, 40).with_self_loops();
        let (g, fibre_of) = connected_lift(&base, &[2, 3, 4], 1, 256).expect("findable");
        assert!(is_strongly_connected(&g));
        assert_eq!(g.n(), 9);
        // Every vertex of fibre j has exactly indegree(base_j) in-edges.
        for (v, &fv) in fibre_of.iter().enumerate() {
            assert_eq!(g.indegree(v), base.indegree(fv));
        }
    }

    #[test]
    fn random_graphs_are_connected_and_deterministic() {
        for seed in 0..5 {
            let g = random_strongly_connected(10, 8, seed);
            assert!(is_strongly_connected(&g));
            assert_eq!(g.edges(), random_strongly_connected(10, 8, seed).edges());
            let b = random_bidirectional_connected(10, 4, seed);
            assert!(b.is_bidirectional());
            assert!(is_strongly_connected(&b));
        }
    }

    #[test]
    fn lift_respects_fibres() {
        // Base: 2-vertex graph with edges both ways; fibres of size 2 and 3.
        let base = Digraph::from_edges(2, [(0, 1), (1, 0), (0, 0)]);
        let (g, fibre_of) = lift(&base, &[2, 3], 1);
        assert_eq!(g.n(), 5);
        assert_eq!(fibre_of, vec![0, 0, 1, 1, 1]);
        // Each fibre-1 vertex has exactly one in-edge per base edge into 1.
        for v in 2..5 {
            assert_eq!(g.indegree(v), 1);
            assert!(g.in_neighbors(v).all(|u| fibre_of[u] == 0));
        }
        // Each fibre-0 vertex has in-edges from fibre 1 (edge 1->0) and
        // fibre 0 (self-loop at base 0).
        for v in 0..2 {
            assert_eq!(g.indegree(v), 2);
        }
    }

    #[test]
    fn ring_lift_is_bigger_ring() {
        // Lifting R_p with uniform fibres of size k and twist 0 yields a
        // disjoint union of cycles; the classic R_n -> R_p fibration
        // corresponds to one n-cycle, which our round-robin wiring with
        // twist != 0 can also produce. Here we just check degrees.
        let base = directed_ring(3);
        let (g, _) = lift(&base, &[2, 2, 2], 0);
        assert_eq!(g.n(), 6);
        for v in 0..6 {
            assert_eq!(g.indegree(v), 1);
            assert_eq!(g.outdegree(v), 1);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn lift_rejects_empty_fibre() {
        let base = directed_ring(2);
        let _ = lift(&base, &[1, 0], 0);
    }
}

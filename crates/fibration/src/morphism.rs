//! Graph morphisms and the fibration / covering checks.

use kya_graph::{Digraph, EdgeId, Vertex};
use std::fmt;

/// A morphism of directed multigraphs: a vertex map and an edge map that
/// commute with sources and targets (§3 of the paper).
///
/// Optional vertex values and edge port labels must also be preserved for
/// the morphism to count as a morphism of valued/colored graphs; the
/// checks take the values as explicit slices so that graphs stay
/// value-agnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphMorphism {
    /// `vertex_map[v]` is the image of vertex `v`.
    pub vertex_map: Vec<Vertex>,
    /// `edge_map[e]` is the image of edge `e`.
    pub edge_map: Vec<EdgeId>,
}

/// Why a pair of maps fails to be a graph morphism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MorphismError {
    /// Map lengths do not match the graphs.
    ShapeMismatch,
    /// A mapped vertex or edge index is out of range.
    OutOfRange,
    /// `source(φ(e)) != φ(source(e))` for some edge `e`.
    SourceMismatch {
        /// Offending edge in the domain graph.
        edge: EdgeId,
    },
    /// `target(φ(e)) != φ(target(e))` for some edge `e`.
    TargetMismatch {
        /// Offending edge in the domain graph.
        edge: EdgeId,
    },
    /// A vertex value is not preserved.
    ValueMismatch {
        /// Offending vertex in the domain graph.
        vertex: Vertex,
    },
    /// An edge port label is not preserved.
    PortMismatch {
        /// Offending edge in the domain graph.
        edge: EdgeId,
    },
}

impl fmt::Display for MorphismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MorphismError::ShapeMismatch => write!(f, "map sizes do not match the graphs"),
            MorphismError::OutOfRange => write!(f, "mapped index out of range"),
            MorphismError::SourceMismatch { edge } => {
                write!(f, "edge {edge} does not commute with sources")
            }
            MorphismError::TargetMismatch { edge } => {
                write!(f, "edge {edge} does not commute with targets")
            }
            MorphismError::ValueMismatch { vertex } => {
                write!(f, "vertex {vertex} changes value under the morphism")
            }
            MorphismError::PortMismatch { edge } => {
                write!(f, "edge {edge} changes port label under the morphism")
            }
        }
    }
}

impl std::error::Error for MorphismError {}

/// Why a morphism fails to be a fibration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FibrationError {
    /// The underlying maps are not a morphism at all.
    NotAMorphism(MorphismError),
    /// The vertex or edge map is not surjective (the paper restricts
    /// fibrations to epimorphisms).
    NotEpimorphism,
    /// A base edge has no lift, or several lifts, at some vertex over its
    /// target.
    LiftingFailure {
        /// The base edge whose lifting property fails.
        base_edge: EdgeId,
        /// The vertex (over the edge's target) with `!= 1` lifts.
        at_vertex: Vertex,
        /// How many lifts were found.
        found: usize,
    },
    /// (Covering check only) out-edges of some vertex are not in bijection
    /// with the out-edges of its image.
    LocalOutMismatch {
        /// The vertex whose out-neighborhood fails to biject.
        vertex: Vertex,
    },
}

impl fmt::Display for FibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FibrationError::NotAMorphism(e) => write!(f, "not a morphism: {e}"),
            FibrationError::NotEpimorphism => write!(f, "morphism is not surjective"),
            FibrationError::LiftingFailure {
                base_edge,
                at_vertex,
                found,
            } => write!(
                f,
                "base edge {base_edge} has {found} lifts at vertex {at_vertex}, expected 1"
            ),
            FibrationError::LocalOutMismatch { vertex } => {
                write!(f, "vertex {vertex} breaks the local out-bijection")
            }
        }
    }
}

impl std::error::Error for FibrationError {}

impl GraphMorphism {
    /// Validate the maps as a morphism of (valued, port-colored) graphs
    /// from `g` to `b`.
    ///
    /// `g_values`/`b_values` may be empty to skip the value-preservation
    /// check; otherwise their lengths must equal the vertex counts.
    ///
    /// # Errors
    ///
    /// Returns the first [`MorphismError`] encountered.
    pub fn verify(
        &self,
        g: &Digraph,
        b: &Digraph,
        g_values: &[u64],
        b_values: &[u64],
    ) -> Result<(), MorphismError> {
        if self.vertex_map.len() != g.n() || self.edge_map.len() != g.edge_count() {
            return Err(MorphismError::ShapeMismatch);
        }
        let check_values = !g_values.is_empty() || !b_values.is_empty();
        if check_values && (g_values.len() != g.n() || b_values.len() != b.n()) {
            return Err(MorphismError::ShapeMismatch);
        }
        if self.vertex_map.iter().any(|&v| v >= b.n())
            || self.edge_map.iter().any(|&e| e >= b.edge_count())
        {
            return Err(MorphismError::OutOfRange);
        }
        for (eid, e) in g.edges().iter().enumerate() {
            let be = &b.edges()[self.edge_map[eid]];
            if be.src != self.vertex_map[e.src] {
                return Err(MorphismError::SourceMismatch { edge: eid });
            }
            if be.dst != self.vertex_map[e.dst] {
                return Err(MorphismError::TargetMismatch { edge: eid });
            }
            if e.port != be.port {
                return Err(MorphismError::PortMismatch { edge: eid });
            }
        }
        if check_values {
            for v in 0..g.n() {
                if g_values[v] != b_values[self.vertex_map[v]] {
                    return Err(MorphismError::ValueMismatch { vertex: v });
                }
            }
        }
        Ok(())
    }

    /// Whether both maps are surjective.
    fn is_epimorphism(&self, b: &Digraph) -> bool {
        let mut v_hit = vec![false; b.n()];
        for &v in &self.vertex_map {
            if v < b.n() {
                v_hit[v] = true;
            }
        }
        let mut e_hit = vec![false; b.edge_count()];
        for &e in &self.edge_map {
            if e < b.edge_count() {
                e_hit[e] = true;
            }
        }
        v_hit.into_iter().all(|x| x) && e_hit.into_iter().all(|x| x)
    }

    /// The fibre over each base vertex: `fibres[i]` lists the vertices of
    /// the domain mapped to `i`.
    pub fn fibres(&self, b: &Digraph) -> Vec<Vec<Vertex>> {
        let mut fibres = vec![Vec::new(); b.n()];
        for (v, &i) in self.vertex_map.iter().enumerate() {
            fibres[i].push(v);
        }
        fibres
    }

    /// Lift a valuation of the base fibrewise (the `v^φ` of §3.1): vertex
    /// `v` of the domain receives the value of `φ(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `base_values` is shorter than some image index.
    pub fn lift_valuation<V: Clone>(&self, base_values: &[V]) -> Vec<V> {
        self.vertex_map
            .iter()
            .map(|&i| base_values[i].clone())
            .collect()
    }

    /// Compose with another morphism: `other ∘ self` maps the domain of
    /// `self` through `self` and then through `other`. Fibrations are
    /// closed under composition, so composing two verified fibrations
    /// yields a verified fibration (checked in tests) — this is how the
    /// minimum base factors through every intermediate base (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if `self`'s images are out of range for `other`'s maps.
    pub fn then(&self, other: &GraphMorphism) -> GraphMorphism {
        GraphMorphism {
            vertex_map: self
                .vertex_map
                .iter()
                .map(|&v| other.vertex_map[v])
                .collect(),
            edge_map: self.edge_map.iter().map(|&e| other.edge_map[e]).collect(),
        }
    }
}

/// Verify that `phi` is a fibration from `g` onto `b` (§3): a surjective
/// morphism such that every base edge has exactly one lift ending at each
/// vertex over its target.
///
/// # Errors
///
/// Returns the first [`FibrationError`] encountered.
pub fn verify_fibration(
    phi: &GraphMorphism,
    g: &Digraph,
    b: &Digraph,
    g_values: &[u64],
    b_values: &[u64],
) -> Result<(), FibrationError> {
    phi.verify(g, b, g_values, b_values)
        .map_err(FibrationError::NotAMorphism)?;
    if !phi.is_epimorphism(b) {
        return Err(FibrationError::NotEpimorphism);
    }
    // For every vertex v of G and every base edge e ending at φ(v), count
    // lifts of e ending at v.
    for v in 0..g.n() {
        let bv = phi.vertex_map[v];
        // Count lifts per base edge id among in-edges of v.
        let mut lifts: std::collections::HashMap<EdgeId, usize> = std::collections::HashMap::new();
        for ge in g.in_edges(v) {
            *lifts.entry(phi.edge_map[ge]).or_insert(0) += 1;
        }
        for be in b.in_edges(bv) {
            let found = lifts.get(&be).copied().unwrap_or(0);
            if found != 1 {
                return Err(FibrationError::LiftingFailure {
                    base_edge: be,
                    at_vertex: v,
                    found,
                });
            }
        }
        // Any lift mapped to an edge NOT ending at bv would already have
        // violated target-commutation in the morphism check.
        let in_count: usize = g.indegree(v);
        if in_count != b.indegree(bv) {
            // More in-edges than base edges: some base edge counted > 1,
            // caught above — this is a defensive consistency check.
            return Err(FibrationError::LiftingFailure {
                base_edge: b.in_edges(bv).next().unwrap_or(0),
                at_vertex: v,
                found: in_count,
            });
        }
    }
    Ok(())
}

/// Verify that `phi` is a *covering*: a fibration that is also locally
/// surjective on out-edges (out-edges of `v` in bijection with out-edges
/// of `φ(v)`).
///
/// Under output port awareness every fibration between port-colored graphs
/// is a covering, which forces all fibres to have equal cardinality
/// (§4.3, eq. 3).
///
/// # Errors
///
/// Returns the first [`FibrationError`] encountered.
pub fn verify_covering(
    phi: &GraphMorphism,
    g: &Digraph,
    b: &Digraph,
    g_values: &[u64],
    b_values: &[u64],
) -> Result<(), FibrationError> {
    verify_fibration(phi, g, b, g_values, b_values)?;
    for v in 0..g.n() {
        let bv = phi.vertex_map[v];
        if g.outdegree(v) != b.outdegree(bv) {
            return Err(FibrationError::LocalOutMismatch { vertex: v });
        }
        // Out-edges must map bijectively onto the base out-edges.
        let mut hit = std::collections::HashMap::new();
        for ge in g.out_edges(v) {
            *hit.entry(phi.edge_map[ge]).or_insert(0usize) += 1;
        }
        for be in b.out_edges(bv) {
            if hit.get(&be) != Some(&1) {
                return Err(FibrationError::LocalOutMismatch { vertex: v });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::generators;

    /// The classic R_6 -> R_3 ring fibration of §4.1.
    fn ring_fibration(n: usize, p: usize) -> (Digraph, Digraph, GraphMorphism) {
        assert_eq!(n % p, 0);
        let g = generators::directed_ring(n);
        let b = generators::directed_ring(p);
        // Edge k of directed_ring(m) is k -> (k+1) mod m.
        let phi = GraphMorphism {
            vertex_map: (0..n).map(|v| v % p).collect(),
            edge_map: (0..n).map(|e| e % p).collect(),
        };
        (g, b, phi)
    }

    #[test]
    fn ring_collapse_is_fibration() {
        let (g, b, phi) = ring_fibration(6, 3);
        verify_fibration(&phi, &g, &b, &[], &[]).unwrap();
        // Values repeating with period 3 are preserved.
        let gv: Vec<u64> = (0..6).map(|v| (v % 3) as u64).collect();
        let bv: Vec<u64> = (0..3).map(|v| v as u64).collect();
        verify_fibration(&phi, &g, &b, &gv, &bv).unwrap();
        // Non-periodic values break it.
        let bad: Vec<u64> = (0..6).map(|v| v as u64).collect();
        assert!(matches!(
            verify_fibration(&phi, &g, &b, &bad, &bv),
            Err(FibrationError::NotAMorphism(
                MorphismError::ValueMismatch { .. }
            ))
        ));
    }

    #[test]
    fn ring_collapse_is_covering() {
        let (g, b, phi) = ring_fibration(8, 4);
        verify_covering(&phi, &g, &b, &[], &[]).unwrap();
    }

    #[test]
    fn fibres_of_ring_collapse() {
        let (g, b, phi) = ring_fibration(6, 3);
        let fibres = phi.fibres(&b);
        assert_eq!(fibres, vec![vec![0, 3], vec![1, 4], vec![2, 5]]);
        let _ = g;
    }

    #[test]
    fn lift_valuation_copies_fibrewise() {
        let (_, b, phi) = ring_fibration(6, 3);
        let lifted = phi.lift_valuation(&["a", "b", "c"]);
        assert_eq!(lifted, vec!["a", "b", "c", "a", "b", "c"]);
        let _ = b;
    }

    #[test]
    fn non_surjective_rejected() {
        // Map a 1-cycle into a 2-cycle: a valid morphism but not epi.
        let g = generators::directed_ring(1); // vertex 0, self-edge 0
        let b = generators::directed_ring(2);
        let phi = GraphMorphism {
            vertex_map: vec![0],
            edge_map: vec![0],
        };
        // 0 -> 0 maps onto edge 0 -> 1: target mismatch, so not even a
        // morphism.
        assert!(phi.verify(&g, &b, &[], &[]).is_err());
    }

    #[test]
    fn star_collapse_is_fibration_but_not_covering() {
        // Star with 3 leaves: center fibre {0}, leaf fibre {1,2,3}.
        let g = generators::star(4);
        // Base: center c=0, leaf l=1; edges c->l, l->c... but each leaf
        // has one in-edge from the center, while the center has THREE
        // in-edges from leaves: base needs 3 parallel l->c edges.
        let mut b = Digraph::new(2);
        let e_cl = b.add_edge(0, 1); // center -> leaf (unique lift per leaf)
        let e0 = b.add_edge(1, 0);
        let e1 = b.add_edge(1, 0);
        let e2 = b.add_edge(1, 0);
        // g edges (star(4)): for leaf in 1..4: (0->leaf, leaf->0).
        let vertex_map = vec![0, 1, 1, 1];
        let mut edge_map = Vec::new();
        let leaf_edges = [e0, e1, e2];
        for &leaf_edge in &leaf_edges {
            edge_map.push(e_cl); // 0 -> leaf
            edge_map.push(leaf_edge); // leaf -> 0
        }
        let phi = GraphMorphism {
            vertex_map,
            edge_map,
        };
        verify_fibration(&phi, &g, &b, &[], &[]).unwrap();
        // Fibres have different cardinalities, so it cannot be a covering.
        assert!(matches!(
            verify_covering(&phi, &g, &b, &[], &[]),
            Err(FibrationError::LocalOutMismatch { .. })
        ));
    }

    #[test]
    fn broken_lifting_detected() {
        // Two parallel lifts of the same base edge into one vertex.
        let g = Digraph::from_edges(2, [(0, 1), (0, 1)]);
        let b = Digraph::from_edges(2, [(0, 1)]);
        let phi = GraphMorphism {
            vertex_map: vec![0, 1],
            edge_map: vec![0, 0], // both lifts claim the single base edge
        };
        assert!(matches!(
            verify_fibration(&phi, &g, &b, &[], &[]),
            Err(FibrationError::LiftingFailure { .. })
        ));
    }

    #[test]
    fn fibrations_compose() {
        // R_12 -> R_6 -> R_3: both legs are fibrations, so is the
        // composite, and it equals the direct R_12 -> R_3 collapse.
        let (g12, g6, phi_a) = ring_fibration(12, 6);
        let (_, g3, phi_b) = ring_fibration(6, 3);
        verify_fibration(&phi_a, &g12, &g6, &[], &[]).unwrap();
        verify_fibration(&phi_b, &g6, &g3, &[], &[]).unwrap();
        let composite = phi_a.then(&phi_b);
        verify_fibration(&composite, &g12, &g3, &[], &[]).unwrap();
        let (_, _, direct) = ring_fibration(12, 3);
        assert_eq!(composite.vertex_map, direct.vertex_map);
    }
}

//! The directed multigraph type.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// A vertex identifier: vertices of an `n`-vertex graph are `0..n`.
///
/// The paper writes `[n] = {1, ..., n}`; we use zero-based indices.
pub type Vertex = usize;

/// An edge identifier: index into [`Digraph::edges`].
pub type EdgeId = usize;

/// A directed edge of a multigraph, optionally labelled with an output
/// port.
///
/// Output ports implement the paper's *output port awareness* model
/// (§2.2): the outgoing edges of each vertex carry locally-unique labels
/// `0..outdegree`, and a sender may emit a different message on each port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Source vertex.
    pub src: Vertex,
    /// Target vertex.
    pub dst: Vertex,
    /// Output-port label, if the graph is port-colored.
    pub port: Option<u32>,
}

/// A directed multigraph on vertices `0..n()`, stored as an explicit edge
/// list whose adjacency is frozen into flat offset arrays on first query.
///
/// Parallel edges are permitted (minimum bases need them); self-loops are
/// ordinary edges. Use [`Digraph::with_self_loops`] to obtain the closure
/// the communication model requires (§2.1: "a self-loop at each vertex in
/// each graph").
///
/// The out- and in-edge lists, the port order and the self-loop check
/// are all built together, in one counting pass over the edge list, the
/// first time any of them is queried. Mutation only appends to the edge
/// list and drops that frozen adjacency, so build a graph completely
/// (or pass its edge list to [`Digraph::from_edge_vec`]) before querying
/// it.
///
/// ```
/// use kya_graph::Digraph;
/// let mut g = Digraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(2, 0);
/// assert_eq!(g.outdegree(0), 1);
/// assert_eq!(g.in_neighbors(1).collect::<Vec<_>>(), vec![0]);
/// ```
#[derive(Clone)]
pub struct Digraph {
    n: usize,
    edges: Vec<Edge>,
    // Derived from `edges` on first query and dropped by every mutation;
    // excluded from equality and serialization.
    adj: OnceLock<Adjacency>,
}

/// The frozen adjacency of a [`Digraph`]: compressed sparse rows over
/// edge ids, every list in ascending id (insertion) order. Ids and
/// offsets are `u32`, half the bytes of `usize`; freezing asserts that
/// the edge count fits.
#[derive(Clone, Debug)]
struct Adjacency {
    /// `out_ids[ports.start[v]..ports.start[v + 1]]` are the out-edges of
    /// `v`: the out-lists share the port order's offsets.
    out_ids: Vec<u32>,
    /// `in_ids[in_start[v]..in_start[v + 1]]` are the in-edges of `v`.
    in_start: Vec<u32>,
    in_ids: Vec<u32>,
    ports: PortOrder,
    /// Whether every vertex carries a self-loop.
    self_loop_closed: bool,
}

/// The canonical port order of a [`Digraph`], frozen with its adjacency
/// and returned by [`Digraph::port_ranks`].
///
/// The *port rank* of an edge is its index in the source vertex's
/// out-edge list sorted by `(port label, edge id)` — unlabelled edges
/// sort first, ties break by insertion order. This is the order in which
/// an output-port-aware sender's messages line up with its out-edges,
/// and the secondary key of the canonical ascending `(source id, port
/// rank)` delivery order every executor guarantees.
#[derive(Clone, Debug)]
pub struct PortOrder {
    /// `rank[e]` is the port rank of edge `e` among its source's out-edges.
    rank: Vec<u32>,
    /// All edge ids grouped by source vertex, in ascending rank order.
    sorted: Vec<EdgeId>,
    /// `sorted[start[v]..start[v + 1]]` are the out-edges of `v`.
    start: Vec<u32>,
}

/// `offsets[v] as usize..offsets[v + 1] as usize`.
fn span(offsets: &[u32], v: Vertex) -> Range<usize> {
    offsets[v] as usize..offsets[v + 1] as usize
}

impl Adjacency {
    /// Freeze the adjacency of `edges` over `n` vertices in one counting
    /// sort: count the degrees, turn the counts into list ends, then place
    /// the edge ids back to front so that every list ascends.
    fn build(n: usize, edges: &[Edge]) -> Adjacency {
        let m = edges.len();
        assert!(
            m <= u32::MAX as usize,
            "{m} edges exceed the adjacency's u32 edge ids"
        );
        let mut start = vec![0u32; n + 1];
        let mut in_start = vec![0u32; n + 1];
        let mut looped = vec![false; n];
        let mut labelled = false;
        for e in edges {
            start[e.src] += 1;
            in_start[e.dst] += 1;
            if e.src == e.dst {
                looped[e.src] = true;
            }
            labelled |= e.port.is_some();
        }
        for offsets in [&mut start, &mut in_start] {
            let mut end = 0;
            for o in offsets.iter_mut() {
                end += *o;
                *o = end;
            }
        }
        let mut out_ids = vec![0u32; m];
        let mut in_ids = vec![0u32; m];
        for (id, e) in edges.iter().enumerate().rev() {
            start[e.src] -= 1;
            out_ids[start[e.src] as usize] = id as u32;
            in_start[e.dst] -= 1;
            in_ids[in_start[e.dst] as usize] = id as u32;
        }

        // Port ranks. An unlabelled out-list is already in rank order; a
        // stable sort by label keeps equal labels in ascending id.
        let mut rank = vec![0u32; m];
        let mut sorted: Vec<EdgeId> = out_ids.iter().map(|&e| e as EdgeId).collect();
        for v in 0..n {
            let list = &mut sorted[span(&start, v)];
            if labelled {
                list.sort_by_key(|&e| edges[e].port);
            }
            for (k, &e) in list.iter().enumerate() {
                rank[e] = k as u32;
            }
        }
        Adjacency {
            out_ids,
            in_start,
            in_ids,
            ports: PortOrder {
                rank,
                sorted,
                start,
            },
            self_loop_closed: looped.iter().all(|&l| l),
        }
    }

    fn out_ids(&self, v: Vertex) -> &[u32] {
        &self.out_ids[span(&self.ports.start, v)]
    }

    fn in_ids(&self, v: Vertex) -> &[u32] {
        &self.in_ids[span(&self.in_start, v)]
    }
}

impl PortOrder {
    /// Port ranks indexed by edge id.
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// The out-edges of `v` in ascending port-rank order.
    pub fn out_edges_ranked(&self, v: Vertex) -> &[EdgeId] {
        &self.sorted[span(&self.start, v)]
    }
}

impl Digraph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Digraph {
        Digraph::from_checked_edges(n, Vec::new())
    }

    /// Build a graph from an edge list over `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (Vertex, Vertex)>) -> Digraph {
        let edges = edges
            .into_iter()
            .map(|(src, dst)| Edge {
                src,
                dst,
                port: None,
            })
            .collect();
        Digraph::from_edge_vec(n, edges)
    }

    /// Build a graph over `n` vertices that owns `edges` as its edge list:
    /// edge `k` of the vector gets id `k`. This is the bulk constructor;
    /// the adjacency is frozen once, on first query.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edge_vec(n: usize, edges: Vec<Edge>) -> Digraph {
        assert!(
            edges.iter().all(|e| e.src < n && e.dst < n),
            "edge endpoint out of range"
        );
        Digraph::from_checked_edges(n, edges)
    }

    /// [`Digraph::from_edge_vec`] for edges whose endpoints are known to
    /// lie in `0..n`.
    fn from_checked_edges(n: usize, edges: Vec<Edge>) -> Digraph {
        Digraph {
            n,
            edges,
            adj: OnceLock::new(),
        }
    }

    /// The frozen adjacency, built on first use.
    fn adj(&self) -> &Adjacency {
        self.adj
            .get_or_init(|| Adjacency::build(self.n, &self.edges))
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges (counting multiplicities).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Append an unlabelled edge; returns its id.
    ///
    /// Appending drops the frozen adjacency, so a query between two
    /// appends rebuilds it in `O(n + m)`: add every edge before querying.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, src: Vertex, dst: Vertex) -> EdgeId {
        self.add_edge_with_port(src, dst, None)
    }

    /// Append an edge with an optional port label; returns its id.
    ///
    /// Like [`Digraph::add_edge`], this drops the frozen adjacency.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge_with_port(&mut self, src: Vertex, dst: Vertex, port: Option<u32>) -> EdgeId {
        assert!(src < self.n && dst < self.n, "edge endpoint out of range");
        let id = self.edges.len();
        self.edges.push(Edge { src, dst, port });
        self.adj.take();
        id
    }

    /// The canonical port order of this graph, frozen with its adjacency.
    ///
    /// Every execution path (sequential, sharded, observed, faulty) and
    /// the CSR routing plan derive their delivery order from this single
    /// accessor, so the canonical ascending `(source id, port rank)`
    /// contract has exactly one definition.
    pub fn port_ranks(&self) -> &PortOrder {
        &self.adj().ports
    }

    /// Outdegree of `v` (counting multiplicities and self-loops).
    pub fn outdegree(&self, v: Vertex) -> usize {
        self.adj().out_ids(v).len()
    }

    /// Indegree of `v` (counting multiplicities and self-loops).
    pub fn indegree(&self, v: Vertex) -> usize {
        self.adj().in_ids(v).len()
    }

    /// Ids of the edges leaving `v`, in ascending id order.
    pub fn out_edges(&self, v: Vertex) -> impl Iterator<Item = EdgeId> + '_ {
        self.adj().out_ids(v).iter().map(|&e| e as EdgeId)
    }

    /// Ids of the edges entering `v`, in ascending id order.
    pub fn in_edges(&self, v: Vertex) -> impl Iterator<Item = EdgeId> + '_ {
        self.adj().in_ids(v).iter().map(|&e| e as EdgeId)
    }

    /// The in-list offsets: `v`'s in-edges are at positions
    /// `in_offsets()[v]..in_offsets()[v + 1]` of the vertex-major
    /// concatenation of every in-list.
    pub(crate) fn in_offsets(&self) -> &[u32] {
        &self.adj().in_start
    }

    /// Where `v`'s in-edges sit in the concatenation of every vertex's
    /// [`Digraph::in_edges`] list in vertex order: an array with one entry
    /// per in-edge, laid out that way, is sliced per vertex by this range.
    pub fn in_range(&self, v: Vertex) -> Range<usize> {
        span(self.in_offsets(), v)
    }

    /// Targets of edges leaving `v` (with multiplicity).
    pub fn out_neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.out_edges(v).map(move |e| self.edges[e].dst)
    }

    /// Sources of edges entering `v` (with multiplicity).
    pub fn in_neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.in_edges(v).map(move |e| self.edges[e].src)
    }

    /// Number of parallel `src -> dst` edges.
    pub fn multiplicity(&self, src: Vertex, dst: Vertex) -> usize {
        self.out_neighbors(src).filter(|&w| w == dst).count()
    }

    /// Whether `v` carries at least one self-loop.
    pub fn has_self_loop(&self, v: Vertex) -> bool {
        self.out_neighbors(v).any(|w| w == v)
    }

    /// Whether every vertex carries a self-loop, as the communication
    /// model of §2.1 requires. Read from the frozen adjacency, so checking
    /// a graph costs one scan of its edges however often it is asked.
    pub fn is_self_loop_closed(&self) -> bool {
        self.adj().self_loop_closed
    }

    /// A copy with a self-loop added at every vertex that lacks one, as
    /// the communication model of §2.1 requires. The new loops follow the
    /// existing edges, in vertex order.
    pub fn with_self_loops(&self) -> Digraph {
        let mut looped = vec![false; self.n];
        for e in self.edges.iter().filter(|e| e.src == e.dst) {
            looped[e.src] = true;
        }
        let missing = looped.iter().filter(|&&l| !l).count();
        if missing == 0 {
            return self.clone();
        }
        let mut edges = Vec::with_capacity(self.edges.len() + missing);
        edges.extend_from_slice(&self.edges);
        edges.extend((0..self.n).filter(|&v| !looped[v]).map(|v| Edge {
            src: v,
            dst: v,
            port: None,
        }));
        Digraph::from_checked_edges(self.n, edges)
    }

    /// Whether the *edge relation* is symmetric: `(i, j)` present iff
    /// `(j, i)` present (set semantics, ignoring multiplicity), the
    /// condition defining the paper's class of symmetric networks.
    pub fn is_bidirectional(&self) -> bool {
        self.edges
            .iter()
            .all(|e| self.multiplicity(e.dst, e.src) > 0)
    }

    /// The transpose graph (all edges reversed; port labels dropped since
    /// they are meaningless after reversal).
    pub fn transpose(&self) -> Digraph {
        let edges = self.edges.iter().map(|e| Edge {
            src: e.dst,
            dst: e.src,
            port: None,
        });
        Digraph::from_checked_edges(self.n, edges.collect())
    }

    /// Assign canonical output ports: the outgoing edges of each vertex
    /// are labelled `0..outdegree` in insertion order.
    ///
    /// This models a static network whose output ports are fixed once and
    /// for all, the setting in which the paper's output port awareness is
    /// meaningful (§2.2).
    pub fn with_canonical_ports(&self) -> Digraph {
        let mut next = vec![0u32; self.n];
        let edges = self.edges.iter().map(|e| {
            let port = next[e.src];
            next[e.src] += 1;
            Edge {
                port: Some(port),
                ..*e
            }
        });
        Digraph::from_checked_edges(self.n, edges.collect())
    }

    /// The `n x n` matrix of edge multiplicities: entry `(i, j)` counts
    /// `i -> j` edges.
    pub fn multiplicity_matrix(&self) -> Vec<Vec<usize>> {
        let mut m = vec![vec![0usize; self.n]; self.n];
        for e in &self.edges {
            m[e.src][e.dst] += 1;
        }
        m
    }

    /// Relabel vertices by `perm` (vertex `v` becomes `perm[v]`); used to
    /// realize graph isomorphisms.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[Vertex]) -> Digraph {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        let mut seen = vec![false; self.n];
        for &p in perm {
            assert!(p < self.n && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let edges = self.edges.iter().map(|e| Edge {
            src: perm[e.src],
            dst: perm[e.dst],
            port: e.port,
        });
        Digraph::from_checked_edges(self.n, edges.collect())
    }
}

// Equality and serialization cover only the vertex count and the edge
// list: the frozen adjacency is a pure function of the two.
impl PartialEq for Digraph {
    fn eq(&self, other: &Digraph) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

impl Eq for Digraph {}

impl Serialize for Digraph {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("n".to_string(), self.n.to_value()),
            ("edges".to_string(), self.edges.to_value()),
        ])
    }
}

/// Reads `n` and `edges`, rejecting an endpoint outside `0..n`. Other
/// fields, such as the `out_adj`/`in_adj` lists older versions wrote, are
/// ignored: the adjacency is always rebuilt from the edges.
impl Deserialize for Digraph {
    fn from_value(v: &serde::Value) -> Result<Digraph, serde::Error> {
        let n: usize = Deserialize::from_value(v.field("n")?)?;
        let edges: Vec<Edge> = Deserialize::from_value(v.field("edges")?)?;
        if let Some(e) = edges.iter().find(|e| e.src >= n || e.dst >= n) {
            return Err(serde::Error::custom(format!(
                "edge {}->{} has an endpoint outside 0..{n}",
                e.src, e.dst
            )));
        }
        Ok(Digraph::from_checked_edges(n, edges))
    }
}

impl fmt::Debug for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digraph(n={}, edges=[", self.n)?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match e.port {
                Some(p) => write!(f, "{}-[{}]->{}", e.src, p, e.dst)?,
                None => write!(f, "{}->{}", e.src, e.dst)?,
            }
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefGraph;
    use crate::RoutingPlan;
    use proptest::prelude::*;

    #[test]
    fn basic_adjacency() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.outdegree(0), 2);
        assert_eq!(g.indegree(1), 2);
        assert_eq!(g.multiplicity(0, 1), 2);
        assert_eq!(g.multiplicity(1, 0), 0);
        assert_eq!(g.out_neighbors(0).collect::<Vec<_>>(), vec![1, 1]);
    }

    #[test]
    fn self_loops() {
        let g = Digraph::from_edges(2, [(0, 1)]);
        assert!(!g.has_self_loop(0));
        let closed = g.with_self_loops();
        assert!(closed.has_self_loop(0) && closed.has_self_loop(1));
        assert_eq!(closed.edge_count(), 3);
        // Idempotent.
        assert_eq!(closed.with_self_loops().edge_count(), 3);
    }

    #[test]
    fn bidirectional_check() {
        let sym = Digraph::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert!(sym.is_bidirectional());
        let asym = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(!asym.is_bidirectional());
        // Multiplicity does not matter for the set-semantics check.
        let multi = Digraph::from_edges(2, [(0, 1), (0, 1), (1, 0)]);
        assert!(multi.is_bidirectional());
    }

    #[test]
    fn transpose_and_relabel() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let t = g.transpose();
        assert_eq!(t.multiplicity(1, 0), 1);
        assert_eq!(t.multiplicity(2, 1), 1);
        let r = g.relabel(&[2, 0, 1]);
        assert_eq!(r.multiplicity(2, 0), 1);
        assert_eq!(r.multiplicity(0, 1), 1);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let g = Digraph::new(2);
        let _ = g.relabel(&[0, 0]);
    }

    #[test]
    fn canonical_ports() {
        let g = Digraph::from_edges(3, [(0, 1), (0, 2), (1, 0)]).with_canonical_ports();
        let ports: Vec<Option<u32>> = g.out_edges(0).map(|e| g.edges()[e].port).collect();
        assert_eq!(ports, vec![Some(0), Some(1)]);
    }

    #[test]
    fn port_ranks_follow_labels_then_insertion_order() {
        // Vertex 0 has three out-edges: ids 0 (port 1), 1 (port 0),
        // 2 (unlabelled). Unlabelled sorts first, then by label.
        let mut g = Digraph::new(3);
        g.add_edge_with_port(0, 1, Some(1));
        g.add_edge_with_port(0, 2, Some(0));
        g.add_edge(0, 0);
        g.add_edge(1, 2);
        let order = g.port_ranks();
        assert_eq!(order.ranks(), &[2, 1, 0, 0]);
        assert_eq!(order.out_edges_ranked(0), &[2, 1, 0]);
        assert_eq!(order.out_edges_ranked(1), &[3]);
        assert_eq!(order.out_edges_ranked(2), &[] as &[EdgeId]);
    }

    #[test]
    fn port_ranks_cache_invalidates_on_mutation() {
        let mut g = Digraph::from_edges(2, [(0, 1)]);
        assert_eq!(g.port_ranks().ranks(), &[0]);
        g.add_edge(0, 1);
        assert_eq!(g.port_ranks().ranks(), &[0, 1]);
        let ported = g.with_canonical_ports();
        assert_eq!(ported.port_ranks().ranks(), &[0, 1]);
        // Cloning carries (or rebuilds) a consistent cache.
        let clone = ported.clone();
        assert_eq!(clone.port_ranks().ranks(), ported.port_ranks().ranks());
    }

    #[test]
    fn digraph_equality_and_json_ignore_the_cache() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let h = g.clone();
        let _ = h.port_ranks(); // populate only one side's cache
        assert_eq!(g, h);
        let json = serde::to_json_string(&h);
        assert!(!json.contains("port_order"), "{json}");
        assert!(!json.contains("out_adj"), "{json}");
        let back: Digraph = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, g);
        assert_eq!(back.port_ranks().ranks(), g.port_ranks().ranks());
    }

    #[test]
    fn json_rejects_an_endpoint_out_of_range() {
        let json =
            r#"{"n":2,"edges":[{"src":0,"dst":1,"port":null},{"src":1,"dst":2,"port":null}]}"#;
        let err = serde::from_json_str::<Digraph>(json).expect_err("dst 2 is not below n = 2");
        assert!(err.to_string().contains("1->2"), "{err}");
        // Also in the older format, whose adjacency lists a crafted file
        // can make look plausible.
        let old = r#"{"n":2,"edges":[{"src":0,"dst":1,"port":null},{"src":1,"dst":2,"port":null}],"out_adj":[[0],[1]],"in_adj":[[],[0]]}"#;
        assert!(serde::from_json_str::<Digraph>(old).is_err());
    }

    #[test]
    fn json_rebuilds_the_adjacency_from_the_edges() {
        // The older format also wrote `out_adj`/`in_adj`; here they
        // contradict the one edge 0->1 and must not be believed.
        let json = r#"{"n":2,"edges":[{"src":0,"dst":1,"port":null}],"out_adj":[[],[0]],"in_adj":[[0],[]]}"#;
        let g: Digraph = serde::from_json_str(json).expect("old format parses");
        assert_eq!(g, Digraph::from_edges(2, [(0, 1)]));
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.in_edges(1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.outdegree(1), 0);
        assert_eq!(g.indegree(0), 0);
    }

    #[test]
    fn self_loop_closure_flag() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 1)]);
        assert!(!g.is_self_loop_closed());
        assert!(g.has_self_loop(1) && !g.has_self_loop(2));
        let closed = g.with_self_loops();
        assert!(closed.is_self_loop_closed());
        // Missing loops follow the existing edges in vertex order.
        assert_eq!(
            closed.edges()[2..],
            [(0, 0), (2, 2)].map(|(src, dst)| Edge {
                src,
                dst,
                port: None
            })
        );
        assert!(Digraph::new(0).is_self_loop_closed());
    }

    #[test]
    fn multiplicity_matrix() {
        let g = Digraph::from_edges(2, [(0, 1), (0, 1), (1, 1)]);
        assert_eq!(g.multiplicity_matrix(), vec![vec![0, 2], vec![0, 1]]);
    }

    /// Port codes: mostly unlabelled, the largest label, and small ones.
    fn port(code: u32) -> Option<u32> {
        match code {
            0 | 1 => None,
            2 => Some(u32::MAX),
            c => Some(c - 3),
        }
    }

    /// Every adjacency query of `g` answers as the reference does.
    fn agree(g: &Digraph, r: &RefGraph) {
        assert_eq!(g.edges(), &r.edges[..]);
        let (rank, ranked) = r.port_order();
        assert_eq!(g.port_ranks().ranks(), &rank[..]);
        let plan = RoutingPlan::new(g);
        let inboxes = r.inbox_sources();
        for v in 0..g.n() {
            assert_eq!(&g.out_edges(v).collect::<Vec<_>>(), &r.out_adj[v]);
            assert_eq!(&g.in_edges(v).collect::<Vec<_>>(), &r.in_adj[v]);
            assert_eq!(g.out_neighbors(v).collect::<Vec<_>>(), r.out_neighbors(v));
            assert_eq!(g.in_neighbors(v).collect::<Vec<_>>(), r.in_neighbors(v));
            assert_eq!(g.port_ranks().out_edges_ranked(v), &ranked[v][..]);
            assert_eq!(g.has_self_loop(v), r.has_self_loop(v));
            assert_eq!(plan.sources_of(v), &inboxes[v][..]);
            assert_eq!(plan.outdegree(v), r.out_adj[v].len());
            for w in 0..g.n() {
                assert_eq!(g.multiplicity(v, w), r.multiplicity(v, w));
            }
        }
        let closed = (0..g.n()).all(|v| r.has_self_loop(v));
        assert_eq!(g.is_self_loop_closed(), closed);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The counting-sort adjacency, its port order and the scatter
        /// routing plan agree exactly with the per-vertex reference on
        /// random multigraphs with parallel edges, loops and mixed port
        /// labels, queried between appends, and after every bulk copy.
        #[test]
        fn frozen_adjacency_matches_the_reference(
            n in 1usize..=64,
            draws in proptest::collection::vec(
                (0usize..64, 0usize..64, 0u32..7, 0u8..8),
                0..160,
            ),
        ) {
            let mut g = Digraph::new(n);
            let mut r = RefGraph::new(n);
            for &(src, dst, code, query) in &draws {
                let (src, dst, port) = (src % n, dst % n, port(code));
                g.add_edge_with_port(src, dst, port);
                r.add_edge(src, dst, port);
                if query == 0 {
                    agree(&g, &r);
                }
            }
            agree(&g, &r);
            prop_assert_eq!(&Digraph::from_edge_vec(n, r.edges.clone()), &g);

            let mut looped = RefGraph::from_edges(n, &r.edges);
            for v in 0..n {
                if !r.has_self_loop(v) {
                    looped.add_edge(v, v, None);
                }
            }
            agree(&g.with_self_loops(), &looped);

            let mut canonical = r.edges.clone();
            for out in &r.out_adj {
                for (k, &e) in out.iter().enumerate() {
                    canonical[e].port = Some(k as u32);
                }
            }
            agree(&g.with_canonical_ports(), &RefGraph::from_edges(n, &canonical));

            let reversed: Vec<Edge> = r.edges.iter()
                .map(|e| Edge { src: e.dst, dst: e.src, port: None })
                .collect();
            agree(&g.transpose(), &RefGraph::from_edges(n, &reversed));

            let perm: Vec<Vertex> = (0..n).map(|v| (v * 7 + 3) % n).rev().collect();
            if perm.iter().collect::<std::collections::HashSet<_>>().len() == n {
                let moved: Vec<Edge> = r.edges.iter()
                    .map(|e| Edge { src: perm[e.src], dst: perm[e.dst], port: e.port })
                    .collect();
                agree(&g.relabel(&perm), &RefGraph::from_edges(n, &moved));
            }
        }
    }
}

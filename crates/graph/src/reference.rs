//! The per-vertex `Vec<Vec<EdgeId>>` adjacency, the sorting port order
//! and the sorting routing plan that the frozen CSR adjacency replaced,
//! kept as the referee of its differential tests.

use crate::digraph::{Edge, EdgeId, Vertex};

/// A multigraph whose adjacency lists grow one edge at a time.
pub(crate) struct RefGraph {
    pub(crate) edges: Vec<Edge>,
    pub(crate) out_adj: Vec<Vec<EdgeId>>,
    pub(crate) in_adj: Vec<Vec<EdgeId>>,
}

impl RefGraph {
    pub(crate) fn new(n: usize) -> RefGraph {
        RefGraph {
            edges: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
        }
    }

    pub(crate) fn from_edges(n: usize, edges: &[Edge]) -> RefGraph {
        let mut r = RefGraph::new(n);
        for e in edges {
            r.add_edge(e.src, e.dst, e.port);
        }
        r
    }

    pub(crate) fn add_edge(&mut self, src: Vertex, dst: Vertex, port: Option<u32>) {
        let id = self.edges.len();
        self.edges.push(Edge { src, dst, port });
        self.out_adj[src].push(id);
        self.in_adj[dst].push(id);
    }

    pub(crate) fn out_neighbors(&self, v: Vertex) -> Vec<Vertex> {
        self.out_adj[v].iter().map(|&e| self.edges[e].dst).collect()
    }

    pub(crate) fn in_neighbors(&self, v: Vertex) -> Vec<Vertex> {
        self.in_adj[v].iter().map(|&e| self.edges[e].src).collect()
    }

    pub(crate) fn multiplicity(&self, src: Vertex, dst: Vertex) -> usize {
        self.out_adj[src]
            .iter()
            .filter(|&&e| self.edges[e].dst == dst)
            .count()
    }

    pub(crate) fn has_self_loop(&self, v: Vertex) -> bool {
        self.out_adj[v].iter().any(|&e| self.edges[e].dst == v)
    }

    /// Port ranks by edge id, and every out-list in rank order: each
    /// out-list sorted by `(port, edge id)`.
    pub(crate) fn port_order(&self) -> (Vec<u32>, Vec<Vec<EdgeId>>) {
        let mut rank = vec![0u32; self.edges.len()];
        let mut ranked = Vec::with_capacity(self.out_adj.len());
        for out in &self.out_adj {
            let mut ports: Vec<(Option<u32>, EdgeId)> =
                out.iter().map(|&e| (self.edges[e].port, e)).collect();
            ports.sort_unstable();
            for (k, &(_, e)) in ports.iter().enumerate() {
                rank[e] = k as u32;
            }
            ranked.push(ports.into_iter().map(|(_, e)| e).collect());
        }
        (rank, ranked)
    }

    /// Every inbox's sources in canonical delivery order: each in-list
    /// sorted by `(source id, port rank)`.
    pub(crate) fn inbox_sources(&self) -> Vec<Vec<u32>> {
        let (rank, _) = self.port_order();
        self.in_adj
            .iter()
            .map(|ins| {
                let mut keyed: Vec<(u32, u32)> = ins
                    .iter()
                    .map(|&e| (self.edges[e].src as u32, rank[e]))
                    .collect();
                keyed.sort_unstable();
                keyed.into_iter().map(|(src, _)| src).collect()
            })
            .collect()
    }
}

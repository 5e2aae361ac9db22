//! CSR routing plans: the canonical delivery order of a [`Digraph`],
//! frozen into flat offset arrays.
//!
//! Every executor in this workspace delivers each inbox in ascending
//! `(source id, port rank)` order. The boxed executors re-derive that
//! order every round by sorting per-destination message lists; a
//! [`RoutingPlan`] instead fixes it **once** at construction and records,
//! for every inbox slot, the source vertex that feeds it. Isotropic
//! algorithms send one message per source per round, so a round of
//! routing degenerates to an indexed read of a per-vertex message
//! column, `inbox[k] = msgs[sources[k]]`: zero comparisons, zero
//! allocation, and a layout that shards over contiguous vertex ranges —
//! the backbone of the flat executor's million-agent hot path.
//!
//! Layout (offsets in *inbox slots*, one per in-edge, not bytes):
//!
//! - `inbox_start[v]..inbox_start[v + 1]` — the slots of `v`'s inbox, in
//!   canonical `(source id, port rank)` order.
//! - `sources[k]` — the source vertex of inbox slot `k`. A parallel edge
//!   appears once per edge, in rank order.
//! - `outdegree[v]` — the out-degree of `v` (the divisor of isotropic
//!   share-splitting algorithms).

use crate::digraph::{Digraph, Vertex};
use std::ops::Range;

/// A precomputed routing plan realizing the canonical delivery order of
/// one [`Digraph`]; see the module docs for the layout.
#[derive(Clone, Debug)]
pub struct RoutingPlan {
    inbox_start: Vec<usize>,
    sources: Vec<u32>,
    outdegree: Vec<u32>,
}

impl RoutingPlan {
    /// Freeze the canonical routing of `g` into a plan.
    ///
    /// The inbox offsets are the graph's in-list offsets. The sources are
    /// gathered without sorting: scattering every vertex's out-edges in
    /// ascending (source id, port rank) order into their targets' inboxes
    /// fills each inbox in exactly the executors' delivery order.
    ///
    /// # Panics
    ///
    /// Panics if a vertex id does not fit in a `u32` (the plan's index
    /// width, chosen to halve the bytes a round reads).
    pub fn new(g: &Digraph) -> RoutingPlan {
        let n = g.n();
        assert!(
            n <= u32::MAX as usize + 1,
            "{n} vertices exceed the plan's u32 vertex ids"
        );
        let order = g.port_ranks();
        let edges = g.edges();
        let in_offsets = g.in_offsets();
        let mut fill = in_offsets[..n].to_vec();
        let mut sources = vec![0u32; g.edge_count()];
        let mut outdegree = Vec::with_capacity(n);
        for src in 0..n {
            let out = order.out_edges_ranked(src);
            // The frozen adjacency holds at most u32::MAX edges.
            outdegree.push(out.len() as u32);
            for &e in out {
                let slot = &mut fill[edges[e].dst];
                sources[*slot as usize] = src as u32;
                *slot += 1;
            }
        }
        RoutingPlan {
            inbox_start: in_offsets.iter().map(|&k| k as usize).collect(),
            sources,
            outdegree,
        }
    }

    /// Number of vertices the plan was built for.
    pub fn n(&self) -> usize {
        self.outdegree.len()
    }

    /// Total number of inbox slots (= the graph's edge count).
    pub fn slots(&self) -> usize {
        self.sources.len()
    }

    /// The inbox slots of vertex `v`, in canonical order.
    pub fn inbox_range(&self, v: Vertex) -> Range<usize> {
        self.inbox_start[v]..self.inbox_start[v + 1]
    }

    /// The source vertex of every inbox slot of `v`, in canonical
    /// delivery order.
    pub fn sources_of(&self, v: Vertex) -> &[u32] {
        &self.sources[self.inbox_range(v)]
    }

    /// Out-degree of vertex `v`.
    pub fn outdegree(&self, v: Vertex) -> usize {
        self.outdegree[v] as usize
    }

    /// In-degree of vertex `v` (= its inbox-slot count).
    pub fn indegree(&self, v: Vertex) -> usize {
        self.inbox_start[v + 1] - self.inbox_start[v]
    }

    /// Inbox slots owned by the contiguous vertex range — the number of
    /// messages a flat-executor shard over that range folds per round.
    pub fn inbox_slots_in(&self, range: Range<Vertex>) -> usize {
        self.inbox_start[range.end] - self.inbox_start[range.start]
    }

    /// Resident size of the plan's arrays in bytes.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<usize>() * self.inbox_start.len()
            + std::mem::size_of::<u32>() * (self.sources.len() + self.outdegree.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_replays_the_canonical_delivery_order() {
        // In-star on 4 vertices with self-loops: every spoke sends to the
        // hub (vertex 0), sources in descending insertion order.
        let mut g = Digraph::new(4);
        for v in (1..4).rev() {
            g.add_edge(v, 0);
        }
        let g = g.with_self_loops();
        let plan = RoutingPlan::new(&g);
        assert_eq!(plan.n(), 4);
        assert_eq!(plan.slots(), g.edge_count());
        // Hub inbox: sources 0 (self-loop), 1, 2, 3 in ascending order
        // regardless of edge insertion order.
        assert_eq!(plan.sources_of(0), &[0, 1, 2, 3]);
        // Every in-edge of every vertex is fed by its own source.
        let edges = g.edges();
        for v in 0..4 {
            assert_eq!(plan.inbox_range(v).len(), g.indegree(v));
            for &src in plan.sources_of(v) {
                assert!(edges.iter().any(|e| e.src == src as usize && e.dst == v));
            }
        }
    }

    #[test]
    fn shard_accounting_partitions_the_slots() {
        let mut g = Digraph::new(5);
        for v in (1..5).rev() {
            g.add_edge(v, 0);
        }
        g.add_edge(0, 3);
        let g = g.with_self_loops();
        let plan = RoutingPlan::new(&g);
        for v in 0..5 {
            assert_eq!(plan.outdegree(v), g.outdegree(v));
            assert_eq!(plan.indegree(v), g.indegree(v));
            assert_eq!(plan.inbox_slots_in(v..v + 1), plan.inbox_range(v).len());
        }
        // Any split of 0..n partitions the slot total exactly.
        for cut in 0..=5 {
            assert_eq!(
                plan.inbox_slots_in(0..cut) + plan.inbox_slots_in(cut..5),
                plan.slots()
            );
        }
        assert_eq!(plan.inbox_slots_in(2..2), 0);
    }

    #[test]
    fn parallel_edges_get_one_slot_each_in_rank_order() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 0);
        g.add_edge(1, 1);
        let plan = RoutingPlan::new(&g);
        // Vertex 1's inbox: the two parallel 0->1 edges, then the
        // self-loop; vertex 0 sends over three out-edges.
        assert_eq!(plan.sources_of(1), &[0, 0, 1]);
        assert_eq!(plan.outdegree(0), 3);
        assert_eq!(plan.outdegree(1), 1);
    }

    #[test]
    fn resident_bytes_counts_offsets_and_u32_indices() {
        let g = crate::generators::directed_ring(10).with_self_loops();
        let plan = RoutingPlan::new(&g);
        // 11 usize offsets + 20 u32 sources + 10 u32 outdegrees.
        assert_eq!(
            plan.resident_bytes(),
            11 * std::mem::size_of::<usize>() + 30 * 4
        );
    }
}

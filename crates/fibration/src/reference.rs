//! The straightforward minimum-base construction that the flat
//! [`coarsest_equitable_partition`](crate::coarsest_equitable_partition)
//! and [`MinimumBase::compute`](crate::MinimumBase::compute) replaced,
//! kept as the referee of their differential tests: per-vertex signature
//! vectors interned in a `BTreeMap`, and a quotient that hands out base
//! edges through a per-vertex `HashMap` cursor.

use crate::morphism::GraphMorphism;
use crate::refine::Partition;
use kya_graph::{Digraph, Vertex};
use std::collections::{BTreeMap, HashMap};

/// First-occurrence canonical ids through a `BTreeMap`.
fn canonical(ids: &[usize]) -> Vec<usize> {
    let mut remap: BTreeMap<usize, usize> = BTreeMap::new();
    ids.iter()
        .map(|&id| {
            let next = remap.len();
            *remap.entry(id).or_insert(next)
        })
        .collect()
}

/// The coarsest in-equitable partition refining `init`.
pub(crate) fn partition(g: &Digraph, init: &[u64]) -> Partition {
    assert_eq!(init.len(), g.n(), "one initial color per vertex");
    let mut class_of: Vec<usize> = {
        let mut remap: BTreeMap<u64, usize> = BTreeMap::new();
        let mut sorted: Vec<u64> = init.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (i, c) in sorted.into_iter().enumerate() {
            remap.insert(c, i);
        }
        init.iter().map(|c| remap[c]).collect()
    };
    let mut num_classes = class_of.iter().copied().max().map_or(0, |m| m + 1);

    type Signature = (usize, Vec<(usize, Option<u32>)>);
    loop {
        let mut signatures: Vec<Signature> = Vec::with_capacity(g.n());
        for v in 0..g.n() {
            let mut profile: Vec<(usize, Option<u32>)> = g
                .in_edges(v)
                .map(|e| {
                    let edge = g.edges()[e];
                    (class_of[edge.src], edge.port)
                })
                .collect();
            profile.sort_unstable();
            signatures.push((class_of[v], profile));
        }
        let mut remap: BTreeMap<&Signature, usize> = BTreeMap::new();
        for sig in &signatures {
            let next = remap.len();
            remap.entry(sig).or_insert(next);
        }
        if remap.len() == num_classes {
            break;
        }
        num_classes = remap.len();
        class_of = signatures.iter().map(|sig| remap[sig]).collect();
    }
    let canon = canonical(&class_of);
    let partition = Partition::from_class_ids(&canon);
    assert_eq!(partition.classes(), &canon[..], "ids already canonical");
    partition
}

/// The minimum base: partition, base graph, base values and projection.
pub(crate) fn minimum_base(
    g: &Digraph,
    values: &[u64],
) -> (Partition, Digraph, Vec<u64>, GraphMorphism) {
    let partition = partition(g, values);
    let members = partition.members();

    let mut base = Digraph::new(partition.num_classes());
    let mut base_edges_by_group: HashMap<(usize, usize, Option<u32>), Vec<usize>> = HashMap::new();
    for (j, mem) in members.iter().enumerate() {
        let rep: Vertex = mem[0];
        for e in g.in_edges(rep) {
            let edge = g.edges()[e];
            let src_class = partition.class_of(edge.src);
            let id = base.add_edge_with_port(src_class, j, edge.port);
            base_edges_by_group
                .entry((src_class, j, edge.port))
                .or_default()
                .push(id);
        }
    }

    let mut edge_map = vec![usize::MAX; g.edge_count()];
    for (j, mem) in members.iter().enumerate() {
        for &v in mem {
            let mut cursor: HashMap<(usize, usize, Option<u32>), usize> = HashMap::new();
            for e in g.in_edges(v) {
                let edge = g.edges()[e];
                let key = (partition.class_of(edge.src), j, edge.port);
                let k = cursor.entry(key).or_insert(0);
                let pool = base_edges_by_group
                    .get(&key)
                    .expect("equitable partition guarantees matching groups");
                edge_map[e] = pool[*k];
                *k += 1;
            }
        }
    }

    let base_values: Vec<u64> = members.iter().map(|mem| values[mem[0]]).collect();
    let projection = GraphMorphism {
        vertex_map: partition.classes().to_vec(),
        edge_map,
    };
    (partition, base, base_values, projection)
}

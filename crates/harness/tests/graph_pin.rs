//! Pins the exact edge lists and routing plans the graph grammar
//! produces: one label of every `parse_graph` family, and the seeded
//! random families at three seeds each.
//!
//! Every executor, oracle digest and sweep output is a function of a
//! graph's edge ids, its out/in order and its port ranks, so a change to
//! how graphs are built or stored must leave these digests unchanged.

use kya_graph::{Digraph, RoutingPlan};
use kya_harness::spec::parse_graph;
use kya_runtime::bits::Fnv1a;

/// FNV-1a over the `(src, dst, port)` edge list of `g` and of its
/// self-loop closure, then the closure's routing plan: every vertex's
/// out-degree and its inbox sources in canonical delivery order.
fn graph_digest(g: &Digraph) -> u64 {
    fn feed_edges(h: &mut Fnv1a, g: &Digraph) {
        h.write_word(g.n() as u64);
        h.write_word(g.edge_count() as u64);
        for e in g.edges() {
            h.write_word(e.src as u64);
            h.write_word(e.dst as u64);
            h.write_word(e.port.map_or(0, |p| u64::from(p) + 1));
        }
    }
    let mut h = Fnv1a::new();
    feed_edges(&mut h, g);
    let looped = g.with_self_loops();
    feed_edges(&mut h, &looped);
    let plan = RoutingPlan::new(&looped);
    for v in 0..looped.n() {
        h.write_word(plan.outdegree(v) as u64);
        h.write_word(plan.sources_of(v).len() as u64);
        for &src in plan.sources_of(v) {
            h.write_word(u64::from(src));
        }
    }
    h.digest()
}

/// `(label, digest)` recorded before the graph storage was rewritten.
const PINS: &[(&str, u64)] = &[
    ("ring:7", 0x5489c9a6987a58ec),
    ("biring:6", 0x76a2a5eaf7b4929a),
    ("star:5", 0x849ff622e62e47a0),
    ("path:5", 0x71d2e00b6d7d1de0),
    ("complete:5", 0x659079f049627bac),
    ("torus:3x4", 0x00e94f43b6c3d7b9),
    ("torus:10", 0x863effc536795bae),
    ("hypercube:3", 0x713afcff0c42279d),
    ("debruijn:2x3", 0xbb6ca84f51f1f844),
    ("kautz:2x2", 0x09dd9f978925f999),
    ("layered:3x2", 0xcf913173367801da),
    ("random:200:200:1", 0x76c7fdb48196118c),
    ("random:200:200:2", 0x9db70f9c3ef31a1f),
    ("random:200:200:3", 0x4d8b3f09c0a14c25),
    ("randbi:120:80:1", 0x4aaeb85689a81a06),
    ("randbi:120:80:2", 0xd68acfc193beef44),
    ("randbi:120:80:3", 0x6f4c8f59c5aad5dd),
];

#[test]
fn generator_edge_lists_and_plans_are_pinned() {
    let mut mismatches = Vec::new();
    for &(label, want) in PINS {
        let g = parse_graph(label).expect("pinned labels parse");
        let got = graph_digest(&g);
        if got != want {
            mismatches.push(format!("{label}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

//! Views (truncated universal covers) and candidate-base extraction.
//!
//! The *view* of depth `t` of an agent is the tree of everything it can
//! have learned after `t` rounds: its own value at the root, and one
//! subtree per in-edge holding the sender's view of depth `t - 1`. Two
//! agents have equal views at every depth exactly when they sit in the
//! same fibre of the network's minimum base — so views are both the
//! fundamental obstruction (they are all an agent can ever know) and the
//! fundamental tool (from a deep enough view, the minimum base itself can
//! be reconstructed, §3.2).
//!
//! Representation: immutable [`View`] trees with `Arc` structural sharing
//! (a message forwards the sender's view by reference, so the per-round
//! cost is one node per agent), cached hashes and depths, and canonical
//! child ordering so that equal views compare equal regardless of arrival
//! order.
//!
//! Each child edge carries a `u64` *annotation*: the sender's outdegree
//! under outdegree awareness, the output-port label under port awareness,
//! and `0` under (symmetric) broadcast. Annotated views are exactly the
//! views of the valued/colored graphs `G_od` / `G_op` of §3.

use kya_graph::Digraph;
use kya_runtime::bits::StateBits;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// An immutable, **hash-consed** view tree (depth-`t` truncation of the
/// universal cover at some agent).
///
/// Structurally equal views are guaranteed to share one allocation, so
/// equality and ordering are O(1) — crucial because indistinguishable
/// agents build *equal* deep views every round, and anything slower than
/// pointer comparison would be exponential in the round number.
#[derive(Clone)]
pub struct View(Arc<ViewNode>);

struct ViewNode {
    value: u64,
    /// `(annotation, child view)`, canonically sorted. All children have
    /// depth `self.depth - 1`.
    children: Vec<(u64, View)>,
    depth: usize,
    /// Unique interning id: equal structure <=> equal id. Ids are never
    /// reused, so they are safe to use as identity even after nodes die.
    id: u64,
    /// Content-derived canonical hash, stable across runs and processes
    /// (unlike `id`, which depends on allocation order). Used for
    /// canonical ordering so that candidate bases come out identical no
    /// matter when or where their views were built.
    canon: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(17)
}

/// Interning key: the value plus the (annotation, child id) profile.
type InternKey = (u64, Vec<(u64, u64)>);

struct Interner {
    map: HashMap<InternKey, Weak<ViewNode>>,
    next_id: u64,
    inserts_since_purge: usize,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
            next_id: 0,
            inserts_since_purge: 0,
        })
    })
}

fn intern(value: u64, children: Vec<(u64, View)>, depth: usize) -> View {
    let key: InternKey = (value, children.iter().map(|(a, c)| (*a, c.0.id)).collect());
    let mut guard = interner().lock().expect("interner poisoned");
    if let Some(existing) = guard.map.get(&key).and_then(Weak::upgrade) {
        return View(existing);
    }
    let id = guard.next_id;
    guard.next_id += 1;
    let mut canon = mix(0xcbf2_9ce4_8422_2325, value);
    for (a, c) in &children {
        canon = mix(mix(canon, *a), c.0.canon);
    }
    canon = mix(canon, depth as u64);
    let node = Arc::new(ViewNode {
        value,
        children,
        depth,
        id,
        canon,
    });
    guard.map.insert(key, Arc::downgrade(&node));
    guard.inserts_since_purge += 1;
    // Periodically drop dead weak entries so long simulations do not
    // accumulate garbage.
    if guard.inserts_since_purge >= 65_536 {
        guard.inserts_since_purge = 0;
        guard.map.retain(|_, w| w.strong_count() > 0);
    }
    View(node)
}

impl View {
    /// The depth-0 view: a bare value.
    pub fn leaf(value: u64) -> View {
        intern(value, Vec::new(), 0)
    }

    /// A view of depth `1 + children depth` with the given annotated
    /// children (sorted canonically internally).
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or the children have unequal depths
    /// (every round delivers at least the self-loop message, and all
    /// in-neighbors' views have the same age).
    pub fn node(value: u64, mut children: Vec<(u64, View)>) -> View {
        assert!(
            !children.is_empty(),
            "a view node needs at least the self-loop child"
        );
        let d = children[0].1.depth();
        assert!(
            children.iter().all(|(_, c)| c.depth() == d),
            "children of a view must have equal depth"
        );
        // Canonical order: by annotation, then by the children's
        // content-canonical hashes (stable across runs), with interning
        // identity as the collision tiebreaker — equal multisets of
        // children sort identically because equal children ARE identical
        // after interning.
        children.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1 .0.canon.cmp(&b.1 .0.canon))
                .then_with(|| a.1 .0.id.cmp(&b.1 .0.id))
        });
        intern(value, children, d + 1)
    }

    /// Root value.
    pub fn value(&self) -> u64 {
        self.0.value
    }

    /// Depth (`0` for a leaf).
    pub fn depth(&self) -> usize {
        self.0.depth
    }

    /// Annotated children.
    pub fn children(&self) -> &[(u64, View)] {
        &self.0.children
    }

    /// Truncate to depth `d <= self.depth()` (drop the deepest levels).
    ///
    /// # Panics
    ///
    /// Panics if `d > self.depth()`.
    pub fn truncate(&self, d: usize) -> View {
        assert!(d <= self.depth(), "cannot deepen a view by truncation");
        let mut memo: HashMap<(u64, usize), View> = HashMap::new();
        self.truncate_memo(d, &mut memo)
    }

    fn truncate_memo(&self, d: usize, memo: &mut HashMap<(u64, usize), View>) -> View {
        if d == self.depth() {
            return self.clone();
        }
        let key = (self.0.id, d);
        if let Some(v) = memo.get(&key) {
            return v.clone();
        }
        let out = if d == 0 {
            View::leaf(self.0.value)
        } else {
            let children = self
                .0
                .children
                .iter()
                .map(|(a, c)| (*a, c.truncate_memo(d - 1, memo)))
                .collect();
            View::node(self.0.value, children)
        };
        memo.insert(key, out.clone());
        out
    }

    /// Render the view as an indented tree, one node per line:
    /// `value` at the root, `[annotation] value` for children. Depth is
    /// capped at `max_depth` levels (deeper subtrees print as `...`).
    /// Intended for debugging and teaching examples — shared subtrees
    /// print repeatedly, so output is exponential in the worst case.
    pub fn render(&self, max_depth: usize) -> String {
        fn go(v: &View, annot: Option<u64>, indent: usize, budget: usize, out: &mut String) {
            out.push_str(&"  ".repeat(indent));
            match annot {
                Some(a) => out.push_str(&format!("[{a}] {}\n", v.value())),
                None => out.push_str(&format!("{}\n", v.value())),
            }
            if budget == 0 {
                if !v.children().is_empty() {
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str("...\n");
                }
                return;
            }
            for (a, c) in v.children() {
                go(c, Some(*a), indent + 1, budget - 1, out);
            }
        }
        let mut out = String::new();
        go(self, None, 0, max_depth, &mut out);
        out
    }

    /// Number of distinct nodes in the shared DAG under this view.
    pub fn dag_size(&self) -> usize {
        let mut seen = BTreeSet::new();
        let mut stack = vec![self.clone()];
        while let Some(v) = stack.pop() {
            if seen.insert(v.0.id) {
                for (_, c) in v.children() {
                    stack.push(c.clone());
                }
            }
        }
        seen.len()
    }
}

impl PartialEq for View {
    fn eq(&self, other: &Self) -> bool {
        // Interning guarantees structural equality <=> identity.
        self.0.id == other.0.id
    }
}

impl Eq for View {}

impl PartialOrd for View {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for View {
    fn cmp(&self, other: &Self) -> Ordering {
        // Depth first (groups levels), then the content-canonical hash
        // (stable across runs), with the interning id as a final
        // tiebreaker for the astronomically unlikely hash collision.
        self.0
            .depth
            .cmp(&other.0.depth)
            .then_with(|| self.0.canon.cmp(&other.0.canon))
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

impl std::hash::Hash for View {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "View(value={}, depth={})", self.0.value, self.0.depth)
    }
}

/// The depth, root value and content hash. The interning id is left
/// out: it depends on allocation order, so it would make the words
/// differ between otherwise identical runs.
impl StateBits for View {
    fn feed(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&[self.0.depth as u64, self.0.value, self.0.canon]);
    }
}

/// A candidate minimum base extracted from a single agent's view — the
/// `B(T_i^t)` of §3.2. Guaranteed to equal the true minimum base of the
/// (annotated) network from round `n + D` onward.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateBase {
    /// The quotient multigraph (one vertex per fibre).
    pub graph: Digraph,
    /// Root value of each fibre class.
    pub values: Vec<u64>,
    /// Annotation of each fibre class (sender outdegree under outdegree
    /// awareness; `0` under broadcast; under port awareness annotations
    /// sit on the edges instead).
    pub annotations: Vec<u64>,
}

/// How agents are classed when reading a candidate base off a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassMode {
    /// An agent's class is its view alone; annotations are ignored (all
    /// zero). Right for simple broadcast and symmetric communications.
    Broadcast,
    /// An agent's class is the pair `(own outdegree, view)`. Right for
    /// outdegree awareness: an agent's outdegree is not visible in its
    /// own view (only in how others record it), yet it is part of the
    /// valued graph `G_od` whose base eq. (1) needs.
    OutdegreePairs,
    /// An agent's class is its view alone; annotations are *edge colors*
    /// (output ports) and are written onto the base edges. Right for
    /// output port awareness.
    PortColored,
}

/// Extract a candidate base from a view.
///
/// The construction scans the view DAG level by level. Under
/// [`ClassMode::OutdegreePairs`] the level-`k` classes are the annotated
/// child entries `A_k = { (outdeg, depth-k view) }` (every agent within
/// horizon is its own child through the self-loop, so `A_k` enumerates
/// all agents' classes once the view is deep enough). Under
/// [`ClassMode::Broadcast`] / [`ClassMode::PortColored`] the classes are
/// the distinct depth-`k` views themselves.
///
/// The smallest `k` where level `k+1` maps bijectively onto level `k` by
/// truncation marks the stabilization of the view refinement; the
/// level-(k+1) classes become base vertices, their child slots become
/// base edges (carrying the annotation as a port label under
/// `PlainViews`).
///
/// Returns `None` when the view is too shallow to exhibit a consistent
/// stabilization (always possible in early rounds). From round `n + D`
/// onward, the result is the true minimum base (§3.2).
pub fn candidate_base(view: &View, mode: ClassMode) -> Option<CandidateBase> {
    if view.depth() < 2 {
        return None;
    }
    let max_depth = view.depth() - 1;
    let mut entries: Vec<BTreeSet<(u64, View)>> = vec![BTreeSet::new(); max_depth + 1];
    {
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut stack = vec![view.clone()];
        while let Some(v) = stack.pop() {
            if !seen.insert(v.0.id) {
                continue;
            }
            if mode != ClassMode::OutdegreePairs && v.depth() <= max_depth {
                entries[v.depth()].insert((0, v.clone()));
            }
            for (a, c) in v.children() {
                if mode == ClassMode::OutdegreePairs {
                    entries[c.depth()].insert((*a, c.clone()));
                }
                stack.push(c.clone());
            }
        }
    }

    for k in 0..max_depth {
        if entries[k].is_empty() || entries[k].len() != entries[k + 1].len() {
            continue;
        }
        let classes: Vec<(u64, View)> = entries[k + 1].iter().cloned().collect();
        // Truncation must restrict to a bijection level k+1 -> level k:
        // that is exactly "partition by depth-(k+1) classes equals
        // partition by depth-k classes", which is stable forever.
        let mut index: HashMap<(u64, View), usize> = HashMap::new();
        let mut consistent = true;
        for (idx, (a, w)) in classes.iter().enumerate() {
            if index.insert((*a, w.truncate(k)), idx).is_some() {
                consistent = false;
                break;
            }
        }
        if !consistent {
            continue;
        }
        if entries[k].iter().any(|e| !index.contains_key(e)) {
            continue;
        }
        // Build the base: edges into class j mirror the child slots of
        // its depth-(k+1) view. Under `PlainViews` the child annotation
        // is an edge color (output port), not part of the source class.
        let m = classes.len();
        let mut graph = Digraph::new(m);
        for (j, (_, w)) in classes.iter().enumerate() {
            for (a_c, c) in w.children() {
                let (src_key, port) = match mode {
                    ClassMode::OutdegreePairs => ((*a_c, c.clone()), None),
                    ClassMode::Broadcast => ((0, c.clone()), None),
                    ClassMode::PortColored => ((0, c.clone()), Some(*a_c as u32)),
                };
                let src = index[&src_key];
                graph.add_edge_with_port(src, j, port);
            }
        }
        let values = classes.iter().map(|(_, w)| w.value()).collect();
        let annotations = classes.iter().map(|(a, _)| *a).collect();
        return Some(CandidateBase {
            graph,
            values,
            annotations,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_node_basics() {
        let l = View::leaf(7);
        assert_eq!(l.depth(), 0);
        assert_eq!(l.value(), 7);
        let n = View::node(3, vec![(0, l.clone()), (0, View::leaf(9))]);
        assert_eq!(n.depth(), 1);
        assert_eq!(n.children().len(), 2);
    }

    #[test]
    fn equality_ignores_child_order() {
        let a = View::node(0, vec![(0, View::leaf(1)), (0, View::leaf(2))]);
        let b = View::node(0, vec![(0, View::leaf(2)), (0, View::leaf(1))]);
        assert_eq!(a, b);
        let c = View::node(0, vec![(0, View::leaf(1)), (0, View::leaf(1))]);
        assert_ne!(a, c);
    }

    #[test]
    fn annotations_distinguish() {
        let a = View::node(0, vec![(1, View::leaf(5))]);
        let b = View::node(0, vec![(2, View::leaf(5))]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "equal depth")]
    fn mixed_depth_children_rejected() {
        let deep = View::node(0, vec![(0, View::leaf(0))]);
        let _ = View::node(1, vec![(0, View::leaf(0)), (0, deep)]);
    }

    #[test]
    fn truncation() {
        let v = View::node(1, vec![(0, View::node(2, vec![(0, View::leaf(3))]))]);
        assert_eq!(v.depth(), 2);
        let t1 = v.truncate(1);
        assert_eq!(t1, View::node(1, vec![(0, View::leaf(2))]));
        assert_eq!(v.truncate(0), View::leaf(1));
        assert_eq!(v.truncate(2), v);
    }

    #[test]
    fn render_tree() {
        let v = View::node(1, vec![(0, View::leaf(2)), (3, View::leaf(4))]);
        let s = v.render(2);
        assert_eq!(s, "1\n  [0] 2\n  [3] 4\n");
        let deep = View::node(9, vec![(0, v)]);
        let capped = deep.render(1);
        assert!(capped.contains("..."));
    }

    #[test]
    fn dag_sharing() {
        let shared = View::leaf(1);
        let v = View::node(0, vec![(0, shared.clone()), (1, shared)]);
        // Root + one shared leaf.
        assert_eq!(v.dag_size(), 2);
    }

    /// Simulate view construction on a graph directly (without the full
    /// runtime): each round every vertex's view becomes
    /// node(value, [(annot(u), view_u)] for in-edges u -> v).
    fn simulate_views(
        g: &Digraph,
        values: &[u64],
        annot: impl Fn(usize) -> u64,
        rounds: usize,
    ) -> Vec<View> {
        let mut views: Vec<View> = values.iter().map(|&v| View::leaf(v)).collect();
        for _ in 0..rounds {
            let next: Vec<View> = (0..g.n())
                .map(|v| {
                    let children: Vec<(u64, View)> = g
                        .in_edges(v)
                        .map(|e| {
                            let src = g.edges()[e].src;
                            (annot(src), views[src].clone())
                        })
                        .collect();
                    View::node(values[v], children)
                })
                .collect();
            views = next;
        }
        views
    }

    #[test]
    fn uniform_ring_candidate_is_single_loop() {
        let g = kya_graph::generators::directed_ring(5).with_self_loops();
        let views = simulate_views(&g, &[4; 5], |_| 0, 8);
        let cb = candidate_base(&views[0], ClassMode::Broadcast).expect("deep enough");
        assert_eq!(cb.graph.n(), 1);
        assert_eq!(cb.values, vec![4]);
        // Base in-edges: one from the ring predecessor, one self-loop.
        assert_eq!(cb.graph.edge_count(), 2);
    }

    #[test]
    fn star_candidate_recovers_two_fibres() {
        let g = kya_graph::generators::star(4).with_self_loops();
        // n + D = 4 + 2 = 6 rounds suffice.
        let views = simulate_views(&g, &[0; 4], |_| 0, 8);
        for (v, view) in views.iter().enumerate() {
            let cb = candidate_base(view, ClassMode::Broadcast).expect("stabilized");
            assert_eq!(cb.graph.n(), 2, "agent {v}");
        }
    }

    #[test]
    fn valued_ring_candidate_matches_centralized() {
        let g = kya_graph::generators::directed_ring(6).with_self_loops();
        let values = [1u64, 2, 1, 2, 1, 2];
        let views = simulate_views(&g, &values, |_| 0, 10);
        let cb = candidate_base(&views[3], ClassMode::Broadcast).expect("stabilized");
        let centralized = kya_fibration::MinimumBase::compute(&g, &values);
        assert_eq!(cb.graph.n(), centralized.base().n());
        let witness = kya_fibration::iso::are_isomorphic(
            &cb.graph,
            &cb.values,
            centralized.base(),
            centralized.base_values(),
        );
        assert!(witness.is_some(), "candidate base must match centralized");
    }

    #[test]
    fn outdegree_annotations_reach_candidate() {
        // Star: center outdegree 4 (3 leaves + self-loop), leaves 2.
        let g = kya_graph::generators::star(4).with_self_loops();
        let outdeg: Vec<u64> = (0..4).map(|v| g.outdegree(v) as u64).collect();
        let views = simulate_views(&g, &[0; 4], |u| outdeg[u], 8);
        let cb = candidate_base(&views[1], ClassMode::OutdegreePairs).expect("stabilized");
        assert_eq!(cb.graph.n(), 2);
        let mut annots = cb.annotations.clone();
        annots.sort_unstable();
        assert_eq!(annots, vec![2, 4]);
    }

    #[test]
    fn too_shallow_views_yield_none() {
        let g = kya_graph::generators::directed_ring(4).with_self_loops();
        let views = simulate_views(&g, &[0, 1, 2, 3], |_| 0, 1);
        assert_eq!(candidate_base(&views[0], ClassMode::Broadcast), None);
    }
}

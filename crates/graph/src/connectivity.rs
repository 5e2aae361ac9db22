//! Reachability, strong connectivity, and diameters.

use crate::{Digraph, Vertex};
use std::collections::VecDeque;

/// Breadth-first distances from `src` (in edges); `None` for unreachable
/// vertices.
///
/// # Panics
///
/// Panics if `src` is out of range.
fn bfs_distances(g: &Digraph, src: Vertex) -> Vec<Option<usize>> {
    assert!(src < g.n(), "source out of range");
    let mut dist = vec![None; g.n()];
    dist[src] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued vertices have distances");
        for v in g.out_neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Whether every vertex can reach every other vertex.
///
/// The empty graph is vacuously strongly connected; a single vertex is
/// strongly connected.
pub fn is_strongly_connected(g: &Digraph) -> bool {
    if g.n() <= 1 {
        return true;
    }
    let forward = bfs_distances(g, 0).iter().all(Option::is_some);
    let backward = bfs_distances(&g.transpose(), 0).iter().all(Option::is_some);
    forward && backward
}

/// The diameter: the largest finite distance between any ordered pair, or
/// `None` if the graph is not strongly connected (or has no vertices).
///
/// ```
/// use kya_graph::{connectivity::diameter, generators};
/// assert_eq!(diameter(&generators::directed_ring(5)), Some(4));
/// assert_eq!(diameter(&generators::complete(4)), Some(1));
/// ```
pub fn diameter(g: &Digraph) -> Option<usize> {
    if g.n() == 0 {
        return None;
    }
    let mut max = 0;
    for src in 0..g.n() {
        for d in bfs_distances(g, src) {
            max = max.max(d?);
        }
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ring_distances() {
        let g = generators::directed_ring(4);
        assert_eq!(
            bfs_distances(&g, 0),
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_strongly_connected(&generators::directed_ring(7)));
        assert!(is_strongly_connected(&Digraph::new(1)));
        assert!(is_strongly_connected(&Digraph::new(0)));
        let path = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(!is_strongly_connected(&path));
        assert_eq!(diameter(&path), None);
    }

    #[test]
    fn diameters() {
        assert_eq!(diameter(&generators::bidirectional_ring(6)), Some(3));
        assert_eq!(diameter(&generators::complete(5)), Some(1));
        assert_eq!(diameter(&generators::star(4)), Some(2));
        assert_eq!(diameter(&Digraph::new(1)), Some(0));
        assert_eq!(diameter(&Digraph::new(0)), None);
    }
}

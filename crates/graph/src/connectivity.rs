//! Reachability, strong connectivity, and diameters.

use crate::{Digraph, Vertex};
use std::collections::VecDeque;

/// Breadth-first distances from `src` (in edges); `None` for unreachable
/// vertices.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bfs_distances(g: &Digraph, src: Vertex) -> Vec<Option<usize>> {
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

/// All-pairs distance matrix: `m[i][j]` is the BFS distance from `i` to
/// `j`, or `None` if unreachable.
pub fn distance_matrix(g: &Digraph) -> Vec<Vec<Option<usize>>> {
    (0..g.n()).map(|v| bfs_distances(g, v)).collect()
}

/// Eccentricity of every vertex (the largest distance *from* it), or
/// `None` for vertices that cannot reach the whole graph.
pub fn eccentricities(g: &Digraph) -> Vec<Option<usize>> {
    (0..g.n())
        .map(|v| {
            bfs_distances(g, v)
                .into_iter()
                .try_fold(0usize, |acc, d| d.map(|d| acc.max(d)))
        })
        .collect()
}

/// The radius: the smallest eccentricity, or `None` if no vertex reaches
/// every other (or the graph is empty).
///
/// ```
/// use kya_graph::{connectivity::radius, generators};
/// // The star's center sees everyone in one hop.
/// assert_eq!(radius(&generators::star(5)), Some(1));
/// ```
pub fn radius(g: &Digraph) -> Option<usize> {
    eccentricities(g).into_iter().flatten().min()
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
        assert_eq!(diameter(&Digraph::new(1)), Some(0));
        assert_eq!(diameter(&Digraph::new(0)), None);
    }

    #[test]
    fn distance_and_radius() {
        let star = generators::star(4);
        assert_eq!(radius(&star), Some(1));
        assert_eq!(diameter(&star), Some(2));
        let ecc = eccentricities(&star);
        assert_eq!(ecc[0], Some(1));
        assert!(ecc[1..].iter().all(|&e| e == Some(2)));
        let m = distance_matrix(&star);
        assert_eq!(m[1][2], Some(2));
        assert_eq!(m[0][3], Some(1));
        // A path graph: endpoint cannot be reached backwards.
        let path = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        assert_eq!(eccentricities(&path), vec![Some(2), None, None]);
        assert_eq!(radius(&path), Some(2));
        assert_eq!(radius(&Digraph::new(0)), None);
    }
}

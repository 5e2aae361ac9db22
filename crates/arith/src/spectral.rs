//! Perron–Frobenius toolkit for non-negative matrices.
//!
//! §4.2 of the paper proves that the fibre-count matrix `M` (whose diagonal
//! may be negative) has a rank-one kernel by shifting it to the
//! non-negative irreducible matrix `P = M + αI` and applying
//! Perron–Frobenius. This module provides the numerical counterparts used
//! by tests and benchmarks to cross-check the exact kernel computation:
//! irreducibility, the spectral radius, and the Perron vector via power
//! iteration.

use std::collections::VecDeque;

/// A dense `f64` square matrix stored row-major.
///
/// ```
/// use kya_arith::spectral::FMatrix;
/// let p = FMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
/// assert!(p.is_irreducible());
/// let (radius, _v) = p.perron(1e-12, 10_000).expect("converges");
/// assert!((radius - 1.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FMatrix {
    n: usize,
    data: Vec<f64>,
}

impl FMatrix {
    /// An `n x n` zero matrix.
    pub fn zeros(n: usize) -> FMatrix {
        FMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build from rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not form a square matrix.
    pub fn from_rows(rows: &[&[f64]]) -> FMatrix {
        let n = rows.len();
        assert!(rows.iter().all(|r| r.len() == n), "matrix not square");
        let mut m = FMatrix::zeros(n);
        for (i, row) in rows.iter().enumerate() {
            m.data[i * n..(i + 1) * n].copy_from_slice(row);
        }
        m
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` is not the matrix dimension.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.n, "dimension mismatch");
        (0..self.n)
            .map(|i| (0..self.n).map(|j| self[(i, j)] * v[j]).sum())
            .collect()
    }

    /// Whether all entries are non-negative.
    pub fn is_nonnegative(&self) -> bool {
        self.data.iter().all(|&x| x >= 0.0)
    }

    /// Whether the associated digraph (edge `j -> i` iff `A[i][j] > 0`,
    /// following the paper's §5.2 convention) is strongly connected.
    pub fn is_irreducible(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        // Strong connectivity == every vertex reachable from 0 in the graph
        // and in its transpose.
        let reach = |transpose: bool| -> usize {
            let mut seen = vec![false; self.n];
            let mut queue = VecDeque::from([0usize]);
            seen[0] = true;
            let mut count = 1;
            while let Some(u) = queue.pop_front() {
                for v in 0..self.n {
                    let w = if transpose {
                        self[(u, v)]
                    } else {
                        self[(v, u)]
                    };
                    if w > 0.0 && !seen[v] {
                        seen[v] = true;
                        count += 1;
                        queue.push_back(v);
                    }
                }
            }
            count
        };
        reach(false) == self.n && reach(true) == self.n
    }

    /// Spectral radius and Perron vector of a non-negative matrix via
    /// shifted power iteration.
    ///
    /// Returns `None` if the iteration does not reach `tol` within
    /// `max_iter` steps (e.g. for reducible matrices with tied dominant
    /// eigenvalues).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has a negative entry.
    pub fn perron(&self, tol: f64, max_iter: usize) -> Option<(f64, Vec<f64>)> {
        assert!(
            self.is_nonnegative(),
            "perron requires a non-negative matrix"
        );
        if self.n == 0 {
            return None;
        }
        // Shift by I to make the dominant eigenvalue unique in modulus for
        // irreducible matrices (primitivity).
        let mut v = vec![1.0 / self.n as f64; self.n];
        let mut lambda = 0.0f64;
        for _ in 0..max_iter {
            let mut w = self.mul_vec(&v);
            for i in 0..self.n {
                w[i] += v[i]; // (A + I) v
            }
            let norm: f64 = w.iter().map(|x| x.abs()).sum();
            if norm == 0.0 {
                return Some((0.0, v));
            }
            for x in &mut w {
                *x /= norm;
            }
            let new_lambda = norm - 1.0;
            let delta: f64 = w.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum::<f64>()
                + (new_lambda - lambda).abs();
            v = w;
            lambda = new_lambda;
            if delta < tol {
                return Some((lambda, v));
            }
        }
        None
    }
}

impl std::ops::Index<(usize, usize)> for FMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for FMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_perron() {
        let id = FMatrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let (r, v) = id.perron(1e-12, 1000).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn irreducibility() {
        // 2-cycle: irreducible.
        let c = FMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(c.is_irreducible());
        // Upper triangular: reducible.
        let t = FMatrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        assert!(!t.is_irreducible());
        assert!(!FMatrix::zeros(0).is_irreducible());
    }

    #[test]
    fn perron_of_known_matrix() {
        // [[2, 1], [1, 2]] has spectral radius 3, Perron vector (1, 1).
        let m = FMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (r, v) = m.perron(1e-13, 100_000).unwrap();
        assert!((r - 3.0).abs() < 1e-8, "radius {r}");
        assert!((v[0] - v[1]).abs() < 1e-8);
    }

    #[test]
    fn shifted_fibre_matrix_has_zero_eigenvalue() {
        // The paper's M for a base with fibre counts (1, 2, 3):
        // M z = 0 with z = (1,2,3). P = M + alpha*I is non-negative;
        // its spectral radius must be exactly alpha (Theorem of §4.2).
        let m_rows: [[f64; 3]; 3] = [[-8.0, 1.0, 2.0], [2.0, -4.0, 2.0], [6.0, 3.0, -4.0]];
        let alpha = 9.0;
        let mut p = FMatrix::zeros(3);
        for i in 0..3 {
            for j in 0..3 {
                p[(i, j)] = m_rows[i][j] + if i == j { alpha } else { 0.0 };
            }
        }
        assert!(p.is_nonnegative());
        assert!(p.is_irreducible());
        let (r, v) = p.perron(1e-13, 200_000).unwrap();
        assert!((r - alpha).abs() < 1e-6, "rho(P) = {r}, expected {alpha}");
        // Perron vector proportional to (1, 2, 3).
        let scale = v[0];
        assert!((v[1] / scale - 2.0).abs() < 1e-5);
        assert!((v[2] / scale - 3.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn perron_rejects_negative() {
        let m = FMatrix::from_rows(&[&[-1.0]]);
        let _ = m.perron(1e-9, 10);
    }
}

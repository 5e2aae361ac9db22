//! Exact rational linear algebra.
//!
//! The paper's positive result for outdegree awareness (§4.2) has every
//! agent solve the homogeneous system `M z = 0`, where `M` is read off the
//! minimum base of the network, and extract the unique (up to scale)
//! positive integer solution with coprime entries. [`QMatrix`] provides the
//! exact Gaussian elimination, rank, kernel basis, and the coprime-integer
//! scaling that this requires.

use crate::{lcm, BigInt, BigRational};
use std::fmt;

/// A dense matrix of exact rationals.
///
/// ```
/// use kya_arith::QMatrix;
/// use kya_arith::BigInt;
/// let m = QMatrix::from_i64_rows(&[&[1, -2], &[2, -4]]);
/// assert_eq!(m.rank(), 1);
/// assert_eq!(m.positive_integer_kernel(), Ok(vec![BigInt::from(2), BigInt::from(1)]));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct QMatrix {
    rows: usize,
    cols: usize,
    data: Vec<BigRational>,
}

/// Error returned by kernel extraction when the kernel does not have the
/// shape the caller requires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The kernel is trivial (`{0}`); the system has no non-zero solution.
    Trivial,
    /// The kernel has dimension greater than one, so no canonical ray
    /// exists.
    NotRankOne {
        /// Actual kernel dimension.
        dimension: usize,
    },
    /// The one-dimensional kernel is not spanned by a vector with all
    /// entries of one strict sign, so it cannot encode fibre cardinalities.
    NotPositive,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Trivial => write!(f, "kernel is trivial"),
            KernelError::NotRankOne { dimension } => {
                write!(f, "kernel has dimension {dimension}, expected 1")
            }
            KernelError::NotPositive => {
                write!(f, "kernel ray has mixed-sign entries")
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl QMatrix {
    /// An `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> QMatrix {
        QMatrix {
            rows,
            cols,
            data: vec![BigRational::zero(); rows * cols],
        }
    }

    /// Build from rows of machine integers (convenient in tests and when
    /// reading a matrix off a minimum base).
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_i64_rows(rows: &[&[i64]]) -> QMatrix {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut m = QMatrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = BigRational::from_integer(v);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[BigRational]) -> Vec<BigRational> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| {
                (0..self.cols)
                    .map(|j| &self[(i, j)] * &v[j])
                    .sum::<BigRational>()
            })
            .collect()
    }

    /// Reduced row echelon form; returns (rref, pivot column indices).
    fn rref(&self) -> (QMatrix, Vec<usize>) {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut row = 0;
        for col in 0..m.cols {
            if row == m.rows {
                break;
            }
            // Find a pivot in this column at or below `row`.
            let Some(p) = (row..m.rows).find(|&r| !m[(r, col)].is_zero()) else {
                continue;
            };
            m.swap_rows(row, p);
            let inv = m[(row, col)].recip();
            for j in col..m.cols {
                m[(row, j)] = &m[(row, j)] * &inv;
            }
            for r in 0..m.rows {
                if r != row && !m[(r, col)].is_zero() {
                    let factor = m[(r, col)].clone();
                    for j in col..m.cols {
                        let delta = &factor * &m[(row, j)];
                        m[(r, j)] = &m[(r, j)] - &delta;
                    }
                }
            }
            pivots.push(col);
            row += 1;
        }
        (m, pivots)
    }

    /// Rank of the matrix.
    pub fn rank(&self) -> usize {
        self.rref().1.len()
    }

    /// A basis of the kernel (null space), one vector per free column.
    ///
    /// The returned vectors are exact; the kernel dimension is
    /// `cols - rank`.
    fn kernel_basis(&self) -> Vec<Vec<BigRational>> {
        let (r, pivots) = self.rref();
        let pivot_set: Vec<Option<usize>> = {
            let mut v = vec![None; self.cols];
            for (row, &col) in pivots.iter().enumerate() {
                v[col] = Some(row);
            }
            v
        };
        let mut basis = Vec::new();
        for free in 0..self.cols {
            if pivot_set[free].is_some() {
                continue;
            }
            let mut vec = vec![BigRational::zero(); self.cols];
            vec[free] = BigRational::one();
            for (col, &maybe_row) in pivot_set.iter().enumerate() {
                if let Some(row) = maybe_row {
                    vec[col] = -&r[(row, free)];
                }
            }
            basis.push(vec);
        }
        basis
    }

    /// For a matrix whose kernel is one-dimensional and spanned by a
    /// strictly-signed vector, return the unique positive integer vector
    /// with coprime entries spanning the kernel.
    ///
    /// This is exactly the object the paper's agents compute in §4.2
    /// ("a positive integer vector z whose all entries are coprime and such
    /// that ker M = ℝ z"): the entries are the fibre cardinalities up to a
    /// common factor (eq. 2).
    ///
    /// # Errors
    ///
    /// - [`KernelError::Trivial`] if the matrix has full column rank,
    /// - [`KernelError::NotRankOne`] if the kernel dimension exceeds one,
    /// - [`KernelError::NotPositive`] if the spanning ray has mixed signs
    ///   or a zero entry.
    pub fn positive_integer_kernel(&self) -> Result<Vec<BigInt>, KernelError> {
        let basis = self.kernel_basis();
        match basis.len() {
            0 => Err(KernelError::Trivial),
            1 => scale_to_coprime_positive(&basis[0]).ok_or(KernelError::NotPositive),
            d => Err(KernelError::NotRankOne { dimension: d }),
        }
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

/// Scale a rational vector to the positive integer vector with coprime
/// entries on the same ray, if the vector is strictly single-signed.
fn scale_to_coprime_positive(v: &[BigRational]) -> Option<Vec<BigInt>> {
    if v.is_empty() || v.iter().any(|x| x.is_zero()) {
        return None;
    }
    let all_pos = v.iter().all(|x| x.is_positive());
    let all_neg = v.iter().all(|x| x.is_negative());
    if !all_pos && !all_neg {
        return None;
    }
    // Multiply by lcm of denominators, then divide by gcd of numerators.
    let denom_lcm = v.iter().fold(BigInt::one(), |acc, x| lcm(&acc, x.denom()));
    let ints: Vec<BigInt> = v
        .iter()
        .map(|x| {
            let scaled = x.numer() * (&denom_lcm / x.denom());
            if all_neg {
                -scaled
            } else {
                scaled
            }
        })
        .collect();
    let g = ints.iter().fold(BigInt::zero(), |acc, x| acc.gcd(x));
    Some(ints.iter().map(|x| x / &g).collect())
}

impl std::ops::Index<(usize, usize)> for QMatrix {
    type Output = BigRational;
    fn index(&self, (i, j): (usize, usize)) -> &BigRational {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for QMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut BigRational {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for QMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_and_zero() {
        let id = QMatrix::from_i64_rows(&[&[1, 0, 0], &[0, 1, 0], &[0, 0, 1]]);
        assert_eq!(id.rank(), 3);
        assert!(id.kernel_basis().is_empty());
        let z = QMatrix::zeros(2, 3);
        assert_eq!(z.rank(), 0);
        assert_eq!(z.kernel_basis().len(), 3);
    }

    #[test]
    fn rref_simple() {
        let m = QMatrix::from_i64_rows(&[&[2, 4], &[1, 3]]);
        let (r, pivots) = m.rref();
        assert_eq!(pivots, vec![0, 1]);
        assert_eq!(r, QMatrix::from_i64_rows(&[&[1, 0], &[0, 1]]));
    }

    #[test]
    fn kernel_of_rank_one_system() {
        // Base of a bidirectional star K_{1,3} collapsed: center fibre 1,
        // leaf fibre 3. M = [[-3, 1], [3, -1]] (diag d_ii - b_i).
        let m = QMatrix::from_i64_rows(&[&[-3, 1], &[3, -1]]);
        let z = m.positive_integer_kernel().unwrap();
        assert_eq!(z, vec![BigInt::from(1), BigInt::from(3)]);
    }

    #[test]
    fn kernel_errors() {
        assert_eq!(
            QMatrix::from_i64_rows(&[&[1, 0], &[0, 1]]).positive_integer_kernel(),
            Err(KernelError::Trivial)
        );
        assert_eq!(
            QMatrix::zeros(2, 2).positive_integer_kernel(),
            Err(KernelError::NotRankOne { dimension: 2 })
        );
        // Kernel spanned by (1, -1): mixed signs.
        let m = QMatrix::from_i64_rows(&[&[1, 1]]);
        assert_eq!(m.positive_integer_kernel(), Err(KernelError::NotPositive));
    }

    #[test]
    fn kernel_vectors_annihilate() {
        let m = QMatrix::from_i64_rows(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        assert_eq!(m.rank(), 2);
        for v in m.kernel_basis() {
            let out = m.mul_vec(&v);
            assert!(out.iter().all(BigRational::is_zero));
        }
    }

    #[test]
    fn coprime_scaling() {
        let v = vec![
            BigRational::from_i64(2, 3),
            BigRational::from_i64(4, 3),
            BigRational::from_i64(2, 1),
        ];
        let z = scale_to_coprime_positive(&v).unwrap();
        assert_eq!(z, vec![BigInt::from(1), BigInt::from(2), BigInt::from(3)]);
        // Negative ray normalizes to positive.
        let neg: Vec<BigRational> = v.iter().map(|x| -x).collect();
        assert_eq!(scale_to_coprime_positive(&neg).unwrap(), z);
    }

    #[test]
    fn exactness_vs_float_ablation() {
        // A system that floating point cannot solve to a coprime integer
        // kernel: entries with denominators that are not dyadic.
        let mut m = QMatrix::zeros(2, 2);
        m[(0, 0)] = BigRational::from_i64(1, 3);
        m[(0, 1)] = BigRational::from_i64(-1, 7);
        m[(1, 0)] = BigRational::from_i64(-1, 3);
        m[(1, 1)] = BigRational::from_i64(1, 7);
        let z = m.positive_integer_kernel().unwrap();
        assert_eq!(z, vec![BigInt::from(3), BigInt::from(7)]);
    }

    proptest! {
        #[test]
        fn rank_of_outer_product_is_one(
            a in proptest::collection::vec(-20i64..20, 2..5),
            b in proptest::collection::vec(-20i64..20, 2..5),
        ) {
            prop_assume!(a.iter().any(|&x| x != 0) && b.iter().any(|&x| x != 0));
            let mut m = QMatrix::zeros(a.len(), b.len());
            for i in 0..a.len() {
                for j in 0..b.len() {
                    m[(i, j)] = BigRational::from_integer(a[i] * b[j]);
                }
            }
            prop_assert_eq!(m.rank(), 1);
        }

        #[test]
        fn kernel_dimension_theorem(
            rows in 1usize..5,
            cols in 1usize..5,
            seed in proptest::collection::vec(-9i64..9, 25),
        ) {
            let mut m = QMatrix::zeros(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    m[(i, j)] = BigRational::from_integer(seed[i * 5 + j]);
                }
            }
            let rank = m.rank();
            prop_assert_eq!(m.kernel_basis().len(), cols - rank);
            for v in m.kernel_basis() {
                prop_assert!(m.mul_vec(&v).iter().all(BigRational::is_zero));
            }
        }
    }
}

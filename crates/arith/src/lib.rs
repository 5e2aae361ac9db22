//! Exact arithmetic and small linear-algebra toolkit for anonymous-network
//! computability.
//!
//! The paper "Know your audience" (Charron-Bost & Lambein-Monette) recovers
//! the relative cardinalities of the fibres of a graph's minimum base by
//! solving a homogeneous integer linear system *exactly* (its §4.2: "using
//! Gaussian elimination over the Euclidean ring ℤ, each agent computes a
//! positive integer vector z whose entries are coprime"). Floating point
//! cannot produce coprime integer kernels, so this crate provides:
//!
//! - [`BigInt`]: arbitrary-precision signed integers,
//! - [`BigRational`]: exact rationals with best-approximation search
//!   (needed to round Push-Sum outputs to the grid ℚ_N of §5.4),
//! - [`QMatrix`]: dense rational matrices with reduced row echelon form,
//!   rank, and kernel bases scaled to coprime integers,
//! - [`interval`]: directed-rounding f64 enclosures ([`Enclosure`]) —
//!   the certified backend's "certify in f64, escalate to ℚ" ladder,
//! - [`spectral`]: a Perron–Frobenius-style toolkit for non-negative
//!   matrices (spectral radius, irreducibility) mirroring the paper's
//!   rank-one argument,
//! - [`stochastic`]: column/row-stochastic matrix utilities, Dobrushin's
//!   ergodic coefficient, and backward products, used by the Push-Sum and
//!   Metropolis convergence analyses of §5.
//!
//! # Example
//!
//! ```
//! use kya_arith::{BigInt, BigRational, QMatrix};
//!
//! // The fibre-count system for a 3-fibre base: M z = 0 has the rank-one
//! // kernel spanned by (1, 2, 3).
//! let m = QMatrix::from_i64_rows(&[
//!     &[-8, 1, 2],
//!     &[ 2, -4, 2],
//!     &[ 6, 3, -4],
//! ]);
//! let z = m.positive_integer_kernel().expect("rank-one kernel");
//! assert_eq!(z, vec![BigInt::from(1), BigInt::from(2), BigInt::from(3)]);
//! # let _ = BigRational::from_i64(1, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod int_linalg;
pub mod interval;
mod linalg;
mod rational;
pub mod spectral;
pub mod stochastic;

pub use bigint::{BigInt, ParseBigIntError, Sign};
pub use int_linalg::IMatrix;
pub use interval::{Certainty, Enclosure};
pub use linalg::{KernelError, QMatrix};
pub use rational::{BigRational, ParseRationalError};

/// Greatest common divisor of two big integers (always non-negative).
///
/// `gcd(0, 0) == 0` by convention.
///
/// ```
/// use kya_arith::{gcd, BigInt};
/// assert_eq!(gcd(&BigInt::from(12), &BigInt::from(-18)), BigInt::from(6));
/// ```
pub fn gcd(a: &BigInt, b: &BigInt) -> BigInt {
    a.gcd(b)
}

/// Least common multiple of two big integers (always non-negative).
///
/// `lcm(0, x) == 0`.
///
/// ```
/// use kya_arith::{lcm, BigInt};
/// assert_eq!(lcm(&BigInt::from(4), &BigInt::from(6)), BigInt::from(12));
/// ```
pub fn lcm(a: &BigInt, b: &BigInt) -> BigInt {
    if a.is_zero() || b.is_zero() {
        return BigInt::zero();
    }
    let g = gcd(a, b);
    (&a.abs() / &g) * b.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-fast-path remainder-chain Euclid, kept as the differential
    /// reference for the limb-level binary gcd.
    fn gcd_euclid_reference(a: &BigInt, b: &BigInt) -> BigInt {
        let mut a = a.abs();
        let mut b = b.abs();
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r;
        }
        a
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(&BigInt::zero(), &BigInt::zero()), BigInt::zero());
        assert_eq!(gcd(&BigInt::from(7), &BigInt::zero()), BigInt::from(7));
        assert_eq!(gcd(&BigInt::from(12), &BigInt::from(-18)), BigInt::from(6));
        assert_eq!(lcm(&BigInt::zero(), &BigInt::from(5)), BigInt::zero());
        assert_eq!(lcm(&BigInt::from(21), &BigInt::from(6)), BigInt::from(42));
    }

    #[test]
    fn gcd_edge_cases_match_reference() {
        let two_pow_4096 = &BigInt::one() << 4096;
        let cases = [
            (BigInt::zero(), BigInt::zero()),
            (BigInt::zero(), two_pow_4096.clone()),
            (two_pow_4096.clone(), two_pow_4096.clone()),
            (two_pow_4096.clone(), &two_pow_4096 - &BigInt::one()),
            (
                &two_pow_4096 * &BigInt::from(6),
                &two_pow_4096 * &BigInt::from(15),
            ),
            (BigInt::from(u64::MAX), two_pow_4096.clone()),
        ];
        for (a, b) in &cases {
            assert_eq!(gcd(a, b), gcd_euclid_reference(a, b), "gcd({a}, {b})");
            assert_eq!(gcd(b, a), gcd_euclid_reference(a, b), "gcd symmetric");
        }
    }

    /// Random-limb strategy: magnitudes up to `limbs * 64` bits, biased
    /// toward interesting shapes (trailing zeros, equal halves).
    fn arb_bigint(limbs: usize) -> impl Strategy<Value = BigInt> {
        (
            proptest::collection::vec(any::<u64>(), 0..limbs + 1),
            0usize..128,
            any::<bool>(),
        )
            .prop_map(|(ls, shift, neg)| {
                let mut acc = BigInt::zero();
                for l in ls {
                    acc = (acc << 64) + BigInt::from(l);
                }
                acc = acc << shift;
                if neg {
                    -acc
                } else {
                    acc
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Differential: binary gcd == Euclid reference, up to ~4096 bits.
        #[test]
        fn gcd_matches_euclid_reference(a in arb_bigint(62), b in arb_bigint(62)) {
            prop_assert_eq!(gcd(&a, &b), gcd_euclid_reference(&a, &b));
        }

        /// gcd divides both operands and lcm * gcd == |a * b|.
        #[test]
        fn gcd_lcm_laws(a in arb_bigint(8), b in arb_bigint(8)) {
            let g = gcd(&a, &b);
            if !g.is_zero() {
                prop_assert!((&a % &g).is_zero());
                prop_assert!((&b % &g).is_zero());
                prop_assert_eq!(&g * &lcm(&a, &b), (&a * &b).abs());
            }
        }
    }
}

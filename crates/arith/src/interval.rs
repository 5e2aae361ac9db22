//! Machine-checked f64 enclosures: certify in f64, escalate to ℚ.
//!
//! The conformance backend oracle used to compare f64 runs against the
//! exact backend with a heuristic linear tolerance. This module replaces
//! that guess with a *certificate*: [`Enclosure`] is a `[lo, hi]`
//! interval with outward-rounded arithmetic, and its soundness lemma is
//! what the oracle checks.
//!
//! # Soundness lemma
//!
//! Every binary operation here evaluates each endpoint candidate with
//! the hardware's round-to-nearest op, detects whether that op was
//! *exact* via an error-free transformation (2Sum for `+ −`, an FMA
//! residual for `× ÷`), and steps one ulp outward only when it was not.
//! Because round-to-nearest is monotone, two containments follow by
//! induction over any op sequence:
//!
//! 1. **the exact real value** of the expression lies in the enclosure
//!    (each endpoint bound is a true bound on the corner's real value);
//! 2. **every round-to-nearest f64 trajectory** of the same expression
//!    lies in the enclosure (the f64 result of an op on contained inputs
//!    is squeezed between the rounded corner results, which the outward
//!    step covers).
//!
//! So "f64 output ∈ enclosure" is a tolerance-free differential oracle:
//! a correct f64 implementation can never escape the box, and the box's
//! width is a *measured* bound on `|f64 − exact|`, not an estimate.
//!
//! # Escalation
//!
//! When an enclosure cannot certify a pending comparison — a convergence
//! threshold, the sign of an α-safety entry, a frequency-table tie — the
//! caller escalates to exact arithmetic: it replays the run on the
//! canonical [`BigRational`] backend and audits the exact outputs with
//! [`Enclosure::contains_rational`].

use crate::BigRational;

/// Whether an enclosure can decide a comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certainty {
    /// The enclosure proves the predicate true or false.
    Certain(bool),
    /// The enclosure straddles the decision boundary: escalate to ℚ.
    Unknown,
}

/// 2Sum error term: zero iff `s = a + b` was exact (NaN when `s`
/// overflowed, which callers treat as inexact).
#[inline]
fn two_sum_err(a: f64, b: f64, s: f64) -> f64 {
    let bv = s - a;
    let av = s - bv;
    (a - av) + (b - bv)
}

/// Lower bound of the real sum `a + b`: the rounded sum, stepped one
/// ulp down unless the 2Sum residual proves it exact.
#[inline]
fn sum_down(a: f64, b: f64) -> f64 {
    let s = a + b;
    if two_sum_err(a, b, s) == 0.0 {
        s
    } else {
        s.next_down()
    }
}

/// Upper bound of the real sum `a + b`.
#[inline]
fn sum_up(a: f64, b: f64) -> f64 {
    let s = a + b;
    if two_sum_err(a, b, s) == 0.0 {
        s
    } else {
        s.next_up()
    }
}

/// Magnitude floor below which an FMA residual cannot be trusted to
/// witness exactness: the error of a product/quotient is a multiple of
/// `2^(e−105)` at result exponent `e`, so it stays exactly
/// representable (and a zero residual really means exact) only while
/// the result is safely above the subnormal range. `1e-270 ≈ 2^-897`
/// leaves two decades of margin over the `2^-966` cutoff.
const EXACT_GUARD: f64 = 1e-270;

/// Corner product with the interval-endpoint convention `0 · ±∞ = 0`
/// (the extremum at a zero endpoint is attained, so the corner is
/// exact), plus bounds: `(value, exact)`.
#[inline]
fn corner_mul(a: f64, b: f64) -> (f64, bool) {
    if a == 0.0 || b == 0.0 {
        return (0.0, true);
    }
    let p = a * b;
    let exact = p.is_finite() && p.abs() >= EXACT_GUARD && a.mul_add(b, -p) == 0.0;
    (p, exact)
}

/// Corner quotient bounds; `None` for the dominated `±∞ / ±∞` corners.
#[inline]
fn corner_div(a: f64, b: f64) -> Option<(f64, bool)> {
    if a.is_infinite() && b.is_infinite() {
        return None;
    }
    if a == 0.0 {
        return Some((0.0, true));
    }
    let q = a / b;
    let exact = q.is_finite() && a.abs() >= EXACT_GUARD && q != 0.0 && q.mul_add(b, -a) == 0.0;
    Some((q, exact))
}

/// A directed-rounding interval: every real value (and every
/// round-to-nearest f64 trajectory) of the enclosed expression lies in
/// `[lo, hi]`. See the [module docs](self) for the soundness lemma.
///
/// Endpoints may be infinite (an unbounded side certifies nothing);
/// they are never NaN, and `lo ≤ hi` always holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Enclosure {
    lo: f64,
    hi: f64,
}

impl Enclosure {
    /// The whole real line — the enclosure that certifies nothing,
    /// produced e.g. by dividing by an interval that straddles zero.
    pub const ENTIRE: Enclosure = Enclosure {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The exact point `[v, v]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not finite.
    pub fn point(v: f64) -> Enclosure {
        assert!(v.is_finite(), "Enclosure::point of non-finite {v}");
        Enclosure { lo: v, hi: v }
    }

    /// The exact point for a finite `v`; `None` for NaN or infinities.
    pub fn from_f64(v: f64) -> Option<Enclosure> {
        v.is_finite().then_some(Enclosure { lo: v, hi: v })
    }

    /// Exact enclosure of an integer: a point when `|v| ≤ 2^53`, a
    /// one-ulp bracket around the rounded value otherwise.
    pub fn from_i64(v: i64) -> Enclosure {
        let f = v as f64;
        if v.unsigned_abs() <= 1u64 << 53 {
            Enclosure { lo: f, hi: f }
        } else {
            Enclosure {
                lo: f.next_down(),
                hi: f.next_up(),
            }
        }
    }

    /// Exact enclosure of an unsigned integer.
    pub fn from_u64(v: u64) -> Enclosure {
        let f = v as f64;
        if v <= 1u64 << 53 {
            Enclosure { lo: f, hi: f }
        } else {
            Enclosure {
                lo: f.next_down(),
                hi: f.next_up(),
            }
        }
    }

    /// The zero point.
    pub fn zero() -> Enclosure {
        Enclosure { lo: 0.0, hi: 0.0 }
    }

    /// The unit point.
    pub fn one() -> Enclosure {
        Enclosure { lo: 1.0, hi: 1.0 }
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Outward-rounded width `hi − lo` (infinite for unbounded sides):
    /// the machine-checked bound on `|f64 − exact|` for any value pair
    /// inside the enclosure.
    pub fn width(&self) -> f64 {
        sum_up(self.hi, -self.lo)
    }

    /// Whether both endpoints are finite — the precondition for any
    /// certification.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Whether the f64 value `v` lies in the enclosure (NaN never does;
    /// `±inf` only on an unbounded side).
    pub fn contains(&self, v: f64) -> bool {
        !v.is_nan() && self.lo <= v && v <= self.hi
    }

    /// Whether the exact rational `q` lies in the enclosure (exact
    /// comparison against the lifted endpoints; an unbounded side
    /// contains everything in that direction).
    pub fn contains_rational(&self, q: &BigRational) -> bool {
        let above_lo = match BigRational::from_f64(self.lo) {
            Some(lo) => &lo <= q,
            None => self.lo == f64::NEG_INFINITY,
        };
        let below_hi = match BigRational::from_f64(self.hi) {
            Some(hi) => q <= &hi,
            None => self.hi == f64::INFINITY,
        };
        above_lo && below_hi
    }

    /// Certified sign: `Certain(true)` strictly positive,
    /// `Certain(false)` strictly negative, `Unknown` when the enclosure
    /// touches zero — the frequency-table tie case that escalates.
    pub fn sign_positive(&self) -> Certainty {
        if self.lo > 0.0 {
            Certainty::Certain(true)
        } else if self.hi < 0.0 {
            Certainty::Certain(false)
        } else {
            Certainty::Unknown
        }
    }

    /// Interval division by a positive integer (the Push-Sum message
    /// split). Exact divisions — powers of two, exactly representable
    /// quotients — stay points.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn div_u64(&self, k: u64) -> Enclosure {
        assert!(k != 0, "division by zero");
        *self / Enclosure::from_u64(k)
    }
}

impl std::ops::Neg for Enclosure {
    type Output = Enclosure;
    fn neg(self) -> Enclosure {
        Enclosure {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl std::ops::Add for Enclosure {
    type Output = Enclosure;
    fn add(self, rhs: Enclosure) -> Enclosure {
        Enclosure {
            lo: sum_down(self.lo, rhs.lo),
            hi: sum_up(self.hi, rhs.hi),
        }
    }
}

impl std::ops::Sub for Enclosure {
    type Output = Enclosure;
    fn sub(self, rhs: Enclosure) -> Enclosure {
        self + (-rhs)
    }
}

impl std::ops::Mul for Enclosure {
    type Output = Enclosure;
    fn mul(self, rhs: Enclosure) -> Enclosure {
        let corners = [
            corner_mul(self.lo, rhs.lo),
            corner_mul(self.lo, rhs.hi),
            corner_mul(self.hi, rhs.lo),
            corner_mul(self.hi, rhs.hi),
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (v, exact) in corners {
            lo = lo.min(if exact { v } else { v.next_down() });
            hi = hi.max(if exact { v } else { v.next_up() });
        }
        Enclosure { lo, hi }
    }
}

impl std::ops::Div for Enclosure {
    type Output = Enclosure;
    /// Interval division; a divisor that touches zero yields
    /// [`Enclosure::ENTIRE`] (certification fails, forcing escalation)
    /// rather than panicking.
    fn div(self, rhs: Enclosure) -> Enclosure {
        if rhs.lo <= 0.0 && rhs.hi >= 0.0 {
            return Enclosure::ENTIRE;
        }
        let corners = [
            corner_div(self.lo, rhs.lo),
            corner_div(self.lo, rhs.hi),
            corner_div(self.hi, rhs.lo),
            corner_div(self.hi, rhs.hi),
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (v, exact) in corners.into_iter().flatten() {
            lo = lo.min(if exact { v } else { v.next_down() });
            hi = hi.max(if exact { v } else { v.next_up() });
        }
        Enclosure { lo, hi }
    }
}

impl std::iter::Sum for Enclosure {
    fn sum<I: Iterator<Item = Enclosure>>(iter: I) -> Enclosure {
        iter.fold(Enclosure::zero(), |acc, e| acc + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BigInt;
    use proptest::prelude::*;

    fn rat(n: i64, d: i64) -> BigRational {
        BigRational::from_i64(n, d)
    }

    #[test]
    fn point_ops_stay_points_when_exact() {
        let a = Enclosure::point(0.5);
        let b = Enclosure::point(0.25);
        assert_eq!((a + b).width(), 0.0);
        assert_eq!((a + b).lo(), 0.75);
        assert_eq!((a - b).width(), 0.0);
        assert_eq!((a * b).width(), 0.0);
        assert_eq!((a * b).lo(), 0.125);
        assert_eq!((a / b).width(), 0.0);
        assert_eq!((a / b).lo(), 2.0);
        assert_eq!(Enclosure::point(1.0).div_u64(4).width(), 0.0);
    }

    #[test]
    fn inexact_ops_bracket_the_real_value() {
        // 0.1 + 0.2 is famously inexact.
        let s = Enclosure::point(0.1) + Enclosure::point(0.2);
        assert!(s.width() > 0.0);
        assert!(s.contains(0.1 + 0.2));
        let exact = &BigRational::from_f64(0.1).unwrap() + &BigRational::from_f64(0.2).unwrap();
        assert!(s.contains_rational(&exact));
        // One third of a point is inexact but only two ulps wide.
        let t = Enclosure::one().div_u64(3);
        assert!(t.contains(1.0 / 3.0));
        assert!(t.contains_rational(&rat(1, 3)));
        assert!(t.width() <= 4.0 * f64::EPSILON);
    }

    #[test]
    fn division_by_zero_straddling_interval_is_entire() {
        let z = Enclosure::point(1.0) - Enclosure::one(); // exact zero point
        assert_eq!(Enclosure::one() / z, Enclosure::ENTIRE);
        // An inexact sum minus its rounded value brackets zero without
        // being a zero point.
        let straddle = Enclosure::point(0.1) + Enclosure::point(0.2) - Enclosure::point(0.1 + 0.2);
        assert!(straddle.lo() < 0.0 && straddle.hi() > 0.0);
        assert_eq!(Enclosure::one() / straddle, Enclosure::ENTIRE);
        assert!(!Enclosure::ENTIRE.is_bounded());
        assert_eq!(Enclosure::ENTIRE.sign_positive(), Certainty::Unknown);
        assert!(Enclosure::ENTIRE.contains(f64::INFINITY));
        assert!(!Enclosure::ENTIRE.contains(f64::NAN));
    }

    #[test]
    fn certified_sign() {
        let e = Enclosure::point(0.5) + Enclosure::point(0.25);
        assert_eq!(e.sign_positive(), Certainty::Certain(true));
        assert_eq!((-e).sign_positive(), Certainty::Certain(false));
    }

    #[test]
    fn integer_constructors_are_exact_or_bracketing() {
        assert_eq!(Enclosure::from_i64(1 << 53).width(), 0.0);
        assert_eq!(Enclosure::from_u64(1 << 53).width(), 0.0);
        let big = (1u64 << 53) + 1;
        let e = Enclosure::from_u64(big);
        assert!(e.width() > 0.0);
        assert!(e.contains_rational(&BigRational::from_integer(BigInt::from(big))));
        assert_eq!(Enclosure::from_i64(-7).width(), 0.0);
        assert_eq!(Enclosure::from_i64(-7).lo(), -7.0);
    }

    /// One random op applied to both trajectories at once.
    #[derive(Debug, Clone)]
    enum Op {
        Add(i8),
        Sub(i8),
        Mul(i8),
        DivInt(u8),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (any::<u8>(), any::<i8>(), 1u8..=64u8).prop_map(|(sel, k, d)| match sel % 4 {
                0 => Op::Add(k),
                1 => Op::Sub(k),
                2 => Op::Mul(k),
                _ => Op::DivInt(d),
            }),
            0..24,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tentpole differential: for a random op sequence, the
        /// enclosure contains the BigRational ground truth AND the
        /// round-to-nearest f64 trajectory.
        #[test]
        fn enclosure_contains_ground_truth(start in -1000i64..1000, ops in arb_ops()) {
            let mut enc = Enclosure::from_i64(start);
            let mut exact = BigRational::from_integer(BigInt::from(start));
            let mut f = start as f64;
            for op in &ops {
                match *op {
                    Op::Add(k) => {
                        enc = enc + Enclosure::from_i64(k as i64);
                        exact = &exact + &BigRational::from(k as i64);
                        f += k as f64;
                    }
                    Op::Sub(k) => {
                        enc = enc - Enclosure::from_i64(k as i64);
                        exact = &exact - &BigRational::from(k as i64);
                        f -= k as f64;
                    }
                    Op::Mul(k) => {
                        enc = enc * Enclosure::from_i64(k as i64);
                        exact = &exact * &BigRational::from(k as i64);
                        f *= k as f64;
                    }
                    Op::DivInt(k) => {
                        enc = enc.div_u64(k as u64);
                        exact = exact.div_integer(k as u64);
                        f /= k as f64;
                    }
                }
                prop_assert!(enc.contains_rational(&exact),
                    "exact {exact:?} escaped {enc:?}");
                prop_assert!(enc.contains(f), "f64 {f} escaped {enc:?}");
            }
        }

        /// Endpoint soundness for a single op on arbitrary doubles
        /// (drawn as raw bit patterns to cover subnormals and extreme
        /// exponents).
        #[test]
        fn single_ops_are_sound(
            abits in any::<u64>(),
            bbits in any::<u64>(),
        ) {
            let (a, b) = (f64::from_bits(abits), f64::from_bits(bbits));
            prop_assume!(a.is_finite() && b.is_finite());
            let (ea, eb) = (Enclosure::point(a), Enclosure::point(b));
            let (qa, qb) = (
                BigRational::from_f64(a).unwrap(),
                BigRational::from_f64(b).unwrap(),
            );
            prop_assert!((ea + eb).contains_rational(&(&qa + &qb)));
            prop_assert!((ea + eb).contains(a + b));
            prop_assert!((ea - eb).contains_rational(&(&qa - &qb)));
            prop_assert!((ea * eb).contains_rational(&(&qa * &qb)));
            prop_assert!((ea * eb).contains(a * b) || !(a * b).is_finite());
            if b != 0.0 {
                prop_assert!((ea / eb).contains_rational(&(&qa / &qb)));
                prop_assert!((ea / eb).contains(a / b) || !(a / b).is_finite());
            }
        }
    }
}

//! Exact rational numbers and best rational approximation.
//!
//! [`BigRational`] backs the exact fibre-frequency computations of §4 and
//! the ℚ_N rounding step of §5.4 of the paper: an agent that knows an upper
//! bound `N` on the network size snaps its asymptotic Push-Sum estimate to
//! the nearest rational with denominator at most `N`, turning approximate
//! convergence into exact stabilization.

use crate::bigint::gcd_u64;
use crate::{gcd, BigInt};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::str::FromStr;

// ---------------------------------------------------------------------
// small-value (i128) fast path
// ---------------------------------------------------------------------

/// Binary gcd on `u128` (both operands may be zero).
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let k = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << k;
        }
    }
}

/// Both operands as `(num, den)` machine words, when all four parts fit
/// `i64`. With single-limb inputs every product below stays within
/// `i128` (|n|, d < 2^63 ⇒ |n₁d₂ ± n₂d₁| < 2^127, d₁d₂ < 2^126), so the
/// fast paths need no overflow checks.
#[inline]
fn small_parts(x: &BigRational, y: &BigRational) -> Option<(i128, i128, i128, i128)> {
    Some((
        x.num.to_i64()? as i128,
        x.den.to_i64()? as i128,
        y.num.to_i64()? as i128,
        y.den.to_i64()? as i128,
    ))
}

/// Normalize a small `num / den` (`den > 0`) into a reduced rational.
#[inline]
fn from_small(num: i128, den: i128) -> BigRational {
    debug_assert!(den > 0);
    if num == 0 {
        return BigRational::zero();
    }
    let g = gcd_u128(num.unsigned_abs(), den as u128) as i128;
    BigRational {
        num: BigInt::from(num / g),
        den: BigInt::from(den / g),
    }
}

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(num, den) == 1`.
///
/// ```
/// use kya_arith::BigRational;
/// let third = BigRational::from_i64(1, 3);
/// let sixth = BigRational::from_i64(1, 6);
/// assert_eq!(&third + &sixth, BigRational::from_i64(1, 2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BigRational {
    num: BigInt,
    den: BigInt,
}

/// Error returned when parsing a [`BigRational`] from a malformed string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRationalError {
    kind: &'static str,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.kind)
    }
}

impl std::error::Error for ParseRationalError {}

impl BigRational {
    /// The rational `0`.
    pub fn zero() -> BigRational {
        BigRational {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// The rational `1`.
    pub fn one() -> BigRational {
        BigRational {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Construct and normalize `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> BigRational {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return BigRational::zero();
        }
        let g = gcd(&num, &den);
        let (mut num, mut den) = (&num / &g, &den / &g);
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        BigRational { num, den }
    }

    /// Construct from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn from_i64(num: i64, den: i64) -> BigRational {
        BigRational::new(BigInt::from(num), BigInt::from(den))
    }

    /// The integer `v` as a rational.
    pub fn from_integer(v: impl Into<BigInt>) -> BigRational {
        BigRational {
            num: v.into(),
            den: BigInt::one(),
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Whether this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Whether this rational is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Whether this rational is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Absolute value.
    pub fn abs(&self) -> BigRational {
        BigRational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// Swaps the (already coprime) parts directly — no gcd needed.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(&self) -> BigRational {
        assert!(!self.is_zero(), "reciprocal of zero");
        if self.num.is_negative() {
            BigRational {
                num: -&self.den,
                den: self.num.abs(),
            }
        } else {
            BigRational {
                num: self.den.clone(),
                den: self.num.clone(),
            }
        }
    }

    /// Divide by a positive machine integer — the per-neighbor share
    /// split of exact Push-Sum (`y / outdegree`) — without materializing
    /// the integer as a rational. The numerator's remainder mod `k` is a
    /// limb loop that allocates nothing, so the cancelling factor
    /// `g = gcd(num, k)` is a `u64` gcd; the numerator is divided only
    /// when `g > 1`, and the denominator is scaled by `k / g` in one
    /// limb-multiply pass. The result is already in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn div_integer(&self, k: u64) -> BigRational {
        assert!(k != 0, "division by zero");
        if self.is_zero() {
            return BigRational::zero();
        }
        let g = gcd_u64(self.num.rem_u64(k), k);
        BigRational {
            num: self.num.div_u64(g),
            den: self.den.mul_u64(k / g),
        }
    }

    /// Correctly rounded conversion to `f64` (round-to-nearest-even).
    ///
    /// The nearest double to the exact rational value, with IEEE-754
    /// tie-to-even at halfway points, gradual underflow through the
    /// subnormal range (lopsided values like `1/2^1070` — the shape
    /// late-round exact Push-Sum residuals take — convert to the exact
    /// subnormal, not `0.0`), and saturation to `±inf` beyond f64
    /// range. This is the semantics [`crate::interval::Enclosure`]'s
    /// rational constructors and the conformance enclosure oracle rely
    /// on: one integer division produces a 55-plus-bit quotient and a
    /// sticky remainder, a single explicit round-to-nearest-even picks
    /// the mantissa, and the final power-of-two scaling is exact — no
    /// step rounds twice.
    pub fn to_f64(&self) -> f64 {
        if self.num.is_zero() {
            return 0.0;
        }
        let neg = self.num.is_negative();
        let num = self.num.abs();
        // The magnitude lies in [2^(e-1), 2^(e+1)).
        let e = num.bits() as i64 - self.den.bits() as i64;
        let mag = if e > 1026 {
            f64::INFINITY
        } else if e < -1080 {
            0.0
        } else {
            // Scale so the integer quotient q = ⌊num·2^s / den⌋ carries
            // 55 or 56 significant bits — at least two guard bits below
            // any (sub)normal mantissa — and a sticky remainder.
            let s = 55 - e;
            let (sn, sd) = if s >= 0 {
                (&num << s as usize, self.den.clone())
            } else {
                (num.clone(), &self.den << (-s) as usize)
            };
            let (q, r) = sn.div_rem(&sd);
            let sticky = !r.is_zero();
            let m = q.to_i64().expect("56-bit quotient fits i64") as u64;
            let t = 64 - i64::from(m.leading_zeros());
            let exp = t - 1 - s; // magnitude ∈ [2^exp, 2^(exp+1))
                                 // Keep 53 bits for normals; fewer as the value sinks into
                                 // the subnormal range (prec ≤ 0 ⇒ at most half the smallest
                                 // subnormal: only an upward tie-break can survive).
            let prec = (exp + 1075).clamp(0, 53);
            let drop = (t - prec) as u32; // ≥ 2 by construction
            let mut mant = m >> drop;
            let round = (m >> (drop - 1)) & 1 == 1;
            let rest = sticky || m & ((1u64 << (drop - 1)) - 1) != 0;
            if round && (rest || mant & 1 == 1) {
                mant += 1; // carry to 2^prec stays exact below
            }
            // mant·2^(drop−s) is exactly representable (or overflows to
            // inf), so the two-step scaling never rounds a second time.
            let exp2 = (i64::from(drop) - s) as i32;
            let h = exp2.clamp(-1000, 1000);
            mant as f64 * 2f64.powi(h) * 2f64.powi(exp2 - h)
        };
        if neg {
            -mag
        } else {
            mag
        }
    }

    /// Exact conversion from a finite `f64` (every finite float is a
    /// dyadic rational).
    ///
    /// Returns `None` for NaN or infinities.
    ///
    /// ```
    /// use kya_arith::BigRational;
    /// assert_eq!(
    ///     BigRational::from_f64(0.25),
    ///     Some(BigRational::from_i64(1, 4)),
    /// );
    /// assert_eq!(BigRational::from_f64(f64::NAN), None);
    /// ```
    pub fn from_f64(v: f64) -> Option<BigRational> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(BigRational::zero());
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let fraction = bits & 0xf_ffff_ffff_ffff;
        let (mantissa, exp) = if exponent == 0 {
            (fraction, -1074i64)
        } else {
            (fraction | (1 << 52), exponent - 1075)
        };
        let m = BigInt::from(mantissa) * BigInt::from(sign);
        Some(if exp >= 0 {
            BigRational::from_integer(&m << exp as usize)
        } else {
            BigRational::new(m, &BigInt::one() << (-exp) as usize)
        })
    }

    /// Floor: the largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Ceiling: the smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        -(&(-self).floor())
    }

    /// Round to the nearest integer (ties away from zero).
    pub fn round(&self) -> BigInt {
        let half = BigRational::from_i64(1, 2);
        if self.is_negative() {
            -(&(-self).round())
        } else {
            (self + &half).floor()
        }
    }

    /// Raise to an integer power (negative exponents invert).
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero and `exp < 0`.
    pub fn pow(&self, exp: i32) -> BigRational {
        if exp < 0 {
            return self.recip().pow(-exp);
        }
        BigRational {
            num: self.num.pow(exp as u32),
            den: self.den.pow(exp as u32),
        }
    }

    /// The best rational approximation to `self` with denominator at most
    /// `max_den`, via the continued-fraction (Stern–Brocot) construction.
    ///
    /// This is the ℚ_N rounding primitive of the paper's §5.4: snapping the
    /// asymptotic Push-Sum output to the frequency grid
    /// `ℚ_N = { p/q : 0 <= p <= q <= N }` (here generalized to all
    /// rationals) yields exact finite-time stabilization when a bound `N`
    /// on the network size is known.
    ///
    /// Ties (two grid points equidistant from `self`) resolve to the one
    /// with the smaller denominator, matching the classical best
    /// approximation theory.
    ///
    /// # Panics
    ///
    /// Panics if `max_den < 1`.
    ///
    /// ```
    /// use kya_arith::{BigInt, BigRational};
    /// // 0.333 snaps to 1/3 on the N = 10 grid.
    /// let x = BigRational::from_i64(333, 1000);
    /// let best = x.best_approximation(&BigInt::from(10));
    /// assert_eq!(best, BigRational::from_i64(1, 3));
    /// ```
    pub fn best_approximation(&self, max_den: &BigInt) -> BigRational {
        assert!(
            max_den >= &BigInt::one(),
            "best_approximation requires max_den >= 1"
        );
        if self.den <= *max_den {
            return self.clone();
        }
        // Continued fraction: maintain convergents (h0/k0, h1/k1).
        let mut p = self.num.clone();
        let mut q = self.den.clone();
        let mut h0 = BigInt::one();
        let mut k0 = BigInt::zero();
        let mut h1 = self.floor();
        let mut k1 = BigInt::one();
        // Consume the integer part.
        let a0 = self.floor();
        let r = &p - &(&a0 * &q);
        p = q;
        q = r;
        while !q.is_zero() {
            let (a, r) = p.div_rem(&q);
            let h2 = &a * &h1 + &h0;
            let k2 = &a * &k1 + &k0;
            if k2 > *max_den {
                // Largest t such that k0 + t*k1 <= max_den gives the best
                // semiconvergent; compare it with the previous convergent.
                let t = (max_den - &k0) / &k1;
                let semi_valid = &t + &t >= a; // t >= a/2 (classical criterion)
                let semi = BigRational::new(&h0 + &(&t * &h1), &k0 + &(&t * &k1));
                let conv = BigRational::new(h1.clone(), k1.clone());
                if semi_valid {
                    let d_semi = (&semi - self).abs();
                    let d_conv = (&conv - self).abs();
                    return match d_semi.cmp(&d_conv) {
                        Ordering::Less => semi,
                        Ordering::Greater => conv,
                        Ordering::Equal => {
                            if semi.denom() < conv.denom() {
                                semi
                            } else {
                                conv
                            }
                        }
                    };
                }
                return conv;
            }
            h0 = h1;
            k0 = k1;
            h1 = h2;
            k1 = k2;
            p = q;
            q = r;
        }
        BigRational::new(h1, k1)
    }
}

impl Default for BigRational {
    fn default() -> Self {
        BigRational::zero()
    }
}

impl From<BigInt> for BigRational {
    fn from(v: BigInt) -> Self {
        BigRational::from_integer(v)
    }
}

impl From<i64> for BigRational {
    fn from(v: i64) -> Self {
        BigRational::from_integer(v)
    }
}

impl PartialOrd for BigRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigRational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

/// `x ± y` over the big-integer path, via the classic d1/d2
/// decomposition (Knuth 4.5.1; the same shape as GMP's `mpq_add`): with
/// `g = gcd(d1, d2)` the only common factor the raw cross-multiplied sum
/// can share with the product denominator divides `g`, so one *small*
/// gcd replaces the full-size normalization gcd of `BigRational::new` —
/// this is what keeps Push-Sum's `y/z` intermediates from ballooning.
///
/// Equal denominators — neighbouring Push-Sum shares usually have them —
/// skip the decomposition: one add, one gcd with the shared denominator,
/// and two divisions, each a clone when that gcd is 1.
fn add_big(x: &BigRational, y_num: &BigInt, y_den: &BigInt) -> BigRational {
    if x.den == *y_den {
        let t = &x.num + y_num;
        if t.is_zero() {
            return BigRational::zero();
        }
        let g = t.gcd(y_den);
        return BigRational {
            num: &t / &g,
            den: y_den / &g,
        };
    }
    let g = x.den.gcd(y_den);
    if g.is_one() {
        // Coprime denominators: the result is already in lowest terms.
        let num = &x.num * y_den + y_num * &x.den;
        if num.is_zero() {
            return BigRational::zero();
        }
        return BigRational {
            num,
            den: &x.den * y_den,
        };
    }
    let da = &x.den / &g;
    let db = y_den / &g;
    let t = &x.num * &db + y_num * &da;
    if t.is_zero() {
        return BigRational::zero();
    }
    let g2 = t.gcd(&g);
    BigRational {
        num: &t / &g2,
        den: &da * &(y_den / &g2),
    }
}

/// `x * y` over the big-integer path: cross-cancel `gcd(n1, d2)` and
/// `gcd(n2, d1)` *before* multiplying, so the products are formed from
/// already-reduced halves and need no final gcd. Requires both operands
/// non-zero.
fn mul_big(x: &BigRational, y_num: &BigInt, y_den: &BigInt) -> BigRational {
    let g1 = x.num.gcd(y_den);
    let g2 = y_num.gcd(&x.den);
    BigRational {
        num: &(&x.num / &g1) * &(y_num / &g2),
        den: &(&x.den / &g2) * &(y_den / &g1),
    }
}

impl Add for &BigRational {
    type Output = BigRational;
    fn add(self, rhs: &BigRational) -> BigRational {
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        if let Some((n1, d1, n2, d2)) = small_parts(self, rhs) {
            return from_small(n1 * d2 + n2 * d1, d1 * d2);
        }
        add_big(self, &rhs.num, &rhs.den)
    }
}

impl Sub for &BigRational {
    type Output = BigRational;
    fn sub(self, rhs: &BigRational) -> BigRational {
        if rhs.is_zero() {
            return self.clone();
        }
        if self.is_zero() {
            return -rhs;
        }
        if let Some((n1, d1, n2, d2)) = small_parts(self, rhs) {
            return from_small(n1 * d2 - n2 * d1, d1 * d2);
        }
        add_big(self, &-&rhs.num, &rhs.den)
    }
}

impl Mul for &BigRational {
    type Output = BigRational;
    fn mul(self, rhs: &BigRational) -> BigRational {
        if self.is_zero() || rhs.is_zero() {
            return BigRational::zero();
        }
        if let Some((n1, d1, n2, d2)) = small_parts(self, rhs) {
            return from_small(n1 * n2, d1 * d2);
        }
        mul_big(self, &rhs.num, &rhs.den)
    }
}

impl Div for &BigRational {
    type Output = BigRational;
    fn div(self, rhs: &BigRational) -> BigRational {
        assert!(!rhs.is_zero(), "division by zero rational");
        if self.is_zero() {
            return BigRational::zero();
        }
        if let Some((n1, d1, n2, d2)) = small_parts(self, rhs) {
            let (num, den) = if n2 < 0 {
                (n1 * -d2, d1 * -n2)
            } else {
                (n1 * d2, d1 * n2)
            };
            return from_small(num, den);
        }
        // x / y = x * recip(y); the reciprocal's parts are already
        // coprime, so this is one mul_big with the roles swapped.
        if rhs.num.is_negative() {
            mul_big(self, &-&rhs.den, &rhs.num.abs())
        } else {
            mul_big(self, &rhs.den, &rhs.num)
        }
    }
}

macro_rules! forward_owned_binop_rat {
    ($($trait:ident, $method:ident);*) => {$(
        impl $trait for BigRational {
            type Output = BigRational;
            fn $method(self, rhs: BigRational) -> BigRational { (&self).$method(&rhs) }
        }
        impl $trait<&BigRational> for BigRational {
            type Output = BigRational;
            fn $method(self, rhs: &BigRational) -> BigRational { (&self).$method(rhs) }
        }
        impl $trait<BigRational> for &BigRational {
            type Output = BigRational;
            fn $method(self, rhs: BigRational) -> BigRational { self.$method(&rhs) }
        }
    )*};
}
forward_owned_binop_rat!(Add, add; Sub, sub; Mul, mul; Div, div);

impl Neg for &BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        BigRational {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl Neg for BigRational {
    type Output = BigRational;
    fn neg(mut self) -> BigRational {
        self.num = -self.num;
        self
    }
}

/// A sum in progress: one numerator over a running common denominator,
/// normalized once in [`SumAcc::finish`], so a k-term Push-Sum inbox
/// pays one normalization instead of k − 1.
///
/// From the first nonzero term on, `den` is the lcm of the denominators
/// seen; before it, neither field holds an allocation. A term with the same
/// denominator is one numerator add. When both denominators are powers
/// of two (every Push-Sum share whose out-degrees are powers of two),
/// alignment is a shift and no gcd runs at all, not even at the end.
/// Otherwise each new denominator costs one gcd of denominators, and the
/// result one gcd of numerator and denominator.
struct SumAcc {
    num: BigInt,
    den: BigInt,
    /// Whether `num / den` is still a single term, hence already reduced.
    reduced: bool,
}

impl SumAcc {
    fn new() -> SumAcc {
        SumAcc {
            num: BigInt::zero(),
            den: BigInt::zero(),
            reduced: true,
        }
    }

    fn add(&mut self, x: &BigRational) {
        if x.is_zero() {
            return;
        }
        if self.num.is_zero() {
            self.num.clone_from(&x.num);
            self.den.clone_from(&x.den);
            return;
        }
        self.reduced = false;
        if self.den == x.den {
            self.num += &x.num;
            return;
        }
        match (self.den.pow2_exponent(), x.den.pow2_exponent()) {
            (Some(p), Some(q)) if q < p => self.num += &(&x.num << (p - q)),
            (Some(p), Some(q)) => {
                self.num = &(&self.num << (q - p)) + &x.num;
                self.den.clone_from(&x.den);
            }
            _ => {
                let g = self.den.gcd(&x.den);
                let da = &self.den / &g;
                let db = &x.den / &g;
                self.num = &(&self.num * &db) + &(&x.num * &da);
                self.den = &self.den * &db;
            }
        }
    }

    fn finish(self) -> BigRational {
        let SumAcc { num, den, reduced } = self;
        if num.is_zero() {
            return BigRational::zero();
        }
        if reduced {
            return BigRational { num, den };
        }
        if let Some(p) = den.pow2_exponent() {
            let t = p.min(num.trailing_zeros());
            if t == 0 {
                return BigRational { num, den };
            }
            return BigRational {
                num: num >> t,
                den: den >> t,
            };
        }
        let g = num.gcd(&den);
        if g.is_one() {
            return BigRational { num, den };
        }
        BigRational {
            num: &num / &g,
            den: &den / &g,
        }
    }
}

impl Sum for BigRational {
    fn sum<I: Iterator<Item = BigRational>>(iter: I) -> BigRational {
        let mut acc = SumAcc::new();
        iter.for_each(|x| acc.add(&x));
        acc.finish()
    }
}

impl<'a> Sum<&'a BigRational> for BigRational {
    fn sum<I: Iterator<Item = &'a BigRational>>(iter: I) -> BigRational {
        let mut acc = SumAcc::new();
        iter.for_each(|x| acc.add(x));
        acc.finish()
    }
}

impl fmt::Display for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRational({self})")
    }
}

impl FromStr for BigRational {
    type Err = ParseRationalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            None => {
                let n: BigInt = s
                    .parse()
                    .map_err(|_| ParseRationalError { kind: "numerator" })?;
                Ok(BigRational::from_integer(n))
            }
            Some((ns, ds)) => {
                let n: BigInt = ns
                    .parse()
                    .map_err(|_| ParseRationalError { kind: "numerator" })?;
                let d: BigInt = ds.parse().map_err(|_| ParseRationalError {
                    kind: "denominator",
                })?;
                if d.is_zero() {
                    return Err(ParseRationalError {
                        kind: "zero denominator",
                    });
                }
                Ok(BigRational::new(n, d))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rat(n: i64, d: i64) -> BigRational {
        BigRational::from_i64(n, d)
    }

    /// Pre-fast-path reference ops: cross-multiply, then fully normalize
    /// through `BigRational::new`'s single big gcd.
    fn add_reference(x: &BigRational, y: &BigRational) -> BigRational {
        BigRational::new(
            x.numer() * y.denom() + y.numer() * x.denom(),
            x.denom() * y.denom(),
        )
    }

    fn sub_reference(x: &BigRational, y: &BigRational) -> BigRational {
        BigRational::new(
            x.numer() * y.denom() - y.numer() * x.denom(),
            x.denom() * y.denom(),
        )
    }

    fn mul_reference(x: &BigRational, y: &BigRational) -> BigRational {
        BigRational::new(x.numer() * y.numer(), x.denom() * y.denom())
    }

    fn div_reference(x: &BigRational, y: &BigRational) -> BigRational {
        BigRational::new(x.numer() * y.denom(), x.denom() * y.numer())
    }

    /// The reduced-form invariant every constructor and operator must
    /// maintain: positive denominator, coprime parts, canonical zero.
    fn assert_normalized(x: &BigRational) {
        assert!(x.denom().is_positive(), "denominator not positive: {x:?}");
        if x.numer().is_zero() {
            assert!(x.denom().is_one(), "non-canonical zero: {x:?}");
        } else {
            assert!(
                x.numer().gcd(x.denom()).is_one(),
                "parts not coprime: {x:?}"
            );
        }
    }

    /// Rationals with multi-limb parts (numerators up to ~4096 bits),
    /// biased toward power-of-two factors and shared structure.
    fn arb_big_rat() -> impl Strategy<Value = BigRational> {
        (
            proptest::collection::vec(any::<u64>(), 1usize..17),
            proptest::collection::vec(any::<u64>(), 1usize..17),
            0usize..128,
            any::<bool>(),
        )
            .prop_map(|(ns, ds, shift, neg)| {
                let mut num = BigInt::zero();
                for l in ns {
                    num = (num << 64) + BigInt::from(l);
                }
                let mut den = BigInt::zero();
                for l in ds {
                    den = (den << 64) + BigInt::from(l);
                }
                den = den + BigInt::one();
                num = num << shift;
                if neg {
                    num = -num;
                }
                BigRational::new(num, den)
            })
    }

    /// Zero, word-sized or multi-limb rationals of either sign.
    fn arb_rat_shape() -> impl Strategy<Value = BigRational> {
        (0u8..4, arb_big_rat(), -1000i64..1000, 1i64..1000).prop_map(|(shape, big, n, d)| {
            match shape {
                0 => BigRational::zero(),
                1 => rat(n, d),
                _ => big,
            }
        })
    }

    /// A sum term: any [`arb_rat_shape`], zero, or a multi-limb
    /// numerator over a power-of-two (up to 2^600), odd, or `2^k · odd`
    /// denominator.
    fn arb_sum_term() -> impl Strategy<Value = BigRational> {
        (0u8..5, arb_rat_shape(), arb_big_rat(), 0usize..600).prop_map(|(shape, x, big, k)| {
            let odd = big.denom() >> big.denom().trailing_zeros();
            let num = big.numer().clone();
            match shape {
                0 => x,
                1 => BigRational::zero(),
                2 => BigRational::new(num, BigInt::one() << k),
                3 => BigRational::new(num, odd),
                _ => BigRational::new(num, odd << k),
            }
        })
    }

    /// A partner for `x` with exactly `x`'s denominator: `(s·n + i·d)/d`
    /// with `s = ±1` is still in lowest terms, since `gcd(n, d) = 1`.
    fn same_denominator(x: &BigRational, neg: bool, i: &BigInt) -> BigRational {
        let s = if neg { -x.numer() } else { x.numer().clone() };
        BigRational {
            num: s + i * x.denom(),
            den: x.denom().clone(),
        }
    }

    #[test]
    fn normalization() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-2, -4), rat(1, 2));
        assert_eq!(rat(2, -4), rat(-1, 2));
        assert_eq!(rat(0, 7), BigRational::zero());
        assert_eq!(rat(6, 2).denom(), &BigInt::one());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = rat(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(rat(1, 2) + rat(1, 3), rat(5, 6));
        assert_eq!(rat(1, 2) - rat(1, 3), rat(1, 6));
        assert_eq!(rat(2, 3) * rat(3, 4), rat(1, 2));
        assert_eq!(rat(1, 2) / rat(1, 4), rat(2, 1));
        assert_eq!(-rat(1, 2), rat(-1, 2));
        assert_eq!(rat(-3, 7).abs(), rat(3, 7));
        assert_eq!(rat(2, 5).recip(), rat(5, 2));
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(7, 7) == rat(1, 1));
    }

    #[test]
    fn floor_values() {
        assert_eq!(rat(7, 2).floor(), BigInt::from(3));
        assert_eq!(rat(-7, 2).floor(), BigInt::from(-4));
        assert_eq!(rat(4, 2).floor(), BigInt::from(2));
        assert_eq!(rat(-4, 2).floor(), BigInt::from(-2));
    }

    #[test]
    fn f64_roundtrip() {
        for v in [0.0, 0.5, -0.25, 1.0 / 3.0, 1e-10, 12345.6789] {
            let r = BigRational::from_f64(v).unwrap();
            assert_eq!(r.to_f64(), v);
        }
        assert_eq!(BigRational::from_f64(f64::INFINITY), None);
    }

    #[test]
    fn to_f64_lopsided_tiny() {
        // Regression: 1/2^1000 is perfectly representable in f64, but the
        // old shared-shift conversion pushed the numerator to 0 and
        // returned 0.0 — silently flattening late-round exact Push-Sum
        // residual telemetry.
        let tiny = BigRational::new(BigInt::one(), &BigInt::one() << 1000);
        assert_eq!(tiny.to_f64(), 2f64.powi(-1000));
        assert_eq!((-&tiny).to_f64(), -2f64.powi(-1000));
        // Subnormal outputs survive too. (Spelled via from_bits because
        // 2f64.powi(-1070) itself underflows: it divides by 2^1070 = inf.)
        let sub = BigRational::new(BigInt::one(), &BigInt::one() << 1070);
        assert_eq!(sub.to_f64(), f64::from_bits(1 << 4)); // 2^-1070
        assert!(sub.to_f64() > 0.0);
        // Below f64's range the correct answer *is* zero...
        let below = BigRational::new(BigInt::one(), &BigInt::one() << 2000);
        assert_eq!(below.to_f64(), 0.0);
        // ...and a huge numerator overflows to infinity.
        let above = BigRational::from_integer(&BigInt::one() << 2000);
        assert_eq!(above.to_f64(), f64::INFINITY);
        assert_eq!((-&above).to_f64(), f64::NEG_INFINITY);
    }

    #[test]
    fn to_f64_is_correctly_rounded() {
        // Regression: the old conversion truncated the scaled quotient
        // (or divided two already-rounded f64s), so halfway and
        // near-halfway quotients could land on the wrong neighbour.
        // These pin round-to-nearest-even explicitly.
        //
        // 1/3 must be the nearest double, which (in exact arithmetic)
        // differs from 1/3 by less than half an ulp in either direction.
        let third = BigRational::from_i64(1, 3);
        let f = third.to_f64();
        let up = BigRational::from_f64(f.next_up()).unwrap();
        let down = BigRational::from_f64(f.next_down()).unwrap();
        let lifted = BigRational::from_f64(f).unwrap();
        let err = (&lifted - &third).abs();
        assert!(err <= (&up - &third).abs());
        assert!(err <= (&down - &third).abs());
        // Exact halfway between 1 and 1 + ulp ties to even (down, since
        // 1.0's mantissa is even): (2^53 + 1) / 2^53.
        let half_ulp =
            BigRational::new((&BigInt::one() << 53) + BigInt::one(), &BigInt::one() << 53);
        assert_eq!(half_ulp.to_f64(), 1.0);
        // One sliver above that halfway point rounds up.
        let above = BigRational::new(
            (&BigInt::one() << 106) + (&BigInt::one() << 53) + BigInt::one(),
            &BigInt::one() << 106,
        );
        assert_eq!(above.to_f64(), 1.0 + f64::EPSILON);
        // Halfway with an odd kept mantissa ties up to even:
        // (2^53 + 3) / 2^53 sits between 1 + ulp (odd) and 1 + 2·ulp.
        let odd_half = BigRational::new(
            (&BigInt::one() << 53) + BigInt::from(3),
            &BigInt::one() << 53,
        );
        assert_eq!(odd_half.to_f64(), 1.0 + 2.0 * f64::EPSILON);
        // Subnormal rounding: half the smallest subnormal ties to zero…
        let half_min = BigRational::new(BigInt::one(), &BigInt::one() << 1075);
        assert_eq!(half_min.to_f64(), 0.0);
        // …one sliver above it rounds to the smallest subnormal…
        let just_above = BigRational::new(
            (&BigInt::one() << 1075) + BigInt::one(),
            &BigInt::one() << 2150,
        );
        assert_eq!(just_above.to_f64(), f64::from_bits(1));
        // …and 3·2^-1075 (halfway between subnormals 1 and 2) ties to
        // the even neighbour 2·2^-1074.
        let three_halves = BigRational::new(BigInt::from(3), &BigInt::one() << 1075);
        assert_eq!(three_halves.to_f64(), f64::from_bits(2));
        // Negative values mirror exactly.
        assert_eq!((-&three_halves).to_f64(), -f64::from_bits(2));
    }

    #[test]
    fn to_f64_lopsided_huge() {
        // Huge over small: relative error bounded by the 64-bit truncation.
        let x = BigRational::new(&BigInt::one() << 1000, BigInt::from(3));
        let expect = 2f64.powi(1000) / 3.0;
        assert!((x.to_f64() / expect - 1.0).abs() < 1e-12);
        // Both parts huge but ratio ~1 — denominators blow up together in
        // late-round Push-Sum.
        let big = &BigInt::one() << 1000;
        let y = BigRational::new(&big + &BigInt::one(), big.clone());
        assert!((y.to_f64() - 1.0).abs() < 1e-12);
        let f = BigRational::new(&big * &BigInt::from(3u64), &big * &BigInt::from(4u64));
        assert_eq!(f.to_f64(), 0.75);
    }

    #[test]
    fn display_parse() {
        assert_eq!(rat(1, 3).to_string(), "1/3");
        assert_eq!(rat(4, 2).to_string(), "2");
        assert_eq!("-5/10".parse::<BigRational>().unwrap(), rat(-1, 2));
        assert_eq!("17".parse::<BigRational>().unwrap(), rat(17, 1));
        assert!("1/0".parse::<BigRational>().is_err());
        assert!("a/2".parse::<BigRational>().is_err());
    }

    #[test]
    fn best_approximation_examples() {
        // pi ~ 355/113 with denominators up to 200.
        let pi = BigRational::from_f64(std::f64::consts::PI).unwrap();
        assert_eq!(pi.best_approximation(&BigInt::from(200)), rat(355, 113));
        // Already exact values pass through.
        assert_eq!(rat(1, 3).best_approximation(&BigInt::from(10)), rat(1, 3));
        // Integer budget 1 snaps to nearest integer.
        assert_eq!(rat(7, 5).best_approximation(&BigInt::from(1)), rat(1, 1));
    }

    #[test]
    fn best_approximation_is_optimal_exhaustive() {
        // Against brute force on the N = 12 grid.
        let n = 12i64;
        for num in -30..30i64 {
            for den in [37i64, 41, 97] {
                let x = rat(num, den);
                let best = x.best_approximation(&BigInt::from(n));
                let err = (&best - &x).abs();
                for p in -40..40 {
                    for q in 1..=n {
                        let cand = rat(p, q);
                        let cand_err = (&cand - &x).abs();
                        assert!(cand_err >= err, "{x}: candidate {cand} beats chosen {best}");
                    }
                }
            }
        }
    }

    /// Brute-force referee for `best_approximation`: scan *every*
    /// denominator `q <= n` (only the two integers bracketing `x*q` can
    /// be nearest for a given `q`), minimizing first the error, then the
    /// reduced denominator, then the numerator. The denominator rule is
    /// the documented tie-break; the numerator rule only disambiguates
    /// the half-integer-on-`N = 1` corner where both candidates have
    /// denominator 1.
    fn brute_force_best(x: &BigRational, n: i64) -> BigRational {
        let mut best: Option<(BigRational, BigRational)> = None;
        for q in 1..=n {
            let xq = x * &BigRational::from_integer(BigInt::from(q));
            let lo = xq.floor();
            for p in [lo.clone(), &lo + &BigInt::one()] {
                let cand = BigRational::new(p, BigInt::from(q));
                let err = (&cand - x).abs();
                let take = match &best {
                    None => true,
                    Some((b, be)) => match err.cmp(be) {
                        Ordering::Less => true,
                        Ordering::Greater => false,
                        Ordering::Equal => {
                            cand.denom() < b.denom()
                                || (cand.denom() == b.denom() && cand.numer() < b.numer())
                        }
                    },
                };
                if take {
                    best = Some((cand, err));
                }
            }
        }
        best.expect("n >= 1").0
    }

    #[test]
    fn best_approximation_tie_boundaries() {
        // Exact-tie inputs: x is the midpoint of two adjacent grid
        // fractions, so the "smaller denominator wins" rule decides.
        //
        // 1/4 on the N = 2 grid sits exactly between 0/1 and 1/2, and is
        // the half-coefficient semiconvergent case (a = 4, t = 2 = a/2).
        assert_eq!(rat(1, 4).best_approximation(&BigInt::from(2)), rat(0, 1));
        // 3/4 ties between 1/2 and 1/1 (here t < a/2: the semiconvergent
        // is rejected by the classical criterion, yet its distance ties).
        assert_eq!(rat(3, 4).best_approximation(&BigInt::from(2)), rat(1, 1));
        // 7/6 on N = 3 ties between 1/1 and 4/3.
        assert_eq!(rat(7, 6).best_approximation(&BigInt::from(3)), rat(1, 1));
        // Negative mirror: -1/4 ties between -1/2 and 0/1.
        assert_eq!(rat(-1, 4).best_approximation(&BigInt::from(2)), rat(0, 1));
        // 1/2 on the integer grid (N = 1): both neighbours 0/1 and 1/1
        // have denominator 1; the floor-side convergent is returned.
        assert_eq!(rat(1, 2).best_approximation(&BigInt::from(1)), rat(0, 1));
        assert_eq!(rat(-1, 2).best_approximation(&BigInt::from(1)), rat(-1, 1));
        // 1/2 on any grid with N >= 2 is exact (even and odd N alike).
        for n in 2..=5i64 {
            assert_eq!(rat(1, 2).best_approximation(&BigInt::from(n)), rat(1, 2));
        }
    }

    #[test]
    fn best_approximation_midpoint_ties_match_brute_force() {
        // Every exact midpoint of adjacent grid fractions in [-2, 2] is a
        // tie; the implementation must agree with the referee on all of
        // them (this is where a wrong tie-break would hide: midpoints
        // have denominator 2*q*q' > N, so the dense proptest below rarely
        // produces them).
        for n in 1..=10i64 {
            let mut grid: Vec<BigRational> = Vec::new();
            for q in 1..=n {
                for p in -(2 * q)..=(2 * q) {
                    grid.push(rat(p, q));
                }
            }
            grid.sort();
            grid.dedup();
            for w in grid.windows(2) {
                let mid = &(&w[0] + &w[1]) * &rat(1, 2);
                if mid.denom() <= &BigInt::from(n) {
                    continue;
                }
                let got = mid.best_approximation(&BigInt::from(n));
                let want = brute_force_best(&mid, n);
                assert_eq!(
                    got, want,
                    "midpoint of {} and {} on N = {n}: got {got}, referee {want}",
                    w[0], w[1]
                );
            }
        }
    }

    #[test]
    fn ceil_round_pow() {
        assert_eq!(rat(7, 2).ceil(), BigInt::from(4));
        assert_eq!(rat(-7, 2).ceil(), BigInt::from(-3));
        assert_eq!(rat(6, 2).ceil(), BigInt::from(3));
        assert_eq!(rat(5, 2).round(), BigInt::from(3));
        assert_eq!(rat(-5, 2).round(), BigInt::from(-3));
        assert_eq!(rat(7, 3).round(), BigInt::from(2));
        assert_eq!(rat(2, 3).pow(3), rat(8, 27));
        assert_eq!(rat(2, 3).pow(-2), rat(9, 4));
        assert_eq!(rat(5, 7).pow(0), rat(1, 1));
    }

    #[test]
    fn div_integer_matches_general_division() {
        let xs = [
            rat(0, 1),
            rat(5, 3),
            rat(-7, 12),
            BigRational::new(&BigInt::one() << 200, BigInt::from(9)),
        ];
        for x in &xs {
            for k in [1u64, 2, 6, 97, u64::MAX] {
                let expect = x / &BigRational::from_integer(BigInt::from(k));
                let got = x.div_integer(k);
                assert_eq!(got, expect, "{x} / {k}");
                assert_normalized(&got);
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_integer_zero_panics() {
        let _ = rat(1, 2).div_integer(0);
    }

    #[test]
    fn operator_edge_cases_match_reference() {
        let big = BigRational::new(
            &BigInt::one() << 2000,
            (&BigInt::one() << 1000) + BigInt::one(),
        );
        let cases = [
            (BigRational::zero(), big.clone()),
            (big.clone(), BigRational::zero()),
            (big.clone(), big.clone()),        // equal operands
            (big.clone(), -&big),              // cancellation to zero
            (big.clone(), BigRational::one()), // den == 1 on one side
            (BigRational::from_integer(7), big.clone()),
            (big.clone(), big.recip()),
        ];
        for (x, y) in &cases {
            assert_eq!(&(x + y), &add_reference(x, y), "{x} + {y}");
            assert_eq!(&(x - y), &sub_reference(x, y), "{x} - {y}");
            assert_eq!(&(x * y), &mul_reference(x, y), "{x} * {y}");
            if !y.is_zero() {
                assert_eq!(&(x / y), &div_reference(x, y), "{x} / {y}");
            }
            assert_normalized(&(x + y));
            assert_normalized(&(x * y));
        }
    }

    proptest! {
        #[test]
        fn floor_ceil_round_consistency(n in -300i64..300, d in 1i64..60) {
            let x = rat(n, d);
            let fl = BigRational::from_integer(x.floor());
            let ce = BigRational::from_integer(x.ceil());
            prop_assert!(fl <= x && x <= ce);
            prop_assert!((&ce - &fl) <= BigRational::one());
            let ro = BigRational::from_integer(x.round());
            prop_assert!((&ro - &x).abs() <= BigRational::from_i64(1, 2));
        }

        #[test]
        fn add_commutes(a in -1000i64..1000, b in 1i64..100, c in -1000i64..1000, d in 1i64..100) {
            let x = rat(a, b);
            let y = rat(c, d);
            prop_assert_eq!(&x + &y, &y + &x);
        }

        #[test]
        fn mul_distributes(a in -50i64..50, b in 1i64..20, c in -50i64..50, d in 1i64..20, e in -50i64..50, f in 1i64..20) {
            let x = rat(a, b);
            let y = rat(c, d);
            let z = rat(e, f);
            prop_assert_eq!(&x * &(&y + &z), &(&x * &y) + &(&x * &z));
        }

        #[test]
        fn best_approx_within_grid(num in -500i64..500, den in 1i64..500, n in 1i64..30) {
            let x = rat(num, den);
            let best = x.best_approximation(&BigInt::from(n));
            prop_assert!(best.denom() <= &BigInt::from(n));
            // Error is at most the distance to the floor integer.
            let floor = BigRational::from_integer(x.floor());
            prop_assert!((&best - &x).abs() <= (&floor - &x).abs() + BigRational::one());
        }

        /// Full differential check against the brute-force referee over
        /// *all* denominators up to N — minimal error first, smaller
        /// denominator on ties. Denominators up to 2000 exercise the
        /// semiconvergent cutoff (including `t == a/2`) far beyond the
        /// grid bound.
        #[test]
        fn best_approx_matches_brute_force(num in -4000i64..4000, den in 1i64..2000, n in 1i64..24) {
            let x = rat(num, den);
            let got = x.best_approximation(&BigInt::from(n));
            let want = brute_force_best(&x, n);
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fast-path operators (i128 small values, d1/d2 gcd trick,
        /// cross-cancellation) agree with the naive cross-multiply
        /// references on operands up to ~1000 bits per side.
        #[test]
        fn operators_match_reference(x in arb_big_rat(), y in arb_big_rat()) {
            let sum = &x + &y;
            prop_assert_eq!(&sum, &add_reference(&x, &y));
            assert_normalized(&sum);
            let diff = &x - &y;
            prop_assert_eq!(&diff, &sub_reference(&x, &y));
            assert_normalized(&diff);
            let prod = &x * &y;
            prop_assert_eq!(&prod, &mul_reference(&x, &y));
            assert_normalized(&prod);
            if !y.is_zero() {
                let quot = &x / &y;
                prop_assert_eq!(&quot, &div_reference(&x, &y));
                assert_normalized(&quot);
            }
            // Self-cancellation and self-division hit the equal-operand paths.
            prop_assert!((&x - &x).is_zero());
            if !x.is_zero() {
                prop_assert_eq!(&x / &x, BigRational::one());
            }
        }

        /// The i128 fast path and the big path agree on small operands.
        #[test]
        fn small_value_fast_path_matches(
            a in -10_000i64..10_000, b in 1i64..10_000,
            c in -10_000i64..10_000, d in 1i64..10_000,
        ) {
            let x = rat(a, b);
            let y = rat(c, d);
            // Force the big path by inflating with a common factor that
            // pushes the parts past i64 (the value is unchanged).
            let huge = &BigInt::one() << 80;
            let inflate = |r: &BigRational| BigRational {
                num: &r.num * &huge,
                den: &r.den * &huge,
            };
            prop_assert_eq!(&x + &y, &inflate(&x) + &inflate(&y));
            prop_assert_eq!(&x - &y, &inflate(&x) - &inflate(&y));
            prop_assert_eq!(&x * &y, &inflate(&x) * &inflate(&y));
            if c != 0 {
                prop_assert_eq!(&x / &y, &inflate(&x) / &inflate(&y));
            }
        }

        /// div_integer agrees with general division for arbitrary operands.
        #[test]
        fn div_integer_matches_reference(x in arb_big_rat(), k in 1u64..u64::MAX) {
            let expect = &x / &BigRational::from_integer(BigInt::from(k));
            let got = x.div_integer(k);
            prop_assert_eq!(&got, &expect);
            assert_normalized(&got);
        }

        /// div_integer on the divisors the fast paths single out — 1, a
        /// power of two, a small odd prime, 2^63, u64::MAX — and an
        /// arbitrary word, for zero, negative and multi-limb numerators.
        #[test]
        fn div_integer_matches_reference_on_chosen_divisors(
            x in arb_rat_shape(),
            k in 1u64..u64::MAX,
        ) {
            for k in [1, 2, 257, 1 << 63, u64::MAX, k] {
                let got = x.div_integer(k);
                prop_assert_eq!(&got, &(&x / &BigRational::from_integer(k)));
                assert_normalized(&got);
            }
        }

        /// The equal-denominator add path agrees with the cross-multiply
        /// references, including cancellation to zero and sums that share
        /// a factor with the denominator.
        #[test]
        fn equal_denominator_add_sub_match_reference(
            x in arb_rat_shape(),
            neg in any::<bool>(),
            i in arb_rat_shape(),
        ) {
            let y = same_denominator(&x, neg, &i.floor());
            assert_normalized(&y);
            prop_assert_eq!(x.denom(), y.denom());
            for (a, b) in [(&x, &y), (&y, &x), (&x, &x)] {
                let sum = a + b;
                prop_assert_eq!(&sum, &add_reference(a, b));
                assert_normalized(&sum);
                let diff = a - b;
                prop_assert_eq!(&diff, &sub_reference(a, b));
                assert_normalized(&diff);
            }
            let cancel = &x + &-&x;
            prop_assert!(cancel.is_zero());
            assert_normalized(&cancel);
        }

        /// Borrowed and owned sums of every prefix — so 0, 1, 2 and many
        /// terms — agree with a pairwise reference fold from zero. Terms
        /// mix zero, power-of-two, odd and `2^k · odd` denominators; a
        /// tail of negated terms cancels either the first term or the
        /// whole sum to exactly 0.
        #[test]
        fn sum_matches_pairwise_fold(
            xs in proptest::collection::vec(arb_sum_term(), 0usize..7),
            cancel in 0u8..3,
        ) {
            let mut xs = xs;
            match cancel {
                0 => {}
                1 => xs.extend(xs.iter().rev().map(|x| -x).collect::<Vec<_>>()),
                _ => xs.extend(xs.first().map(|x| -x)),
            }
            let mut want = BigRational::zero();
            for k in 0..=xs.len() {
                if k > 0 {
                    want = add_reference(&want, &xs[k - 1]);
                }
                let borrowed: BigRational = xs[..k].iter().sum();
                prop_assert_eq!(&borrowed, &want);
                assert_normalized(&borrowed);
                let owned: BigRational = xs[..k].iter().cloned().sum();
                prop_assert_eq!(&owned, &want);
                assert_normalized(&owned);
            }
            if cancel == 1 {
                prop_assert!(want.is_zero());
            }
        }

        /// to_f64 stays within 1 ulp of the cross-checked quotient for
        /// moderate operands and never returns junk for lopsided ones.
        #[test]
        fn to_f64_tracks_float_division(n in -1_000_000i64..1_000_000, d in 1i64..1_000_000, shift in 0u32..900) {
            let x = BigRational::new(BigInt::from(n), BigInt::from(d) << shift as usize);
            let expect = (n as f64) / (d as f64) / 2f64.powi(shift as i32);
            let got = x.to_f64();
            if expect == 0.0 {
                prop_assert_eq!(got, expect);
            } else {
                prop_assert!(((got - expect) / expect).abs() < 1e-12, "{} vs {}", got, expect);
            }
        }
    }
}

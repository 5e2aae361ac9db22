//! Arbitrary-precision signed integers.
//!
//! Sign-magnitude representation over little-endian `u64` limbs.
//! Multiplication is schoolbook (operands here rarely exceed a few
//! thousand bits), but division and gcd — the hot kernels of the exact
//! Push-Sum referee, whose rational state grows every round — work a
//! limb at a time: division is Knuth's Algorithm D, gcd is the binary
//! (Stein) algorithm with a `u64` fast path. Both are differentially
//! tested against the simple bit-at-a-time references they replaced,
//! which are kept in the test module.
//!
//! Allocation discipline: a kernel allocates at most its result. A
//! word-sized operand never allocates on its own — remainders by a limb
//! are a fold, a limb multiply is one pass, and a divisor of ±1 or a
//! power of two is a clone or a shift. Multi-limb loops (the Stein
//! subtract-and-shift, Algorithm D's working copies and remainder,
//! `+=` and `-=`) work in place on buffers they own.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a [`BigInt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// Invariants: `mag` has no trailing zero limbs, and `sign == Sign::Zero`
/// if and only if `mag` is empty.
///
/// ```
/// use kya_arith::BigInt;
/// let a: BigInt = "123456789012345678901234567890".parse()?;
/// let b = BigInt::from(10_u64).pow(29);
/// assert!(a > b);
/// assert_eq!((&a - &a), BigInt::zero());
/// # Ok::<(), kya_arith::ParseBigIntError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian magnitude; no trailing zeros.
    mag: Vec<u64>,
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBigIntError {
    kind: &'static str,
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer literal: {}", self.kind)
    }
}

impl std::error::Error for ParseBigIntError {}

// ---------------------------------------------------------------------
// magnitude helpers (unsigned little-endian Vec<u64>)
// ---------------------------------------------------------------------

fn mag_trim(mag: &mut Vec<u64>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// `a += b` in place.
fn mag_add_assign(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = false;
    for (i, x) in a.iter_mut().enumerate() {
        if i >= b.len() && !carry {
            break;
        }
        let (s, c1) = x.overflowing_add(b.get(i).copied().unwrap_or(0));
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *x = s;
        carry = c1 || c2;
    }
    if carry {
        a.push(1);
    }
}

/// Requires `a >= b`.
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = a.to_vec();
    mag_sub_assign(&mut out, b);
    out
}

/// `a -= b` in place. Requires `a >= b`.
fn mag_sub_assign(a: &mut Vec<u64>, b: &[u64]) {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut borrow = false;
    for (i, x) in a.iter_mut().enumerate() {
        if i >= b.len() && !borrow {
            break;
        }
        let (d, b1) = x.overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow);
    mag_trim(a);
}

/// `a * m` for a single limb `m`: one pass, one allocation.
fn mag_mul_limb(a: &[u64], m: u64) -> Vec<u64> {
    if m == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for &x in a {
        let p = x as u128 * m as u128 + carry as u128;
        out.push(p as u64);
        carry = (p >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    if b.len() == 1 {
        return mag_mul_limb(a, b[0]);
    }
    if a.len() == 1 {
        return mag_mul_limb(b, a[0]);
    }
    if let Some(k) = mag_pow2_exponent(b) {
        return mag_shl(a, k);
    }
    if let Some(k) = mag_pow2_exponent(a) {
        return mag_shl(b, k);
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + x as u128 * y as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    mag_trim(&mut out);
    out
}

fn mag_shl(a: &[u64], bits: usize) -> Vec<u64> {
    if a.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(bits / 64 + a.len() + 1);
    out.resize(bits / 64, 0);
    mag_shl_extend(&mut out, a, bits % 64);
    mag_trim(&mut out);
    out
}

/// Appends `a << shift` (with `shift < 64`) to `out`; the carry-out limb
/// is appended only when non-zero.
fn mag_shl_extend(out: &mut Vec<u64>, a: &[u64], shift: usize) {
    debug_assert!(shift < 64);
    if shift == 0 {
        out.extend_from_slice(a);
        return;
    }
    let mut carry = 0u64;
    for &x in a {
        out.push((x << shift) | carry);
        carry = x >> (64 - shift);
    }
    if carry != 0 {
        out.push(carry);
    }
}

fn mag_shr(a: &[u64], bits: usize) -> Vec<u64> {
    let mut out = a.get(bits / 64..).unwrap_or(&[]).to_vec();
    mag_shr_assign(&mut out, bits % 64);
    out
}

/// `a >>= bits` in place.
fn mag_shr_assign(a: &mut Vec<u64>, bits: usize) {
    let limb_shift = bits / 64;
    if limb_shift >= a.len() {
        a.clear();
        return;
    }
    a.drain(..limb_shift);
    let bit_shift = bits % 64;
    if bit_shift != 0 {
        for i in 0..a.len() {
            let hi = a.get(i + 1).map_or(0, |&h| h << (64 - bit_shift));
            a[i] = (a[i] >> bit_shift) | hi;
        }
    }
    mag_trim(a);
}

/// Whether any of the low `bits` bits of the magnitude are set — the
/// "sticky" information a truncating shift discards.
fn mag_low_bits_nonzero(a: &[u64], bits: usize) -> bool {
    let limbs = bits / 64;
    if a[..limbs.min(a.len())].iter().any(|&x| x != 0) {
        return true;
    }
    let rem = bits % 64;
    if rem > 0 {
        if let Some(&x) = a.get(limbs) {
            return x & ((1u64 << rem) - 1) != 0;
        }
    }
    false
}

fn mag_bits(a: &[u64]) -> usize {
    match a.last() {
        None => 0,
        Some(&top) => 64 * (a.len() - 1) + (64 - top.leading_zeros() as usize),
    }
}

/// Divide magnitude by a single non-zero limb; returns (quotient, remainder).
fn mag_divmod_limb(a: &[u64], d: u64) -> (Vec<u64>, u64) {
    debug_assert!(d != 0);
    let mut q = vec![0u64; a.len()];
    let mut rem = 0u128;
    for i in (0..a.len()).rev() {
        let cur = (rem << 64) | a[i] as u128;
        q[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    mag_trim(&mut q);
    (q, rem as u64)
}

/// `a mod d` for a single non-zero limb `d`, without allocating.
fn mag_rem_limb(a: &[u64], d: u64) -> u64 {
    debug_assert!(d != 0);
    if d.is_power_of_two() {
        return a.first().map_or(0, |&x| x & (d - 1));
    }
    a.iter().rev().fold(0, |rem, &x| {
        ((((rem as u128) << 64) | x as u128) % d as u128) as u64
    })
}

/// `k` when the magnitude is exactly `2^k`.
fn mag_pow2_exponent(a: &[u64]) -> Option<usize> {
    let (&top, low) = a.split_last()?;
    (top.is_power_of_two() && low.iter().all(|&x| x == 0)).then(|| mag_bits(a) - 1)
}

/// The low `bits` bits of the magnitude (`a mod 2^bits`).
fn mag_low_bits(a: &[u64], bits: usize) -> Vec<u64> {
    let limbs = bits.div_ceil(64);
    let mut out = a[..a.len().min(limbs)].to_vec();
    if out.len() == limbs && !bits.is_multiple_of(64) {
        out[limbs - 1] &= (1u64 << (bits % 64)) - 1;
    }
    mag_trim(&mut out);
    out
}

/// Full multi-limb division.
/// Returns (quotient, remainder) with `a = q*b + r`, `0 <= r < b`.
///
/// A power-of-two divisor is a shift and a mask (when every outdegree is
/// a power of two, so is every exact Push-Sum denominator and every gcd
/// of two); a single-limb divisor is one limb pass; everything else is
/// Algorithm D.
fn mag_divmod(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!b.is_empty(), "division by zero");
    if mag_cmp(a, b) == Ordering::Less {
        return (Vec::new(), a.to_vec());
    }
    if let Some(k) = mag_pow2_exponent(b) {
        return (mag_shr(a, k), mag_low_bits(a, k));
    }
    if b.len() == 1 {
        let (q, r) = mag_divmod_limb(a, b[0]);
        return (q, if r == 0 { Vec::new() } else { vec![r] });
    }
    mag_divmod_knuth(a, b)
}

/// Schoolbook multi-limb division: Knuth TAOCP vol. 2, Algorithm 4.3.1 D.
///
/// Requires `b.len() >= 2` and `a >= b`. One quotient limb per iteration:
/// the divisor is normalized so its top limb has the high bit set (D1),
/// each trial quotient is estimated from the top two dividend limbs and
/// corrected against the top *two* divisor limbs (D3) — after which it is
/// off by at most one, fixed by the rare add-back step (D6).
fn mag_divmod_knuth(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let n = b.len();
    let m = a.len() - n;
    // D1: normalize so the divisor's top limb has its high bit set. The
    // dividend gains one extra high limb.
    let shift = b[n - 1].leading_zeros() as usize;
    let vn = mag_shl_fixed(b, shift, n);
    let mut un = mag_shl_fixed(a, shift, a.len() + 1);
    let v_hi = vn[n - 1];
    let v_lo = vn[n - 2];
    let mut q = vec![0u64; m + 1];
    for j in (0..=m).rev() {
        // D3: trial quotient from the top two dividend limbs, then the
        // classical two-limb correction (runs at most twice).
        let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = num / v_hi as u128;
        let mut rhat = num % v_hi as u128;
        while qhat >> 64 != 0 || qhat * v_lo as u128 > ((rhat << 64) | un[j + n - 2] as u128) {
            qhat -= 1;
            rhat += v_hi as u128;
            if rhat >> 64 != 0 {
                break;
            }
        }
        // D4: multiply-and-subtract qhat * v from un[j ..= j+n].
        let mut mul_carry = 0u64;
        let mut borrow = 0u64;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + mul_carry as u128;
            mul_carry = (p >> 64) as u64;
            let (d, b1) = un[j + i].overflowing_sub(p as u64);
            let (d, b2) = d.overflowing_sub(borrow);
            un[j + i] = d;
            borrow = (b1 as u64) | (b2 as u64);
        }
        let (d, b1) = un[j + n].overflowing_sub(mul_carry);
        let (d, b2) = d.overflowing_sub(borrow);
        un[j + n] = d;
        if b1 || b2 {
            // D6: qhat was one too large (probability ~2/2^64) — add the
            // divisor back and decrement.
            qhat -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let s = un[j + i] as u128 + vn[i] as u128 + carry as u128;
                un[j + i] = s as u64;
                carry = (s >> 64) as u64;
            }
            un[j + n] = un[j + n].wrapping_add(carry);
        }
        q[j] = qhat as u64;
    }
    // D8: denormalize the remainder in place.
    un.truncate(n);
    mag_shr_assign(&mut un, shift);
    mag_trim(&mut q);
    (q, un)
}

/// `a << shift` (with `shift < 64`) zero-padded to exactly `len` limbs,
/// in one allocation — the fixed-width shift Algorithm D needs for its
/// working copies.
fn mag_shl_fixed(a: &[u64], shift: usize, len: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(len);
    mag_shl_extend(&mut out, a, shift);
    debug_assert!(out.len() <= len);
    out.resize(len, 0);
    out
}

/// Number of trailing zero bits of a non-zero magnitude.
fn mag_trailing_zeros(a: &[u64]) -> usize {
    debug_assert!(!a.is_empty());
    let mut bits = 0usize;
    for &limb in a {
        if limb == 0 {
            bits += 64;
        } else {
            return bits + limb.trailing_zeros() as usize;
        }
    }
    unreachable!("magnitude has no trailing zero limbs")
}

/// Binary (Stein) gcd on `u64`.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
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

/// Limb-level binary (Stein) gcd of two magnitudes.
///
/// A single-limb operand takes the `u64` fast path after one
/// allocation-free remainder (one Euclid step), which avoids the long
/// subtraction chains plain Stein would need for a mixed big/small pair.
/// The general multi-limb case is the classical odd-odd
/// subtract-and-shift loop, working in place on its two owned buffers
/// and re-entering the fast path as the operands shrink.
fn mag_gcd(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() {
        return b.to_vec();
    }
    if b.is_empty() {
        return a.to_vec();
    }
    if b.len() == 1 {
        return vec![gcd_u64(mag_rem_limb(a, b[0]), b[0])];
    }
    if a.len() == 1 {
        return mag_gcd(b, a);
    }
    if let Some(k) = mag_pow2_exponent(b) {
        return mag_shl(&[1], k.min(mag_trailing_zeros(a)));
    }
    if mag_pow2_exponent(a).is_some() {
        return mag_gcd(b, a);
    }
    // Both multi-limb: factor out the common power of two, make both odd.
    let za = mag_trailing_zeros(a);
    let zb = mag_trailing_zeros(b);
    let k = za.min(zb);
    let mut a = mag_shr(a, za);
    let mut b = mag_shr(b, zb);
    loop {
        // Invariant: both odd and non-zero here.
        if a.len() == 1 || b.len() == 1 {
            return mag_shl(&mag_gcd(&a, &b), k);
        }
        match mag_cmp(&a, &b) {
            Ordering::Equal => break,
            Ordering::Less => std::mem::swap(&mut a, &mut b),
            Ordering::Greater => {}
        }
        mag_sub_assign(&mut a, &b); // even and non-zero (a != b, both odd)
        let z = mag_trailing_zeros(&a);
        mag_shr_assign(&mut a, z);
    }
    mag_shl(&a, k)
}

// ---------------------------------------------------------------------
// BigInt proper
// ---------------------------------------------------------------------

impl BigInt {
    /// The integer `0`.
    pub fn zero() -> BigInt {
        BigInt {
            sign: Sign::Zero,
            mag: Vec::new(),
        }
    }

    /// The integer `1`.
    pub fn one() -> BigInt {
        BigInt::from(1u64)
    }

    fn from_mag(sign: Sign, mut mag: Vec<u64>) -> BigInt {
        mag_trim(&mut mag);
        if mag.is_empty() {
            BigInt::zero()
        } else {
            debug_assert!(sign != Sign::Zero);
            BigInt { sign, mag }
        }
    }

    /// Whether this integer is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Whether this integer is one.
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Positive && self.mag == [1]
    }

    /// Whether this integer is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Whether this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// The sign of this integer.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The little-endian limbs of the magnitude, without trailing zeros
    /// (empty for zero).
    pub fn limbs(&self) -> &[u64] {
        &self.mag
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match self.sign {
            Sign::Negative => BigInt {
                sign: Sign::Positive,
                mag: self.mag.clone(),
            },
            _ => self.clone(),
        }
    }

    /// Number of significant bits of the magnitude (`0` for zero).
    pub fn bits(&self) -> usize {
        mag_bits(&self.mag)
    }

    /// Raise to a small non-negative power.
    ///
    /// ```
    /// use kya_arith::BigInt;
    /// assert_eq!(BigInt::from(3).pow(4), BigInt::from(81));
    /// ```
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Simultaneous quotient and remainder (truncated toward zero, like
    /// Rust's primitive `/` and `%`).
    ///
    /// Division by ±1 — the common "gcd was 1" case of rational
    /// normalization — is a clone.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero");
        if other.mag == [1] {
            let q = if other.is_positive() {
                self.clone()
            } else {
                -self
            };
            return (q, BigInt::zero());
        }
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (q_mag, r_mag) = mag_divmod(&self.mag, &other.mag);
        let q_sign = if q_mag.is_empty() {
            Sign::Zero
        } else if self.sign == other.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        let r_sign = if r_mag.is_empty() {
            Sign::Zero
        } else {
            self.sign
        };
        (
            BigInt::from_mag(q_sign, q_mag),
            BigInt::from_mag(r_sign, r_mag),
        )
    }

    /// `self += sign · mag`, in `self`'s own buffer unless the signs
    /// differ and `|self| < mag`.
    fn add_signed_assign(&mut self, sign: Sign, mag: &[u64]) {
        match (self.sign, sign) {
            (_, Sign::Zero) => {}
            (Sign::Zero, _) => {
                self.sign = sign;
                self.mag.extend_from_slice(mag);
            }
            (a, b) if a == b => mag_add_assign(&mut self.mag, mag),
            _ => match mag_cmp(&self.mag, mag) {
                Ordering::Equal => *self = BigInt::zero(),
                Ordering::Greater => mag_sub_assign(&mut self.mag, mag),
                Ordering::Less => {
                    self.sign = sign;
                    self.mag = mag_sub(mag, &self.mag);
                }
            },
        }
    }

    /// `|self| mod d` for a non-zero word `d`, without allocating.
    pub(crate) fn rem_u64(&self, d: u64) -> u64 {
        mag_rem_limb(&self.mag, d)
    }

    /// `self / d` truncated toward zero, for a non-zero word `d`: a shift
    /// (a plain copy for `d == 1`) when `d` is a power of two, one limb
    /// pass otherwise.
    pub(crate) fn div_u64(&self, d: u64) -> BigInt {
        let q = if d.is_power_of_two() {
            mag_shr(&self.mag, d.trailing_zeros() as usize)
        } else {
            mag_divmod_limb(&self.mag, d).0
        };
        BigInt::from_mag(self.sign, q)
    }

    /// `self * m` for a word `m`, in one limb-multiply pass.
    pub(crate) fn mul_u64(&self, m: u64) -> BigInt {
        BigInt::from_mag(self.sign, mag_mul_limb(&self.mag, m))
    }

    /// `k` when the magnitude is exactly `2^k`.
    pub(crate) fn pow2_exponent(&self) -> Option<usize> {
        mag_pow2_exponent(&self.mag)
    }

    /// Number of trailing zero bits of a non-zero integer.
    pub(crate) fn trailing_zeros(&self) -> usize {
        mag_trailing_zeros(&self.mag)
    }

    /// Correctly rounded conversion to `f64` (round-to-nearest-even;
    /// overflows to infinity for huge magnitudes).
    ///
    /// Values wider than 64 bits keep their top 63 bits and fold every
    /// dropped bit into the low bit (round-to-odd). The `u64 → f64`
    /// conversion then rounds to nearest-even exactly as if it had seen
    /// the full value: round-to-odd to 64 bits followed by
    /// round-to-nearest to 53 never double-rounds, because the odd
    /// sticky bit sits more than two positions below the kept mantissa.
    pub fn to_f64(&self) -> f64 {
        let bits = self.bits();
        let v = if bits <= 64 {
            self.mag.first().copied().unwrap_or(0) as f64
        } else if bits > 1100 {
            // Beyond any finite double regardless of mantissa.
            f64::INFINITY
        } else {
            let drop = bits - 63;
            let mut m = mag_shr(&self.mag, drop).first().copied().unwrap_or(0) << 1;
            if mag_low_bits_nonzero(&self.mag, drop) {
                m |= 1;
            }
            m as f64 * 2f64.powi((drop - 1) as i32)
        };
        match self.sign {
            Sign::Negative => -v,
            Sign::Zero => 0.0,
            Sign::Positive => v,
        }
    }

    /// Exact conversion to `i64` when the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => {
                if self.mag.len() > 1 {
                    None
                } else {
                    i64::try_from(self.mag[0]).ok()
                }
            }
            Sign::Negative => {
                if self.mag.len() > 1 {
                    None
                } else if self.mag[0] == 1u64 << 63 {
                    Some(i64::MIN)
                } else {
                    i64::try_from(self.mag[0]).ok().map(|v| -v)
                }
            }
        }
    }

    /// Exact conversion to `u64` when the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive if self.mag.len() == 1 => Some(self.mag[0]),
            _ => None,
        }
    }

    /// Greatest common divisor (always non-negative; `gcd(0, 0) == 0`).
    ///
    /// Limb-level binary (Stein) gcd — the normalization kernel of every
    /// [`crate::BigRational`] operation. It allocates only its two odd
    /// working copies and its result: a single-limb operand is reduced
    /// by an allocation-free remainder to a `u64` gcd, a power-of-two
    /// operand is answered from trailing zeros, and the multi-limb loop
    /// subtracts and shifts in place.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mag = mag_gcd(&self.mag, &other.mag);
        if mag.is_empty() {
            BigInt::zero()
        } else {
            BigInt {
                sign: Sign::Positive,
                mag,
            }
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                if v == 0 {
                    BigInt::zero()
                } else {
                    BigInt { sign: Sign::Positive, mag: vec![v as u64] }
                }
            }
        }
    )*};
}
impl_from_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                match v.cmp(&0) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => BigInt { sign: Sign::Positive, mag: vec![v as u64] },
                    Ordering::Less => BigInt {
                        sign: Sign::Negative,
                        mag: vec![(v as i128).unsigned_abs() as u64],
                    },
                }
            }
        }
    )*};
}
impl_from_signed!(i8, i16, i32, i64, isize);

impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        if v == 0 {
            return BigInt::zero();
        }
        let sign = if v > 0 {
            Sign::Positive
        } else {
            Sign::Negative
        };
        let m = v.unsigned_abs();
        let mut mag = vec![m as u64, (m >> 64) as u64];
        mag_trim(&mut mag);
        BigInt { sign, mag }
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> BigInt {
        if v == 0 {
            return BigInt::zero();
        }
        let mut mag = vec![v as u64, (v >> 64) as u64];
        mag_trim(&mut mag);
        BigInt {
            sign: Sign::Positive,
            mag,
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (a, b) if a != b => a.cmp(&b),
            (Sign::Zero, _) => Ordering::Equal,
            (Sign::Positive, _) => mag_cmp(&self.mag, &other.mag),
            (Sign::Negative, _) => mag_cmp(&other.mag, &self.mag),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.flip(),
            mag: self.mag.clone(),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = self.sign.flip();
        self
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        let (long, short) = if self.mag.len() >= rhs.mag.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut out = BigInt {
            sign: long.sign,
            mag: Vec::with_capacity(long.mag.len() + 1),
        };
        out.mag.extend_from_slice(&long.mag);
        out.add_signed_assign(short.sign, &short.mag);
        out
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == rhs.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt::from_mag(sign, mag_mul(&self.mag, &rhs.mag))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_owned_binop {
    ($($trait:ident, $method:ident);*) => {$(
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt { (&self).$method(&rhs) }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt { (&self).$method(rhs) }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt { self.$method(&rhs) }
        }
    )*};
}
forward_owned_binop!(Add, add; Sub, sub; Mul, mul; Div, div; Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        self.add_signed_assign(rhs.sign, &rhs.mag);
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        self.add_signed_assign(rhs.sign.flip(), &rhs.mag);
    }
}

impl Shl<usize> for &BigInt {
    type Output = BigInt;
    fn shl(self, bits: usize) -> BigInt {
        BigInt::from_mag(self.sign, mag_shl(&self.mag, bits))
    }
}

impl Shr<usize> for &BigInt {
    type Output = BigInt;
    fn shr(self, bits: usize) -> BigInt {
        let mag = mag_shr(&self.mag, bits);
        let sign = if mag.is_empty() {
            Sign::Zero
        } else {
            self.sign
        };
        BigInt::from_mag(sign, mag)
    }
}

impl Shl<usize> for BigInt {
    type Output = BigInt;
    fn shl(self, bits: usize) -> BigInt {
        &self << bits
    }
}

/// Shifts in the integer's own buffer.
impl Shr<usize> for BigInt {
    type Output = BigInt;
    fn shr(mut self, bits: usize) -> BigInt {
        mag_shr_assign(&mut self.mag, bits);
        if self.mag.is_empty() {
            self.sign = Sign::Zero;
        }
        self
    }
}

impl Sum for BigInt {
    fn sum<I: Iterator<Item = BigInt>>(iter: I) -> BigInt {
        iter.fold(BigInt::zero(), |a, b| a + b)
    }
}

impl<'a> Sum<&'a BigInt> for BigInt {
    fn sum<I: Iterator<Item = &'a BigInt>>(iter: I) -> BigInt {
        iter.fold(BigInt::zero(), |a, b| &a + b)
    }
}

impl Product for BigInt {
    fn product<I: Iterator<Item = BigInt>>(iter: I) -> BigInt {
        iter.fold(BigInt::one(), |a, b| a * b)
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        // Repeatedly divide by 10^19 (largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = self.mag.clone();
        let mut chunks: Vec<u64> = Vec::new();
        while !mag.is_empty() {
            let (q, r) = mag_divmod_limb(&mag, CHUNK);
            chunks.push(r);
            mag = q;
        }
        let mut s = String::new();
        for (i, c) in chunks.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&c.to_string());
            } else {
                s.push_str(&format!("{c:019}"));
            }
        }
        f.pad_integral(self.sign != Sign::Negative, "", &s)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(ParseBigIntError { kind: "empty" });
        }
        let mut acc = BigInt::zero();
        let ten_pow_19 = BigInt::from(10_000_000_000_000_000_000u64);
        let bytes = digits.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let end = (i + 19).min(bytes.len());
            let chunk = &digits[i..end];
            let v: u64 = chunk
                .parse()
                .map_err(|_| ParseBigIntError { kind: "non-digit" })?;
            let scale = if end - i == 19 {
                ten_pow_19.clone()
            } else {
                BigInt::from(10u64).pow((end - i) as u32)
            };
            acc = acc * scale + BigInt::from(v);
            i = end;
        }
        if neg {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(v: i128) -> BigInt {
        BigInt::from(v)
    }

    /// The pre-in-place allocating limb add, kept verbatim as the
    /// differential reference for `mag_add_assign`.
    fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let x = limb as u128;
            let y = *short.get(i).unwrap_or(&0) as u128;
            let s = x + y + carry as u128;
            out.push(s as u64);
            carry = (s >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    /// The pre-in-place allocating limb subtract (`a >= b`), kept
    /// verbatim as the differential reference for `mag_sub_assign`.
    fn mag_sub_reference(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i128;
        for (i, &limb) in a.iter().enumerate() {
            let x = limb as i128;
            let y = *b.get(i).unwrap_or(&0) as i128;
            let mut d = x - y - borrow;
            if d < 0 {
                d += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u64);
        }
        assert_eq!(borrow, 0);
        mag_trim(&mut out);
        out
    }

    /// Signed addition built from the reference limb loops: the
    /// sign-magnitude case split the in-place `add_signed_assign` replaced.
    fn add_reference(a: &BigInt, b: &BigInt) -> BigInt {
        match (a.sign, b.sign) {
            (Sign::Zero, _) => b.clone(),
            (_, Sign::Zero) => a.clone(),
            (x, y) if x == y => BigInt::from_mag(x, mag_add(&a.mag, &b.mag)),
            (x, _) => match mag_cmp(&a.mag, &b.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_mag(x, mag_sub_reference(&a.mag, &b.mag)),
                Ordering::Less => BigInt::from_mag(x.flip(), mag_sub_reference(&b.mag, &a.mag)),
            },
        }
    }

    /// Shift-and-add multiplication, one set bit of `b` at a time: the
    /// differential reference for the limb-multiply and power-of-two
    /// fast paths of `mag_mul`.
    fn mag_mul_shift_add_reference(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut acc = Vec::new();
        for bit in 0..mag_bits(b) {
            if b[bit / 64] >> (bit % 64) & 1 == 1 {
                acc = mag_add(&acc, &mag_shl(a, bit));
            }
        }
        mag_trim(&mut acc);
        acc
    }

    /// Bit-at-a-time binary gcd — one shift or one subtraction per step,
    /// each into a fresh buffer: the differential reference for the
    /// in-place Stein loop and its word-sized and power-of-two fast paths.
    fn mag_gcd_bitwise_reference(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() {
            return b.to_vec();
        }
        if b.is_empty() {
            return a.to_vec();
        }
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        let mut k = 0;
        while a[0] & 1 == 0 && b[0] & 1 == 0 {
            a = mag_shr(&a, 1);
            b = mag_shr(&b, 1);
            k += 1;
        }
        while !a.is_empty() {
            while a[0] & 1 == 0 {
                a = mag_shr(&a, 1);
            }
            while b[0] & 1 == 0 {
                b = mag_shr(&b, 1);
            }
            if mag_cmp(&a, &b) == Ordering::Less {
                std::mem::swap(&mut a, &mut b);
            }
            a = mag_sub_reference(&a, &b);
        }
        mag_shl(&b, k)
    }

    /// A signed big integer over a random magnitude.
    fn signed(mag: Vec<u64>, neg: bool) -> BigInt {
        BigInt::from_mag(if neg { Sign::Negative } else { Sign::Positive }, mag)
    }

    /// The pre-Algorithm-D bit-by-bit binary long division, kept verbatim
    /// as the differential reference for `mag_divmod_knuth`.
    fn mag_divmod_binary_reference(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert!(!b.is_empty(), "division by zero");
        if mag_cmp(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let (q, r) = mag_divmod_limb(a, b[0]);
            return (q, if r == 0 { Vec::new() } else { vec![r] });
        }
        let shift = mag_bits(a) - mag_bits(b);
        let mut q = vec![0u64; a.len()];
        let mut rem = a.to_vec();
        let mut d = mag_shl(b, shift);
        for s in (0..=shift).rev() {
            if mag_cmp(&rem, &d) != Ordering::Less {
                rem = mag_sub(&rem, &d);
                q[s / 64] |= 1u64 << (s % 64);
            }
            if s > 0 {
                d = mag_shr(&d, 1);
            }
        }
        mag_trim(&mut q);
        mag_trim(&mut rem);
        (q, rem)
    }

    /// Random magnitude of up to `limbs` limbs with a bias toward shapes
    /// that stress Algorithm D (trailing zeros, saturated limbs).
    fn arb_mag(limbs: usize) -> impl Strategy<Value = Vec<u64>> {
        (
            proptest::collection::vec(
                (any::<u64>(), 0u32..4).prop_map(|(v, tag)| match tag {
                    0 => u64::MAX,
                    1 => 0,
                    2 => 1,
                    _ => v,
                }),
                0..limbs + 1,
            ),
            0usize..100,
        )
            .prop_map(|(mut mag, shift)| {
                mag_trim(&mut mag);
                if mag.is_empty() {
                    mag
                } else {
                    mag_shl(&mag, shift)
                }
            })
    }

    #[test]
    fn construction_and_signs() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert!(big(-5).is_negative());
        assert!(big(5).is_positive());
        assert_eq!(big(-5).abs(), big(5));
        assert_eq!(BigInt::default(), BigInt::zero());
    }

    #[test]
    fn display_roundtrip_small() {
        for v in [-1234567890123456789012345i128, -1, 0, 1, 42, i128::MAX] {
            let b = big(v);
            assert_eq!(b.to_string(), v.to_string());
            assert_eq!(b.to_string().parse::<BigInt>().unwrap(), b);
        }
        assert_eq!(big(i128::MIN).to_string(), i128::MIN.to_string());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12a3".parse::<BigInt>().is_err());
        assert!("+7".parse::<BigInt>().unwrap() == big(7));
    }

    #[test]
    fn big_multiplication() {
        let a: BigInt = "340282366920938463463374607431768211456".parse().unwrap(); // 2^128
        assert_eq!(&a, &(&BigInt::from(1u64) << 128));
        assert_eq!((&a * &a), (&BigInt::from(1u64) << 256));
    }

    #[test]
    fn division_truncates_toward_zero() {
        assert_eq!(big(7).div_rem(&big(2)), (big(3), big(1)));
        assert_eq!(big(-7).div_rem(&big(2)), (big(-3), big(-1)));
        assert_eq!(big(7).div_rem(&big(-2)), (big(-3), big(1)));
        assert_eq!(big(-7).div_rem(&big(-2)), (big(3), big(-1)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = big(1).div_rem(&BigInt::zero());
    }

    #[test]
    fn shifts() {
        assert_eq!(&big(1) << 200 >> 200, big(1));
        assert_eq!(&big(0) << 5, BigInt::zero());
        assert_eq!(&big(255) >> 4, big(15));
        // The owned shift works in place and agrees with the borrowed one.
        assert_eq!(big(-255) >> 4, &big(-255) >> 4);
        assert_eq!(big(-3) >> 2, BigInt::zero());
        assert_eq!((&big(-1) << 130) >> 129, big(-2));
    }

    #[test]
    fn to_f64_large() {
        let a = &BigInt::from(1u64) << 100;
        let f = a.to_f64();
        assert!((f / 2f64.powi(100) - 1.0).abs() < 1e-12);
        assert_eq!((-a).to_f64(), -f);
    }

    #[test]
    fn to_f64_rounds_to_nearest_even() {
        // Regression: the pre-sticky conversion truncated every bit
        // below the top 64, so 2^64 + 2^11 + 1 — one sliver above the
        // halfway point between 2^64 and 2^64 + 2^12 — collapsed to
        // 2^64 instead of rounding up.
        let above_half = (&BigInt::from(1u64) << 64) + (&BigInt::from(1u64) << 11) + BigInt::one();
        assert_eq!(above_half.to_f64(), 2f64.powi(64) + 2f64.powi(12));
        // An exact halfway value ties to even (mantissa LSB 0 → stay).
        let halfway = (&BigInt::from(1u64) << 64) + (&BigInt::from(1u64) << 11);
        assert_eq!(halfway.to_f64(), 2f64.powi(64));
        // Halfway with an odd kept mantissa ties to even (round up).
        let halfway_odd =
            (&BigInt::from(1u64) << 64) + (&BigInt::from(1u64) << 12) + (&BigInt::from(1u64) << 11);
        assert_eq!(halfway_odd.to_f64(), 2f64.powi(64) + 2f64.powi(13));
        // Below halfway rounds down even when low limbs are full.
        let below_half = (&BigInt::from(1u64) << 64) + (&BigInt::from(1u64) << 11) - BigInt::one();
        assert_eq!(below_half.to_f64(), 2f64.powi(64));
        // Sign carries through; overflow saturates to infinity.
        assert_eq!((-above_half).to_f64(), -(2f64.powi(64) + 2f64.powi(12)));
        assert_eq!((&BigInt::one() << 1200).to_f64(), f64::INFINITY);
    }

    #[test]
    fn to_primitive_bounds() {
        assert_eq!(big(i64::MAX as i128).to_i64(), Some(i64::MAX));
        assert_eq!(big(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!(big(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(big(u64::MAX as i128).to_u64(), Some(u64::MAX));
        assert_eq!(big(-1).to_u64(), None);
    }

    #[test]
    fn pow_and_bits() {
        assert_eq!(big(2).pow(10), big(1024));
        assert_eq!(big(10).pow(0), big(1));
        assert_eq!(BigInt::zero().bits(), 0);
        assert_eq!(big(1).bits(), 1);
        assert_eq!(big(255).bits(), 8);
        assert_eq!((&big(1) << 64).bits(), 65);
    }

    #[test]
    fn sum_and_product() {
        let xs: Vec<BigInt> = (1..=5i64).map(BigInt::from).collect();
        assert_eq!(xs.iter().sum::<BigInt>(), big(15));
        assert_eq!(xs.into_iter().product::<BigInt>(), big(120));
    }

    #[test]
    fn division_edge_cases_match_reference() {
        let one = vec![1u64];
        let top = vec![0u64, 0, 1]; // 2^128
        let all_ones = vec![u64::MAX; 4];
        let mut big_pow = vec![0u64; 63];
        big_pow.push(1); // 2^4032
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (Vec::new(), one.clone()),               // 0 / 1
            (one.clone(), one.clone()),              // equal single-limb
            (all_ones.clone(), all_ones.clone()),    // equal multi-limb
            (top.clone(), vec![u64::MAX, u64::MAX]), // forces qhat correction
            (all_ones.clone(), vec![1u64, 1]),
            (big_pow.clone(), all_ones.clone()),
            (big_pow.clone(), vec![u64::MAX, 1]),
            (vec![5u64], all_ones.clone()), // dividend < divisor
        ];
        for (a, b) in &cases {
            assert_eq!(
                mag_divmod(a, b),
                mag_divmod_binary_reference(a, b),
                "divmod({a:?}, {b:?})"
            );
        }
    }

    #[test]
    fn division_qhat_addback_path() {
        // Classic Algorithm D stress case: dividend top limbs equal to the
        // normalized divisor's, which drives qhat to b-1 and exercises the
        // add-back branch probability region.
        let b = vec![0u64, u64::MAX - 1, 1u64 << 63];
        let mut a = mag_mul(&b, &[u64::MAX, u64::MAX, u64::MAX]);
        a = mag_add(&a, &mag_sub(&b, &[1]));
        let (q, r) = mag_divmod(&a, &b);
        assert_eq!((q, r), mag_divmod_binary_reference(&a, &b));
    }

    proptest! {
        /// Differential: Algorithm D == binary long division reference on
        /// operands up to ~4096 bits.
        #[test]
        fn divmod_matches_binary_reference(a in arb_mag(64), b in arb_mag(32)) {
            prop_assume!(!b.is_empty());
            let (q, r) = mag_divmod(&a, &b);
            let (q_ref, r_ref) = mag_divmod_binary_reference(&a, &b);
            prop_assert_eq!(&q, &q_ref);
            prop_assert_eq!(&r, &r_ref);
            // And the result reconstructs: a = q*b + r with r < b.
            prop_assert_eq!(mag_add(&mag_mul(&q, &b), &r), a);
            prop_assert_eq!(mag_cmp(&r, &b), Ordering::Less);
        }

        /// Differential on *correlated* operands (a = b * c + d), where
        /// trial quotients hit exact boundaries.
        #[test]
        fn divmod_matches_reference_on_products(
            b in arb_mag(24),
            c in arb_mag(24),
            d in arb_mag(8),
        ) {
            prop_assume!(!b.is_empty());
            let a = mag_add(&mag_mul(&b, &c), &d);
            prop_assert_eq!(mag_divmod(&a, &b), mag_divmod_binary_reference(&a, &b));
        }

        #[test]
        fn gcd_of_products_shares_factor(a in arb_mag(12), b in arb_mag(12), f in arb_mag(6)) {
            prop_assume!(!f.is_empty() && !a.is_empty() && !b.is_empty());
            let fa = BigInt::from_mag(Sign::Positive, mag_mul(&a, &f));
            let fb = BigInt::from_mag(Sign::Positive, mag_mul(&b, &f));
            let g = fa.gcd(&fb);
            // The common factor divides the gcd, and the gcd divides both.
            prop_assert!((&g % &BigInt::from_mag(Sign::Positive, f)).is_zero());
            prop_assert!((&fa % &g).is_zero());
            prop_assert!((&fb % &g).is_zero());
        }

        /// The in-place Stein loop and its fast paths agree with the
        /// bit-at-a-time reference, on random operands and on operands
        /// sharing a random common factor.
        #[test]
        fn gcd_matches_bitwise_reference(a in arb_mag(12), b in arb_mag(12), f in arb_mag(4)) {
            prop_assert_eq!(mag_gcd(&a, &b), mag_gcd_bitwise_reference(&a, &b));
            let (fa, fb) = (mag_mul(&a, &f), mag_mul(&b, &f));
            prop_assert_eq!(mag_gcd(&fa, &fb), mag_gcd_bitwise_reference(&fa, &fb));
        }

        /// Word-sized and power-of-two operands take the fast paths.
        #[test]
        fn gcd_with_word_or_power_of_two_matches_reference(
            a in arb_mag(16),
            w in any::<u64>(),
            k in 0usize..700,
        ) {
            let word = if w == 0 { Vec::new() } else { vec![w] };
            prop_assert_eq!(mag_gcd(&a, &word), mag_gcd_bitwise_reference(&a, &word));
            prop_assert_eq!(mag_gcd(&word, &a), mag_gcd_bitwise_reference(&word, &a));
            let pow = mag_shl(&[1], k);
            prop_assert_eq!(mag_gcd(&a, &pow), mag_gcd_bitwise_reference(&a, &pow));
            prop_assert_eq!(mag_gcd(&pow, &a), mag_gcd_bitwise_reference(&pow, &a));
        }

        /// A power-of-two divisor (a shift and a mask) and a single-limb
        /// divisor agree with binary long division; the allocation-free
        /// remainder agrees with the dividing one.
        #[test]
        fn divmod_by_word_or_power_of_two_matches_reference(
            a in arb_mag(32),
            k in 0usize..2100,
            w in 1u64..u64::MAX,
        ) {
            let pow = mag_shl(&[1], k);
            prop_assert_eq!(mag_divmod(&a, &pow), mag_divmod_binary_reference(&a, &pow));
            for d in [w, 1, 2, 257, 1 << 63, u64::MAX] {
                prop_assert_eq!(mag_divmod(&a, &[d]), mag_divmod_binary_reference(&a, &[d]));
                prop_assert_eq!(mag_rem_limb(&a, d), mag_divmod_limb(&a, d).1);
            }
        }

        /// Division by ±1 is a clone of the dividend (negated for -1),
        /// with a zero remainder, for either sign of the dividend.
        #[test]
        fn div_rem_by_unit_matches_i128_and_reconstructs(
            a in arb_mag(16),
            neg in any::<bool>(),
            v in any::<i128>(),
        ) {
            let a = signed(a, neg);
            for d in [BigInt::one(), -BigInt::one()] {
                let (q, r) = a.div_rem(&d);
                prop_assert!(r.is_zero());
                prop_assert_eq!(&q * &d, a.clone());
                prop_assert_eq!(big(v).div_rem(&d), (big(v / d.to_i64().unwrap() as i128), BigInt::zero()));
            }
        }

        /// The limb-multiply and power-of-two multiply fast paths agree
        /// with shift-and-add.
        #[test]
        fn mul_matches_shift_add_reference(a in arb_mag(16), b in arb_mag(3), k in 0usize..300) {
            prop_assert_eq!(mag_mul(&a, &b), mag_mul_shift_add_reference(&a, &b));
            prop_assert_eq!(mag_mul(&b, &a), mag_mul_shift_add_reference(&a, &b));
            let pow = mag_shl(&[1], k);
            prop_assert_eq!(mag_mul(&a, &pow), mag_mul_shift_add_reference(&a, &pow));
            prop_assert_eq!(mag_mul(&pow, &a), mag_mul_shift_add_reference(&a, &pow));
        }

        /// In-place sums and differences, over every owned/borrowed
        /// operand form, agree with the allocating reference.
        #[test]
        fn add_sub_match_reference(
            a in arb_mag(8),
            b in arb_mag(8),
            signs in (any::<bool>(), any::<bool>()),
        ) {
            let (a, b) = (signed(a, signs.0), signed(b, signs.1));
            let sum = add_reference(&a, &b);
            prop_assert_eq!(&a + &b, sum.clone());
            prop_assert_eq!(a.clone() + b.clone(), sum.clone());
            prop_assert_eq!(a.clone() + &b, sum.clone());
            prop_assert_eq!(&a + b.clone(), sum.clone());
            let mut acc = a.clone();
            acc += &b;
            prop_assert_eq!(acc, sum);
            let diff = add_reference(&a, &-&b);
            prop_assert_eq!(&a - &b, diff.clone());
            prop_assert_eq!(a.clone() - b.clone(), diff.clone());
            prop_assert_eq!(a.clone() - &b, diff.clone());
            prop_assert_eq!(&a - b.clone(), diff.clone());
            let mut acc = a.clone();
            acc -= &b;
            prop_assert_eq!(acc, diff);
            prop_assert!((&a - &a).is_zero());
        }

        #[test]
        fn add_matches_i128(a in -(1i128<<100)..(1i128<<100), b in -(1i128<<100)..(1i128<<100)) {
            prop_assert_eq!(big(a) + big(b), big(a + b));
        }

        #[test]
        fn mul_matches_i128(a in -(1i128<<62)..(1i128<<62), b in -(1i128<<62)..(1i128<<62)) {
            prop_assert_eq!(big(a) * big(b), big(a * b));
        }

        #[test]
        fn divmod_matches_i128(a in any::<i128>(), b in any::<i128>()) {
            prop_assume!(b != 0);
            let (q, r) = big(a).div_rem(&big(b));
            prop_assert_eq!(q, big(a / b));
            prop_assert_eq!(r, big(a % b));
        }

        #[test]
        fn divmod_reconstructs(a_s in "\\-?[0-9]{1,60}", b_s in "[1-9][0-9]{0,40}") {
            let a: BigInt = a_s.parse().unwrap();
            let b: BigInt = b_s.parse().unwrap();
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(&q * &b + &r, a);
            prop_assert!(r.abs() < b);
        }

        #[test]
        fn ordering_matches_i128(a in any::<i128>(), b in any::<i128>()) {
            prop_assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
        }

        #[test]
        fn display_parse_roundtrip(s in "\\-?[1-9][0-9]{0,80}") {
            let a: BigInt = s.parse().unwrap();
            prop_assert_eq!(a.to_string(), s);
        }
    }
}

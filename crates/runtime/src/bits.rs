//! Bit-level state words and the workspace's one FNV-1a hasher.
//!
//! Differential checks ("these executions visited exactly the same
//! states") and stream digests need a state's exact bit pattern, not a
//! rendering of it. [`StateBits`] writes a state as a sequence of `u64`
//! words: an `f64` is its `to_bits`, so `0.0` and `-0.0` differ and so
//! do NaNs with different payloads; variable-length parts (slices,
//! maps, big-integer limbs) are preceded by their length, so two states
//! have equal words only if they are equal bit for bit. [`Fnv1a`] hashes
//! bytes or words — the same function behind the round digests
//! and the conformance fingerprints.

use kya_arith::{BigInt, BigRational, Sign};
use std::collections::BTreeMap;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a: tiny, dependency-free, and stable across platforms —
/// its digests appear in NDJSON that CI diffs byte for byte. Words are
/// hashed as their little-endian bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of the empty input.
    pub const fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Hash `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Hash the little-endian bytes of `word`.
    pub fn write_word(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// Hash the little-endian bytes of every word, in order.
    pub fn write_words(&mut self, words: &[u64]) {
        for &w in words {
            self.write_word(w);
        }
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// The `splitmix64` finalizer: a bijective mix of one word. Fault coins,
/// cell seeds and the conformance inputs all derive from it, so each is
/// a pure function of its seed, never of scheduling.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value that can write its exact bit pattern as `u64` words.
///
/// Equal words must mean bit-identical values: implementations feed
/// every field, and a length before any variable-length part.
pub trait StateBits {
    /// Append this value's words to `out`.
    fn feed(&self, out: &mut Vec<u64>);

    /// This value's words, in a fresh vector.
    fn words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.feed(&mut out);
        out
    }
}

impl StateBits for f64 {
    fn feed(&self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
}

impl StateBits for u32 {
    fn feed(&self, out: &mut Vec<u64>) {
        out.push(u64::from(*self));
    }
}

impl StateBits for u64 {
    fn feed(&self, out: &mut Vec<u64>) {
        out.push(*self);
    }
}

impl StateBits for usize {
    fn feed(&self, out: &mut Vec<u64>) {
        out.push(*self as u64);
    }
}

impl StateBits for bool {
    fn feed(&self, out: &mut Vec<u64>) {
        out.push(u64::from(*self));
    }
}

impl<T: StateBits> StateBits for [T] {
    fn feed(&self, out: &mut Vec<u64>) {
        out.push(self.len() as u64);
        for x in self {
            x.feed(out);
        }
    }
}

impl<T: StateBits> StateBits for Vec<T> {
    fn feed(&self, out: &mut Vec<u64>) {
        self.as_slice().feed(out);
    }
}

impl<A: StateBits, B: StateBits> StateBits for (A, B) {
    fn feed(&self, out: &mut Vec<u64>) {
        self.0.feed(out);
        self.1.feed(out);
    }
}

/// The borrowed value's words.
impl<T: StateBits + ?Sized> StateBits for &T {
    fn feed(&self, out: &mut Vec<u64>) {
        (**self).feed(out);
    }
}

/// The shared value's words: sharing is not part of the bit pattern.
impl<T: StateBits + ?Sized> StateBits for Arc<T> {
    fn feed(&self, out: &mut Vec<u64>) {
        (**self).feed(out);
    }
}

impl<K: StateBits, V: StateBits> StateBits for BTreeMap<K, V> {
    fn feed(&self, out: &mut Vec<u64>) {
        out.push(self.len() as u64);
        for (k, v) in self {
            k.feed(out);
            v.feed(out);
        }
    }
}

fn feed_limbs(x: &BigInt, out: &mut Vec<u64>) {
    out.push(x.limbs().len() as u64);
    out.extend_from_slice(x.limbs());
}

/// The sign, then the limb count and limbs of the numerator and of the
/// denominator (the fraction is kept in lowest terms, so equal values
/// have equal words).
impl StateBits for BigRational {
    fn feed(&self, out: &mut Vec<u64>) {
        out.push(match self.numer().sign() {
            Sign::Negative => u64::MAX,
            Sign::Zero => 0,
            Sign::Positive => 1,
        });
        feed_limbs(self.numer(), out);
        feed_limbs(self.denom(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.digest(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.digest(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.digest(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_hash_as_their_little_endian_bytes() {
        let w = 0x0123_4567_89ab_cdef_u64;
        let mut a = Fnv1a::new();
        a.write_words(&[w, 7]);
        let mut b = Fnv1a::new();
        b.write(&w.to_le_bytes());
        b.write(&7u64.to_le_bytes());
        assert_eq!(a, b);
    }

    #[test]
    fn f64_words_are_the_bit_patterns() {
        assert_ne!(0.0f64.words(), (-0.0f64).words());
        let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
        let other = f64::from_bits(0x7ff8_0000_0000_0002);
        assert_ne!(quiet.words(), other.words());
        assert_eq!(1.5f64.words(), vec![1.5f64.to_bits()]);
    }

    #[test]
    fn lengths_delimit_variable_parts() {
        let a: Vec<Vec<u64>> = vec![vec![1, 2], vec![3]];
        let b: Vec<Vec<u64>> = vec![vec![1], vec![2, 3]];
        assert_ne!(a.words(), b.words());
        let mut m = BTreeMap::new();
        m.insert(4u64, true);
        assert_eq!(m.words(), vec![1, 4, 1]);
    }

    #[test]
    fn pairs_and_shared_values_feed_their_parts() {
        assert_eq!((3u64, 1.5f64).words(), vec![3, 1.5f64.to_bits()]);
        let shared = Arc::new(vec![7u32, 8]);
        assert_eq!(shared.words(), vec![2, 7, 8]);
        assert_eq!(shared.words(), (*shared).words());
    }

    #[test]
    fn rationals_feed_sign_and_limbs() {
        let half = BigRational::new(BigInt::from(1i64), BigInt::from(2i64));
        let neg = BigRational::new(BigInt::from(-1i64), BigInt::from(2i64));
        assert_eq!(half.words(), vec![1, 1, 1, 1, 2]);
        assert_eq!(neg.words(), vec![u64::MAX, 1, 1, 1, 2]);
        assert_eq!(BigRational::zero().words(), vec![0, 0, 1, 1]);
        let big = BigRational::from_integer(BigInt::from(1u64) << 65);
        assert_eq!(big.words(), vec![1, 2, 0, 2, 1, 1]);
    }
}

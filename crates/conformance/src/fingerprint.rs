//! Deterministic state-stream fingerprints.
//!
//! The path-agreement oracle needs "these two executions visited exactly
//! the same global states, round for round" at bit granularity. A
//! fingerprint hashes the [`StateBits`] words of each round's state
//! vector — for `f64`, its `to_bits` — so it separates `0.0` from
//! `-0.0` and NaNs with different payloads, and two streams share a
//! digest only if they agree bit for bit (up to 64-bit hash
//! collisions). The hash is the runtime's one [`Fnv1a`].

use kya_runtime::bits::{Fnv1a, StateBits};

/// A chained fingerprint of a sequence of global states: each round's
/// state vector is folded into the running hash, so two streams agree
/// iff every prefix agrees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(Fnv1a);

impl Fingerprint {
    /// The fingerprint of the empty stream.
    pub fn new() -> Fingerprint {
        Fingerprint(Fnv1a::new())
    }

    /// Fold one round's global state vector into the stream.
    pub fn absorb<S: StateBits>(&mut self, states: &[S]) {
        self.absorb_words(&states.words());
    }

    /// Fold one round's state words (as written by [`StateBits::feed`])
    /// into the stream.
    pub fn absorb_words(&mut self, words: &[u64]) {
        self.0.write_words(words);
        self.delimit(words.len(), 0);
    }

    /// Fold a byte string into the stream.
    pub fn absorb_bytes(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
        self.delimit(bytes.len(), 1);
    }

    /// Length-and-domain delimiter: `absorb(a); absorb(b)` must differ
    /// from one absorb of the concatenation, and a byte string must
    /// differ from the words it spells.
    fn delimit(&mut self, len: usize, domain: u64) {
        self.0.write_word((len as u64) << 1 | domain);
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0.digest()
    }
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_arith::{BigInt, BigRational};

    fn digest_of<S: StateBits>(states: &[S]) -> u64 {
        let mut fp = Fingerprint::new();
        fp.absorb(states);
        fp.digest()
    }

    #[test]
    fn bitwise_sensitivity() {
        // 0.1 + 0.2 != 0.3 in f64: one ulp apart, different digests.
        assert_ne!(digest_of(&[0.1f64 + 0.2]), digest_of(&[0.3f64]));
        assert_eq!(
            digest_of(&[0.1f64 + 0.2]),
            digest_of(&[0.30000000000000004f64])
        );
    }

    #[test]
    fn signed_zeros_differ() {
        assert_ne!(digest_of(&[0.0f64]), digest_of(&[-0.0f64]));
    }

    #[test]
    fn nan_payloads_differ() {
        let a = f64::from_bits(0x7ff8_0000_0000_0001);
        let b = f64::from_bits(0x7ff8_0000_0000_0002);
        // `Debug` renders both as `NaN`; the bits tell them apart.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(digest_of(&[a]), digest_of(&[b]));
    }

    #[test]
    fn rational_signs_differ() {
        let half = BigRational::new(BigInt::from(1i64), BigInt::from(2i64));
        let neg = BigRational::new(BigInt::from(-1i64), BigInt::from(2i64));
        assert_ne!(digest_of(&[half]), digest_of(&[neg]));
    }

    #[test]
    fn chaining_distinguishes_round_boundaries() {
        let mut a = Fingerprint::new();
        a.absorb(&[1u32, 2]);
        a.absorb(&[3u32]);
        let mut b = Fingerprint::new();
        b.absorb(&[1u32]);
        b.absorb(&[2u32, 3]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn byte_and_word_domains_do_not_collide() {
        let w = 0x0123_4567_89ab_cdef_u64;
        let mut bytes = Fingerprint::new();
        bytes.absorb_bytes(&w.to_le_bytes());
        let mut words = Fingerprint::new();
        words.absorb_words(&[w]);
        assert_ne!(bytes.digest(), words.digest());
        assert_ne!(bytes.digest(), digest_of(&[w]));
        let (mut no_bytes, mut no_words) = (Fingerprint::new(), Fingerprint::new());
        no_bytes.absorb_bytes(&[]);
        no_words.absorb_words(&[]);
        assert_ne!(no_bytes.digest(), no_words.digest());
    }
}

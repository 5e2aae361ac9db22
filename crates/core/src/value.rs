//! Value-encoding conventions.
//!
//! The simulator and algorithms exchange `u64`-encoded input values. In
//! experiments that need a *leader* (Corollary 4.4, §5.5), the leader
//! flag must be part of the agent's input value — anonymity permits no
//! other distinction — so we reserve the top bit as the flag and keep the
//! payload in the low 63 bits.

/// The leader flag bit.
const LEADER_BIT: u64 = 1 << 63;

/// Encode a payload with a leader flag.
///
/// # Panics
///
/// Panics if `payload` uses the top bit.
pub fn encode(payload: u64, leader: bool) -> u64 {
    assert!(payload & LEADER_BIT == 0, "payload must fit in 63 bits");
    if leader {
        payload | LEADER_BIT
    } else {
        payload
    }
}

/// Decode into `(payload, leader)`.
pub fn decode(value: u64) -> (u64, bool) {
    (value & !LEADER_BIT, value & LEADER_BIT != 0)
}

/// Whether an encoded value carries the leader flag.
pub fn is_leader(value: u64) -> bool {
    value & LEADER_BIT != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for payload in [0u64, 1, 42, (1 << 63) - 1] {
            for leader in [false, true] {
                let enc = encode(payload, leader);
                assert_eq!(decode(enc), (payload, leader));
                assert_eq!(is_leader(enc), leader);
            }
        }
    }

    #[test]
    #[should_panic(expected = "63 bits")]
    fn oversized_payload_rejected() {
        let _ = encode(1 << 63, false);
    }
}

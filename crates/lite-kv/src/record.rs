//! The self-verifying record every value slot holds, so that a client
//! may read a slot with one one-sided `lt_read` and let the bytes say
//! whether the answer is good (DESIGN.md §15 "Reads and sessions").
//!
//! ```text
//! 0        8        16       24            24 + len
//! | seq    | len    | check  | value ...   | (slack up to the slot's cap)
//! ```
//!
//! `seq` is the sequence number of the update that wrote the slot (never
//! 0, so a slot no update reached yet reads as [`Slot::Empty`]); `len` is
//! the value length, or [`TOMBSTONE`] once the key has moved to a larger
//! slot; `check` is 64 bits over `(seq, len, key, value)`. The key itself
//! is not stored: a reader checks with the key it asked for, so a slot
//! holding another key's record — or bytes of two different records, read
//! while the owner was rewriting the slot — simply fails.

/// Bytes of `seq`, `len` and `check` in front of the value.
pub const HEADER: usize = 24;

/// The `len` of a slot whose key has moved to a larger one.
const TOMBSTONE: u64 = u64::MAX;

/// What a reader that asked for one key finds in a slot's bytes.
#[derive(Debug, PartialEq, Eq)]
pub enum Slot<'a> {
    /// No update has reached this slot: the replica is behind whoever
    /// handed out the location.
    Empty,
    /// The bytes are not one whole record of this key.
    Torn,
    /// The key's value moved elsewhere at update `seq`.
    Tombstone {
        /// The update that moved it.
        seq: u64,
    },
    /// The key's value as of update `seq`.
    Live {
        /// The update that wrote it.
        seq: u64,
        /// The value.
        value: &'a [u8],
    },
}

/// 64-bit hash of `parts` — each prefixed by its length, so where one
/// ends and the next begins is part of what is hashed. Deterministic
/// (a location cache keyed by it fills the same way every run).
pub(crate) fn hash64(parts: &[&[u8]]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, w: u64| (h.rotate_left(23) ^ w).wrapping_mul(K);
    let mut h = K;
    for part in parts {
        h = step(h, part.len() as u64);
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            h = step(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let mut last = [0u8; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        h = step(h, u64::from_le_bytes(last));
    }
    // murmur3's finalizer: every input bit reaches every output bit.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

fn check(seq: u64, len: u64, key: &[u8], value: &[u8]) -> u64 {
    hash64(&[&seq.to_le_bytes(), &len.to_le_bytes(), key, value])
}

fn encode(seq: u64, len: u64, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(HEADER + value.len());
    b.extend_from_slice(&seq.to_le_bytes());
    b.extend_from_slice(&len.to_le_bytes());
    b.extend_from_slice(&check(seq, len, key, value).to_le_bytes());
    b.extend_from_slice(value);
    b
}

/// The record update `seq` (≥ 1) writes for `key = value`.
pub fn live(seq: u64, key: &[u8], value: &[u8]) -> Vec<u8> {
    encode(seq, value.len() as u64, key, value)
}

/// The record update `seq` leaves over `key`'s old slot when the value
/// outgrew it.
pub fn tombstone(seq: u64, key: &[u8]) -> Vec<u8> {
    encode(seq, TOMBSTONE, key, &[])
}

/// Reads `bytes` (a slot, or its first `HEADER + cap` bytes) as a record
/// of `key`.
pub fn parse<'a>(bytes: &'a [u8], key: &[u8]) -> Slot<'a> {
    let word = |at: usize| {
        bytes
            .get(at..at + 8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
    };
    let (Some(seq), Some(len), Some(sum)) = (word(0), word(8), word(16)) else {
        return Slot::Torn;
    };
    if seq == 0 {
        return Slot::Empty;
    }
    if len == TOMBSTONE {
        return if sum == check(seq, len, key, &[]) {
            Slot::Tombstone { seq }
        } else {
            Slot::Torn
        };
    }
    let value = usize::try_from(len)
        .ok()
        .and_then(|len| bytes[HEADER..].get(..len));
    match value {
        Some(value) if sum == check(seq, len, key, value) => Slot::Live { seq, value },
        _ => Slot::Torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_wrong_key() {
        let rec = live(7, b"k", b"hello");
        assert_eq!(rec.len(), HEADER + 5);
        assert_eq!(
            parse(&rec, b"k"),
            Slot::Live {
                seq: 7,
                value: b"hello"
            }
        );
        // Slack after the value (a slot read at its full cap) is ignored.
        let mut padded = rec.clone();
        padded.extend_from_slice(&[0xAB; 11]);
        assert_eq!(
            parse(&padded, b"k"),
            Slot::Live {
                seq: 7,
                value: b"hello"
            }
        );
        assert_eq!(parse(&rec, b"other"), Slot::Torn);
        assert_eq!(parse(&tombstone(9, b"k"), b"k"), Slot::Tombstone { seq: 9 });
        assert_eq!(parse(&tombstone(9, b"k"), b"j"), Slot::Torn);
        assert_eq!(parse(&[0u8; 64], b"k"), Slot::Empty);
        assert_eq!(parse(&rec[..HEADER + 4], b"k"), Slot::Torn);
        assert_eq!(parse(&rec[..10], b"k"), Slot::Torn);
    }

    #[test]
    fn part_boundaries_are_hashed() {
        assert_ne!(hash64(&[b"ab", b"c"]), hash64(&[b"a", b"bc"]));
        assert_ne!(hash64(&[b"", b"a"]), hash64(&[b"a", b""]));
        assert_ne!(hash64(&[&[0u8; 8]]), hash64(&[&[0u8; 9]]));
    }
}

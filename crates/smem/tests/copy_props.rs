//! Property tests: `PhysMem::copy_from` against the `read` + `write`
//! oracle it replaces (gather the source fragments into one buffer, then
//! scatter the buffer over the destination fragments).

use proptest::prelude::*;
use smem::{Chunk, PhysMem, PAGE_SIZE};

/// Modeled bytes per memory: a handful of pages, so random chunk lists
/// straddle pages, collide, and overlap often.
const SPAN: u64 = 6 * PAGE_SIZE as u64;

fn pattern(seed: u8) -> Vec<u8> {
    (0..SPAN)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

fn snapshot(mem: &PhysMem) -> Vec<u8> {
    let mut all = vec![0u8; SPAN as usize];
    mem.read(0, &mut all).unwrap();
    all
}

fn chunks(raw: &[(u64, u64)]) -> Vec<Chunk> {
    raw.iter()
        .map(|&(addr, len)| Chunk {
            addr,
            len: len.min(SPAN - addr),
        })
        .collect()
}

/// What `copy_from` must leave in the destination memory, computed on
/// plain byte vectors: all of `src` is read before any of `dst` is written.
fn oracle(from: &[u8], into: &mut [u8], src: &[Chunk], dst: &[Chunk]) {
    let range = |c: &Chunk| c.addr as usize..(c.addr + c.len) as usize;
    let data: Vec<u8> = src.iter().flat_map(|c| &from[range(c)]).copied().collect();
    let mut rest = &data[..];
    for c in dst {
        let (head, tail) = rest.split_at(rest.len().min(c.len as usize));
        into[range(c)][..head.len()].copy_from_slice(head);
        rest = tail;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two memories: unaligned, page-straddling, unequally fragmented
    /// (and possibly empty) chunk lists of unequal totals.
    #[test]
    fn copy_between_memories_matches_oracle(
        src in prop::collection::vec((0u64..SPAN, 0u64..(2 * PAGE_SIZE as u64)), 0..6),
        dst in prop::collection::vec((0u64..SPAN, 0u64..(2 * PAGE_SIZE as u64)), 0..6),
    ) {
        let (src, dst) = (chunks(&src), chunks(&dst));
        let (a, b) = (PhysMem::new(SPAN), PhysMem::new(SPAN));
        a.write(0, &pattern(1)).unwrap();
        b.write(0, &pattern(2)).unwrap();
        let mut want = pattern(2);
        oracle(&pattern(1), &mut want, &src, &dst);
        b.copy_from(&a, &src, &dst).unwrap();
        prop_assert_eq!(snapshot(&b), want);
        prop_assert_eq!(snapshot(&a), pattern(1));
    }

    /// One memory copying onto itself, overlapping ranges included.
    #[test]
    fn copy_within_one_memory_matches_oracle(
        src in prop::collection::vec((0u64..SPAN, 0u64..(2 * PAGE_SIZE as u64)), 0..5),
        dst in prop::collection::vec((0u64..SPAN, 0u64..(2 * PAGE_SIZE as u64)), 0..5),
    ) {
        let (src, dst) = (chunks(&src), chunks(&dst));
        let m = PhysMem::new(SPAN);
        m.write(0, &pattern(3)).unwrap();
        let mut want = pattern(3);
        oracle(&pattern(3), &mut want, &src, &dst);
        m.copy_from(&m, &src, &dst).unwrap();
        prop_assert_eq!(snapshot(&m), want);
    }

    /// A chunk past the end of either memory, anywhere in either list,
    /// fails the copy before a single byte has moved.
    #[test]
    fn out_of_bounds_leaves_destination_untouched(
        good in prop::collection::vec((0u64..SPAN, 1u64..(PAGE_SIZE as u64)), 1..4),
        at in 0usize..4,
        bad_src in any::<bool>(),
        past in 1u64..64,
    ) {
        let good = chunks(&good);
        let mut bad = good.clone();
        bad.insert(at.min(good.len()), Chunk { addr: SPAN - 8, len: 8 + past });
        let (a, b) = (PhysMem::new(SPAN), PhysMem::new(SPAN));
        a.write(0, &pattern(4)).unwrap();
        b.write(0, &pattern(5)).unwrap();
        let result = if bad_src {
            b.copy_from(&a, &bad, &good)
        } else {
            b.copy_from(&a, &good, &bad)
        };
        prop_assert!(result.is_err());
        prop_assert_eq!(snapshot(&b), pattern(5));
    }
}

//! Property tests of the RPC ring protocol (`lite::ring`): a client that
//! reserves, a server that consumes out of order and publishes its head
//! in the cell behind the ring, and a client that learns of free space
//! only by pulling that cell — late, repeatedly, or from a stale copy.

use lite::ring::{ClientRing, HeadCell, Reservation, ServerRing, HEAD_CELL_SPAN};
use lite::LiteError;
use proptest::prelude::*;
use smem::PhysMem;

const BASE: u64 = 4096;

/// The kernel's pull minus the one-sided read: decode the cell, apply it.
fn pull(cr: &ClientRing, mem: &PhysMem) -> u64 {
    let mut b = [0u8; HeadCell::BYTES];
    mem.read(cr.head_cell(), &mut b).unwrap();
    let cell = HeadCell::decode(&b);
    cr.update_head(cell.head);
    cell.head
}

fn overlap(a: &Reservation, b: &Reservation) -> bool {
    a.offset < b.offset + b.len && b.offset < a.offset + a.len
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of reserve / out-of-order consume / pull over
    /// rings of 1–64 KiB. Safety: live reservations never overlap, never
    /// straddle the wrap, `in_flight() <= size`, the client never believes
    /// more is free than the server freed, and no pull — fresh, repeated
    /// or stale — moves the head backwards. Liveness: once everything
    /// reserved is consumed, ONE pull lets any message up to `size / 2`
    /// reserve, wherever the tail stopped — including just short of the
    /// wrap, where the message needs the skipped fragment as well (a
    /// design that pushed heads only past a threshold would never send
    /// the update this reservation waits for).
    #[test]
    fn interleavings_are_safe_and_live(
        size_log in 10u32..17,
        steps in prop::collection::vec((0u8..4, any::<u32>()), 1..400),
        last in any::<u32>(),
    ) {
        let size = 1u64 << size_log;
        let mem = PhysMem::new(BASE + size + HEAD_CELL_SPAN);
        let cr = ClientRing::new(BASE, size).unwrap();
        let sr = ServerRing::new(BASE, size).unwrap();
        // Reserved and not yet consumed, with the unrounded length.
        let mut live: Vec<(Reservation, u64)> = Vec::new();
        // Heads earlier pulls returned, to replay out of order.
        let mut seen = vec![0u64];
        let mut clock = 0;
        for (kind, arg) in steps {
            match kind {
                0 | 1 => {
                    let len = 1 + u64::from(arg) % (size / 2);
                    match cr.try_reserve(len) {
                        Ok(r) => {
                            prop_assert!(r.offset + r.len <= size, "straddles the wrap");
                            prop_assert!(live.iter().all(|(l, _)| !overlap(l, &r)));
                            live.push((r, len));
                        }
                        Err(LiteError::RingFull) => {}
                        Err(e) => prop_assert!(false, "reserve({len}): {e:?}"),
                    }
                }
                2 if !live.is_empty() => {
                    let (r, len) = live.swap_remove(arg as usize % live.len());
                    clock += 1;
                    sr.consume(&mem, r.offset, len, r.skip, clock).unwrap();
                }
                2 => {}
                _ => {
                    let before = cr.head();
                    if arg % 3 == 0 {
                        cr.update_head(seen[arg as usize % seen.len()]);
                    } else {
                        seen.push(pull(&cr, &mem));
                    }
                    prop_assert!(cr.head() >= before, "head moved backwards");
                }
            }
            prop_assert!(cr.in_flight() <= size);
            prop_assert!(cr.head() <= sr.head());
        }
        for (r, len) in live.drain(..) {
            clock += 1;
            sr.consume(&mem, r.offset, len, r.skip, clock).unwrap();
        }
        pull(&cr, &mem);
        prop_assert_eq!(cr.in_flight(), 0);
        let len = 1 + u64::from(last) % (size / 2);
        prop_assert!(cr.try_reserve(len).is_ok(), "{len} B after a full drain");
    }
}

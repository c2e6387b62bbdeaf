//! RPC ring buffers (§5.1).
//!
//! For each (client node → server node) direction LITE keeps one internal
//! ring LMR at the *server*. The client writes requests at its cached tail
//! with RDMA write-imm; the server consumes them. The client manages the
//! tail, the server manages the head — exactly the split the paper
//! describes.
//!
//! Flow control is *pull-on-full*, so it costs the call path nothing:
//! the server publishes `(monotonic head, virtual stamp of the consume
//! that moved it)` in a 16-byte **head cell** right behind the ring
//! ([`ServerRing::head_cell`]), with one local memory write per consume
//! and no message. A client whose cached head says the ring is full reads
//! that cell with one one-sided read and retries ([`HeadCell::decode`] →
//! [`ClientRing::update_head`]). Heads are monotonic and cumulative, so a
//! stale, repeated or reordered read is harmless — it can only fail to
//! free space, never free space that is still in use — and there is no
//! head update to lose.
//!
//! Because several client threads share the ring and several server
//! threads consume out of order, the server tracks freed spans in a small
//! map and advances the head over the contiguous freed prefix.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use simnet::wait::{Deadline, Event};
use simnet::Nanos;
use smem::{MemError, PhysAddr, PhysMem};

use crate::error::{LiteError, LiteResult};
use crate::wire::round_granule;

/// Bytes allocated behind a ring's last byte for its head cell (a cache
/// line; the cell itself is the first [`HeadCell::BYTES`] of it).
pub const HEAD_CELL_SPAN: u64 = 64;

/// What the server publishes behind its ring: everything below `head`
/// (a monotonic byte position) is free as of virtual time `stamp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadCell {
    /// Monotonic head position in bytes.
    pub head: u64,
    /// Virtual time of the consume that moved the head there.
    pub stamp: Nanos,
}

impl HeadCell {
    /// Serialized size.
    pub const BYTES: usize = 16;

    /// Serializes to the in-memory form.
    pub fn encode(self) -> [u8; Self::BYTES] {
        let mut b = [0u8; Self::BYTES];
        b[..8].copy_from_slice(&self.head.to_le_bytes());
        b[8..].copy_from_slice(&self.stamp.to_le_bytes());
        b
    }

    /// Deserializes (total; the kernel writes `(0, 0)` when it wires a ring).
    pub fn decode(b: &[u8; Self::BYTES]) -> Self {
        HeadCell {
            head: u64::from_le_bytes(b[..8].try_into().expect("8 bytes")),
            stamp: Nanos::from_le_bytes(b[8..].try_into().expect("8 bytes")),
        }
    }
}

/// Client-side view of a ring that lives at a server node.
pub struct ClientRing {
    /// Physical base of the ring at the server (global-MR address).
    pub remote_base: PhysAddr,
    /// Ring size in bytes.
    pub size: u64,
    inner: Mutex<ClientInner>,
}

struct ClientInner {
    /// Next free byte (monotonic, wrapped by `% size` at use).
    tail: u64,
    /// Last head value pulled from the server (monotonic).
    head: u64,
}

/// A reserved span of ring space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Byte offset within the ring where the message starts.
    pub offset: u64,
    /// Rounded length reserved.
    pub len: u64,
    /// Monotonic position (for debugging).
    pub pos: u64,
    /// Bytes skipped at the wrap point just before this message. Carried
    /// in the message header so the server can reclaim the skipped span.
    pub skip: u64,
}

impl ClientRing {
    /// Creates a client view of a `size`-byte ring at `remote_base`.
    ///
    /// `size` must be a non-zero power of two (the wrap logic relies on
    /// it); a bad size is reported as an error instead of panicking the
    /// thread that builds rings during cluster bring-up.
    pub fn new(remote_base: PhysAddr, size: u64) -> LiteResult<Self> {
        if size == 0 || !size.is_power_of_two() {
            return Err(LiteError::Internal("ring size must be a power of two"));
        }
        Ok(ClientRing {
            remote_base,
            size,
            inner: Mutex::new(ClientInner { tail: 0, head: 0 }),
        })
    }

    /// Tries to reserve `len` payload bytes (rounded to the granule). The
    /// reservation never straddles the wrap point: if the message does not
    /// fit before the end, the remainder of the ring is skipped (the
    /// skipped span is reclaimed when the head passes it, because monotonic
    /// positions keep accounting exact).
    pub fn try_reserve(&self, len: u64) -> LiteResult<Reservation> {
        let want = round_granule(len);
        if want > self.size / 2 {
            return Err(LiteError::TooLarge {
                len: len as usize,
                max: (self.size / 2) as usize,
            });
        }
        let mut inner = self.inner.lock();
        let mut start = inner.tail;
        let in_ring = start % self.size;
        let mut skip = 0;
        if in_ring + want > self.size {
            // Skip the tail fragment; message starts at the wrap.
            skip = self.size - in_ring;
            start += skip;
        }
        let need_through = start + want;
        if need_through - inner.head > self.size {
            return Err(LiteError::RingFull);
        }
        inner.tail = need_through;
        Ok(Reservation {
            offset: start % self.size,
            len: want,
            pos: start,
            skip,
        })
    }

    /// Physical address of the ring's head cell at the server.
    pub fn head_cell(&self) -> PhysAddr {
        self.remote_base + self.size
    }

    /// Applies a head position pulled from the server's head cell. Heads
    /// only move forward: a stale or repeated value is ignored. So is one
    /// beyond the tail — the server cannot have consumed what was never
    /// reserved, the cell is corrupt — and that is reported as `false`.
    pub fn update_head(&self, head_pos: u64) -> bool {
        let mut inner = self.inner.lock();
        if head_pos > inner.tail {
            return false;
        }
        inner.head = inner.head.max(head_pos);
        true
    }

    /// The cached head position.
    pub fn head(&self) -> u64 {
        self.inner.lock().head
    }

    /// Bytes currently reserved and not yet freed.
    pub fn in_flight(&self) -> u64 {
        let inner = self.inner.lock();
        inner.tail - inner.head
    }
}

/// Server-side state of one client's ring.
pub struct ServerRing {
    /// Physical base of the ring on this node.
    pub base: PhysAddr,
    /// Ring size in bytes.
    pub size: u64,
    inner: Mutex<ServerInner>,
    /// Woken whenever the head moves (see [`ServerRing::wait_past`]).
    moved: Event,
}

struct ServerInner {
    /// Monotonic head: everything below is free.
    head: u64,
    /// Out-of-order freed spans: start -> len (monotonic positions).
    freed: BTreeMap<u64, u64>,
}

impl ServerRing {
    /// Creates the server-side state for a ring at `base`.
    ///
    /// Like [`ClientRing::new`], rejects sizes that are not a non-zero
    /// power of two rather than panicking.
    pub fn new(base: PhysAddr, size: u64) -> LiteResult<Self> {
        if size == 0 || !size.is_power_of_two() {
            return Err(LiteError::Internal("ring size must be a power of two"));
        }
        Ok(ServerRing {
            base,
            size,
            inner: Mutex::new(ServerInner {
                head: 0,
                freed: BTreeMap::new(),
            }),
            moved: Event::default(),
        })
    }

    /// Converts a ring byte-offset (from an IMM) plus the current head
    /// epoch into the monotonic position. Offsets are unambiguous because
    /// at most `size` bytes are in flight.
    fn monotonic(&self, head: u64, offset: u64) -> u64 {
        let head_off = head % self.size;
        let epoch_base = head - head_off;
        if offset >= head_off {
            epoch_base + offset
        } else {
            epoch_base + self.size + offset
        }
    }

    /// Physical address of this ring's head cell.
    pub fn head_cell(&self) -> PhysAddr {
        self.base + self.size
    }

    /// Marks `[offset, offset+len)` (ring coordinates) consumed at virtual
    /// time `stamp`, plus the `skip` bytes the client discarded at the
    /// wrap just before this message (from the header). When the
    /// contiguous freed prefix advanced, publishes the new head in the
    /// head cell — under the ring lock, so concurrent consumers cannot
    /// leave an older head behind a newer one.
    pub fn consume(
        &self,
        mem: &PhysMem,
        offset: u64,
        len: u64,
        skip: u64,
        stamp: Nanos,
    ) -> Result<(), MemError> {
        let len = round_granule(len);
        let mut inner = self.inner.lock();
        let pos = self.monotonic(inner.head, offset);
        if skip > 0 {
            // A corrupt header could claim a skip larger than the message
            // position; clamp instead of underflowing (the excess span is
            // simply not reclaimed, which at worst wastes ring space).
            let skip = skip.min(pos);
            if skip > 0 {
                inner.freed.insert(pos - skip, skip);
            }
        }
        inner.freed.insert(pos, len);
        // Advance the head over the contiguous prefix.
        let before = inner.head;
        while let Some((&start, &flen)) = inner.freed.first_key_value() {
            if start > inner.head {
                break;
            }
            inner.freed.remove(&start);
            inner.head = inner.head.max(start + flen);
        }
        if inner.head == before {
            return Ok(());
        }
        let cell = HeadCell {
            head: inner.head,
            stamp,
        };
        mem.write(self.head_cell(), &cell.encode())?;
        drop(inner);
        self.moved.wake();
        Ok(())
    }

    /// Parks the calling host thread until the head has moved past `seen`
    /// or `deadline` passes. Simulation pacing only, no virtual time: a
    /// client whose pull showed no progress would re-read the cell until
    /// it changes, and only the read that sees the change is modelled.
    pub fn wait_past(&self, seen: u64, deadline: Deadline) {
        self.moved.park_until(|| self.head() > seen, deadline);
    }

    /// Current monotonic head.
    pub fn head(&self) -> u64 {
        self.inner.lock().head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1 KiB ring at `base` with both views and the memory behind it.
    fn ring(base: PhysAddr) -> (ClientRing, ServerRing, PhysMem) {
        let cr = ClientRing::new(base, 1024).unwrap();
        let sr = ServerRing::new(base, 1024).unwrap();
        (cr, sr, PhysMem::new(1 << 16))
    }

    /// What the kernel's pull does, minus the one-sided read.
    fn pull(cr: &ClientRing, mem: &PhysMem) -> HeadCell {
        let mut b = [0u8; HeadCell::BYTES];
        mem.read(cr.head_cell(), &mut b).unwrap();
        let cell = HeadCell::decode(&b);
        cr.update_head(cell.head);
        cell
    }

    #[test]
    fn reserve_and_free_in_order() {
        let (cr, sr, mem) = ring(0x1000);
        let r1 = cr.try_reserve(100).unwrap();
        let r2 = cr.try_reserve(100).unwrap();
        assert_eq!(r1.offset, 0);
        assert_eq!(r2.offset, 128);
        sr.consume(&mem, r1.offset, 100, 0, 5).unwrap();
        assert_eq!(sr.head(), 128);
        sr.consume(&mem, r2.offset, 100, 0, 10).unwrap();
        assert_eq!(
            pull(&cr, &mem),
            HeadCell {
                head: 256,
                stamp: 10
            }
        );
        assert_eq!(cr.head(), 256);
        assert_eq!(cr.in_flight(), 0);
    }

    #[test]
    fn out_of_order_free_waits_for_prefix() {
        let (cr, sr, mem) = ring(0);
        let r1 = cr.try_reserve(64).unwrap();
        let r2 = cr.try_reserve(64).unwrap();
        // Consuming the second first does not advance the head, and
        // publishes nothing.
        sr.consume(&mem, r2.offset, 64, 0, 1).unwrap();
        assert_eq!((sr.head(), pull(&cr, &mem).head), (0, 0));
        // Consuming the first advances over both.
        sr.consume(&mem, r1.offset, 64, 0, 2).unwrap();
        assert_eq!((sr.head(), pull(&cr, &mem).head), (128, 128));
    }

    #[test]
    fn ring_fills_and_reopens() {
        let (cr, sr, mem) = ring(0);
        let mut rs = Vec::new();
        for _ in 0..8 {
            rs.push(cr.try_reserve(128).unwrap());
        }
        assert!(matches!(cr.try_reserve(64), Err(LiteError::RingFull)));
        for r in &rs[..2] {
            sr.consume(&mem, r.offset, 128, r.skip, 1).unwrap();
        }
        // The server freed space, but the client only learns by pulling.
        assert!(matches!(cr.try_reserve(64), Err(LiteError::RingFull)));
        pull(&cr, &mem);
        assert!(cr.try_reserve(128).is_ok());
    }

    #[test]
    fn wrap_skips_tail_fragment() {
        let (cr, sr, mem) = ring(0);
        // Fill 960 bytes (two reservations), free them, so tail is at 960
        // with head 960.
        let r1a = cr.try_reserve(512).unwrap();
        let r1b = cr.try_reserve(448).unwrap();
        sr.consume(&mem, r1a.offset, 512, 0, 1).unwrap();
        sr.consume(&mem, r1b.offset, 448, 0, 1).unwrap();
        pull(&cr, &mem);
        // A 128-byte message cannot straddle the wrap: starts at 0.
        let r2 = cr.try_reserve(128).unwrap();
        assert_eq!(r2.offset, 0);
        assert_eq!(r2.pos, 1024);
        // Server consumes it; head passes the skipped fragment too.
        sr.consume(&mem, r2.offset, 128, r2.skip, 2).unwrap();
        assert_eq!(pull(&cr, &mem).head, 1024 + 128);
        assert_eq!(cr.in_flight(), 0);
    }

    #[test]
    fn head_beyond_tail_is_rejected() {
        let (cr, _, _) = ring(0);
        cr.try_reserve(128).unwrap();
        assert!(!cr.update_head(256), "never reserved, cannot be consumed");
        assert_eq!(cr.head(), 0);
        assert!(cr.update_head(128));
        assert_eq!(cr.in_flight(), 0);
    }

    #[test]
    fn oversized_reservation_rejected() {
        let (cr, _, _) = ring(0);
        assert!(matches!(
            cr.try_reserve(600),
            Err(LiteError::TooLarge { .. })
        ));
    }

    #[test]
    fn many_wraps_stay_consistent() {
        let (cr, sr, mem) = ring(0);
        for i in 0..200 {
            let len = 64 + (i % 5) * 64;
            let r = match cr.try_reserve(len) {
                Ok(r) => r,
                Err(_) => {
                    pull(&cr, &mem);
                    cr.try_reserve(len).unwrap()
                }
            };
            sr.consume(&mem, r.offset, len, r.skip, i).unwrap();
            assert!(cr.in_flight() <= 1024);
        }
        pull(&cr, &mem);
        assert_eq!(cr.in_flight(), 0, "all space reclaimed");
    }
}

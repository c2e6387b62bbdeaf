//! Property tests of the `lite::wire` codecs: the `Enc`/`Dec` pair,
//! the 32-bit IMM encoding, the ring-message header, and granule
//! rounding must all round-trip for arbitrary inputs; and the one IMM
//! kind that decodes to nothing is harmless on a live poller.

use lite::wire::{round_granule, Dec, Enc, Imm, MsgHeader, HEADER_BYTES, RING_GRANULE};
use lite::{LiteCluster, Op, Perm, Priority};
use proptest::prelude::*;
use simnet::Ctx;

/// A write-imm of the reserved kind (what an old peer's pushed head
/// update would look like) reaches a poller that has no arm for it: the
/// poller drops it, reposts the credit, and keeps serving.
#[test]
fn poller_ignores_the_reserved_imm_kind() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut ctx = Ctx::new();
    let sink = cluster.datapath(1).alloc(64).unwrap();
    let stale = Op::Write {
        dst_node: 1,
        dst_addr: sink,
        src: Vec::new().into(),
        len: 0,
        imm: Some((2 << 30) | 42),
    };
    cluster
        .datapath(0)
        .post(&mut ctx, Priority::High, &stale)
        .unwrap();
    // Node 1's poller still answers kernel RPCs.
    let mut h = cluster.attach(0).unwrap();
    h.lt_malloc(&mut ctx, 1, 4096, "wire.after", Perm::RW)
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An interleaved u8/u32/u64/bytes sequence decodes to exactly what
    /// was encoded, in order.
    #[test]
    fn enc_dec_round_trips(
        a in any::<u8>(),
        b in any::<u32>(),
        c in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..300),
        d in any::<u64>(),
    ) {
        let buf = Enc::new()
            .u8(a)
            .u32(b)
            .u64(c)
            .bytes(&payload)
            .u64(d)
            .done();
        let mut dec = Dec::new(&buf);
        prop_assert_eq!(dec.u8().unwrap(), a);
        prop_assert_eq!(dec.u32().unwrap(), b);
        prop_assert_eq!(dec.u64().unwrap(), c);
        prop_assert_eq!(dec.bytes().unwrap(), &payload[..]);
        prop_assert_eq!(dec.u64().unwrap(), d);
        // The buffer is exhausted: one more read must fail, not wrap.
        prop_assert!(dec.u8().is_err());
    }

    /// Truncating an encoded buffer at any point yields an error from
    /// some decode step — never a panic or a silently wrong value.
    #[test]
    fn dec_rejects_truncation(
        v in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..100),
        cut in 0usize..100,
    ) {
        let buf = Enc::new().u64(v).bytes(&payload).done();
        let cut = cut.min(buf.len().saturating_sub(1));
        let mut dec = Dec::new(&buf[..cut]);
        if let Ok(g) = dec.u64() {
            prop_assert_eq!(g, v);
            prop_assert!(dec.bytes().is_err(), "truncated payload must not decode");
        }
    }

    /// Every IMM survives encode → decode (the payload is 30 bits).
    #[test]
    fn imm_round_trips(kind in 0u32..3, payload in 0u32..(1 << 30)) {
        let imm = match kind {
            0 => Imm::Request { granule: payload },
            1 => Imm::Reply { slot: payload },
            _ => Imm::ReplyErr { slot: payload },
        };
        prop_assert_eq!(Imm::decode(imm.encode()), Some(imm));
    }

    /// Decoding is total, and only the reserved kind (the retired pushed
    /// head update) decodes to nothing — which the poller ignores.
    #[test]
    fn imm_reserved_kind_decodes_to_none(v in any::<u32>()) {
        prop_assert_eq!(Imm::decode(v).is_none(), v >> 30 == 2);
    }

    /// Ring-message headers round-trip through their fixed 40-byte form.
    #[test]
    fn msg_header_round_trips(
        func in any::<u8>(),
        slot in any::<u32>(),
        len in any::<u32>(),
        reply_addr in any::<u64>(),
        reply_max in any::<u32>(),
        src_node in any::<u32>(),
        src_pid in any::<u32>(),
        skip in any::<u32>(),
    ) {
        let hdr = MsgHeader {
            func,
            slot,
            len,
            reply_addr,
            reply_max,
            src_node,
            src_pid,
            skip,
        };
        let bytes = hdr.encode();
        prop_assert_eq!(bytes.len(), HEADER_BYTES);
        prop_assert_eq!(MsgHeader::decode(&bytes).unwrap(), hdr);
        // A corrupted magic is rejected.
        let mut bad = bytes;
        bad[0] ^= 0xFF;
        prop_assert!(MsgHeader::decode(&bad).is_err());
    }

    /// Granule rounding is idempotent, aligned, and minimal.
    #[test]
    fn round_granule_is_minimal_alignment(len in 0u64..(1 << 40)) {
        let r = round_granule(len);
        prop_assert_eq!(r % RING_GRANULE, 0);
        prop_assert!(r >= len);
        prop_assert!(r < len + RING_GRANULE);
        prop_assert_eq!(round_granule(r), r);
    }
}

//! Regression tests for `lt_memmove` overlap semantics (and the
//! segment-ordered `lt_memcpy` rewrite behind it). The pre-fix
//! `lt_memmove` was a blind alias of `lt_memcpy`: with an overlapping
//! range split across several chunk segments, an ascending copy
//! overwrites source bytes a later segment still has to read.

use lite::{ChainOp, ChainOut, LiteCluster, LiteConfig, LiteError, Perm};
use rnic::IbConfig;
use simnet::Ctx;

const CHUNK: u64 = 4096;

fn small_chunk_cluster() -> std::sync::Arc<LiteCluster> {
    let config = LiteConfig {
        max_lmr_chunk: CHUNK,
        ..LiteConfig::default()
    };
    LiteCluster::start_with(IbConfig::with_nodes(2), config).unwrap()
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Runs one memmove against the byte oracle (`copy_within`).
fn check_move(home: rnic::NodeId, src_off: u64, dst_off: u64, len: usize) {
    let cluster = small_chunk_cluster();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let total = 4 * CHUNK as usize;
    let lh = h
        .lt_malloc(&mut ctx, home, total as u64, "memmove.arena", Perm::RW)
        .unwrap();
    let init = pattern(total);
    h.lt_write(&mut ctx, lh, 0, &init).unwrap();

    h.lt_memmove(&mut ctx, lh, src_off, lh, dst_off, len)
        .unwrap();

    let mut oracle = init;
    oracle.copy_within(src_off as usize..src_off as usize + len, dst_off as usize);
    let mut got = vec![0u8; total];
    h.lt_read(&mut ctx, lh, 0, &mut got).unwrap();
    assert_eq!(
        got, oracle,
        "memmove src_off={src_off} dst_off={dst_off} len={len} home={home} diverged from oracle"
    );
}

/// Forward overlap (dst above src) across chunk boundaries — the case
/// the pre-fix ascending copy corrupted: by the time the second segment
/// is copied, its source bytes were already overwritten by the first.
#[test]
fn memmove_forward_overlap_multi_chunk() {
    check_move(0, 0, CHUNK / 2, 2 * CHUNK as usize);
}

/// Same forward overlap on a remote LMR (pieces pushed by the peer).
#[test]
fn memmove_forward_overlap_remote() {
    check_move(1, 512, 512 + CHUNK / 2, 2 * CHUNK as usize);
}

/// Backward overlap (dst below src): ascending order is the safe one.
#[test]
fn memmove_backward_overlap_multi_chunk() {
    check_move(0, CHUNK / 2, 0, 2 * CHUNK as usize);
    check_move(1, CHUNK, 128, 3 * CHUNK as usize - 256);
}

/// Overlap confined to a single chunk: one FN_MEMCPY call, whose handler
/// buffers the whole subrange — both directions must hold.
#[test]
fn memmove_overlap_single_chunk() {
    check_move(0, 100, 300, 1024);
    check_move(0, 300, 100, 1024);
}

/// Degenerate and disjoint cases keep plain-memcpy behavior.
#[test]
fn memmove_disjoint_and_identity() {
    // Disjoint ranges in the same LMR.
    check_move(0, 0, 3 * CHUNK, 1024);
    // Exactly adjacent (no overlap).
    check_move(0, 0, CHUNK, CHUNK as usize);
    // Self-copy onto itself.
    check_move(0, CHUNK, CHUNK, 512);
}

/// Cross-LMR memmove degrades to memcpy (handles never alias).
#[test]
fn memmove_across_lmrs_is_memcpy() {
    let cluster = small_chunk_cluster();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let len = 2 * CHUNK as usize;
    let a = h
        .lt_malloc(&mut ctx, 0, len as u64, "memmove.a", Perm::RW)
        .unwrap();
    let b = h
        .lt_malloc(&mut ctx, 1, len as u64, "memmove.b", Perm::RW)
        .unwrap();
    let data = pattern(len);
    h.lt_write(&mut ctx, a, 0, &data).unwrap();
    h.lt_memmove(&mut ctx, a, 0, b, 0, len).unwrap();
    let mut got = vec![0u8; len];
    h.lt_read(&mut ctx, b, 0, &mut got).unwrap();
    assert_eq!(got, data);
}

/// `lt_chain`: ops on one LMR take effect in order and return what the
/// single calls would — across a chunk boundary, on a remote and on a
/// local LMR — for one blocking wait instead of one per op.
#[test]
fn chain_matches_the_single_calls_in_one_wait() {
    let straddle = CHUNK - 8; // 24 bytes over the chunk boundary
    let payload = pattern(24);
    let fresh = |home| {
        let cluster = small_chunk_cluster();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h
            .lt_malloc(&mut ctx, home, 2 * CHUNK, "chain.arena", Perm::RW)
            .unwrap();
        (cluster, h, ctx, lh)
    };
    for home in [1, 0] {
        // The five ops as five calls, first thing after `lt_malloc` on a
        // cluster of their own: the chain below is timed equally cold
        // (one of the two shared QPs has never been touched).
        let (_cluster, mut h, mut ctx, lh) = fresh(home);
        let t0 = ctx.now();
        h.lt_write(&mut ctx, lh, straddle, &payload).unwrap();
        assert_eq!(h.lt_fetch_add(&mut ctx, lh, 64, 5).unwrap(), 0);
        assert_eq!(h.lt_cmp_swap(&mut ctx, lh, 64, 5, 9).unwrap(), 5);
        h.lt_read(&mut ctx, lh, straddle, &mut [0u8; 24]).unwrap();
        h.lt_read(&mut ctx, lh, 64, &mut [0u8; 8]).unwrap();
        let cold_single = ctx.now() - t0;

        let (_cluster, mut h, mut ctx, lh) = fresh(home);

        let t0 = ctx.now();
        let outs = h
            .lt_chain(
                &mut ctx,
                lh,
                &[
                    ChainOp::Write {
                        off: straddle,
                        data: &payload,
                    },
                    ChainOp::FetchAdd { off: 64, delta: 5 },
                    ChainOp::CmpSwap {
                        off: 64,
                        expect: 5,
                        new: 9,
                    },
                    ChainOp::Read {
                        off: straddle,
                        len: 24,
                    },
                    ChainOp::Read { off: 64, len: 8 },
                ],
            )
            .unwrap();
        let chained = ctx.now() - t0;
        assert_eq!(
            outs,
            [
                ChainOut::Done,
                ChainOut::Value(0),
                ChainOut::Value(5),
                ChainOut::Bytes(payload.clone()),
                ChainOut::Bytes(9u64.to_le_bytes().to_vec()),
            ],
            "home {home}"
        );

        // The same five ops as five calls see what the chain left.
        h.lt_write(&mut ctx, lh, straddle, &payload).unwrap();
        assert_eq!(h.lt_fetch_add(&mut ctx, lh, 64, 5).unwrap(), 9);
        assert_eq!(h.lt_cmp_swap(&mut ctx, lh, 64, 14, 9).unwrap(), 14);
        let mut back = [0u8; 24];
        h.lt_read(&mut ctx, lh, straddle, &mut back).unwrap();
        let mut word = [0u8; 8];
        h.lt_read(&mut ctx, lh, 64, &mut word).unwrap();
        assert_eq!((&back[..], word), (&payload[..], 9u64.to_le_bytes()));
        if home != 0 {
            assert!(
                chained * 2 < cold_single,
                "one wait, not five: chained {chained} ns, single calls {cold_single} ns"
            );
        }

        // An atomic must sit inside one chunk; the chain fails before
        // anything is posted.
        let err = h.lt_chain(
            &mut ctx,
            lh,
            &[
                ChainOp::FetchAdd { off: 64, delta: 1 },
                ChainOp::FetchAdd {
                    off: CHUNK - 4,
                    delta: 1,
                },
            ],
        );
        assert!(
            matches!(err, Err(LiteError::StraddlesChunk { .. })),
            "{err:?}"
        );
        assert_eq!(h.lt_fetch_add(&mut ctx, lh, 64, 0).unwrap(), 9);
    }
}

/// A single call *is* a chain of one: for each of write / read /
/// fetch-add / cmp-swap, on a remote and on a local LMR, from the first
/// call after `lt_malloc` (one shared QP never touched) to the tenth,
/// `lt_chain(&[op])` on a cluster of its own costs exactly the virtual ns
/// the single call costs and returns what it returns.
#[test]
fn single_call_costs_what_a_chain_of_one_costs_cold_and_warm() {
    let fresh = |home| {
        let cluster = small_chunk_cluster();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h
            .lt_malloc(&mut ctx, home, 2 * CHUNK, "one.arena", Perm::RW)
            .unwrap();
        (cluster, h, ctx, lh)
    };
    let payload = pattern(64);
    for home in [1, 0] {
        for kind in ["write", "read", "fetch-add", "cmp-swap"] {
            let (_single_cluster, mut single, mut sctx, slh) = fresh(home);
            let (_chain_cluster, mut chain, mut cctx, clh) = fresh(home);
            for call in 0..10u64 {
                if kind == "read" && call == 9 {
                    // Something to read back, untimed, on both sides.
                    single.lt_write(&mut sctx, slh, 0, &payload).unwrap();
                    chain.lt_write(&mut cctx, clh, 0, &payload).unwrap();
                }
                let off = call * 64;
                let (s0, c0) = (sctx.now(), cctx.now());
                let (got, op) = match kind {
                    "write" => {
                        single.lt_write(&mut sctx, slh, off, &payload).unwrap();
                        let data = &payload[..];
                        (ChainOut::Done, ChainOp::Write { off, data })
                    }
                    "read" => {
                        let mut buf = vec![0u8; 64];
                        single.lt_read(&mut sctx, slh, 0, &mut buf).unwrap();
                        (ChainOut::Bytes(buf), ChainOp::Read { off: 0, len: 64 })
                    }
                    "fetch-add" => {
                        let old = single.lt_fetch_add(&mut sctx, slh, 8, 3).unwrap();
                        (ChainOut::Value(old), ChainOp::FetchAdd { off: 8, delta: 3 })
                    }
                    _ => {
                        // Wins on even calls, loses on odd ones.
                        let (expect, new) = (call / 2, call / 2 + 1);
                        let old = single.lt_cmp_swap(&mut sctx, slh, 8, expect, new).unwrap();
                        let op = ChainOp::CmpSwap {
                            off: 8,
                            expect,
                            new,
                        };
                        (ChainOut::Value(old), op)
                    }
                };
                let chained = chain.lt_chain(&mut cctx, clh, &[op]).unwrap();
                let at = format!("{kind}, home {home}, call {call}");
                assert_eq!(chained, std::slice::from_ref(&got), "{at}");
                assert_eq!(cctx.now() - c0, sctx.now() - s0, "virtual ns: {at}");
                if kind == "read" && call == 9 {
                    assert_eq!(got, ChainOut::Bytes(payload.clone()));
                }
            }
        }
    }
}

/// An offset whose end wraps past `u64::MAX` is out of bounds for every
/// memory call — it used to pass the bounds check in release builds and
/// move no byte, and to panic in debug builds — and a chain with such an
/// op posts none of its ops.
#[test]
fn offset_near_u64_max_is_out_of_bounds_everywhere() {
    let cluster = small_chunk_cluster();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 2 * CHUNK, "wrap.arena", Perm::RW)
        .unwrap();
    let other = h
        .lt_malloc(&mut ctx, 1, 2 * CHUNK, "wrap.other", Perm::RW)
        .unwrap();
    let far = u64::MAX - 3;
    let oob = |r: Result<(), LiteError>, call: &str| {
        assert!(
            matches!(r, Err(LiteError::OutOfBounds { .. })),
            "{call}: {r:?}"
        );
    };
    oob(h.lt_write(&mut ctx, lh, far, &[1; 8]), "lt_write");
    oob(h.lt_read(&mut ctx, lh, far, &mut [0; 8]), "lt_read");
    oob(h.lt_memset(&mut ctx, lh, far, 8, 0xAB), "lt_memset");
    oob(
        h.lt_memcpy(&mut ctx, lh, far, other, 0, 8),
        "lt_memcpy from",
    );
    oob(h.lt_memcpy(&mut ctx, other, 0, lh, far, 8), "lt_memcpy to");
    oob(h.lt_memmove(&mut ctx, lh, far, lh, 0, 8), "lt_memmove");
    oob(
        h.lt_fetch_add(&mut ctx, lh, far, 1).map(drop),
        "lt_fetch_add",
    );
    oob(
        h.lt_cmp_swap(&mut ctx, lh, u64::MAX, 0, 1).map(drop),
        "lt_cmp_swap",
    );

    let verbs = || cluster.fabric().nic(0).stats().one_sided_ops;
    let before = verbs();
    let chain = [
        ChainOp::FetchAdd { off: 64, delta: 5 },
        ChainOp::Write {
            off: far,
            data: &[1; 8],
        },
    ];
    oob(h.lt_chain(&mut ctx, lh, &chain).map(drop), "lt_chain");
    assert_eq!(verbs(), before, "a chain with a bad op posts nothing");
    assert_eq!(h.lt_fetch_add(&mut ctx, lh, 64, 0).unwrap(), 0);
}

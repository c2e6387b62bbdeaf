//! Lock acquisitions per warm one-sided call, counted by the
//! `parking_lot` shim (this thread's only; debug builds keep the count,
//! so this file is empty in release). Every product lock on a verb's
//! path goes through the shim, so a lock added to the path fails here.
//!
//! What a warm call still takes, and what each lock guards:
//!
//! - the two NICs' states, one lock each (`rnic::Nic`: SRAM caches,
//!   request engine, tx and rx links, MR and QP tables, the atomic memo),
//!   taken once per side for the whole doorbell chain, in node order;
//! - the page locks of simulated memory (`smem::PhysMem`): a write
//!   stages its 64 B payload in one page, then the DMA copy locks the
//!   source and the destination page (5 in all); a read's DMA copy locks
//!   two and copying staging out one (5); an atomic applies under its
//!   word's page (3). The 4-op chain is the sum of its ops' page locks
//!   and one pair of NIC locks (10).
//!
//! The handle table and the QP pools are read without a lock: the handle
//! keeps its own copies, checked against generation counters the kernel
//! and the datapath bump on every change.

#![cfg(debug_assertions)]

use lite::{ChainOp, LiteCluster, Perm};
use simnet::Ctx;

/// The most locks any of 33 calls of `f` takes, after 16 untimed ones.
fn worst_call(mut f: impl FnMut(u64)) -> u64 {
    (0..16).for_each(&mut f);
    let per_call = (16..49).map(|i| {
        let before = parking_lot::acquisitions();
        f(i);
        parking_lot::acquisitions() - before
    });
    per_call.max().unwrap_or(0)
}

#[test]
fn warm_one_sided_calls_take_few_locks() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 1 << 20, "lock.count", Perm::RW)
        .unwrap();
    let (payload, mut back) = ([7u8; 64], [0u8; 64]);

    let write = worst_call(|i| h.lt_write(&mut ctx, lh, i * 64, &payload).unwrap());
    let read = worst_call(|i| h.lt_read(&mut ctx, lh, i * 64, &mut back).unwrap());
    assert_eq!(back, payload);
    let word = 512 << 10;
    let add = worst_call(|_| {
        h.lt_fetch_add(&mut ctx, lh, word, 1).unwrap();
    });
    let mut got = [0u8; 64];
    let chain = worst_call(|i| {
        let mut ops = [
            ChainOp::Write {
                off: i * 64,
                data: &payload,
            },
            ChainOp::Read {
                off: i * 64,
                buf: &mut got,
            },
            ChainOp::FetchAdd {
                off: word + 8,
                delta: 1,
                old: 0,
            },
            ChainOp::CmpSwap {
                off: word + 16,
                expect: i,
                new: i + 1,
                old: 0,
            },
        ];
        h.lt_chain(&mut ctx, lh, &mut ops).unwrap();
        assert_eq!(ops[3].word(), Some(i));
    });
    assert_eq!(got, payload);
    for (call, locks, pinned) in [
        ("lt_write", write, 5),
        ("lt_read", read, 5),
        ("lt_fetch_add", add, 3),
        ("4-op lt_chain", chain, 10),
    ] {
        assert_eq!(
            locks, pinned,
            "{call}: {locks} lock acquisitions in its worst warm call"
        );
    }
}

//! Heap allocations per warm one-sided call, counted by a counting
//! global allocator (this thread's only: the pollers allocate on
//! theirs). `lt_write`, `lt_read`, the atomics and `lt_chain` are one
//! body (`chain_pieces`), and everything it lists per op on the way to
//! the NIC model — pieces, pins, work requests, plans, grants — is held
//! inline for a chain of up to `simnet::CHAIN_INLINE` verbs, the gauges
//! it records live in the posting context's ledger, and the responder's
//! exactly-once memo is a direct-mapped window allocated once per
//! source. So a warm call allocates nothing, every call, not just
//! typically: one allocation on any of these paths is a regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lite::{ChainOp, LiteCluster, Perm};
use simnet::Ctx;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it allocates nothing
// and `try_with` declines instead of panicking during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as `dealloc`, and the caller's contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The most any of 33 calls of `f` allocates, after 16 untimed ones.
fn worst_call(mut f: impl FnMut(u64)) -> u64 {
    (0..16).for_each(&mut f);
    let per_call = (16..49).map(|i| {
        let before = ALLOCS.get();
        f(i);
        ALLOCS.get() - before
    });
    per_call.max().unwrap_or(0)
}

#[test]
fn warm_one_sided_calls_allocate_nothing() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 1 << 20, "alloc.count", Perm::RW)
        .unwrap();
    let (payload, mut back) = ([7u8; 64], [0u8; 64]);

    let write = worst_call(|i| h.lt_write(&mut ctx, lh, i * 64, &payload).unwrap());
    let read = worst_call(|i| h.lt_read(&mut ctx, lh, i * 64, &mut back).unwrap());
    assert_eq!(back, payload);
    let word = 512 << 10;
    let add = worst_call(|_| {
        h.lt_fetch_add(&mut ctx, lh, word, 1).unwrap();
    });
    let swap = worst_call(|i| {
        h.lt_cmp_swap(&mut ctx, lh, word, i, i + 1).unwrap();
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
    for (call, allocs) in [
        ("lt_write", write),
        ("lt_read", read),
        ("lt_fetch_add", add),
        ("lt_cmp_swap", swap),
        ("4-op lt_chain", chain),
    ] {
        assert_eq!(
            allocs, 0,
            "{call}: {allocs} allocations in its worst warm call"
        );
    }
}

//! Heap allocations per warm one-sided call, counted by a counting
//! global allocator (this thread's only: the pollers allocate on
//! theirs). `lt_write`, `lt_read` and the atomics are one body
//! (`chain_pieces`) called with one op, and a call lists every op's
//! physical pieces in one vector, so each makes that one allocation. A
//! 64-byte `lt_write` used to make two (an outer list and a list per op),
//! and the atomics four more vectors on their way through `lt_chain`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lite::{LiteCluster, Perm};
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

/// What a warm one-op call allocates: its one piece list.
const ONE_PIECE_LIST: u64 = 1;

/// What the median of 33 calls of `f` allocates, after 16 untimed ones.
/// The median, not the maximum: below the API the responder NIC's
/// exactly-once memo of atomics is a `BTreeMap` window that allocates a
/// node every few inserts, at this commit and before it.
fn typical_call(mut f: impl FnMut(u64)) -> u64 {
    (0..16).for_each(&mut f);
    let per_call = (16..49).map(|i| {
        let before = ALLOCS.get();
        f(i);
        ALLOCS.get() - before
    });
    let mut per_call: Vec<u64> = per_call.collect();
    per_call.sort_unstable();
    per_call[per_call.len() / 2]
}

#[test]
fn warm_one_op_calls_allocate_one_piece_list() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 1 << 20, "alloc.count", Perm::RW)
        .unwrap();
    let (payload, mut back) = ([7u8; 64], [0u8; 64]);

    let write = typical_call(|i| h.lt_write(&mut ctx, lh, i * 64, &payload).unwrap());
    let read = typical_call(|i| h.lt_read(&mut ctx, lh, i * 64, &mut back).unwrap());
    assert_eq!(back, payload);
    let word = 512 << 10;
    let add = typical_call(|_| {
        h.lt_fetch_add(&mut ctx, lh, word, 1).unwrap();
    });
    let swap = typical_call(|i| {
        h.lt_cmp_swap(&mut ctx, lh, word, i, i + 1).unwrap();
    });
    for (call, allocs) in [
        ("lt_write", write),
        ("lt_read", read),
        ("lt_fetch_add", add),
        ("lt_cmp_swap", swap),
    ] {
        assert!(
            allocs <= ONE_PIECE_LIST,
            "{call}: {allocs} allocations a call, {ONE_PIECE_LIST} expected"
        );
    }
}

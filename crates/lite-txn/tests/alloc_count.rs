//! Heap allocations of a warm read-2-write-2 transaction, counted by a
//! counting global allocator (this thread's only). A transaction keeps
//! its read and write sets in buffers its table hands from one
//! transaction to the next, and the verbs under `commit` allocate
//! nothing (`crates/lite/tests/alloc_count.rs`), so what is left is what
//! the API hands back: the two vectors `Txn::read` returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lite::LiteCluster;
use lite_txn::{TableSpec, TxnTable};
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

/// What a read-2-write-2 transaction hands back: one vector per read.
const READ_VECTORS: u64 = 2;

#[test]
fn warm_read2_write2_allocates_only_what_it_returns() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    // A long lease: every commit after the first starts on its kept
    // slot, as a warm committer's does.
    let spec = TableSpec {
        lease_ms: 60_000,
        ..TableSpec::new(16, 8)
    };
    let table = TxnTable::create(&mut h, &mut ctx, 1, "alloc.txn", spec).unwrap();
    let mut transfer = |i: u64| {
        let (a, b) = (i % 16, (i + 5) % 16);
        let mut txn = table.begin();
        let va = txn.read(&mut h, &mut ctx, a).unwrap();
        let vb = txn.read(&mut h, &mut ctx, b).unwrap();
        txn.write(a, &vb).unwrap();
        txn.write(b, &va).unwrap();
        txn.commit(&mut h, &mut ctx).unwrap();
    };
    (0..16).for_each(&mut transfer);
    let per_txn = (16..49).map(|i| {
        let before = ALLOCS.get();
        transfer(i);
        ALLOCS.get() - before
    });
    let per_txn: Vec<u64> = per_txn.collect();
    assert!(
        per_txn.iter().all(|&n| n == READ_VECTORS),
        "allocations per warm read-2-write-2 transaction: {per_txn:?}"
    );
    assert_eq!(table.stats().commits, 49);
}

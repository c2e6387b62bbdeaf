//! Heap allocations of a warm `LiteLog::commit`, counted by a counting
//! global allocator (this thread's only). A commit encodes its record into
//! a buffer the log keeps, lists its ring writes and publish inline, and
//! the verbs under it allocate nothing (`crates/lite/tests/alloc_count.rs`),
//! so a warm commit allocates nothing — the wrapping one included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lite::LiteCluster;
use lite_log::LiteLog;
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

/// Commits of a two-entry record (16 B key, 64 B value) around a ring a
/// few records long, so that some of them straddle its end: the worst of
/// them allocates nothing once a first lap has warmed the log.
#[test]
fn a_warm_commit_allocates_nothing() {
    const CAPACITY: u64 = 1000;
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let log = LiteLog::create(&mut h, &mut ctx, 1, "alloc.log", CAPACITY).unwrap();
    let (key, value) = ([1u8; 16], [2u8; 64]);
    let size = LiteLog::record_size(&[&key, &value]);
    let (mut cleaned, mut worst, mut wrapped) = (0, 0, 0);
    for i in 0..96 {
        let before = ALLOCS.get();
        let off = log.commit(&mut h, &mut ctx, &[&key, &value]).unwrap();
        if i >= 32 {
            worst = worst.max(ALLOCS.get() - before);
            wrapped += u64::from(off % CAPACITY + size > CAPACITY);
        }
        // Reclaim behind it, so the ring never fills.
        if off + size - cleaned > CAPACITY / 2 {
            cleaned += log.clean(&mut h, &mut ctx, CAPACITY / 2).unwrap().len() as u64 * size;
        }
    }
    assert!(wrapped > 0, "no commit straddled the end of the ring");
    assert_eq!(worst, 0, "{worst} allocations in the worst warm commit");
}

//! Heap allocations of a warm lite-kv `put` and a warm `Eventual` `get`,
//! counted by a counting global allocator on the calling thread only.
//! The leader is a served function, so a put's whole leader side (its
//! log commit and its store write) runs on the caller's thread and is
//! counted; the followers' catch-up runs on the replicator thread and is
//! not. Known sources, to cut one at a time:
//!
//! - `Store::apply` encodes each slot record into a fresh `Vec`
//!   (`record::live`);
//! - `lt_rpc`'s completion slot and the reply it hands back
//!   (`crates/lite/tests/alloc_count.rs` pins those two);
//! - on the replicator thread, `LiteLog::read_from` returns a `Vec<Txn>`
//!   of `Vec<Vec<u8>>` per follower catch-up.
//!
//! A put's request is encoded into a buffer the client keeps. A warm
//! one-sided get allocates only the value it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lite::{LiteCluster, LiteConfig};
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use rnic::IbConfig;
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

/// The most any of `calls` calls of `f` allocates.
fn worst_call(calls: u64, mut f: impl FnMut(u64)) -> u64 {
    let per_call = (0..calls).map(|i| {
        let before = ALLOCS.get();
        f(i);
        ALLOCS.get() - before
    });
    per_call.max().unwrap_or(0)
}

/// Puts that rewrite 16 keys in place, then gets of the same keys,
/// one-sided from a follower's arena. The worst warm put allocates 3:
/// `record::live`'s record, `lt_rpc`'s slot and its reply (2 when another
/// thread happened to run the leader's handler).
/// The worst warm get allocates 1, the value. "Warm" means past the first
/// lap of the RPC ring and of the log, which the test shrinks to 64 KiB
/// and 256 KiB: until then a put every few KiB touches a page of
/// simulated memory for the first time, and the simulation allocates it.
#[test]
fn warm_puts_and_gets_allocate_todays_counts() {
    let config = LiteConfig {
        rpc_ring_bytes: 64 << 10,
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(3), config).unwrap();
    let mut spec = KvSpec::new("alloc.kv", 1, &[2]);
    spec.log_capacity = 256 << 10;
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    c.prefer_replica(2);
    let mut ctx = Ctx::new();
    let keys: Vec<[u8; 16]> = (0..16u8).map(|i| [i; 16]).collect();
    let value = [7u8; 64];
    for i in 0..4096 {
        c.put(&mut ctx, &keys[i % 16], &value).unwrap();
    }
    let put = worst_call(256, |i| {
        c.put(&mut ctx, &keys[i as usize % 16], &value).unwrap();
    });
    // The follower has applied every put before the gets are counted, so
    // no get meets a slot in the middle of a rewrite.
    while svc.applied_seq(2) < svc.committed_seq() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    c.get(&mut ctx, &keys[0]).unwrap(); // maps the follower's arena
    let get = worst_call(64, |i| {
        let got = c.get(&mut ctx, &keys[i as usize % 16]).unwrap();
        assert_eq!(got.as_deref(), Some(&value[..]));
    });
    assert_eq!(c.stats().rpc, 0, "a get went by RPC: {:?}", c.stats());
    svc.stop();
    assert_eq!(put, 3, "{put} allocations in the worst warm put");
    assert_eq!(get, 1, "{get} allocations in the worst warm get");
}

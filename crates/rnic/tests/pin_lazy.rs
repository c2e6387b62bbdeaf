//! Pin accounting at the Verbs layer: deregistration consistency under
//! mid-list unpin failures. Pin-free registration is LITE's, not the
//! NIC's: `crates/lite/tests/lazy_pin.rs` covers it.

use std::sync::Arc;

use parking_lot::Mutex;
use rnic::{Access, IbConfig, IbFabric, VerbsError};
use simnet::Ctx;
use smem::{AddrSpace, PhysAllocator, PAGE_SIZE};

const P: u64 = PAGE_SIZE as u64;

#[test]
fn dereg_mid_list_failure_stays_consistent() {
    let fabric = IbFabric::new(IbConfig::with_nodes(1));
    let space = Arc::new(AddrSpace::new(Arc::new(Mutex::new(PhysAllocator::new(
        0,
        1 << 30,
    )))));
    let mut ctx = Ctx::new();
    let nic = fabric.nic(0);

    let va = space.mmap(3 * P).unwrap();
    let mr = nic
        .register_mr(&mut ctx, &space, va, 3 * P, Access::RW)
        .unwrap();
    assert_eq!(space.pinned_pages(), 3);

    // Sabotage: release the middle page's pin behind the NIC's back, so
    // deregistration hits a NotPinned error mid-list.
    space.unpin_range(va + P, P).unwrap();

    let err = nic.deregister_mr(&mut ctx, &mr).unwrap_err();
    assert!(
        matches!(err, VerbsError::Mem(smem::MemError::NotPinned { .. })),
        "dereg surfaces the unpin failure: {err:?}"
    );
    // Continue-and-collect: the failure neither resurrects the MR nor
    // leaves the other pages pinned.
    assert_eq!(space.pinned_pages(), 0, "outer pages still released");
    assert!(
        matches!(
            nic.deregister_mr(&mut ctx, &mr),
            Err(VerbsError::BadKey { .. })
        ),
        "MR identity is gone after the failed dereg"
    );
    assert_eq!(nic.stats().live_mrs, 0);
}

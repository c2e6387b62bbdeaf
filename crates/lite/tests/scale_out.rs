//! Scale-out behavior: incremental membership (partial boot + runtime
//! joins), lazy pair wiring, the boot/mesh gauges, the stale-name
//! regression, and multi-context hammering of the sharded kernel
//! tables. DESIGN.md §12.

use std::sync::Arc;

use lite::{LiteCluster, LiteError, Perm};
use simnet::Ctx;

#[test]
fn partial_boot_and_runtime_join() {
    // Boot 2 of 4 fabric nodes; the dark ones cost nothing and serve
    // nothing until they join.
    let cluster = LiteCluster::start_partial(
        rnic::IbConfig::with_nodes(4),
        lite::LiteConfig::default(),
        2,
    )
    .unwrap();
    assert_eq!(cluster.num_nodes(), 2);
    assert_eq!(cluster.capacity(), 4);
    assert!(cluster.try_kernel(2).is_err());
    assert!(matches!(
        cluster.attach(3),
        Err(LiteError::NodeDown { node: 3 })
    ));

    // The booted prefix works on its own.
    let mut ctx = Ctx::new();
    let mut h0 = cluster.attach(0).unwrap();
    let lh = h0.lt_malloc(&mut ctx, 1, 4096, "pre", Perm::RW).unwrap();
    h0.lt_write(&mut ctx, lh, 0, b"early").unwrap();

    // Join node 2 at runtime; traffic flows to and from it immediately.
    cluster.join_node(2).unwrap();
    assert_eq!(cluster.num_nodes(), 3);
    let mut h2 = cluster.attach(2).unwrap();
    let mut ctx2 = Ctx::new();
    let lh2 = h2.lt_map(&mut ctx2, "pre").unwrap();
    let mut buf = [0u8; 5];
    h2.lt_read(&mut ctx2, lh2, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"early");
    let lh_new = h2.lt_malloc(&mut ctx2, 2, 4096, "late", Perm::RW).unwrap();
    h2.lt_write(&mut ctx2, lh_new, 0, b"join!").unwrap();
    let lh_back = h0.lt_map(&mut ctx, "late").unwrap();
    let mut buf = [0u8; 5];
    h0.lt_read(&mut ctx, lh_back, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"join!");

    // Joining a running node is idempotent.
    cluster.join_node(2).unwrap();
    assert_eq!(cluster.num_nodes(), 3);
    // Out-of-fabric joins fail typed.
    assert!(matches!(
        cluster.join_node(9).map(|_| ()),
        Err(LiteError::NodeDown { node: 9 })
    ));
}

#[test]
fn boot_and_mesh_gauges_are_exposed() {
    let cluster = LiteCluster::start(3).unwrap();
    // Boot time is recorded per node and cumulatively in the directory.
    for node in 0..3 {
        assert!(cluster.kernel(node).stats().boot_ns > 0);
    }
    assert!(cluster.directory().boot_host_ns() > 0);
    // Before any cross-node traffic: no lazy connects, no live QPs.
    assert_eq!(cluster.kernel(0).stats().lazy_connects, 0);
    assert_eq!(cluster.kernel(0).stats().qps, 0);

    let mut ctx = Ctx::new();
    let mut h = cluster.attach(0).unwrap();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "gauge", Perm::RW).unwrap();
    h.lt_write(&mut ctx, lh, 0, b"x").unwrap();

    let s = cluster.kernel(0).stats();
    assert!(s.lazy_connects >= 1, "first use wires the pair");
    assert!(s.mesh_ns > 0, "pair wiring time is accounted");
    assert_eq!(s.qps, cluster.kernel(0).config().qp_factor);

    // The gauges ride through lt_stats and its JSON rendering.
    let json = cluster.kernel(0).lt_stats().to_json();
    for key in ["\"boot_ns\":", "\"mesh_ns\":", "\"lazy_connects\":"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn freed_name_does_not_resolve_to_recycled_lmr() {
    // Regression: `names` entries must be scrubbed when the LMR is
    // freed, *before* any fallible cleanup — a stale binding used to
    // point map requests at a master whose record id had been recycled.
    let cluster = LiteCluster::start(3).unwrap();
    let mut ctx = Ctx::new();
    let mut h = cluster.attach(0).unwrap();
    let lh = h.lt_malloc(&mut ctx, 1, 4096, "phoenix", Perm::RW).unwrap();
    h.lt_write(&mut ctx, lh, 0, b"old").unwrap();
    h.lt_free(&mut ctx, lh).unwrap();

    // The name is gone — not dangling.
    assert!(matches!(
        h.lt_map(&mut ctx, "phoenix"),
        Err(LiteError::NameNotFound { .. })
    ));

    // And it is immediately re-registrable from a different node; the
    // new binding resolves to the new LMR, not the freed one.
    let mut h2 = cluster.attach(2).unwrap();
    let mut ctx2 = Ctx::new();
    let lh2 = h2
        .lt_malloc(&mut ctx2, 2, 4096, "phoenix", Perm::RW)
        .unwrap();
    h2.lt_write(&mut ctx2, lh2, 0, b"new").unwrap();
    let lh3 = h.lt_map(&mut ctx, "phoenix").unwrap();
    let mut buf = [0u8; 3];
    h.lt_read(&mut ctx, lh3, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"new");
}

#[test]
fn sharded_tables_survive_multi_context_hammering() {
    // Many contexts on many nodes hammering the sharded tables at once:
    // names (malloc/free), lhs (map/unmap), locks, and the master table.
    let cluster = LiteCluster::start_with(
        rnic::IbConfig::with_nodes(4),
        lite::LiteConfig {
            kernel_shards: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let (lock, shared) = {
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        h.lt_malloc(&mut ctx, 2, 4096, "ctr", Perm::RW).unwrap();
        (h.lt_create_lock(&mut ctx).unwrap(), "ctr")
    };
    let threads = 8;
    let iters = 12;
    let mut joins = Vec::new();
    for t in 0..threads {
        let cluster = Arc::clone(&cluster);
        joins.push(std::thread::spawn(move || {
            let mut h = cluster.attach(t % 4).unwrap();
            let mut ctx = Ctx::new();
            let ctr = h.lt_map(&mut ctx, shared).unwrap();
            for i in 0..iters {
                // Name + master-record churn, spread across targets.
                let name = format!("t{t}i{i}");
                let lh = h
                    .lt_malloc(&mut ctx, (t + i) % 4, 2048, &name, Perm::RW)
                    .unwrap();
                h.lt_write(&mut ctx, lh, 0, &[t as u8, i as u8]).unwrap();
                if i % 2 == 0 {
                    h.lt_free(&mut ctx, lh).unwrap();
                }
                // Locked increment of the shared cell (locks + lhs).
                h.lt_lock(&mut ctx, lock).unwrap();
                h.lt_fetch_add(&mut ctx, ctr, 0, 1).unwrap();
                h.lt_unlock(&mut ctx, lock).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let mut h = cluster.attach(3).unwrap();
    let mut ctx = Ctx::new();
    let ctr = h.lt_map(&mut ctx, shared).unwrap();
    assert_eq!(
        h.lt_fetch_add(&mut ctx, ctr, 0, 0).unwrap(),
        (threads * iters) as u64
    );
    // Every surviving name still resolves, every freed one is gone.
    for t in 0..threads {
        for i in 0..iters {
            let name = format!("t{t}i{i}");
            let mapped = h.lt_map(&mut ctx, &name);
            if i % 2 == 0 {
                assert!(matches!(mapped, Err(LiteError::NameNotFound { .. })));
            } else {
                let lh = mapped.unwrap();
                let mut buf = [0u8; 2];
                h.lt_read(&mut ctx, lh, 0, &mut buf).unwrap();
                assert_eq!(buf, [t as u8, i as u8]);
            }
        }
    }
}

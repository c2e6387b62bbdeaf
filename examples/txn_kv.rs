//! Bank transfers on lite-txn: two nodes race OCC transactions over
//! two accounts in an LMR on a third, built purely on the one-sided
//! `lt_*` API (the home node runs no transaction code), and an audit
//! checks that the total is conserved.
//!
//! ```text
//! cargo run --example txn_kv
//! ```

use std::sync::Arc;

use lite::LiteCluster;
use lite_txn::{with_txn_retry, TableSpec, TxnTable};
use simnet::Ctx;

fn u64s(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

fn main() {
    let cluster = LiteCluster::start(3).expect("cluster");

    // A bank on node 2's memory.
    {
        let mut h = cluster.attach(0).expect("attach");
        let mut ctx = Ctx::new();
        let table =
            TxnTable::create(&mut h, &mut ctx, 2, "bank", TableSpec::new(4, 8)).expect("create");
        let mut init = table.begin();
        init.write(0, &100u64.to_le_bytes()).expect("write");
        init.write(1, &100u64.to_le_bytes()).expect("write");
        init.commit(&mut h, &mut ctx).expect("commit");
    }
    println!("bank table created on node 2 (which runs no txn code at all)");

    // Two nodes race transfers between the same two accounts; OCC
    // serializes them — conflicts retry, the invariant holds.
    let mut movers = Vec::new();
    for node in 0..2 {
        let cluster = Arc::clone(&cluster);
        movers.push(std::thread::spawn(move || {
            let mut h = cluster.attach(node).expect("attach");
            let mut ctx = Ctx::new();
            let table = TxnTable::open(&mut h, &mut ctx, "bank").expect("open");
            for i in 0..50u64 {
                with_txn_retry(&mut h, &mut ctx, 64, |h, ctx| {
                    let mut txn = table.begin();
                    let a = u64s(&txn.read(h, ctx, 0)?);
                    let b = u64s(&txn.read(h, ctx, 1)?);
                    let amt = 1 + i % 3;
                    let (a, b) = if node == 0 && a >= amt {
                        (a - amt, b + amt)
                    } else if node == 1 && b >= amt {
                        (a + amt, b - amt)
                    } else {
                        (a, b)
                    };
                    txn.write(0, &a.to_le_bytes())?;
                    txn.write(1, &b.to_le_bytes())?;
                    txn.commit(h, ctx)
                })
                .expect("transfer");
            }
        }));
    }
    for m in movers {
        m.join().unwrap();
    }
    let mut h = cluster.attach(1).expect("attach");
    let mut ctx = Ctx::new();
    let table = TxnTable::open(&mut h, &mut ctx, "bank").expect("open");
    let mut audit = table.begin();
    let a = u64s(&audit.read(&mut h, &mut ctx, 0).expect("read"));
    let b = u64s(&audit.read(&mut h, &mut ctx, 1).expect("read"));
    audit.commit(&mut h, &mut ctx).expect("commit");
    println!("after 100 racing transfers: a={a} b={b} (total {})", a + b);
    assert_eq!(a + b, 200, "transfers conserve the total");

    println!("txn_kv: all invariants held");
}

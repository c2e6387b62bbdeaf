//! A shared counter and a shared message board on LITE-DSM: sequentially
//! consistent updates under per-page write tokens, one-sided cached reads.
//!
//! ```text
//! cargo run --example dsm_counter
//! ```

use std::sync::Arc;

use lite::LiteCluster;
use lite_dsm::DsmCluster;
use simnet::Ctx;

fn main() {
    let cluster = LiteCluster::start(3).expect("cluster");
    let dsm = DsmCluster::create(&cluster, 1 << 20).expect("dsm");

    // Three nodes increment a shared counter 100 times each.
    let mut joins = Vec::new();
    for node in 0..3 {
        let dsm = Arc::clone(&dsm);
        joins.push(std::thread::spawn(move || {
            let mut h = dsm.handle(node).expect("handle");
            let mut ctx = Ctx::new();
            for _ in 0..100 {
                h.acquire(&mut ctx, 0, 8).expect("acquire");
                let mut buf = [0u8; 8];
                h.read(&mut ctx, 0, &mut buf).expect("read");
                let v = u64::from_le_bytes(buf);
                h.write(&mut ctx, 0, &(v + 1).to_le_bytes()).expect("write");
                h.release(&mut ctx).expect("release");
            }
            ctx.now()
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    let mut h = dsm.handle(1).expect("handle");
    let mut ctx = Ctx::new();
    let mut buf = [0u8; 8];
    h.read(&mut ctx, 0, &mut buf).expect("read");
    println!(
        "counter = {} (expected 300; no increment lost)",
        u64::from_le_bytes(buf)
    );
    assert_eq!(u64::from_le_bytes(buf), 300);

    // A message board: node 0 posts, everyone reads from cache after one
    // fault.
    let mut h0 = dsm.handle(0).expect("handle");
    let mut c0 = Ctx::new();
    h0.acquire(&mut c0, 4096, 64).expect("acquire");
    h0.write(&mut c0, 4096, b"DSM: plain loads and stores, distributed")
        .expect("write");
    h0.release(&mut c0).expect("release");
    let mut msg = vec![0u8; 40];
    h.read(&mut ctx, 4096, &mut msg).expect("read");
    let t0 = ctx.now();
    h.read(&mut ctx, 4096, &mut msg).expect("cached read");
    println!(
        "board: {:?} (cached re-read cost {} ns)",
        std::str::from_utf8(&msg).unwrap(),
        ctx.now() - t0
    );
}

//! `Nic::stats` against posts and registration churn. A post locks the
//! state of both its NICs (SRAM, engine, links, MR table) in node order;
//! registration and deregistration lock one NIC's state to change its MR
//! table; `stats` reads it. Whatever the interleaving, every one of them
//! must keep making progress — a lock-order cycle shows up here as a
//! stuck thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rnic::{Access, IbConfig, IbFabric, RemoteAddr, Sge};
use simnet::Ctx;
use smem::Chunk;

/// How long the threads race.
const RUN: Duration = Duration::from_secs(2);
/// How long they get to notice the stop flag before the test calls it a
/// deadlock.
const WATCHDOG: Duration = Duration::from_secs(30);

#[test]
fn stats_races_posts_and_registration() {
    let fabric = IbFabric::new(IbConfig::with_nodes(2));
    let mut ctx = Ctx::new();
    let global: Vec<_> = (0..2)
        .map(|n| {
            let nic = fabric.nic(n);
            nic.register_phys_mr(&mut ctx, 0, 1 << 20, Access::RW)
                .unwrap()
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let (done, finished) = mpsc::channel::<(&str, u64)>();
    let mut threads = Vec::new();

    // Four posters, two in each direction, so both lock orders of a
    // NIC pair are exercised.
    for t in 0..4u64 {
        let (src, dst) = ((t % 2) as usize, (1 - t % 2) as usize);
        let (qp, _) = fabric.rc_pair(src, dst);
        let (lkey, rkey) = (global[src].lkey(), global[dst].rkey());
        let (fabric, stop, done) = (Arc::clone(&fabric), Arc::clone(&stop), done.clone());
        threads.push(std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            let chunks = vec![Chunk {
                addr: t * 4096,
                len: 64,
            }];
            let sge = Sge::Phys { lkey, chunks };
            let remote = RemoteAddr {
                rkey,
                addr: (t + 4) * 4096,
            };
            let mut posts = 0;
            while !stop.load(Ordering::Relaxed) {
                let nic = fabric.nic(src);
                nic.post_write(&mut ctx, &qp, posts, &sge, remote, None, false)
                    .unwrap();
                posts += 1;
            }
            done.send(("poster", posts)).unwrap();
        }));
    }

    // One thread registers and deregisters physical MRs on both nodes:
    // every round queues a registry writer behind the posters' readers.
    {
        let (fabric, stop, done) = (Arc::clone(&fabric), Arc::clone(&stop), done.clone());
        threads.push(std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            let mut rounds = 0;
            while !stop.load(Ordering::Relaxed) {
                for n in 0..2 {
                    let nic = fabric.nic(n);
                    let mr = nic
                        .register_phys_mr(&mut ctx, 1 << 20, 4096, Access::RW)
                        .unwrap();
                    nic.deregister_mr(&mut ctx, &mr).unwrap();
                }
                rounds += 1;
            }
            done.send(("registrar", rounds)).unwrap();
        }));
    }

    // One thread reads both NICs' stats.
    {
        let (fabric, stop, done) = (Arc::clone(&fabric), Arc::clone(&stop), done.clone());
        threads.push(std::thread::spawn(move || {
            let mut reads = 0;
            while !stop.load(Ordering::Relaxed) {
                for n in 0..2 {
                    let stats = fabric.nic(n).stats();
                    assert!(stats.live_mrs >= 1, "the global MR is live");
                }
                reads += 1;
            }
            done.send(("stats reader", reads)).unwrap();
        }));
    }
    drop(done);

    std::thread::sleep(RUN);
    stop.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + WATCHDOG;
    for _ in 0..threads.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        let (who, progress) = finished
            .recv_timeout(left)
            .expect("a thread is stuck: posts, registration and stats deadlocked");
        assert!(progress > 0, "the {who} made no progress in {RUN:?}");
    }
    for t in threads {
        t.join().unwrap();
    }
}

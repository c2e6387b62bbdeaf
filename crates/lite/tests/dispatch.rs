//! The poller is a role, not a thread: the thread that delivers a
//! write-imm dispatches it on the destination's one poller clock, and
//! serves the kernel calls among them itself. A cluster runs no thread.
//!
//! (a) dispatch charges the poller exactly what a poll of the shared CQ
//! costs; (b) booting a cluster and using its kernel services starts no
//! thread; (c) user RPCs, allocation, locks and loop-back kernel calls
//! mixed across three nodes lose nothing and leak nothing; (d) a cluster
//! dropped with kernel calls in flight shuts down at once.
//!
//! The tests take one lock so that a single cluster exists at a time: (b)
//! counts the process's threads.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use lite::kernel::IMM_DISPATCH_NS;
use lite::{LiteCluster, LiteConfig, LiteError, LiteHandle, LockId, Perm, USER_FUNC_MIN};
use rnic::{IbConfig, COST};
use simnet::Ctx;

const ECHO: u8 = USER_FUNC_MIN + 30;

static ONE_CLUSTER: Mutex<()> = Mutex::new(());

fn one_cluster() -> MutexGuard<'static, ()> {
    ONE_CLUSTER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Echoes every call to `ECHO` on `node` until an empty one arrives.
fn echo_server(cluster: &LiteCluster, node: usize) -> JoinHandle<()> {
    let mut h = cluster.attach(node).unwrap();
    h.register_rpc(ECHO).unwrap();
    std::thread::spawn(move || {
        let mut ctx = Ctx::new();
        loop {
            let call = h.lt_recv_rpc(&mut ctx, ECHO).unwrap();
            h.lt_reply_rpc(&mut ctx, &call, &call.input).unwrap();
            if call.input.is_empty() {
                return;
            }
        }
    })
}

fn echo(h: &mut LiteHandle, ctx: &mut Ctx, server: usize, i: u32) {
    let input = i.to_le_bytes();
    assert_eq!(h.lt_rpc(ctx, server, ECHO, &input, 8).unwrap(), input);
}

fn stop(h: &mut LiteHandle, ctx: &mut Ctx, server: usize, thread: JoinHandle<()>) {
    assert!(h.lt_rpc(ctx, server, ECHO, &[], 8).unwrap().is_empty());
    thread.join().unwrap();
}

/// (a) After N echo calls from node 0 to a server thread on node 1, each
/// node's poller was charged exactly N polls, credit reposts and IMM
/// dispatches: N requests arrived at node 1, N replies at node 0.
#[test]
fn a_dispatch_charges_the_poller_exactly_a_poll() {
    const N: u64 = 500;
    let _one = one_cluster();
    let cluster = LiteCluster::start(2).unwrap();
    let server = echo_server(&cluster, 1);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    echo(&mut h, &mut ctx, 1, 0);
    let cpu = |n: usize| cluster.kernel(n).poller_cpu.total();
    let before = [cpu(0), cpu(1)];
    for i in 0..N {
        echo(&mut h, &mut ctx, 1, i as u32);
    }
    let per_arrival = COST.cq_poll_ns + COST.post_wr_ns + IMM_DISPATCH_NS;
    assert_eq!(per_arrival, 150 + 100 + 300);
    assert_eq!(
        [cpu(0) - before[0], cpu(1) - before[1]],
        [N * per_arrival; 2]
    );
    stop(&mut h, &mut ctx, 1, server);
}

/// The other tests of this file, whose threads the harness may start
/// while (b) runs. It names each after its test, and Linux keeps 15 bytes
/// of the name; until a thread has named itself, it bears the name of the
/// thread that started it, and the harness's are started by the main one.
const OTHERS: [&str; 3] = [
    "a_dispatch_charges_the_poller_exactly_a_poll",
    "c_mixed_hammer_loses_nothing",
    "d_drop_with_kernel_calls_in_flight_is_prompt",
];

/// This process's threads: id and name. A thread that exits during the
/// read may hide another from it.
fn threads() -> Vec<(String, String)> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    let named = |task: std::fs::DirEntry| {
        let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
        Some((
            task.file_name().into_string().ok()?,
            comm.trim_end().to_string(),
        ))
    };
    tasks.flatten().filter_map(named).collect()
}

/// (b) No thread: a 4-node cluster boots, then serves one round of
/// `lt_malloc`, `lt_map`, `lt_lock` / `lt_unlock` and `lt_barrier` (kernel
/// calls to a remote node, to the manager, and node 0's loop-back ones),
/// and the process has no thread it did not have before, bar the
/// harness's.
#[cfg(target_os = "linux")]
#[test]
fn b_a_cluster_starts_no_thread() {
    let _one = one_cluster();
    let before = threads();
    let cluster = LiteCluster::start(4).unwrap();
    let mut ctx = Ctx::new();
    let mut h1 = cluster.attach(1).unwrap();
    let mut h3 = cluster.attach(3).unwrap();
    let lh = h1
        .lt_malloc(&mut ctx, 2, 4096, "b.round", Perm::RW)
        .unwrap();
    let mapped = h3.lt_map(&mut ctx, "b.round").unwrap();
    let lock = cluster.attach(2).unwrap().lt_create_lock(&mut ctx).unwrap();
    h3.lt_lock(&mut ctx, lock).unwrap();
    h3.lt_unlock(&mut ctx, lock).unwrap();
    h1.lt_barrier(&mut ctx, 7, 1).unwrap();
    let mut h0 = cluster.attach(0).unwrap();
    let own = h0.lt_malloc(&mut ctx, 0, 4096, "b.loop", Perm::RW).unwrap();
    let me = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    let main = std::fs::read_to_string("/proc/self/comm").expect("/proc/self/comm");
    let harness = |comm: &str| {
        let other = |t: &&str| t.as_bytes().starts_with(comm.as_bytes());
        comm == main.trim_end() || OTHERS.iter().any(other)
    };
    let started: Vec<_> = threads()
        .into_iter()
        .filter(|t| !before.contains(t) && !me.ends_with(&t.0) && !harness(&t.1))
        .collect();
    assert!(started.is_empty(), "the cluster started {started:?}");
    h3.lt_unmap(&mut ctx, mapped).unwrap();
    h1.lt_free(&mut ctx, lh).unwrap();
    h0.lt_free(&mut ctx, own).unwrap();
}

/// (c) Three nodes × four threads, 20 000 operations in all: user RPCs to
/// every node, `lt_malloc` + `lt_free` at every node, `lt_lock` +
/// `lt_unlock` of a lock homed at every node, and loop-back kernel calls
/// on node 0 (allocation at node 0 from a node-0 handle, whose manager
/// is node 0 too), in rounds of four that all workers start together.
/// Every call succeeds — none times out — every critical section is
/// exclusive, and every node's scratch allocator ends where the warmed-up
/// cluster started.
#[test]
fn c_mixed_hammer_loses_nothing() {
    const NODES: usize = 3;
    const THREADS: usize = 4;
    const OPS: usize = 20_000 / (NODES * THREADS);
    const CYCLE: usize = 4 * NODES;
    let _one = one_cluster();
    let cluster = LiteCluster::start(NODES).unwrap();
    let servers: Vec<_> = (0..NODES).map(|n| echo_server(&cluster, n)).collect();
    let locks: Arc<Vec<(LockId, AtomicBool)>> = Arc::new(
        (0..NODES)
            .map(|n| {
                let mut h = cluster.attach(n).unwrap();
                let lock = h.lt_create_lock(&mut Ctx::new()).unwrap();
                (lock, AtomicBool::new(false))
            })
            .collect(),
    );
    // Op `i` of a worker: its kind is `i % 4`, its target node `i / 4`
    // (mod 3) — one pass over `CYCLE` touches every pair it ever will.
    // Ranges start at multiples of 4, so every worker waits at the same
    // rounds. After the first failure the workers only keep the rounds,
    // so none is left waiting at the barrier.
    let failure = Arc::new(Mutex::new(None::<String>));
    let run = |ops: std::ops::Range<usize>, tag: &'static str| {
        let round = Arc::new(Barrier::new(NODES * THREADS));
        let workers: Vec<_> = (0..NODES * THREADS)
            .map(|w| {
                let mut h = cluster.attach(w % NODES).unwrap();
                let mut h0 = cluster.attach(0).unwrap();
                let (locks, round, failure) =
                    (Arc::clone(&locks), Arc::clone(&round), Arc::clone(&failure));
                let ops = ops.clone();
                std::thread::spawn(move || {
                    let mut ctx = Ctx::new();
                    for i in ops {
                        if i % 4 == 0 {
                            // Every worker sends at once, then all go
                            // quiet: an arrival left undispatched has no
                            // later one to carry it, and times out.
                            round.wait();
                        }
                        if failure.lock().unwrap().is_some() {
                            continue;
                        }
                        let target = (i / 4) % NODES;
                        let name = format!("{tag}.{w}.{i}");
                        let handles = (&mut h, &mut h0);
                        let lock = &locks[target];
                        if let Err(e) = mixed_op(handles, &mut ctx, lock, i, target, &name) {
                            let mut first = failure.lock().unwrap();
                            first.get_or_insert(format!("worker {w}, op {i}: {e}"));
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(*failure.lock().unwrap(), None);
    };
    run(0..CYCLE, "warm");
    let free = |n: usize| cluster.kernel(n).scratch_free_bytes();
    let before: Vec<u64> = (0..NODES).map(free).collect();
    run(CYCLE..CYCLE + OPS, "hammer");
    assert_eq!((0..NODES).map(free).collect::<Vec<_>>(), before);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    for (n, server) in servers.into_iter().enumerate() {
        stop(&mut h, &mut ctx, n, server);
    }
}

/// Op `i` of the mixed hammer towards `target`; what it found wrong.
fn mixed_op(
    (h, h0): (&mut LiteHandle, &mut LiteHandle),
    ctx: &mut Ctx,
    (lock, held): &(LockId, AtomicBool),
    i: usize,
    target: usize,
    name: &str,
) -> Result<(), String> {
    let wrong = |e: LiteError| format!("{e:?}");
    match i % 4 {
        0 => {
            let input = (i as u32).to_le_bytes();
            let got = h.lt_rpc(ctx, target, ECHO, &input, 8).map_err(wrong)?;
            if got != input {
                return Err(format!("echo of {input:?} came back {got:?}"));
            }
        }
        1 => {
            let lh = h.lt_malloc(ctx, target, 4096, name, Perm::RW);
            h.lt_free(ctx, lh.map_err(wrong)?).map_err(wrong)?;
        }
        2 => {
            h.lt_lock(ctx, *lock).map_err(wrong)?;
            let alone = !held.swap(true, Ordering::SeqCst);
            held.store(false, Ordering::SeqCst);
            h.lt_unlock(ctx, *lock).map_err(wrong)?;
            if !alone {
                return Err("two holders of one lock".into());
            }
        }
        _ => {
            let lh = h0.lt_malloc(ctx, 0, 4096, name, Perm::RW);
            h0.lt_free(ctx, lh.map_err(wrong)?).map_err(wrong)?;
        }
    }
    Ok(())
}

/// (d) Shutdown: dropping a cluster while threads keep kernel calls in
/// flight to node 0 — from node 0 itself and from node 1 — takes well
/// under a second. The callers then fail (no kernel call is served once
/// the fabric is shut down) and stop.
#[test]
fn d_drop_with_kernel_calls_in_flight_is_prompt() {
    let _one = one_cluster();
    let config = LiteConfig {
        op_timeout: Duration::from_millis(200),
        ..Default::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(2), config).unwrap();
    let done = Arc::new(AtomicUsize::new(0));
    let callers: Vec<_> = (0..4)
        .map(|w| {
            let mut h = cluster.attach(w % 2).unwrap();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut ctx = Ctx::new();
                for i in 0.. {
                    let name = format!("d.{w}.{i}");
                    let Ok(lh) = h.lt_malloc(&mut ctx, 0, 4096, &name, Perm::RW) else {
                        return;
                    };
                    if h.lt_free(&mut ctx, lh).is_err() {
                        return;
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    while done.load(Ordering::SeqCst) < 200 {
        let stopped = callers.iter().all(JoinHandle::is_finished);
        assert!(!stopped, "callers failed after {done:?} rounds");
        std::thread::yield_now();
    }
    // Dropped on a thread of its own, so a drop that never returns fails
    // the test instead of hanging it.
    let (dropped, drop_done) = mpsc::channel();
    std::thread::spawn(move || {
        drop(cluster);
        let _ = dropped.send(());
    });
    let waited = drop_done.recv_timeout(Duration::from_secs(1));
    assert!(waited.is_ok(), "the cluster took over 1 s to drop");
    for c in callers {
        c.join().unwrap();
    }
}

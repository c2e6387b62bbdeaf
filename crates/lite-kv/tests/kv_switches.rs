//! What a put costs in thread hand-offs. The leader and the followers are
//! served functions: the client thread that delivers a put runs the
//! leader's handler itself, at its own reply wait, so a put parks no
//! thread and wakes none. Only the replicator, once a batch of 32 waits,
//! switches.
//!
//! Its own file, so that no other test's threads share the process: the
//! count is summed over every thread in it.

use lite::LiteCluster;
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use simnet::Ctx;

/// Voluntary context switches of every thread of this process so far.
fn voluntary_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

/// 2 000 puts from one client switch fewer than 0.5 times a put in all.
/// With a leader thread that slept until a call arrived it was about 2.1:
/// the client parked for every reply and the leader for every call.
#[test]
fn a_put_hands_off_to_no_thread() {
    const PUTS: u64 = 2_000;
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv.switches", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    let mut ctx = Ctx::new();
    let value = [7u8; 64];
    // Warm: rings wired, arenas mapped, every slot allocated.
    for i in 0..256u64 {
        c.put(&mut ctx, &(i % 128).to_le_bytes(), &value).unwrap();
    }
    let before = voluntary_switches();
    for i in 0..PUTS {
        c.put(&mut ctx, &(i % 128).to_le_bytes(), &value).unwrap();
    }
    let per_put = (voluntary_switches() - before) as f64 / PUTS as f64;
    eprintln!("{per_put:.3} voluntary context switches a put");
    svc.stop();
    assert!(
        per_put < 0.5,
        "{per_put:.2} voluntary context switches a put"
    );
}

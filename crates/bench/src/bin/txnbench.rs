//! Transaction benchmark: OCC (`lite-txn`) vs lock+RPC over the same
//! records, under a TATP-style read-heavy mix and a YCSB-A-style
//! write-heavy mix, with zipfian key popularity, across QoS modes.
//!
//! The lock+RPC baseline is the classic LITE design (§7.2): clients
//! take per-record `LT_lock`s (each acquire is at least a kernel atomic
//! on the lock's owner; contended acquires queue at the owner via RPC)
//! and then read/write the records with one-sided verbs. OCC never
//! takes a lock on the read path, so the read-heavy mix — where the
//! lock design serializes readers of hot zipfian records — is where it
//! should win; the write-heavy mix pays for
//! optimism with validation aborts (counted from the `lt_stats` txn
//! gauges) and is reported honestly.
//!
//! Usage: `txnbench [--full] [--json]` — `--json` prints one JSON
//! document (the CI artifact), otherwise aligned tables.

use std::sync::Arc;

use bench::{print_table, Row};
use lite::{LiteCluster, LiteHandle, LockId, Perm, QosMode};
use lite_txn::{TableSpec, TxnError, TxnTable};
use rnic::COST;
use simnet::Ctx;

const RECORDS: u64 = 64;
const NODES: usize = 3;
const THREADS: usize = 6; // two clients per node
const ZIPF_THETA: f64 = 0.99;

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn u64s(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

/// Zipfian CDF over `RECORDS` keys (YCSB's default theta).
fn zipf_cdf() -> Vec<f64> {
    let mut w: Vec<f64> = (0..RECORDS)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_THETA))
        .collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    for v in &mut w {
        acc += *v / total;
        *v = acc;
    }
    w
}

fn zipf_pick(cdf: &[f64], r: u64) -> u64 {
    let u = (r >> 11) as f64 / (1u64 << 53) as f64;
    cdf.partition_point(|&c| c < u) as u64 % RECORDS
}

/// One generated transaction: two distinct zipfian records, and whether
/// this draw is read-only under `read_pct`.
fn gen_op(cdf: &[f64], seed: u64, read_pct: u64) -> (u64, u64, bool) {
    let r = mix64(seed);
    let a = zipf_pick(cdf, r);
    let mut b = zipf_pick(cdf, mix64(r));
    if b == a {
        b = (a + 1) % RECORDS;
    }
    (a, b, r % 100 < read_pct)
}

struct RunResult {
    txns: u64,
    elapsed_ns: u64,
    aborts: u64,
    /// From the home node's `lt_stats().nic` over the measured interval:
    /// the share of the run its NIC's request engine was busy, and the
    /// share of that busy time spent executing atomics (OCC runs only).
    home_engine_busy: f64,
    home_atomic_share: f64,
    /// Summed over the threads' `TxnTable::stats()`: read-write commits
    /// that started on a kept slot, and those that paid a claim CAS.
    claims_kept: u64,
    claims_cas: u64,
}

impl RunResult {
    fn tps(&self) -> f64 {
        self.txns as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }
}

/// OCC side: `lite-txn` transactions, retried on conflict. Abort counts
/// come from the kernel txn gauges.
fn run_occ(mode: QosMode, read_pct: u64, ops: usize) -> RunResult {
    let cluster = LiteCluster::start(NODES + 1).unwrap();
    cluster.set_qos_mode(mode);
    {
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let table = TxnTable::create(
            &mut h,
            &mut ctx,
            NODES,
            "txnbench.occ",
            TableSpec::new(RECORDS, 8),
        )
        .unwrap();
        for chunk in (0..RECORDS).collect::<Vec<_>>().chunks(16) {
            let mut init = table.begin();
            for &rec in chunk {
                init.write(rec, &100u64.to_le_bytes()).unwrap();
            }
            init.commit(&mut h, &mut ctx).unwrap();
        }
    }
    let home_nic = || cluster.kernel(NODES).lt_stats().nic;
    let nic_before = home_nic();
    let cdf = Arc::new(zipf_cdf());
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let cluster = Arc::clone(&cluster);
        let cdf = Arc::clone(&cdf);
        joins.push(std::thread::spawn(move || {
            let mut h = cluster.attach(t % NODES).unwrap();
            let mut ctx = Ctx::new();
            let table = TxnTable::open(&mut h, &mut ctx, "txnbench.occ").unwrap();
            let start = ctx.now();
            for op in 0..ops {
                let (a, b, ro) = gen_op(&cdf, (t as u64) << 32 | op as u64, read_pct);
                // Bounded OCC retry loop (the standard client shape).
                for attempt in 0..256u32 {
                    let mut txn = table.begin();
                    let va = u64s(&txn.read(&mut h, &mut ctx, a).unwrap());
                    let vb = u64s(&txn.read(&mut h, &mut ctx, b).unwrap());
                    if !ro {
                        txn.write(a, &(va + 1).to_le_bytes()).unwrap();
                        txn.write(b, &vb.saturating_sub(1).to_le_bytes()).unwrap();
                    }
                    match txn.commit(&mut h, &mut ctx) {
                        Ok(()) => break,
                        Err(TxnError::Conflict { .. }) => {
                            ctx.work(200 << attempt.min(4));
                        }
                        Err(e) => panic!("occ: {e}"),
                    }
                }
            }
            let elapsed = ctx.now() - start;
            let ks = h.lt_stats().kernel;
            (elapsed, ks.txn_aborts, table.stats())
        }));
    }
    let mut elapsed_ns = 0u64;
    let mut aborts = 0u64;
    let (mut claims_kept, mut claims_cas) = (0u64, 0u64);
    for j in joins {
        let (e, a, stats) = j.join().unwrap();
        elapsed_ns = elapsed_ns.max(e);
        aborts += a;
        claims_kept += stats.claims_kept;
        claims_cas += stats.claims_cas;
    }
    let nic = home_nic();
    let busy_ns = (nic.engine_busy_ns - nic_before.engine_busy_ns).max(1);
    let atomic_ns =
        (nic.atomic_ops - nic_before.atomic_ops) * (COST.nic_engine_ns + COST.atomic_extra_ns);
    RunResult {
        txns: (THREADS * ops) as u64,
        elapsed_ns,
        aborts,
        home_engine_busy: busy_ns as f64 / elapsed_ns.max(1) as f64,
        home_atomic_share: atomic_ns as f64 / busy_ns as f64,
        claims_kept,
        claims_cas,
    }
}

/// Lock+RPC side: per-record kernel locks around one-sided reads and
/// writes (per-record, not striped, so the baseline never pays for a
/// false conflict — all its queuing is real).
fn run_lock_rpc(mode: QosMode, read_pct: u64, ops: usize) -> RunResult {
    let cluster = LiteCluster::start(NODES + 1).unwrap();
    cluster.set_qos_mode(mode);
    let locks: Arc<Vec<LockId>> = {
        // Locks live on the home node, like the records they guard.
        let mut h = cluster.attach(NODES).unwrap();
        let mut ctx = Ctx::new();
        h.lt_malloc(&mut ctx, NODES, RECORDS * 8, "txnbench.lock.data", Perm::RW)
            .unwrap();
        Arc::new(
            (0..RECORDS)
                .map(|_| h.lt_create_lock(&mut ctx).unwrap())
                .collect(),
        )
    };
    {
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h.lt_map(&mut ctx, "txnbench.lock.data").unwrap();
        for rec in 0..RECORDS {
            h.lt_write(&mut ctx, lh, rec * 8, &100u64.to_le_bytes())
                .unwrap();
        }
    }
    let cdf = Arc::new(zipf_cdf());
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let cluster = Arc::clone(&cluster);
        let cdf = Arc::clone(&cdf);
        let locks = Arc::clone(&locks);
        joins.push(std::thread::spawn(move || {
            let mut h = cluster.attach(t % NODES).unwrap();
            let mut ctx = Ctx::new();
            let lh = h.lt_map(&mut ctx, "txnbench.lock.data").unwrap();
            let read = |h: &mut LiteHandle, ctx: &mut Ctx, rec: u64| {
                let mut buf = [0u8; 8];
                h.lt_read(ctx, lh, rec * 8, &mut buf).unwrap();
                u64::from_le_bytes(buf)
            };
            let start = ctx.now();
            for op in 0..ops {
                let (a, b, ro) = gen_op(&cdf, (t as u64) << 32 | op as u64, read_pct);
                // Deadlock-free: locks taken in ascending record order.
                let mut held = [a as usize, b as usize];
                held.sort_unstable();
                for &s in &held {
                    h.lt_lock(&mut ctx, locks[s]).unwrap();
                }
                let va = read(&mut h, &mut ctx, a);
                let vb = read(&mut h, &mut ctx, b);
                if !ro {
                    h.lt_write(&mut ctx, lh, a * 8, &(va + 1).to_le_bytes())
                        .unwrap();
                    h.lt_write(&mut ctx, lh, b * 8, &vb.saturating_sub(1).to_le_bytes())
                        .unwrap();
                }
                for &s in held.iter().rev() {
                    h.lt_unlock(&mut ctx, locks[s]).unwrap();
                }
            }
            ctx.now() - start
        }));
    }
    let mut elapsed_ns = 0u64;
    for j in joins {
        elapsed_ns = elapsed_ns.max(j.join().unwrap());
    }
    RunResult {
        txns: (THREADS * ops) as u64,
        elapsed_ns,
        aborts: 0,
        home_engine_busy: 0.0,
        home_atomic_share: 0.0,
        claims_kept: 0,
        claims_cas: 0,
    }
}

fn main() {
    let full = bench::full_mode();
    let json = std::env::args().any(|a| a == "--json");
    let ops = if full { 4_000 } else { 800 };

    let mixes: &[(&str, u64)] = &[("read_heavy", 80), ("write_heavy", 50)];
    let modes: &[(&str, QosMode)] = &[
        ("no_qos", QosMode::None),
        ("hw_sep", QosMode::HwSep),
        ("sw_pri", QosMode::SwPri),
    ];

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for &(mix_name, read_pct) in mixes {
        for &(mode_name, mode) in modes {
            let occ = run_occ(mode, read_pct, ops);
            let lock = run_lock_rpc(mode, read_pct, ops);
            let speedup = occ.tps() / lock.tps();
            rows.push(
                Row::new(format!("{mix_name}/{mode_name}"))
                    .cell("occ_ktps", occ.tps() / 1e3)
                    .cell("lock_ktps", lock.tps() / 1e3)
                    .cell("occ_speedup", speedup)
                    .cell("occ_aborts", occ.aborts as f64)
                    .cell("home_engine_busy", occ.home_engine_busy)
                    .cell("of_it_atomics", occ.home_atomic_share)
                    .cell("claims_kept", occ.claims_kept as f64)
                    .cell("claims_cas", occ.claims_cas as f64),
            );
            entries.push(format!(
                "{{\"mix\":\"{mix_name}\",\"qos\":\"{mode_name}\",\
                 \"occ_tps\":{:.0},\"lock_rpc_tps\":{:.0},\"occ_speedup\":{:.3},\
                 \"occ_txns\":{},\"occ_aborts\":{},\"lock_txns\":{},\
                 \"occ_home_engine_busy\":{:.3},\"occ_home_atomic_share\":{:.3},\
                 \"occ_claims_kept\":{},\"occ_claims_cas\":{}}}",
                occ.tps(),
                lock.tps(),
                speedup,
                occ.txns,
                occ.aborts,
                lock.txns,
                occ.home_engine_busy,
                occ.home_atomic_share,
                occ.claims_kept,
                occ.claims_cas,
            ));
        }
    }

    // The headline claim: OCC wins the read-heavy mix (geomean over
    // QoS modes).
    let read_heavy_speedup: f64 = rows
        .iter()
        .filter(|r| r.label.starts_with("read_heavy"))
        .map(|r| r.get("occ_speedup").unwrap().ln())
        .sum::<f64>()
        .exp()
        .powf(1.0 / modes.len() as f64);

    if json {
        println!(
            "{{\"bench\":\"txnbench\",\"ops_per_thread\":{ops},\"threads\":{THREADS},\
             \"records\":{RECORDS},\"zipf_theta\":{ZIPF_THETA},\
             \"read_heavy_occ_speedup\":{read_heavy_speedup:.3},\"runs\":[{}]}}",
            entries.join(",")
        );
    } else {
        print_table("txnbench: OCC vs lock+RPC", "mix/qos", &rows);
        println!("\nread-heavy OCC speedup (geomean): {read_heavy_speedup:.2}x");
    }

    if read_heavy_speedup <= 1.0 {
        eprintln!("txnbench: OCC failed to beat lock+RPC on the read-heavy mix");
        std::process::exit(1);
    }
}

//! The distributed key-value store from `kv_store.rs`, run on a node
//! whose physical-memory budget is a quarter of its value arena — the
//! paper's §4 indirection claim made concrete: `lite::mm` evicts cold
//! arena chunks to swap nodes and chases them on access, and the
//! application does not change. The `server`, `put`, and `get` below
//! are byte-for-byte the plain example's; only `main` differs, by
//! constructing the cluster with `mem_budget_bytes` set and printing
//! the tiering gauges at the end.
//!
//! ```text
//! cargo run --example kv_store_tight
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use lite::{LiteCluster, LiteConfig, LiteHandle, Perm, USER_FUNC_MIN};
use rnic::IbConfig;
use simnet::Ctx;

const PUT: u8 = USER_FUNC_MIN;
const ARENA: u64 = 256 << 10;
const BUDGET: u64 = 64 << 10;

/// Runs the arena/directory server on `node` — identical to
/// `kv_store.rs` except the arena size constant.
fn server(cluster: Arc<LiteCluster>, node: usize, puts_expected: usize) {
    let mut h = cluster.attach(node).expect("attach");
    let mut ctx = Ctx::new();
    let arena = h
        .lt_malloc(&mut ctx, node, ARENA, &format!("kv.arena.{node}"), Perm::RO)
        .expect("arena");
    let mut next = 0u64;
    let mut directory: HashMap<Vec<u8>, (u64, u32)> = HashMap::new();
    let mut served = 0;
    while served < puts_expected * 2 + 1 {
        let call = h.lt_recv_rpc(&mut ctx, PUT).expect("recv");
        served += 1;
        match call.input[0] {
            0 => {
                let klen = u16::from_le_bytes([call.input[1], call.input[2]]) as usize;
                let key = call.input[3..3 + klen].to_vec();
                let value = &call.input[3 + klen..];
                h.lt_write(&mut ctx, arena, next, value).expect("install");
                directory.insert(key, (next, value.len() as u32));
                let mut out = next.to_le_bytes().to_vec();
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                next += value.len().max(64) as u64;
                h.lt_reply_rpc(&mut ctx, &call, &out).expect("reply");
            }
            _ => {
                let key = &call.input[1..];
                let (off, len) = directory.get(key).copied().unwrap_or((0, 0));
                let mut out = off.to_le_bytes().to_vec();
                out.extend_from_slice(&len.to_le_bytes());
                h.lt_reply_rpc(&mut ctx, &call, &out).expect("reply");
            }
        }
    }
}

fn put(h: &mut LiteHandle, ctx: &mut Ctx, node: usize, key: &[u8], value: &[u8]) {
    let mut msg = vec![0u8];
    msg.extend_from_slice(&(key.len() as u16).to_le_bytes());
    msg.extend_from_slice(key);
    msg.extend_from_slice(value);
    h.lt_rpc(ctx, node, PUT, &msg, 64).expect("put");
}

fn get(
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    node: usize,
    arena_lh: u64,
    key: &[u8],
) -> Option<Vec<u8>> {
    let mut msg = vec![1u8];
    msg.extend_from_slice(key);
    let loc = h.lt_rpc(ctx, node, PUT, &msg, 64).expect("lookup");
    let off = u64::from_le_bytes(loc[0..8].try_into().unwrap());
    let len = u32::from_le_bytes(loc[8..12].try_into().unwrap()) as usize;
    if len == 0 {
        return None;
    }
    let mut buf = vec![0u8; len];
    h.lt_read(ctx, arena_lh, off, &mut buf).expect("read");
    Some(buf)
}

fn main() {
    // The only change from kv_store.rs: the serving node gets a memory
    // budget of BUDGET bytes — a quarter of its arena.
    let config = LiteConfig {
        mem_budget_bytes: BUDGET,
        max_lmr_chunk: 16 << 10,
        ..LiteConfig::default()
    };
    let cluster = LiteCluster::start_with(IbConfig::with_nodes(3), config).expect("cluster");
    cluster.attach(1).unwrap().register_rpc(PUT).unwrap();
    let n_keys = 100usize;
    let srv = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || server(cluster, 1, n_keys))
    };

    let mut h = cluster.attach(0).expect("attach");
    let mut ctx = Ctx::new();
    // 2 KB values: the working set is ~200 KB against a 64 KB budget.
    for i in 0..n_keys {
        let key = format!("user:{i}");
        let mut value = format!("{{\"id\":{i},\"name\":\"user {i}\",\"bio\":\"").into_bytes();
        value.resize(2048 - 2, b'x');
        value.extend_from_slice(b"\"}");
        put(&mut h, &mut ctx, 1, key.as_bytes(), &value);
    }
    println!(
        "installed {n_keys} keys ({} KB of values) on node 1 under a {} KB budget",
        n_keys * 2,
        BUDGET >> 10
    );

    let arena_lh = h.lt_map(&mut ctx, "kv.arena.1").expect("map arena");
    let t0 = ctx.now();
    let mut hits = 0;
    for i in 0..n_keys {
        let key = format!("user:{i}");
        if let Some(v) = get(&mut h, &mut ctx, 1, arena_lh, key.as_bytes()) {
            assert!(std::str::from_utf8(&v)
                .unwrap()
                .contains(&format!("\"id\":{i}")));
            hits += 1;
        }
    }
    let per_get = (ctx.now() - t0) / n_keys as u64;
    println!(
        "{hits}/{n_keys} GETs, {:.2} us each — one-sided reads chasing evicted chunks",
        per_get as f64 / 1000.0
    );
    assert_eq!(hits, n_keys);
    assert!(get(&mut h, &mut ctx, 1, arena_lh, b"missing").is_none());
    srv.join().unwrap();

    let mm = cluster.kernel(1).mm_stats();
    println!(
        "node 1 tiering: {} resident KB, {} evicted KB on swap nodes, \
         {} evictions, {} fetch-backs, LRU hit rate {:.0}%",
        mm.resident_bytes >> 10,
        mm.evicted_bytes >> 10,
        mm.evictions,
        mm.fetch_backs,
        mm.hit_rate * 100.0
    );
    assert!(mm.evictions > 0, "budget never forced eviction");
    assert!(
        mm.resident_bytes <= BUDGET,
        "node 1 still over budget: {} bytes",
        mm.resident_bytes
    );
    println!("done — application code unchanged");
}

//! The RPC figures in quick mode. Every server runs on the loop that steps
//! its clients, so Figs 11 and 13 print the same rows on every run; Fig
//! 13's LITE column is the lowest at every amplification; and the served
//! echo those figures use charges its server the CPU a server thread that
//! calls `lt_recv_rpc` + `lt_reply_rpc` is charged.

use bench::figs::rpc::{fig11, fig13, serve_echo, ECHO};
use bench::Row;
use lite::{LiteCluster, LiteConfig};
use rnic::IbConfig;
use simnet::Ctx;

fn cells(rows: Vec<Row>) -> Vec<(String, Vec<(String, f64)>)> {
    rows.into_iter().map(|r| (r.label, r.cells)).collect()
}

#[test]
fn figs_11_and_13_are_exact_and_lite_spends_the_least_cpu() {
    assert_eq!(cells(fig11(false)), cells(fig11(false)));
    let rows = fig13(false);
    for r in &rows {
        let lite = r.get("lite_us").unwrap();
        for other in ["herd_us", "fasst_us"] {
            let o = r.get(other).unwrap();
            assert!(lite < o, "{}: lite_us {lite} >= {other} {o}", r.label);
        }
    }
    assert_eq!(cells(rows), cells(fig13(false)));
}

const CALLS: u64 = 300;

/// One client on node 0 calls `ECHO` on node 1 `CALLS` times, idle
/// 0–4.2 µs before each call, so the server's wait is sometimes within
/// and sometimes past the library's busy check.
fn client(cluster: &LiteCluster) {
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    for i in 0..CALLS {
        ctx.wait_until(ctx.now() + (i % 7) * 700);
        h.lt_rpc(&mut ctx, 1, ECHO, &[1u8; 8], 64).unwrap();
    }
}

#[test]
fn the_served_echo_charges_what_a_server_thread_is_charged() {
    let mut served_cpu = Vec::new();
    for adaptive_poll in [true, false] {
        let config = LiteConfig {
            adaptive_poll,
            ..Default::default()
        };
        let cluster = || LiteCluster::start_with(IbConfig::with_nodes(2), config.clone()).unwrap();
        let served = {
            let cluster = cluster();
            let (_echo, cpu) = serve_echo(&cluster, 1, 1, 64);
            client(&cluster);
            cpu.total()
        };
        let threaded = {
            let cluster = cluster();
            let mut h = cluster.attach(1).unwrap();
            h.register_rpc(ECHO).unwrap();
            let server = std::thread::spawn(move || {
                let mut ctx = Ctx::new();
                for _ in 0..CALLS {
                    let call = h.lt_recv_rpc(&mut ctx, ECHO).unwrap();
                    h.lt_reply_rpc(&mut ctx, &call, &[0xEE; 64]).unwrap();
                }
                ctx.cpu.total()
            });
            client(&cluster);
            server.join().unwrap()
        };
        assert_eq!(served, threaded, "adaptive_poll: {adaptive_poll}");
        served_cpu.push(served);
    }
    assert!(
        served_cpu[0] < served_cpu[1],
        "busy polling charged no more than adaptive polling: {served_cpu:?}"
    );
}

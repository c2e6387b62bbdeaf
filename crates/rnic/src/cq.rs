//! Completion queues.
//!
//! A [`Cq`] is a thread-safe FIFO of [`Wc`] entries. Completions are pushed
//! by whichever thread executed the work (for one-sided operations that is
//! the requester; for receives it is the sender acting as the remote NIC's
//! DMA engine). They are taken off either by a polling thread
//! ([`Cq::poll`], [`Cq::poll_blocking`]) or, uncharged, by [`Cq::pop`]:
//! LITE's shared receive CQ is emptied by the thread that delivered into
//! it, which charges the pops to the node's poller clock itself.
//!
//! Virtual-time semantics: each entry carries `ready_at`. A poller that
//! pops an entry *joins* its clock with that stamp. Polling cost is
//! charged per poll; busy-polling between entries can additionally charge
//! the idle gap as CPU time (`spin`), which is how we model HERD/FaSST's
//! busy pollers versus LITE's adaptive poller (Fig 13).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use simnet::wait::Event;
use simnet::{Ctx, Nanos};

use crate::cost::COST;
use crate::verbs::Wc;

/// Heap entry ordering completions by virtual readiness (the hardware
/// raises CQEs in completion-time order, which is stamp order here —
/// real-thread push order is an artifact of the simulation).
struct Entry(Reverse<(u64, u64)>, Wc);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

/// A completion queue.
#[derive(Default)]
pub struct Cq {
    q: Mutex<(BinaryHeap<Entry>, u64)>,
    /// Woken by `push` and `close`.
    ready: Event,
    closed: AtomicBool,
}

impl Cq {
    /// Creates an empty CQ.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hardware side: deposits a completion.
    pub fn push(&self, wc: Wc) {
        {
            let mut q = self.q.lock();
            let seq = q.1;
            q.1 += 1;
            q.0.push(Entry(Reverse((wc.ready_at, seq)), wc));
        }
        // Outside the lock: a poller's `ready` takes it.
        self.ready.wake();
    }

    /// Marks the CQ closed (fabric shutdown); wakes all pollers.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.ready.wake();
    }

    /// Whether no completion is queued.
    pub fn is_empty(&self) -> bool {
        self.q.lock().0.is_empty()
    }

    /// The earliest queued completion's `ready_at`, taking nothing.
    pub fn peek(&self) -> Option<Nanos> {
        self.q.lock().0.peek().map(|Entry(_, wc)| wc.ready_at)
    }

    /// Takes the completion with the earliest `ready_at`, charging nobody:
    /// the caller joins its own clock and pays for the poll.
    pub fn pop(&self) -> Option<Wc> {
        self.q.lock().0.pop().map(|Entry(_, wc)| wc)
    }

    /// Non-blocking poll of up to `max` completions. Charges one poll's
    /// CPU cost and joins the caller's clock with each entry's stamp.
    pub fn poll(&self, ctx: &mut Ctx, max: usize) -> Vec<Wc> {
        let mut q = self.q.lock();
        if q.0.is_empty() {
            drop(q);
            ctx.work(COST.cq_poll_empty_ns);
            return Vec::new();
        }
        let n = q.0.len().min(max);
        let mut out: Vec<Wc> = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(q.0.pop().expect("checked len").1);
        }
        drop(q);
        for wc in &out {
            ctx.wait_until(wc.ready_at);
        }
        ctx.work(COST.cq_poll_ns * out.len() as u64);
        out
    }

    /// Blocking poll of one completion.
    ///
    /// `spin` selects the CPU model: `true` charges the whole wait as busy
    /// CPU (a dedicated busy-polling thread); `false` charges only the
    /// final poll (an adaptive/sleeping poller).
    ///
    /// Returns `None` if the CQ is closed or `timeout` (host wall time,
    /// a liveness bound for failure tests) expires.
    pub fn poll_blocking(&self, ctx: &mut Ctx, spin: bool, timeout: Duration) -> Option<Wc> {
        // `Some(None)`: closed and drained.
        let closed = || self.closed.load(Ordering::SeqCst).then_some(None);
        let taken = || self.pop().map(Some).or_else(closed);
        let wc = self.ready.take_within(taken, timeout).flatten()?;
        if spin {
            ctx.spin_until(wc.ready_at);
        } else {
            ctx.wait_until(wc.ready_at);
        }
        ctx.work(COST.cq_poll_ns);
        Some(wc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::WcOpcode;
    use std::sync::Arc;

    fn wc(id: u64, at: u64) -> Wc {
        Wc::new(id, WcOpcode::RdmaWrite, 0, at)
    }

    #[test]
    fn poll_joins_clock() {
        let cq = Cq::new();
        let mut ctx = Ctx::new();
        cq.push(wc(1, 5_000));
        cq.push(wc(2, 6_000));
        let out = cq.poll(&mut ctx, 16);
        assert_eq!(out.len(), 2);
        assert!(ctx.now() >= 6_000);
        // Empty poll charges the empty cost only.
        let before = ctx.now();
        assert!(cq.poll(&mut ctx, 16).is_empty());
        assert_eq!(ctx.now(), before + COST.cq_poll_empty_ns);
    }

    #[test]
    fn pop_takes_the_earliest_and_charges_nobody() {
        let cq = Cq::new();
        assert!(cq.is_empty() && cq.pop().is_none() && cq.peek().is_none());
        cq.push(wc(1, 6_000));
        cq.push(wc(2, 5_000));
        assert!(!cq.is_empty());
        assert_eq!(cq.peek(), Some(5_000));
        assert_eq!(cq.pop().map(|w| w.wr_id), Some(2));
        assert_eq!(cq.pop().map(|w| w.wr_id), Some(1));
        assert!(cq.is_empty());
    }

    #[test]
    fn blocking_poll_wakes_on_push() {
        let cq = Arc::new(Cq::new());
        let c2 = Arc::clone(&cq);
        let h = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            c2.poll_blocking(&mut ctx, false, Duration::from_secs(5))
                .expect("completion arrives")
        });
        std::thread::sleep(Duration::from_millis(20));
        cq.push(wc(7, 1234));
        let got = h.join().unwrap();
        assert_eq!(got.wr_id, 7);
    }

    #[test]
    fn blocking_poll_times_out() {
        let cq = Cq::new();
        let mut ctx = Ctx::new();
        let got = cq.poll_blocking(&mut ctx, false, Duration::from_millis(10));
        assert!(got.is_none());
    }

    #[test]
    fn close_wakes_pollers() {
        let cq = Arc::new(Cq::new());
        let c2 = Arc::clone(&cq);
        let h = std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            c2.poll_blocking(&mut ctx, false, Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(10));
        cq.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn spin_charges_idle_gap() {
        let cq = Cq::new();
        let mut ctx = Ctx::new();
        cq.push(wc(1, 10_000));
        let got = cq
            .poll_blocking(&mut ctx, true, Duration::from_secs(1))
            .unwrap();
        assert_eq!(got.wr_id, 1);
        assert!(
            ctx.cpu.total() >= 10_000,
            "spin charged {}",
            ctx.cpu.total()
        );
    }
}

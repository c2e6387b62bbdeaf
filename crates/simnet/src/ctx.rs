//! Per-thread execution context: a logical clock plus CPU accounting.
//!
//! Every simulated software thread (an application thread, a LITE polling
//! thread, an RPC server) owns a [`Ctx`]. Operations distinguish *work*
//! (burns host CPU and advances time — polling, memcpy, syscall entry)
//! from *waiting* (advances time only — blocked on the NIC or a remote
//! peer). The distinction feeds the paper's CPU-utilization comparisons
//! (Figure 13). A context also owns the gauges it records ([`Ctx::ledger`]).

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use crate::cpu::CpuMeter;
use crate::ledger::{Book, Ledgers, Pen};
use crate::time::{Nanos, VClock};

/// A simulated thread's execution context.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The thread's logical clock.
    pub clock: VClock,
    /// Where this thread's CPU time is charged.
    pub cpu: Arc<CpuMeter>,
    /// The ledgers this context records gauges in, one per book.
    ledgers: Ledgers,
}

impl Ctx {
    /// A context starting at time zero with a fresh meter.
    pub fn new() -> Self {
        Ctx {
            clock: VClock::new(),
            cpu: Arc::new(CpuMeter::new()),
            ledgers: Ledgers::default(),
        }
    }

    /// A context starting at time zero charging to `cpu`.
    pub fn with_meter(cpu: Arc<CpuMeter>) -> Self {
        Ctx {
            clock: VClock::new(),
            cpu,
            ledgers: Ledgers::default(),
        }
    }

    /// A context starting at `at` charging to `cpu`.
    pub fn at(at: Nanos, cpu: Arc<CpuMeter>) -> Self {
        Ctx {
            clock: VClock::at(at),
            cpu,
            ledgers: Ledgers::default(),
        }
    }

    /// This context's own ledger in `book`, opened on first use: what
    /// it records there is loads and stores, no read-modify-write (see
    /// [`crate::ledger`]).
    #[inline]
    pub fn ledger(&mut self, book: &Arc<Book>) -> Pen<'_> {
        self.ledgers.pen(book)
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// CPU-burning work: advances the clock *and* charges the meter.
    #[inline]
    pub fn work(&mut self, cost: Nanos) {
        self.clock.advance(cost);
        self.charge(cost);
    }

    /// Charges `cost` to this context's meter. A meter no other handle
    /// reaches (one strong count, no weak one) takes a load and a store
    /// instead of an atomic add: nothing can clone or downgrade it while
    /// this context is borrowed mutably, and the acquire fence orders the
    /// load after every charge made through a handle since dropped (each
    /// drop is a release decrement of the count read above). A shared
    /// meter takes the atomic add.
    #[inline]
    fn charge(&mut self, cost: Nanos) {
        if Arc::strong_count(&self.cpu) == 1 && Arc::weak_count(&self.cpu) == 0 {
            fence(Ordering::Acquire);
            self.cpu.charge_unshared(cost);
        } else {
            self.cpu.charge(cost);
        }
    }

    /// Blocked waiting (NIC, network, remote peer): advances the clock
    /// without charging CPU.
    #[inline]
    pub fn wait_until(&mut self, stamp: Nanos) {
        self.clock.join(stamp);
    }

    /// Busy-waiting until `stamp` (a polling loop): advances the clock and
    /// charges the full waited span to the CPU meter.
    #[inline]
    pub fn spin_until(&mut self, stamp: Nanos) {
        let now = self.now();
        if stamp > now {
            self.charge(stamp - now);
            self.clock.join(stamp);
        }
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_charges_cpu_wait_does_not() {
        let mut c = Ctx::new();
        c.work(100);
        c.wait_until(500);
        assert_eq!(c.now(), 500);
        assert_eq!(c.cpu.total(), 100);
        c.spin_until(700);
        assert_eq!(c.now(), 700);
        assert_eq!(c.cpu.total(), 300);
        // Spinning to the past is a no-op.
        c.spin_until(100);
        assert_eq!(c.now(), 700);
        assert_eq!(c.cpu.total(), 300);
    }

    /// A meter the context holds alone and one it shares sum the same:
    /// charges made while another thread charges it too are atomic, and
    /// the first charge after that thread's handle dropped sees them all.
    #[test]
    fn private_and_shared_meters_sum_alike() {
        let mut c = Ctx::new();
        c.work(7);
        let other = Arc::clone(&c.cpu);
        let t = std::thread::spawn(move || (0..1000).for_each(|_| other.charge(1)));
        (0..1000).for_each(|_| c.work(1));
        t.join().unwrap();
        c.work(2);
        assert_eq!(c.cpu.total(), 7 + 1000 + 1000 + 2);
    }
}

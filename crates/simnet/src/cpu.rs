//! CPU-time accounting.
//!
//! The paper's Figure 13 compares *CPU time per request* across LITE, HERD
//! and FaSST. In the simulation, every piece of code that would burn host
//! CPU (polling loops, syscall entry, memory moves, RPC handler dispatch)
//! charges its modeled cost to a [`CpuMeter`]. Busy-polling charges the
//! full wall time; LITE's adaptive sleep charges only the busy-check
//! prefix.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::Nanos;

/// An accumulating CPU-time counter (nanoseconds), safe to share.
#[derive(Debug, Default)]
pub struct CpuMeter {
    busy: AtomicU64,
}

impl CpuMeter {
    /// Creates a zeroed meter.
    pub const fn new() -> Self {
        CpuMeter {
            busy: AtomicU64::new(0),
        }
    }

    /// Charges `cost` nanoseconds of CPU time.
    #[inline]
    pub fn charge(&self, cost: Nanos) {
        self.busy.fetch_add(cost, Ordering::Relaxed);
    }

    /// [`Self::charge`] for the meter's only holder: a load and a store,
    /// no read-modify-write ([`crate::Ctx::work`] decides when).
    #[inline]
    pub(crate) fn charge_unshared(&self, cost: Nanos) {
        let busy = self.busy.load(Ordering::Relaxed);
        self.busy.store(busy + cost, Ordering::Relaxed);
    }

    /// Total CPU time charged.
    pub fn total(&self) -> Nanos {
        self.busy.load(Ordering::Relaxed)
    }

    /// Resets the meter and returns the previous total.
    pub fn take(&self) -> Nanos {
        self.busy.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_take_resets() {
        let m = CpuMeter::new();
        m.charge(10);
        m.charge(5);
        assert_eq!(m.total(), 15);
        assert_eq!(m.take(), 15);
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn concurrent_charges_sum() {
        let m = std::sync::Arc::new(CpuMeter::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.charge(3);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(m.total(), 4 * 10_000 * 3);
    }
}

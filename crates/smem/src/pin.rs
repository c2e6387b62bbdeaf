//! Physical-page pin accounting.
//!
//! LITE registers one global MR over *physical* memory, so its pinning is
//! tracked per physical frame rather than through a process page table.
//! [`PinTable`] models that: a refcounted set of pinned frames that the
//! kernel charges against when it pins LMR memory eagerly at registration
//! (Figure 8's dominant cost) or lazily at first touch (the NP-RDMA-style
//! pin-free mode, DESIGN.md §13).
//!
//! Two pin disciplines coexist:
//!
//! * **Counted pins** ([`PinTable::pin_range`] / [`PinTable::unpin_range`])
//!   nest like `get_user_pages` references — each pin must be matched by an
//!   unpin, and saturation is a typed [`MemError::PinOverflow`].
//! * **Residency pins** ([`PinTable::fault_in`] / [`PinTable::unpin_all`])
//!   are idempotent page-granular state: `fault_in` pins only the pages not
//!   already resident (returning how many faulted, so the caller can charge
//!   per-fault virtual time), and `unpin_all` drops a range back to zero
//!   regardless of count (the free/evict/background-unpin path).

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::error::MemError;
use crate::phys::{PhysAddr, PAGE_SHIFT};

/// Refcounted pin accounting over physical frames.
///
/// Internally synchronized; multi-page operations are atomic (validate
/// before mutate, so a failure never leaves a partial pin).
#[derive(Default)]
pub struct PinTable {
    counts: Mutex<HashMap<u64, u32>>,
}

impl PinTable {
    /// Creates an empty pin table.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_span(addr: PhysAddr, len: u64) -> (u64, u64) {
        let first = addr >> PAGE_SHIFT;
        let last = (addr + len.max(1) - 1) >> PAGE_SHIFT;
        (first, last)
    }

    /// Increments the pin count of every page overlapping
    /// `[addr, addr+len)`; returns the number of pages pinned.
    pub fn pin_range(&self, addr: PhysAddr, len: u64) -> Result<usize, MemError> {
        let (first, last) = Self::page_span(addr, len);
        let mut counts = self.counts.lock();
        for pfn in first..=last {
            if counts.get(&pfn).copied().unwrap_or(0) == u32::MAX {
                return Err(MemError::PinOverflow {
                    vaddr: pfn << PAGE_SHIFT,
                });
            }
        }
        for pfn in first..=last {
            *counts.entry(pfn).or_insert(0) += 1;
        }
        Ok((last - first + 1) as usize)
    }

    /// Decrements the pin count of every page in the range; returns the
    /// number of pages unpinned. Fails atomically with
    /// [`MemError::NotPinned`] if any page is not pinned.
    pub fn unpin_range(&self, addr: PhysAddr, len: u64) -> Result<usize, MemError> {
        let (first, last) = Self::page_span(addr, len);
        let mut counts = self.counts.lock();
        for pfn in first..=last {
            if counts.get(&pfn).copied().unwrap_or(0) == 0 {
                return Err(MemError::NotPinned {
                    vaddr: pfn << PAGE_SHIFT,
                });
            }
        }
        for pfn in first..=last {
            let count = counts.get_mut(&pfn).expect("validated");
            *count -= 1;
            if *count == 0 {
                counts.remove(&pfn);
            }
        }
        Ok((last - first + 1) as usize)
    }

    /// First-touch fault-in: pins (count 0 → 1) only the pages in the range
    /// that are not already pinned, returning how many faulted. Already
    /// pinned pages are left untouched — this is the NIC page-fault path,
    /// not a nested reference.
    pub fn fault_in(&self, addr: PhysAddr, len: u64) -> usize {
        let (first, last) = Self::page_span(addr, len);
        let mut counts = self.counts.lock();
        let mut faulted = 0;
        for pfn in first..=last {
            counts.entry(pfn).or_insert_with(|| {
                faulted += 1;
                1
            });
        }
        faulted
    }

    /// Drops every page in the range to pin count zero regardless of its
    /// current count, returning how many pages were actually released.
    /// Used when residency ends wholesale: LMR free, eviction to a remote
    /// tier, or the background unpinner reclaiming a cold chunk.
    pub fn unpin_all(&self, addr: PhysAddr, len: u64) -> usize {
        let (first, last) = Self::page_span(addr, len);
        let mut counts = self.counts.lock();
        let mut released = 0;
        for pfn in first..=last {
            if counts.remove(&pfn).is_some() {
                released += 1;
            }
        }
        released
    }

    /// Pin count of the page containing `addr`.
    pub fn pin_count(&self, addr: PhysAddr) -> u32 {
        self.counts
            .lock()
            .get(&(addr >> PAGE_SHIFT))
            .copied()
            .unwrap_or(0)
    }

    /// Number of pages with a nonzero pin count.
    pub fn pinned_pages(&self) -> usize {
        self.counts.lock().len()
    }

    /// Forces the pin count of the page containing `addr`. Test hook for
    /// exercising saturation without 2^32 pin calls; not part of the model.
    #[doc(hidden)]
    pub fn set_pin_count(&self, addr: PhysAddr, count: u32) {
        let mut counts = self.counts.lock();
        if count == 0 {
            counts.remove(&(addr >> PAGE_SHIFT));
        } else {
            counts.insert(addr >> PAGE_SHIFT, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phys::PAGE_SIZE;

    const P: u64 = PAGE_SIZE as u64;

    #[test]
    fn counted_pins_nest() {
        let t = PinTable::new();
        assert_eq!(t.pin_range(0, 3 * P).unwrap(), 3);
        assert_eq!(t.pin_range(P, 1).unwrap(), 1);
        assert_eq!(t.pinned_pages(), 3);
        assert_eq!(t.unpin_range(0, 3 * P).unwrap(), 3);
        assert_eq!(t.pinned_pages(), 1, "nested pin survives");
        assert_eq!(t.unpin_range(P, 1).unwrap(), 1);
        assert_eq!(t.pinned_pages(), 0);
        assert_eq!(t.unpin_range(0, P), Err(MemError::NotPinned { vaddr: 0 }));
    }

    #[test]
    fn unpin_fails_atomically() {
        let t = PinTable::new();
        t.pin_range(0, P).unwrap();
        // Second page never pinned: whole unpin must be rejected.
        assert!(t.unpin_range(0, 2 * P).is_err());
        assert_eq!(t.pin_count(0), 1, "first page untouched by failed unpin");
    }

    #[test]
    fn pin_overflow_is_typed_and_atomic() {
        let t = PinTable::new();
        t.set_pin_count(P, u32::MAX);
        assert_eq!(
            t.pin_range(0, 3 * P),
            Err(MemError::PinOverflow { vaddr: P })
        );
        assert_eq!(t.pin_count(0), 0, "no partial pin on overflow");
        assert_eq!(t.pin_count(2 * P), 0);
    }

    #[test]
    fn fault_in_pins_only_missing_pages() {
        let t = PinTable::new();
        t.pin_range(P, P).unwrap();
        assert_eq!(t.fault_in(0, 3 * P), 2, "middle page already resident");
        assert_eq!(t.pin_count(P), 1, "fault-in does not stack references");
        assert_eq!(t.fault_in(0, 3 * P), 0, "second touch is free");
        assert_eq!(t.pinned_pages(), 3);
    }

    #[test]
    fn unpin_all_releases_wholesale() {
        let t = PinTable::new();
        t.pin_range(0, 2 * P).unwrap();
        t.pin_range(0, P).unwrap(); // count 2 on page 0
        assert_eq!(t.unpin_all(0, 4 * P), 2, "only resident pages counted");
        assert_eq!(t.pinned_pages(), 0);
        assert_eq!(t.fault_in(0, P), 1, "range can fault back in");
    }
}

//! Sparse, page-granular physical memory.
//!
//! Layout: a three-level page table of write-once slots — one slot per
//! GiB, 512 per 2 MiB under it, 512 pages of 4 KiB under that. A table
//! and a page are boxed on first touch ([`OnceLock::get_or_init`]), so a
//! 16 GiB node that touched nothing holds 16 empty slots, and finding a
//! page that exists takes three acquire loads: no hash, no lock, no
//! reference count. Each page has its own mutex, so one-sided RDMA from
//! many requester threads into one node contends only per page,
//! mirroring DRAM banks more closely than a single big lock would. The
//! mutex sits in the last-level slot beside the pointer to the page's
//! bytes, so finding a page and locking it touch one cache line.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::alloc::Chunk;
use crate::error::MemError;

/// Page size (bytes). Matches x86-64 base pages, like the paper's testbed.
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// log2 of the slots in one table below the root.
const FANOUT_SHIFT: u32 = 9;
const FANOUT: usize = 1 << FANOUT_SHIFT;

/// A physical address on one simulated node.
pub type PhysAddr = u64;

type Page = Mutex<Box<[u8; PAGE_SIZE]>>;
/// The pages of one 2 MiB range.
type Leaf = [OnceLock<Page>; FANOUT];
/// The leaves of one 1 GiB range.
type Dir = [OnceLock<Box<Leaf>>; FANOUT];

/// A table of empty slots, boxed.
fn table<T>() -> Box<[OnceLock<T>; FANOUT]> {
    Box::new(std::array::from_fn(|_| OnceLock::new()))
}

/// One node's physical memory.
pub struct PhysMem {
    size: u64,
    /// One slot per GiB of the address space.
    root: Box<[OnceLock<Box<Dir>>]>,
    /// Pages materialized so far.
    resident: AtomicUsize,
    /// High-water mark of atomic completion stamps handed out by the
    /// `*_stamped` operations; guarantees stamps are monotone in actual
    /// apply order across the whole address space.
    atomic_clock: AtomicU64,
}

impl PhysMem {
    /// Creates a physical address space of `size` bytes (rounded up to a
    /// page). Pages materialize zero-filled on first touch.
    pub fn new(size: u64) -> Self {
        let size = size.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
        let dir_bytes = 1u64 << (PAGE_SHIFT + 2 * FANOUT_SHIFT);
        PhysMem {
            size,
            root: (0..size.div_ceil(dir_bytes))
                .map(|_| OnceLock::new())
                .collect(),
            resident: AtomicUsize::new(0),
            atomic_clock: AtomicU64::new(0),
        }
    }

    /// Size of the physical address space in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of pages actually materialized (host-memory footprint).
    pub fn resident_pages(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    fn check(&self, addr: PhysAddr, len: usize) -> Result<(), MemError> {
        if addr
            .checked_add(len as u64)
            .is_none_or(|end| end > self.size)
        {
            return Err(MemError::BadPhysAddr { addr, len });
        }
        Ok(())
    }

    /// The page `pfn`, materialized on first touch; `pfn` is in bounds.
    fn page(&self, pfn: u64) -> &Page {
        let slot = |shift: u32| (pfn >> shift) as usize & (FANOUT - 1);
        let dir = self.root[(pfn >> (2 * FANOUT_SHIFT)) as usize].get_or_init(table);
        let leaf = dir[slot(FANOUT_SHIFT)].get_or_init(table);
        leaf[slot(0)].get_or_init(|| {
            self.resident.fetch_add(1, Ordering::Relaxed);
            Mutex::new(Box::new([0; PAGE_SIZE]))
        })
    }

    /// Visits each `(page, offset, len)` fragment of the byte range.
    fn for_each_fragment(
        &self,
        addr: PhysAddr,
        len: usize,
        mut f: impl FnMut(&Page, usize, usize, usize),
    ) {
        let mut off = 0usize;
        while off < len {
            let cur = addr + off as u64;
            let pfn = cur >> PAGE_SHIFT;
            let in_page = (cur & (PAGE_SIZE as u64 - 1)) as usize;
            let n = (PAGE_SIZE - in_page).min(len - off);
            f(self.page(pfn), in_page, off, n);
            off += n;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(addr, buf.len())?;
        self.for_each_fragment(addr, buf.len(), |page, in_page, off, n| {
            let p = page.lock();
            buf[off..off + n].copy_from_slice(&p[in_page..in_page + n]);
        });
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    pub fn write(&self, addr: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len())?;
        self.for_each_fragment(addr, data.len(), |page, in_page, off, n| {
            let mut p = page.lock();
            p[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
        });
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `byte` (LT_memset's data plane).
    pub fn fill(&self, addr: PhysAddr, len: usize, byte: u8) -> Result<(), MemError> {
        self.check(addr, len)?;
        self.for_each_fragment(addr, len, |page, in_page, _off, n| {
            let mut p = page.lock();
            p[in_page..in_page + n].fill(byte);
        });
        Ok(())
    }

    /// Writes `data` over the fragments `dst`, in order; moves
    /// `min(data.len(), Σ dst)` bytes. Every chunk is bounds-checked
    /// before the first byte moves.
    pub fn scatter(&self, dst: &[Chunk], data: &[u8]) -> Result<(), MemError> {
        for c in dst {
            self.check(c.addr, c.len as usize)?;
        }
        let mut rest = data;
        for c in dst {
            let (head, tail) = rest.split_at(rest.len().min(c.len as usize));
            self.write(c.addr, head)?;
            rest = tail;
        }
        Ok(())
    }

    /// Copies the bytes of `src` — fragments of `from`, in order — onto
    /// the fragments `dst` of this memory, page fragment to page fragment
    /// with no buffer in between (the NIC's DMA between two scatter
    /// lists). Moves `min(Σ src, Σ dst)` bytes. Every chunk of both lists
    /// is bounds-checked before the first byte moves, so an error leaves
    /// the destination untouched. `from` may be this memory; overlapping
    /// ranges behave as if all of `src` were read before any of `dst` is
    /// written.
    pub fn copy_from(&self, from: &PhysMem, src: &[Chunk], dst: &[Chunk]) -> Result<(), MemError> {
        for c in src {
            from.check(c.addr, c.len as usize)?;
        }
        for c in dst {
            self.check(c.addr, c.len as usize)?;
        }
        let overlaps = |s: &Chunk| {
            let hits = |d: &Chunk| s.addr < d.addr + d.len && d.addr < s.addr + s.len;
            dst.iter().any(hits)
        };
        if std::ptr::eq(self, from) && src.iter().any(overlaps) {
            // A streaming copy would read bytes it has already replaced.
            let total: u64 = src.iter().map(|c| c.len).sum();
            let mut buf = vec![0u8; total as usize];
            let mut off = 0;
            for c in src {
                from.read(c.addr, &mut buf[off..off + c.len as usize])?;
                off += c.len as usize;
            }
            return self.scatter(dst, &buf);
        }
        let in_page = |addr: u64| (addr & (PAGE_SIZE as u64 - 1)) as usize;
        let (mut src, mut dst) = (src.iter(), dst.iter());
        let (mut s, mut d) = (Chunk { addr: 0, len: 0 }, Chunk { addr: 0, len: 0 });
        loop {
            // Empty chunks are legal in a scatter list; skip them.
            while s.len == 0 {
                match src.next() {
                    Some(next) => s = *next,
                    None => return Ok(()),
                }
            }
            while d.len == 0 {
                match dst.next() {
                    Some(next) => d = *next,
                    None => return Ok(()),
                }
            }
            let (so, doff) = (in_page(s.addr), in_page(d.addr));
            let n = (s.len.min(d.len) as usize)
                .min(PAGE_SIZE - so)
                .min(PAGE_SIZE - doff);
            let sp = from.page(s.addr >> PAGE_SHIFT);
            let dp = self.page(d.addr >> PAGE_SHIFT);
            if std::ptr::eq(sp, dp) {
                // Disjoint ranges of one page (overlap went the other way).
                sp.lock().copy_within(so..so + n, doff);
            } else {
                // Both pages in address order, so two copies in opposite
                // directions cannot deadlock.
                let (sg, mut dg);
                if (sp as *const Page) < (dp as *const Page) {
                    sg = sp.lock();
                    dg = dp.lock();
                } else {
                    dg = dp.lock();
                    sg = sp.lock();
                }
                dg[doff..doff + n].copy_from_slice(&sg[so..so + n]);
            }
            let n = n as u64;
            s = Chunk {
                addr: s.addr + n,
                len: s.len - n,
            };
            d = Chunk {
                addr: d.addr + n,
                len: d.len - n,
            };
        }
    }

    fn atomic_cell(&self, addr: PhysAddr) -> Result<(&Page, usize), MemError> {
        self.check(addr, 8)?;
        if !addr.is_multiple_of(8) || (addr & (PAGE_SIZE as u64 - 1)) as usize > PAGE_SIZE - 8 {
            return Err(MemError::BadAtomic { addr });
        }
        Ok((
            self.page(addr >> PAGE_SHIFT),
            (addr % PAGE_SIZE as u64) as usize,
        ))
    }

    /// Atomically adds `delta` to the little-endian u64 at `addr` and
    /// returns the *previous* value (RDMA fetch-and-add semantics).
    pub fn fetch_add_u64(&self, addr: PhysAddr, delta: u64) -> Result<u64, MemError> {
        let (page, off) = self.atomic_cell(addr)?;
        let mut p = page.lock();
        let old = u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"));
        p[off..off + 8].copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
        Ok(old)
    }

    /// Atomic compare-and-swap on the u64 at `addr`; returns the previous
    /// value (swap happened iff it equals `expect`).
    pub fn cas_u64(&self, addr: PhysAddr, expect: u64, new: u64) -> Result<u64, MemError> {
        let (page, off) = self.atomic_cell(addr)?;
        let mut p = page.lock();
        let old = u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"));
        if old == expect {
            p[off..off + 8].copy_from_slice(&new.to_le_bytes());
        }
        Ok(old)
    }

    /// Advances the atomic clock to at least `now` and returns the new
    /// stamp. Must be called while holding the page lock of the cell
    /// being modified so the stamp order matches the apply order.
    fn bump_atomic_clock(&self, now: u64) -> u64 {
        let mut prev = self.atomic_clock.load(Ordering::Relaxed);
        loop {
            let stamp = now.max(prev + 1);
            match self.atomic_clock.compare_exchange_weak(
                prev,
                stamp,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return stamp,
                Err(p) => prev = p,
            }
        }
    }

    /// [`Self::fetch_add_u64`], plus a completion stamp that is strictly
    /// monotone in actual apply order: returns `(old, stamp)` with
    /// `stamp >= now`. Two conflicting atomics always see stamps ordered
    /// the same way their effects were applied — the property the
    /// linearizability checker's virtual-time intervals rely on.
    pub fn fetch_add_u64_stamped(
        &self,
        addr: PhysAddr,
        delta: u64,
        now: u64,
    ) -> Result<(u64, u64), MemError> {
        let (page, off) = self.atomic_cell(addr)?;
        let mut p = page.lock();
        let old = u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"));
        p[off..off + 8].copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
        let stamp = self.bump_atomic_clock(now);
        Ok((old, stamp))
    }

    /// [`Self::cas_u64`] with an apply-order-monotone completion stamp;
    /// see [`Self::fetch_add_u64_stamped`].
    pub fn cas_u64_stamped(
        &self,
        addr: PhysAddr,
        expect: u64,
        new: u64,
        now: u64,
    ) -> Result<(u64, u64), MemError> {
        let (page, off) = self.atomic_cell(addr)?;
        let mut p = page.lock();
        let old = u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"));
        if old == expect {
            p[off..off + 8].copy_from_slice(&new.to_le_bytes());
        }
        let stamp = self.bump_atomic_clock(now);
        Ok((old, stamp))
    }

    /// [`Self::load_u64`] with an apply-order-monotone stamp: `(value,
    /// stamp)` exactly as `fetch_add_u64_stamped(addr, 0, now)` returns
    /// them, without the store. The stamp is taken under the cell's page
    /// lock, so it falls after the stamp of every atomic whose effect the
    /// value shows and before that of every atomic applied later — an
    /// aligned one-word read is a sound way to observe a word that
    /// stamped atomics maintain.
    pub fn load_u64_stamped(&self, addr: PhysAddr, now: u64) -> Result<(u64, u64), MemError> {
        let (page, off) = self.atomic_cell(addr)?;
        let p = page.lock();
        let value = u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"));
        let stamp = self.bump_atomic_clock(now);
        Ok((value, stamp))
    }

    /// Reads the u64 at `addr` atomically.
    pub fn load_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        let (page, off) = self.atomic_cell(addr)?;
        let p = page.lock();
        Ok(u64::from_le_bytes(
            p[off..off + 8].try_into().expect("8 bytes"),
        ))
    }

    /// Writes the u64 at `addr` atomically.
    pub fn store_u64(&self, addr: PhysAddr, v: u64) -> Result<(), MemError> {
        let (page, off) = self.atomic_cell(addr)?;
        let mut p = page.lock();
        p[off..off + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_write_roundtrip_cross_page() {
        let m = PhysMem::new(1 << 20);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        // Straddle several page boundaries.
        m.write(PAGE_SIZE as u64 - 100, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read(PAGE_SIZE as u64 - 100, &mut back).unwrap();
        assert_eq!(back, data);
        assert!(m.resident_pages() >= 3);
    }

    #[test]
    fn zero_filled_on_first_touch() {
        let m = PhysMem::new(1 << 20);
        let mut buf = [1u8; 64];
        m.read(4096, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn bounds_are_enforced() {
        let m = PhysMem::new(8192);
        let mut b = [0u8; 16];
        assert!(m.read(8192 - 8, &mut b).is_err());
        assert!(m.write(u64::MAX - 4, &[0; 8]).is_err());
        assert!(m.read(0, &mut b).is_ok());
    }

    #[test]
    fn fill_works() {
        let m = PhysMem::new(1 << 16);
        m.fill(100, 5000, 0xAB).unwrap();
        let mut b = vec![0u8; 5000];
        m.read(100, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0xAB));
        let mut edge = [0u8; 1];
        m.read(99, &mut edge).unwrap();
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn atomics() {
        let m = PhysMem::new(1 << 16);
        assert_eq!(m.fetch_add_u64(64, 5).unwrap(), 0);
        assert_eq!(m.fetch_add_u64(64, 3).unwrap(), 5);
        assert_eq!(m.load_u64(64).unwrap(), 8);
        assert_eq!(m.cas_u64(64, 8, 100).unwrap(), 8);
        assert_eq!(m.load_u64(64).unwrap(), 100);
        assert_eq!(m.cas_u64(64, 8, 42).unwrap(), 100, "failed CAS returns old");
        assert_eq!(m.load_u64(64).unwrap(), 100);
        assert!(m.fetch_add_u64(63, 1).is_err(), "misaligned");
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let m = Arc::new(PhysMem::new(1 << 16));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.fetch_add_u64(0, 1).unwrap();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(m.load_u64(0).unwrap(), 80_000);
    }

    #[test]
    fn stamped_atomics_are_monotone_in_apply_order() {
        let m = PhysMem::new(1 << 16);
        let (old, s1) = m.fetch_add_u64_stamped(64, 1, 1_000).unwrap();
        assert_eq!(old, 0);
        assert!(s1 >= 1_000);
        // A conflicting atomic with a *lagging* virtual clock still
        // stamps after the first apply.
        let (old, s2) = m.cas_u64_stamped(64, 1, 7, 10).unwrap();
        assert_eq!(old, 1);
        assert!(s2 > s1);
        let (_, s3) = m.fetch_add_u64_stamped(64, 1, 2_000).unwrap();
        assert!(s3 >= 2_000 && s3 > s2);
        // A stamped load is ordered the same way: it sees what the last
        // atomic left and is stamped after it.
        let (seen, s4) = m.load_u64_stamped(64, 0).unwrap();
        assert_eq!(seen, 8);
        assert!(s4 > s3);
        assert!(m.load_u64_stamped(60, 0).is_err(), "misaligned");
    }

    /// Threaded: a word counts the CASes applied to it, each CAS keeps
    /// its stamp, and a reader takes stamped loads meanwhile. A load that
    /// saw `k` CASes must be stamped after the k-th CAS and before the
    /// (k+1)-th, whatever virtual clocks the threads bring.
    #[test]
    fn stamped_loads_fall_between_the_atomics_around_them() {
        const CASES: u64 = 20_000;
        let m = Arc::new(PhysMem::new(1 << 16));
        let writer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                // Stamp of the CAS that took the word to k, at index k.
                let mut stamps = vec![0u64];
                for k in 0..CASES {
                    // A clock that jumps around, lagging more than not.
                    let now = (k * 7919) % 1_000;
                    let (old, stamp) = m.cas_u64_stamped(64, k, k + 1, now).unwrap();
                    assert_eq!(old, k);
                    stamps.push(stamp);
                }
                stamps
            })
        };
        let mut loads = Vec::new();
        while loads.last().is_none_or(|&(seen, _)| seen < CASES) {
            loads.push(m.load_u64_stamped(64, loads.len() as u64 % 500).unwrap());
        }
        let stamps = writer.join().unwrap();
        for (seen, stamp) in loads {
            let k = seen as usize;
            assert!(stamps[k] < stamp, "load of {k} precedes the CAS it saw");
            if let Some(&next) = stamps.get(k + 1) {
                assert!(stamp < next, "load of {k} follows a CAS it missed");
            }
        }
    }

    /// Threads race to materialize the same untouched pages: each page is
    /// boxed once, and no thread's bytes land in a page another thread
    /// then replaces.
    #[test]
    fn first_touch_races_materialize_one_page() {
        const THREADS: usize = 8;
        const PAGES: u64 = 64;
        // Pages spread over two 2 MiB leaves and two GiB directories, so
        // every level of the table is raced for.
        let base = (1u64 << 30) - 32 * PAGE_SIZE as u64;
        let m = Arc::new(PhysMem::new(4 << 30));
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let hs: Vec<_> = (0..THREADS)
            .map(|t| {
                let (m, barrier) = (Arc::clone(&m), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    for p in 0..PAGES {
                        let at = base + p * PAGE_SIZE as u64 + t as u64 * 16;
                        m.write(at, &[t as u8 + 1; 16]).unwrap();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        for p in 0..PAGES {
            let mut back = [0u8; THREADS * 16];
            m.read(base + p * PAGE_SIZE as u64, &mut back).unwrap();
            for (t, bytes) in back.chunks(16).enumerate() {
                assert!(
                    bytes.iter().all(|&b| b == t as u8 + 1),
                    "page {p}, thread {t}"
                );
            }
        }
        assert_eq!(m.resident_pages(), PAGES as usize);
    }

    #[test]
    fn resident_pages_counts_only_touched_pages() {
        let size = 16u64 << 30;
        let m = PhysMem::new(size);
        assert_eq!(m.resident_pages(), 0);
        m.write(0, &[1]).unwrap();
        m.write(size / 2, &[2]).unwrap();
        m.write(size - 8, &[3; 8]).unwrap();
        // Reading and writing touched pages again adds none.
        let mut b = [0u8; 8];
        m.read(size - 8, &mut b).unwrap();
        assert_eq!(b, [3; 8]);
        m.fill(size / 2 + 1, 100, 4).unwrap();
        assert_eq!(m.resident_pages(), 3);
        assert!(m.write(size, &[0]).is_err());
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn store_load_u64() {
        let m = PhysMem::new(1 << 16);
        m.store_u64(8, 0xDEADBEEF).unwrap();
        assert_eq!(m.load_u64(8).unwrap(), 0xDEADBEEF);
    }
}

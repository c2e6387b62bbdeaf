//! Gauges a context owns: counts, bytes and latency histograms that one
//! [`crate::Ctx`] writes with plain loads and stores, and a [`Book`] that
//! keeps every ledger opened in it and folds them on read.
//!
//! A `Ctx` is `&mut` and driven by one thread at a time, so what it
//! records needs no read-modify-write. The first time a context records
//! in a book it opens a [`Ledger`] there (one allocation, then never
//! again); every op after that is loads and stores into that ledger,
//! published with one release store (a seqlock: a reader sees a
//! ledger's counts at an op boundary, never half an op). When the
//! context drops, its ledger retires into the book's total. A book's
//! [`Book::fold`] sums the retired total and every live ledger, so what
//! it reports survives the contexts that recorded it.
//!
//! Each ledger holds `cells` fixed cells (their meaning is the book
//! owner's) and up to `peers` peer cells, created on first touch. A cell
//! counts ops and bytes, keeps the latest stamp, and holds a latency
//! histogram allocated only when its first sample lands. Histogram
//! buckets are read outside the seqlock: each bucket is whole, and a
//! snapshot taken while a writer runs may hold a sample its cell's count
//! does not show yet.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::stats::{bucket_floor, bucket_of, Histogram, HIST_BUCKETS};

/// One latency histogram, single-writer.
struct Hist {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        bump(&self.buckets[bucket_of(v)], 1);
        bump(&self.sum, v);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.store(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Adds this histogram's samples to `into`.
    fn fold_into(&self, into: &mut Samples) {
        let mut added = false;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                into.hist.record_n(bucket_floor(i), c);
                added = true;
            }
        }
        if added {
            into.min = into.min.min(self.min.load(Ordering::Relaxed));
            into.max = into.max.max(self.max.load(Ordering::Relaxed));
            into.hist.set_bounds(into.min, into.max);
        }
        into.sum += self.sum.load(Ordering::Relaxed);
    }
}

/// The single writer's increment: a load and a store, no RMW.
#[inline]
fn bump(word: &AtomicU64, by: u64) {
    word.store(
        word.load(Ordering::Relaxed).wrapping_add(by),
        Ordering::Relaxed,
    );
}

/// One gauge cell of a ledger, on a cache line of its own: cells of
/// ledgers that different threads write never share one.
#[repr(align(64))]
struct Cell {
    count: AtomicU64,
    bytes: AtomicU64,
    last: AtomicU64,
    hist: OnceLock<Box<Hist>>,
}

impl Cell {
    fn new() -> Self {
        Cell {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            last: AtomicU64::new(0),
            hist: OnceLock::new(),
        }
    }

    fn counts(&self) -> (u64, u64, u64) {
        let r = |w: &AtomicU64| w.load(Ordering::Relaxed);
        (r(&self.count), r(&self.bytes), r(&self.last))
    }
}

/// The gauges one context records in one book. Only the context writes
/// it; the book reads it. Aligned like its cells, so its sequence word
/// shares no cache line with another writer's.
#[repr(align(64))]
pub struct Ledger {
    /// Odd while an op is being recorded; the seqlock readers check.
    seq: AtomicU64,
    cells: Box<[Cell]>,
    peers: Box<[OnceLock<Box<Cell>>]>,
}

impl Ledger {
    fn new(cells: usize, peers: usize) -> Self {
        Ledger {
            seq: AtomicU64::new(0),
            cells: (0..cells).map(|_| Cell::new()).collect(),
            peers: (0..peers).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Adds this ledger to `into`: counts read at an op boundary,
    /// histograms as they stand.
    fn fold_into(&self, into: &mut Tally) {
        let cells: Vec<(u64, u64, u64)>;
        let peers: Vec<Option<(u64, u64, u64)>>;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let c = self.cells.iter().map(Cell::counts).collect();
            let p = self
                .peers
                .iter()
                .map(|slot| slot.get().map(|cell| cell.counts()))
                .collect();
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                (cells, peers) = (c, p);
                break;
            }
        }
        for ((cell, counts), t) in self.cells.iter().zip(cells).zip(&mut into.cells) {
            t.add(counts, cell.hist.get().map(|h| &**h));
        }
        for ((slot, counts), t) in self.peers.iter().zip(peers).zip(&mut into.peers) {
            if let (Some(cell), Some(counts)) = (slot.get(), counts) {
                t.get_or_insert_with(CellTally::default)
                    .add(counts, cell.hist.get().map(|h| &**h));
            }
        }
    }
}

/// One op being recorded into a ledger ([`Pen::record`]).
pub struct Entry<'l> {
    ledger: &'l Ledger,
}

impl Entry<'_> {
    /// Counts `ops` ops moving `bytes` in fixed cell `cell`.
    #[inline]
    pub fn add(&self, cell: usize, ops: u64, bytes: u64) {
        let c = &self.ledger.cells[cell];
        bump(&c.count, ops);
        bump(&c.bytes, bytes);
    }

    /// Records one latency sample in fixed cell `cell`.
    #[inline]
    pub fn sample(&self, cell: usize, v: u64) {
        let c = &self.ledger.cells[cell];
        c.hist.get_or_init(|| Box::new(Hist::new())).record(v);
    }

    /// Counts one op of `bytes` towards `peer` that completed at `stamp`,
    /// with its latency when sampled. A peer past the book's capacity is
    /// not counted.
    #[inline]
    pub fn peer(&self, peer: usize, bytes: u64, stamp: u64, latency: Option<u64>) {
        let Some(slot) = self.ledger.peers.get(peer) else {
            return;
        };
        let c = slot.get_or_init(|| Box::new(Cell::new()));
        bump(&c.count, 1);
        bump(&c.bytes, bytes);
        if stamp > c.last.load(Ordering::Relaxed) {
            c.last.store(stamp, Ordering::Relaxed);
        }
        if let Some(v) = latency {
            c.hist.get_or_init(|| Box::new(Hist::new())).record(v);
        }
    }
}

/// A context's own ledger in one book, ready to record
/// ([`crate::Ctx::ledger`]).
pub struct Pen<'c> {
    ledger: &'c Ledger,
    tick: &'c mut u64,
}

impl Pen<'_> {
    /// Whether this context's next op is one in `rate` it samples
    /// (always at a rate of 0 or 1).
    #[inline]
    pub fn sample(&mut self, rate: u32) -> bool {
        let tick = *self.tick;
        *self.tick += 1;
        rate <= 1 || tick.is_multiple_of(rate as u64)
    }

    /// Records one op: what `f` adds becomes visible to readers as a
    /// whole, with one release store.
    #[inline]
    pub fn record(&mut self, f: impl FnOnce(&Entry)) {
        let seq = &self.ledger.seq;
        let s = seq.load(Ordering::Relaxed);
        seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        f(&Entry {
            ledger: self.ledger,
        });
        seq.store(s + 2, Ordering::Release);
    }
}

/// A context's open ledgers, one per book it has recorded in. Cloning a
/// context does not clone them: a ledger has one writer.
#[derive(Default)]
pub struct Ledgers {
    open: Vec<(Arc<Book>, Arc<Ledger>, u64)>,
}

impl Ledgers {
    /// The ledger for `book`, opened on first use.
    #[inline]
    pub(crate) fn pen(&mut self, book: &Arc<Book>) -> Pen<'_> {
        let i = match self.open.iter().position(|(b, ..)| Arc::ptr_eq(b, book)) {
            Some(i) => i,
            None => {
                self.open.push((Arc::clone(book), book.open(), 0));
                self.open.len() - 1
            }
        };
        let (_, ledger, tick) = &mut self.open[i];
        Pen { ledger, tick }
    }
}

impl Clone for Ledgers {
    fn clone(&self) -> Self {
        Ledgers::default()
    }
}

impl fmt::Debug for Ledgers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ledgers({} open)", self.open.len())
    }
}

impl Drop for Ledgers {
    fn drop(&mut self) {
        for (book, ledger, _) in self.open.drain(..) {
            book.retire(&ledger);
        }
    }
}

/// Latency samples folded from ledgers.
#[derive(Debug, Clone)]
pub struct Samples {
    /// The samples, bucketed, with exact extremes.
    pub hist: Histogram,
    /// Sum of the samples (for an exact mean).
    pub sum: u64,
    min: u64,
    max: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            hist: Histogram::new(),
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Samples {
    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        match self.hist.count() {
            0 => 0.0,
            n => self.sum as f64 / n as f64,
        }
    }
}

/// What one cell counted, summed over ledgers.
#[derive(Debug, Clone, Default)]
pub struct CellTally {
    /// Ops counted.
    pub count: u64,
    /// Bytes counted.
    pub bytes: u64,
    /// Latest stamp (peer cells).
    pub last: u64,
    /// Latency samples, if any ledger took one.
    pub lat: Option<Samples>,
}

impl CellTally {
    fn add(&mut self, (count, bytes, last): (u64, u64, u64), hist: Option<&Hist>) {
        self.count += count;
        self.bytes += bytes;
        self.last = self.last.max(last);
        if let Some(h) = hist {
            h.fold_into(self.lat.get_or_insert_with(Samples::default));
        }
    }
}

/// A book's totals: its fixed cells, and its peer cells any ledger
/// touched.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Fixed cells, by index.
    pub cells: Vec<CellTally>,
    /// Peer cells, by peer; `None` for a peer nobody recorded.
    pub peers: Vec<Option<CellTally>>,
}

impl Tally {
    fn new(cells: usize, peers: usize) -> Self {
        Tally {
            cells: vec![CellTally::default(); cells],
            peers: vec![None; peers],
        }
    }
}

/// The ledgers of one owner: those of live contexts, and the total the
/// dropped ones left.
pub struct Book {
    cells: usize,
    peers: usize,
    shelf: Mutex<(Vec<Arc<Ledger>>, Tally)>,
}

impl Book {
    /// A book whose ledgers hold `cells` fixed cells and up to `peers`
    /// peer cells.
    pub fn new(cells: usize, peers: usize) -> Self {
        Book {
            cells,
            peers,
            shelf: Mutex::new((Vec::new(), Tally::new(cells, peers))),
        }
    }

    /// A new ledger, live in this book.
    fn open(&self) -> Arc<Ledger> {
        let ledger = Arc::new(Ledger::new(self.cells, self.peers));
        self.shelf.lock().0.push(Arc::clone(&ledger));
        ledger
    }

    /// Moves a dropped context's ledger into the retired total.
    fn retire(&self, ledger: &Arc<Ledger>) {
        let mut shelf = self.shelf.lock();
        let (live, retired) = &mut *shelf;
        if let Some(i) = live.iter().position(|l| Arc::ptr_eq(l, ledger)) {
            live.swap_remove(i);
            ledger.fold_into(retired);
        }
    }

    /// Everything recorded in this book: the retired total plus every
    /// live ledger, each read at an op boundary.
    pub fn fold(&self) -> Tally {
        let shelf = self.shelf.lock();
        let (live, retired) = &*shelf;
        let mut tally = retired.clone();
        for ledger in live {
            ledger.fold_into(&mut tally);
        }
        tally
    }
}

impl fmt::Debug for Book {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Book({} cells, {} peers)", self.cells, self.peers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ctx;

    #[test]
    fn counts_fold_and_survive_the_context() {
        let book = Arc::new(Book::new(2, 4));
        let mut a = Ctx::new();
        for v in 1..=100u64 {
            a.ledger(&book).record(|e| {
                e.add(0, 1, 8);
                e.sample(1, v);
                e.peer(3, 8, v, Some(v));
            });
        }
        let mut b = a.clone();
        b.ledger(&book).record(|e| e.add(0, 1, 1));
        let t = book.fold();
        assert_eq!((t.cells[0].count, t.cells[0].bytes), (101, 801));
        let lat = t.cells[1].lat.as_ref().unwrap();
        assert_eq!(lat.hist.count(), 100);
        assert_eq!((lat.hist.min(), lat.hist.max()), (1, 100));
        assert!((lat.mean() - 50.5).abs() < 1e-9);
        let peer = t.peers[3].as_ref().unwrap();
        assert_eq!((peer.count, peer.bytes, peer.last), (100, 800, 100));
        assert!(t.peers[0].is_none());
        drop(a);
        drop(b);
        assert!(book.shelf.lock().0.is_empty(), "both ledgers retired");
        let after = book.fold();
        assert_eq!(after.cells[0].count, 101);
        assert_eq!(after.peers[3].as_ref().unwrap().bytes, 800);
    }

    #[test]
    fn a_peer_past_the_capacity_is_not_counted() {
        let book = Arc::new(Book::new(1, 2));
        let mut ctx = Ctx::new();
        ctx.ledger(&book).record(|e| e.peer(2, 8, 1, None));
        assert!(book.fold().peers.iter().all(Option::is_none));
    }

    #[test]
    fn sampling_is_per_context() {
        let book = Arc::new(Book::new(1, 1));
        let mut ctx = Ctx::new();
        let taken = (0..100).filter(|_| ctx.ledger(&book).sample(4)).count();
        assert_eq!(taken, 25);
        assert!((0..10).all(|_| ctx.ledger(&book).sample(1)));
    }
}

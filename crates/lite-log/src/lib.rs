#![warn(missing_docs)]

//! LITE-Log: distributed atomic logging on LITE one-sided operations
//! (paper §8.1).
//!
//! The "one-sided concept pushed to an extreme": the global log and its
//! metadata live in LMRs on some node, and *creation, maintenance, and
//! access are performed entirely from remote* — the log's home node runs
//! no log code at all.
//!
//! Layout — one LMR, `"{name}.log"`:
//!
//! * `META_BYTES` of metadata: three 64-bit words — `reserved` (bytes
//!   handed to writers), `committed` (transactions fully written), and
//!   `cleaned` (bytes reclaimed by the cleaner);
//! * then `capacity` bytes used as a ring.
//!
//! Commit protocol (buffer locally → reserve → write + publish), two
//! blocking waits and three verbs:
//!
//! 1. the writer buffers entries locally until commit time;
//! 2. `LT_fetch-add(reserved, total)` reserves a consecutive span;
//! 3. one `lt_chain` lands the whole transaction with one one-sided write
//!    (two at the wrap point) and publishes it with
//!    `fetch-add(committed, 1)` behind it. Words and ring share an LMR so
//!    that they can share the chain: its ops take effect in order, so a
//!    reader that sees the count sees the record.
//!
//! The cleaner scans committed transactions a chunk at a time — one
//! `LT_read` for every record in the chunk — and reclaims each chunk with
//! one chain: zeroes over the records, `fetch-add(cleaned, n)` behind them.
//! A reader that follows the log pulls it the same way
//! ([`LiteLog::read_from`]): one `LT_read` for a batch of records.

use std::cell::{Cell, RefCell};

use lite::{ChainOp, Lh, LiteError, LiteHandle, LiteResult, Perm};
use simnet::{Ctx, InlineVec};

/// Byte offsets of the metadata words.
const META_RESERVED: u64 = 0;
const META_COMMITTED: u64 = 8;
const META_CLEANED: u64 = 16;
/// Bytes the metadata words take at the head of the LMR; the ring follows.
const META_BYTES: u64 = 64;

/// Most ring bytes the cleaner reads, zeroes and reclaims per round trip.
const CLEAN_CHUNK: u64 = 64 * 1024;

/// Magic tag heading each transaction record.
const TXN_MAGIC: u32 = 0x4C4F_4721; // "LOG!"
/// Bytes of a record before its entries: magic, total size, entry count.
const HDR: usize = 12;

/// A writer's (or the cleaner's) view of one distributed log.
///
/// Each process opens its own `LiteLog` (lh's are per-process); all views
/// name the same LMR.
pub struct LiteLog {
    lh: Lh,
    capacity: u64,
    /// Client-side cache of the cleaner watermark: re-read (one LT_read)
    /// only when a reservation would overrun it, instead of on every
    /// commit. Keeps the commit fast path at fetch-add, then write +
    /// fetch-add.
    cleaned_cache: Cell<u64>,
    /// Where a commit encodes its record: kept from one commit to the
    /// next, so a warm commit allocates nothing.
    record: RefCell<Vec<u8>>,
}

/// One decoded transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    /// Byte offset of the record in the log.
    pub offset: u64,
    /// The entries committed together.
    pub entries: Vec<Vec<u8>>,
}

fn lmr_name(log: &str) -> String {
    format!("{log}.log")
}

impl LiteLog {
    /// Creates the log LMR on `home` and opens a view. `capacity` is the
    /// ring size in bytes.
    pub fn create(
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        home: usize,
        name: &str,
        capacity: u64,
    ) -> LiteResult<LiteLog> {
        let lh = h.lt_malloc(ctx, home, META_BYTES + capacity, &lmr_name(name), Perm::RW)?;
        h.lt_memset(ctx, lh, 0, META_BYTES as usize, 0)?;
        Ok(LiteLog::view(lh, capacity))
    }

    /// Opens an existing log by name from any node.
    pub fn open(
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        name: &str,
        capacity: u64,
    ) -> LiteResult<LiteLog> {
        Ok(LiteLog::view(h.lt_map(ctx, &lmr_name(name))?, capacity))
    }

    fn view(lh: Lh, capacity: u64) -> LiteLog {
        LiteLog {
            lh,
            capacity,
            cleaned_cache: Cell::new(0),
            record: RefCell::new(Vec::new()),
        }
    }

    /// Serialized size of a transaction with these entries.
    pub fn record_size(entries: &[&[u8]]) -> u64 {
        // magic + total + count, then (len, bytes) per entry.
        let mut sz = HDR as u64;
        for e in entries {
            sz += 4 + e.len() as u64;
        }
        // Keep records 8-byte aligned so metadata math stays simple.
        sz.div_ceil(8) * 8
    }

    /// Commits `entries` as one atomic transaction; returns the log
    /// offset. Fails with [`LiteError::OutOfBounds`] when the ring is
    /// full (cleaner too far behind).
    pub fn commit(&self, h: &mut LiteHandle, ctx: &mut Ctx, entries: &[&[u8]]) -> LiteResult<u64> {
        let size = Self::record_size(entries);
        // Reserve a consecutive span with one fetch-add (§8.1).
        let start = h.lt_fetch_add(ctx, self.lh, META_RESERVED, size)?;
        // Capacity check against the cached cleaner watermark; refresh it
        // (one LT_read) only when the cache says we would overrun.
        if start + size - self.cleaned_cache.get() > self.capacity {
            let mut b = [0u8; 8];
            h.lt_read(ctx, self.lh, META_CLEANED, &mut b)?;
            self.cleaned_cache.set(u64::from_le_bytes(b));
        }
        if start + size - self.cleaned_cache.get() > self.capacity {
            return Err(LiteError::OutOfBounds {
                offset: start,
                len: size as usize,
            });
        }
        // Serialize; write and publish with a single chain.
        let mut rec = self.record.borrow_mut();
        rec.clear();
        rec.extend_from_slice(&TXN_MAGIC.to_le_bytes());
        rec.extend_from_slice(&(size as u32).to_le_bytes());
        rec.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in entries {
            rec.extend_from_slice(&(e.len() as u32).to_le_bytes());
            rec.extend_from_slice(e);
        }
        rec.resize(size as usize, 0);
        let mut ops = self.ring_writes(start, &rec);
        ops.push(ChainOp::FetchAdd {
            off: META_COMMITTED,
            delta: 1,
            old: 0,
        });
        h.lt_chain(ctx, self.lh, &mut ops)?;
        Ok(start)
    }

    /// The write that lands `data` at log offset `offset` — two where it
    /// straddles the end of the ring — with room for the fetch-add that
    /// publishes it.
    fn ring_writes<'a>(&self, offset: u64, data: &'a [u8]) -> InlineVec<ChainOp<'a>, 3> {
        let ring_off = offset % self.capacity;
        let first = (data.len() as u64).min(self.capacity - ring_off) as usize;
        let mut ops = InlineVec::new();
        ops.push(ChainOp::Write {
            off: META_BYTES + ring_off,
            data: &data[..first],
        });
        if first < data.len() {
            ops.push(ChainOp::Write {
                off: META_BYTES,
                data: &data[first..],
            });
        }
        ops
    }

    /// Number of committed transactions.
    pub fn committed(&self, h: &mut LiteHandle, ctx: &mut Ctx) -> LiteResult<u64> {
        let mut b = [0u8; 8];
        h.lt_read(ctx, self.lh, META_COMMITTED, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads the whole records from `offset` on with one `LT_read` of up to
    /// `max_bytes` (two at the wrap point): at most `max_records` of them,
    /// ending at the first record not written yet. A record longer than
    /// `max_bytes` at `offset` is read whole, with a second read.
    ///
    /// Past the last committed record the ring may hold a record half
    /// written or, a lap on, the log's oldest records, so the caller bounds
    /// the read by what it knows is committed: `max_bytes` at the end of
    /// the last committed record, or `max_records` at the committed count.
    pub fn read_from(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        offset: u64,
        max_bytes: u64,
        max_records: usize,
    ) -> LiteResult<Vec<Txn>> {
        let mut len = max_bytes.min(self.capacity);
        loop {
            let mut buf = vec![0u8; len as usize];
            self.read_ring(h, ctx, offset, &mut buf)?;
            match whole_records(offset, &buf, u64::MAX, max_records) {
                (_, 0, Scan::CutOff(size)) => len = size as u64,
                (txns, ..) => return Ok(txns),
            }
        }
    }

    /// Reads the transaction at `offset` (entirely from remote).
    pub fn read_at(&self, h: &mut LiteHandle, ctx: &mut Ctx, offset: u64) -> LiteResult<Txn> {
        let mut hdr = [0u8; HDR];
        self.read_ring(h, ctx, offset, &mut hdr)?;
        let size = record_len(&hdr).ok_or(LiteError::Remote(0xA0))?;
        let mut rec = vec![0u8; size];
        rec[..HDR].copy_from_slice(&hdr);
        self.read_ring(h, ctx, offset + HDR as u64, &mut rec[HDR..])?;
        Ok(decode(offset, &rec))
    }

    fn read_ring(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        offset: u64,
        buf: &mut [u8],
    ) -> LiteResult<()> {
        let ring_off = offset % self.capacity;
        if ring_off + buf.len() as u64 <= self.capacity {
            h.lt_read(ctx, self.lh, META_BYTES + ring_off, buf)?;
        } else {
            let first = (self.capacity - ring_off) as usize;
            h.lt_read(ctx, self.lh, META_BYTES + ring_off, &mut buf[..first])?;
            h.lt_read(ctx, self.lh, META_BYTES, &mut buf[first..])?;
        }
        Ok(())
    }

    /// Cleaner step: scans forward from `cleaned`, validates records, and
    /// reclaims up to `max_bytes`. Returns the transactions reclaimed.
    /// Runs entirely from remote, like everything else here — and a
    /// `CLEAN_CHUNK` at a time, not a record at a time: one read fetches
    /// every record in the chunk, one chain zeroes them (so that no slot
    /// can be mistaken for a live record after wrap) and advances
    /// `cleaned` behind that. A cleaner that pays five round trips a
    /// record holds the log's NIC long enough for writers to notice.
    pub fn clean(&self, h: &mut LiteHandle, ctx: &mut Ctx, max_bytes: u64) -> LiteResult<Vec<Txn>> {
        let mut b = [0u8; 8];
        h.lt_read(ctx, self.lh, META_CLEANED, &mut b)?;
        let mut pos = u64::from_le_bytes(b);
        h.lt_read(ctx, self.lh, META_RESERVED, &mut b)?;
        let reserved = u64::from_le_bytes(b);
        let mut out = Vec::new();
        let mut reclaimed = 0u64;
        let mut chunk = CLEAN_CHUNK;
        while pos < reserved && reclaimed < max_bytes {
            let mut buf = vec![0u8; chunk.min(reserved - pos) as usize];
            self.read_ring(h, ctx, pos, &mut buf)?;
            let (txns, span, end) = whole_records(pos, &buf, max_bytes - reclaimed, usize::MAX);
            out.extend(txns);
            // A record cut off by the end of the chunk starts the next read,
            // which is as long as it if no chunk is.
            if let (0, Scan::CutOff(size)) = (span, end) {
                chunk = size as u64;
            }
            if span > 0 {
                buf[..span].fill(0);
                let mut ops = self.ring_writes(pos, &buf[..span]);
                ops.push(ChainOp::FetchAdd {
                    off: META_CLEANED,
                    delta: span as u64,
                    old: 0,
                });
                h.lt_chain(ctx, self.lh, &mut ops)?;
                pos += span as u64;
                reclaimed += span as u64;
            }
            // A record reserved but not yet written stops the cleaner; it
            // retries later.
            if end == Scan::Unwritten {
                break;
            }
        }
        Ok(out)
    }
}

/// Why [`whole_records`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scan {
    /// It took all it was allowed, or all of the buffer.
    Done,
    /// The next record was not written yet, or was cleaned since.
    Unwritten,
    /// The next record, this many bytes long, runs past the end of the
    /// buffer.
    CutOff(usize),
}

/// The whole records at the head of `buf`, read at log offset `at`: at
/// most `max_records` of them, none starting at or past `budget` bytes (the
/// last may end past it). Returns them, the bytes they span, and why the
/// scan stopped. The one scanner of the log: the cleaner's chunks and
/// [`LiteLog::read_from`]'s batches both go through it.
fn whole_records(at: u64, buf: &[u8], budget: u64, max_records: usize) -> (Vec<Txn>, usize, Scan) {
    let mut txns = Vec::new();
    let mut span = 0usize;
    while txns.len() < max_records && (span as u64) < budget && span < buf.len() {
        let Some(size) = record_len(&buf[span..]) else {
            return (txns, span, Scan::Unwritten);
        };
        if span + size > buf.len() {
            return (txns, span, Scan::CutOff(size));
        }
        txns.push(decode(at + span as u64, &buf[span..span + size]));
        span += size;
    }
    (txns, span, Scan::Done)
}

/// Total size of the record whose header `rec` starts with; `None` if no
/// record was written there (or it was cleaned since).
fn record_len(rec: &[u8]) -> Option<usize> {
    let word = |at: usize| Some(u32::from_le_bytes(rec.get(at..at + 4)?.try_into().ok()?));
    let size = word(4)? as usize;
    (word(0)? == TXN_MAGIC && size >= HDR).then_some(size)
}

/// Decodes the whole record `rec`, read at log offset `offset`.
fn decode(offset: u64, rec: &[u8]) -> Txn {
    let word = |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().expect("4")) as usize;
    let mut pos = HDR;
    let entries = (0..word(8))
        .map(|_| {
            let len = word(pos);
            pos += 4 + len;
            rec[pos - len..pos].to_vec()
        })
        .collect();
    Txn { offset, entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lite::LiteCluster;
    use std::sync::Arc;

    #[test]
    fn commit_and_read_back() {
        let cluster = LiteCluster::start(3).unwrap();
        let mut h = cluster.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 2, "log", 1 << 20).unwrap();
        let off = log.commit(&mut h, &mut ctx, &[b"alpha", b"beta"]).unwrap();
        let txn = log.read_at(&mut h, &mut ctx, off).unwrap();
        assert_eq!(txn.entries, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(log.committed(&mut h, &mut ctx).unwrap(), 1);
    }

    #[test]
    fn concurrent_writers_get_disjoint_space() {
        let cluster = LiteCluster::start(3).unwrap();
        {
            let mut h = cluster.attach(0).unwrap();
            let mut ctx = Ctx::new();
            LiteLog::create(&mut h, &mut ctx, 2, "clog", 1 << 22).unwrap();
        }
        let mut joins = Vec::new();
        for node in 0..2 {
            let cluster = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                let mut h = cluster.attach(node).unwrap();
                let mut ctx = Ctx::new();
                let log = LiteLog::open(&mut h, &mut ctx, "clog", 1 << 22).unwrap();
                let mut offs = Vec::new();
                for i in 0..50u32 {
                    let e = [node as u8, i as u8, 0xEE];
                    offs.push((log.commit(&mut h, &mut ctx, &[&e]).unwrap(), e));
                }
                offs
            }));
        }
        let all: Vec<(u64, [u8; 3])> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        // All offsets disjoint.
        let mut offs: Vec<u64> = all.iter().map(|(o, _)| *o).collect();
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), 100);
        // And every transaction reads back intact from a third node.
        let mut h = cluster.attach(1).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::open(&mut h, &mut ctx, "clog", 1 << 22).unwrap();
        for (off, e) in all {
            let txn = log.read_at(&mut h, &mut ctx, off).unwrap();
            assert_eq!(txn.entries, vec![e.to_vec()]);
        }
        assert_eq!(log.committed(&mut h, &mut ctx).unwrap(), 100);
    }

    /// `committed()` is a one-word read of a counter that fetch-adds
    /// maintain, so it is a stamped read: a reader that sees `n` has its
    /// clock past the n-th publish, however far it lagged, and the record
    /// that publish covers is there for the `read_at` that follows.
    #[test]
    fn committed_never_runs_ahead_of_the_reader() {
        const RECORDS: u64 = 200;
        let cluster = LiteCluster::start(3).unwrap();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 2, "plog", 1 << 20).unwrap();
        let size = LiteLog::record_size(&[&[0u8; 8]]);
        // The publisher's clock before each commit, i.e. before the
        // fetch-add that publishes it.
        let began = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let publisher = {
            let (cluster, began) = (Arc::clone(&cluster), Arc::clone(&began));
            std::thread::spawn(move || {
                let mut h = cluster.attach(1).unwrap();
                let mut ctx = Ctx::new();
                let log = LiteLog::open(&mut h, &mut ctx, "plog", 1 << 20).unwrap();
                // A second ahead of the reader, whose clock starts at 0.
                ctx.wait_until(1_000_000_000);
                for k in 0..RECORDS {
                    began.lock().push(ctx.now());
                    let off = log.commit(&mut h, &mut ctx, &[&k.to_le_bytes()]).unwrap();
                    assert_eq!(off, k * size);
                }
            })
        };
        let mut seen = 0;
        while seen < RECORDS {
            let n = log.committed(&mut h, &mut ctx).unwrap();
            assert!(n >= seen, "committed went backwards");
            if n > seen {
                assert!(
                    ctx.now() > began.lock()[n as usize - 1],
                    "saw {n} commits at {} ns, before the last of them began",
                    ctx.now()
                );
                let txn = log.read_at(&mut h, &mut ctx, (n - 1) * size).unwrap();
                assert_eq!(txn.entries, vec![(n - 1).to_le_bytes().to_vec()]);
            }
            seen = n;
        }
        publisher.join().unwrap();
    }

    #[test]
    fn cleaner_reclaims_in_order() {
        let cluster = LiteCluster::start(2).unwrap();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 1, "klog", 4096).unwrap();
        for i in 0..4u8 {
            log.commit(&mut h, &mut ctx, &[&[i; 16]]).unwrap();
        }
        let cleaned = log.clean(&mut h, &mut ctx, 1 << 20).unwrap();
        assert_eq!(cleaned.len(), 4);
        for (i, txn) in cleaned.iter().enumerate() {
            assert_eq!(txn.entries[0], vec![i as u8; 16]);
        }
        // Ring space is reusable: the log wraps past its capacity.
        for i in 0..120u8 {
            log.commit(&mut h, &mut ctx, &[&[i; 16]]).unwrap();
            if i % 8 == 7 {
                log.clean(&mut h, &mut ctx, 1 << 20).unwrap();
            }
        }
    }

    /// Records whose sizes do not divide the ring land split at the wrap
    /// point — two writes and the publish in one chain — and read back
    /// whole, lap after lap, with the count exact.
    #[test]
    fn records_split_at_the_wrap_point_read_back() {
        const CAPACITY: u64 = 1000;
        let cluster = LiteCluster::start(2).unwrap();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 1, "wlog", CAPACITY).unwrap();
        let mut split = 0;
        for i in 0..200u64 {
            let entry = vec![i as u8; 20 + (i % 7) as usize * 8];
            let off = log.commit(&mut h, &mut ctx, &[&entry]).unwrap();
            let size = LiteLog::record_size(&[&entry]);
            split += u32::from(off % CAPACITY + size > CAPACITY);
            let txn = log.read_at(&mut h, &mut ctx, off).unwrap();
            assert_eq!(txn.entries, vec![entry], "record {i} at {off}");
            assert_eq!(log.committed(&mut h, &mut ctx).unwrap(), i + 1);
            let cleaned = log.clean(&mut h, &mut ctx, size).unwrap();
            assert_eq!(cleaned, vec![txn]);
        }
        assert!(split >= 5, "only {split} records crossed the wrap point");
    }

    /// The cleaner works a chunk at a time: records cut off by the end of
    /// a chunk, one longer than any chunk, a budget that ends mid-way and a
    /// slot reserved but never written all come out right, in a number of
    /// verbs that goes with the bytes, not with the records.
    #[test]
    fn cleaner_reclaims_by_the_chunk() {
        let cluster = LiteCluster::start(2).unwrap();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 1, "chlog", 1 << 20).unwrap();
        // ~180 KiB of small records of six sizes, then one of 100 KiB.
        let mut entries: Vec<Vec<u8>> = (0..3000u32)
            .map(|i| vec![i as u8; 20 + (i % 6) as usize * 12])
            .collect();
        entries.push(vec![0xEE; 100 * 1024]);
        let offsets: Vec<u64> = entries
            .iter()
            .map(|e| log.commit(&mut h, &mut ctx, &[e]).unwrap())
            .collect();
        // A writer that reserved and went away, and a record behind it.
        let hole = h.lt_fetch_add(&mut ctx, log.lh, META_RESERVED, 64).unwrap();
        log.commit(&mut h, &mut ctx, &[b"behind the hole"]).unwrap();

        let verbs = || {
            let of = |n| cluster.fabric().nic(n).stats().one_sided_ops;
            of(0) + of(1)
        };
        let before = verbs();
        // A budget that ends inside the small records: whole records only,
        // the last one overshooting it as the record-at-a-time cleaner did.
        let first = log.clean(&mut h, &mut ctx, 100_000).unwrap();
        let reclaimed = offsets[first.len()];
        assert!((100_000..100_100).contains(&reclaimed), "{reclaimed}");
        // The rest: up to the hole and no further, however large the budget.
        let rest = log.clean(&mut h, &mut ctx, u64::MAX).unwrap();
        assert_eq!(first.len() + rest.len(), entries.len());
        for ((txn, entry), off) in first.iter().chain(&rest).zip(&entries).zip(&offsets) {
            assert_eq!((txn.offset, &txn.entries[0]), (*off, entry));
        }
        assert!(
            verbs() - before < 40,
            "{} verbs to clean 280 KiB",
            verbs() - before
        );
        assert!(log.clean(&mut h, &mut ctx, u64::MAX).unwrap().is_empty());
        // What was cleaned reads as never written.
        assert!(matches!(
            log.read_at(&mut h, &mut ctx, offsets[7]),
            Err(LiteError::Remote(0xA0))
        ));
        let mut cleaned = [0u8; 8];
        h.lt_read(&mut ctx, log.lh, META_CLEANED, &mut cleaned)
            .unwrap();
        assert_eq!(u64::from_le_bytes(cleaned), hole);
    }

    /// One read brings back a batch of records, lap after lap: the records
    /// split at the wrap point come back whole, and so does a read whose
    /// own span wraps.
    #[test]
    fn read_from_reads_records_split_at_the_wrap_point() {
        const CAPACITY: u64 = 1000;
        let cluster = LiteCluster::start(2).unwrap();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 1, "rwlog", CAPACITY).unwrap();
        let (mut pos, mut split) = (0u64, 0);
        for lap in 0..60u64 {
            let batch: Vec<Vec<u8>> = (0..4)
                .map(|i| vec![(lap * 4 + i) as u8; 20 + ((lap + i) % 5) as usize * 8])
                .collect();
            let offsets: Vec<u64> = batch
                .iter()
                .map(|e| log.commit(&mut h, &mut ctx, &[e]).unwrap())
                .collect();
            let end = offsets[3] + LiteLog::record_size(&[&batch[3]]);
            split += offsets
                .iter()
                .zip(&batch)
                .filter(|(off, e)| *off % CAPACITY + LiteLog::record_size(&[e]) > CAPACITY)
                .count();
            let txns = log
                .read_from(&mut h, &mut ctx, pos, end - pos, usize::MAX)
                .unwrap();
            let got: Vec<(u64, &[u8])> =
                txns.iter().map(|t| (t.offset, &t.entries[0][..])).collect();
            let want: Vec<(u64, &[u8])> = offsets
                .iter()
                .copied()
                .zip(batch.iter().map(|e| &e[..]))
                .collect();
            assert_eq!(got, want, "lap {lap}");
            log.clean(&mut h, &mut ctx, end - pos).unwrap();
            pos = end;
        }
        assert!(split >= 5, "only {split} records crossed the wrap point");
    }

    /// The read stops at the first record reserved but not written, at the
    /// record cap, and at the end of its bytes — and a record longer than
    /// the bytes asked for comes back whole.
    #[test]
    fn read_from_stops_at_an_unwritten_record_and_at_the_caps() {
        let cluster = LiteCluster::start(2).unwrap();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 1, "rclog", 1 << 20).unwrap();
        let entries: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 24]).collect();
        for e in &entries {
            log.commit(&mut h, &mut ctx, &[e]).unwrap();
        }
        let size = LiteLog::record_size(&[&entries[0]]);
        // A writer that reserved and went away, and a record behind it.
        let hole = h.lt_fetch_add(&mut ctx, log.lh, META_RESERVED, 64).unwrap();
        log.commit(&mut h, &mut ctx, &[b"behind the hole"]).unwrap();
        let read = |h: &mut LiteHandle, ctx: &mut Ctx, off: u64, bytes: u64, records: usize| {
            let txns = log.read_from(h, ctx, off, bytes, records).unwrap();
            txns.into_iter()
                .map(|t| t.entries[0][0])
                .collect::<Vec<u8>>()
        };
        let all: Vec<u8> = (0..10).collect();
        assert_eq!(read(&mut h, &mut ctx, 0, 1 << 16, usize::MAX), all);
        assert_eq!(read(&mut h, &mut ctx, 0, 1 << 16, 4), [0, 1, 2, 3]);
        assert_eq!(read(&mut h, &mut ctx, 3 * size, 1 << 16, 2), [3, 4]);
        assert_eq!(
            read(&mut h, &mut ctx, 0, 3 * size + 8, usize::MAX),
            [0, 1, 2]
        );
        assert_eq!(
            read(&mut h, &mut ctx, hole, 1 << 16, usize::MAX),
            Vec::<u8>::new()
        );
        assert_eq!(read(&mut h, &mut ctx, 0, 1 << 16, 0), Vec::<u8>::new());
        // Fewer bytes than the first record: it is read whole regardless.
        let big = vec![0xBB; 5000];
        let off = log.commit(&mut h, &mut ctx, &[&big]).unwrap();
        let txns = log
            .read_from(&mut h, &mut ctx, off, 64, usize::MAX)
            .unwrap();
        assert_eq!(
            txns,
            vec![Txn {
                offset: off,
                entries: vec![big]
            }]
        );
    }

    #[test]
    fn full_ring_reports_error() {
        let cluster = LiteCluster::start(2).unwrap();
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let log = LiteLog::create(&mut h, &mut ctx, 1, "flog", 1024).unwrap();
        let big = vec![7u8; 400];
        log.commit(&mut h, &mut ctx, &[&big]).unwrap();
        log.commit(&mut h, &mut ctx, &[&big]).unwrap();
        assert!(matches!(
            log.commit(&mut h, &mut ctx, &[&big]),
            Err(LiteError::OutOfBounds { .. })
        ));
    }
}

#![warn(missing_docs)]

//! LITE-Log: distributed atomic logging on LITE one-sided operations
//! (paper §8.1).
//!
//! The "one-sided concept pushed to an extreme": the global log and its
//! metadata live in LMRs on some node, and *creation, maintenance, and
//! access are performed entirely from remote* — the log's home node runs
//! no log code at all.
//!
//! Layout:
//!
//! * a metadata LMR holding three 64-bit words — `reserved` (bytes handed
//!   to writers), `committed` (transactions fully written), and `cleaned`
//!   (bytes reclaimed by the cleaner);
//! * a data LMR of `capacity` bytes used as a ring.
//!
//! Commit protocol (buffer locally → reserve → write → publish):
//!
//! 1. the writer buffers entries locally until commit time;
//! 2. `LT_fetch-add(reserved, total)` reserves a consecutive span;
//! 3. `LT_write` lands the whole transaction in one one-sided write;
//! 4. `LT_fetch-add(committed, 1)` publishes it.
//!
//! The cleaner scans committed transactions with `LT_read` and reclaims
//! space with `LT_fetch-add(cleaned, n)`.

use lite::{Lh, LiteError, LiteHandle, LiteResult, Perm};
use simnet::Ctx;

/// Byte offsets of the metadata words.
const META_RESERVED: u64 = 0;
const META_COMMITTED: u64 = 8;
const META_CLEANED: u64 = 16;
/// Metadata LMR size.
const META_BYTES: u64 = 64;

/// Magic tag heading each transaction record.
const TXN_MAGIC: u32 = 0x4C4F_4721; // "LOG!"

/// A writer's (or the cleaner's) view of one distributed log.
///
/// Each process opens its own `LiteLog` (lh's are per-process); all views
/// name the same pair of LMRs.
pub struct LiteLog {
    meta: Lh,
    data: Lh,
    capacity: u64,
    /// Client-side cache of the cleaner watermark: re-read (one LT_read)
    /// only when a reservation would overrun it, instead of on every
    /// commit. Keeps the commit fast path at fetch-add + write +
    /// fetch-add.
    cleaned_cache: std::cell::Cell<u64>,
}

/// One decoded transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    /// Byte offset of the record in the log.
    pub offset: u64,
    /// The entries committed together.
    pub entries: Vec<Vec<u8>>,
}

impl LiteLog {
    /// Creates the log LMRs on `home` and opens a view. `capacity` is the
    /// data-ring size in bytes.
    pub fn create(
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        home: usize,
        name: &str,
        capacity: u64,
    ) -> LiteResult<LiteLog> {
        let meta = h.lt_malloc(ctx, home, META_BYTES, &format!("{name}.meta"), Perm::RW)?;
        let data = h.lt_malloc(ctx, home, capacity, &format!("{name}.data"), Perm::RW)?;
        h.lt_memset(ctx, meta, 0, META_BYTES as usize, 0)?;
        Ok(LiteLog {
            meta,
            data,
            capacity,
            cleaned_cache: std::cell::Cell::new(0),
        })
    }

    /// Opens an existing log by name from any node.
    pub fn open(
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        name: &str,
        capacity: u64,
    ) -> LiteResult<LiteLog> {
        let meta = h.lt_map(ctx, &format!("{name}.meta"))?;
        let data = h.lt_map(ctx, &format!("{name}.data"))?;
        Ok(LiteLog {
            meta,
            data,
            capacity,
            cleaned_cache: std::cell::Cell::new(0),
        })
    }

    /// Serialized size of a transaction with these entries.
    pub fn record_size(entries: &[&[u8]]) -> u64 {
        // magic + total + count, then (len, bytes) per entry.
        let mut sz = 12u64;
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
        let start = h.lt_fetch_add(ctx, self.meta, META_RESERVED, size)?;
        // Capacity check against the cached cleaner watermark; refresh it
        // (one LT_read) only when the cache says we would overrun.
        if start + size - self.cleaned_cache.get() > self.capacity {
            let mut b = [0u8; 8];
            h.lt_read(ctx, self.meta, META_CLEANED, &mut b)?;
            self.cleaned_cache.set(u64::from_le_bytes(b));
        }
        if start + size - self.cleaned_cache.get() > self.capacity {
            return Err(LiteError::OutOfBounds {
                offset: start,
                len: size as usize,
            });
        }
        // Serialize and write with a single LT_write.
        let mut rec = Vec::with_capacity(size as usize);
        rec.extend_from_slice(&TXN_MAGIC.to_le_bytes());
        rec.extend_from_slice(&(size as u32).to_le_bytes());
        rec.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in entries {
            rec.extend_from_slice(&(e.len() as u32).to_le_bytes());
            rec.extend_from_slice(e);
        }
        rec.resize(size as usize, 0);
        let ring_off = start % self.capacity;
        if ring_off + size <= self.capacity {
            h.lt_write(ctx, self.data, ring_off, &rec)?;
        } else {
            // Split the write at the wrap point.
            let first = (self.capacity - ring_off) as usize;
            h.lt_write(ctx, self.data, ring_off, &rec[..first])?;
            h.lt_write(ctx, self.data, 0, &rec[first..])?;
        }
        // Publish.
        h.lt_fetch_add(ctx, self.meta, META_COMMITTED, 1)?;
        Ok(start)
    }

    /// Number of committed transactions.
    pub fn committed(&self, h: &mut LiteHandle, ctx: &mut Ctx) -> LiteResult<u64> {
        let mut b = [0u8; 8];
        h.lt_read(ctx, self.meta, META_COMMITTED, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads the transaction at `offset` (entirely from remote).
    pub fn read_at(&self, h: &mut LiteHandle, ctx: &mut Ctx, offset: u64) -> LiteResult<Txn> {
        let mut hdr = [0u8; 12];
        self.read_ring(h, ctx, offset, &mut hdr)?;
        let magic = u32::from_le_bytes(hdr[0..4].try_into().expect("4"));
        if magic != TXN_MAGIC {
            return Err(LiteError::Remote(0xA0));
        }
        let size = u32::from_le_bytes(hdr[4..8].try_into().expect("4")) as u64;
        let count = u32::from_le_bytes(hdr[8..12].try_into().expect("4")) as usize;
        let mut body = vec![0u8; (size - 12) as usize];
        self.read_ring(h, ctx, offset + 12, &mut body)?;
        let mut entries = Vec::with_capacity(count);
        let mut pos = 0usize;
        for _ in 0..count {
            let len = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4")) as usize;
            pos += 4;
            entries.push(body[pos..pos + len].to_vec());
            pos += len;
        }
        Ok(Txn { offset, entries })
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
            h.lt_read(ctx, self.data, ring_off, buf)?;
        } else {
            let first = (self.capacity - ring_off) as usize;
            h.lt_read(ctx, self.data, ring_off, &mut buf[..first])?;
            h.lt_read(ctx, self.data, 0, &mut buf[first..])?;
        }
        Ok(())
    }

    /// Cleaner step: scans forward from `cleaned`, validates records, and
    /// reclaims up to `max_bytes`. Returns the transactions reclaimed.
    /// Runs entirely from remote, like everything else here.
    pub fn clean(&self, h: &mut LiteHandle, ctx: &mut Ctx, max_bytes: u64) -> LiteResult<Vec<Txn>> {
        let mut b = [0u8; 8];
        h.lt_read(ctx, self.meta, META_CLEANED, &mut b)?;
        let mut pos = u64::from_le_bytes(b);
        h.lt_read(ctx, self.meta, META_RESERVED, &mut b)?;
        let reserved = u64::from_le_bytes(b);
        let mut out = Vec::new();
        let mut reclaimed = 0u64;
        while pos < reserved && reclaimed < max_bytes {
            let txn = match self.read_at(h, ctx, pos) {
                Ok(t) => t,
                // An in-flight record (reserved but not yet written) stops
                // the scan; the cleaner retries later.
                Err(LiteError::Remote(0xA0)) => break,
                Err(e) => return Err(e),
            };
            let mut hdr = [0u8; 12];
            self.read_ring(h, ctx, pos, &mut hdr)?;
            let size = u32::from_le_bytes(hdr[4..8].try_into().expect("4")) as u64;
            // Reclaim: advance `cleaned` and scrub the magic so the slot
            // cannot be mistaken for a live record after wrap.
            h.lt_write(ctx, self.data, pos % self.capacity, &[0u8; 4])?;
            h.lt_fetch_add(ctx, self.meta, META_CLEANED, size)?;
            pos += size;
            reclaimed += size;
            out.push(txn);
        }
        Ok(out)
    }
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

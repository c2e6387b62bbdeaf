#![warn(missing_docs)]

//! LITE-DSM: a kernel-level distributed shared memory system on LITE
//! (paper §8.4).
//!
//! Semantics: multiple-reader / single-writer (MRSW) with release
//! consistency, home-based like HLRC. Every 4 KB page has a *home node*
//! (round-robin); the authoritative copy lives in an LMR on the home.
//!
//! * **Reads** are one-sided `LT_read`s from the home — no home CPU on
//!   the data path. Pages are cached locally; the first caching of a page
//!   registers this node as a sharer with the home (so invalidations can
//!   find it later).
//! * **Writes** require `acquire(pages)` — a LITE distributed lock per
//!   page (the MRSW write token) plus a fresh fetch. `release()` pushes
//!   dirty pages to their homes with `LT_write`, asks each home (via
//!   `LT_RPC`) which other nodes share them, invalidates those sharers
//!   itself with multicast RPC, then unlocks.
//!
//! The DSM protocol is exactly the paper's showcase of LITE's API mix:
//! one-sided ops for data, RPC for protocol metadata, locks for mutual
//! exclusion, and multicast RPC for invalidation (§8.4 motivated LITE's
//! multicast extension). Both RPC functions are served
//! ([`LiteHandle::serve_rpc`]): a call runs on the thread it lands on, and
//! the DSM runs no thread of its own.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use lite::{
    Lh, LiteCluster, LiteError, LiteHandle, LiteResult, LockId, Perm, RpcHandler, RpcServer,
    USER_FUNC_MIN,
};
use parking_lot::Mutex;
use simnet::{Ctx, Nanos};

/// DSM page size.
pub const PAGE: usize = 4096;

/// RPC function ids (kept near the top of the user range so applications
/// built *on* the DSM can use lower ids).
const DSM_INV: u8 = 250;
const DSM_CTL: u8 = 251;

/// Control ops.
const OP_REG: u8 = 1;
const OP_REL: u8 = 2;
const OP_INV: u8 = 4;

/// Cost of taking the (simulated) page-fault path on a cache miss —
/// LITE-DSM intercepts the kernel fault handler (§8.4).
const FAULT_NS: Nanos = 3_000;
/// Cost of a local cache hit (mapped-page access + bookkeeping).
const HIT_NS: Nanos = 150;

static _ASSERT_RANGE: () = assert!(DSM_INV >= USER_FUNC_MIN);

#[derive(Default)]
struct NodeState {
    /// This node's cached pages.
    cache: Mutex<HashMap<u32, Vec<u8>>>,
    /// Home-side sharer lists for pages homed here.
    sharers: Mutex<HashMap<u32, HashSet<usize>>>,
}

impl NodeState {
    /// Drops this node's cached copies of `pages` (what `DSM_INV` does).
    fn invalidate(&self, pages: impl IntoIterator<Item = u32>) {
        let mut cache = self.cache.lock();
        for page in pages {
            cache.remove(&page);
        }
    }
}

/// Page numbers packed as little-endian `u32`s.
fn pages_of(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
}

/// One node's server of `DSM_INV` and `DSM_CTL`. Each function runs on a
/// clock of its own, as each had a server thread of its own. It owns the
/// node's state, never the [`DsmCluster`], so dropping the DSM unbinds it.
struct NodeServer {
    state: Arc<NodeState>,
    inv: Ctx,
    ctl: Ctx,
}

impl NodeServer {
    /// A release of the pages in `input` by node `from`: only the writer
    /// keeps a (fresh) copy, and it must be on record so a *later*
    /// writer's release invalidates it too. Replies `0`, then each other
    /// sharer as (node `u8`, page count `u32`, pages) for the releaser to
    /// invalidate.
    fn release(&self, from: usize, input: &[u8], reply: &mut Vec<u8>) {
        let mut victims: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        let mut sharers = self.state.sharers.lock();
        for page in pages_of(input) {
            let set = sharers.entry(page).or_default();
            for &s in set.iter().filter(|&&s| s != from) {
                victims.entry(s).or_default().push(page);
            }
            set.clear();
            set.insert(from);
        }
        drop(sharers);
        reply.push(0);
        for (t, pages) in victims {
            reply.push(t as u8);
            reply.extend_from_slice(&(pages.len() as u32).to_le_bytes());
            for p in pages {
                reply.extend_from_slice(&p.to_le_bytes());
            }
        }
    }
}

impl RpcHandler for NodeServer {
    fn ctx(&mut self, func: u8) -> &mut Ctx {
        if func == DSM_INV {
            &mut self.inv
        } else {
            &mut self.ctl
        }
    }

    fn call(&mut self, _h: &mut LiteHandle, func: u8, input: &[u8], reply: &mut Vec<u8>) {
        match (func, input) {
            (DSM_INV, [OP_INV, pages @ ..]) => {
                self.state.invalidate(pages_of(pages));
                reply.push(0);
            }
            // Batched: [OP_REG, sharer, page u32 ...].
            (DSM_CTL, [OP_REG, sharer, pages @ ..]) => {
                let mut sharers = self.state.sharers.lock();
                for page in pages_of(pages) {
                    sharers.entry(page).or_default().insert(*sharer as usize);
                }
                reply.push(0);
            }
            (DSM_CTL, [OP_REL, from, pages @ ..]) => self.release(*from as usize, pages, reply),
            _ => reply.push(0xFF),
        }
    }
}

/// The cluster-wide DSM instance: per-node caches and servers, and the
/// page→home/lock directory.
pub struct DsmCluster {
    cluster: Arc<LiteCluster>,
    nodes: usize,
    pages: u32,
    states: Vec<Arc<NodeState>>,
    page_locks: Vec<LockId>,
    /// Each node's server; the DSM's functions are served while they live.
    _servers: Vec<Arc<RpcServer>>,
    /// The virtual time set-up ended at ([`DsmCluster::ready_at`]).
    ready_at: Nanos,
}

impl DsmCluster {
    /// Home node of a page.
    pub fn home_of(&self, page: u32) -> usize {
        page as usize % self.nodes
    }

    /// Extent offset of `page` inside its home LMR.
    fn home_offset(&self, page: u32) -> u64 {
        (page as u64 / self.nodes as u64) * PAGE as u64
    }

    /// The runs of `pages` (sorted, one home's) that lie contiguous in the
    /// home's LMR: pages `nodes` apart.
    fn runs<'a>(&self, pages: &'a [u32]) -> impl Iterator<Item = &'a [u32]> {
        let stride = self.nodes as u32;
        pages.chunk_by(move |a, b| *b == a + stride)
    }

    /// Creates a DSM of `total_bytes` (rounded up to pages) over every
    /// node of `cluster`, allocating home LMRs and per-page locks and
    /// serving the DSM's two RPC functions on every node. Dropping the
    /// DSM (and its handles) unbinds them.
    pub fn create(cluster: &Arc<LiteCluster>, total_bytes: u64) -> LiteResult<Arc<DsmCluster>> {
        let nodes = cluster.num_nodes();
        let pages = total_bytes.div_ceil(PAGE as u64) as u32;
        // Home LMRs, named per home node, created by a handle on node 0.
        let mut ctx = Ctx::new();
        let mut h0 = cluster.attach_kernel(0)?;
        for n in 0..nodes {
            let count = (pages as u64 + nodes as u64 - 1 - n as u64) / nodes as u64;
            let bytes = (count.max(1)) * PAGE as u64;
            h0.lt_malloc(&mut ctx, n, bytes, &format!("dsm.home.{n}"), Perm::RW)?;
        }
        // Per-page write-token locks, owned by each page's home node.
        let mut lock_handles: Vec<LiteHandle> = (0..nodes)
            .map(|n| cluster.attach_kernel(n))
            .collect::<LiteResult<_>>()?;
        let mut page_locks = Vec::with_capacity(pages as usize);
        for p in 0..pages {
            let home = p as usize % nodes;
            page_locks.push(lock_handles[home].lt_create_lock(&mut ctx)?);
        }
        let states: Vec<Arc<NodeState>> = (0..nodes).map(|_| Arc::default()).collect();
        let servers = states
            .iter()
            .enumerate()
            .map(|(n, state)| {
                let server = NodeServer {
                    state: Arc::clone(state),
                    inv: Ctx::new(),
                    ctl: Ctx::new(),
                };
                cluster
                    .attach_kernel(n)?
                    .serve_rpc(&[DSM_INV, DSM_CTL], server)
            })
            .collect::<LiteResult<_>>()?;
        Ok(Arc::new(DsmCluster {
            cluster: Arc::clone(cluster),
            nodes,
            pages,
            states,
            page_locks,
            _servers: servers,
            ready_at: ctx.now(),
        }))
    }

    /// The virtual time set-up ended at: registering the homes moved the
    /// homes' clocks there, so a client that starts earlier pays the rest
    /// of set-up in its first call to each home.
    pub fn ready_at(&self) -> Nanos {
        self.ready_at
    }

    /// Total DSM size in bytes.
    pub fn len(&self) -> u64 {
        self.pages as u64 * PAGE as u64
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// Opens a per-thread handle on `node`.
    pub fn handle(self: &Arc<Self>, node: usize) -> LiteResult<DsmHandle> {
        let mut lite = self.cluster.attach_kernel(node)?;
        let mut ctx = Ctx::new();
        let mut homes = Vec::with_capacity(self.nodes);
        for n in 0..self.nodes {
            homes.push(lite.lt_map(&mut ctx, &format!("dsm.home.{n}"))?);
        }
        Ok(DsmHandle {
            dsm: Arc::clone(self),
            node,
            lite,
            homes,
            held: Vec::new(),
            dirty: HashMap::new(),
        })
    }
}

/// One thread's DSM endpoint on one node.
pub struct DsmHandle {
    dsm: Arc<DsmCluster>,
    node: usize,
    lite: LiteHandle,
    /// lh of each home LMR, indexed by home node.
    homes: Vec<Lh>,
    /// Pages whose write token we hold, sorted.
    held: Vec<u32>,
    /// Local dirty copies of held pages.
    dirty: HashMap<u32, Vec<u8>>,
}

impl DsmHandle {
    fn page_range(addr: u64, len: usize) -> std::ops::RangeInclusive<u32> {
        let first = (addr / PAGE as u64) as u32;
        let last = ((addr + len.max(1) as u64 - 1) / PAGE as u64) as u32;
        first..=last
    }

    fn check_bounds(&self, addr: u64, len: usize) -> LiteResult<()> {
        if addr + len as u64 > self.dsm.len() {
            return Err(LiteError::OutOfBounds { offset: addr, len });
        }
        Ok(())
    }

    /// Fetches a batch of pages into the local cache with as few
    /// one-sided reads as possible: pages with the same home node sit at
    /// stride-1 offsets in that home's LMR, so each home contributes one
    /// `LT_read` per contiguous run. Sharer registration is batched too
    /// (one RPC per home). This is the "exchange as much as possible in a
    /// single round trip" engineering of §8.4.
    fn fault_in_batch(&mut self, ctx: &mut Ctx, pages: &[u32]) -> LiteResult<()> {
        if pages.is_empty() {
            return Ok(());
        }
        ctx.work(FAULT_NS + (pages.len() as u64 - 1) * FAULT_NS / 8);
        let mut by_home: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for &p in pages {
            by_home.entry(self.dsm.home_of(p)).or_default().push(p);
        }
        for (home, mut plist) in by_home {
            plist.sort_unstable();
            for run in self.dsm.runs(&plist) {
                let mut buf = vec![0u8; run.len() * PAGE];
                let off = self.dsm.home_offset(run[0]);
                self.lite.lt_read(ctx, self.homes[home], off, &mut buf)?;
                let mut cache = self.dsm.states[self.node].cache.lock();
                for (p, chunk) in run.iter().zip(buf.chunks_exact(PAGE)) {
                    cache.insert(*p, chunk.to_vec());
                }
            }
            if home != self.node {
                let mut reg = vec![OP_REG, self.node as u8];
                for p in &plist {
                    reg.extend_from_slice(&p.to_le_bytes());
                }
                self.lite.lt_rpc(ctx, home, DSM_CTL, &reg, 16)?;
            } else {
                // Pages homed here can still be *owned* by a remote
                // writer (homes are striped): record ourselves directly
                // so its releases invalidate our cached copy.
                let mut sharers = self.dsm.states[self.node].sharers.lock();
                for p in &plist {
                    sharers.entry(*p).or_default().insert(self.node);
                }
            }
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at global address `addr`. Never involves
    /// the home CPU when the pages are cached; misses are fetched in
    /// batched one-sided reads.
    pub fn read(&mut self, ctx: &mut Ctx, addr: u64, buf: &mut [u8]) -> LiteResult<()> {
        self.read_between(ctx, addr, buf, |_| {})
    }

    /// [`Self::read`], running `between` on this node's state after each
    /// fault-in and before the pages are looked up again: where a test
    /// plays a concurrent release's invalidation.
    fn read_between(
        &mut self,
        ctx: &mut Ctx,
        addr: u64,
        buf: &mut [u8],
        mut between: impl FnMut(&NodeState),
    ) -> LiteResult<()> {
        self.check_bounds(addr, buf.len())?;
        // Fault in every uncached page of the range up front, then copy
        // under one cache guard. A concurrent release's invalidation can
        // drop a page in between: it is faulted in again.
        let state = Arc::clone(&self.dsm.states[self.node]);
        loop {
            let cache = state.cache.lock();
            let missing: Vec<u32> = Self::page_range(addr, buf.len())
                .filter(|p| !self.dirty.contains_key(p) && !cache.contains_key(p))
                .collect();
            if missing.is_empty() {
                self.copy_out(ctx, &cache, addr, buf);
                return Ok(());
            }
            drop(cache);
            self.fault_in_batch(ctx, &missing)?;
            between(&state);
        }
    }

    /// Copies `[addr, addr + buf.len())` into `buf` from the dirty copies
    /// (our own in-flight writes win) and `cache`, which holds every
    /// other page of the range.
    fn copy_out(&self, ctx: &mut Ctx, cache: &HashMap<u32, Vec<u8>>, addr: u64, buf: &mut [u8]) {
        let mut pos = 0usize;
        let mut cur = addr;
        while pos < buf.len() {
            let page = (cur / PAGE as u64) as u32;
            let in_page = (cur % PAGE as u64) as usize;
            let n = (PAGE - in_page).min(buf.len() - pos);
            let p = match self.dirty.get(&page) {
                Some(d) => d,
                None => &cache[&page],
            };
            buf[pos..pos + n].copy_from_slice(&p[in_page..in_page + n]);
            ctx.work(HIT_NS);
            pos += n;
            cur += n as u64;
        }
    }

    /// Acquires the write tokens for every page overlapping
    /// `[addr, addr+len)` and fetches fresh copies (release-consistency
    /// acquire).
    pub fn acquire(&mut self, ctx: &mut Ctx, addr: u64, len: usize) -> LiteResult<()> {
        self.acquire_inner(ctx, addr, len, true)
    }

    /// Like [`DsmHandle::acquire`], but skips the fresh fetch — the
    /// standard whole-page-overwrite optimization. The caller must
    /// overwrite every acquired byte before the next flush/release, or
    /// stale zeroes land at the home.
    pub fn acquire_for_overwrite(
        &mut self,
        ctx: &mut Ctx,
        addr: u64,
        len: usize,
    ) -> LiteResult<()> {
        self.acquire_inner(ctx, addr, len, false)
    }

    fn acquire_inner(
        &mut self,
        ctx: &mut Ctx,
        addr: u64,
        len: usize,
        fetch: bool,
    ) -> LiteResult<()> {
        self.check_bounds(addr, len)?;
        let mut pages: Vec<u32> = Self::page_range(addr, len).collect();
        pages.retain(|p| !self.held.contains(p));
        pages.sort_unstable(); // deadlock-free global order
        for &p in &pages {
            self.lite.lt_lock(ctx, self.dsm.page_locks[p as usize])?;
            self.held.push(p);
        }
        if fetch {
            // Fresh copies under the tokens, batched: drop any stale cached
            // copies first so the batch refetches.
            let mut cache = self.dsm.states[self.node].cache.lock();
            for p in &pages {
                cache.remove(p);
            }
            drop(cache);
            self.fault_in_batch(ctx, &pages)?;
            let cache = self.dsm.states[self.node].cache.lock();
            for p in &pages {
                self.dirty
                    .insert(*p, cache.get(p).expect("faulted").clone());
            }
        } else {
            for p in &pages {
                self.dirty.insert(*p, vec![0u8; PAGE]);
            }
        }
        self.held.sort_unstable();
        Ok(())
    }

    /// Writes under held tokens; buffered locally until `release`.
    pub fn write(&mut self, ctx: &mut Ctx, addr: u64, data: &[u8]) -> LiteResult<()> {
        self.check_bounds(addr, data.len())?;
        for p in Self::page_range(addr, data.len()) {
            if !self.held.contains(&p) {
                return Err(LiteError::PermissionDenied);
            }
        }
        let mut pos = 0usize;
        let mut cur = addr;
        while pos < data.len() {
            let page = (cur / PAGE as u64) as u32;
            let in_page = (cur % PAGE as u64) as usize;
            let n = (PAGE - in_page).min(data.len() - pos);
            let buf = self.dirty.get_mut(&page).expect("held implies buffered");
            buf[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
            ctx.work(HIT_NS);
            pos += n;
            cur += n as u64;
        }
        Ok(())
    }

    /// Flush: pushes dirty pages home (batched one-sided writes, one per
    /// contiguous run per home) and invalidates their other sharers, whom
    /// each home names in its reply — but *keeps* the write tokens and
    /// dirty buffers, so a steady-state writer (e.g. the graph engine
    /// publishing its segment every superstep) pays the lock cost once.
    pub fn flush(&mut self, ctx: &mut Ctx) -> LiteResult<()> {
        let mut by_home: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for &p in &self.held {
            if self.dirty.contains_key(&p) {
                by_home.entry(self.dsm.home_of(p)).or_default().push(p);
            }
        }
        let cache = &self.dsm.states[self.node].cache;
        for (&home, plist) in by_home.iter_mut() {
            plist.sort_unstable();
            for run in self.dsm.runs(plist) {
                let mut buf = Vec::with_capacity(run.len() * PAGE);
                for p in run {
                    let d = self.dirty.get(p).expect("dirty");
                    buf.extend_from_slice(d);
                    cache.lock().insert(*p, d.clone());
                }
                let off = self.dsm.home_offset(run[0]);
                self.lite.lt_write(ctx, self.homes[home], off, &buf)?;
            }
        }
        // Each home names the other sharers of its pages, and this node
        // invalidates them (multicast RPC, §8.4) before it returns. A failed
        // call stops none of the others: each home has already struck its
        // victims off its record. The first error is returned.
        let mut failed = None;
        for (home, pages) in by_home {
            let mut msg = vec![OP_REL, self.node as u8];
            for p in &pages {
                msg.extend_from_slice(&p.to_le_bytes());
            }
            let max_reply = 1 + (self.dsm.nodes - 1) * (5 + 4 * pages.len());
            let reply = match self.lite.lt_rpc(ctx, home, DSM_CTL, &msg, max_reply) {
                Ok(reply) => reply,
                Err(e) => {
                    failed.get_or_insert(e);
                    continue;
                }
            };
            let mut victims = reply.get(1..).unwrap_or_default();
            while let [t, n0, n1, n2, n3, rest @ ..] = victims {
                let len = u32::from_le_bytes([*n0, *n1, *n2, *n3]) as usize * 4;
                let (pages, rest) = rest.split_at(len.min(rest.len()));
                let mut inv = Vec::with_capacity(1 + pages.len());
                inv.push(OP_INV);
                inv.extend_from_slice(pages);
                let to = [*t as usize];
                let sent = self.lite.lt_multicast_rpc(ctx, &to, DSM_INV, &inv, 16);
                if let Err(e) = sent {
                    failed.get_or_insert(e);
                }
                victims = rest;
            }
        }
        failed.map_or(Ok(()), Err)
    }

    /// Releases: flush, then drop tokens and dirty buffers.
    pub fn release(&mut self, ctx: &mut Ctx) -> LiteResult<()> {
        self.flush(ctx)?;
        self.dirty.clear();
        for p in std::mem::take(&mut self.held) {
            self.lite.lt_unlock(ctx, self.dsm.page_locks[p as usize])?;
        }
        Ok(())
    }

    /// Number of pages currently cached on this handle's node.
    pub fn cached_pages(&self) -> usize {
        self.dsm.states[self.node].cache.lock().len()
    }

    /// The node this handle runs on.
    pub fn node(&self) -> usize {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(nodes: usize, bytes: u64) -> (Arc<LiteCluster>, Arc<DsmCluster>) {
        let cluster = LiteCluster::start(nodes).unwrap();
        let dsm = DsmCluster::create(&cluster, bytes).unwrap();
        (cluster, dsm)
    }

    #[test]
    fn write_then_read_across_nodes() {
        let (_c, dsm) = setup(3, 64 * 1024);
        let mut w = dsm.handle(0).unwrap();
        let mut r = dsm.handle(1).unwrap();
        let mut ctx = Ctx::new();
        w.acquire(&mut ctx, 5000, 100).unwrap();
        w.write(&mut ctx, 5000, b"hello dsm").unwrap();
        w.release(&mut ctx).unwrap();
        let mut buf = [0u8; 9];
        let mut rctx = Ctx::new();
        r.read(&mut rctx, 5000, &mut buf).unwrap();
        assert_eq!(&buf, b"hello dsm");
    }

    #[test]
    fn release_invalidates_stale_readers() {
        let (_c, dsm) = setup(2, 64 * 1024);
        let mut a = dsm.handle(0).unwrap();
        let mut b = dsm.handle(1).unwrap();
        let mut actx = Ctx::new();
        let mut bctx = Ctx::new();
        // b caches the page with the old value.
        a.acquire(&mut actx, 0, 8).unwrap();
        a.write(&mut actx, 0, &1u64.to_le_bytes()).unwrap();
        a.release(&mut actx).unwrap();
        let mut buf = [0u8; 8];
        b.read(&mut bctx, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 1);
        assert_eq!(b.cached_pages(), 1);
        // a writes again: b's cached copy must be invalidated.
        a.acquire(&mut actx, 0, 8).unwrap();
        a.write(&mut actx, 0, &2u64.to_le_bytes()).unwrap();
        a.release(&mut actx).unwrap();
        // The releaser invalidated b before its release returned.
        assert_eq!(b.cached_pages(), 0, "release left a stale copy cached");
        b.read(&mut bctx, 0, &mut buf).unwrap();
        assert_eq!(
            u64::from_le_bytes(buf),
            2,
            "stale copy served after release"
        );
    }

    #[test]
    fn a_failed_invalidation_stops_none_of_the_others() {
        let config = lite::LiteConfig {
            op_timeout: std::time::Duration::from_millis(150),
            ..Default::default()
        };
        let ib = rnic::IbConfig::with_nodes(3);
        let cluster = LiteCluster::start_with(ib, config).unwrap();
        let dsm = DsmCluster::create(&cluster, 64 * 1024).unwrap();
        // Pages 0 and 2 (homes 0 and 2), written by node 0, cached by
        // nodes 1 and 2.
        let addrs = [0, 2 * PAGE as u64];
        let mut w = dsm.handle(0).unwrap();
        let mut ctx = Ctx::new();
        let mut write = |w: &mut DsmHandle, v: u8| {
            for a in addrs {
                w.acquire(&mut ctx, a, PAGE).unwrap();
                w.write(&mut ctx, a, &[v; PAGE]).unwrap();
            }
            w.release(&mut ctx)
        };
        write(&mut w, 1).unwrap();
        let mut readers: Vec<_> = (1..3).map(|n| dsm.handle(n).unwrap()).collect();
        let mut buf = [0u8; PAGE];
        for r in &mut readers {
            for a in addrs {
                r.read(&mut Ctx::new(), a, &mut buf).unwrap();
            }
            assert_eq!(r.cached_pages(), 2);
        }
        // Node 1 goes down: it is each home's first victim, and node 2,
        // named after it by both homes, must still be invalidated.
        cluster.fabric().set_down(1, true);
        assert!(write(&mut w, 2).is_err(), "node 1's invalidation failed");
        assert_eq!(readers[1].cached_pages(), 0, "node 2 kept a stale copy");
        readers[1].read(&mut Ctx::new(), 0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; PAGE]);
    }

    /// An invalidation that lands after `read` faulted a page in and
    /// before it copied it out (a concurrent release's) makes the read
    /// fault the page again, and the read returns the fresh bytes.
    #[test]
    fn a_page_invalidated_after_its_fault_is_faulted_again() {
        let (_c, dsm) = setup(2, 64 * 1024);
        let mut w = dsm.handle(0).unwrap();
        let mut ctx = Ctx::new();
        w.acquire(&mut ctx, 0, 8).unwrap();
        w.write(&mut ctx, 0, &7u64.to_le_bytes()).unwrap();
        w.release(&mut ctx).unwrap();
        let mut r = dsm.handle(1).unwrap();
        let mut faults = 0;
        let invalidate_once = |state: &NodeState| {
            faults += 1;
            if faults == 1 {
                state.invalidate([0]);
            }
        };
        let mut buf = [0u8; 8];
        r.read_between(&mut Ctx::new(), 0, &mut buf, invalidate_once)
            .unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
        assert_eq!(r.cached_pages(), 1, "the page was faulted in again");
    }

    #[test]
    fn writes_without_token_rejected() {
        let (_c, dsm) = setup(2, 16 * 1024);
        let mut h = dsm.handle(0).unwrap();
        let mut ctx = Ctx::new();
        assert_eq!(
            h.write(&mut ctx, 0, b"nope"),
            Err(LiteError::PermissionDenied)
        );
        assert!(matches!(
            h.read(&mut ctx, 16 * 1024 - 2, &mut [0u8; 8]),
            Err(LiteError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn mrsw_single_writer_counter() {
        let (_c, dsm) = setup(3, 16 * 1024);
        let mut joins = Vec::new();
        for node in 0..3 {
            let dsm = Arc::clone(&dsm);
            joins.push(std::thread::spawn(move || {
                let mut h = dsm.handle(node).unwrap();
                let mut ctx = Ctx::new();
                for _ in 0..10 {
                    h.acquire(&mut ctx, 0, 8).unwrap();
                    let mut buf = [0u8; 8];
                    h.read(&mut ctx, 0, &mut buf).unwrap();
                    let v = u64::from_le_bytes(buf);
                    h.write(&mut ctx, 0, &(v + 1).to_le_bytes()).unwrap();
                    h.release(&mut ctx).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut h = dsm.handle(1).unwrap();
        let mut ctx = Ctx::new();
        let mut buf = [0u8; 8];
        h.read(&mut ctx, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 30, "increments must not be lost");
    }

    #[test]
    fn cross_page_ops() {
        let (_c, dsm) = setup(2, 64 * 1024);
        let mut h = dsm.handle(1).unwrap();
        let mut ctx = Ctx::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        h.acquire(&mut ctx, 1000, data.len()).unwrap();
        h.write(&mut ctx, 1000, &data).unwrap();
        h.release(&mut ctx).unwrap();
        let mut buf = vec![0u8; data.len()];
        let mut h2 = dsm.handle(0).unwrap();
        let mut ctx2 = Ctx::new();
        h2.read(&mut ctx2, 1000, &mut buf).unwrap();
        assert_eq!(buf, data);
    }
}

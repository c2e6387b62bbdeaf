//! FCFS resources: the queueing model behind every shared hardware unit.
//!
//! A [`Resource`] is a rate-1 fluid server with a pipeline window
//! (`slack`): it accumulates up to `slack` nanoseconds of idle credit;
//! each grant consumes its service time from the credit, and a grant that
//! finds the credit exhausted (true backlog) starts late by the deficit.
//! This keeps three properties that a naive single-`next_free` timestamp
//! cannot provide simultaneously under out-of-(virtual-)order arrivals
//! from real threads:
//!
//! 1. **Exact saturation rate** — total service per virtual second never
//!    exceeds 1 (the deficit grows once credit is gone).
//! 2. **Work conservation** — an idle server never delays anyone, no
//!    matter what far-future grants were scheduled (future arrivals
//!    refill credit before consuming it).
//! 3. **Bounded pipelining** — at most `slack` of service can start
//!    "immediately" around the same instant, modeling NIC WQE pipelines
//!    and socket buffers. `slack == 0` is a strict one-at-a-time server.

use parking_lot::Mutex;

use crate::time::Nanos;

/// The grant returned by [`Resource::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (>= requester's `now`).
    pub start: Nanos,
    /// When service completed. The requester should `join` its clock with
    /// this if the operation is synchronous.
    pub finish: Nanos,
}

impl Grant {
    /// Queueing delay experienced before service started.
    pub fn wait(&self, now: Nanos) -> Nanos {
        self.start.saturating_sub(now)
    }
}

/// The unlocked fluid server: the queueing math behind [`Resource`],
/// for an owner that already holds a lock over it and more (a NIC keeps
/// its engine and links under the one lock a post takes). See the module
/// docs.
#[derive(Debug)]
pub struct Fluid {
    /// Idle credit (ns of service available), ≤ slack; negative = backlog.
    credit: i64,
    /// Virtual time the credit was computed at.
    as_of: Nanos,
    /// Total service handed out (utilization accounting).
    busy: Nanos,
    slack: i64,
}

impl Fluid {
    /// An idle server with a pipeline window of `slack` nanoseconds.
    pub fn with_slack(slack: Nanos) -> Self {
        Fluid {
            credit: slack as i64,
            as_of: 0,
            busy: 0,
            slack: slack as i64,
        }
    }

    /// Refills idle credit up to `now` (capped at the pipeline window).
    fn refill(&mut self, now: Nanos) {
        if now > self.as_of {
            self.credit = self
                .credit
                .saturating_add((now - self.as_of) as i64)
                .min(self.slack);
            self.as_of = now;
        }
    }

    /// Books `service` behind the deficit already owed, after a refill
    /// to `now`.
    fn grant(&mut self, now: Nanos, service: Nanos) -> Grant {
        // The deficit before this grant is the backlog we must wait out.
        let wait = if self.credit < 0 {
            (-self.credit) as Nanos
        } else {
            0
        };
        self.credit -= service as i64;
        self.busy += service;
        let start = now + wait;
        Grant {
            start,
            finish: start + service,
        }
    }

    /// Reserves `service` nanoseconds for a client whose clock reads
    /// `now`.
    pub fn acquire(&mut self, now: Nanos, service: Nanos) -> Grant {
        self.refill(now);
        self.grant(now, service)
    }

    /// Reserves a batch of back-to-back services for a client whose clock
    /// reads `now`, with one credit refill, appending one grant per
    /// service to `grants`. The grants are exactly what sequential
    /// [`Fluid::acquire`] calls at the same `now` would return.
    pub fn acquire_batch(
        &mut self,
        now: Nanos,
        services: impl IntoIterator<Item = Nanos>,
        grants: &mut impl Extend<Grant>,
    ) {
        let mut services = services.into_iter().peekable();
        if services.peek().is_none() {
            return;
        }
        self.refill(now);
        grants.extend(services.map(|service| self.grant(now, service)));
    }

    /// Time at which currently-committed work drains (diagnostics).
    pub fn horizon(&self) -> Nanos {
        if self.credit < 0 {
            self.as_of + (-self.credit) as Nanos
        } else {
            self.as_of
        }
    }

    /// Total service time handed out so far (utilization accounting).
    pub fn busy_time(&self) -> Nanos {
        self.busy
    }

    /// Resets the server to idle at time zero (between experiments).
    pub fn reset(&mut self) {
        *self = Fluid::with_slack(self.slack as Nanos);
    }
}

/// A single fluid FCFS server in virtual time, behind its own lock: a
/// [`Fluid`] and a name. See the module docs.
#[derive(Debug)]
pub struct Resource {
    state: Mutex<Fluid>,
    name: &'static str,
}

impl Resource {
    /// Creates an idle, strict (no-pipeline) resource. `name` is used in
    /// diagnostics only.
    pub fn new(name: &'static str) -> Self {
        Self::with_slack(name, 0)
    }

    /// Creates a resource with a pipeline window of `slack` nanoseconds.
    pub fn with_slack(name: &'static str, slack: Nanos) -> Self {
        Resource {
            state: Mutex::new(Fluid::with_slack(slack)),
            name,
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reserves `service` nanoseconds of this resource for a client whose
    /// clock reads `now`.
    pub fn acquire(&self, now: Nanos, service: Nanos) -> Grant {
        self.state.lock().acquire(now, service)
    }

    /// Reserves a batch of back-to-back services for a client whose clock
    /// reads `now`, under one lock acquisition and one credit refill,
    /// appending one grant per service to `grants` (the caller owns the
    /// buffer, so a batch allocates nothing of its own).
    ///
    /// The grants are exactly what sequential [`Resource::acquire`] calls
    /// at the same `now` would return: each element queues behind the
    /// deficit left by its predecessors. A one-element batch is therefore
    /// a strict no-op relative to `acquire`, and an empty one leaves the
    /// resource as it was. This models a doorbell-batched request engine:
    /// the host rings once and the engine drains the WQE chain FCFS.
    pub fn acquire_batch(
        &self,
        now: Nanos,
        services: impl IntoIterator<Item = Nanos>,
        grants: &mut impl Extend<Grant>,
    ) {
        self.state.lock().acquire_batch(now, services, grants);
    }

    /// Time at which currently-committed work drains (diagnostics).
    pub fn horizon(&self) -> Nanos {
        self.state.lock().horizon()
    }

    /// Total service time handed out so far (utilization accounting).
    pub fn busy_time(&self) -> Nanos {
        self.state.lock().busy_time()
    }

    /// Resets the resource to idle at time zero (between experiments).
    pub fn reset(&self) {
        self.state.lock().reset();
    }
}

/// A pool of identical FCFS servers (e.g. LITE's K shared QPs towards one
/// peer node). `acquire` picks the server that can start earliest, which
/// models a dispatcher that spreads requests over the pool.
#[derive(Debug)]
pub struct ResourcePool {
    servers: Vec<Resource>,
}

impl ResourcePool {
    /// Creates a pool of `n` idle strict servers (`n >= 1`).
    pub fn new(name: &'static str, n: usize) -> Self {
        Self::with_slack(name, n, 0)
    }

    /// Creates a pool of `n` servers with a pipeline window each.
    pub fn with_slack(name: &'static str, n: usize, slack: Nanos) -> Self {
        assert!(n >= 1, "pool needs at least one server");
        ResourcePool {
            servers: (0..n).map(|_| Resource::with_slack(name, slack)).collect(),
        }
    }

    /// Number of servers in the pool.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Acquires `service` time on the least-loaded server.
    pub fn acquire(&self, now: Nanos, service: Nanos) -> Grant {
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.horizon())
            .map(|(i, _)| i)
            .expect("pool is non-empty");
        self.servers[idx].acquire(now, service)
    }

    /// Sum of service time over all servers.
    pub fn busy_time(&self) -> Nanos {
        self.servers.iter().map(|r| r.busy_time()).sum()
    }

    /// Resets every server.
    pub fn reset(&self) {
        for r in &self.servers {
            r.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fcfs_serializes() {
        let r = Resource::new("nic");
        let g1 = r.acquire(0, 100);
        assert_eq!((g1.start, g1.finish), (0, 100));
        // A second client arriving at t=10 queues behind the first.
        let g2 = r.acquire(10, 50);
        assert_eq!((g2.start, g2.finish), (100, 150));
        assert_eq!(g2.wait(10), 90);
        // A client arriving after the backlog drains sees an idle server.
        let g3 = r.acquire(1000, 5);
        assert_eq!((g3.start, g3.finish), (1000, 1005));
        assert_eq!(r.busy_time(), 155);
    }

    #[test]
    fn idle_gaps_are_work_conserving() {
        let r = Resource::with_slack("nic", 1_000);
        // A far-future grant must not delay an earlier (straggler) one.
        let f = r.acquire(1_000_000, 500);
        assert_eq!(f.start, 1_000_000);
        let e = r.acquire(10, 500);
        assert_eq!(e.start, 10, "idle server never delays a straggler");
        // Saturation still enforces the rate: hammer it at one instant.
        let mut last = 0;
        for _ in 0..100 {
            last = r.acquire(2_000_000, 300).finish;
        }
        assert!(
            last >= 2_000_000 + 100 * 300 - 1_000 - 300,
            "aggregate rate bounded, got {last}"
        );
    }

    #[test]
    fn concurrent_acquires_never_overlap() {
        let r = Arc::new(Resource::new("x"));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                (0..1000)
                    .map(|i| r.acquire(t * 7 + i, 3))
                    .collect::<Vec<_>>()
            }));
        }
        let grants: Vec<Grant> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        // The fluid model guarantees the aggregate rate, not pairwise
        // non-overlap: total service must drain no faster than rate 1.
        // The drain horizon can undershoot total service by at most the
        // arrival spread (idle credit earned while arrivals trickled in).
        let last = grants.iter().map(|g| g.finish).max().unwrap();
        let max_arrival = 7 * 7 + 999;
        assert!(
            last + max_arrival + 3 >= 8 * 1000 * 3,
            "rate exceeded: drained by {last}"
        );
        assert_eq!(r.busy_time(), 8 * 1000 * 3);
    }

    #[test]
    fn batch_acquire_matches_sequential() {
        // Same arrival pattern through both paths must yield identical
        // grants and identical residual state.
        let services = [120u64, 40, 900, 1, 300];
        let seq = Resource::with_slack("s", 500);
        let bat = Resource::with_slack("b", 500);
        seq.acquire(50, 200);
        bat.acquire(50, 200);
        let expect: Vec<Grant> = services.iter().map(|&s| seq.acquire(700, s)).collect();
        let mut got = Vec::new();
        bat.acquire_batch(700, services, &mut got);
        assert_eq!(got, expect);
        assert_eq!(bat.busy_time(), seq.busy_time());
        assert_eq!(bat.horizon(), seq.horizon());
        // And a later client sees the same backlog either way.
        assert_eq!(bat.acquire(710, 10), seq.acquire(710, 10));
    }

    #[test]
    fn batch_of_one_is_plain_acquire() {
        let a = Resource::new("a");
        let b = Resource::new("b");
        let g1 = a.acquire(100, 30);
        let mut g2 = Vec::new();
        b.acquire_batch(100, [30], &mut g2);
        assert_eq!(g2, [g1]);
        // An empty batch leaves the resource as it was.
        b.acquire_batch(0, [], &mut g2);
        assert_eq!(g2, [g1]);
        assert_eq!((b.horizon(), b.busy_time()), (130, 30));
    }

    #[test]
    fn pool_prefers_idle_server() {
        let p = ResourcePool::new("qp", 2);
        let a = p.acquire(0, 100);
        let b = p.acquire(0, 100);
        // Both should start immediately on distinct servers.
        assert_eq!(a.start, 0);
        assert_eq!(b.start, 0);
        let c = p.acquire(0, 10);
        assert_eq!(c.start, 100, "third request queues behind one of them");
    }
}

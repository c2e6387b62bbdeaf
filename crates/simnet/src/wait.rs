//! Waiting: the one way a thread of the simulation blocks.
//!
//! A thread parks on the [`Event`] of the object whose state it waits on
//! (a completion slot, a queue set, a ring, a CQ, a memory segment, a
//! replication stream), and whoever changes that state wakes it. A wait
//! nothing in the process ends (a peer that is down, a host-time lease) is
//! a [`pause`]. Nothing else in the product sleeps, yields or keeps a
//! condition variable (`tools/one_wait.sh`). What a wait waits until is a
//! [`Deadline`], and a lease is stamped in [`lease_ms`]: only this module
//! reads the host clock to make either (`tools/one_clock.sh`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The host instant a wait, an interval or a lease runs until.
#[derive(Clone, Copy, Debug)]
pub struct Deadline(Instant);

impl Deadline {
    /// `d` from now.
    #[inline]
    pub fn after(d: Duration) -> Self {
        Deadline(Instant::now() + d)
    }

    /// Whether the host clock has reached this deadline.
    #[inline]
    pub fn passed(self) -> bool {
        Instant::now() >= self.0
    }
}

/// Host-wall ms since a process-wide base, never 0: the lease clock. Host,
/// not virtual, time: virtual clocks are per-thread and cannot order a
/// crashed committer's silence against a recovering peer's progress.
pub fn lease_ms() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = *BASE.get_or_init(Instant::now);
    base.elapsed().as_millis() as u64 + 1
}

/// What threads park on until the state it announces changes.
///
/// A waker publishes what the parkers' `ready` reads before it calls
/// [`Event::wake`]: under a lock `ready` also takes, or `SeqCst`. A parker
/// counts itself in before it checks `ready` and holds the event's lock
/// from that check until it sleeps, so the one load in `wake` cannot miss
/// it. A thread that panics holding the lock does not poison the event.
#[derive(Default)]
pub struct Event {
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Event {
    /// Wakes every thread parked on this event. One `SeqCst` load while
    /// none is.
    pub fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Once the lock is free, every counted parker is asleep or yet
            // to check `ready`. Notify after letting go: a parker woken
            // under it would block on it at once.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
        }
    }

    /// Parks until `ready()` holds (`true`) or `deadline` passes (`false`,
    /// after one last check; a passed deadline still checks once). `ready`
    /// runs under the event's lock: it may take other locks, but then
    /// nobody may wake this event while holding one of them.
    pub fn park_until(&self, mut ready: impl FnMut() -> bool, deadline: Deadline) -> bool {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let done = loop {
            if ready() {
                break true;
            }
            let left = deadline.0.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break false;
            }
            let waited = self.cv.wait_timeout(g, left);
            g = waited.unwrap_or_else(PoisonError::into_inner).0;
        };
        self.parked.fetch_sub(1, Ordering::SeqCst);
        done
    }

    /// What `take` yields, parked for until it yields something or `d`
    /// passes (`None`). Reads the host clock only to park.
    pub fn take_within<T>(&self, mut take: impl FnMut() -> Option<T>, d: Duration) -> Option<T> {
        let mut got = take();
        if got.is_none() {
            let ready = || {
                got = take();
                got.is_some()
            };
            self.park_until(ready, Deadline::after(d));
        }
        got
    }
}

/// Holds the calling thread for `d` of host time: the wait for something
/// no [`Event`] announces.
pub fn pause(d: Duration) {
    std::thread::sleep(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn a_wake_before_the_park_is_not_lost() {
        let ev = Event::default();
        let set = AtomicU64::new(0);
        set.store(1, Ordering::SeqCst);
        ev.wake();
        let deadline = Deadline::after(Duration::from_secs(10));
        assert!(ev.park_until(|| set.load(Ordering::SeqCst) == 1, deadline));
        assert!(!deadline.passed());
    }

    #[test]
    fn a_deadline_returns_false() {
        let ev = Event::default();
        let deadline = Deadline::after(Duration::from_millis(20));
        assert!(!ev.park_until(|| false, deadline));
        assert!(deadline.passed());
    }

    #[test]
    fn a_passed_deadline_still_checks_ready_once() {
        let ev = Event::default();
        let passed = Deadline::after(Duration::ZERO);
        assert!(passed.passed());
        let mut checks = 0;
        let mut check = |holds| {
            checks += 1;
            holds
        };
        assert!(ev.park_until(|| check(true), passed));
        assert!(!ev.park_until(|| check(false), passed));
        assert_eq!(checks, 2);
    }

    /// Four threads read the lease clock for 30 ms each and publish the
    /// largest reading: no thread ever reads less than one already
    /// published.
    #[test]
    fn lease_ms_is_never_0_and_never_goes_back_across_threads() {
        let seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let end = Deadline::after(Duration::from_millis(30));
                    while !end.passed() {
                        let before = seen.load(Ordering::SeqCst);
                        let now = lease_ms();
                        assert!(now > 0 && now >= before, "{now} after {before}");
                        seen.fetch_max(now, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(seen.load(Ordering::SeqCst) > 0);
    }

    /// Four wakers each hand 2 500 events to their own parker, one at a
    /// time: a waker posts event `k` only once its parker has taken
    /// `k - 1`, so every event needs its wake-up. A lost one leaves its
    /// parker asleep until the 10 s deadline. A parker yields after each
    /// check that finds nothing, so a post often lands between its check
    /// and its sleep.
    #[test]
    fn hammer_loses_no_wake_up() {
        const PAIRS: usize = 4;
        const EVENTS: u64 = 10_000 / PAIRS as u64;
        struct Pair {
            ev: Event,
            posted: AtomicU64,
            taken: AtomicU64,
        }
        let pairs: Vec<Pair> = (0..PAIRS)
            .map(|_| Pair {
                ev: Event::default(),
                posted: AtomicU64::new(0),
                taken: AtomicU64::new(0),
            })
            .collect();
        let deadline = Deadline::after(Duration::from_secs(10));
        std::thread::scope(|s| {
            for p in &pairs {
                s.spawn(move || {
                    for k in 1..=EVENTS {
                        while p.taken.load(Ordering::SeqCst) < k - 1 {
                            assert!(!deadline.passed(), "waker {k}");
                            std::thread::yield_now();
                        }
                        p.posted.store(k, Ordering::SeqCst);
                        p.ev.wake();
                    }
                });
                s.spawn(move || {
                    for k in 1..=EVENTS {
                        let posted = || {
                            let posted = p.posted.load(Ordering::SeqCst) >= k;
                            if !posted {
                                std::thread::yield_now();
                            }
                            posted
                        };
                        let woken = p.ev.park_until(posted, deadline);
                        assert!(woken && !deadline.passed(), "parker {k}");
                        p.taken.store(k, Ordering::SeqCst);
                    }
                });
            }
        });
        let taken: u64 = pairs.iter().map(|p| p.taken.load(Ordering::SeqCst)).sum();
        assert_eq!(taken, 10_000);
    }
}

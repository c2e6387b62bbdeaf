//! Waiting: the one way a thread of the simulation blocks.
//!
//! A thread parks on the [`Event`] of the object whose state it waits on
//! (a completion slot, a queue set, a ring, a CQ, a memory segment, a
//! replication stream), and whoever changes that state wakes it. A wait
//! nothing in the process ends (a peer that is down, a host-time lease) is
//! a [`pause`]. Nothing else in the product sleeps, yields or keeps a
//! condition variable (`tools/one_wait.sh`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

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

    /// Parks until `ready()` holds (`true`) or the host clock passes
    /// `deadline` (`false`, after one last check). `ready` runs under the
    /// event's lock: it may take other locks, but then nobody may wake this
    /// event while holding one of them.
    pub fn park_until(&self, mut ready: impl FnMut() -> bool, deadline: Instant) -> bool {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let done = loop {
            if ready() {
                break true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
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
            self.park_until(ready, Instant::now() + d);
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
        let deadline = Instant::now() + Duration::from_secs(10);
        assert!(ev.park_until(|| set.load(Ordering::SeqCst) == 1, deadline));
        assert!(Instant::now() < deadline);
    }

    #[test]
    fn a_deadline_returns_false() {
        let ev = Event::default();
        let start = Instant::now();
        let deadline = start + Duration::from_millis(20);
        assert!(!ev.park_until(|| false, deadline));
        assert!(Instant::now() >= deadline);
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
        let deadline = Instant::now() + Duration::from_secs(10);
        std::thread::scope(|s| {
            for p in &pairs {
                s.spawn(move || {
                    for k in 1..=EVENTS {
                        while p.taken.load(Ordering::SeqCst) < k - 1 {
                            assert!(Instant::now() < deadline, "waker {k}");
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
                        assert!(woken && Instant::now() < deadline, "parker {k}");
                        p.taken.store(k, Ordering::SeqCst);
                    }
                });
            }
        });
        let taken: u64 = pairs.iter().map(|p| p.taken.load(Ordering::SeqCst)).sum();
        assert_eq!(taken, 10_000);
    }
}

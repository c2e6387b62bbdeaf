//! Turns: a set of threads makes its calls one at a time, the lowest
//! virtual clock first (ties to the lower index), as one thread stepping
//! the lowest clock would. Left to the host, a thread that runs longer
//! reaches a shared forward-only clock (a node's poller, a served
//! function's clock) ahead of the others, and their earlier-stamped calls
//! inherit its later time. A thread that [`Turns::join`]ed waits for its
//! turn in [`enter`] and notes its clock in [`leave`]; while it waits on
//! the others (a barrier) it is [`aside`]. Any other thread pays
//! a thread-local read a call.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::time::Nanos;
use crate::wait::{Deadline, Event};

/// How long a thread waits for its turn before it panics: far longer than
/// any other thread's call or stretch between calls takes.
const TURN_WAIT: Duration = Duration::from_secs(60);

/// The turns of a set of threads.
pub struct Turns {
    /// Per thread: when its next call may start (`None` while aside), and
    /// how many asides it has come back from.
    slots: Mutex<Vec<(Option<Nanos>, u64)>>,
    moved: Event,
}

thread_local! {
    static MINE: RefCell<Option<Member>> = const { RefCell::new(None) };
}

/// A thread's place in a set of turns. When the thread exits it is out of
/// the running for good.
struct Member(Arc<Turns>, usize);

impl Drop for Member {
    fn drop(&mut self) {
        self.0.update(self.1, |s| *s = (None, u64::MAX));
    }
}

impl Turns {
    /// Turns for `threads` threads, every clock at 0.
    pub fn new(threads: usize) -> Arc<Self> {
        let slots = Mutex::new(vec![(Some(0), 0); threads]);
        let moved = Event::default();
        Arc::new(Turns { slots, moved })
    }

    /// Makes the calling thread the set's thread `me` until it exits.
    pub fn join(self: &Arc<Self>, me: usize) {
        MINE.set(Some(Member(Arc::clone(self), me)));
    }

    fn slots(&self) -> MutexGuard<'_, Vec<(Option<Nanos>, u64)>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn update(&self, me: usize, f: impl FnOnce(&mut (Option<Nanos>, u64))) {
        f(&mut self.slots()[me]);
        self.moved.wake();
    }

    /// Parks until `me`'s call at `now` is due first: every other thread
    /// is aside or due later, and back from the aside `me` last came back
    /// from.
    fn wait(&self, me: usize, now: Nanos) {
        self.update(me, |s| s.0 = Some(now));
        let due = || {
            let slots = self.slots();
            let back = slots[me].1;
            let later = |(j, &(next, b)): (usize, &(Option<Nanos>, u64))| {
                b >= back && next.is_none_or(|t| (t, j) >= (now, me))
            };
            slots.iter().enumerate().all(later)
        };
        let got = self.moved.park_until(due, Deadline::after(TURN_WAIT));
        assert!(got, "thread {me} of a set of turns never got its turn");
    }
}

/// Starts a call at `now`: a thread that joined a set of turns and is not
/// aside waits for its turn.
pub fn enter(now: Nanos) {
    MINE.with_borrow(|mine| match mine {
        Some(Member(turns, me)) if turns.slots()[*me].0.is_some() => turns.wait(*me, now),
        _ => {}
    });
}

/// From the thread's turn at `now`, runs `wait_on_others` (a barrier) out
/// of the running; the thread comes back at the clock it returns. A thread
/// in no set of turns just runs it.
pub fn aside(now: Nanos, wait_on_others: impl FnOnce() -> Nanos) {
    let mine = MINE.with_borrow(|m| m.as_ref().map(|Member(t, me)| (Arc::clone(t), *me)));
    let Some((turns, me)) = mine else {
        wait_on_others();
        return;
    };
    turns.wait(me, now);
    turns.update(me, |s| s.0 = None);
    let back = wait_on_others();
    turns.update(me, |s| *s = (Some(back), s.1 + 1));
}

/// Ends the call [`enter`] started: the thread's next call starts no
/// earlier than `now`.
pub fn leave(now: Nanos) {
    MINE.with_borrow(|mine| {
        if let Some(Member(turns, me)) = mine {
            turns.update(*me, |s| s.0 = s.0.map(|_| now));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Three threads whose clocks step by 7, 10 and 13 ns a call, with a
    /// barrier halfway: their calls land in (clock, thread) order, whatever
    /// the host runs first.
    #[test]
    fn calls_land_lowest_clock_first_across_a_barrier() {
        let turns = Turns::new(3);
        let barrier = Barrier::new(3);
        let log = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for me in 0..3 {
                let (turns, barrier, log) = (Arc::clone(&turns), &barrier, &log);
                s.spawn(move || {
                    turns.join(me);
                    let step = 7 + 3 * me as Nanos;
                    let mut now = 0;
                    for i in 0..40 {
                        if i == 20 {
                            aside(now, || {
                                barrier.wait();
                                now = 1_000;
                                now
                            });
                        }
                        enter(now);
                        log.lock().unwrap().push((now, me));
                        now += step;
                        leave(now);
                    }
                });
            }
        });
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 120);
        let mut sorted = log.clone();
        sorted.sort_unstable();
        assert_eq!(log, sorted, "a call ran before an earlier-stamped one");
    }
}

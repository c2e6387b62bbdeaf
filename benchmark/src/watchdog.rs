//! A wall-clock deadline on the whole run. The product has a known
//! unbounded hang (ROADMAP item 3) and `KvService::stop()` joins threads;
//! the benchmark must never sit forever, so past the deadline it says
//! where every context was and exits with its own code.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::driver::Progress;

/// Exit code of a run the watchdog ended.
pub const EXIT_HUNG: u8 = 3;

pub struct Watchdog {
    done: Arc<(Mutex<bool>, Condvar)>,
    thread: JoinHandle<()>,
}

impl Watchdog {
    /// Runs `expired` on its own thread if `disarm` has not been called
    /// within `deadline`.
    pub fn arm(deadline: Duration, expired: impl FnOnce() + Send + 'static) -> Self {
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&done);
        let thread = std::thread::spawn(move || {
            let (lock, cv) = &*shared;
            let guard = lock.lock().expect("watchdog flag is a plain bool");
            let (guard, _) = cv
                .wait_timeout_while(guard, deadline, |done| !*done)
                .expect("watchdog flag is a plain bool");
            if !*guard {
                drop(guard);
                expired();
            }
        });
        Watchdog { done, thread }
    }

    /// The run finished in time.
    pub fn disarm(self) {
        let (lock, cv) = &*self.done;
        *lock.lock().expect("watchdog flag is a plain bool") = true;
        cv.notify_all();
        self.thread.join().expect("watchdog thread panicked");
    }
}

/// What an expired watchdog does to a workload's process: prints every
/// context's index, virtual clock and last step, and exits.
pub fn report_and_exit(workload: &str, deadline: Duration, progress: &Progress) -> ! {
    eprintln!("watchdog: {workload} passed its {deadline:?} deadline; contexts:");
    for (i, clock, step) in progress.snapshot() {
        eprintln!("  ctx {i}: virtual clock {clock} ns, last step {step}");
    }
    std::process::exit(i32::from(EXIT_HUNG));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn fires_once_past_the_deadline_and_never_after_disarm() {
        let (tx, rx) = mpsc::channel();
        let dog = Watchdog::arm(Duration::from_millis(20), move || {
            tx.send(()).expect("test is listening");
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("an expired watchdog speaks up");
        dog.disarm();

        let (tx, rx) = mpsc::channel::<()>();
        let dog = Watchdog::arm(Duration::from_secs(3600), move || {
            tx.send(()).expect("test is listening");
        });
        dog.disarm();
        // Disarmed: the closure was dropped unrun, and the sender with it.
        assert!(rx.recv().is_err());
    }
}

//! The one way a figure runs concurrent clients: a single host thread
//! steps them in virtual-time order.
//!
//! Client threads advance their virtual clocks at unrelated *host*
//! speeds. A conservative FCFS resource (a shared QP, a link) then lets a
//! host-fast thread book capacity far in the virtual future, and every
//! other thread queues behind that booking — a figure measures the host
//! scheduler, not the model. Stepping the client whose clock is lowest,
//! one blocking call at a time, makes requests reach the product in
//! virtual-time order, so a figure that runs no thread of its own prints
//! the same rows on every run.

use simnet::{Ctx, Nanos};

/// Runs every context to completion on the calling thread and returns
/// the makespan: the latest final clock minus the common start.
///
/// First every clock moves to the latest one, the common start, so no
/// context begins in another's past. Then, until `due` reads `None` for
/// all of them, the context whose key is lowest, ties to the lowest
/// index, waits until its key and makes one `step`. The key is
/// `max(ctx.now(), due)`: `due` is when the context's next op may start
/// (`Some(0)` in a closed loop, the op's arrival time in an open one) and
/// `None` once it is finished.
pub fn drive<S>(
    contexts: &mut [(Ctx, S)],
    mut due: impl FnMut(&Ctx, &S) -> Option<Nanos>,
    mut step: impl FnMut(&mut Ctx, &mut S),
) -> Nanos {
    let start = contexts.iter().map(|(c, _)| c.now()).max().unwrap_or(0);
    for (c, _) in contexts.iter_mut() {
        c.wait_until(start);
    }
    loop {
        let mut next: Option<(Nanos, usize)> = None;
        for (i, (c, s)) in contexts.iter().enumerate() {
            if let Some(key) = due(c, s).map(|d| d.max(c.now())) {
                if next.is_none_or(|(k, _)| key < k) {
                    next = Some((key, i));
                }
            }
        }
        let Some((key, i)) = next else { break };
        let (c, s) = &mut contexts[i];
        c.wait_until(key);
        step(c, s);
    }
    contexts.iter().map(|(c, _)| c.now()).max().unwrap_or(start) - start
}

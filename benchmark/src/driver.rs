//! The single load-generating thread.
//!
//! Every client context of a workload is a step function: one blocking
//! public call into the product per step. One host thread drives all of
//! them, always running the unfinished context whose virtual clock is
//! lowest (open loop: lowest `max(now, due)`), ties by index. Requests
//! therefore reach the product in virtual-time order and the virtual
//! metrics do not depend on how the host schedules threads — there are no
//! client threads to schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use simnet::{Ctx, Nanos};

use crate::gen::Rng;
use crate::trace::Tracer;

/// What a step did to the context's current op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The op needs more steps (a transaction between its reads).
    Mid,
    /// The op completed; `ok` is false if the product returned an error
    /// or the content check on its result failed.
    Done { ok: bool },
}

/// The public call a context is about to make; the watchdog prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    Idle,
    LtWrite,
    LtRead,
    LtRpc,
    TxnRead,
    TxnCommit,
    KvGet,
    KvPut,
}

impl Phase {
    const ALL: [Phase; 8] = [
        Phase::Idle,
        Phase::LtWrite,
        Phase::LtRead,
        Phase::LtRpc,
        Phase::TxnRead,
        Phase::TxnCommit,
        Phase::KvGet,
        Phase::KvPut,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::LtWrite => "lt_write",
            Phase::LtRead => "lt_read",
            Phase::LtRpc => "lt_rpc",
            Phase::TxnRead => "Txn::read",
            Phase::TxnCommit => "Txn::commit",
            Phase::KvGet => "KvClient::get",
            Phase::KvPut => "KvClient::put",
        }
    }
}

/// One virtual client context.
pub trait Client {
    fn ctx(&mut self) -> &mut Ctx;
    /// Ops this context has still to complete.
    fn remaining(&self) -> usize;
    /// Open loop only: the virtual time at which the op the next step
    /// starts is due. Closed-loop contexts start an op when the last ends.
    fn due(&self) -> Option<Nanos> {
        None
    }
    /// The call the next step makes.
    fn phase(&self) -> Phase;
    /// Makes one blocking public call into the product.
    fn step(&mut self, tr: &mut Tracer) -> Step;
}

/// Mean of the application's own work at the start of every op, virtual
/// ns: building the request before calling the product. Exponentially
/// distributed and seeded, charged as CPU work and part of the op's
/// latency, as it is for the application.
///
/// Without it a deterministic simulator gives the same numbers on every
/// seed, to the last digit, wherever op cost does not depend on the
/// input: `write-small` reads 3879.728 kops/s, 2.062 us and 0.435 us of
/// CPU per op, `rpc-echo` 908.999 kops/s, 8.7999 us and 2.485 us, whatever
/// the offsets and reply sizes (measured, seeds 1 and 2), and closed-loop
/// contexts run in lockstep. A time that reads the same on every run
/// cannot be told from a constant, so the work stays inside the measured
/// interval; it is kept to half a percent of the cheapest op's latency and
/// 2 % of its CPU (`write-small`: 3861.8 kops/s, 2.0715 us, 0.4445 us), so
/// a change to the product moves a metric by all but that share of what it
/// moves the product. The ladder has no such work.
pub const APP_WORK_NS: f64 = 10.0;

/// Where each context is, readable from the watchdog thread: one word per
/// context, phase in the top byte and virtual clock below it.
#[derive(Debug)]
pub struct Progress(Vec<AtomicU64>);

impl Progress {
    pub fn new(contexts: usize) -> Arc<Self> {
        Arc::new(Progress((0..contexts).map(|_| AtomicU64::new(0)).collect()))
    }

    fn set(&self, idx: usize, phase: Phase, now: Nanos) {
        // Relaxed: a diagnostic, publishes nothing else.
        if let Some(w) = self.0.get(idx) {
            w.store(
                (phase as u64) << 56 | (now & ((1 << 56) - 1)),
                Ordering::Relaxed,
            );
        }
    }

    /// `(context, virtual clock, last step)` for every context.
    pub fn snapshot(&self) -> Vec<(usize, Nanos, &'static str)> {
        self.0
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let w = w.load(Ordering::Relaxed);
                let phase = Phase::ALL[(w >> 56) as usize % Phase::ALL.len()];
                (i, w & ((1 << 56) - 1), phase.name())
            })
            .collect()
    }
}

/// What one round of a workload measured.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Ops completed (ok or not).
    pub ops: u64,
    /// Ops that returned `Err` or failed their content check.
    pub failed: u64,
    /// Per-op virtual latency, ns, in completion order.
    pub lat_ns: Vec<Nanos>,
    /// Max over contexts of final `now()` minus the common start.
    pub v_makespan_ns: Nanos,
    /// Sum over contexts of their CPU meters' delta.
    pub v_cpu_ns: Nanos,
    /// Host wall time of the round.
    pub host_s: f64,
    /// Open loop: how late (virtual ns) the generator issued each op.
    pub late_ns: Vec<Nanos>,
}

/// Picks the context to run next: the lowest `key`, ties to the lowest
/// index; `None` once every context is finished.
pub fn pick(keys: impl Iterator<Item = Option<Nanos>>) -> Option<usize> {
    let mut best: Option<(Nanos, usize)> = None;
    for (i, key) in keys.enumerate() {
        if let Some(k) = key {
            if best.is_none_or(|(b, _)| k < b) {
                best = Some((k, i));
            }
        }
    }
    best.map(|(_, i)| i)
}

/// The contexts' own per-op work for round `round` of `seed`: context
/// index to virtual ns, exponential with mean [`APP_WORK_NS`].
pub fn app_work(seed: u64, round: u64, contexts: usize) -> impl FnMut(usize) -> Nanos {
    let round_seed = Rng::stream(seed, round).next_u64();
    let mut rngs: Vec<Rng> = (0..contexts as u64)
        .map(|i| Rng::stream(round_seed, 0xa99 << 8 | i))
        .collect();
    move |i| rngs[i].exp(APP_WORK_NS) as Nanos
}

/// Runs every context to completion from a common virtual start.
/// `app_work(i)` is what context `i` spends building its next request.
pub fn run<C: Client>(
    clients: &mut [C],
    app_work: &mut dyn FnMut(usize) -> Nanos,
    tr: &mut Tracer,
    progress: &Progress,
) -> Round {
    // Common start: nobody begins in another context's past.
    let start = clients.iter_mut().map(|c| c.ctx().now()).max().unwrap_or(0);
    let mut cpu0 = 0;
    for c in clients.iter_mut() {
        c.ctx().wait_until(start);
        cpu0 += c.ctx().cpu.total();
    }
    let total: usize = clients.iter().map(|c| c.remaining()).sum();
    let mut round = Round {
        lat_ns: Vec::with_capacity(total),
        ..Round::default()
    };
    // Virtual start of each context's op in flight, and its op index.
    let mut in_flight: Vec<Option<Nanos>> = vec![None; clients.len()];
    let mut next_req = 0u64;
    let host0 = Instant::now();
    while let Some(i) = pick(clients.iter_mut().map(|c| {
        (c.remaining() > 0).then(|| {
            let now = c.ctx().now();
            c.due().map_or(now, |d| d.max(now))
        })
    })) {
        let c = &mut clients[i];
        if in_flight[i].is_none() {
            let now = c.ctx().now();
            let begin = match c.due() {
                Some(due) => {
                    round.late_ns.push(now.saturating_sub(due));
                    c.ctx().wait_until(due);
                    due
                }
                None => now,
            };
            in_flight[i] = Some(begin);
            tr.begin_op(i, next_req, begin);
            next_req += 1;
            c.ctx().work(app_work(i));
        }
        progress.set(i, c.phase(), c.ctx().now());
        tr.resume_op(i);
        if let Step::Done { ok } = c.step(tr) {
            let end = c.ctx().now();
            let begin = in_flight[i].take().expect("op in flight");
            round.lat_ns.push(end - begin);
            round.ops += 1;
            round.failed += u64::from(!ok);
            tr.end_op(i, end);
        }
    }
    round.host_s = host0.elapsed().as_secs_f64();
    let mut end = start;
    let mut cpu1 = 0;
    for (i, c) in clients.iter_mut().enumerate() {
        end = end.max(c.ctx().now());
        cpu1 += c.ctx().cpu.total();
        progress.set(i, Phase::Idle, c.ctx().now());
    }
    round.v_makespan_ns = end - start;
    round.v_cpu_ns = cpu1 - cpu0;
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_is_lowest_clock_then_lowest_index() {
        assert_eq!(pick([Some(5), Some(3), Some(9)].into_iter()), Some(1));
        assert_eq!(pick([Some(4), Some(4), Some(4)].into_iter()), Some(0));
        assert_eq!(pick([None, Some(7), Some(7)].into_iter()), Some(1));
        assert_eq!(pick([None, None].into_iter()), None);
        assert_eq!(pick(std::iter::empty()), None);
    }

    /// A context whose every op costs a fixed virtual time.
    struct Fixed {
        ctx: Ctx,
        cost: Nanos,
        left: usize,
        due: Option<Vec<Nanos>>,
        order: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
        id: usize,
    }

    impl Client for Fixed {
        fn ctx(&mut self) -> &mut Ctx {
            &mut self.ctx
        }
        fn remaining(&self) -> usize {
            self.left
        }
        fn due(&self) -> Option<Nanos> {
            self.due.as_ref().map(|d| d[d.len() - self.left])
        }
        fn phase(&self) -> Phase {
            Phase::LtWrite
        }
        fn step(&mut self, _: &mut Tracer) -> Step {
            self.order.borrow_mut().push(self.id);
            self.ctx.work(self.cost);
            self.left -= 1;
            Step::Done { ok: true }
        }
    }

    #[test]
    fn closed_loop_interleaves_by_virtual_clock() {
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mk = |id, cost, left| Fixed {
            ctx: Ctx::new(),
            cost,
            left,
            due: None,
            order: order.clone(),
            id,
        };
        let mut cs = vec![mk(0, 30, 2), mk(1, 10, 4)];
        let r = run(&mut cs, &mut |_| 0, &mut Tracer::off(), &Progress::new(2));
        // t=0: tie -> 0 (now 30); 1 runs at 0, 10, 20 (now 30); tie at 30 -> 0; then 1.
        assert_eq!(*order.borrow(), vec![0, 1, 1, 1, 0, 1]);
        assert_eq!(r.ops, 6);
        assert_eq!(r.v_makespan_ns, 60);
        assert_eq!(r.v_cpu_ns, 100);
        assert_eq!(r.lat_ns, vec![30, 10, 10, 10, 30, 10]);
    }

    #[test]
    fn open_loop_times_from_due_and_reports_lateness() {
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut cs = vec![Fixed {
            ctx: Ctx::new(),
            cost: 100,
            left: 3,
            due: Some(vec![50, 60, 400]),
            order,
            id: 0,
        }];
        let r = run(&mut cs, &mut |_| 0, &mut Tracer::off(), &Progress::new(1));
        // op0 due 50 -> 150; op1 due 60 issued at 150 (90 late) -> 250; op2 due 400 -> 500.
        assert_eq!(r.lat_ns, vec![100, 190, 100]);
        assert_eq!(r.late_ns, vec![0, 90, 0]);
        assert_eq!(r.v_makespan_ns, 500);
    }
}

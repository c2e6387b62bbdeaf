//! Work a thread runs where it lands: served functions' calls and kernel
//! calls (DESIGN.md §5.3).
//!
//! A function bound with [`LiteHandle::serve_rpc`] has no server thread.
//! Its calls join the function's queue as every user call does, and the
//! thread whose delivery dispatched one notes the server as pending; for a
//! kernel call, which dispatch parks, it notes the node's kernel. That
//! thread runs it once it holds nothing: at the reply wait of its own
//! `lt_*` call ([`super::CallSlot::wait`], before it parks), or else at
//! the end of that call ([`LiteHandle::syscall`]'s way out). A thread
//! outside any `lt_*` call never runs a call: it hands it to its caller,
//! whose reply wait runs it. The memory manager's migrations ride the same
//! list ([`defer_migration`]), but run only at the end of the outermost
//! call: a reply wait may hold a pin, which a migration would wait out.
//!
//! Four rules:
//! * **Hand-over.** A thread that finds the server held leaves the call
//!   queued; the holder looks at the queues again after it lets go.
//! * **No re-entrancy.** Served work found while a handler runs waits on
//!   that thread's pending list until the handler returns. So a handler
//!   must not wait on a reply from a served function: that call would wait
//!   for the handler to return, and the handler for it (`op_timeout`).
//! * **Kernel calls are exempt.** A parked kernel call stops its node's
//!   dispatch, so it runs at the next reply wait even inside a handler or
//!   a migration, whose own `k_*` call to that node would otherwise wait
//!   out `op_timeout`. Safe because a kernel handler never waits and makes
//!   no call that needs dispatch: it pins with `pin_raw_nowait`,
//!   `FN_MEMCPY` pushes one-sided, `LOCK_RELEASE` only replies. Keep it so.
//! * **Same charges.** A call is taken and answered on the handler's clock
//!   as `lt_recv_rpc` + `lt_reply_rpc` take and answer it, except that the
//!   take charges no CPU for the wait: the clock joins the call's stamp.
//!   A handler that models a waiting server thread adds that charge itself.
//!   A kernel call is charged on the poller's clock, as dispatch charges.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use rnic::NodeId;
use simnet::Ctx;

use super::rpc::{Incoming, ReplyRoute};
use super::LiteKernel;
use crate::api::LiteHandle;
use crate::error::{LiteError, LiteResult};
use crate::mm::Migrator;

/// What a served function runs, once per call (see the module docs).
pub trait RpcHandler: Send + 'static {
    /// The clock `func`'s calls are taken, run and answered on: lent once
    /// to take a call, before [`RpcHandler::call`], and once to answer it.
    fn ctx(&mut self, func: u8) -> &mut Ctx;

    /// Runs one call of `func` on `h`, the handle the server owns. `input`
    /// is the request payload; what is in `reply` (empty on entry) when it
    /// returns is the answer.
    fn call(&mut self, h: &mut LiteHandle, func: u8, input: &[u8], reply: &mut Vec<u8>);
}

/// The server of a set of served functions: its handle, its handler and
/// the buffers every call reuses, behind one lock. The functions stay
/// served while it lives; the kernel holds it weakly, so a handler that
/// owns the handle of its own node makes no cycle.
pub struct RpcServer {
    funcs: Vec<(u8, Arc<RpcQueue>)>,
    serving: Mutex<Serving>,
}

struct Serving {
    h: LiteHandle,
    handler: Box<dyn RpcHandler>,
    input: Vec<u8>,
    reply: Vec<u8>,
}

impl RpcServer {
    /// Binds each of `funcs` on `h`'s node to a new server of `handler`,
    /// which owns `h` ([`LiteHandle::serve_rpc`]).
    pub(crate) fn bind(
        h: LiteHandle,
        funcs: &[u8],
        handler: Box<dyn RpcHandler>,
    ) -> LiteResult<Arc<RpcServer>> {
        let kernel = Arc::clone(h.kernel());
        let mut queues = Vec::with_capacity(funcs.len());
        for &func in funcs {
            kernel.register_rpc(func)?;
            queues.push((func, kernel.queue_of(func)?));
        }
        let serving = Serving {
            h,
            handler,
            input: Vec::new(),
            reply: Vec::new(),
        };
        let server = Arc::new(RpcServer {
            funcs: queues,
            serving: Mutex::new(serving),
        });
        for (_, queue) in &server.funcs {
            if !queue.bind(Arc::downgrade(&server)) {
                return Err(LiteError::Internal("function already served"));
            }
        }
        Ok(server)
    }

    /// Serves every queued call unless another thread holds the server;
    /// once it lets go it looks again, so a call queued while it held the
    /// server is not left behind.
    fn run(&self) {
        while let Some(mut s) = self.serving.try_lock() {
            for (func, queue) in &self.funcs {
                while let Some(inc) = queue.pop() {
                    s.serve(*func, &inc);
                }
            }
            drop(s);
            if self.funcs.iter().all(|(_, q)| q.is_empty()) {
                return;
            }
        }
    }
}

impl Serving {
    fn serve(&mut self, func: u8, inc: &Incoming) {
        let Serving {
            h,
            handler,
            input,
            reply,
        } = self;
        if h.take_served(handler.ctx(func), inc, input).is_err() {
            return;
        }
        reply.clear();
        handler.call(h, func, input, reply);
        let route = ReplyRoute::of_hdr(&inc.hdr);
        let _ = h.reply_served(handler.ctx(func), route, reply);
    }
}

/// Queue of incoming calls for one RPC function id, and the server that
/// serves it, if one does. Each call for an unserved function wakes the
/// node's arrival event, which [`LiteKernel::pop_rpc`] parks on.
#[derive(Default)]
pub(crate) struct RpcQueue(Mutex<FuncQueue>);

#[derive(Default)]
struct FuncQueue {
    calls: VecDeque<Incoming>,
    server: Option<Weak<RpcServer>>,
}

impl RpcQueue {
    pub(crate) fn pop(&self) -> Option<Incoming> {
        self.0.lock().calls.pop_front()
    }

    fn is_empty(&self) -> bool {
        self.0.lock().calls.is_empty()
    }

    /// Queues `inc`; returns the function's server, if a live one serves
    /// it.
    pub(crate) fn push(&self, inc: Incoming) -> Option<Arc<RpcServer>> {
        let mut q = self.0.lock();
        q.calls.push_back(inc);
        q.server.as_ref()?.upgrade()
    }

    /// Binds the function to `server`; fails if a live one serves it.
    pub(crate) fn bind(&self, server: Weak<RpcServer>) -> bool {
        let mut q = self.0.lock();
        if q.server.as_ref().is_some_and(|s| s.strong_count() > 0) {
            return false;
        }
        q.server = Some(server);
        true
    }
}

thread_local! {
    /// How many `lt_*` calls this thread is inside.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Whether this thread is running served work.
    static RUNNING: Cell<bool> = const { Cell::new(false) };
    /// Work this thread found and has yet to run.
    static PENDING: RefCell<Vec<Pending>> = const { RefCell::new(Vec::new()) };
}

/// What a thread runs once it holds nothing: a server with calls it
/// dispatched, a kernel with a parked kernel call, or a migrator with
/// work it noted (outside every call only).
pub(crate) enum Pending {
    Serve(Arc<RpcServer>),
    Kernel(Arc<LiteKernel>),
    Migrate(Arc<Migrator>),
}

/// Runs `body` as an `lt_*` call of this thread, then — back outside every
/// such call — the served work it found. The outermost call starts and
/// ends in the thread's turn, if it takes turns ([`simnet::turn`]).
pub(crate) fn in_call<T>(ctx: &mut Ctx, body: impl FnOnce(&mut Ctx) -> T) -> T {
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            DEPTH.set(DEPTH.get() - 1);
        }
    }
    let outermost = DEPTH.get() == 0;
    if outermost {
        simnet::turn::enter(ctx.now());
    }
    DEPTH.set(DEPTH.get() + 1);
    let out = {
        let _leave = Leave;
        body(ctx)
    };
    if outermost {
        run_pending();
        simnet::turn::leave(ctx.now());
    }
    out
}

/// Notes `work`, a call that client `node`'s completion slot `slot` waits
/// on. A thread inside an `lt_*` call (or running one) runs it later
/// itself; any other thread hands it to the caller's reply wait.
pub(crate) fn note(kernel: &LiteKernel, work: Pending, node: NodeId, slot: u32) {
    if DEPTH.get() > 0 || RUNNING.get() {
        push(work);
    } else if let Some(slot) = kernel.dir.kernel(node).and_then(|k| k.slots.get(&slot)) {
        slot.help(work);
    }
}

/// Notes `migrator`'s work for this thread to run at the end of its
/// outermost `lt_*` call.
pub(crate) fn defer_migration(migrator: Arc<Migrator>) {
    push(Pending::Migrate(migrator));
}

fn push(work: Pending) {
    PENDING.with_borrow_mut(|p| {
        let same = |w: &Pending| match (w, &work) {
            (Pending::Serve(a), Pending::Serve(b)) => Arc::ptr_eq(a, b),
            (Pending::Kernel(a), Pending::Kernel(b)) => Arc::ptr_eq(a, b),
            (Pending::Migrate(a), Pending::Migrate(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if !p.iter().any(same) {
            p.push(work);
        }
    });
}

/// Runs `work` now if this thread may, else once it may.
pub(crate) fn run_now(work: Pending) {
    push(work);
    run_pending();
}

/// Runs the work this thread found, oldest first. Kernel calls run even
/// while the thread is already running work further up its stack (they
/// never wait); the rest waits for that loop. Migrations wait for the end
/// of the outermost `lt_*` call.
pub(crate) fn run_pending() {
    if PENDING.with_borrow(Vec::is_empty) {
        return;
    }
    struct Done(bool);
    impl Drop for Done {
        fn drop(&mut self) {
            RUNNING.set(self.0);
        }
    }
    let nested = RUNNING.replace(true);
    let _done = Done(nested);
    let outside = DEPTH.get() == 0;
    let next = |p: &mut Vec<Pending>| {
        let at = p.iter().position(|w| match w {
            Pending::Kernel(_) => true,
            Pending::Serve(_) => !nested,
            Pending::Migrate(_) => !nested && outside,
        })?;
        Some(p.remove(at))
    };
    while let Some(work) = PENDING.with_borrow_mut(next) {
        match work {
            Pending::Serve(server) => server.run(),
            Pending::Kernel(kernel) => kernel.serve_held(),
            Pending::Migrate(migrator) => migrator.run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::ThreadId;

    use smem::Chunk;

    use super::*;
    use crate::cluster::LiteCluster;
    use crate::kernel::{CallSlot, USER_FUNC_MIN};
    use crate::wire::HEADER_BYTES;

    const F1: u8 = USER_FUNC_MIN + 1;
    const F2: u8 = USER_FUNC_MIN + 2;

    /// What the test's two handlers saw.
    #[derive(Default)]
    struct Seen {
        /// Whether the first handler is running.
        in_first: AtomicBool,
        /// The first handler's server.
        first: Mutex<Weak<RpcServer>>,
        /// The second call's completion slot, once posted.
        posted: Mutex<Option<(u32, Arc<CallSlot>)>>,
        /// Where the second handler ran, and whether the first handler or
        /// its server (which sends its reply) was running.
        second: Mutex<Option<(ThreadId, bool)>>,
    }

    /// Calls `F2` on node 0 from node 1's handle `b` while it holds node
    /// 0's poller, so that the call waits undispatched in node 0's receive
    /// CQ; then echoes.
    struct First {
        ctx: Ctx,
        node0: Arc<LiteKernel>,
        b: LiteHandle,
        /// Where `b` stages the call, and where its reply lands.
        stage: u64,
        reply_at: u64,
        seen: Arc<Seen>,
    }

    impl RpcHandler for First {
        fn ctx(&mut self, _: u8) -> &mut Ctx {
            &mut self.ctx
        }

        fn call(&mut self, _: &mut LiteHandle, _: u8, input: &[u8], reply: &mut Vec<u8>) {
            self.seen.in_first.store(true, Ordering::SeqCst);
            let held = self.node0.dispatcher.lock();
            let mem = self.b.kernel().mem();
            mem.write(self.stage + HEADER_BYTES as u64, b"second")
                .unwrap();
            let gather = [Chunk {
                addr: self.stage,
                len: HEADER_BYTES as u64 + 6,
            }];
            let posted =
                self.b
                    .post_request(&mut Ctx::new(), 0, F2, &gather, (self.reply_at, 8), false);
            assert!(!self.node0.shared_recv_cq.is_empty(), "dispatched at once");
            drop(held);
            *self.seen.posted.lock() = posted.unwrap();
            reply.extend_from_slice(input);
            self.seen.in_first.store(false, Ordering::SeqCst);
        }
    }

    struct Second {
        ctx: Ctx,
        seen: Arc<Seen>,
    }

    impl RpcHandler for Second {
        fn ctx(&mut self, _: u8) -> &mut Ctx {
            &mut self.ctx
        }

        fn call(&mut self, _: &mut LiteHandle, _: u8, input: &[u8], reply: &mut Vec<u8>) {
            let server = self.seen.first.lock().upgrade().expect("first server");
            let inside =
                self.seen.in_first.load(Ordering::SeqCst) || server.serving.try_lock().is_none();
            *self.seen.second.lock() = Some((std::thread::current().id(), inside));
            reply.extend_from_slice(input);
        }
    }

    /// A handler's reply delivers a call to a second served function: the
    /// replying thread dispatches it while the first handler's server is
    /// still running, and runs it once that returns, never inside it.
    #[test]
    fn a_call_found_inside_a_handler_runs_after_it() {
        let cluster = LiteCluster::start(2).unwrap();
        let seen = Arc::new(Seen::default());
        let node1 = cluster.kernel(1);
        let stage = node1.alloc.lock().alloc(64).unwrap();
        let reply_at = node1.alloc.lock().alloc(8).unwrap();
        let first = First {
            ctx: Ctx::new(),
            node0: Arc::clone(cluster.kernel(0)),
            b: cluster.attach(1).unwrap(),
            stage,
            reply_at,
            seen: Arc::clone(&seen),
        };
        let f1 = cluster.attach(1).unwrap().serve_rpc(&[F1], first).unwrap();
        *seen.first.lock() = Arc::downgrade(&f1);
        let second = Second {
            ctx: Ctx::new(),
            seen: Arc::clone(&seen),
        };
        let _f2 = cluster.attach(0).unwrap().serve_rpc(&[F2], second).unwrap();
        let mut a = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        assert_eq!(a.lt_rpc(&mut ctx, 1, F1, b"first", 8).unwrap(), b"first");
        let (ran_on, inside) = seen.second.lock().expect("the second handler ran");
        assert_eq!(
            ran_on,
            std::thread::current().id(),
            "run by the replying thread"
        );
        assert!(!inside, "run inside the first handler or its reply");
        // And it answered its caller.
        let (id, slot) = seen.posted.lock().take().expect("posted");
        let done = slot.wait(&mut ctx, node1.config()).unwrap();
        node1.free_slot(id);
        let mut got = vec![0u8; done.len as usize];
        node1.mem().read(reply_at, &mut got).unwrap();
        assert_eq!(got, b"second");
    }

    struct Echo(Ctx);

    impl RpcHandler for Echo {
        fn ctx(&mut self, _: u8) -> &mut Ctx {
            &mut self.0
        }

        fn call(&mut self, _: &mut LiteHandle, _: u8, input: &[u8], reply: &mut Vec<u8>) {
            reply.extend_from_slice(input);
        }
    }

    /// Allocates on node 0 from inside its handler, and answers whether
    /// it could.
    struct Malloc(Ctx);

    impl RpcHandler for Malloc {
        fn ctx(&mut self, _: u8) -> &mut Ctx {
            &mut self.0
        }

        fn call(&mut self, h: &mut LiteHandle, _: u8, _: &[u8], reply: &mut Vec<u8>) {
            let mut ctx = Ctx::new();
            let lh = h.lt_malloc(&mut ctx, 0, 4096, "in.handler", crate::Perm::RW);
            reply.push(lh.and_then(|lh| h.lt_free(&mut ctx, lh)).is_ok() as u8);
        }
    }

    /// The kernel calls a handler makes are served by the handler's own
    /// thread at its reply waits, though that thread is already running
    /// served work. Left for after the handler, a parked call would stop
    /// node 0's dispatch, and the handler would wait out `op_timeout`.
    #[test]
    fn a_kernel_call_inside_a_handler_runs_at_its_wait() {
        let config = crate::LiteConfig {
            op_timeout: std::time::Duration::from_millis(300),
            ..Default::default()
        };
        let ib = rnic::IbConfig::with_nodes(2);
        let cluster = LiteCluster::start_with(ib, config).unwrap();
        let _malloc = cluster
            .attach(1)
            .unwrap()
            .serve_rpc(&[F1], Malloc(Ctx::new()))
            .unwrap();
        let mut a = cluster.attach(0).unwrap();
        let got = a.lt_rpc(&mut Ctx::new(), 1, F1, b"go", 8).unwrap();
        assert_eq!(got, [1], "the handler's allocation failed");
    }

    /// A kernel call parked for a thread that then blocks on something
    /// else is served by the next thread that delivers to its node: this
    /// thread dispatches `u`'s allocation on node 1 inside a call and
    /// then waits for it, and `v`'s allocation there serves both.
    #[test]
    fn a_parked_kernel_call_is_served_by_the_next_deliverer() {
        let config = crate::LiteConfig {
            op_timeout: std::time::Duration::from_millis(300),
            ..Default::default()
        };
        let ib = rnic::IbConfig::with_nodes(2);
        let cluster = LiteCluster::start_with(ib, config).unwrap();
        let node1 = Arc::clone(cluster.kernel(1));
        let malloc = |name: &'static str| {
            let mut h = cluster.attach(0).unwrap();
            move || {
                let lh = h.lt_malloc(&mut Ctx::new(), 1, 4096, name, crate::Perm::RW);
                lh.map(drop)
            }
        };
        std::thread::scope(|s| {
            let held = node1.dispatcher.lock();
            let u = s.spawn(malloc("u"));
            while node1.shared_recv_cq.is_empty() {
                std::thread::yield_now();
            }
            drop(held);
            in_call(&mut Ctx::new(), |_| {
                node1.drain_arrivals();
                assert!(node1.dispatcher.lock().held.is_some(), "not parked");
                let v = s.spawn(malloc("v"));
                assert_eq!(v.join().unwrap(), Ok(()));
                assert_eq!(u.join().unwrap(), Ok(()));
            });
        });
    }

    /// A served call dispatched by a thread outside any `lt_*` call — the
    /// test thread draining by hand — is handed to its caller, and the
    /// caller's reply wait runs it. Without the hand-off the call would
    /// sit queued until the wait timed out.
    #[test]
    fn a_call_dispatched_outside_any_call_runs_at_its_callers_wait() {
        let cluster = LiteCluster::start(2).unwrap();
        let (node0, node1) = (cluster.kernel(0), cluster.kernel(1));
        let _echo = cluster
            .attach(1)
            .unwrap()
            .serve_rpc(&[F1], Echo(Ctx::new()))
            .unwrap();
        let a = cluster.attach(0).unwrap();
        let stage = node0.alloc.lock().alloc(64).unwrap();
        let reply_at = node0.alloc.lock().alloc(8).unwrap();
        node0
            .mem()
            .write(stage + HEADER_BYTES as u64, b"handed")
            .unwrap();
        let gather = [Chunk {
            addr: stage,
            len: HEADER_BYTES as u64 + 6,
        }];
        let mut ctx = Ctx::new();
        let held = node1.dispatcher.lock();
        let posted = a.post_request(&mut ctx, 1, F1, &gather, (reply_at, 8), false);
        drop(held);
        let (id, slot) = posted.unwrap().expect("a slot");
        assert!(!node1.shared_recv_cq.is_empty(), "dispatched at once");
        node1.drain_arrivals();
        let done = slot.wait(&mut ctx, node0.config()).unwrap();
        node0.free_slot(id);
        let mut got = vec![0u8; done.len as usize];
        node0.mem().read(reply_at, &mut got).unwrap();
        assert_eq!(got, b"handed");
    }
}

//! Spans around every call the harness makes into the product, kept in
//! memory and written at exit as Chrome-trace JSON.
//!
//! These are spans *from outside*: the harness's own files time the public
//! calls. Spans inside the product are a later change (ROADMAP item 2).

use std::fmt::Write as _;
use std::time::Instant;

use simnet::{Ctx, Nanos};

/// At most this many spans go to the trace file (the head of the run);
/// all of them are counted.
const FILE_SPANS: usize = 40_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Op index; the steps of one transaction share it.
    pub req: u64,
    /// Context that made the call.
    pub ctx: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub v_start: Nanos,
    pub v_end: Nanos,
    /// Host ns since the tracer was created.
    pub h_start: u64,
    pub h_end: u64,
}

/// Records spans when on; when off every method is a branch and a return.
pub struct Tracer {
    spans: Option<Vec<Span>>,
    epoch: Instant,
    /// Open op span per context.
    open: Vec<Option<usize>>,
    cur: usize,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            spans: None,
            epoch: Instant::now(),
            open: Vec::new(),
            cur: 0,
        }
    }

    pub fn on(contexts: usize) -> Self {
        Tracer {
            spans: Some(Vec::new()),
            open: vec![None; contexts],
            ..Tracer::off()
        }
    }

    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the op-level span of context `ctx` (layer `harness`).
    pub fn begin_op(&mut self, ctx: usize, req: u64, v_start: Nanos) {
        let Some(spans) = &mut self.spans else {
            return;
        };
        let h = self.epoch.elapsed().as_nanos() as u64;
        self.open[ctx] = Some(spans.len());
        spans.push(Span {
            name: "op",
            layer: "harness",
            req,
            ctx,
            parent: None,
            v_start,
            v_end: v_start,
            h_start: h,
            h_end: h,
        });
    }

    /// Makes `ctx`'s open op the parent of the calls that follow.
    pub fn resume_op(&mut self, ctx: usize) {
        self.cur = ctx;
    }

    pub fn end_op(&mut self, ctx: usize, v_end: Nanos) {
        let Some(spans) = &mut self.spans else {
            return;
        };
        if let Some(i) = self.open[ctx].take() {
            spans[i].v_end = v_end;
            spans[i].h_end = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Wraps one call into the product in a span under the current op.
    #[inline]
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut Ctx) -> T,
    ) -> T {
        if self.spans.is_none() {
            return f(ctx);
        }
        let (v_start, h_start) = (ctx.now(), self.host_ns());
        let out = f(ctx);
        let (v_end, h_end) = (ctx.now(), self.host_ns());
        let parent = self.open.get(self.cur).copied().flatten();
        let spans = self.spans.as_mut().expect("checked on");
        let req = parent.map_or(0, |p| spans[p].req);
        spans.push(Span {
            name,
            layer,
            req,
            ctx: self.cur,
            parent,
            v_start,
            v_end,
            h_start,
            h_end,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): process 1 lays the
    /// spans out on the virtual clock, process 2 on the host clock; one
    /// thread row per context.
    pub fn chrome_json(&self, workload: &str) -> String {
        let spans = self.spans();
        let mut s = String::with_capacity(spans.len().min(FILE_SPANS) * 400 + 256);
        let _ = write!(
            s,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\
             \"spans_recorded\":{},\"spans_written\":{}}},\"traceEvents\":[\
             {{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"virtual clock\"}}}},\
             {{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{{\"name\":\"host clock\"}}}}",
            spans.len(),
            spans.len().min(FILE_SPANS),
        );
        for (id, sp) in spans.iter().enumerate().take(FILE_SPANS) {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            for (pid, start, end) in [(1, sp.v_start, sp.v_end), (2, sp.h_start, sp.h_end)] {
                let _ = write!(
                    s,
                    ",{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"req\":{},\"parent\":{parent},\
                     \"v_start\":{},\"v_end\":{},\"h_start\":{},\"h_end\":{}}}}}",
                    sp.ctx,
                    sp.name,
                    sp.layer,
                    start as f64 / 1e3,
                    end.saturating_sub(start) as f64 / 1e3,
                    sp.req,
                    sp.v_start,
                    sp.v_end,
                    sp.h_start,
                    sp.h_end,
                );
            }
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_nest_under_their_contexts_open_op() {
        let mut tr = Tracer::on(2);
        let mut a = Ctx::new();
        let mut b = Ctx::new();
        tr.begin_op(0, 10, 0);
        tr.begin_op(1, 11, 0);
        tr.resume_op(1);
        tr.call("lite.api", "lt_write", &mut b, |c| c.work(5));
        tr.resume_op(0);
        tr.call("lite.api", "lt_read", &mut a, |c| c.work(7));
        tr.end_op(0, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[2].parent, s[2].req, s[2].ctx), (Some(1), 11, 1));
        assert_eq!((s[3].parent, s[3].req, s[3].v_end), (Some(0), 10, 7));
        assert_eq!(s[0].v_end, 7);
        let json = tr.chrome_json("t");
        assert!(json.starts_with('{') && json.ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 8);
    }

    #[test]
    fn off_records_nothing_and_still_runs_the_call() {
        let mut tr = Tracer::off();
        let mut c = Ctx::new();
        tr.begin_op(0, 0, 0);
        assert_eq!(
            tr.call("l", "n", &mut c, |c| {
                c.work(3);
                9
            }),
            9
        );
        assert_eq!(c.now(), 3);
        assert!(tr.spans().is_empty());
    }
}

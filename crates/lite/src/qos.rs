//! Resource isolation and QoS (§6.2).
//!
//! Two schemes, both selectable at runtime:
//!
//! * **HW-Sep** — hardware partitioning: the K shared QPs towards each
//!   peer are split between priorities (3:1 at K=4), which divides the
//!   NIC's bandwidth in the same proportion. Low-priority work cannot use
//!   the high-priority share *even when it is idle* — the rigidity the
//!   paper demonstrates.
//! * **SW-Pri** — sender-side software control with the paper's three
//!   policies: (1) rate-limit low priority when high-priority load is
//!   high, (2) don't when high-priority traffic is absent/light, and
//!   (3) rate-limit low priority when high-priority RTT inflates.
//!
//! The HW-Sep share and the three SW-Pri thresholds are constants, the
//! same on every node of every cluster.

use std::sync::atomic::{AtomicU64, Ordering};

use simnet::{Ctx, Nanos, Resource, TokenBucket, MILLIS};

/// Request priority carried by every LITE operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency/bandwidth-sensitive foreground work.
    #[default]
    High,
    /// Background work, throttled under contention.
    Low,
}

/// Which QoS scheme is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosMode {
    /// No isolation: everyone shares everything (the "No QoS" lines).
    #[default]
    None,
    /// Per-priority hardware partitions.
    HwSep,
    /// Software priority-based flow control.
    SwPri,
}

/// Fraction of resources HW-Sep reserves for high priority.
const HW_HIGH_SHARE: f64 = 0.75;
/// SW-Pri: rate allowed to low priority while throttled, as a fraction of
/// link bandwidth.
const SW_LOW_FRAC: f64 = 0.12;
/// SW-Pri: high-priority load (fraction of link bandwidth over the
/// monitoring window) above which policy 1 throttles low priority.
const SW_HIGH_LOAD_FRAC: f64 = 0.08;
/// SW-Pri: high-priority RTT EWMA above this throttles low priority
/// (policy 3).
const SW_RTT_THRESHOLD_NS: Nanos = 4_500;

/// Monitoring window: byte counters in 1 ms virtual-time buckets.
const BUCKETS: usize = 32;
const BUCKET_WIDTH: Nanos = MILLIS;
/// Buckets summed when estimating current high-priority load.
const WINDOW: u64 = 8;

struct LoadMonitor {
    /// Per-bucket epoch tags; a slot is valid only for its current epoch.
    epochs: Vec<AtomicU64>,
    bytes: Vec<AtomicU64>,
    ops: Vec<AtomicU64>,
}

impl LoadMonitor {
    fn new() -> Self {
        LoadMonitor {
            epochs: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            bytes: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            ops: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, at: Nanos, bytes: u64) {
        let epoch = at / BUCKET_WIDTH;
        let slot = (epoch as usize) % BUCKETS;
        // Best-effort reset on epoch change; a lost update only blurs the
        // estimate by one bucket. Within an epoch the tag is only read.
        if self.epochs[slot].load(Ordering::Relaxed) != epoch
            && self.epochs[slot].swap(epoch, Ordering::Relaxed) != epoch
        {
            self.bytes[slot].store(0, Ordering::Relaxed);
            self.ops[slot].store(0, Ordering::Relaxed);
        }
        self.bytes[slot].fetch_add(bytes, Ordering::Relaxed);
        self.ops[slot].fetch_add(1, Ordering::Relaxed);
    }

    fn window_sums(&self, at: Nanos) -> (u64, u64) {
        let cur = at / BUCKET_WIDTH;
        let lo = cur.saturating_sub(WINDOW);
        let (mut b, mut o) = (0u64, 0u64);
        for slot in 0..BUCKETS {
            let e = self.epochs[slot].load(Ordering::Relaxed);
            if e > lo && e <= cur {
                b += self.bytes[slot].load(Ordering::Relaxed);
                o += self.ops[slot].load(Ordering::Relaxed);
            }
        }
        (b, o)
    }

    /// Bytes/second of recorded traffic over the last `WINDOW` buckets
    /// before `at`.
    fn rate(&self, at: Nanos) -> f64 {
        self.window_sums(at).0 as f64 * 1e9 / (WINDOW * BUCKET_WIDTH) as f64
    }

    /// Ops/second over the window.
    fn op_rate(&self, at: Nanos) -> f64 {
        self.window_sums(at).1 as f64 * 1e9 / (WINDOW * BUCKET_WIDTH) as f64
    }
}

/// Per-node QoS state.
pub struct QosState {
    mode: AtomicU64, // QosMode encoded
    link_bytes_per_sec: u64,
    /// HW-Sep pipes: bandwidth shares as FCFS servers with scaled service.
    high_pipe: Resource,
    low_pipe: Resource,
    /// SW-Pri limiter for low priority.
    low_bucket: TokenBucket,
    /// High-priority load monitor (policies 1 and 2), fed only while
    /// the mode is SW-Pri.
    monitor: LoadMonitor,
    /// High-priority RTT EWMA in ns (policy 3).
    rtt_ewma: AtomicU64,
}

impl QosState {
    /// Creates QoS state for a node whose link runs at
    /// `link_bytes_per_sec`.
    pub fn new(link_bytes_per_sec: u64) -> Self {
        let low_rate = (link_bytes_per_sec as f64 * SW_LOW_FRAC) as u64;
        QosState {
            mode: AtomicU64::new(0),
            link_bytes_per_sec,
            high_pipe: Resource::with_slack("qos-high-pipe", 60_000),
            low_pipe: Resource::with_slack("qos-low-pipe", 60_000),
            low_bucket: TokenBucket::new(low_rate, 256 * 1024),
            monitor: LoadMonitor::new(),
            rtt_ewma: AtomicU64::new(0),
        }
    }

    /// Active mode.
    pub fn mode(&self) -> QosMode {
        match self.mode.load(Ordering::Relaxed) {
            1 => QosMode::HwSep,
            2 => QosMode::SwPri,
            _ => QosMode::None,
        }
    }

    /// Switches mode.
    pub fn set_mode(&self, mode: QosMode) {
        let v = match mode {
            QosMode::None => 0,
            QosMode::HwSep => 1,
            QosMode::SwPri => 2,
        };
        self.mode.store(v, Ordering::Relaxed);
        self.low_bucket.reset();
    }

    /// Splits K QPs between priorities under HW-Sep: returns
    /// `(high_range, low_range)` as index bounds `0..hi` and `hi..k`.
    pub fn hw_partition(&self, k: usize) -> (usize, usize) {
        if k <= 1 {
            return (k, k);
        }
        let hi = ((k as f64 * HW_HIGH_SHARE).round() as usize).clamp(1, k - 1);
        (hi, k)
    }

    /// Applies QoS policy before an operation of `bytes` at priority
    /// `prio`; delays the caller's clock as required.
    pub fn before_op(&self, ctx: &mut Ctx, prio: Priority, bytes: u64) {
        match self.mode() {
            QosMode::None => {}
            QosMode::HwSep => {
                // Service scaled by the inverse share: a class holding
                // share s of the link drains bytes at s * link rate.
                let (pipe, share) = match prio {
                    Priority::High => (&self.high_pipe, HW_HIGH_SHARE),
                    Priority::Low => (&self.low_pipe, 1.0 - HW_HIGH_SHARE),
                };
                let eff = (self.link_bytes_per_sec as f64 * share).max(1.0) as u64;
                let service = simnet::transfer_time(bytes, eff);
                let g = pipe.acquire(ctx.now(), service);
                ctx.wait_until(g.finish);
            }
            QosMode::SwPri => {
                // Policy 2: no/light high-priority traffic => no limit.
                if prio == Priority::Low && self.low_should_throttle(ctx.now()) {
                    let at = self.low_bucket.reserve(ctx.now(), bytes);
                    ctx.wait_until(at);
                }
            }
        }
    }

    fn low_should_throttle(&self, now: Nanos) -> bool {
        // Policy 2 overrides: with no (or negligible) high-priority
        // *activity* there is no one to protect — never throttle, even if
        // a stale RTT estimate lingers from the last burst. Activity is
        // measured in operations, not bytes: a latency-sensitive app
        // issuing small ops still deserves protection.
        if self.monitor.op_rate(now) < 1_000.0 {
            return false;
        }
        let high_rate = self.monitor.rate(now);
        // Policy 1: high load from high-priority jobs.
        if high_rate > SW_HIGH_LOAD_FRAC * self.link_bytes_per_sec as f64 {
            return true;
        }
        // Policy 3: high-priority RTT inflation.
        self.rtt_ewma.load(Ordering::Relaxed) > SW_RTT_THRESHOLD_NS
    }

    /// Current high-priority RTT estimate (diagnostics, tests).
    pub fn rtt_estimate(&self) -> Nanos {
        self.rtt_ewma.load(Ordering::Relaxed)
    }

    /// Records a completed high-priority op (feeds policies 1 and 3).
    /// The load monitor counts it only under SW-Pri, its one reader:
    /// its two atomic adds a verb are otherwise paid for nothing.
    pub fn after_high_op(&self, finish: Nanos, bytes: u64, latency: Nanos) {
        if self.mode() == QosMode::SwPri {
            self.monitor.record(finish, bytes);
        }
        // EWMA with alpha = 1/8.
        let old = self.rtt_ewma.load(Ordering::Relaxed);
        let new = old - old / 8 + latency / 8;
        self.rtt_ewma.store(new, Ordering::Relaxed);
    }

    /// Resets queueing/monitoring state between experiments.
    pub fn reset(&self) {
        self.high_pipe.reset();
        self.low_pipe.reset();
        self.low_bucket.reset();
        self.rtt_ewma.store(0, Ordering::Relaxed);
        for b in &self.monitor.bytes {
            b.store(0, Ordering::Relaxed);
        }
        for e in &self.monitor.epochs {
            e.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SECONDS;

    fn state() -> QosState {
        QosState::new(4_000_000_000)
    }

    #[test]
    fn none_mode_is_free() {
        let q = state();
        let mut ctx = Ctx::new();
        q.before_op(&mut ctx, Priority::Low, 1 << 20);
        assert_eq!(ctx.now(), 0);
    }

    #[test]
    fn hw_partition_shares() {
        let q = state();
        assert_eq!(q.hw_partition(4), (3, 4));
        assert_eq!(q.hw_partition(2), (1, 2));
        assert_eq!(q.hw_partition(1), (1, 1));
    }

    #[test]
    fn hw_sep_caps_low_even_when_idle() {
        let q = state();
        q.set_mode(QosMode::HwSep);
        let mut ctx = Ctx::new();
        // Push 100 MB of low-priority traffic with no high traffic at all:
        // the low pipe still caps it at 25% of the link (= 1 GB/s).
        let total = 100u64 << 20;
        for _ in 0..100 {
            q.before_op(&mut ctx, Priority::Low, total / 100);
        }
        let rate = total as f64 * 1e9 / ctx.now() as f64;
        assert!(
            rate < 1.1e9,
            "low-priority rate {rate:.2e} should be capped at ~1 GB/s"
        );
    }

    #[test]
    fn sw_pri_throttles_only_under_high_load() {
        let q = state();
        q.set_mode(QosMode::SwPri);
        let mut ctx = Ctx::new();
        ctx.wait_until(10 * MILLIS);
        // No high traffic: low is unlimited (policy 2).
        let t0 = ctx.now();
        q.before_op(&mut ctx, Priority::Low, 10 << 20);
        assert_eq!(ctx.now(), t0, "no throttle without high load");

        // Inject heavy high-priority load into the monitor near now
        // (enough ops to clear the policy-2 activity floor).
        for i in 0..64 {
            q.after_high_op(ctx.now() + (i % 8) * MILLIS, 1 << 20, 3_000);
        }
        let mut later = Ctx::new();
        later.wait_until(ctx.now() + 4 * MILLIS);
        let t1 = later.now();
        q.before_op(&mut later, Priority::Low, 32 << 20);
        assert!(later.now() > t1, "policy 1 throttles low priority");
    }

    #[test]
    fn sw_pri_rtt_policy_throttles() {
        let q = state();
        q.set_mode(QosMode::SwPri);
        let mut ctx = Ctx::new();
        ctx.wait_until(SECONDS);
        // Report inflated high-priority RTTs (policy 3) with *some* high
        // traffic — above the policy-2 floor (1% of link over the 8 ms
        // window = ~320 KB) but below the policy-1 load threshold.
        for i in 0..64 {
            q.after_high_op(ctx.now() - i * 1_000, 16 * 1024, 100_000);
        }
        let t0 = ctx.now();
        q.before_op(&mut ctx, Priority::Low, 64 << 20);
        assert!(ctx.now() > t0, "RTT inflation throttles low priority");

        // Policy 2 override: with high traffic gone (stale monitor), the
        // lingering RTT estimate must not keep throttling.
        let mut later = Ctx::new();
        later.wait_until(10 * SECONDS);
        let t1 = later.now();
        q.before_op(&mut later, Priority::Low, 64 << 20);
        assert_eq!(later.now(), t1, "no high traffic => no throttle");
    }

    #[test]
    fn mode_switching() {
        let q = state();
        assert_eq!(q.mode(), QosMode::None);
        q.set_mode(QosMode::SwPri);
        assert_eq!(q.mode(), QosMode::SwPri);
        q.set_mode(QosMode::HwSep);
        assert_eq!(q.mode(), QosMode::HwSep);
        q.set_mode(QosMode::None);
        assert_eq!(q.mode(), QosMode::None);
    }
}

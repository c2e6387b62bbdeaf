//! Token-bucket rate limiting in virtual time.
//!
//! LITE's SW-Pri QoS scheme (§6.2) rate-limits low-priority senders at the
//! sending side. A [`TokenBucket`] answers the question "a client at
//! virtual time `now` wants to send `n` bytes — when may it start?".

use parking_lot::Mutex;

use crate::time::{Nanos, GIGA};

#[derive(Debug)]
struct State {
    /// Tokens (bytes) available at `as_of`.
    tokens: f64,
    /// Virtual time at which `tokens` was computed.
    as_of: Nanos,
}

/// A token bucket over virtual time. Tokens are bytes.
#[derive(Debug)]
pub struct TokenBucket {
    /// Refill rate in bytes per (virtual) second. Zero disables the limiter.
    rate: u64,
    /// Maximum burst in bytes.
    burst: u64,
    state: Mutex<State>,
}

impl TokenBucket {
    /// Creates a bucket refilled at `rate_bytes_per_sec` allowing bursts of
    /// `burst` bytes. The bucket starts full.
    pub fn new(rate_bytes_per_sec: u64, burst: u64) -> Self {
        TokenBucket {
            rate: rate_bytes_per_sec,
            burst: burst.max(1),
            state: Mutex::new(State {
                tokens: burst.max(1) as f64,
                as_of: 0,
            }),
        }
    }

    /// Reserves `bytes` of budget for a client at `now`; returns the
    /// virtual time at which the client may proceed (>= `now`).
    ///
    /// Allows the bucket to go negative ("borrowing"), which is the usual
    /// single-lock implementation: the depth of debt determines the delay.
    pub fn reserve(&self, now: Nanos, bytes: u64) -> Nanos {
        let rate = self.rate;
        if rate == 0 {
            return now;
        }
        let mut st = self.state.lock();
        // Refill up to `now`.
        if now > st.as_of {
            let refill = (now - st.as_of) as f64 * rate as f64 / GIGA as f64;
            st.tokens = (st.tokens + refill).min(self.burst as f64);
            st.as_of = now;
        }
        st.tokens -= bytes as f64;
        if st.tokens >= 0.0 {
            now
        } else {
            // Time until the debt is repaid.
            let wait = (-st.tokens) * GIGA as f64 / rate as f64;
            now + wait as Nanos
        }
    }

    /// Resets the bucket to full at time zero.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.tokens = self.burst as f64;
        st.as_of = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SECONDS;

    #[test]
    fn unlimited_when_rate_zero() {
        let tb = TokenBucket::new(0, 1);
        assert_eq!(tb.reserve(123, 1 << 30), 123);
    }

    #[test]
    fn sustained_rate_is_enforced() {
        // 1000 bytes/s, burst 100. Sending 1100 bytes at t=0 should push
        // the release point to ~1 s (100 burst + 1000 refilled over 1 s).
        let tb = TokenBucket::new(1000, 100);
        let t = tb.reserve(0, 1100);
        assert_eq!(t, SECONDS);
    }

    #[test]
    fn refill_caps_at_burst() {
        let tb = TokenBucket::new(1000, 100);
        // Wait 10 virtual seconds: bucket holds only 100.
        let t = tb.reserve(10 * SECONDS, 100);
        assert_eq!(t, 10 * SECONDS);
        let t2 = tb.reserve(10 * SECONDS, 100);
        assert!(t2 > 10 * SECONDS, "second burst must wait");
    }

    #[test]
    fn long_run_throughput_matches_rate() {
        let tb = TokenBucket::new(1_000_000, 1000);
        let mut now = 0;
        let per_req = 500u64;
        let reqs = 10_000u64;
        for _ in 0..reqs {
            now = tb.reserve(now, per_req);
        }
        let bytes = per_req * reqs;
        let achieved = bytes as f64 * GIGA as f64 / now as f64;
        assert!(
            (achieved - 1_000_000.0).abs() / 1_000_000.0 < 0.01,
            "achieved {achieved}"
        );
    }
}

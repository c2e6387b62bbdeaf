//! Streaming statistics used by the benchmark harnesses.

use crate::time::Nanos;

/// Running count/sum/min/max/mean over `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A log-scaled histogram of `u64` samples supporting percentile queries.
///
/// Buckets are `[2^k, 2^(k+1))` subdivided linearly 16 ways, giving ~6 %
/// relative error — plenty for latency reporting. The exact minimum and
/// maximum are tracked on the side so `percentile(0.0)` and
/// `percentile(100.0)` report the true extremes rather than a bucket
/// floor (which would under-report the max by up to one bucket).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

/// Linear subdivisions per power-of-two bucket.
pub const HIST_SUB: usize = 16;
const SUB: usize = HIST_SUB;
const SUB_BITS: u32 = 4;
/// Total number of buckets a [`Histogram`] holds.
pub const HIST_BUCKETS: usize = 64 * SUB;

/// Index of the bucket containing `v` (shared with the ledger's
/// histograms, [`crate::ledger`], which a fold turns back into a
/// [`Histogram`] from per-bucket counts).
pub fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (exp as usize - SUB_BITS as usize + 1) * SUB + sub
}

/// Smallest value that falls in bucket `idx` (inverse of [`bucket_of`]:
/// `bucket_of(bucket_floor(i)) == i`).
pub fn bucket_floor(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let exp = idx / SUB + SUB_BITS as usize - 1;
    let sub = (idx % SUB) as u64;
    (1u64 << exp) | (sub << (exp - SUB_BITS as usize))
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples at once (bulk reconstruction from
    /// pre-bucketed counts; `record_n(bucket_floor(i), c)` lands all `c`
    /// samples back in bucket `i`).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)] += n;
        self.count += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Overrides the tracked exact extremes. Used when reconstructing a
    /// histogram from bucket counts whose true min/max were tracked
    /// elsewhere (bucket floors under-report both).
    pub fn set_bounds(&mut self, min: u64, max: u64) {
        if self.count > 0 {
            self.min = min;
            self.max = max;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns the approximate `p`-th percentile (0.0..=100.0), or 0 if
    /// empty. Interior percentiles carry the ~6 % bucket error; the
    /// result is clamped to the exact observed `[min, max]`, so
    /// `percentile(0.0) == min()` and `percentile(100.0) == max()`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if target >= self.count {
            // The rank of the largest sample: report it exactly.
            return self.max;
        }
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The last bucket's floor can only under-report (every
                // sample in it is >= the floor); clamping to the exact
                // extremes fixes p0/p100 and tightens the tails.
                return bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median shortcut.
    pub fn median(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += *src;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Fixed-width time-bucketed series: record `(timestamp, value)` pairs and
/// read back per-bucket sums. Used for the Figure 16 QoS timeline
/// (throughput in GB/s per 100 ms of virtual time).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    width: Nanos,
    buckets: Vec<u128>,
}

impl TimeSeries {
    /// Creates a series with buckets of `width` nanoseconds.
    pub fn new(width: Nanos) -> Self {
        assert!(width > 0);
        TimeSeries {
            width,
            buckets: Vec::new(),
        }
    }

    /// Adds `value` to the bucket containing `at`.
    pub fn record(&mut self, at: Nanos, value: u64) {
        let idx = (at / self.width) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += value as u128;
    }

    /// Merges another series (same width) into this one.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.width, other.width);
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += *src;
        }
    }

    /// Bucket width in nanoseconds.
    pub fn width(&self) -> Nanos {
        self.width
    }

    /// Per-bucket sums.
    pub fn buckets(&self) -> &[u128] {
        &self.buckets
    }

    /// Per-bucket rate in units/second (e.g. bytes recorded → bytes/s).
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let scale = 1e9 / self.width as f64;
        self.buckets.iter().map(|&b| b as f64 * scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for v in [5u64, 1, 9] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 9);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        let mut t = Summary::new();
        t.record(100);
        s.merge(&t);
        assert_eq!(s.max(), 100);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn histogram_percentiles_are_close() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((4500..=5500).contains(&p50), "p50={p50}");
        assert!((9200..=10_000).contains(&p99), "p99={p99}");
        // Exact at the extremes: no bucket-floor under-reporting.
        assert_eq!(h.percentile(100.0), 10_000);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn histogram_extremes_are_exact() {
        let mut h = Histogram::new();
        // 1000 falls in a bucket whose floor is 992: the old
        // `percentile(100.0)` returned 992, under-reporting the max.
        h.record(1000);
        h.record(7);
        assert_eq!(bucket_floor(bucket_of(1000)), 992);
        assert_eq!(h.percentile(100.0), 1000);
        assert_eq!(h.percentile(0.0), 7);
        assert_eq!(h.median(), 7);
        let mut other = Histogram::new();
        other.record(3);
        other.record(2000);
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(0.0), 3);
        assert_eq!(h.percentile(100.0), 2000);
    }

    #[test]
    fn histogram_record_n_reconstruction() {
        // Reconstructing from bucket counts + set_bounds matches the
        // original at the extremes.
        let mut orig = Histogram::new();
        for v in [13u64, 999, 1000, 54_321] {
            orig.record(v);
        }
        let mut rebuilt = Histogram::new();
        for v in [13u64, 999, 1000, 54_321] {
            rebuilt.record_n(bucket_floor(bucket_of(v)), 1);
        }
        rebuilt.set_bounds(orig.min(), orig.max());
        assert_eq!(rebuilt.count(), orig.count());
        assert_eq!(rebuilt.percentile(0.0), orig.percentile(0.0));
        assert_eq!(rebuilt.percentile(100.0), orig.percentile(100.0));
    }

    #[test]
    fn histogram_bucket_roundtrip_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 5, 16, 17, 100, 1000, 1 << 20, u64::MAX / 2] {
            let b = bucket_of(v);
            let f = bucket_floor(b);
            assert!(f <= v, "floor {f} > value {v}");
            assert!(b >= last || v == 0);
            last = b;
        }
    }

    #[test]
    fn timeseries_buckets() {
        let mut ts = TimeSeries::new(100);
        ts.record(0, 5);
        ts.record(99, 5);
        ts.record(100, 7);
        ts.record(350, 1);
        assert_eq!(ts.buckets(), &[10, 7, 0, 1]);
        let rates = ts.rates_per_sec();
        assert!((rates[0] - 10.0 * 1e7).abs() < 1.0);
        let mut other = TimeSeries::new(100);
        other.record(500, 2);
        ts.merge(&other);
        assert_eq!(ts.buckets(), &[10, 7, 0, 1, 0, 2]);
    }
}

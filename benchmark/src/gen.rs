//! Seeded input generators. Everything a workload feeds the product is a
//! pure function of `--seed`: offsets, keys, op mix, sizes, application
//! work and arrival schedules.
//!
//! They are the benchmark's own (not `rand` or `simnet::Zipf`) so that no
//! change to the product or its vendored crates can change the inputs, and
//! with them every virtual metric, between a parent commit and its child.

use simnet::Nanos;

/// SplitMix64's output function: a bijective scramble of `x`.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// SplitMix64: one multiply-xorshift step per draw, seedable from any u64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for stream `stream` of `seed`, independent of the
    /// other streams (one per context and per round).
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential with the given mean (inter-arrival and think times).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf(θ) over ranks `0..n` by inverse CDF; rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        cdf[n - 1] = 1.0;
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Analytic probability of `rank`.
    #[cfg(test)]
    pub fn mass(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }
}

/// A Poisson arrival schedule: `ops` due times (virtual ns from the
/// round's start) over exactly `ops / ops_per_sec` seconds. Given their
/// count, the arrivals of a Poisson process in a window are independent
/// uniform draws, sorted; fixing the window keeps the offered load of
/// every round at the nominal rate instead of within a few percent of it.
pub fn poisson_schedule(rng: &mut Rng, ops: usize, ops_per_sec: f64) -> Vec<Nanos> {
    let window_ns = ops as f64 * 1e9 / ops_per_sec;
    let mut due: Vec<Nanos> = (0..ops)
        .map(|_| (rng.unit() * window_ns) as Nanos)
        .collect();
    due.sort_unstable();
    due
}

/// A shuffled deck of `ops` draws of which exactly `share` (rounded) are
/// true: an op mix with its nominal proportions, in seeded order.
pub fn exact_mix(rng: &mut Rng, ops: usize, share: f64) -> Vec<bool> {
    let hits = (ops as f64 * share).round() as usize;
    let mut deck: Vec<bool> = (0..ops).map(|i| i < hits).collect();
    for i in (1..ops).rev() {
        deck.swap(i, rng.below(i as u64 + 1) as usize);
    }
    deck
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_differs() {
        let draw = |seed, stream| {
            let mut r = Rng::stream(seed, stream);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(8, 3));
        assert_ne!(draw(7, 3), draw(7, 4));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn poisson_rate_within_two_percent_and_pure_in_seed() {
        let sched = |seed| poisson_schedule(&mut Rng::stream(seed, 0), 50_000, 200_000.0);
        let a = sched(1);
        assert_eq!(a, sched(1));
        assert_ne!(a, sched(2));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = a.len() as f64 * 1e9 / *a.last().unwrap() as f64;
        assert!((rate / 200_000.0 - 1.0).abs() < 0.02, "rate {rate}");
        // Exponential gaps: their standard deviation equals their mean.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.05,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn exact_mix_has_its_share_and_follows_the_seed() {
        let deck = |seed| exact_mix(&mut Rng::new(seed), 1_000, 0.9);
        assert_eq!(deck(1).iter().filter(|&&g| g).count(), 900);
        assert_eq!(deck(1), deck(1));
        assert_ne!(deck(1), deck(2));
        // Shuffled, not sorted: the first hundred hold some of each.
        assert!(deck(1)[..100].iter().any(|&g| g) && deck(1)[..100].iter().any(|&g| !g));
    }

    #[test]
    fn zipf_rank_mass_matches_analytic() {
        let z = Zipf::new(64, 0.99);
        let mut r = Rng::new(5);
        let n = 400_000;
        let mut counts = [0u32; 64];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for rank in [0, 1, 7, 63] {
            let got = counts[rank] as f64 / n as f64;
            let want = z.mass(rank);
            assert!(
                (got - want).abs() < 0.1 * want + 0.001,
                "rank {rank}: {got} vs {want}"
            );
        }
        assert!((0..64).map(|k| z.mass(k)).sum::<f64>() > 0.999_999);
    }
}

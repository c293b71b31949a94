//! Order statistics over the benchmark's own samples, and the seeded
//! generator every workload input is drawn from.

use std::time::Duration;

/// The `p`-quantile (`0 < p <= 1`) by nearest rank: the smallest sample
/// with at least a `p` share of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least one.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "a quantile needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p50, p90, p99 and p99.9, in per mille, that leaves at
/// least ten of `n` samples beyond its nearest rank; `None` below 20.
pub fn tail_permille(n: usize) -> Option<usize> {
    [999, 990, 900, 500].into_iter().find(|pm| n - (pm * n).div_ceil(1000) >= 10)
}

/// The geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// The arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: a tiny, well-mixed generator, so that one `--seed` fixes
/// every generated input (image indices, arrival times, fleet order).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Due offsets of a Poisson arrival process at `rate` requests per second
/// over `window`: exponential gaps drawn from `rng`.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn schedule_is_seeded_and_hits_the_rate() {
        let a = poisson_schedule(&mut SplitMix64::new(3), 200.0, Duration::from_secs(10));
        let b = poisson_schedule(&mut SplitMix64::new(3), 200.0, Duration::from_secs(10));
        assert_eq!(a, b);
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}

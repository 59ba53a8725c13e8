//! Lightweight metrics containers used by experiments and benchmarks.

use crate::encode::push_decimal;
use std::fmt::Write;

/// A simple monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A level gauge with a high-water mark.
///
/// Unlike a [`Counter`], a gauge goes both up and down (queue depth,
/// in-flight requests) while remembering the highest level it ever reached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    current: u64,
    max: u64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Raises the level by `n`, updating the high-water mark.
    pub fn raise(&mut self, n: u64) {
        self.current = self.current.saturating_add(n);
        self.max = self.max.max(self.current);
    }

    /// Lowers the level by `n`, saturating at zero.
    pub fn lower(&mut self, n: u64) {
        self.current = self.current.saturating_sub(n);
    }

    /// Sets the level directly, updating the high-water mark.
    pub fn set(&mut self, level: u64) {
        self.current = level;
        self.max = self.max.max(level);
    }

    /// The current level.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// The highest level ever set.
    pub fn high_water(&self) -> u64 {
        self.max
    }
}

/// A fixed-bucket histogram with power-of-two bucket boundaries.
///
/// Suited to latency measurements spanning several orders of magnitude
/// (nanoseconds to seconds). The 64 buckets are held inline, so creating,
/// cloning or recording into a histogram never touches the allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`; bucket 0 also counts 0.
    buckets: [u64; 64],
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            total: 0,
            sum: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile, linearly interpolated within the power-of-two
    /// bucket containing the q-quantile (samples are assumed uniformly
    /// distributed inside a bucket, which bounds the error by the bucket
    /// width over its count instead of a whole bucket). `q` is clamped to
    /// `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (((self.total as f64) * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                // The target rank lands inside bucket i, which covers
                // [lo, hi]; interpolate by its rank within the bucket.
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                // Midpoint convention: rank r of c sits at (r - 0.5)/c of
                // the bucket, so a lone sample reads as the bucket middle
                // rather than its upper bound.
                let into = ((target - seen) as f64 - 0.5) / c as f64;
                let width = (hi - lo) as f64;
                return lo.saturating_add((width * into) as u64);
            }
            seen += c;
        }
        u64::MAX
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The per-bucket counts (`buckets[i]` covers `[2^i, 2^(i+1))`, with
    /// bucket 0 also counting zero).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Appends a compact, stable text form: `sum;idx:count,idx:count,...`
    /// with only the non-empty buckets listed in ascending index order.
    /// Used by the journal's snapshot encoding.
    pub fn encode_sparse_into(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{};", self.sum);
        let mut first = true;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            push_decimal(out, i as u64);
            out.push(':');
            push_decimal(out, c);
        }
    }

    /// Decodes [`Histogram::encode_sparse_into`] output. `None` on any malformed
    /// field, out-of-range bucket index, or count overflow.
    pub fn decode_sparse(text: &str) -> Option<Histogram> {
        let (sum, buckets) = text.split_once(';')?;
        let mut hist = Histogram::new();
        hist.sum = sum.parse().ok()?;
        if !buckets.is_empty() {
            for part in buckets.split(',') {
                let (idx, count) = part.split_once(':')?;
                let idx: usize = idx.parse().ok()?;
                let count: u64 = count.parse().ok()?;
                let slot = hist.buckets.get_mut(idx)?;
                *slot = slot.checked_add(count)?;
                hist.total = hist.total.checked_add(count)?;
            }
        }
        Some(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let mut g = Gauge::new();
        g.raise(3);
        g.lower(2);
        assert_eq!(g.current(), 1);
        assert_eq!(g.high_water(), 3);
        g.set(7);
        g.lower(100);
        assert_eq!(g.current(), 0);
        assert_eq!(g.high_water(), 7);
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // With in-bucket interpolation the p50 of a uniform 1..=1000 spread
        // lands within a couple of samples of the true median, not at the
        // containing bucket's upper bound (511 here, 1023 before the fix).
        let p50 = h.quantile(0.5);
        assert!((499..=502).contains(&p50), "p50={p50}");
        // p90's bucket [512, 1023] only holds samples up to 1000, so the
        // uniform-within-bucket assumption overshoots slightly (~918); the
        // bound still beats the pre-fix answer of 1023 by a wide margin.
        let p90 = h.quantile(0.9);
        assert!((890..=925).contains(&p90), "p90={p90}");
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn quantile_interpolates_within_a_single_bucket() {
        let mut h = Histogram::new();
        // 100 samples, all in bucket [64, 128): the quantile must walk the
        // bucket instead of pinning to 127.
        for _ in 0..100 {
            h.record(100);
        }
        let p10 = h.quantile(0.1);
        let p90 = h.quantile(0.9);
        assert!(p10 < p90, "p10={p10} p90={p90}");
        assert!((64..=127).contains(&p10));
        assert!((64..=127).contains(&p90));
        // Degenerate cases keep their floors.
        assert_eq!(Histogram::new().quantile(0.5), 0);
        let mut zeros = Histogram::new();
        zeros.record(0);
        assert_eq!(zeros.quantile(0.99), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(20);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn histogram_sparse_encoding_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 900, 900, u64::MAX] {
            h.record(v);
        }
        let mut encoded = String::new();
        h.encode_sparse_into(&mut encoded);
        assert_eq!(&encoded[..encoded.find(';').unwrap()], h.sum().to_string());
        let decoded = Histogram::decode_sparse(&encoded).expect("well-formed");
        assert_eq!(decoded, h);
        // Empty histograms and malformed text are handled.
        let empty = Histogram::new();
        encoded.clear();
        empty.encode_sparse_into(&mut encoded);
        assert_eq!(encoded, "0;");
        assert_eq!(Histogram::decode_sparse(&encoded), Some(empty));
        assert_eq!(Histogram::decode_sparse(""), None);
        assert_eq!(Histogram::decode_sparse("0;64:1"), None);
        assert_eq!(Histogram::decode_sparse("0;x:1"), None);
    }
}

use crate::json::{JsonField, JsonObject};

/// Number of log2 buckets: bucket 0 holds values `< 1`, bucket `i` holds
/// `[2^(i-1), 2^i)`, and the last bucket absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-size log2 latency histogram.
///
/// Values are unitless here; the [`crate::MetricsRegistry`] keeps separate
/// histogram namespaces for wall-clock nanoseconds and virtual
/// microseconds so the two time domains never share a histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    /// How many of `count` were finite: what `sum` adds up.
    finite: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            finite: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into: 0 for `v < 1` and for
    /// non-finite `v`, otherwise `floor(log2 v) + 1`, clamped to the last
    /// bucket.
    pub fn bucket_index(v: f64) -> usize {
        if !v.is_finite() || v < 1.0 {
            // Negative, sub-1, NaN and ±∞ all land in bucket 0.
            return 0;
        }
        let truncated = if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v as u64
        };
        ((64 - truncated.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            (2u128 << (i - 1).min(127)) as f64 / 2.0
        }
    }

    /// The exclusive upper bound of bucket `i` (the last bucket is
    /// unbounded in practice).
    pub fn bucket_hi(i: usize) -> f64 {
        (1u128 << i.min(127)) as f64
    }

    /// Records one value. Non-finite values count in bucket 0 but are
    /// excluded from sum/min/max.
    pub fn record(&mut self, v: f64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.finite += 1;
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded (finite) values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.min.is_finite()).then_some(self.min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.max.is_finite()).then_some(self.max)
    }

    /// Mean of recorded finite values, `None` when there are none.
    pub fn mean(&self) -> Option<f64> {
        (self.finite > 0).then(|| self.sum / self.finite as f64)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Upper bound of the bucket containing the `q`-quantile (tail-latency
    /// estimate: the log2 bucket resolution bounds the error to 2×).
    /// `None` when empty; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_hi(i));
            }
        }
        Some(Self::bucket_hi(HISTOGRAM_BUCKETS - 1))
    }

    /// Iterates over non-empty buckets as `(lo, hi, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_hi(i), c))
    }

    /// Serializes as a JSON object into `out`.
    pub fn write_json(&self, out: &mut String) {
        JsonObject::open(out)
            .field("count", self.count)
            .field("sum", self.sum)
            .field("min", self.min())
            .field("max", self.max())
            .field("buckets", self.nonzero_buckets().collect::<Vec<_>>())
            .close();
    }
}

impl JsonField for Histogram {
    fn write_value(&self, out: &mut String) {
        self.write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(0.5), 0);
        assert_eq!(Histogram::bucket_index(0.999), 0);
        assert_eq!(Histogram::bucket_index(1.0), 1);
        assert_eq!(Histogram::bucket_index(1.999), 1);
        assert_eq!(Histogram::bucket_index(2.0), 2);
        assert_eq!(Histogram::bucket_index(3.999), 2);
        assert_eq!(Histogram::bucket_index(4.0), 3);
        assert_eq!(Histogram::bucket_index(1024.0), 11);
        assert_eq!(Histogram::bucket_index(-5.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(f64::INFINITY), 0);
        assert_eq!(Histogram::bucket_index(f64::NEG_INFINITY), 0);
        assert_eq!(Histogram::bucket_index(1e300), 63);
    }

    #[test]
    fn bucket_bounds_bracket_their_index() {
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = Histogram::bucket_lo(i);
            let hi = Histogram::bucket_hi(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i + 1, "hi of bucket {i}");
            assert_eq!(hi, lo * 2.0);
        }
        assert_eq!(Histogram::bucket_lo(0), 0.0);
        assert_eq!(Histogram::bucket_hi(0), 1.0);
    }

    #[test]
    fn record_accumulates_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        for v in [1.0, 2.0, 3.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1006.0);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(1000.0));
        assert_eq!(h.mean(), Some(251.5));
        assert_eq!(h.buckets()[1], 1); // 1.0
        assert_eq!(h.buckets()[2], 2); // 2.0, 3.0
        assert_eq!(h.buckets()[10], 1); // 1000.0 in [512, 1024)
    }

    #[test]
    fn quantile_walks_bucket_bounds() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.99), None);
        for _ in 0..99 {
            h.record(3.0); // bucket 2: [2, 4)
        }
        h.record(1000.0); // bucket 10: [512, 1024)
        assert_eq!(h.quantile(0.5), Some(4.0));
        assert_eq!(h.quantile(0.99), Some(4.0));
        assert_eq!(h.quantile(1.0), Some(1024.0));
        assert_eq!(h.quantile(0.0), Some(4.0), "q=0 is the first value");
    }

    #[test]
    fn non_finite_values_do_not_poison_stats() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(2.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2.0);
        assert_eq!(h.min(), Some(2.0));
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!((h.count(), h.buckets()[0]), (4, 3), "as `record` documents");
        assert_eq!(h.mean(), Some(2.0), "the mean of what `sum` holds");
    }
}

//! Order statistics over latency samples.

use std::fmt;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample cannot support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for.
    pub percentile: f64,
    /// Samples supplied.
    pub samples: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs at least {MIN_BEYOND} samples beyond it, got {} samples in all",
            self.percentile, self.samples
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of an ascending
/// slice. Refused unless at least [`MIN_BEYOND`] samples lie on the far
/// side of it (above for `p >= 50`, below otherwise): a tail read off
/// fewer samples is one outlier, not a percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, TooFewSamples> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples not sorted"
    );
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = if p >= 50.0 { n - rank.min(n) } else { rank - 1 };
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            percentile: p,
            samples: n,
        });
    }
    Ok(sorted[rank - 1])
}

/// Sorts the samples and returns their median (mean of the two middle
/// values for an even count).
///
/// # Panics
/// On an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Ok(500));
        assert_eq!(percentile(&v, 99.0), Ok(990));
        assert_eq!(percentile(&v, 90.0), Ok(900));
    }

    #[test]
    fn percentile_refuses_a_tail_of_fewer_than_ten_samples() {
        let v: Vec<u64> = (1..=999).collect();
        // ceil(0.99 * 999) = 990 -> 9 samples beyond.
        assert_eq!(
            percentile(&v, 99.0),
            Err(TooFewSamples {
                percentile: 99.0,
                samples: 999
            })
        );
        // 100 samples support p90 (10 beyond) but not p91.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 90.0), Ok(90));
        assert!(percentile(&v, 91.0).is_err());
        // The median itself needs ten samples above it.
        let v: Vec<u64> = (1..=19).collect();
        assert!(percentile(&v, 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn low_percentiles_need_ten_samples_below() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 11.0), Ok(11));
        assert!(percentile(&v, 10.0).is_err());
    }
}

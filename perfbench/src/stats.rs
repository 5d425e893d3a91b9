//! Exact quantiles over raw samples.
//!
//! Every timed operation keeps its own duration; quantiles are read off
//! the sorted samples, never off histogram buckets.

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample
/// with at least `q · n` samples at or below it. Always a measured value.
///
/// # Panics
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Raw duration (or size) samples of one kind of operation.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `q` quantile, or `None` with no samples.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        Some(quantile(&self.values, q))
    }

    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_known_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // Odd count: the middle sample; even count: the lower middle.
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn samples_sort_before_reading_and_keep_every_value() {
        let mut s = Samples::default();
        assert_eq!(s.median(), None);
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), Some(3.0));
        s.push(0.5);
        assert_eq!(s.quantile(0.0), Some(0.5));
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn a_2x_bucket_histogram_would_hide_this_spread() {
        // p50 and p99 sit in one log2 bucket [32768, 65536) yet differ.
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(33_000.0 + 300.0 * f64::from(i));
        }
        let (p50, p99) = (s.quantile(0.5).unwrap(), s.quantile(0.99).unwrap());
        assert_eq!(p50, 33_000.0 + 300.0 * 49.0);
        assert_eq!(p99, 33_000.0 + 300.0 * 98.0);
    }
}

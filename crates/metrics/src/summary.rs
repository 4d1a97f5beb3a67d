//! Streaming summary statistics.

/// Streaming mean / min / max / variance without storing samples.
///
/// Uses Welford's online algorithm for numerically stable variance.
///
/// # Examples
///
/// ```
/// let mut s = tfc_metrics::Summary::new();
/// for v in [2.0, 4.0, 6.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 6.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum sample; +inf when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum sample; -inf when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population variance; 0.0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Jain's fairness index over a set of allocations: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly equal shares; `1/n` means one flow has
/// everything. Values ≤ 0 are treated as zero allocations.
///
/// # Examples
///
/// ```
/// assert_eq!(tfc_metrics::jain_index(&[1.0, 1.0, 1.0]), 1.0);
/// assert!((tfc_metrics::jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
/// ```
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let xs: Vec<f64> = values.iter().map(|&v| v.max(0.0)).collect();
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::props::{cases, vec_f64};

    #[test]
    fn empty_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn basic_stats() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.mean(), 2.5);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn ignores_nan() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn jain_basics() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0]), 1.0);
        assert!((jain_index(&[3.0, 3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // One hog out of four: (x)^2 / (4 x^2) = 0.25.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Negative treated as zero.
        assert!((jain_index(&[1.0, -5.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jain_bounded() {
        cases(128, |_case, rng| {
            let values = vec_f64(rng, 1..50, 0.0..1e9);
            let j = jain_index(&values);
            assert!(
                j >= 1.0 / values.len() as f64 - 1e-9,
                "jain {j} for {values:?}"
            );
            assert!(j <= 1.0 + 1e-9, "jain {j} for {values:?}");
        });
    }

    #[test]
    fn merge_equals_sequential() {
        cases(128, |_case, rng| {
            let a = vec_f64(rng, 0..50, -1e6..1e6);
            let b = vec_f64(rng, 0..50, -1e6..1e6);
            let mut s1 = Summary::new();
            let mut s2 = Summary::new();
            let mut all = Summary::new();
            for &v in &a {
                s1.record(v);
                all.record(v);
            }
            for &v in &b {
                s2.record(v);
                all.record(v);
            }
            s1.merge(&s2);
            assert_eq!(s1.count(), all.count());
            assert!(
                (s1.mean() - all.mean()).abs() < 1e-6,
                "merged mean {} vs sequential {} ({a:?} + {b:?})",
                s1.mean(),
                all.mean()
            );
            assert!(
                (s1.variance() - all.variance()).abs() < 1e-3,
                "merged variance {} vs sequential {} ({a:?} + {b:?})",
                s1.variance(),
                all.variance()
            );
        });
    }
}

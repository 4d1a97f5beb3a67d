//! Streaming quantile sketches with bounded memory.
//!
//! [`QuantileSketch`] is a DDSketch-style log-bucketed histogram: values
//! land in geometric buckets `(γ^(k-1), γ^k]` with `γ = (1+α)/(1-α)`,
//! so any quantile estimate carries at most `α` *relative* error while
//! the whole sketch needs O(log(max/min)/α) integers — a few KB for
//! nanosecond latencies at α = 1 % — independent of how many samples
//! were recorded. Sketches merge by bucket-count addition, which is
//! exact (commutative and associative), so per-shard or per-run
//! sketches can be combined without losing the error bound.
//!
//! This is the retirement target for completed-flow and per-hop latency
//! records at million-flow scale: recording is O(1), memory stays flat,
//! and the p50/p99/p999 read off the buckets.

use std::collections::BTreeMap;

/// Default relative-accuracy target (1 %).
pub const DEFAULT_ALPHA: f64 = 0.01;

/// Default bound on live buckets. At α = 1 % the bucket key of a value
/// `v` is ~`ln(v)/0.02`, so nanosecond values up to ~10^17 (≈ 3 years)
/// fit in under 2000 buckets; the bound exists only as a memory
/// backstop for degenerate inputs.
pub const DEFAULT_MAX_BUCKETS: usize = 4096;

/// A mergeable log-bucketed quantile sketch for non-negative values.
///
/// Values below 1.0 (sub-nanosecond, for latency use) are counted in a
/// dedicated zero bucket and reported as 0. If the bucket bound is ever
/// exceeded, the *lowest* buckets collapse together (as in DDSketch),
/// preserving the accuracy of the high quantiles the tail analysis
/// cares about.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    ln_gamma: f64,
    buckets: BTreeMap<i32, u64>,
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    max_buckets: usize,
    collapsed: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_ALPHA)
    }
}

impl QuantileSketch {
    /// Creates an empty sketch with relative accuracy `alpha`
    /// (clamped to a sane (0, 0.5) range).
    pub fn new(alpha: f64) -> Self {
        let alpha = alpha.clamp(1e-4, 0.5 - 1e-9);
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            alpha,
            ln_gamma: gamma.ln(),
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            max_buckets: DEFAULT_MAX_BUCKETS,
            collapsed: 0,
        }
    }

    /// Rebuilds a sketch from exported parts (the `spans.json` schema):
    /// the inverse of [`bucket_entries`](Self::bucket_entries) plus the
    /// scalar summaries. Used by artifact readers (`tfc-trace diff`).
    pub fn from_parts(
        alpha: f64,
        zero: u64,
        entries: &[(i32, u64)],
        sum: f64,
        min: f64,
        max: f64,
    ) -> Self {
        let mut s = Self::new(alpha);
        s.zero = zero;
        s.count = zero;
        for &(k, c) in entries {
            *s.buckets.entry(k).or_insert(0) += c;
            s.count += c;
        }
        s.sum = sum;
        s.min = if s.count == 0 { f64::INFINITY } else { min };
        s.max = if s.count == 0 { f64::NEG_INFINITY } else { max };
        s
    }

    /// The configured relative accuracy.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Records one value. Negative or non-finite values clamp to 0.
    #[inline]
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < 1.0 {
            self.zero += 1;
            return;
        }
        let key = (v.ln() / self.ln_gamma).ceil() as i32;
        *self.buckets.entry(key).or_insert(0) += 1;
        if self.buckets.len() > self.max_buckets {
            self.collapse_lowest();
        }
    }

    /// Merges another sketch into this one by bucket addition.
    ///
    /// # Panics
    ///
    /// Panics if the accuracies differ — merging across α values would
    /// silently void the error bound.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge sketches with different accuracies ({} vs {})",
            self.alpha,
            other.alpha
        );
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.collapsed += other.collapsed;
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
        while self.buckets.len() > self.max_buckets {
            self.collapse_lowest();
        }
    }

    /// Folds the two lowest buckets together (bounded-memory backstop;
    /// biases only the low quantiles, never the tail).
    fn collapse_lowest(&mut self) {
        let Some((&lo, &lo_c)) = self.buckets.iter().next() else {
            return;
        };
        self.buckets.remove(&lo);
        if let Some((&next, _)) = self.buckets.iter().next() {
            *self.buckets.get_mut(&next).expect("key exists") += lo_c;
            let _ = next;
        } else {
            self.zero += lo_c;
        }
        self.collapsed += lo_c;
    }

    /// Estimates the `q`-quantile (`q` in [0, 1]) with relative error at
    /// most α. Returns `None` for an empty sketch. Estimates are clamped
    /// to the observed `[min, max]`, so a bucket midpoint can never
    /// report a value outside the recorded range (q=0 returns the exact
    /// minimum, q=1 the exact maximum).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).floor() as u64;
        // The extreme ranks are known exactly — the scalar min/max ride
        // alongside the buckets — so return them rather than a bucket
        // midpoint that can only approximate them.
        if rank == 0 {
            return Some(self.min);
        }
        if rank == self.count - 1 {
            return Some(self.max);
        }
        let mut cum = self.zero;
        if cum > rank {
            return Some(0.0f64.clamp(self.min, self.max));
        }
        let gamma = self.ln_gamma.exp();
        for (&k, &c) in &self.buckets {
            cum += c;
            if cum > rank {
                // Midpoint of (γ^(k-1), γ^k]: 2γ^k/(γ+1), whose ratio to
                // any value in the bucket is within [1-α, 1+α].
                let mid = 2.0 * (self.ln_gamma * k as f64).exp() / (gamma + 1.0);
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Values counted in the zero bucket (below 1.0).
    pub fn zero_count(&self) -> u64 {
        self.zero
    }

    /// Live log-bucket `(key, count)` pairs in key order — the portable
    /// serial form (plus α, zero count, and the scalar summaries).
    pub fn bucket_entries(&self) -> Vec<(i32, u64)> {
        self.buckets.iter().map(|(&k, &c)| (k, c)).collect()
    }

    /// Number of live buckets (memory diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Values absorbed by low-bucket collapses (0 in normal operation).
    pub fn collapsed(&self) -> u64 {
        self.collapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::props::cases;
    use rng::Rng;

    /// Exact oracle: the same floor-rank convention the sketch uses.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
        sorted[rank]
    }

    fn assert_within_alpha(s: &QuantileSketch, sorted: &[f64], q: f64, ctx: &str) {
        let est = s.quantile(q).expect("non-empty");
        let exact = exact_quantile(sorted, q);
        if exact < 1.0 {
            assert!(
                est <= 1.0 + s.alpha(),
                "{ctx}: q{q} est {est} for sub-unit exact {exact}"
            );
            return;
        }
        let rel = (est - exact).abs() / exact;
        assert!(
            rel <= s.alpha() * 1.0001,
            "{ctx}: q{q} exact {exact} est {est} rel err {rel} > {}",
            s.alpha()
        );
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn single_value_roundtrips_within_alpha() {
        let mut s = QuantileSketch::default();
        s.record(123_456.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = s.quantile(q).unwrap();
            assert!((est - 123_456.0).abs() / 123_456.0 <= s.alpha());
        }
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), Some(123_456.0));
        assert_eq!(s.max(), Some(123_456.0));
    }

    /// Regression: a sketch holding a single value used to report the
    /// geometric bucket midpoint (~100.5 for 100.0) at every quantile,
    /// and q=0 never returned the recorded minimum. Estimates are now
    /// clamped to the observed `[min, max]`, which for one value pins
    /// every quantile to that value exactly.
    #[test]
    fn single_value_quantiles_are_exact() {
        let mut s = QuantileSketch::default();
        s.record(100.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(100.0), "q = {q}");
        }
    }

    /// Regression companion: with two values, q=0 must return the exact
    /// minimum and q=1 the exact maximum — bucket midpoints may only
    /// surface strictly inside the observed range.
    #[test]
    fn two_value_quantiles_stay_inside_observed_range() {
        let mut s = QuantileSketch::default();
        s.record(100.0);
        s.record(200.0);
        assert_eq!(s.quantile(0.0), Some(100.0));
        assert_eq!(s.quantile(1.0), Some(200.0));
        for q in [0.25, 0.5, 0.75] {
            let est = s.quantile(q).unwrap();
            assert!((100.0..=200.0).contains(&est), "q {q} est {est}");
        }
    }

    /// Acceptance property: estimates never leave `[min, max]`, for any
    /// recorded distribution and any quantile.
    #[test]
    fn quantile_estimates_never_leave_min_max() {
        cases(64, |_case, rng| {
            let n = rng.gen_range(1..500usize);
            let mut s = QuantileSketch::default();
            for _ in 0..n {
                // Spans sub-unit (zero-bucket) through huge magnitudes.
                let exp = rng.gen_range(-3.0..12.0f64);
                s.record(10f64.powf(exp));
            }
            let (lo, hi) = (s.min().unwrap(), s.max().unwrap());
            for i in 0..=20 {
                let q = i as f64 / 20.0;
                let est = s.quantile(q).unwrap();
                assert!(
                    (lo..=hi).contains(&est),
                    "n {n}: q {q} est {est} outside [{lo}, {hi}]"
                );
            }
        });
    }

    #[test]
    fn zero_and_negative_values_hit_the_zero_bucket() {
        let mut s = QuantileSketch::default();
        s.record(0.0);
        s.record(-5.0);
        s.record(0.5);
        s.record(f64::NAN);
        assert_eq!(s.zero_count(), 4);
        assert_eq!(s.quantile(0.5), Some(0.0));
    }

    /// Satellite property test: quantiles vs an exact sorted-Vec oracle
    /// across seeded distributions (uniform, Pareto, bimodal).
    #[test]
    fn quantiles_match_oracle_across_distributions() {
        cases(48, |case, rng| {
            let n = rng.gen_range(100..5_000usize);
            let dist = case % 3;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                let v: f64 = match dist {
                    // Uniform ns in [1, 10^7).
                    0 => rng.gen_range(1.0..1e7),
                    // Pareto (heavy tail): x_m / U^(1/a), a = 1.3.
                    1 => {
                        let u: f64 = rng.gen_range(1e-9..1.0);
                        1_000.0 / u.powf(1.0 / 1.3)
                    }
                    // Bimodal: fast path ~2 µs, slow path ~5 ms.
                    _ => {
                        if rng.gen_bool(0.8) {
                            rng.gen_range(1_000.0..3_000.0)
                        } else {
                            rng.gen_range(4_000_000.0..6_000_000.0)
                        }
                    }
                };
                vals.push(v);
            }
            let mut s = QuantileSketch::default();
            for &v in &vals {
                s.record(v);
            }
            let mut sorted = vals.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                assert_within_alpha(&s, &sorted, q, &format!("dist {dist} n {n}"));
            }
            assert_eq!(s.count(), n as u64);
            assert!(
                s.bucket_count() <= DEFAULT_MAX_BUCKETS,
                "memory bound violated"
            );
            assert_eq!(s.collapsed(), 0, "realistic inputs must never collapse");
        });
    }

    /// Satellite property test: merge is commutative (exactly — bucket
    /// addition) and associative, and a merged sketch still answers
    /// within the error bound on the concatenated data.
    #[test]
    fn merge_is_commutative_associative_and_accurate() {
        cases(48, |_case, rng| {
            let mut parts: Vec<Vec<f64>> = Vec::new();
            for _ in 0..3 {
                let n = rng.gen_range(50..1_000usize);
                parts.push((0..n).map(|_| rng.gen_range(1.0..1e9)).collect());
            }
            let sk = |vals: &[f64]| {
                let mut s = QuantileSketch::default();
                for &v in vals {
                    s.record(v);
                }
                s
            };
            let (a, b, c) = (sk(&parts[0]), sk(&parts[1]), sk(&parts[2]));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge(a,b) must equal merge(b,a) exactly");
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            // Bucket counts associate exactly; the float `sum` only up
            // to addition rounding.
            assert_eq!(ab_c.bucket_entries(), a_bc.bucket_entries());
            assert_eq!(ab_c.count(), a_bc.count());
            assert_eq!(ab_c.zero_count(), a_bc.zero_count());
            assert_eq!(ab_c.min(), a_bc.min());
            assert_eq!(ab_c.max(), a_bc.max());
            let (s1, s2) = (ab_c.sum(), a_bc.sum());
            assert!(
                (s1 - s2).abs() <= s1.abs() * 1e-12,
                "sums diverged: {s1} vs {s2}"
            );
            // Accuracy on the union.
            let mut all: Vec<f64> = parts.concat();
            all.sort_by(|x, y| x.partial_cmp(y).unwrap());
            for q in [0.05, 0.5, 0.95, 0.999] {
                assert_within_alpha(&ab_c, &all, q, "merged");
            }
            assert_eq!(ab_c.count(), all.len() as u64);
        });
    }

    #[test]
    #[should_panic(expected = "different accuracies")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.02);
        a.merge(&b);
    }

    #[test]
    fn from_parts_roundtrips() {
        let mut s = QuantileSketch::default();
        for v in [0.0, 1.0, 250.0, 1e6, 3.5e9] {
            s.record(v);
        }
        let back = QuantileSketch::from_parts(
            s.alpha(),
            s.zero_count(),
            &s.bucket_entries(),
            s.sum(),
            s.min().unwrap(),
            s.max().unwrap(),
        );
        assert_eq!(back.count(), s.count());
        assert_eq!(back.bucket_entries(), s.bucket_entries());
        for q in [0.0, 0.5, 0.99] {
            assert_eq!(back.quantile(q), s.quantile(q));
        }
    }

    #[test]
    fn collapse_preserves_the_tail() {
        let mut s = QuantileSketch {
            max_buckets: 8,
            ..QuantileSketch::default()
        };
        // 200 distinct magnitudes forces collapsing.
        for i in 1..200u32 {
            s.record((i as f64).exp2().min(1e300));
        }
        assert!(s.bucket_count() <= 8);
        assert!(s.collapsed() > 0);
        // The top quantile still lands near the true maximum.
        let p999 = s.quantile(0.999).unwrap();
        let max = s.max().unwrap();
        // The second-highest of 199 powers of two is max/2; allow the
        // bucket-midpoint slack on top of that.
        assert!(p999 >= max * 0.4, "tail lost: p999 {p999} max {max}");
    }
}

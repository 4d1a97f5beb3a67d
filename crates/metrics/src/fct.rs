//! Flow-completion-time bookkeeping.

use crate::percentile::Sampler;
use crate::sketch::QuantileSketch;

/// Flow size bins used by the paper's background-flow FCT figures
/// (Fig. 13b and Fig. 16b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeBin {
    /// `< 1 KB`
    Under1K,
    /// `1 KB – 10 KB`
    K1To10,
    /// `10 KB – 100 KB`
    K10To100,
    /// `100 KB – 1 MB`
    K100To1M,
    /// `1 MB – 10 MB`
    M1To10,
    /// `> 10 MB`
    Over10M,
}

impl SizeBin {
    /// All bins, in ascending size order.
    pub const ALL: [SizeBin; 6] = [
        SizeBin::Under1K,
        SizeBin::K1To10,
        SizeBin::K10To100,
        SizeBin::K100To1M,
        SizeBin::M1To10,
        SizeBin::Over10M,
    ];

    /// Classifies a flow of `bytes` into its bin.
    pub fn of(bytes: u64) -> SizeBin {
        const KB: u64 = 1_000;
        const MB: u64 = 1_000_000;
        match bytes {
            b if b < KB => SizeBin::Under1K,
            b if b < 10 * KB => SizeBin::K1To10,
            b if b < 100 * KB => SizeBin::K10To100,
            b if b < MB => SizeBin::K100To1M,
            b if b < 10 * MB => SizeBin::M1To10,
            _ => SizeBin::Over10M,
        }
    }

    /// The paper's label for the bin.
    pub fn label(&self) -> &'static str {
        match self {
            SizeBin::Under1K => "<1KB",
            SizeBin::K1To10 => "1-10KB",
            SizeBin::K10To100 => "10KB-100KB",
            SizeBin::K100To1M => "100KB-1MB",
            SizeBin::M1To10 => "1-10MB",
            SizeBin::Over10M => ">10MB",
        }
    }
}

/// One completed flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// Application bytes transferred.
    pub bytes: u64,
    /// Time the application requested the transfer (ns).
    pub start_ns: u64,
    /// Time the receiver held the full byte stream (ns).
    pub end_ns: u64,
}

impl FlowRecord {
    /// Flow completion time in nanoseconds.
    pub fn fct_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Flow completion time in microseconds.
    pub fn fct_us(&self) -> f64 {
        self.fct_ns() as f64 / 1_000.0
    }
}

/// FCT percentile summary for one class of flows, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctSummary {
    /// Number of completed flows summarised.
    pub count: usize,
    /// Mean FCT (µs).
    pub mean_us: f64,
    /// 95th percentile (µs).
    pub p95_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// 99.9th percentile (µs).
    pub p999_us: f64,
    /// 99.99th percentile (µs).
    pub p9999_us: f64,
}

impl FctSummary {
    /// Builds the summary from a streaming sketch of FCT samples in
    /// *nanoseconds* (the unit the retirement pipeline records), or
    /// `None` if the sketch is empty.
    ///
    /// Experiments that retire flows into sketches keep their output
    /// schema: the percentiles come from the sketch (within its
    /// relative-error bound `alpha`) instead of the exact record
    /// vector, but the summary shape is identical.
    pub fn from_sketch(s: &QuantileSketch) -> Option<FctSummary> {
        if s.is_empty() {
            return None;
        }
        let us = |q: f64| s.quantile(q).expect("non-empty sketch") / 1_000.0;
        Some(FctSummary {
            count: s.count() as usize,
            mean_us: s.mean().expect("non-empty sketch") / 1_000.0,
            p95_us: us(0.95),
            p99_us: us(0.99),
            p999_us: us(0.999),
            p9999_us: us(0.9999),
        })
    }
}

/// Collects [`FlowRecord`]s and summarises them the way the paper's FCT
/// figures do: percentiles overall and per size bin.
///
/// # Examples
///
/// ```
/// use tfc_metrics::{FctCollector, FlowRecord};
/// let mut c = FctCollector::new();
/// c.record(FlowRecord { bytes: 2_000, start_ns: 0, end_ns: 1_000_000 });
/// let s = c.summary().unwrap();
/// assert_eq!(s.count, 1);
/// assert_eq!(s.mean_us, 1_000.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FctCollector {
    records: Vec<FlowRecord>,
}

impl FctCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty collector with room for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            records: Vec::with_capacity(n),
        }
    }

    /// Records one completed flow.
    pub fn record(&mut self, r: FlowRecord) {
        self.records.push(r);
    }

    /// Number of completed flows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no flows completed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Percentile summary over all flows, or `None` if empty.
    pub fn summary(&self) -> Option<FctSummary> {
        Self::summarise(self.records.iter())
    }

    /// Percentile summary over flows in one size bin.
    pub fn summary_for_bin(&self, bin: SizeBin) -> Option<FctSummary> {
        Self::summarise(self.records.iter().filter(|r| SizeBin::of(r.bytes) == bin))
    }

    /// `(bin, summary)` for every non-empty bin, ascending.
    pub fn per_bin(&self) -> Vec<(SizeBin, FctSummary)> {
        SizeBin::ALL
            .iter()
            .filter_map(|&b| self.summary_for_bin(b).map(|s| (b, s)))
            .collect()
    }

    fn summarise<'a>(records: impl Iterator<Item = &'a FlowRecord>) -> Option<FctSummary> {
        let mut s = Sampler::new();
        for r in records {
            s.record(r.fct_us());
        }
        if s.is_empty() {
            return None;
        }
        Some(FctSummary {
            count: s.len(),
            mean_us: s.mean().expect("non-empty"),
            p95_us: s.percentile(95.0).expect("non-empty"),
            p99_us: s.percentile(99.0).expect("non-empty"),
            p999_us: s.percentile(99.9).expect("non-empty"),
            p9999_us: s.percentile(99.99).expect("non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_bins_boundaries() {
        assert_eq!(SizeBin::of(999), SizeBin::Under1K);
        assert_eq!(SizeBin::of(1_000), SizeBin::K1To10);
        assert_eq!(SizeBin::of(9_999), SizeBin::K1To10);
        assert_eq!(SizeBin::of(10_000), SizeBin::K10To100);
        assert_eq!(SizeBin::of(100_000), SizeBin::K100To1M);
        assert_eq!(SizeBin::of(1_000_000), SizeBin::M1To10);
        assert_eq!(SizeBin::of(10_000_000), SizeBin::Over10M);
    }

    #[test]
    fn fct_math() {
        let r = FlowRecord {
            bytes: 1,
            start_ns: 500,
            end_ns: 2_500,
        };
        assert_eq!(r.fct_ns(), 2_000);
        assert_eq!(r.fct_us(), 2.0);
    }

    #[test]
    fn empty_summary_is_none() {
        let c = FctCollector::new();
        assert!(c.summary().is_none());
        assert!(c.per_bin().is_empty());
    }

    #[test]
    fn per_bin_splits_flows() {
        let mut c = FctCollector::new();
        c.record(FlowRecord {
            bytes: 500,
            start_ns: 0,
            end_ns: 1_000,
        });
        c.record(FlowRecord {
            bytes: 5_000,
            start_ns: 0,
            end_ns: 9_000,
        });
        let bins = c.per_bin();
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].0, SizeBin::Under1K);
        assert_eq!(bins[1].0, SizeBin::K1To10);
        assert_eq!(bins[0].1.count, 1);
    }

    /// `from_sketch` must agree with the exact collector within the
    /// sketch's relative-error bound on every reported percentile.
    #[test]
    fn from_sketch_matches_exact_summary_within_alpha() {
        let alpha = 0.01;
        let mut exact = FctCollector::new();
        let mut sketch = QuantileSketch::new(alpha);
        // Heavy-tailed FCTs: i^2 microseconds over 10k flows.
        for i in 1..=10_000u64 {
            let fct_ns = i * i * 1_000;
            exact.record(FlowRecord {
                bytes: 1_000,
                start_ns: 0,
                end_ns: fct_ns,
            });
            sketch.record(fct_ns as f64);
        }
        let a = exact.summary().unwrap();
        let b = FctSummary::from_sketch(&sketch).unwrap();
        assert_eq!(a.count, b.count);
        let close = |x: f64, y: f64| (x - y).abs() / y <= 2.0 * alpha;
        assert!(
            close(b.mean_us, a.mean_us),
            "mean {} vs {}",
            b.mean_us,
            a.mean_us
        );
        assert!(
            close(b.p95_us, a.p95_us),
            "p95 {} vs {}",
            b.p95_us,
            a.p95_us
        );
        assert!(
            close(b.p99_us, a.p99_us),
            "p99 {} vs {}",
            b.p99_us,
            a.p99_us
        );
        assert!(
            close(b.p999_us, a.p999_us),
            "p999 {} vs {}",
            b.p999_us,
            a.p999_us
        );
        assert!(
            close(b.p9999_us, a.p9999_us),
            "p9999 {} vs {}",
            b.p9999_us,
            a.p9999_us
        );
        assert!(FctSummary::from_sketch(&QuantileSketch::new(alpha)).is_none());
    }

    #[test]
    fn percentiles_ordered() {
        let mut c = FctCollector::new();
        for i in 1..=1000u64 {
            c.record(FlowRecord {
                bytes: 100,
                start_ns: 0,
                end_ns: i * 1_000,
            });
        }
        let s = c.summary().unwrap();
        assert!(s.mean_us <= s.p95_us);
        assert!(s.p95_us <= s.p99_us);
        assert!(s.p99_us <= s.p999_us);
        assert!(s.p999_us <= s.p9999_us);
    }
}

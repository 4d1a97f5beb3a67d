//! Bounded-memory flow retirement.
//!
//! The closed-loop experiment drivers keep every flow's record
//! alive for the whole run and post-process the dense tables afterwards.
//! That is fine for a few thousand flows and hopeless for millions: the
//! streaming workload engine instead *retires* a flow once nothing can
//! reach it any more, the same point at which its endpoints are freed:
//! the receiver holds the byte stream, the sender saw its FIN
//! acknowledged, no timer of the flow is pending and none of its
//! packets is in flight (a TFC delay arbiter may still hold an RMA ACK
//! after both sides are done). Retirement folds the flow's scalars —
//! FCT, bytes, retransmit count, slowdown — into per-class
//! [`QuantileSketch`]es, adds its RTO count to a per-class sum, and
//! frees its flow record.
//!
//! No packet or timer can name a retired flow, so its id is handed to
//! the next flow at once. Memory is O(peak active flows): the flow and
//! endpoint tables reuse their slots and the sketches are fixed-size.

use metrics::{FctCollector, FlowRecord, QuantileSketch};
use telemetry::export::{RetiredClass, RetiredFlows};

use crate::sim::FlowState;
use crate::units::{Bandwidth, Dur};

/// Scale factor for slowdown samples: a sketch clamps values below 1.0
/// into its zero bucket, and slowdowns hug 1.0 from above, so they are
/// recorded in thousandths to keep the relative-error guarantee.
pub const SLOWDOWN_SCALE: f64 = 1_000.0;

/// Configuration of the retirement pipeline (off unless
/// [`crate::sim::SimConfig::retire`] is set).
#[derive(Debug, Clone)]
pub struct RetireConfig {
    /// Relative-error bound of the per-class sketches.
    pub alpha: f64,
    /// Base round-trip time of the fabric, the latency term of the
    /// ideal FCT that slowdown normalises against.
    pub base_rtt: Dur,
    /// Bottleneck line rate, the serialisation term of the ideal FCT.
    pub line_rate: Bandwidth,
    /// Class names, indexed by the `class` tag set via
    /// [`crate::sim::SimCore::set_flow_class`] (class 0 is the default
    /// tag; untagged flows land there).
    pub classes: Vec<String>,
    /// Additionally keep exact per-class [`FlowRecord`]s. Unbounded
    /// memory — only for small oracle runs validating the sketches.
    pub keep_exact: bool,
}

impl Default for RetireConfig {
    fn default() -> Self {
        Self {
            alpha: 0.01,
            base_rtt: Dur::micros(100),
            line_rate: Bandwidth::gbps(10),
            classes: vec!["all".to_string()],
            keep_exact: false,
        }
    }
}

impl RetireConfig {
    /// Ideal completion time of a `bytes`-sized flow: one base RTT plus
    /// serialisation at the configured line rate. The lower bound the
    /// slowdown quantiles are measured against.
    pub fn ideal_fct_ns(&self, bytes: u64) -> u64 {
        self.base_rtt.as_nanos() + self.line_rate.serialize(bytes).as_nanos()
    }
}

/// Streaming statistics of one flow class.
#[derive(Debug)]
pub struct ClassStats {
    /// Class name (from [`RetireConfig::classes`]).
    pub name: String,
    /// Flows retired into this class.
    pub count: u64,
    /// FCT samples in nanoseconds (start to receiver-done).
    pub fct_ns: QuantileSketch,
    /// Transferred bytes per flow.
    pub bytes: QuantileSketch,
    /// Retransmitted packets per flow.
    pub retransmits: QuantileSketch,
    /// Retransmission timeouts, summed over the class's flows.
    pub timeouts: u64,
    /// Slowdown (FCT over ideal FCT) in thousandths; see
    /// [`SLOWDOWN_SCALE`].
    pub slowdown_milli: QuantileSketch,
    /// Exact records, kept only under [`RetireConfig::keep_exact`].
    pub exact: FctCollector,
}

impl ClassStats {
    fn new(name: String, alpha: f64) -> Self {
        Self {
            name,
            count: 0,
            fct_ns: QuantileSketch::new(alpha),
            bytes: QuantileSketch::new(alpha),
            retransmits: QuantileSketch::new(alpha),
            timeouts: 0,
            slowdown_milli: QuantileSketch::new(alpha),
            exact: FctCollector::new(),
        }
    }
}

/// Folds completed flows into per-class sketches as the simulator frees
/// their state. Owned by [`crate::sim::SimCore`] when retirement is on.
#[derive(Debug)]
pub struct FlowRetirer {
    cfg: RetireConfig,
    classes: Vec<ClassStats>,
    total: u64,
}

impl FlowRetirer {
    /// Builds a retirer with one stats bucket per configured class.
    pub fn new(cfg: RetireConfig) -> Self {
        let classes = cfg
            .classes
            .iter()
            .map(|n| ClassStats::new(n.clone(), cfg.alpha))
            .collect();
        Self {
            cfg,
            classes,
            total: 0,
        }
    }

    /// The configuration the retirer was built with.
    pub fn config(&self) -> &RetireConfig {
        &self.cfg
    }

    /// Total flows retired.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-class statistics, indexed by class tag.
    pub fn classes(&self) -> &[ClassStats] {
        &self.classes
    }

    /// Statistics of one class tag, if any flow carried it.
    pub fn class(&self, class: u8) -> Option<&ClassStats> {
        self.classes.get(class as usize)
    }

    /// Folds a finished flow's scalars into its class bucket. Called by
    /// the simulator with the state it is about to free.
    pub fn retire(&mut self, state: &FlowState) {
        let class = state.class as usize;
        let alpha = self.cfg.alpha;
        while self.classes.len() <= class {
            let name = format!("class{}", self.classes.len());
            self.classes.push(ClassStats::new(name, alpha));
        }
        let done = state
            .receiver_done_at
            .expect("retired flow has receiver-done time");
        let fct_ns = done.since(state.started_at).as_nanos();
        let bytes = state.spec.bytes.unwrap_or(state.delivered);
        let slowdown = fct_ns as f64 / self.cfg.ideal_fct_ns(bytes).max(1) as f64;
        let c = &mut self.classes[class];
        c.count += 1;
        c.fct_ns.record(fct_ns as f64);
        c.bytes.record(bytes as f64);
        c.retransmits.record(state.retransmits as f64);
        c.timeouts += state.timeouts;
        c.slowdown_milli.record(slowdown * SLOWDOWN_SCALE);
        if self.cfg.keep_exact {
            c.exact.record(FlowRecord {
                bytes,
                start_ns: state.started_at.nanos(),
                end_ns: done.nanos(),
            });
        }
        self.total += 1;
    }

    /// Snapshot in the exporter's shape, with the flow-slab high-water
    /// marks the caller reads off the slab itself.
    pub fn to_export(&self, slab_capacity: u64, slab_peak: u64) -> RetiredFlows {
        RetiredFlows {
            alpha: self.cfg.alpha,
            total: self.total,
            slab_capacity,
            slab_peak,
            classes: self
                .classes
                .iter()
                .enumerate()
                .map(|(i, c)| RetiredClass {
                    class: i as u8,
                    name: c.name.clone(),
                    count: c.count,
                    fct_ns: c.fct_ns.clone(),
                    bytes: c.bytes.clone(),
                    retransmits: c.retransmits.clone(),
                    slowdown_milli: c.slowdown_milli.clone(),
                })
                .collect(),
        }
    }
}

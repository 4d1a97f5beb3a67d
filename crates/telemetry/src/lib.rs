//! Structured telemetry for the TFC reproduction.
//!
//! Five pieces, all opt-in and near-zero-cost when disabled:
//!
//! * [`observe`] — the one observer the simulator calls at every packet
//!   and flow lifecycle point; it decides which log records and span
//!   segments each point produces;
//! * [`event::EventLog`] — typed packet/flow lifecycle records with a
//!   bounded ring mode and a deterministic sampling filter;
//! * [`counters::LoopStats`] and [`counters::PortSlotSample`] — sim-wide
//!   per-event-type counters (with an optional wall-clock profiling
//!   hook) and per-port TFC gauges sampled at every slot close;
//! * [`span::SpanTracker`] — causal per-packet lifecycle spans (queue
//!   wait, wire, token wait, end-to-end) aggregated per hop into
//!   streaming quantile sketches, behind a [`TraceConfig`];
//! * [`export`] — per-run artifact writers (`results/<run>/`:
//!   manifest, counters, events, flows, slot CSV, span sketches,
//!   sampler series), streamed to disk through [`json::PrettyWriter`]
//!   and consumed by the `tfc-trace` binary.
//!
//! The crate is a leaf below the simulator: node/flow/time fields are
//! plain integers, and the simulator, protocols, and experiments all
//! depend on it rather than the other way round. The [`json`](mod@json) module
//! (shared with `tfc_bench`) lives here for the same reason.

pub mod counters;
pub mod event;
pub mod export;
pub mod json;
pub mod observe;
pub mod span;

pub use counters::{LoopStats, PortSlotSample};
pub use event::{EventLog, EventRecord, LogMode, TraceEvent, EVENT_KIND_NAMES};
pub use export::{FlowSummary, RetiredClass, RetiredFlows, RunManifest, SimMeta};
pub use observe::{PacketFields, PacketView, Queue};
pub use span::{SpanTracker, TraceConfig};

/// What a simulation run should collect and where it should go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Event-list storage mode (off by default).
    pub events: LogMode,
    /// Keep one in `n` packet events (0/1 = keep all). Flow-lifecycle
    /// events are never sampled away.
    pub sample_one_in: u64,
    /// Collect per-port TFC slot gauges from switch policies.
    pub tfc_gauges: bool,
    /// Time event-loop handlers per event type (wall clock).
    pub profile: bool,
    /// Per-packet lifecycle spans aggregated into streaming sketches
    /// (off by default; `Off` is asserted byte-identical and
    /// zero-record by regression tests).
    pub trace: TraceConfig,
    /// Export artifacts under `results/<name>/` after the run (driven
    /// by the experiment harness, not the simulator itself).
    pub export: Option<String>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            events: LogMode::Off,
            sample_one_in: 1,
            tfc_gauges: false,
            profile: false,
            trace: TraceConfig::Off,
            export: None,
        }
    }
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Full tracing with artifact export: unbounded unsampled event
    /// list, TFC gauges, lifecycle spans for every flow, and the
    /// event-loop profile.
    pub fn full(run: impl Into<String>) -> Self {
        Self {
            events: LogMode::Full,
            sample_one_in: 1,
            tfc_gauges: true,
            profile: true,
            trace: TraceConfig::Full,
            export: Some(run.into()),
        }
    }
}

/// The per-run telemetry state owned by the simulator core. The
/// simulator reports lifecycle points through its observer methods
/// ([`observe`]) and the event loop through `loop_stats`; the other
/// fields are read back for export.
#[derive(Debug)]
pub struct Telemetry {
    /// The structured event log.
    pub log: EventLog,
    /// Event-loop counters / profile.
    pub loop_stats: LoopStats,
    /// TFC per-port slot gauges, in slot-close order.
    pub slots: Vec<PortSlotSample>,
    /// Packet-lifecycle spans aggregated into streaming sketches.
    pub spans: SpanTracker,
    gauges: bool,
    /// Whether the log or the spans collect anything: the observer's
    /// one enabled check (see [`observe`]).
    observed: bool,
}

impl Telemetry {
    /// Builds the state for one run. The event log's sampling RNG is
    /// derived from `seed` so identical runs keep identical samples;
    /// `loop_names` is the simulator's event-kind name table.
    pub fn new(cfg: &TelemetryConfig, seed: u64, loop_names: &'static [&'static str]) -> Self {
        Self {
            // XOR a fixed tag so the sampling stream never aliases the
            // simulator's own RNG stream for the same seed.
            log: EventLog::new(cfg.events, cfg.sample_one_in, seed ^ 0x7e1e_6e72_7261_ce00),
            loop_stats: LoopStats::new(loop_names, cfg.profile),
            slots: Vec::new(),
            spans: SpanTracker::new(cfg.trace),
            gauges: cfg.tfc_gauges,
            observed: cfg.events != LogMode::Off || cfg.trace != TraceConfig::Off,
        }
    }

    /// Stores a slot sample if gauge collection is on.
    #[inline]
    pub fn push_slot_sample(&mut self, s: PortSlotSample) {
        if self.gauges {
            self.slots.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 2] = ["a", "b"];

    fn sample() -> PortSlotSample {
        PortSlotSample {
            at_ns: 1,
            node: 0,
            port: 0,
            token_bytes: 0.0,
            effective_flows: 1.0,
            rho: 0.5,
            window_bytes: 1460,
            rtt_b_ns: 0,
            rtt_m_ns: 0,
            held_acks: 0,
            delayed_total: 0,
        }
    }

    #[test]
    fn default_config_is_all_off() {
        let t = Telemetry::new(&TelemetryConfig::default(), 1, &NAMES);
        assert!(!t.log.enabled());
        assert!(!t.loop_stats.profiled());
        assert!(!t.spans.enabled());
    }

    #[test]
    fn full_config_enables_everything() {
        let cfg = TelemetryConfig::full("run1");
        assert_eq!(cfg.export.as_deref(), Some("run1"));
        let mut t = Telemetry::new(&cfg, 1, &NAMES);
        assert!(t.log.enabled());
        assert!(t.loop_stats.profiled());
        assert!(t.spans.enabled());
        t.push_slot_sample(sample());
        assert_eq!(t.slots.len(), 1);
    }

    #[test]
    fn gauges_off_drops_slot_samples() {
        let mut t = Telemetry::new(&TelemetryConfig::default(), 1, &NAMES);
        t.push_slot_sample(sample());
        assert!(t.slots.is_empty());
    }
}

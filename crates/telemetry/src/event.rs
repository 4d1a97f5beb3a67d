//! Typed packet- and flow-lifecycle event records.
//!
//! The simulator emits one [`TraceEvent`] per interesting transition;
//! the [`EventLog`] stores them subject to a mode (off / bounded ring /
//! unbounded) and a deterministic sampling filter for the high-rate
//! packet events. Per-kind counts are exact regardless of sampling or
//! ring eviction, so exported counters always reconcile with simulator
//! ground truth even when the event list itself is thinned.
//!
//! This crate sits below the simulator, so node, flow, and time fields
//! are plain integers (`u32` node ids, `u64` flow ids, `u64`
//! nanoseconds) rather than simulator newtypes.

use std::collections::VecDeque;

use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};

/// Number of distinct [`TraceEvent`] kinds.
pub const EVENT_KIND_COUNT: usize = 17;

/// Kind names, indexed by [`TraceEvent::kind_index`]. These are the
/// `kind` strings written to `events.json` and the keys of the exported
/// per-kind counter object.
pub const EVENT_KIND_NAMES: [&str; EVENT_KIND_COUNT] = [
    "pkt_enqueue",
    "pkt_dequeue",
    "pkt_drop",
    "pkt_ecn_mark",
    "pkt_round_mark",
    "pkt_deliver",
    "pkt_ack",
    "flow_open",
    "flow_established",
    "flow_window_acquired",
    "flow_retransmit",
    "flow_rto",
    "flow_fin",
    "flow_rtt_sample",
    "fault_injected",
    "fault_cleared",
    "rerouted",
];

/// One structured telemetry event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A packet joined an output FIFO (host NIC or switch egress).
    PktEnqueue {
        /// Node owning the queue.
        node: u32,
        /// Port index at that node.
        port: u16,
        /// Flow id.
        flow: u64,
        /// Sequence number (0 for control packets).
        seq: u64,
        /// Wire bytes of the packet.
        bytes: u64,
        /// Queue backlog in bytes after the enqueue.
        queue_bytes: u64,
    },
    /// A packet left an output FIFO onto the wire.
    PktDequeue {
        /// Node owning the queue.
        node: u32,
        /// Port index at that node.
        port: u16,
        /// Flow id.
        flow: u64,
        /// Sequence number.
        seq: u64,
        /// Wire bytes of the packet.
        bytes: u64,
    },
    /// A packet was tail-dropped at a full FIFO.
    PktDrop {
        /// Node owning the queue.
        node: u32,
        /// Port index at that node.
        port: u16,
        /// Flow id.
        flow: u64,
        /// Sequence number.
        seq: u64,
        /// Wire bytes of the packet.
        bytes: u64,
    },
    /// A switch set the ECN Congestion Experienced codepoint.
    PktEcnMark {
        /// Marking switch.
        node: u32,
        /// Egress port.
        port: u16,
        /// Flow id.
        flow: u64,
        /// Sequence number.
        seq: u64,
    },
    /// A TFC round-mark (RM) packet passed a switch egress, carrying the
    /// window stamped so far along its path.
    PktRoundMark {
        /// The switch.
        node: u32,
        /// Egress port.
        port: u16,
        /// Flow id.
        flow: u64,
        /// Sequence number.
        seq: u64,
        /// Window field after this hop's min-clamp, in bytes.
        window: u64,
    },
    /// In-order payload reached the receiving application.
    PktDeliver {
        /// Receiving host.
        node: u32,
        /// Flow id.
        flow: u64,
        /// Newly delivered payload bytes.
        bytes: u64,
    },
    /// An ACK arrived at a host.
    PktAck {
        /// Receiving host.
        node: u32,
        /// Flow id.
        flow: u64,
        /// Cumulative acknowledgement number.
        ack: u64,
    },
    /// A flow was started by the application.
    FlowOpen {
        /// Flow id.
        flow: u64,
        /// Source host.
        src: u32,
        /// Destination host.
        dst: u32,
        /// Flow size in bytes (0 = open-ended).
        bytes: u64,
    },
    /// The connection handshake completed.
    FlowEstablished {
        /// Flow id.
        flow: u64,
    },
    /// The sender adopted a new congestion window (TFC: from an RMA
    /// stamp; TCP: on loss recovery).
    FlowWindowAcquired {
        /// Flow id.
        flow: u64,
        /// The adopted window in bytes.
        window: u64,
    },
    /// The sender retransmitted a packet.
    FlowRetransmit {
        /// Flow id.
        flow: u64,
    },
    /// A retransmission timeout fired.
    FlowRto {
        /// Flow id.
        flow: u64,
    },
    /// The sender finished (all data acknowledged, FIN acked).
    FlowFin {
        /// Flow id.
        flow: u64,
        /// Bytes delivered to the receiver when the sender finished.
        delivered: u64,
    },
    /// The sender measured one round-trip time.
    FlowRttSample {
        /// Flow id.
        flow: u64,
        /// Measured RTT in nanoseconds.
        nanos: u64,
    },
    /// A chaos fault took effect (link down, host stall, loss window,
    /// rate change, policy reset, ...).
    FaultInjected {
        /// Stable fault-kind label (e.g. `"link_down"`, `"host_stall"`).
        kind: &'static str,
        /// Node the fault applies to (host or switch).
        node: u32,
        /// Port at that node (0 for node-wide faults).
        port: u16,
        /// Kind-specific magnitude: new rate in bps for rate changes,
        /// loss probability in permille for loss windows, 0 otherwise.
        value: u64,
    },
    /// A previously injected fault was lifted (link up, host resume,
    /// loss window end, ...).
    FaultCleared {
        /// Stable fault-kind label matching the injection.
        kind: &'static str,
        /// Node the fault applied to.
        node: u32,
        /// Port at that node (0 for node-wide faults).
        port: u16,
        /// Kind-specific magnitude (see [`TraceEvent::FaultInjected`]).
        value: u64,
    },
    /// A link-down made surviving equal-cost members absorb traffic at a
    /// switch: deterministic ECMP route repair took effect. Emitted once
    /// per switch end of the downed link, right after its
    /// [`TraceEvent::FaultInjected`] record.
    Rerouted {
        /// The switch whose route table is affected.
        node: u32,
        /// The downed port at that switch.
        port: u16,
        /// Destinations whose equal-cost set contains the port alongside
        /// at least one surviving member (0 = nothing to absorb, e.g. a
        /// tree link with a unique path).
        dests: u64,
    },
}

impl TraceEvent {
    /// Dense kind index into [`EVENT_KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            TraceEvent::PktEnqueue { .. } => 0,
            TraceEvent::PktDequeue { .. } => 1,
            TraceEvent::PktDrop { .. } => 2,
            TraceEvent::PktEcnMark { .. } => 3,
            TraceEvent::PktRoundMark { .. } => 4,
            TraceEvent::PktDeliver { .. } => 5,
            TraceEvent::PktAck { .. } => 6,
            TraceEvent::FlowOpen { .. } => 7,
            TraceEvent::FlowEstablished { .. } => 8,
            TraceEvent::FlowWindowAcquired { .. } => 9,
            TraceEvent::FlowRetransmit { .. } => 10,
            TraceEvent::FlowRto { .. } => 11,
            TraceEvent::FlowFin { .. } => 12,
            TraceEvent::FlowRttSample { .. } => 13,
            TraceEvent::FaultInjected { .. } => 14,
            TraceEvent::FaultCleared { .. } => 15,
            TraceEvent::Rerouted { .. } => 16,
        }
    }

    /// The kind's export name.
    pub fn kind_name(&self) -> &'static str {
        EVENT_KIND_NAMES[self.kind_index()]
    }

    /// Whether this is a per-packet event (subject to sampling) rather
    /// than a per-flow lifecycle event (always kept).
    pub fn is_packet(&self) -> bool {
        self.kind_index() <= 6
    }

    /// The flow involved (0 for flow-less events such as faults).
    pub fn flow(&self) -> u64 {
        match *self {
            TraceEvent::PktEnqueue { flow, .. }
            | TraceEvent::PktDequeue { flow, .. }
            | TraceEvent::PktDrop { flow, .. }
            | TraceEvent::PktEcnMark { flow, .. }
            | TraceEvent::PktRoundMark { flow, .. }
            | TraceEvent::PktDeliver { flow, .. }
            | TraceEvent::PktAck { flow, .. }
            | TraceEvent::FlowOpen { flow, .. }
            | TraceEvent::FlowEstablished { flow }
            | TraceEvent::FlowWindowAcquired { flow, .. }
            | TraceEvent::FlowRetransmit { flow }
            | TraceEvent::FlowRto { flow }
            | TraceEvent::FlowFin { flow, .. }
            | TraceEvent::FlowRttSample { flow, .. } => flow,
            TraceEvent::FaultInjected { .. }
            | TraceEvent::FaultCleared { .. }
            | TraceEvent::Rerouted { .. } => 0,
        }
    }
}

/// A [`TraceEvent`] plus its simulation timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Simulation time in nanoseconds.
    pub at_ns: u64,
    /// The event.
    pub event: TraceEvent,
}

/// How the event list is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogMode {
    /// Record nothing (per-kind counts stay zero too). The default.
    #[default]
    Off,
    /// Keep only the most recent `N` records (counts stay exact).
    Ring(usize),
    /// Keep every record.
    Full,
}

/// The structured event log: bounded or unbounded record storage with
/// exact per-kind counters and a deterministic sampling filter.
///
/// Sampling applies to packet-class events only ([`TraceEvent::is_packet`]);
/// flow-lifecycle events are always stored. Per-kind counts are
/// incremented *before* sampling and eviction, so they are exact.
#[derive(Debug)]
pub struct EventLog {
    mode: LogMode,
    one_in: u64,
    rng: StdRng,
    records: VecDeque<EventRecord>,
    counts: [u64; EVENT_KIND_COUNT],
    evicted: u64,
    sampled_out: u64,
}

impl EventLog {
    /// Creates a log. `one_in` is the packet-event sampling rate (keep
    /// one in `n`; 0 and 1 both mean keep all), drawn from a dedicated
    /// RNG seeded with `seed` so runs are reproducible.
    pub fn new(mode: LogMode, one_in: u64, seed: u64) -> Self {
        Self {
            mode,
            one_in,
            rng: StdRng::seed_from_u64(seed),
            records: VecDeque::new(),
            counts: [0; EVENT_KIND_COUNT],
            evicted: 0,
            sampled_out: 0,
        }
    }

    /// Whether the log records anything (its mode is not `Off`).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != LogMode::Off
    }

    /// Offers an event at `at_ns` simulation time.
    pub fn record(&mut self, at_ns: u64, event: TraceEvent) {
        if !self.enabled() {
            return;
        }
        self.counts[event.kind_index()] += 1;
        if self.one_in > 1 && event.is_packet() && self.rng.gen_range(0..self.one_in) != 0 {
            self.sampled_out += 1;
            return;
        }
        if let LogMode::Ring(cap) = self.mode {
            if cap == 0 {
                self.evicted += 1;
                return;
            }
            if self.records.len() == cap {
                self.records.pop_front();
                self.evicted += 1;
            }
        }
        self.records.push_back(EventRecord { at_ns, event });
    }

    /// The stored records, oldest first.
    pub fn records(&self) -> &VecDeque<EventRecord> {
        &self.records
    }

    /// Exact per-kind counts (index with [`TraceEvent::kind_index`] or
    /// zip with [`EVENT_KIND_NAMES`]).
    pub fn counts(&self) -> &[u64; EVENT_KIND_COUNT] {
        &self.counts
    }

    /// Exact count of one kind by export name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`EVENT_KIND_NAMES`].
    pub fn count_of(&self, name: &str) -> u64 {
        let idx = EVENT_KIND_NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown event kind {name:?}"));
        self.counts[idx]
    }

    /// Records dropped from a full ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Packet events skipped by the sampling filter.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enq(flow: u64, seq: u64) -> TraceEvent {
        TraceEvent::PktEnqueue {
            node: 2,
            port: 1,
            flow,
            seq,
            bytes: 1500,
            queue_bytes: 3000,
        }
    }

    #[test]
    fn kind_names_cover_every_variant() {
        let samples = [
            enq(1, 0),
            TraceEvent::PktDequeue {
                node: 0,
                port: 0,
                flow: 1,
                seq: 0,
                bytes: 64,
            },
            TraceEvent::PktDrop {
                node: 0,
                port: 0,
                flow: 1,
                seq: 0,
                bytes: 64,
            },
            TraceEvent::PktEcnMark {
                node: 0,
                port: 0,
                flow: 1,
                seq: 0,
            },
            TraceEvent::PktRoundMark {
                node: 0,
                port: 0,
                flow: 1,
                seq: 0,
                window: 1460,
            },
            TraceEvent::PktDeliver {
                node: 0,
                flow: 1,
                bytes: 10,
            },
            TraceEvent::PktAck {
                node: 0,
                flow: 1,
                ack: 10,
            },
            TraceEvent::FlowOpen {
                flow: 1,
                src: 0,
                dst: 1,
                bytes: 0,
            },
            TraceEvent::FlowEstablished { flow: 1 },
            TraceEvent::FlowWindowAcquired {
                flow: 1,
                window: 2920,
            },
            TraceEvent::FlowRetransmit { flow: 1 },
            TraceEvent::FlowRto { flow: 1 },
            TraceEvent::FlowFin {
                flow: 1,
                delivered: 10,
            },
            TraceEvent::FlowRttSample { flow: 1, nanos: 99 },
            TraceEvent::FaultInjected {
                kind: "link_down",
                node: 9,
                port: 2,
                value: 0,
            },
            TraceEvent::FaultCleared {
                kind: "link_down",
                node: 9,
                port: 2,
                value: 0,
            },
            TraceEvent::Rerouted {
                node: 9,
                port: 2,
                dests: 12,
            },
        ];
        assert_eq!(samples.len(), EVENT_KIND_COUNT);
        for (i, ev) in samples.iter().enumerate() {
            assert_eq!(ev.kind_index(), i);
            assert_eq!(ev.kind_name(), EVENT_KIND_NAMES[i]);
            // Fault and reroute events carry no flow; everything else
            // was built with flow 1.
            assert_eq!(ev.flow(), if i < 14 { 1 } else { 0 });
            assert_eq!(ev.is_packet(), i <= 6);
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::new(LogMode::Off, 1, 0);
        assert!(!log.enabled());
        log.record(5, enq(1, 0));
        assert!(log.is_empty());
        assert_eq!(log.counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn full_mode_keeps_everything_in_order() {
        let mut log = EventLog::new(LogMode::Full, 1, 7);
        for i in 0..100 {
            log.record(i, enq(1, i));
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.count_of("pkt_enqueue"), 100);
        assert_eq!(log.evicted(), 0);
        let times: Vec<u64> = log.records().iter().map(|r| r.at_ns).collect();
        assert_eq!(times, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ring_wraps_keeping_newest_and_exact_counts() {
        let mut log = EventLog::new(LogMode::Ring(16), 1, 7);
        for i in 0..100u64 {
            log.record(i, enq(1, i));
        }
        assert_eq!(log.len(), 16);
        assert_eq!(log.evicted(), 84);
        // The newest 16 survive, oldest first.
        let seqs: Vec<u64> = log
            .records()
            .iter()
            .map(|r| match r.event {
                TraceEvent::PktEnqueue { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, (84..100).collect::<Vec<_>>());
        // Counts stay exact despite eviction.
        assert_eq!(log.count_of("pkt_enqueue"), 100);
    }

    #[test]
    fn zero_capacity_ring_stores_nothing_but_counts() {
        let mut log = EventLog::new(LogMode::Ring(0), 1, 7);
        for i in 0..10u64 {
            log.record(i, enq(1, i));
        }
        assert!(log.is_empty());
        assert_eq!(log.count_of("pkt_enqueue"), 10);
        assert_eq!(log.evicted(), 10);
    }

    #[test]
    fn sampling_is_deterministic_under_a_fixed_seed() {
        let run = |seed: u64| {
            let mut log = EventLog::new(LogMode::Full, 8, seed);
            for i in 0..10_000u64 {
                log.record(i, enq(1, i));
            }
            log.records().iter().map(|r| r.at_ns).collect::<Vec<u64>>()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must keep the same events");
        let c = run(43);
        assert_ne!(a, c, "different seeds should sample differently");
        // Roughly one in eight survives.
        assert!(a.len() > 800 && a.len() < 1_800, "kept {}", a.len());
    }

    #[test]
    fn sampling_spares_flow_events_and_counts_stay_exact() {
        let mut log = EventLog::new(LogMode::Full, 1_000_000, 1);
        for i in 0..1_000u64 {
            log.record(i, enq(1, i));
            log.record(i, TraceEvent::FlowRetransmit { flow: 1 });
        }
        // Virtually every packet event is sampled away; every flow event
        // survives; both counts are exact.
        assert_eq!(log.count_of("pkt_enqueue"), 1_000);
        assert_eq!(log.count_of("flow_retransmit"), 1_000);
        let flows = log
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::FlowRetransmit { .. }))
            .count();
        assert_eq!(flows, 1_000);
        assert_eq!(log.sampled_out() + (log.len() as u64 - 1_000), 1_000);
    }
}

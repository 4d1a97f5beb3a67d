//! The telemetry observer: one call per packet or flow lifecycle point.
//!
//! The simulator reports every lifecycle point it passes through with
//! exactly one method on [`Telemetry`]; this module decides which
//! [`EventLog`](crate::EventLog) records and which
//! [`SpanTracker`](crate::SpanTracker) segments the point produces.
//!
//! Points, their methods, and what each produces (log records; span
//! effect):
//!
//! * enqueue, [`pkt_enqueue`](Telemetry::pkt_enqueue): `pkt_enqueue`,
//!   then at a switch `pkt_ecn_mark` and `pkt_round_mark` for the marks
//!   the egress hook left; the span starts or closes its wire segment,
//!   and counts the ECN mark;
//! * dequeue, [`pkt_dequeue`](Telemetry::pkt_dequeue): `pkt_dequeue`;
//!   the queue-wait segment closes;
//! * drop, [`pkt_drop`](Telemetry::pkt_drop): `pkt_drop`; a span drop
//!   at the current hop;
//! * consumed, [`pkt_consumed`](Telemetry::pkt_consumed): the span is
//!   forgotten without a drop;
//! * ACK and deliver, [`pkt_arrive`](Telemetry::pkt_arrive): `pkt_ack`
//!   for an ACK; the final wire and end-to-end segments close;
//! * token wait, [`token_wait`](Telemetry::token_wait): a `token_wait`
//!   segment;
//! * flow open, established, delivered, window acquired, RTT sample,
//!   retransmit, RTO and FIN (the `flow_*` methods): one record each;
//! * fault and reroute, [`fault`](Telemetry::fault) and
//!   [`rerouted`](Telemetry::rerouted): `fault_injected` or
//!   `fault_cleared`, and `rerouted`.
//!
//! Each method makes one enabled check, fixed when the [`Telemetry`] is
//! built: a run with the log and the spans both off pays one branch
//! per point and never reads the packet. Records are offered to the log
//! in the order listed for a point; the log's sampling RNG draws once
//! per offered packet record, so that order is part of the artifact
//! bytes.

use crate::{Telemetry, TraceEvent};

/// The packet fields the observer reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketFields {
    /// Flow id.
    pub flow: u64,
    /// Sequence number (0 for control packets).
    pub seq: u64,
    /// Bytes on the wire.
    pub bytes: u64,
    /// The packet carries payload (spans split `e2e_data` from
    /// `e2e_ctrl` on it).
    pub data: bool,
    /// The cumulative acknowledgement of an ACK; `None` otherwise.
    pub ack: Option<u64>,
    /// The ECN Congestion Experienced codepoint is set.
    pub ce: bool,
    /// The window of a TFC round-mark packet (`u64::MAX` while no
    /// switch has stamped it); `None` for other packets.
    pub round_mark: Option<u64>,
    /// When the packet left its originating host (ns).
    pub sent_ns: u64,
}

/// A packet the observer can read. The simulator implements it for its
/// packet type; the observer reads only when observing, so an
/// unobserved run never touches the packet.
pub trait PacketView {
    /// The fields the observer reads.
    fn fields(&self) -> PacketFields;
}

/// The queue a packet joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Queue {
    /// The sending host's NIC; a tracked packet's span starts here.
    Nic,
    /// A switch egress port, where the packet's ECN and round marks are
    /// logged.
    Switch {
        /// CE was already set before this switch's egress hook ran, so
        /// it is not this hop's ECN mark.
        ce_before: bool,
    },
}

impl Telemetry {
    /// A packet joined `queue` at `node`'s `port`, leaving
    /// `queue_bytes` of backlog.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn pkt_enqueue(
        &mut self,
        at: u64,
        node: u32,
        port: u16,
        key: u64,
        p: &impl PacketView,
        queue_bytes: u64,
        queue: Queue,
    ) {
        if !self.observed {
            return;
        }
        let p = p.fields();
        let (flow, seq, is_host) = (p.flow, p.seq, queue == Queue::Nic);
        self.spans.on_enqueue(key, flow, p.data, is_host, at);
        let event = TraceEvent::PktEnqueue {
            node,
            port,
            flow,
            seq,
            bytes: p.bytes,
            queue_bytes,
        };
        self.log.record(at, event);
        let Queue::Switch { ce_before } = queue else {
            return;
        };
        if p.ce && !ce_before {
            self.spans.on_ecn(key, flow);
            let event = TraceEvent::PktEcnMark {
                node,
                port,
                flow,
                seq,
            };
            self.log.record(at, event);
        }
        if let Some(window) = p.round_mark {
            let event = TraceEvent::PktRoundMark {
                node,
                port,
                flow,
                seq,
                window,
            };
            self.log.record(at, event);
        }
    }

    /// A packet left `node`'s `port` onto the wire.
    #[inline]
    pub fn pkt_dequeue(&mut self, at: u64, node: u32, port: u16, key: u64, p: &impl PacketView) {
        if !self.observed {
            return;
        }
        let p = p.fields();
        self.spans.on_dequeue(key, p.flow, at);
        let event = TraceEvent::PktDequeue {
            node,
            port,
            flow: p.flow,
            seq: p.seq,
            bytes: p.bytes,
        };
        self.log.record(at, event);
    }

    /// A packet was lost at `node`'s `port`, whatever the cause: the
    /// simulator counts every drop, so the log's drop count reconciles
    /// with its counters.
    #[inline]
    pub fn pkt_drop(&mut self, at: u64, node: u32, port: u16, key: u64, p: &impl PacketView) {
        if !self.observed {
            return;
        }
        let p = p.fields();
        self.spans.on_drop(key, p.flow);
        let event = TraceEvent::PktDrop {
            node,
            port,
            flow: p.flow,
            seq: p.seq,
            bytes: p.bytes,
        };
        self.log.record(at, event);
    }

    /// A packet left the fabric on purpose, not lost: a TFC-held ACK
    /// absorbed by the delay arbiter.
    #[inline]
    pub fn pkt_consumed(&mut self, key: u64, p: &impl PacketView) {
        if self.observed {
            self.spans.on_consumed(key, p.fields().flow);
        }
    }

    /// A packet reached host `node`. An ACK is logged; the span closes
    /// as delivered if an endpoint of the flow was there (`known`), and
    /// is forgotten if the packet is a stale one of a torn-down flow.
    #[inline]
    pub fn pkt_arrive(&mut self, at: u64, node: u32, key: u64, p: &impl PacketView, known: bool) {
        if !self.observed {
            return;
        }
        let p = p.fields();
        let flow = p.flow;
        if let Some(ack) = p.ack {
            self.log.record(at, TraceEvent::PktAck { node, flow, ack });
        }
        if known {
            self.spans.on_deliver(key, flow, p.sent_ns, at);
        } else {
            self.spans.on_consumed(key, flow);
        }
    }

    /// The TFC delay arbiter held `flow`'s ACK for `waited_ns`.
    #[inline]
    pub fn token_wait(&mut self, flow: u64, waited_ns: u64) {
        if self.observed {
            self.spans.on_token_wait(flow, waited_ns);
        }
    }

    /// Offers a flow-, fault- or reroute-level record.
    #[inline]
    fn note(&mut self, at: u64, event: TraceEvent) {
        if self.observed {
            self.log.record(at, event);
        }
    }

    /// The application started `flow` from `src` to `dst` (`bytes` 0 =
    /// open-ended).
    pub fn flow_open(&mut self, at: u64, flow: u64, src: u32, dst: u32, bytes: u64) {
        self.note(
            at,
            TraceEvent::FlowOpen {
                flow,
                src,
                dst,
                bytes,
            },
        );
    }

    /// `flow`'s handshake completed.
    pub fn flow_established(&mut self, at: u64, flow: u64) {
        self.note(at, TraceEvent::FlowEstablished { flow });
    }

    /// `bytes` of `flow`'s payload reached the application at `node`.
    pub fn flow_delivered(&mut self, at: u64, node: u32, flow: u64, bytes: u64) {
        self.note(at, TraceEvent::PktDeliver { node, flow, bytes });
    }

    /// `flow`'s sender adopted a `window`-byte congestion window.
    pub fn flow_window(&mut self, at: u64, flow: u64, window: u64) {
        self.note(at, TraceEvent::FlowWindowAcquired { flow, window });
    }

    /// `flow`'s sender measured an RTT of `nanos`.
    pub fn flow_rtt(&mut self, at: u64, flow: u64, nanos: u64) {
        self.note(at, TraceEvent::FlowRttSample { flow, nanos });
    }

    /// `flow`'s sender retransmitted a packet.
    pub fn flow_retransmit(&mut self, at: u64, flow: u64) {
        self.note(at, TraceEvent::FlowRetransmit { flow });
    }

    /// `flow`'s retransmission timer fired.
    pub fn flow_rto(&mut self, at: u64, flow: u64) {
        self.note(at, TraceEvent::FlowRto { flow });
    }

    /// `flow`'s sender finished with `delivered` bytes at the receiver.
    pub fn flow_fin(&mut self, at: u64, flow: u64, delivered: u64) {
        self.note(at, TraceEvent::FlowFin { flow, delivered });
    }

    /// A fault of `kind` took effect (`cleared`: it was lifted) at
    /// `node`'s `port`, with kind-specific magnitude `value`.
    pub fn fault(
        &mut self,
        at: u64,
        kind: &'static str,
        node: u32,
        port: u16,
        value: u64,
        cleared: bool,
    ) {
        let event = if cleared {
            TraceEvent::FaultCleared {
                kind,
                node,
                port,
                value,
            }
        } else {
            TraceEvent::FaultInjected {
                kind,
                node,
                port,
                value,
            }
        };
        self.note(at, event);
    }

    /// A link-down at switch `node`'s `port` left `dests()` destinations
    /// to the surviving equal-cost members. `dests` walks the route
    /// table, so it runs only when observing.
    pub fn rerouted(&mut self, at: u64, node: u32, port: u16, dests: impl FnOnce() -> u64) {
        if self.observed {
            let dests = dests();
            self.log
                .record(at, TraceEvent::Rerouted { node, port, dests });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::thread_span_records;
    use crate::{LogMode, TelemetryConfig, TraceConfig};

    impl PacketView for PacketFields {
        fn fields(&self) -> PacketFields {
            *self
        }
    }

    fn data() -> PacketFields {
        PacketFields {
            flow: 7,
            seq: 1460,
            bytes: 1500,
            data: true,
            ..PacketFields::default()
        }
    }

    fn telemetry(events: LogMode, trace: TraceConfig) -> Telemetry {
        let cfg = TelemetryConfig {
            events,
            trace,
            ..TelemetryConfig::default()
        };
        Telemetry::new(&cfg, 1, &["a"])
    }

    fn kinds(t: &Telemetry) -> Vec<&'static str> {
        t.log
            .records()
            .iter()
            .map(|r| r.event.kind_name())
            .collect()
    }

    fn span_count(t: &Telemetry, key: &str, field: &str) -> Vec<i64> {
        let j = t.spans.to_json();
        let rows = j.get(key).unwrap().as_array().unwrap();
        rows.iter()
            .map(|r| r.get(field).unwrap().as_i64().unwrap())
            .collect()
    }

    #[test]
    fn a_switch_enqueue_logs_its_marks_in_order() {
        let mut t = telemetry(LogMode::Full, TraceConfig::Full);
        let marked = PacketFields {
            ce: true,
            round_mark: Some(2920),
            ..data()
        };
        let queue = Queue::Switch { ce_before: false };
        t.pkt_enqueue(10, 3, 2, 1, &marked, 3000, queue);
        assert_eq!(kinds(&t), ["pkt_enqueue", "pkt_ecn_mark", "pkt_round_mark"]);
        match t.log.records()[2].event {
            TraceEvent::PktRoundMark {
                node, port, window, ..
            } => {
                assert_eq!((node, port, window), (3, 2, 2920));
            }
            ref e => panic!("unexpected {e:?}"),
        }
        // The span started at hop 1 and counted the mark there.
        assert_eq!(span_count(&t, "ecn", "hop"), [1]);
        assert_eq!(span_count(&t, "ecn", "marks"), [1]);
        // A CE the packet already carried is not this hop's mark, and a
        // NIC logs no marks at all.
        let queue = Queue::Switch { ce_before: true };
        t.pkt_enqueue(20, 4, 0, 2, &marked, 1500, queue);
        t.pkt_enqueue(30, 0, 0, 3, &marked, 1500, Queue::Nic);
        assert_eq!(t.log.count_of("pkt_ecn_mark"), 1);
        assert_eq!(t.log.count_of("pkt_round_mark"), 2);
    }

    #[test]
    fn a_drop_point_logs_one_drop_and_counts_one_span_drop() {
        let mut t = telemetry(LogMode::Full, TraceConfig::Full);
        let p = data();
        t.pkt_enqueue(0, 0, 0, 1, &p, 1500, Queue::Nic);
        t.pkt_drop(5, 0, 0, 1, &p);
        assert_eq!(kinds(&t), ["pkt_enqueue", "pkt_drop"]);
        assert_eq!(span_count(&t, "drops", "count"), [1]);
    }

    #[test]
    fn everything_off_changes_nothing() {
        let before = thread_span_records();
        let mut t = telemetry(LogMode::Off, TraceConfig::Off);
        let p = PacketFields {
            ack: Some(1),
            ce: true,
            round_mark: Some(2920),
            ..data()
        };
        t.pkt_enqueue(0, 1, 1, 1, &p, 1500, Queue::Switch { ce_before: false });
        t.pkt_dequeue(1, 1, 1, 1, &p);
        t.pkt_drop(2, 1, 1, 1, &p);
        t.pkt_consumed(1, &p);
        t.pkt_arrive(3, 2, 1, &p, true);
        t.token_wait(7, 50);
        t.flow_open(0, 7, 0, 1, 100);
        t.flow_established(1, 7);
        t.flow_delivered(2, 1, 7, 100);
        t.flow_window(3, 7, 2920);
        t.flow_rtt(4, 7, 99);
        t.flow_retransmit(5, 7);
        t.flow_rto(6, 7);
        t.flow_fin(7, 7, 100);
        t.fault(8, "link_down", 1, 1, 0, false);
        t.rerouted(8, 1, 1, || panic!("walked the routes while off"));
        assert_eq!(thread_span_records(), before);
        assert!(t.log.counts().iter().all(|&c| c == 0));
        assert!(t.log.is_empty());
    }
}

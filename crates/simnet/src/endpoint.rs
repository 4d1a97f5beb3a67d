//! Transport-endpoint interface.
//!
//! Protocols (TCP NewReno, DCTCP, TFC) are implemented outside this crate
//! against these traits. Endpoints never touch the simulator directly:
//! every handler receives an [`Effects`] sink into which it pushes
//! packets to emit, timers to arm, and notes for the application layer.
//! The simulator applies the effects after the handler returns, which
//! keeps borrows simple and the event order deterministic.

use crate::packet::{FlowId, NodeId, Packet};
use crate::units::{Dur, Time};

/// What an endpoint asks the simulator to do.
#[derive(Debug, Default)]
pub struct Effects {
    /// Packets to hand to the host NIC, in order.
    pub packets: Vec<Packet>,
    /// Timers to arm: fire after `Dur` with the given token.
    pub timers: Vec<(Dur, u64)>,
    /// Tokens of previously armed timers to cancel. Best-effort: a
    /// token with no pending timer is ignored, so endpoints keep their
    /// stale-generation checks as the source of truth. Cancels are
    /// applied before this effect set's own `timers`, so a cancel
    /// followed by a re-arm lets the re-arm reuse the cancelled timer's
    /// queued entry (see [`crate::sched`]) instead of adding one per
    /// call.
    pub cancels: Vec<u64>,
    /// Upcalls for the simulator / application layer.
    pub notes: Vec<Note>,
}

impl Effects {
    /// Creates an empty effect sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a packet for transmission out of the host NIC.
    pub fn send(&mut self, pkt: Packet) {
        self.packets.push(pkt);
    }

    /// Arms a timer that fires after `after` carrying `token`.
    pub fn timer(&mut self, after: Dur, token: u64) {
        self.timers.push((after, token));
    }

    /// Cancels the pending timer carrying `token`, if any.
    pub fn cancel_timer(&mut self, token: u64) {
        self.cancels.push(token);
    }

    /// Emits an upcall note.
    pub fn note(&mut self, n: Note) {
        self.notes.push(n);
    }

    /// Whether no effect was produced.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
            && self.timers.is_empty()
            && self.cancels.is_empty()
            && self.notes.is_empty()
    }
}

/// Endpoint-to-simulator upcalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Note {
    /// The connection handshake completed (sender side).
    Established,
    /// `bytes` of new in-order payload were delivered to the application
    /// (receiver side). Drives goodput meters.
    Delivered {
        /// In-order payload bytes handed to the application.
        bytes: u64,
    },
    /// The receiver has the complete byte stream of a sized flow.
    ReceiverDone,
    /// The sender has every byte acknowledged and the flow closed.
    SenderDone,
    /// A retransmission timeout fired (for timeout accounting, Fig. 15b).
    Timeout,
    /// A packet was retransmitted (loss accounting).
    Retransmit,
    /// The sender adopted a new congestion window: TFC senders on every
    /// RMA window stamp, TCP-family senders on loss-recovery changes.
    /// Feeds flow window-acquisition telemetry.
    WindowAcquired {
        /// The adopted window in bytes.
        bytes: u64,
    },
    /// The sender measured one round-trip time (Fig. 6 reference data).
    RttSample {
        /// Measured RTT in nanoseconds.
        nanos: u64,
    },
}

/// Sender half of a transport connection, living at the source host.
pub trait SenderEndpoint: Send {
    /// Begins the connection (emits SYN).
    fn open(&mut self, now: Time, fx: &mut Effects);

    /// Adds application bytes to the send stream. `fx` lets an idle
    /// connection resume transmission immediately.
    fn push_data(&mut self, bytes: u64, now: Time, fx: &mut Effects);

    /// Marks the stream closed once everything pushed so far is
    /// delivered (emits FIN at the right point).
    fn close(&mut self, now: Time, fx: &mut Effects);

    /// Handles a packet addressed to this sender (ACKs).
    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects);

    /// Handles a previously armed timer.
    fn on_timer(&mut self, token: u64, now: Time, fx: &mut Effects);

    /// Current congestion window in bytes (diagnostics).
    fn cwnd(&self) -> u64;

    /// Bytes acknowledged so far (diagnostics).
    fn acked_bytes(&self) -> u64;
}

/// Receiver half of a transport connection, living at the destination.
pub trait ReceiverEndpoint: Send {
    /// Handles a packet addressed to this receiver (SYN, data, FIN).
    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects);

    /// In-order bytes delivered to the application so far.
    fn delivered_bytes(&self) -> u64;
}

/// Static description of a flow to be started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Bytes to transfer, or `None` for an open-ended (on-off) flow fed
    /// later via `push_data`.
    pub bytes: Option<u64>,
    /// Allocation weight (TFC weighted-allocation extension; 1 = fair).
    pub weight: u8,
}

impl FlowSpec {
    /// A unit-weight sized flow.
    pub fn sized(src: NodeId, dst: NodeId, bytes: u64) -> Self {
        Self {
            src,
            dst,
            bytes: Some(bytes),
            weight: 1,
        }
    }

    /// A unit-weight open-ended flow.
    pub fn open_ended(src: NodeId, dst: NodeId) -> Self {
        Self {
            src,
            dst,
            bytes: None,
            weight: 1,
        }
    }

    /// Sets the allocation weight.
    pub fn with_weight(mut self, weight: u8) -> Self {
        self.weight = weight.max(1);
        self
    }
}

/// Factory building protocol endpoints for new flows.
///
/// One stack instance configures a whole simulation (all flows use the
/// same protocol unless the experiment wires several stacks).
pub trait ProtocolStack: Send {
    /// Creates the sender half of `flow`.
    fn new_sender(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn SenderEndpoint>;

    /// Creates the receiver half of `flow`.
    fn new_receiver(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn ReceiverEndpoint>;

    /// Human-readable protocol name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NodeId;

    #[test]
    fn effects_accumulate() {
        let mut fx = Effects::new();
        assert!(fx.is_empty());
        fx.send(Packet::ack(FlowId(1), NodeId(0), NodeId(1), 5));
        fx.timer(Dur::micros(10), 7);
        fx.note(Note::Established);
        assert_eq!(fx.packets.len(), 1);
        assert_eq!(fx.timers, vec![(Dur::micros(10), 7)]);
        assert_eq!(fx.notes, vec![Note::Established]);
        assert!(!fx.is_empty());
    }
}

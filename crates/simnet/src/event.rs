//! Simulation event kinds.
//!
//! The queue that orders them lives in [`crate::sched`]; the historical
//! `event::EventQueue` path is preserved via re-export.

use crate::arena::PacketId;
use crate::packet::{FlowId, NodeId};

pub use crate::sched::{EventQueue, SchedulerKind, TimerHandle};

/// A scheduled simulation event.
///
/// Packet-bearing events carry a [`PacketId`] into the simulation's
/// [`crate::arena::PacketArena`], not an owned packet, and every other
/// payload is a narrow index or token: an event is 16 bytes and `Copy`,
/// so the scheduler's entries stay half a cache line. The simulator
/// narrows ports, flow ids and host-timer tokens with checked
/// conversions that panic with the value's name instead of truncating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A packet finished propagating and arrives at `node` on `port`.
    Arrival {
        /// Receiving node.
        node: NodeId,
        /// Ingress port index at the receiving node.
        port: u16,
        /// The packet's arena id.
        pkt: PacketId,
    },
    /// `node` finished serialising the packet currently occupying `port`.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// Port whose transmission completed.
        port: u16,
    },
    /// A transport-endpoint timer at a host fired.
    HostTimer {
        /// The host.
        node: NodeId,
        /// Flow the timer belongs to (its [`crate::packet::FlowId`]).
        flow: u32,
        /// Endpoint-defined timer payload.
        token: u32,
    },
    /// A switch-policy timer fired (e.g. TFC delay-arbiter wakeup).
    PolicyTimer {
        /// The switch.
        node: NodeId,
        /// Policy-defined timer payload.
        token: u64,
    },
    /// An application (workload driver) timer fired.
    AppTimer {
        /// Application-defined timer payload.
        token: u64,
    },
    /// A trace sampler tick.
    Sample {
        /// Index into the sampler table.
        sampler: u32,
    },
    /// A packet produced by a host endpoint reaches its NIC queue (after
    /// any configured host processing jitter).
    NicEnqueue {
        /// The host.
        node: NodeId,
        /// The packet's arena id.
        pkt: PacketId,
    },
    /// A scripted fault takes effect (chaos timeline).
    Fault {
        /// Index of the [`crate::fault::FaultAction`] in the simulator's
        /// table of installed faults.
        fault: u32,
    },
}

// A 16-byte event keeps a scheduler entry at 32 bytes (`crate::sched`):
// a widened field fails to compile here instead of growing every entry.
const _: () = assert!(std::mem::size_of::<Event>() == 16);

impl Event {
    /// Export names of the event kinds, indexed by
    /// [`kind_index`](Self::kind_index). The simulator hands this table
    /// to the telemetry layer for per-kind loop counters.
    pub const KIND_NAMES: [&'static str; 8] = [
        "arrival",
        "tx_done",
        "host_timer",
        "policy_timer",
        "app_timer",
        "sample",
        "nic_enqueue",
        "fault",
    ];

    /// Dense index of this event's kind into [`Self::KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Arrival { .. } => 0,
            Event::TxDone { .. } => 1,
            Event::HostTimer { .. } => 2,
            Event::PolicyTimer { .. } => 3,
            Event::AppTimer { .. } => 4,
            Event::Sample { .. } => 5,
            Event::NicEnqueue { .. } => 6,
            Event::Fault { .. } => 7,
        }
    }

    /// Narrows a port index to an event's `u16` port field.
    ///
    /// # Panics
    ///
    /// Panics if `port` exceeds `u16::MAX` (no node has that many ports).
    pub(crate) fn port(port: usize) -> u16 {
        u16::try_from(port).unwrap_or_else(|_| panic!("event port {port} exceeds u16"))
    }

    /// A host-timer event for `flow`'s endpoint timer `token` at `node`.
    ///
    /// # Panics
    ///
    /// Panics if the flow id or the token exceeds `u32::MAX`, rather
    /// than firing the timer of a different flow or generation.
    pub(crate) fn host_timer(node: NodeId, flow: FlowId, token: u64) -> Event {
        Event::HostTimer {
            node,
            flow: u32::try_from(flow.0)
                .unwrap_or_else(|_| panic!("host-timer flow id {} exceeds u32", flow.0)),
            token: u32::try_from(token)
                .unwrap_or_else(|_| panic!("host-timer token {token} exceeds u32")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_timer_narrows_in_range_values_exactly() {
        let ev = Event::host_timer(NodeId(3), FlowId(u64::from(u32::MAX)), u64::from(u32::MAX));
        assert_eq!(
            ev,
            Event::HostTimer {
                node: NodeId(3),
                flow: u32::MAX,
                token: u32::MAX
            }
        );
    }

    #[test]
    #[should_panic(expected = "host-timer flow id 4294967296 exceeds u32")]
    fn host_timer_flow_out_of_range_panics() {
        let _ = Event::host_timer(NodeId(0), FlowId(1 << 32), 0);
    }

    #[test]
    #[should_panic(expected = "host-timer token 4294967296 exceeds u32")]
    fn host_timer_token_out_of_range_panics() {
        let _ = Event::host_timer(NodeId(0), FlowId(0), 1 << 32);
    }

    #[test]
    #[should_panic(expected = "event port 65536 exceeds u16")]
    fn port_out_of_range_panics() {
        let _ = Event::port(1 << 16);
    }
}

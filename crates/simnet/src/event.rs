//! Simulation event kinds.
//!
//! The queue that orders them lives in [`crate::sched`]; the historical
//! `event::EventQueue` path is preserved via re-export.

use crate::arena::PacketId;
use crate::fault::FaultAction;
use crate::packet::NodeId;

pub use crate::sched::{EventQueue, SchedulerKind, TimerHandle};

/// A scheduled simulation event.
///
/// Packet-bearing events carry a [`PacketId`] into the simulation's
/// [`crate::arena::PacketArena`], not an owned packet: entries stay
/// small and `Copy`-cheap through the scheduler, and the packet itself
/// is written once at allocation and borrowed everywhere after.
#[derive(Debug, Clone)]
pub enum Event {
    /// A packet finished propagating and arrives at `node` on `port`.
    Arrival {
        /// Receiving node.
        node: NodeId,
        /// Ingress port index at the receiving node.
        port: usize,
        /// The packet's arena id.
        pkt: PacketId,
    },
    /// `node` finished serialising the packet currently occupying `port`.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// Port whose transmission completed.
        port: usize,
    },
    /// A transport-endpoint timer at a host fired.
    HostTimer {
        /// The host.
        node: NodeId,
        /// Flow the timer belongs to.
        flow: crate::packet::FlowId,
        /// Endpoint-defined timer payload.
        token: u64,
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
        sampler: usize,
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
        /// The fault to apply.
        action: FaultAction,
    },
}

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
}

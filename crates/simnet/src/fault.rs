//! Fault-injection primitives: the network-dynamics vocabulary.
//!
//! A [`FaultAction`] is one atomic change to the running network,
//! applied by the simulator at an exact simulated time (scheduled with
//! [`crate::sim::SimCore::inject_fault`]). The taxonomy covers the
//! recovery cases the TFC paper's mechanisms exist for:
//!
//! * **link down/up** — both directions of a full-duplex link die;
//!   packets being serialised or propagating on it are lost;
//! * **link rate renegotiation** — the link trains down (or up) to a new
//!   rate, e.g. 10 Gbps → 1 Gbps;
//! * **loss window** — a port drops each crossing packet with a fixed
//!   probability (bursty corruption), drawn from a dedicated fault RNG
//!   stream so other seeded behaviour is unperturbed;
//! * **policy reset** — a switch port's policy soft state is wiped
//!   (control-plane reboot): TFC loses its token/E/rho counters and must
//!   re-learn them;
//! * **host stall/resume** — a host goes silent without FIN (the §4.3
//!   rho-reclamation case): nothing leaves its NIC, nothing it
//!   receives reaches its endpoints, and its endpoints' timers that
//!   come due fire at the resume, so recovery is the endpoints' own.
//!
//! Higher-level scripting (timelines, randomized chaos suites, recovery
//! metrics) lives in the `chaos` crate; this module only defines what
//! the simulator itself must understand.

use crate::packet::NodeId;
use crate::units::Bandwidth;

/// One atomic fault applied to the network at a scheduled time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Takes the full-duplex link attached to `node`'s `port` down
    /// (both directions). In-flight packets on the link are dropped.
    LinkDown {
        /// Either endpoint of the link.
        node: NodeId,
        /// Port index at that node.
        port: usize,
    },
    /// Restores a downed link (both directions).
    LinkUp {
        /// Either endpoint of the link.
        node: NodeId,
        /// Port index at that node.
        port: usize,
    },
    /// Renegotiates the link rate (both directions). A packet mid-
    /// serialisation completes at the old rate; everything after
    /// serialises at the new one.
    LinkRate {
        /// Either endpoint of the link.
        node: NodeId,
        /// Port index at that node.
        port: usize,
        /// The new line rate.
        rate: Bandwidth,
    },
    /// Starts a bursty loss window on one egress port: each packet
    /// joining the port's FIFO is dropped with probability
    /// `permille`/1000 (corruption model).
    LossWindow {
        /// The node owning the port.
        node: NodeId,
        /// Port index at that node.
        port: usize,
        /// Drop probability in permille (0..=1000).
        permille: u16,
    },
    /// Ends a loss window on a port.
    LossWindowEnd {
        /// The node owning the port.
        node: NodeId,
        /// Port index at that node.
        port: usize,
    },
    /// Wipes a switch port's policy soft state (token/E/rho counters for
    /// TFC), modelling a control-plane reboot.
    PolicyReset {
        /// The switch.
        node: NodeId,
        /// Port index at that switch.
        port: usize,
    },
    /// The host goes silent without FIN: its NIC emits nothing,
    /// arriving packets are discarded, and endpoint timers that come due
    /// are parked until the resume.
    HostStall {
        /// The host.
        node: NodeId,
    },
    /// The host resumes: its parked timers fire, and senders recover
    /// via their own timers (and, for TFC, the window re-acquisition
    /// probe).
    HostResume {
        /// The host.
        node: NodeId,
    },
}

impl FaultAction {
    /// Stable label of the fault kind, shared by the inject and clear
    /// telemetry events so pairs can be matched up.
    pub fn kind_label(&self) -> &'static str {
        match self {
            FaultAction::LinkDown { .. } | FaultAction::LinkUp { .. } => "link_down",
            FaultAction::LinkRate { .. } => "link_rate",
            FaultAction::LossWindow { .. } | FaultAction::LossWindowEnd { .. } => "loss_window",
            FaultAction::PolicyReset { .. } => "policy_reset",
            FaultAction::HostStall { .. } | FaultAction::HostResume { .. } => "host_stall",
        }
    }

    /// Whether this action lifts a fault (telemetry `FaultCleared`)
    /// rather than injecting one (`FaultInjected`).
    pub fn is_clear(&self) -> bool {
        matches!(
            self,
            FaultAction::LinkUp { .. }
                | FaultAction::LossWindowEnd { .. }
                | FaultAction::HostResume { .. }
        )
    }

    /// The node the fault applies to.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultAction::LinkDown { node, .. }
            | FaultAction::LinkUp { node, .. }
            | FaultAction::LinkRate { node, .. }
            | FaultAction::LossWindow { node, .. }
            | FaultAction::LossWindowEnd { node, .. }
            | FaultAction::PolicyReset { node, .. }
            | FaultAction::HostStall { node }
            | FaultAction::HostResume { node } => node,
        }
    }

    /// The port the fault applies to (0 for node-wide faults).
    pub fn port(&self) -> usize {
        match *self {
            FaultAction::LinkDown { port, .. }
            | FaultAction::LinkUp { port, .. }
            | FaultAction::LinkRate { port, .. }
            | FaultAction::LossWindow { port, .. }
            | FaultAction::LossWindowEnd { port, .. }
            | FaultAction::PolicyReset { port, .. } => port,
            FaultAction::HostStall { .. } | FaultAction::HostResume { .. } => 0,
        }
    }

    /// Kind-specific magnitude for telemetry: the new rate in bps for
    /// [`FaultAction::LinkRate`], the drop probability in permille for
    /// [`FaultAction::LossWindow`], 0 otherwise.
    pub fn value(&self) -> u64 {
        match *self {
            FaultAction::LinkRate { rate, .. } => rate.as_bps(),
            FaultAction::LossWindow { permille, .. } => permille as u64,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_pair_inject_with_clear() {
        let n = NodeId(3);
        let pairs = [
            (
                FaultAction::LinkDown { node: n, port: 1 },
                FaultAction::LinkUp { node: n, port: 1 },
            ),
            (
                FaultAction::LossWindow {
                    node: n,
                    port: 1,
                    permille: 100,
                },
                FaultAction::LossWindowEnd { node: n, port: 1 },
            ),
            (
                FaultAction::HostStall { node: n },
                FaultAction::HostResume { node: n },
            ),
        ];
        for (inject, clear) in pairs {
            assert!(!inject.is_clear());
            assert!(clear.is_clear());
            assert_eq!(inject.kind_label(), clear.kind_label());
            assert_eq!(inject.node(), clear.node());
            assert_eq!(inject.port(), clear.port());
        }
    }

    #[test]
    fn values_carry_magnitudes() {
        let n = NodeId(0);
        assert_eq!(
            FaultAction::LinkRate {
                node: n,
                port: 0,
                rate: Bandwidth::gbps(1)
            }
            .value(),
            1_000_000_000
        );
        assert_eq!(
            FaultAction::LossWindow {
                node: n,
                port: 0,
                permille: 250
            }
            .value(),
            250
        );
        assert_eq!(FaultAction::PolicyReset { node: n, port: 2 }.value(), 0);
        assert!(!FaultAction::PolicyReset { node: n, port: 2 }.is_clear());
        assert_eq!(FaultAction::HostStall { node: n }.port(), 0);
    }
}

//! Scripted fault timelines.

use simnet::fault::FaultAction;
use simnet::packet::NodeId;
use simnet::sim::SimCore;
use simnet::units::{Bandwidth, Dur, Time};

/// An ordered script of faults to apply to one run.
///
/// Entries are kept in insertion order; the simulator's event queue
/// breaks same-time ties by insertion order, so a timeline is applied
/// exactly as written, every run.
///
/// # Examples
///
/// ```
/// use simnet::packet::NodeId;
/// use simnet::units::{Dur, Time};
/// use tfc_chaos::FaultTimeline;
///
/// let tl = FaultTimeline::new()
///     .link_flap(Time(1_000_000), Dur::millis(2), NodeId(9), 1)
///     .host_stall(Time(5_000_000), Dur::millis(10), NodeId(0));
/// assert_eq!(tl.plan().len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultTimeline {
    plan: Vec<(Time, FaultAction)>,
}

impl FaultTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one raw `(time, action)` entry.
    pub fn at(mut self, at: Time, action: FaultAction) -> Self {
        self.plan.push((at, action));
        self
    }

    /// Link flap: down at `at`, back up after `dur`.
    pub fn link_flap(self, at: Time, dur: Dur, node: NodeId, port: usize) -> Self {
        self.at(at, FaultAction::LinkDown { node, port })
            .at(at + dur, FaultAction::LinkUp { node, port })
    }

    /// Host stall without FIN at `at`, resuming after `dur` (the §4.3
    /// token-reclamation case).
    pub fn host_stall(self, at: Time, dur: Dur, node: NodeId) -> Self {
        self.at(at, FaultAction::HostStall { node })
            .at(at + dur, FaultAction::HostResume { node })
    }

    /// Bursty loss window on a port: each crossing packet dropped with
    /// probability `permille`/1000 for `dur`.
    pub fn loss_burst(self, at: Time, dur: Dur, node: NodeId, port: usize, permille: u16) -> Self {
        self.at(
            at,
            FaultAction::LossWindow {
                node,
                port,
                permille,
            },
        )
        .at(at + dur, FaultAction::LossWindowEnd { node, port })
    }

    /// Rate renegotiation dip: the link trains down to `dip` at `at` and
    /// back to `restore` after `dur`.
    pub fn rate_dip(
        self,
        at: Time,
        dur: Dur,
        node: NodeId,
        port: usize,
        dip: Bandwidth,
        restore: Bandwidth,
    ) -> Self {
        self.at(
            at,
            FaultAction::LinkRate {
                node,
                port,
                rate: dip,
            },
        )
        .at(
            at + dur,
            FaultAction::LinkRate {
                node,
                port,
                rate: restore,
            },
        )
    }

    /// Control-plane reboot of a switch port's policy state at `at`.
    pub fn policy_reset(self, at: Time, node: NodeId, port: usize) -> Self {
        self.at(at, FaultAction::PolicyReset { node, port })
    }

    /// The scripted `(time, action)` pairs, in insertion order.
    pub fn plan(&self) -> &[(Time, FaultAction)] {
        &self.plan
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Schedules every entry into a simulation (before or during a run).
    pub fn install(&self, core: &mut SimCore) {
        core.inject_faults(&self.plan);
    }

    /// Merges another timeline's entries after this one's.
    pub fn extend(mut self, other: FaultTimeline) -> Self {
        self.plan.extend(other.plan);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_constructors_emit_inject_then_clear() {
        let tl = FaultTimeline::new()
            .link_flap(Time(100), Dur(50), NodeId(1), 2)
            .loss_burst(Time(300), Dur(50), NodeId(1), 2, 200)
            .host_stall(Time(500), Dur(50), NodeId(3));
        let plan = tl.plan();
        assert_eq!(plan.len(), 6);
        for pair in plan.chunks(2) {
            let (t0, inject) = pair[0];
            let (t1, clear) = pair[1];
            assert!(!inject.is_clear());
            assert!(clear.is_clear());
            assert_eq!(inject.kind_label(), clear.kind_label());
            assert_eq!(t1, Time(t0.nanos() + 50));
        }
    }

    #[test]
    fn rate_dip_sets_both_rates() {
        let tl = FaultTimeline::new().rate_dip(
            Time(0),
            Dur(10),
            NodeId(0),
            0,
            Bandwidth::gbps(1),
            Bandwidth::gbps(10),
        );
        let values: Vec<u64> = tl.plan().iter().map(|(_, a)| a.value()).collect();
        assert_eq!(values, vec![1_000_000_000, 10_000_000_000]);
    }

    #[test]
    fn extend_preserves_order() {
        let a = FaultTimeline::new().policy_reset(Time(5), NodeId(9), 1);
        let b = FaultTimeline::new().policy_reset(Time(1), NodeId(9), 2);
        let merged = a.extend(b);
        assert_eq!(merged.plan().len(), 2);
        assert_eq!(merged.plan()[0].1.port(), 1);
    }
}

//! Switch port policies.
//!
//! A policy observes and may rewrite every packet crossing a switch.
//! Drop-tail and ECN marking live here; the TFC port engine implements
//! the same trait in the `tfc` crate.

use crate::packet::{Flags, Packet};
use crate::units::{Bandwidth, Dur, Time};

/// Effects a policy can request from its switch.
#[derive(Debug, Default)]
pub struct PolicyFx {
    /// Timers to arm: fire after `Dur` carrying the token.
    pub timers: Vec<(Dur, u64)>,
    /// Tokens of previously armed timers to cancel. Best-effort, like
    /// [`crate::endpoint::Effects::cancels`]: unknown tokens are
    /// ignored, stale-generation checks in the policy remain the source
    /// of truth, and cancels apply before this effect set's `timers`.
    pub cancels: Vec<u64>,
    /// Packets to (re)inject into the switch's egress path; each will be
    /// routed and enqueued as if it had just arrived, but without another
    /// ingress-hook pass.
    pub inject: Vec<Packet>,
    /// Packets the policy consumed and now gives up, each with the port
    /// that held it (e.g. the ACKs a TFC delay arbiter held when a
    /// [`reset_port`](SwitchPolicy::reset_port) wiped it). Each is lost
    /// there as a policy drop: logged, counted in
    /// [`crate::sim::SimCore::policy_drops`], and counted out of its
    /// flow's packets in flight.
    pub discards: Vec<(usize, Packet)>,
    /// TFC per-port gauge samples emitted at slot close. The simulator
    /// stamps the time and forwards them to the telemetry layer (which
    /// discards them unless gauge collection is enabled).
    pub slot_samples: Vec<telemetry::PortSlotSample>,
    /// Token/window acquire waits `(flow, nanos)` reported when the TFC
    /// delay arbiter releases a held ACK. Routed into the lifecycle-span
    /// tracker (which discards them unless span tracing is enabled).
    pub token_waits: Vec<(u64, u64)>,
}

impl PolicyFx {
    /// Creates an empty effect sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a policy timer.
    pub fn timer(&mut self, after: Dur, token: u64) {
        self.timers.push((after, token));
    }

    /// Cancels the pending policy timer carrying `token`, if any.
    pub fn cancel_timer(&mut self, token: u64) {
        self.cancels.push(token);
    }

    /// Re-injects a packet into the egress path.
    pub fn inject(&mut self, pkt: Packet) {
        self.inject.push(pkt);
    }

    /// Gives up a consumed packet held for `port`: it is lost there.
    pub fn discard(&mut self, port: usize, pkt: Packet) {
        self.discards.push((port, pkt));
    }

    /// Emits a TFC slot gauge sample.
    pub fn slot_sample(&mut self, sample: telemetry::PortSlotSample) {
        self.slot_samples.push(sample);
    }

    /// Reports how long the delay arbiter held `flow`'s ACK before
    /// releasing it (the token/window acquire wait).
    pub fn token_wait(&mut self, flow: u64, waited_ns: u64) {
        self.token_waits.push((flow, waited_ns));
    }
}

/// Outcome of the ingress hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressVerdict {
    /// Continue normal forwarding.
    Forward,
    /// The policy consumed the packet (e.g. TFC delay queue); it may be
    /// re-injected later via [`PolicyFx::inject`].
    Consume,
}

/// Outcome of the egress hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressVerdict {
    /// Enqueue the (possibly rewritten) packet.
    Enqueue,
    /// Drop the packet (policy-initiated, e.g. an AQM).
    Drop,
}

/// Per-switch packet-processing policy.
///
/// Hooks are invoked by the switch core:
///
/// * [`on_ingress`](SwitchPolicy::on_ingress) when a packet arrives on a
///   port, before routing — this is where TFC's delay arbiter lives,
///   because an RMA ACK arrives on exactly the port its data stream
///   egresses from;
/// * [`on_egress`](SwitchPolicy::on_egress) after routing, before the
///   packet joins the egress FIFO — this is where arrival accounting,
///   window stamping, and ECN marking happen;
/// * [`on_timer`](SwitchPolicy::on_timer) when a policy timer fires.
pub trait SwitchPolicy: Send {
    /// Inspects a packet arriving on `in_port`.
    fn on_ingress(
        &mut self,
        in_port: usize,
        pkt: &mut Packet,
        now: Time,
        fx: &mut PolicyFx,
    ) -> IngressVerdict {
        let _ = (in_port, pkt, now, fx);
        IngressVerdict::Forward
    }

    /// Inspects a packet about to join the FIFO of `out_port`, whose
    /// current backlog is `queue_bytes`.
    fn on_egress(
        &mut self,
        out_port: usize,
        pkt: &mut Packet,
        queue_bytes: u64,
        now: Time,
        fx: &mut PolicyFx,
    ) -> EgressVerdict {
        let _ = (out_port, pkt, queue_bytes, now, fx);
        EgressVerdict::Enqueue
    }

    /// Handles a previously armed policy timer.
    fn on_timer(&mut self, token: u64, now: Time, fx: &mut PolicyFx) {
        let _ = (token, now, fx);
    }

    /// Wipes the policy's soft state for `port`, as after a control-plane
    /// reboot (the `PolicyReset` fault). `rate` is the port's current
    /// line rate, so a policy that sizes its state off the link (TFC's
    /// token engine) rebuilds against post-renegotiation reality. A
    /// policy that held consumed packets for the port hands them back
    /// with [`PolicyFx::discard`].
    ///
    /// Stateless policies need not override this.
    fn reset_port(&mut self, port: usize, rate: Bandwidth, now: Time, fx: &mut PolicyFx) {
        let _ = (port, rate, now, fx);
    }
}

/// Plain drop-tail: no marking, no rewriting. Overflow drops are handled
/// by the switch core's capacity check.
#[derive(Debug, Default, Clone, Copy)]
pub struct DropTail;

impl SwitchPolicy for DropTail {}

/// ECN threshold marking, the switch half of DCTCP.
///
/// Marks Congestion Experienced on ECN-capable packets when the egress
/// queue exceeds `k_bytes` at enqueue time (instantaneous queue, as DCTCP
/// prescribes; the paper's testbed used K = 32 KB at 1 Gbps).
#[derive(Debug, Clone, Copy)]
pub struct EcnMark {
    /// Marking threshold in bytes of queue backlog.
    pub k_bytes: u64,
}

impl EcnMark {
    /// Creates a marker with threshold `k_bytes`.
    pub fn new(k_bytes: u64) -> Self {
        Self { k_bytes }
    }
}

impl SwitchPolicy for EcnMark {
    fn on_egress(
        &mut self,
        _out_port: usize,
        pkt: &mut Packet,
        queue_bytes: u64,
        _now: Time,
        _fx: &mut PolicyFx,
    ) -> EgressVerdict {
        if queue_bytes > self.k_bytes && pkt.flags.contains(Flags::ECT) {
            pkt.flags.set(Flags::CE);
        }
        EgressVerdict::Enqueue
    }
}

/// Deterministic periodic loss: drops every `period`-th data packet at
/// egress (1-indexed). A test utility for exercising loss recovery —
/// not a model of real loss.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicLoss {
    /// Drop every `period`-th data packet (`0` disables).
    pub period: u64,
    count: u64,
}

impl PeriodicLoss {
    /// Creates a dropper with the given period.
    pub fn new(period: u64) -> Self {
        Self { period, count: 0 }
    }
}

impl SwitchPolicy for PeriodicLoss {
    fn on_egress(
        &mut self,
        _out_port: usize,
        pkt: &mut Packet,
        _queue_bytes: u64,
        _now: Time,
        _fx: &mut PolicyFx,
    ) -> EgressVerdict {
        if self.period == 0 || !pkt.is_data() {
            return EgressVerdict::Enqueue;
        }
        self.count += 1;
        if self.count.is_multiple_of(self.period) {
            EgressVerdict::Drop
        } else {
            EgressVerdict::Enqueue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId};

    fn data_pkt(ect: bool) -> Packet {
        let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1460);
        if ect {
            p.flags.set(Flags::ECT);
        }
        p
    }

    #[test]
    fn drop_tail_never_interferes() {
        let mut p = DropTail;
        let mut pkt = data_pkt(false);
        let mut fx = PolicyFx::new();
        assert_eq!(
            p.on_ingress(0, &mut pkt, Time::ZERO, &mut fx),
            IngressVerdict::Forward
        );
        assert_eq!(
            p.on_egress(0, &mut pkt, 1_000_000, Time::ZERO, &mut fx),
            EgressVerdict::Enqueue
        );
        assert!(!pkt.flags.contains(Flags::CE));
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut p = EcnMark::new(32_000);
        let mut fx = PolicyFx::new();
        let mut below = data_pkt(true);
        p.on_egress(0, &mut below, 32_000, Time::ZERO, &mut fx);
        assert!(!below.flags.contains(Flags::CE));
        let mut above = data_pkt(true);
        p.on_egress(0, &mut above, 32_001, Time::ZERO, &mut fx);
        assert!(above.flags.contains(Flags::CE));
    }

    #[test]
    fn ecn_ignores_non_ect() {
        let mut p = EcnMark::new(0);
        let mut fx = PolicyFx::new();
        let mut pkt = data_pkt(false);
        p.on_egress(0, &mut pkt, 1_000_000, Time::ZERO, &mut fx);
        assert!(!pkt.flags.contains(Flags::CE));
    }

    #[test]
    fn periodic_loss_drops_every_nth_data_packet() {
        let mut p = PeriodicLoss::new(3);
        let mut fx = PolicyFx::new();
        let mut verdicts = Vec::new();
        for _ in 0..6 {
            let mut pkt = data_pkt(false);
            verdicts.push(p.on_egress(0, &mut pkt, 0, Time::ZERO, &mut fx));
        }
        use EgressVerdict::{Drop, Enqueue};
        assert_eq!(
            verdicts,
            vec![Enqueue, Enqueue, Drop, Enqueue, Enqueue, Drop]
        );
        // ACKs are never dropped.
        let mut ack = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 0);
        assert_eq!(p.on_egress(0, &mut ack, 0, Time::ZERO, &mut fx), Enqueue);
    }

    #[test]
    fn policy_fx_collects() {
        let mut fx = PolicyFx::new();
        fx.timer(Dur::micros(1), 9);
        fx.inject(data_pkt(false));
        assert_eq!(fx.timers.len(), 1);
        assert_eq!(fx.inject.len(), 1);
    }
}

//! The TFC switch policy: wires the per-port [`TokenEngine`]s and
//! [`DelayArbiter`]s into the simulator's switch hooks.
//!
//! Placement of the two hooks mirrors the NetFPGA datapath of Fig. 3:
//!
//! * the *egress* hook (data direction) runs the rho counter, N counter,
//!   RTT timer, token allocator and window calculator, and stamps the
//!   window field of RM packets (Header Modifier);
//! * the *ingress* hook runs the Delay Arbiter on returning RMA ACKs.
//!   An RMA ACK arrives on exactly the port its data stream egresses
//!   from (paths are symmetric in the tree topologies this workspace
//!   uses), so the ingress port index identifies the right engine.

use simnet::node::PortLink;
use simnet::packet::{Flags, NodeId, Packet};
use simnet::policy::{EgressVerdict, IngressVerdict, PolicyFx, SwitchPolicy};
use simnet::units::{Bandwidth, Time};

use crate::arbiter::{ArbiterVerdict, DelayArbiter};
use crate::config::TfcSwitchConfig;
use crate::port::TokenEngine;

const KIND_MISS: u64 = 0;
const KIND_RELEASE: u64 = 1;

fn encode_token(kind: u64, port: usize, gen: u64) -> u64 {
    kind | ((port as u64) << 1) | (gen << 17)
}

fn decode_token(token: u64) -> (u64, usize, u64) {
    (token & 1, ((token >> 1) & 0xffff) as usize, token >> 17)
}

struct TfcPort {
    engine: TokenEngine,
    arbiter: DelayArbiter,
    miss_gen: u64,
    miss_armed_at: Time,
    release_armed: bool,
}

/// TFC packet-processing policy for one switch.
pub struct TfcSwitchPolicy {
    id: NodeId,
    cfg: TfcSwitchConfig,
    ports: Vec<TfcPort>,
}

impl TfcSwitchPolicy {
    /// Creates the policy for switch `id` with the given port links.
    pub fn new(id: NodeId, links: &[PortLink], cfg: TfcSwitchConfig) -> Self {
        let ports = links
            .iter()
            .map(|l| {
                let engine = TokenEngine::new(l.rate, cfg);
                let cap = engine.token_bytes();
                let mut arbiter = DelayArbiter::with_fill_factor(l.rate, cap, cfg.rho0);
                arbiter.set_gate_all(cfg.arbiter_gates_all);
                TfcPort {
                    engine,
                    arbiter,
                    miss_gen: 0,
                    miss_armed_at: Time::ZERO,
                    release_armed: false,
                }
            })
            .collect();
        Self { id, cfg, ports }
    }

    /// Boxed-policy factory suitable for
    /// [`simnet::topology::TopologyBuilder::build`].
    pub fn factory(
        cfg: TfcSwitchConfig,
    ) -> impl FnMut(NodeId, &[PortLink]) -> Box<dyn simnet::policy::SwitchPolicy> {
        move |id, links| Box::new(TfcSwitchPolicy::new(id, links, cfg))
    }

    /// Read access to a port's token engine (tests, diagnostics).
    pub fn engine(&self, port: usize) -> &TokenEngine {
        &self.ports[port].engine
    }

    /// Read access to a port's delay arbiter (tests, diagnostics).
    pub fn arbiter(&self, port: usize) -> &DelayArbiter {
        &self.ports[port].arbiter
    }

    fn arm_miss_timer(&mut self, port: usize, now: Time, fx: &mut PolicyFx) {
        let p = &mut self.ports[port];
        if p.miss_gen > 0 {
            // Best-effort: a no-op if that generation already fired.
            fx.cancel_timer(encode_token(KIND_MISS, port, p.miss_gen));
        }
        p.miss_gen += 1;
        p.miss_armed_at = now;
        fx.timer(
            p.engine.miss_delay(),
            encode_token(KIND_MISS, port, p.miss_gen),
        );
    }

    fn arm_release_timer(&mut self, port: usize, now: Time, fx: &mut PolicyFx) {
        let p = &mut self.ports[port];
        if p.release_armed {
            return;
        }
        if let Some(wait) = p.arbiter.next_release_in(now) {
            p.release_armed = true;
            fx.timer(wait, encode_token(KIND_RELEASE, port, 0));
        }
    }

    /// Emits the structured per-port gauge sample at slot close. Always
    /// produced (one small struct per slot); the simulator's telemetry
    /// layer discards it unless gauge collection is enabled.
    fn slot_gauges(&self, port: usize, report: &crate::port::SlotReport, fx: &mut PolicyFx) {
        let p = &self.ports[port];
        fx.slot_sample(telemetry::PortSlotSample {
            at_ns: 0, // stamped by the simulator
            node: self.id.0,
            port: port as u16,
            token_bytes: report.token_bytes,
            effective_flows: report.effective_flows,
            rho: report.rho,
            window_bytes: report.window_bytes,
            rtt_b_ns: report.rtt_b.as_nanos(),
            rtt_m_ns: report.rtt_m.as_nanos(),
            held_acks: p.arbiter.queued() as u64,
            delayed_total: p.arbiter.delayed_total(),
        });
    }
}

impl SwitchPolicy for TfcSwitchPolicy {
    fn on_ingress(
        &mut self,
        in_port: usize,
        pkt: &mut Packet,
        now: Time,
        fx: &mut PolicyFx,
    ) -> IngressVerdict {
        if !self.cfg.delay_arbiter || !pkt.flags.contains(Flags::RMA) {
            return IngressVerdict::Forward;
        }
        let verdict = self.ports[in_port].arbiter.offer(pkt, now);
        match verdict {
            ArbiterVerdict::Forward => IngressVerdict::Forward,
            ArbiterVerdict::Delayed => {
                self.arm_release_timer(in_port, now, fx);
                IngressVerdict::Consume
            }
        }
    }

    fn on_egress(
        &mut self,
        out_port: usize,
        pkt: &mut Packet,
        _queue_bytes: u64,
        now: Time,
        fx: &mut PolicyFx,
    ) -> EgressVerdict {
        let delim_before = self.ports[out_port].engine.delimiter();
        let slot_before = self.ports[out_port].engine.slot_start();
        if let Some(report) = self.ports[out_port].engine.on_data(pkt, now) {
            let token = self.ports[out_port].engine.token_bytes();
            self.ports[out_port].arbiter.set_cap(token);
            self.slot_gauges(out_port, &report, fx);
            self.arm_miss_timer(out_port, now, fx);
        } else if self.ports[out_port].engine.delimiter() != delim_before
            || self.ports[out_port].engine.slot_start() != slot_before
        {
            // A delimiter was adopted (first RM, or re-adoption after a
            // miss); start watching it. Without this, a silent flow
            // adopted during re-arm would wedge the port: no slot ever
            // closes, so no close-time re-arm can happen.
            self.arm_miss_timer(out_port, now, fx);
        }
        if pkt.flags.contains(Flags::RM) {
            let engine = &self.ports[out_port].engine;
            let w = pkt.weight;
            pkt.window = pkt
                .window
                .min(engine.window_for(w))
                .min(engine.live_window_for(w));
        }
        if pkt.flags.contains(Flags::FIN) {
            self.ports[out_port].engine.on_fin(pkt.flow);
        }
        EgressVerdict::Enqueue
    }

    /// Control-plane reboot of one port (the `PolicyReset` fault): the
    /// token engine and delay arbiter are rebuilt from scratch at the
    /// port's current line rate, exactly as at construction. All learnt
    /// state — token pool, effective-flow count, rho, delimiter, RTT
    /// estimates — is lost and must be re-learnt from live traffic.
    fn reset_port(&mut self, port: usize, rate: Bandwidth, now: Time, fx: &mut PolicyFx) {
        let engine = TokenEngine::new(rate, self.cfg);
        let cap = engine.token_bytes();
        let mut arbiter = DelayArbiter::with_fill_factor(rate, cap, self.cfg.rho0);
        arbiter.set_gate_all(self.cfg.arbiter_gates_all);
        let p = &mut self.ports[port];
        p.engine = engine;
        p.arbiter = arbiter;
        // Cancel (best-effort) and invalidate outstanding timers; the
        // stale-generation check on the miss timer remains the source of
        // truth, and a release timer that outruns the cancel fires
        // harmlessly on the empty rebuilt arbiter.
        if p.miss_gen > 0 {
            fx.cancel_timer(encode_token(KIND_MISS, port, p.miss_gen));
        }
        p.miss_gen += 1;
        p.miss_armed_at = now;
        if p.release_armed {
            fx.cancel_timer(encode_token(KIND_RELEASE, port, 0));
        }
        p.release_armed = false;
    }

    fn on_timer(&mut self, token: u64, now: Time, fx: &mut PolicyFx) {
        let (kind, port, gen) = decode_token(token);
        match kind {
            KIND_MISS => {
                let armed_at = {
                    let p = &self.ports[port];
                    if gen != p.miss_gen {
                        return; // Stale arm generation.
                    }
                    p.miss_armed_at
                };
                if let Some(_next) = self.ports[port].engine.on_miss_timer(armed_at, now) {
                    self.arm_miss_timer(port, now, fx);
                }
            }
            KIND_RELEASE => {
                self.ports[port].release_armed = false;
                let released = self.ports[port].arbiter.release(now);
                for (pkt, held) in released {
                    // The hold is the flow's token/window acquire wait;
                    // report it before the ACK re-enters the fabric.
                    fx.token_wait(pkt.flow.0, held.as_nanos());
                    fx.inject(pkt);
                }
                self.arm_release_timer(port, now, fx);
            }
            _ => unreachable!("unknown policy timer kind"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::packet::{FlowId, MSS, WINDOW_INIT};
    use simnet::units::{Bandwidth, Dur};

    fn links(n: usize) -> Vec<PortLink> {
        (0..n)
            .map(|i| PortLink {
                rate: Bandwidth::gbps(1),
                delay: Dur::micros(1),
                peer: NodeId(100 + i as u32),
                peer_port: 0,
            })
            .collect()
    }

    fn policy(n_ports: usize) -> TfcSwitchPolicy {
        TfcSwitchPolicy::new(NodeId(9), &links(n_ports), TfcSwitchConfig::default())
    }

    fn rm_data(flow: u64) -> Packet {
        let mut p = Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, MSS);
        p.flags.set(Flags::RM);
        p
    }

    fn rma(window: u64) -> Packet {
        let mut p = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 0);
        p.flags.set(Flags::RMA);
        p.window = window;
        p
    }

    #[test]
    fn token_roundtrip() {
        for kind in [KIND_MISS, KIND_RELEASE] {
            for port in [0usize, 3, 65_535] {
                for gen in [0u64, 1, 1 << 30] {
                    assert_eq!(
                        decode_token(encode_token(kind, port, gen)),
                        (kind, port, gen)
                    );
                }
            }
        }
    }

    #[test]
    fn rm_data_gets_stamped() {
        let mut p = policy(2);
        let mut fx = PolicyFx::new();
        let mut pkt = rm_data(1);
        pkt.window = WINDOW_INIT;
        p.on_egress(0, &mut pkt, 0, Time(0), &mut fx);
        assert_eq!(pkt.window, p.engine(0).window());
        // A tighter upstream stamp survives.
        let mut tight = rm_data(2);
        tight.window = 5;
        p.on_egress(0, &mut tight, 0, Time(1), &mut fx);
        assert_eq!(tight.window, 5);
    }

    #[test]
    fn adoption_arms_miss_timer() {
        let mut p = policy(1);
        let mut fx = PolicyFx::new();
        p.on_egress(0, &mut rm_data(1), 0, Time(0), &mut fx);
        assert_eq!(fx.timers.len(), 1);
        let (kind, port, _) = decode_token(fx.timers[0].1);
        assert_eq!((kind, port), (KIND_MISS, 0));
    }

    #[test]
    fn slot_close_rearms_miss_timer_and_updates_cap() {
        let mut p = policy(1);
        let mut fx = PolicyFx::new();
        p.on_egress(0, &mut rm_data(1), 0, Time(0), &mut fx);
        let mut fx2 = PolicyFx::new();
        p.on_egress(0, &mut rm_data(1), 0, Time(100_000), &mut fx2);
        assert_eq!(fx2.timers.len(), 1);
    }

    #[test]
    fn stale_miss_timer_ignored() {
        let mut p = policy(1);
        let mut fx = PolicyFx::new();
        p.on_egress(0, &mut rm_data(1), 0, Time(0), &mut fx);
        let old_token = fx.timers[0].1;
        // Slot closes, generating a new arm.
        let mut fx2 = PolicyFx::new();
        p.on_egress(0, &mut rm_data(1), 0, Time(100_000), &mut fx2);
        // The stale timer fires: nothing happens.
        let mut fx3 = PolicyFx::new();
        p.on_timer(old_token, Time(200_000), &mut fx3);
        assert!(fx3.timers.is_empty());
        assert_eq!(p.engine(0).delimiter(), Some(FlowId(1)));
    }

    #[test]
    fn live_miss_timer_rearms_port() {
        let mut p = policy(1);
        let mut fx = PolicyFx::new();
        p.on_egress(0, &mut rm_data(1), 0, Time(0), &mut fx);
        let tok = fx.timers[0].1;
        let mut fx2 = PolicyFx::new();
        p.on_timer(tok, Time(320_000), &mut fx2);
        // Doubled follow-up timer armed.
        assert_eq!(fx2.timers.len(), 1);
        // A different flow's RM is now adopted.
        let mut fx3 = PolicyFx::new();
        p.on_egress(0, &mut rm_data(2), 0, Time(321_000), &mut fx3);
        assert_eq!(p.engine(0).delimiter(), Some(FlowId(2)));
    }

    #[test]
    fn rma_below_mss_is_consumed_and_released() {
        let mut p = policy(1);
        // Drain the arbiter with a big-window RMA.
        let mut fx = PolicyFx::new();
        let mut big = rma(20_000);
        assert_eq!(
            p.on_ingress(0, &mut big, Time(0), &mut fx),
            IngressVerdict::Forward
        );
        let mut small = rma(100);
        let mut fx2 = PolicyFx::new();
        assert_eq!(
            p.on_ingress(0, &mut small, Time(0), &mut fx2),
            IngressVerdict::Consume
        );
        let (wait, tok) = fx2.timers[0];
        assert!(wait > Dur::ZERO);
        let mut fx3 = PolicyFx::new();
        p.on_timer(tok, Time(wait.as_nanos()), &mut fx3);
        assert_eq!(fx3.inject.len(), 1);
        assert_eq!(fx3.inject[0].window, MSS);
    }

    #[test]
    fn non_rma_acks_skip_arbiter() {
        let mut p = policy(1);
        let mut ack = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 0);
        let mut fx = PolicyFx::new();
        assert_eq!(
            p.on_ingress(0, &mut ack, Time(0), &mut fx),
            IngressVerdict::Forward
        );
        assert!(fx.timers.is_empty());
    }

    #[test]
    fn arbiter_ablation_forwards_everything() {
        let cfg = TfcSwitchConfig {
            delay_arbiter: false,
            ..Default::default()
        };
        let mut p = TfcSwitchPolicy::new(NodeId(9), &links(1), cfg);
        let mut fx = PolicyFx::new();
        p.on_ingress(0, &mut rma(20_000), Time(0), &mut fx);
        let mut small = rma(100);
        assert_eq!(
            p.on_ingress(0, &mut small, Time(0), &mut fx),
            IngressVerdict::Forward
        );
        assert_eq!(small.window, 100, "window untouched without arbiter");
    }

    #[test]
    fn gauges_emitted_on_slot_close() {
        let mut p = TfcSwitchPolicy::new(NodeId(3), &links(1), TfcSwitchConfig::default());
        let mut fx = PolicyFx::new();
        p.on_egress(0, &mut rm_data(1), 0, Time(0), &mut fx);
        assert!(fx.slot_samples.is_empty());
        let mut fx2 = PolicyFx::new();
        p.on_egress(0, &mut rm_data(1), 0, Time(160_000), &mut fx2);
        let s = fx2.slot_samples.first().expect("slot closed");
        assert_eq!((s.node, s.port), (3, 0));
        assert!(s.effective_flows > 0.0 && s.window_bytes > 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rng::props::{cases, vec_u64};
    use rng::Rng;
    use simnet::packet::{Flags, FlowId, Packet, MSS, WINDOW_INIT};
    use simnet::units::{Bandwidth, Dur};

    fn port_link(rate_mbps: u64) -> PortLink {
        PortLink {
            rate: Bandwidth::mbps(rate_mbps),
            delay: Dur::micros(1),
            peer: NodeId(0),
            peer_port: 0,
        }
    }

    /// Stamping composes as a running min across a chain of
    /// switches, whatever their rates and slot histories.
    #[test]
    fn window_stamp_is_min_composition() {
        cases(128, |_case, rng| {
            let rates = vec_u64(rng, 1..5, 100..10_000);
            let weight = rng.gen_range(1..4u8);
            let mut policies: Vec<TfcSwitchPolicy> = rates
                .iter()
                .map(|&r| {
                    TfcSwitchPolicy::new(
                        NodeId(9),
                        &[port_link(r)],
                        TfcSwitchConfig::default(),
                    )
                })
                .collect();
            let mut pkt = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, MSS);
            pkt.flags.set(Flags::RM);
            pkt.weight = weight;
            pkt.window = WINDOW_INIT;
            let mut expected = WINDOW_INIT;
            for p in policies.iter_mut() {
                let mut fx = PolicyFx::new();
                p.on_egress(0, &mut pkt, 0, Time(1_000), &mut fx);
                let stamp = p
                    .engine(0)
                    .window_for(weight)
                    .min(p.engine(0).live_window_for(weight));
                expected = expected.min(stamp);
                assert_eq!(pkt.window, expected, "rates {rates:?}, weight {weight}");
            }
            // A tighter upstream stamp survives every later hop.
            assert!(pkt.window <= expected);
        });
    }

    /// The arbiter never grants more than `cap + fill × elapsed`
    /// bytes over any prefix of offered RMAs, gate-all or not.
    #[test]
    fn arbiter_conserves_budget() {
        cases(128, |_case, rng| {
            let windows = vec_u64(rng, 1..100, 64..20_000);
            let gate_all = rng.gen_bool(0.5);
            let spacing_ns = rng.gen_range(100..50_000u64);
            let cap = 20_000.0;
            let mut a =
                crate::arbiter::DelayArbiter::with_fill_factor(Bandwidth::gbps(1), cap, 0.97);
            a.set_gate_all(gate_all);
            let mut granted = 0u64;
            let mut now = Time(0);
            for &w in &windows {
                now = Time(now.nanos() + spacing_ns);
                let mut pkt = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 0);
                pkt.flags.set(Flags::RMA);
                pkt.window = w;
                if a.offer(&mut pkt, now) == crate::arbiter::ArbiterVerdict::Forward {
                    granted += pkt.window.max(MSS).div_ceil(MSS) * MSS;
                }
            }
            for (pkt, _) in a.release(now) {
                granted += pkt.window.max(MSS).div_ceil(MSS) * MSS;
            }
            if gate_all {
                let budget =
                    cap + 0.97 * 0.125 * now.nanos() as f64 + (2 * MSS) as f64;
                assert!(
                    (granted as f64) <= budget,
                    "granted {granted} over budget {budget} ({} windows, spacing {spacing_ns} ns)",
                    windows.len()
                );
            }
        });
    }
}

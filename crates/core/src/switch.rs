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
//!
//! A port's state is built the first time a hook changes it. Until then
//! the port sits in the paper's Init state, which depends only on its
//! line rate and the switch config, so the untouched ports share one
//! read-only prototype per distinct rate. The policies one
//! [`TfcSwitchPolicy::factory`] builds share their prototypes and config
//! across the whole fabric (DESIGN.md §9, *TFC port state on first
//! touch* and *Compact port state*).

use std::sync::Arc;

use simnet::node::PortLink;
use simnet::packet::{Flags, NodeId, Packet};
use simnet::policy::{EgressVerdict, IngressVerdict, PolicyFx, SwitchPolicy};
use simnet::units::{Bandwidth, Time};

use crate::arbiter::{ArbiterVerdict, DelayArbiter};
use crate::config::TfcSwitchConfig;
use crate::port::{SlotReport, TokenEngine};

const KIND_MISS: u64 = 0;
const KIND_RELEASE: u64 = 1;

fn encode_token(kind: u64, port: usize, gen: u64) -> u64 {
    kind | ((port as u64) << 1) | (gen << 17)
}

fn decode_token(token: u64) -> (u64, usize, u64) {
    (token & 1, ((token >> 1) & 0xffff) as usize, token >> 17)
}

/// One port's TFC state: token engine, delay arbiter and the
/// bookkeeping of its two policy timers.
#[derive(Debug, Clone)]
struct TfcPort {
    engine: TokenEngine,
    arbiter: DelayArbiter,
    miss_gen: u64,
    miss_armed_at: Time,
    release_armed: bool,
}

impl TfcPort {
    /// The Init state of a port of line rate `rate`.
    fn fresh(rate: Bandwidth, cfg: &TfcSwitchConfig) -> Self {
        let engine = TokenEngine::new(rate, cfg);
        let cap = engine.token_bytes();
        let mut arbiter = DelayArbiter::with_fill_factor(rate, cap, cfg.rho0);
        arbiter.set_gate_all(cfg.arbiter_gates_all);
        Self {
            engine,
            arbiter,
            miss_gen: 0,
            miss_armed_at: Time::ZERO,
            release_armed: false,
        }
    }

    /// Offers an RMA ACK arriving on this port to the delay arbiter.
    fn ingress(
        &mut self,
        port: usize,
        pkt: &mut Packet,
        now: Time,
        fx: &mut PolicyFx,
    ) -> IngressVerdict {
        match self.arbiter.offer(pkt, now) {
            ArbiterVerdict::Forward => IngressVerdict::Forward,
            ArbiterVerdict::Delayed => {
                self.arm_release_timer(port, now, fx);
                IngressVerdict::Consume
            }
        }
    }

    /// Runs the token engine on a data-direction packet leaving this
    /// port and stamps the window of RM packets.
    fn egress(
        &mut self,
        cfg: &TfcSwitchConfig,
        node: NodeId,
        port: usize,
        pkt: &mut Packet,
        now: Time,
        fx: &mut PolicyFx,
    ) {
        let delim_before = self.engine.delimiter();
        let slot_before = self.engine.slot_start();
        if let Some(report) = self.engine.on_data(cfg, pkt, now) {
            self.arbiter.set_cap(self.engine.token_bytes());
            self.slot_gauges(node, port, &report, fx);
            self.arm_miss_timer(cfg, port, now, fx);
        } else if self.engine.delimiter() != delim_before || self.engine.slot_start() != slot_before
        {
            // A delimiter was adopted (first RM, or re-adoption after a
            // miss); start watching it. Without this, a silent flow
            // adopted during re-arm would wedge the port: no slot ever
            // closes, so no close-time re-arm can happen.
            self.arm_miss_timer(cfg, port, now, fx);
        }
        if pkt.flags.contains(Flags::RM) {
            let w = pkt.weight;
            pkt.clamp_window(self.engine.window_for(w));
            pkt.clamp_window(self.engine.live_window_for(w));
        }
        if pkt.flags.contains(Flags::FIN) {
            self.engine.on_fin(pkt.flow);
        }
    }

    /// Handles this port's policy timer of `kind` and generation `gen`.
    fn timer(
        &mut self,
        cfg: &TfcSwitchConfig,
        kind: u64,
        port: usize,
        gen: u64,
        now: Time,
        fx: &mut PolicyFx,
    ) {
        match kind {
            KIND_MISS => {
                if gen != self.miss_gen {
                    return; // Stale arm generation.
                }
                if let Some(_next) = self.engine.on_miss_timer(cfg, self.miss_armed_at, now) {
                    self.arm_miss_timer(cfg, port, now, fx);
                }
            }
            KIND_RELEASE => {
                self.release_armed = false;
                for (pkt, held) in self.arbiter.release(now) {
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

    /// Replaces the engine and arbiter with `fresh`'s, hands the ACKs
    /// the old arbiter held back to be lost, and invalidates outstanding
    /// timers.
    fn reset(&mut self, fresh: TfcPort, port: usize, now: Time, fx: &mut PolicyFx) {
        self.engine = fresh.engine;
        for pkt in self.arbiter.take_held() {
            fx.discard(port, pkt);
        }
        self.arbiter = fresh.arbiter;
        // Cancel (best-effort) and invalidate outstanding timers; the
        // stale-generation check on the miss timer remains the source of
        // truth, and a release timer that outruns the cancel fires
        // harmlessly on the empty rebuilt arbiter.
        self.retire_miss_timer(port, now, fx);
        if self.release_armed {
            fx.cancel_timer(encode_token(KIND_RELEASE, port, 0));
        }
        self.release_armed = false;
    }

    /// Cancels the armed miss timer and moves to a new generation, so
    /// a timer that outruns the cancel is ignored as stale.
    fn retire_miss_timer(&mut self, port: usize, now: Time, fx: &mut PolicyFx) {
        if self.miss_gen > 0 {
            // Best-effort: a no-op if that generation already fired.
            fx.cancel_timer(encode_token(KIND_MISS, port, self.miss_gen));
        }
        self.miss_gen += 1;
        self.miss_armed_at = now;
    }

    fn arm_miss_timer(&mut self, cfg: &TfcSwitchConfig, port: usize, now: Time, fx: &mut PolicyFx) {
        self.retire_miss_timer(port, now, fx);
        fx.timer(
            self.engine.miss_delay(cfg),
            encode_token(KIND_MISS, port, self.miss_gen),
        );
    }

    fn arm_release_timer(&mut self, port: usize, now: Time, fx: &mut PolicyFx) {
        if self.release_armed {
            return;
        }
        if let Some(wait) = self.arbiter.next_release_in(now) {
            self.release_armed = true;
            fx.timer(wait, encode_token(KIND_RELEASE, port, 0));
        }
    }

    /// Emits the structured per-port gauge sample at slot close. Always
    /// produced (one small struct per slot); the simulator's telemetry
    /// layer discards it unless gauge collection is enabled.
    fn slot_gauges(&self, node: NodeId, port: usize, report: &SlotReport, fx: &mut PolicyFx) {
        fx.slot_sample(telemetry::PortSlotSample {
            at_ns: 0, // stamped by the simulator
            node: node.0,
            port: port as u16,
            token_bytes: report.token_bytes,
            effective_flows: report.effective_flows,
            rho: report.rho,
            window_bytes: report.window_bytes,
            rtt_b_ns: report.rtt_b.as_nanos(),
            rtt_m_ns: report.rtt_m.as_nanos(),
            held_acks: self.arbiter.queued() as u64,
            delayed_total: self.arbiter.delayed_total(),
        });
    }
}

/// What every port of the policies built together shares: the switch
/// config and the Init prototypes.
#[derive(Debug, Clone)]
struct Shared {
    cfg: TfcSwitchConfig,
    /// One Init port per distinct link rate, never changed.
    protos: Vec<TfcPort>,
}

impl Shared {
    fn new(cfg: TfcSwitchConfig) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            protos: Vec::new(),
        })
    }
}

/// TFC packet-processing policy for one switch.
pub struct TfcSwitchPolicy {
    id: NodeId,
    /// Config and prototypes, shared with the other switches of the
    /// fabric when built by [`factory`](Self::factory).
    shared: Arc<Shared>,
    /// The ports some hook has changed, in first-touch order.
    live: Vec<TfcPort>,
    /// Per port: its prototype's index while no hook has changed it,
    /// then `shared.protos.len()` plus its entry in `live`.
    index: Box<[u32]>,
}

impl TfcSwitchPolicy {
    /// Creates the policy for switch `id` with the given port links.
    pub fn new(id: NodeId, links: &[PortLink], cfg: TfcSwitchConfig) -> Self {
        Self::with_shared(id, links, &mut Shared::new(cfg))
    }

    /// Creates the policy for switch `id` over `shared`, first adding a
    /// prototype for each link rate it lacks. The addition copies
    /// `shared` when other policies hold it: they keep the prototypes
    /// they index.
    fn with_shared(id: NodeId, links: &[PortLink], shared: &mut Arc<Shared>) -> Self {
        let proto_of =
            |shared: &Shared, rate| shared.protos.iter().position(|p| p.engine.rate() == rate);
        let index = links
            .iter()
            .map(|l| {
                let i = proto_of(shared, l.rate).unwrap_or_else(|| {
                    let s = Arc::make_mut(shared);
                    let fresh = TfcPort::fresh(l.rate, &s.cfg);
                    s.protos.push(fresh);
                    s.protos.len() - 1
                });
                i as u32
            })
            .collect();
        Self {
            id,
            shared: Arc::clone(shared),
            live: Vec::new(),
            index,
        }
    }

    /// Boxed-policy factory suitable for
    /// [`simnet::topology::TopologyBuilder::build`]. The policies it
    /// makes share one config and one Init prototype per link rate.
    pub fn factory(
        cfg: TfcSwitchConfig,
    ) -> impl FnMut(NodeId, &[PortLink]) -> Box<dyn simnet::policy::SwitchPolicy> {
        let mut shared = Shared::new(cfg);
        move |id, links| Box::new(TfcSwitchPolicy::with_shared(id, links, &mut shared))
    }

    /// Read access to a port's token engine (tests, diagnostics).
    pub fn engine(&self, port: usize) -> &TokenEngine {
        &self.port(port).engine
    }

    /// Read access to a port's delay arbiter (tests, diagnostics).
    pub fn arbiter(&self, port: usize) -> &DelayArbiter {
        &self.port(port).arbiter
    }

    fn port(&self, port: usize) -> &TfcPort {
        let i = self.index[port] as usize;
        let protos = &self.shared.protos;
        protos
            .get(i)
            .unwrap_or_else(|| &self.live[i - protos.len()])
    }

    /// The port's own state, copied from its prototype on first touch,
    /// and the config.
    fn touch(&mut self, port: usize) -> (&mut TfcPort, &TfcSwitchConfig) {
        let protos = self.shared.protos.len();
        let i = match self.index[port] as usize {
            i if i < protos => self.go_live(port),
            i => i - protos,
        };
        (&mut self.live[i], &self.shared.cfg)
    }

    /// Appends a copy of `port`'s prototype to the live ports; returns
    /// its entry there.
    ///
    /// The live list doubles as it grows, but never past one entry per
    /// port: on a switch where every port goes live, doubling alone
    /// would leave up to half of it unused.
    #[cold]
    #[inline(never)]
    fn go_live(&mut self, port: usize) -> usize {
        let protos = &self.shared.protos;
        let proto = protos[self.index[port] as usize].clone();
        let len = self.live.len();
        if len == self.live.capacity() {
            let most = self.index.len();
            self.live.reserve_exact(len.max(1).min(most - len));
        }
        self.live.push(proto);
        self.index[port] = (protos.len() + len) as u32;
        len
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
        if !self.shared.cfg.delay_arbiter || !pkt.flags.contains(Flags::RMA) {
            return IngressVerdict::Forward;
        }
        self.touch(in_port).0.ingress(in_port, pkt, now, fx)
    }

    fn on_egress(
        &mut self,
        out_port: usize,
        pkt: &mut Packet,
        _queue_bytes: u64,
        now: Time,
        fx: &mut PolicyFx,
    ) -> EgressVerdict {
        let id = self.id;
        let (port, cfg) = self.touch(out_port);
        port.egress(cfg, id, out_port, pkt, now, fx);
        EgressVerdict::Enqueue
    }

    /// Control-plane reboot of one port (the `PolicyReset` fault): the
    /// token engine and delay arbiter are rebuilt from scratch at the
    /// port's current line rate, exactly as at construction. All learnt
    /// state — token pool, effective-flow count, rho, delimiter, RTT
    /// estimates — is lost and must be re-learnt from live traffic. The
    /// ACKs the delay arbiter held are handed back as discards, so the
    /// simulator loses them as policy drops.
    fn reset_port(&mut self, port: usize, rate: Bandwidth, now: Time, fx: &mut PolicyFx) {
        let (state, cfg) = self.touch(port);
        let fresh = TfcPort::fresh(rate, cfg);
        state.reset(fresh, port, now, fx);
    }

    /// Policy timers are armed only by hooks that touched their port,
    /// so the port is already live here.
    fn on_timer(&mut self, token: u64, now: Time, fx: &mut PolicyFx) {
        let (kind, port, gen) = decode_token(token);
        let (state, cfg) = self.touch(port);
        state.timer(cfg, kind, port, gen, now, fx);
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
        p.window = u32::try_from(window).expect("window fits the 32-bit field");
        p
    }

    /// Policies built on one shared state hold one config and one
    /// prototype per rate between them: a switch adding a rate copies
    /// the prototypes once, and later switches share the copy.
    #[test]
    fn shared_state_holds_one_prototype_per_rate() {
        let at = |mbps| PortLink {
            rate: Bandwidth::mbps(mbps),
            ..links(1)[0]
        };
        let mut shared = Shared::new(TfcSwitchConfig::default());
        let core = TfcSwitchPolicy::with_shared(NodeId(0), &[at(40_000); 4], &mut shared);
        let edges: Vec<TfcSwitchPolicy> = (1..4)
            .map(|id| {
                let l = [at(10_000), at(40_000), at(10_000), at(40_000)];
                TfcSwitchPolicy::with_shared(NodeId(id), &l, &mut shared)
            })
            .collect();
        assert_eq!(core.shared.protos.len(), 1);
        for e in &edges {
            assert!(
                Arc::ptr_eq(&e.shared, &edges[0].shared),
                "one copy after the first edge"
            );
            assert_eq!(e.shared.protos.len(), 2);
            assert_eq!(e.engine(0).rate(), Bandwidth::mbps(10_000));
            assert_eq!(e.engine(1).rate(), Bandwidth::mbps(40_000));
        }
        assert_eq!(core.engine(3).rate(), Bandwidth::mbps(40_000));
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
        assert_eq!(u64::from(pkt.window), p.engine(0).window());
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
        assert_eq!(u64::from(fx3.inject[0].window), MSS);
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
                    TfcSwitchPolicy::new(NodeId(9), &[port_link(r)], TfcSwitchConfig::default())
                })
                .collect();
            let mut pkt = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, MSS);
            pkt.flags.set(Flags::RM);
            pkt.weight = weight;
            pkt.window = WINDOW_INIT;
            let mut expected = u64::from(WINDOW_INIT);
            for p in policies.iter_mut() {
                let mut fx = PolicyFx::new();
                p.on_egress(0, &mut pkt, 0, Time(1_000), &mut fx);
                let stamp = p
                    .engine(0)
                    .window_for(weight)
                    .min(p.engine(0).live_window_for(weight));
                expected = expected.min(stamp);
                assert_eq!(
                    u64::from(pkt.window),
                    expected,
                    "rates {rates:?}, weight {weight}"
                );
            }
            // A tighter upstream stamp survives every later hop.
            assert!(u64::from(pkt.window) <= expected);
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
                pkt.window = u32::try_from(w).expect("window fits the 32-bit field");
                if a.offer(&mut pkt, now) == crate::arbiter::ArbiterVerdict::Forward {
                    granted += u64::from(pkt.window).max(MSS).div_ceil(MSS) * MSS;
                }
            }
            for (pkt, _) in a.release(now) {
                granted += u64::from(pkt.window).max(MSS).div_ceil(MSS) * MSS;
            }
            if gate_all {
                let budget = cap + 0.97 * 0.125 * now.nanos() as f64 + (2 * MSS) as f64;
                assert!(
                    (granted as f64) <= budget,
                    "granted {granted} over budget {budget} ({} windows, spacing {spacing_ns} ns)",
                    windows.len()
                );
            }
        });
    }
}

/// Differential test of the first-touch layout against the eager one it
/// replaces, where the constructor built every port up front.
#[cfg(test)]
mod first_touch {
    use super::*;
    use rng::props::cases;
    use rng::rngs::StdRng;
    use rng::Rng;
    use simnet::packet::{FlowId, MSS, WINDOW_INIT};
    use simnet::units::Dur;

    const RATES_MBPS: [u64; 3] = [1_000, 10_000, 40_000];
    /// A rate no link has, so no prototype exists for it.
    const NEW_RATE_MBPS: u64 = 25_000;
    const PORTS: usize = 12;
    /// Ports `0..ACTIVE` carry traffic; the others are never touched
    /// until the final resets.
    const ACTIVE: usize = 10;

    /// The eager reference: one port per link, built as the old
    /// constructor built them.
    struct Eager {
        cfg: TfcSwitchConfig,
        ports: Vec<TfcPort>,
    }

    fn eager_port(rate: Bandwidth, cfg: TfcSwitchConfig) -> TfcPort {
        let engine = TokenEngine::new(rate, &cfg);
        let cap = engine.token_bytes();
        let mut arbiter = DelayArbiter::with_fill_factor(rate, cap, cfg.rho0);
        arbiter.set_gate_all(cfg.arbiter_gates_all);
        TfcPort {
            engine,
            arbiter,
            miss_gen: 0,
            miss_armed_at: Time::ZERO,
            release_armed: false,
        }
    }

    impl Eager {
        fn new(links: &[PortLink], cfg: TfcSwitchConfig) -> Self {
            let ports = links.iter().map(|l| eager_port(l.rate, cfg)).collect();
            Self { cfg, ports }
        }

        fn on_ingress(
            &mut self,
            port: usize,
            pkt: &mut Packet,
            now: Time,
            fx: &mut PolicyFx,
        ) -> IngressVerdict {
            if !self.cfg.delay_arbiter || !pkt.flags.contains(Flags::RMA) {
                return IngressVerdict::Forward;
            }
            self.ports[port].ingress(port, pkt, now, fx)
        }

        fn on_egress(
            &mut self,
            port: usize,
            pkt: &mut Packet,
            now: Time,
            fx: &mut PolicyFx,
        ) -> EgressVerdict {
            self.ports[port].egress(&self.cfg, NodeId(9), port, pkt, now, fx);
            EgressVerdict::Enqueue
        }

        fn on_timer(&mut self, token: u64, now: Time, fx: &mut PolicyFx) {
            let (kind, port, gen) = decode_token(token);
            self.ports[port].timer(&self.cfg, kind, port, gen, now, fx);
        }

        fn reset_port(&mut self, port: usize, rate: Bandwidth, now: Time, fx: &mut PolicyFx) {
            let fresh = eager_port(rate, self.cfg);
            self.ports[port].reset(fresh, port, now, fx);
        }
    }

    fn link(rate_mbps: u64) -> PortLink {
        PortLink {
            rate: Bandwidth::mbps(rate_mbps),
            delay: Dur::micros(1),
            peer: NodeId(0),
            peer_port: 0,
        }
    }

    fn data(rng: &mut StdRng) -> Packet {
        let flow = FlowId(rng.gen_range(1..6u64));
        let payload = if rng.gen_bool(0.8) { MSS } else { 64 };
        let mut p = Packet::data(flow, NodeId(0), NodeId(1), 0, payload);
        if rng.gen_bool(0.5) {
            p.flags.set(Flags::RM);
        }
        if rng.gen_bool(0.05) {
            p.flags.set(Flags::FIN);
        }
        p.weight = rng.gen_range(1..4u8);
        p.window = if rng.gen_bool(0.3) {
            WINDOW_INIT
        } else {
            rng.gen_range(64..50_000)
        };
        p
    }

    fn ack(rng: &mut StdRng) -> Packet {
        let flow = FlowId(rng.gen_range(1..6u64));
        let mut p = Packet::ack(flow, NodeId(1), NodeId(0), 0);
        if rng.gen_bool(0.8) {
            p.flags.set(Flags::RMA);
        }
        p.window = if rng.gen_bool(0.1) {
            WINDOW_INIT
        } else {
            rng.gen_range(64..20_000)
        };
        p
    }

    fn is_live(p: &TfcSwitchPolicy, port: usize) -> bool {
        p.index[port] as usize >= p.shared.protos.len()
    }

    /// Every port's full state, prototype or live, matches the reference.
    fn assert_same_ports(lazy: &TfcSwitchPolicy, eager: &Eager) {
        for (p, port) in eager.ports.iter().enumerate() {
            assert_eq!(
                format!("{:?}", lazy.port(p)),
                format!("{port:?}"),
                "port {p}"
            );
        }
    }

    /// Resets `port` at `rate` on both sides and compares the effects.
    fn reset_both(
        lazy: &mut TfcSwitchPolicy,
        eager: &mut Eager,
        port: usize,
        rate: Bandwidth,
        now: Time,
    ) {
        let (mut fl, mut fe) = (PolicyFx::new(), PolicyFx::new());
        lazy.reset_port(port, rate, now, &mut fl);
        eager.reset_port(port, rate, now, &mut fe);
        assert_eq!(format!("{fl:?}"), format!("{fe:?}"));
    }

    #[test]
    fn first_touch_matches_eager_ports() {
        cases(32, |_case, rng| {
            let cfg = TfcSwitchConfig {
                delay_arbiter: rng.gen_bool(0.8),
                arbiter_gates_all: rng.gen_bool(0.5),
                ..TfcSwitchConfig::default()
            };
            let links: Vec<PortLink> = (0..PORTS)
                .map(|_| link(RATES_MBPS[rng.gen_range(0..RATES_MBPS.len())]))
                .collect();
            // As under `factory`: another switch, built first on the
            // same shared state, has already added prototypes, so their
            // order is not this switch's link order and some rates may
            // be on no port here.
            let mut shared = Shared::new(cfg);
            let other: Vec<PortLink> = (0..rng.gen_range(0..4usize))
                .map(|_| link(RATES_MBPS[rng.gen_range(0..RATES_MBPS.len())]))
                .collect();
            let before = TfcSwitchPolicy::with_shared(NodeId(8), &other, &mut shared);
            let mut lazy = TfcSwitchPolicy::with_shared(NodeId(9), &links, &mut shared);
            assert!(Arc::ptr_eq(&lazy.shared, &shared));
            assert!(before.shared.protos.len() <= lazy.shared.protos.len());
            for (l, p) in other.iter().enumerate() {
                assert_eq!(
                    before.engine(l).rate(),
                    p.rate,
                    "earlier switch keeps its prototypes"
                );
            }
            let mut eager = Eager::new(&links, cfg);
            let mut touched = [false; PORTS];
            let mut pending: Vec<u64> = Vec::new();
            let mut now = Time(0);
            for _ in 0..300 {
                now = Time(now.nanos() + rng.gen_range(0..40_000u64));
                let port = rng.gen_range(0..ACTIVE);
                let (mut fl, mut fe) = (PolicyFx::new(), PolicyFx::new());
                match rng.gen_range(0..20u32) {
                    0..=8 => {
                        let mut a = data(rng);
                        let mut b = a.clone();
                        assert_eq!(
                            lazy.on_egress(port, &mut a, 0, now, &mut fl),
                            eager.on_egress(port, &mut b, now, &mut fe)
                        );
                        assert_eq!(a, b, "stamped window");
                        touched[port] = true;
                    }
                    9..=14 => {
                        let mut a = ack(rng);
                        let mut b = a.clone();
                        assert_eq!(
                            lazy.on_ingress(port, &mut a, now, &mut fl),
                            eager.on_ingress(port, &mut b, now, &mut fe)
                        );
                        assert_eq!(a, b, "arbitrated window");
                        touched[port] |= cfg.delay_arbiter && a.flags.contains(Flags::RMA);
                    }
                    15..=18 if !pending.is_empty() => {
                        let token = pending.swap_remove(rng.gen_range(0..pending.len()));
                        lazy.on_timer(token, now, &mut fl);
                        eager.on_timer(token, now, &mut fe);
                    }
                    _ => {
                        let rate = match rng.gen_range(0..4usize) {
                            3 => Bandwidth::mbps(NEW_RATE_MBPS),
                            r => Bandwidth::mbps(RATES_MBPS[r]),
                        };
                        reset_both(&mut lazy, &mut eager, port, rate, now);
                        touched[port] = true;
                    }
                }
                assert_eq!(format!("{fl:?}"), format!("{fe:?}"), "policy effects");
                pending.retain(|t| !fl.cancels.contains(t));
                pending.extend(fl.timers.iter().map(|&(_, t)| t));
                for (p, &t) in touched.iter().enumerate() {
                    assert_eq!(
                        is_live(&lazy, p),
                        t,
                        "port {p} is live iff a hook changed it"
                    );
                }
                assert_same_ports(&lazy, &eager);
            }
            // Prototypes stay in Init however much traffic the switch
            // carried (perfbench sums `arbiter(p).delayed_total()` over
            // untouched ports too).
            for proto in &lazy.shared.protos {
                let init = eager_port(proto.engine.rate(), cfg);
                assert_eq!(format!("{proto:?}"), format!("{init:?}"));
            }
            // A port's first touch may be a reset after its link rate
            // changed: to a rate with no prototype, or to another
            // link's rate.
            for (port, rate) in [
                (PORTS - 2, Bandwidth::mbps(NEW_RATE_MBPS)),
                (PORTS - 1, links[0].rate),
            ] {
                assert!(!is_live(&lazy, port));
                reset_both(&mut lazy, &mut eager, port, rate, now);
                assert!(is_live(&lazy, port));
                let mut a = data(rng);
                a.flags.set(Flags::RM);
                let mut b = a.clone();
                let (mut fl, mut fe) = (PolicyFx::new(), PolicyFx::new());
                lazy.on_egress(port, &mut a, 0, now, &mut fl);
                eager.on_egress(port, &mut b, now, &mut fe);
                assert_eq!(a, b);
                assert_eq!(format!("{fl:?}"), format!("{fe:?}"));
            }
            assert_same_ports(&lazy, &eager);
        });
    }
}

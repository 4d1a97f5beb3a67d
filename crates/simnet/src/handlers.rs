//! Per-event-kind handlers of the simulation loop.
//!
//! [`crate::sim`] owns the state and the public API; this module is the
//! dispatch side: one named handler per [`Event`] kind, entered through
//! [`SimCore::handle_event`], which is also where the
//! `telemetry::LoopStats` per-kind counters (and optional wall-clock
//! profiling) hook in. Keeping the handlers out of `sim.rs` keeps the
//! monolithic dispatch loop from re-growing and gives each event kind a
//! profiling boundary that matches a single function.
//!
//! Packets live in the [`crate::arena::PacketArena`]; events carry ids.
//! Handlers borrow the slot (disjoint field borrows against the node
//! table) and free it on every terminal path: delivery to an endpoint,
//! tail drop, fault loss, or policy consumption. The hot path performs
//! zero packet clones.
//!
//! Without retirement every free but a policy's consumption also counts
//! the packet out of its flow's packets in flight: a consumed packet is
//! handed to the policy, which re-injects it (uncounted) or, after a
//! `reset_port`, hands it back to be lost as a policy drop. Once the
//! count, the flow's timers and both of its endpoints are done, the
//! endpoints are freed (`SimCore::free_if_unreachable`).

use rng::rngs::StdRng;
use rng::Rng;
use telemetry::{Queue, Telemetry};

use crate::arena::{PacketArena, PacketId};
use crate::event::{Event, EventQueue};
use crate::fault::FaultAction;
use crate::node::{ecmp_select, port_in_mut, NextHops, Node, Port, PortParams, Wire};
use crate::packet::{Flags, FlowId, NodeId};
use crate::policy::{EgressVerdict, IngressVerdict, PolicyFx};
use crate::sim::{AppCall, SimCore, FREED};
use crate::units::Time;

/// Why [`SimCore::lose`] loses a packet; each cause has its counter.
#[derive(Debug, Clone, Copy)]
enum DropCause {
    /// Dead link, loss window or stalled host: the port's fault drops
    /// in `SimCore::rare_drops`.
    Fault,
    /// No route toward the destination: the ingress port's no-route
    /// drops in `SimCore::rare_drops`.
    NoRoute,
    /// The switch policy's egress hook discarded it (a test utility),
    /// or a policy reset wiped it from the policy's hold: the
    /// fabric-wide `policy_drops`.
    Policy,
}

impl SimCore {
    /// Counts, optionally profiles, and dispatches one event.
    pub(crate) fn handle_event(&mut self, ev: Event) {
        let kind = ev.kind_index();
        self.telemetry.loop_stats.count(kind);
        if self.telemetry.loop_stats.profiled() {
            let t0 = std::time::Instant::now();
            self.dispatch_event(ev);
            self.telemetry
                .loop_stats
                .add_nanos(kind, t0.elapsed().as_nanos() as u64);
        } else {
            self.dispatch_event(ev);
        }
    }

    fn dispatch_event(&mut self, ev: Event) {
        match ev {
            Event::NicEnqueue { node, pkt } => self.on_nic_enqueue(node, pkt),
            Event::Arrival { node, port, pkt } => self.on_arrival(node, usize::from(port), pkt),
            Event::TxDone { node, port } => self.tx_done(node, usize::from(port)),
            Event::HostTimer { node, flow, token } => {
                self.on_host_timer(node, FlowId(u64::from(flow)), u64::from(token))
            }
            Event::PolicyTimer { node, token } => self.on_policy_timer(node, token),
            Event::AppTimer { token } => {
                self.pending_app.push_back(AppCall::Timer(token));
            }
            Event::Sample { sampler } => self.on_sample(sampler),
            Event::Fault { fault } => self.apply_fault(self.faults[fault as usize]),
        }
        self.events_processed += 1;
    }

    /// A packet emitted by an endpoint reaches its host's NIC queue.
    fn on_nic_enqueue(&mut self, node: NodeId, pkt: PacketId) {
        let Node::Host(h) = &mut self.nodes[node.0 as usize] else {
            unreachable!("NIC enqueue at switch {node:?}");
        };
        if h.stalled {
            // A stalled host emits nothing.
            self.lose(node, 0, pkt, DropCause::Fault);
            return;
        }
        let params = &self.params[usize::from(h.nic.link.params)];
        if Self::faulted(params, &mut self.fault_rng) {
            self.lose(node, 0, pkt, DropCause::Fault);
            return;
        }
        let dropped = Self::enqueue_and_kick(
            &mut h.nic,
            params,
            node,
            0,
            Queue::Nic,
            pkt,
            &mut self.packets,
            self.now,
            &mut self.events,
            &mut self.telemetry,
        );
        if let Some(flow) = dropped {
            self.tail_dropped(node, 0, flow);
        }
    }

    /// A packet finishes propagating into `node` on `port`.
    fn on_arrival(&mut self, node: NodeId, port: usize, pkt: PacketId) {
        if !self.port_params(node, port).up {
            // The packet propagated into a link that died under it:
            // lost at the receiving end.
            self.lose(node, port, pkt, DropCause::Fault);
            return;
        }
        match &self.nodes[node.0 as usize] {
            Node::Switch(_) => self.switch_ingress(node, port, pkt),
            Node::Host(_) => self.host_receive(node, pkt),
        }
    }

    /// A transport-endpoint timer fires at a host.
    fn on_host_timer(&mut self, node: NodeId, flow: FlowId, token: u64) {
        let now = self.now;
        let mut fx = self.take_fx();
        let ep = self.endpoints_of(flow);
        let Some(e) = self.endpoints.get_mut(ep) else {
            self.fx_pool.push(fx);
            return;
        };
        // The timer's cancellation handle is spent the moment it fires.
        e.timers.fired(token);
        if e.src == node {
            e.sender.on_timer(token, now, &mut fx);
        }
        // Applied even when empty: the spent timer may have been the
        // last thing that could reach the flow.
        self.apply_host_fx(node, flow, ep, fx);
    }

    /// A switch-policy timer fires.
    fn on_policy_timer(&mut self, node: NodeId, token: u64) {
        if let Some(sw) = self.switch_index(node) {
            self.policy_timers[sw].fired(token);
        }
        let now = self.now;
        let mut fx = self.take_policy_fx();
        if let Node::Switch(sw) = &mut self.nodes[node.0 as usize] {
            sw.policy.on_timer(token, now, &mut fx);
        }
        self.apply_policy_fx(node, fx);
    }

    /// A periodic queue sampler ticks. Reads the sampler in place
    /// (disjoint field borrows) instead of cloning it every firing.
    fn on_sample(&mut self, sampler: u32) {
        let s = &self.samplers[sampler as usize];
        let bytes = self.port(s.node, s.port).queue.bytes();
        self.queue_series[sampler as usize].push(self.now.nanos(), bytes as f64);
        let next = self.now + s.every;
        let past_until = s.until.is_some_and(|u| next > u);
        let past_end = self.cfg.end.is_some_and(|e| next > e);
        if !past_until && !past_end {
            self.events.schedule(next, Event::Sample { sampler });
        }
    }

    /// Loses `pkt` at `node`'s `port` for `cause`: counts it, reports it
    /// to telemetry and frees its slot. (A tail drop is reported and
    /// freed in `enqueue_and_kick` and counted in `tail_dropped`.)
    fn lose(&mut self, node: NodeId, port: usize, pkt: PacketId, cause: DropCause) {
        // Port indices are below `MAX_PORTS` (2^15).
        let at = (node, port as u16);
        match cause {
            DropCause::Fault => self.rare_drops.entry(at).or_default().fault += 1,
            DropCause::NoRoute => self.rare_drops.entry(at).or_default().no_route += 1,
            DropCause::Policy => self.policy_drops += 1,
        }
        let p = self.packets.get(pkt);
        self.telemetry
            .pkt_drop(self.now.nanos(), node.0, port as u16, pkt.key(), p);
        let flow = p.flow;
        self.packets.free(pkt);
        self.packet_gone(flow);
    }

    /// Counts a tail drop of a packet of `flow` at `node`'s `port`
    /// (already reported and freed by `enqueue_and_kick`), and counts
    /// the packet out of its flow.
    fn tail_dropped(&mut self, node: NodeId, port: usize, flow: FlowId) {
        // Port indices are below `MAX_PORTS` (2^15).
        self.rare_drops.entry((node, port as u16)).or_default().tail += 1;
        self.packet_gone(flow);
    }

    /// Whether a packet entering a port with `params` is lost to a
    /// fault: the link is down, or an active loss window draws it. The
    /// fault RNG is only drawn inside an active loss window, so
    /// fault-free runs are byte-identical to pre-fault-layer ones.
    fn faulted(params: &PortParams, fault_rng: &mut StdRng) -> bool {
        !params.up
            || (params.loss_permille > 0
                && fault_rng.gen_range(0..1000u64) < params.loss_permille as u64)
    }

    /// Enqueues `pkt` on `port` (with `params`), port `port_idx` of
    /// node `id` (the kind of `queue`), starting the transmitter if it
    /// is idle, i.e. if the FIFO was empty. On overflow it reports the
    /// drop, frees the packet's arena slot and returns the packet's
    /// flow, for the caller to count the drop
    /// ([`tail_dropped`](Self::tail_dropped)). The caller has already
    /// checked the port for faults ([`faulted`](Self::faulted)).
    #[allow(clippy::too_many_arguments)]
    fn enqueue_and_kick(
        port: &mut Port,
        params: &PortParams,
        id: NodeId,
        port_idx: usize,
        queue: Queue,
        pkt: PacketId,
        arena: &mut PacketArena,
        now: Time,
        events: &mut EventQueue,
        tel: &mut Telemetry,
    ) -> Option<FlowId> {
        let (at, node, port_no, key) = (now.nanos(), id.0, port_idx as u16, pkt.key());
        let idle = port.queue.is_empty();
        if !port.queue.enqueue(pkt, arena, params.capacity) {
            tel.pkt_drop(at, node, port_no, key, arena.get(pkt));
            return Some(arena.free(pkt).flow);
        }
        let p = arena.get(pkt);
        tel.pkt_enqueue(at, node, port_no, key, p, port.queue.bytes(), queue);
        if idle {
            let ser = params.rate.serialize(p.wire_bytes());
            events.schedule(
                now + ser,
                Event::TxDone {
                    node: id,
                    port: Event::port(port_idx),
                },
            );
        }
        None
    }

    fn tx_done(&mut self, node: NodeId, port_idx: usize) {
        let now = self.now;
        // A downed link keeps draining its FIFO at line rate, but every
        // serialised packet falls into the void; the transmitter never
        // stops, so no re-kick is needed when the link comes back.
        let port = port_in_mut(&mut self.nodes, &mut self.ports, node, port_idx);
        let (pkt, wire) = port
            .queue
            .dequeue(&self.packets)
            .expect("TxDone with empty queue: transmitter state corrupt");
        let (link, params) = (port.link, self.params[usize::from(port.link.params)]);
        let up = params.up;
        if up {
            port.tx_bytes += wire;
        }
        // The head packet determines the next serialisation time; an
        // empty FIFO leaves the transmitter idle.
        if let Some(head_wire) = port.queue.peek_wire_bytes(&self.packets) {
            self.events.schedule(
                now + params.rate.serialize(head_wire),
                Event::TxDone {
                    node,
                    port: Event::port(port_idx),
                },
            );
        }
        if up {
            // Closes the queue-wait segment at this hop; wire time runs
            // from here to the next enqueue or delivery.
            let p = self.packets.get(pkt);
            self.telemetry
                .pkt_dequeue(now.nanos(), node.0, port_idx as u16, pkt.key(), p);
            self.events.schedule(
                now + params.delay,
                Event::Arrival {
                    node: link.peer,
                    port: link.peer_port,
                    pkt,
                },
            );
        } else {
            self.lose(node, port_idx, pkt, DropCause::Fault);
        }
    }

    fn switch_ingress(&mut self, node: NodeId, in_port: usize, pkt: PacketId) {
        let now = self.now;
        let mut fx = self.take_policy_fx();
        let forward = {
            let Node::Switch(sw) = &mut self.nodes[node.0 as usize] else {
                unreachable!()
            };
            match sw
                .policy
                .on_ingress(in_port, self.packets.get_mut(pkt), now, &mut fx)
            {
                IngressVerdict::Forward => true,
                IngressVerdict::Consume => false,
            }
        };
        if forward {
            self.switch_egress(node, in_port, pkt, true);
        } else {
            // Consumed (e.g. the TFC delay arbiter holds its own copy);
            // the in-fabric slot is done. Not a loss: the span is
            // forgotten without a drop count, and the packet stays
            // counted in flight until the policy's copy re-enters.
            let p = self.packets.get(pkt);
            self.telemetry.pkt_consumed(pkt.key(), p);
            self.packets.free(pkt);
        }
        self.apply_policy_fx(node, fx);
    }

    /// Routes and enqueues a packet at a switch, optionally running the
    /// egress policy hook (skipped for policy-injected packets).
    ///
    /// The egress port is the deterministic `(flow, hop)` ECMP choice
    /// among the equal-cost set, filtered to live ports (route repair:
    /// surviving members absorb flows whose hashed member died). A
    /// missing route is a counted drop attributed to `in_port`, not a
    /// panic — reachable via route surgery or sparse dynamic topologies.
    fn switch_egress(&mut self, node: NodeId, in_port: usize, pkt: PacketId, run_hook: bool) {
        let now = self.now;
        let (ce_before, dst, flow, hop) = {
            let p = self.packets.get(pkt);
            (p.flags.contains(Flags::CE), p.dst, p.flow.0, p.hop)
        };
        let out = {
            let Node::Switch(sw) = &self.nodes[node.0 as usize] else {
                unreachable!()
            };
            match sw.routes.next_hops(dst) {
                NextHops::None => None,
                NextHops::Single(p) => Some(p as usize),
                NextHops::Ecmp(set) => {
                    let (ports, params) = (sw.ports_in(&self.ports), &self.params);
                    let up = |p: u16| params[usize::from(ports[p as usize].link.params)].up;
                    Some(ecmp_select(set, flow, hop, up) as usize)
                }
            }
        };
        let Some(out) = out else {
            self.lose(node, in_port, pkt, DropCause::NoRoute);
            return;
        };
        // One more switch hop behind it: the next tier hashes with the
        // advanced index, so a flow's member choice re-randomises per
        // tier instead of following one diagonal through the fabric.
        self.packets.get_mut(pkt).hop = hop.wrapping_add(1);
        let mut fx = self.take_policy_fx();
        let (slot, verdict) = {
            let Node::Switch(sw) = &mut self.nodes[node.0 as usize] else {
                unreachable!()
            };
            let slot = sw.port_slot(out);
            let verdict = if run_hook {
                let qbytes = self.ports[slot].queue.bytes();
                sw.policy
                    .on_egress(out, self.packets.get_mut(pkt), qbytes, now, &mut fx)
            } else {
                EgressVerdict::Enqueue
            };
            (slot, verdict)
        };
        let params = &self.params[usize::from(self.ports[slot].link.params)];
        if verdict != EgressVerdict::Enqueue {
            self.lose(node, out, pkt, DropCause::Policy);
        } else if Self::faulted(params, &mut self.fault_rng) {
            self.lose(node, out, pkt, DropCause::Fault);
        } else if let Some(flow) = Self::enqueue_and_kick(
            &mut self.ports[slot],
            params,
            node,
            out,
            Queue::Switch { ce_before },
            pkt,
            &mut self.packets,
            now,
            &mut self.events,
            &mut self.telemetry,
        ) {
            self.tail_dropped(node, out, flow);
        }
        self.apply_policy_fx(node, fx);
    }

    /// Applies the effects of switch `node`'s policy, then returns the
    /// drained sink to the pool.
    pub(crate) fn apply_policy_fx(&mut self, node: NodeId, mut fx: PolicyFx) {
        if !fx.cancels.is_empty() || !fx.timers.is_empty() {
            let sw = self.switch_index(node).expect("only switches run policies");
            // Cancels first, so a policy that re-arms in the same
            // callback cancels the stale generation before scheduling
            // the new one.
            let pending = &mut self.policy_timers[sw];
            for token in fx.cancels.drain(..) {
                pending.cancel(&mut self.events, token);
            }
            for (after, token) in fx.timers.drain(..) {
                let at = self.now + after;
                pending.arm(
                    &mut self.events,
                    at,
                    Event::PolicyTimer { node, token },
                    token,
                );
            }
        }
        for (port, pkt) in fx.discards.drain(..) {
            // A packet the policy held since consuming it, still
            // counted in flight: lost at the port that held it.
            let pkt = self.packets.alloc(pkt);
            self.lose(node, port, pkt, DropCause::Policy);
        }
        for pkt in fx.inject.drain(..) {
            // Policy-owned packets (re)enter the fabric here, still
            // counted in flight from their consumption; a no-route drop
            // of one is attributed to port 0 (they have no real ingress
            // port).
            let pkt = self.packets.alloc(pkt);
            self.switch_egress(node, 0, pkt, false);
        }
        for mut sample in fx.slot_samples.drain(..) {
            sample.at_ns = self.now.nanos();
            self.telemetry.push_slot_sample(sample);
        }
        for (flow, waited_ns) in fx.token_waits.drain(..) {
            self.telemetry.token_wait(flow, waited_ns);
        }
        self.policy_fx_pool.push(fx);
    }

    /// Applies one fault action at the current time (the `Event::Fault`
    /// handler). Link-level faults hit both ends of the full-duplex
    /// link; every application is recorded as a `FaultInjected` or
    /// `FaultCleared` telemetry event.
    fn apply_fault(&mut self, action: FaultAction) {
        let now = self.now;
        match action {
            FaultAction::LinkDown { node, port } => {
                self.change_link_params(node, port, |p| p.up = false)
            }
            FaultAction::LinkUp { node, port } => {
                self.change_link_params(node, port, |p| p.up = true)
            }
            FaultAction::LinkRate { node, port, rate } => {
                // A packet mid-serialisation completes on its old
                // schedule; the new rate applies from the next one.
                self.change_link_params(node, port, |p| p.rate = rate)
            }
            FaultAction::LossWindow {
                node,
                port,
                permille,
            } => {
                let permille = permille.min(1000);
                self.change_port_params(node, port, |p| p.loss_permille = permille);
            }
            FaultAction::LossWindowEnd { node, port } => {
                self.change_port_params(node, port, |p| p.loss_permille = 0);
            }
            FaultAction::PolicyReset { node, port } => {
                let mut fx = self.take_policy_fx();
                {
                    let Node::Switch(sw) = &mut self.nodes[node.0 as usize] else {
                        panic!("PolicyReset target {node:?} is not a switch");
                    };
                    let params = self.ports[sw.port_slot(port)].link.params;
                    let rate = self.params[usize::from(params)].rate;
                    sw.policy.reset_port(port, rate, now, &mut fx);
                }
                self.apply_policy_fx(node, fx);
            }
            FaultAction::HostStall { node } => self.set_host_stalled(node, true),
            FaultAction::HostResume { node } => self.set_host_stalled(node, false),
        }
        self.telemetry.fault(
            now.nanos(),
            action.kind_label(),
            action.node().0,
            action.port() as u16,
            action.value(),
            action.is_clear(),
        );
        if let FaultAction::LinkDown { node, port } = action {
            self.note_rerouted(node, port);
        }
    }

    /// Reports a reroute to telemetry for each switch end of the
    /// link just downed at `node`/`port`: forwarding filters dead ports
    /// out of every equal-cost set at selection time, so the surviving
    /// members absorb the affected flows from this instant. `dests`
    /// counts the destinations the switch can still reach over siblings
    /// of the dead port (0 on unique-path topologies, where the repair
    /// has nothing to absorb and packets die at the port instead).
    fn note_rerouted(&mut self, node: NodeId, port: usize) {
        let now = self.now;
        let (peer, peer_port) = {
            let p = self.port(node, port);
            (p.link.peer, p.link.peer_port as usize)
        };
        for (sw_id, sw_port) in [(node, port), (peer, peer_port)] {
            let Node::Switch(sw) = &self.nodes[sw_id.0 as usize] else {
                continue;
            };
            let (ports, params, port) = (sw.ports_in(&self.ports), &self.params, sw_port as u16);
            let up = |p: u16| params[usize::from(ports[p as usize].link.params)].up;
            let dests = || sw.routes.reroutable_dests(port, up);
            self.telemetry.rerouted(now.nanos(), sw_id.0, port, dests);
        }
    }

    /// Applies `change` to the parameters of both ends of the link at
    /// `node`/`port`.
    fn change_link_params(&mut self, node: NodeId, port: usize, change: impl Fn(&mut PortParams)) {
        let Wire {
            peer, peer_port, ..
        } = self.port(node, port).link;
        self.change_port_params(node, port, &change);
        self.change_port_params(peer, usize::from(peer_port), change);
    }

    fn set_host_stalled(&mut self, node: NodeId, stalled: bool) {
        let Node::Host(h) = &mut self.nodes[node.0 as usize] else {
            panic!("host-stall target {node:?} is not a host");
        };
        h.stalled = stalled;
    }

    fn host_receive(&mut self, node: NodeId, pkt: PacketId) {
        let Node::Host(h) = &self.nodes[node.0 as usize] else {
            unreachable!()
        };
        if h.stalled {
            // A stalled host's endpoints see nothing.
            self.lose(node, 0, pkt, DropCause::Fault);
            return;
        }
        let (now, flow) = (self.now, self.packets.get(pkt).flow);
        let ep = self.endpoints_of(flow);
        debug_assert!(
            self.retirer.is_some() || ep != FREED || !self.flows.contains(flow),
            "a packet of {flow:?} reached {node:?} after the flow's endpoints were freed"
        );
        let mut fx = self.take_fx();
        // Ids are recycled under retirement: a record whose hosts are
        // not this one belongs to a different flow that took the id.
        let p = self.packets.get(pkt);
        let known = match self.endpoints.get_mut(ep) {
            Some(e) if e.src == node => {
                e.sender.on_packet(p, now, &mut fx);
                true
            }
            Some(e) if e.dst == node => {
                e.receiver.on_packet(p, now, &mut fx);
                true
            }
            _ => false, // Stale packet of a torn-down flow.
        };
        self.telemetry
            .pkt_arrive(now.nanos(), node.0, pkt.key(), p, known);
        // The endpoint has seen the packet; the slot is recyclable
        // before effects apply (effects never reference the packet).
        self.packets.free(pkt);
        if known {
            // Counted out without the free check: that runs once the
            // effects, which may send a reply, are applied.
            if self.retirer.is_none() {
                self.endpoints[ep].in_flight -= 1;
            }
            self.apply_host_fx(node, flow, ep, fx);
        } else {
            self.stale_arrivals += 1;
            self.fx_pool.push(fx);
            self.packet_gone(flow);
        }
    }
}

#[cfg(test)]
mod tests {
    use rng::props::cases;

    use super::*;
    use crate::app::NullApp;
    use crate::node::PortStats;
    use crate::packet::Packet;
    use crate::sim::tests::BlastStack;
    use crate::sim::{SimConfig, Simulator};
    use crate::topology::star;
    use crate::units::{Bandwidth, Dur};

    /// Random link-rate, link-state and loss-window faults on a star
    /// whose switch ports share one parameter row and whose NICs share
    /// another, with full frames sent into random ports between them,
    /// match a model that keeps each port's parameters and counters on
    /// its own: a fault changes its port (and, for link faults, the
    /// peer end) and no sibling of the row. Loss windows draw the fault
    /// RNG, so frames are sent only into ports with no window or a
    /// certain one.
    #[test]
    fn port_faults_change_only_their_ports() {
        const HOSTS: usize = 4;
        const FRAME: u64 = 1_500;
        cases(64, |case, rng| {
            let (mut t, hosts, sw) = star(HOSTS, Bandwidth::gbps(10), Dur::micros(1));
            t.switch_buffer(4_500).host_buffer(3_000);
            let cfg = SimConfig::default();
            let mut sim = Simulator::new(t.build_drop_tail(), Box::new(BlastStack), NullApp, cfg);
            let core = sim.core_mut();
            // The switch's ports, then the NICs: port `i` of the switch
            // and host `i`'s NIC are the two ends of one link.
            let ports: Vec<(NodeId, usize)> = (0..HOSTS)
                .map(|p| (sw, p))
                .chain(hosts.iter().map(|&h| (h, 0)))
                .collect();
            let peer = |i: usize| (i + HOSTS) % (2 * HOSTS);
            assert_eq!(core.params.len(), 2, "one row for each kind of port");
            let mut model: Vec<(PortParams, PortStats)> = (0..2 * HOSTS)
                .map(|i| {
                    let params = PortParams {
                        rate: Bandwidth::gbps(10),
                        delay: Dur::micros(1),
                        capacity: if i < HOSTS { 4_500 } else { 3_000 },
                        loss_permille: 0,
                        up: true,
                    };
                    (params, PortStats::default())
                })
                .collect();
            for step in 0..rng.gen_range(1..80usize) {
                let i = rng.gen_range(0..ports.len());
                let (node, port) = ports[i];
                match rng.gen_range(0..6u32) {
                    0 => {
                        let rate = Bandwidth::gbps([1, 10, 40][rng.gen_range(0..3usize)]);
                        core.apply_fault(FaultAction::LinkRate { node, port, rate });
                        for j in [i, peer(i)] {
                            model[j].0.rate = rate;
                        }
                    }
                    1 => {
                        core.apply_fault(FaultAction::LinkDown { node, port });
                        for j in [i, peer(i)] {
                            model[j].0.up = false;
                        }
                    }
                    2 => {
                        core.apply_fault(FaultAction::LinkUp { node, port });
                        for j in [i, peer(i)] {
                            model[j].0.up = true;
                        }
                    }
                    3 => {
                        let permille = [250, 1000, 1500][rng.gen_range(0..3usize)];
                        let action = FaultAction::LossWindow {
                            node,
                            port,
                            permille,
                        };
                        core.apply_fault(action);
                        model[i].0.loss_permille = permille.min(1000);
                    }
                    4 => {
                        core.apply_fault(FaultAction::LossWindowEnd { node, port });
                        model[i].0.loss_permille = 0;
                    }
                    _ => {
                        let (params, stats) = &mut model[i];
                        if params.loss_permille % 1000 != 0 {
                            continue;
                        }
                        // A frame toward the far end of port `i`'s link.
                        let (src, dst) = if i < HOSTS {
                            (hosts[(i + 1) % HOSTS], hosts[i])
                        } else {
                            (node, hosts[(i + 1) % HOSTS])
                        };
                        let pkt = Packet::data(FlowId(0), src, dst, 0, FRAME - 40);
                        let pkt = core.packets.alloc(pkt);
                        if i < HOSTS {
                            core.switch_egress(sw, (i + 1) % HOSTS, pkt, false);
                        } else {
                            core.on_nic_enqueue(node, pkt);
                        }
                        if !params.up || params.loss_permille == 1000 {
                            stats.fault_drops += 1;
                        } else if stats.queue_bytes + FRAME > u64::from(params.capacity) {
                            stats.drops += 1;
                        } else {
                            stats.queue_bytes += FRAME;
                            stats.max_queue_bytes = stats.queue_bytes;
                        }
                    }
                }
                for (&(node, port), (params, stats)) in ports.iter().zip(&model) {
                    let at = format!("case {case} step {step}: {node:?} port {port}");
                    assert_eq!(core.port_params(node, port), *params, "{at}");
                    assert_eq!(core.port_stats(node, port), *stats, "{at}");
                }
            }
        });
    }
}

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
//! Every free but a policy's consumption also counts the packet out of
//! its flow's packets in flight: a consumed packet is handed to the
//! policy, which re-injects it (uncounted) or, after a `reset_port`,
//! hands it back to be lost as a policy drop. Once the count, the
//! flow's timers and both of its endpoints are done, the endpoints are
//! freed and, under retirement, the flow is retired
//! (`SimCore::free_if_unreachable`).

use rng::rngs::StdRng;
use rng::Rng;
use telemetry::Queue;

use crate::arena::PacketId;
use crate::event::Event;
use crate::fault::FaultAction;
use crate::node::{ecmp_select, NextHops, Node, PortParams, Wire};
use crate::packet::{Flags, FlowId, NodeId};
use crate::policy::{EgressVerdict, IngressVerdict, PolicyFx};
use crate::sim::{AppCall, SimCore, FREED};

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
        let slot = self.port_slot(node, 0);
        self.egress(node, 0, slot, Queue::Nic, pkt);
    }

    /// A packet finishes propagating into `node` on `port`.
    fn on_arrival(&mut self, node: NodeId, port: usize, pkt: PacketId) {
        let params = self.port_params(node, port);
        if !params.up || params.stalled {
            // The packet propagated into a link that died under it, or
            // into a stalled host, whose endpoints see nothing: lost at
            // the receiving end.
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
        let now = self.now;
        let mut fx = self.take_policy_fx();
        if let Node::Switch(sw) = &mut self.nodes[node.0 as usize] {
            sw.timers.fired(token);
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
    /// to telemetry and frees its slot. (A tail drop is counted,
    /// reported and freed in [`egress`](Self::egress).)
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

    /// Whether a packet entering a port with `params` is lost to a
    /// fault: the link is down, the NIC's host is stalled, or an active
    /// loss window draws it. The fault RNG is only drawn inside an
    /// active loss window, so fault-free runs are byte-identical to
    /// pre-fault-layer ones.
    fn faulted(params: &PortParams, fault_rng: &mut StdRng) -> bool {
        !params.up
            || params.stalled
            || (params.loss_permille > 0
                && fault_rng.gen_range(0..1000u64) < params.loss_permille as u64)
    }

    /// Sends `pkt` out of port `port` of `node`, port-table row `slot`,
    /// a queue of kind `queue`: the one egress path of host NICs and
    /// switch ports alike. A faulted port ([`faulted`](Self::faulted))
    /// loses the packet, a full FIFO tail-drops it, and otherwise it is
    /// queued, starting the transmitter if it is idle, i.e. if the FIFO
    /// was empty.
    fn egress(&mut self, node: NodeId, port: usize, slot: usize, queue: Queue, pkt: PacketId) {
        let out = &mut self.ports[slot];
        let params = &self.params[usize::from(out.link.params)];
        if Self::faulted(params, &mut self.fault_rng) {
            self.lose(node, port, pkt, DropCause::Fault);
            return;
        }
        // Port indices are below `MAX_PORTS` (2^15).
        let (now, port_no, key) = (self.now, port as u16, pkt.key());
        let idle = out.queue.is_empty();
        if !out.queue.enqueue(pkt, &mut self.packets, params.capacity) {
            let at = now.nanos();
            let p = self.packets.get(pkt);
            self.telemetry.pkt_drop(at, node.0, port_no, key, p);
            let flow = self.packets.free(pkt).flow;
            self.rare_drops.entry((node, port_no)).or_default().tail += 1;
            self.packet_gone(flow);
            return;
        }
        let p = self.packets.get(pkt);
        let bytes = out.queue.bytes();
        self.telemetry
            .pkt_enqueue(now.nanos(), node.0, port_no, key, p, bytes, queue);
        if idle {
            let ser = params.rate.serialize(p.wire_bytes());
            self.events.schedule(
                now + ser,
                Event::TxDone {
                    node,
                    port: Event::port(port),
                },
            );
        }
    }

    fn tx_done(&mut self, node: NodeId, port_idx: usize) {
        let now = self.now;
        // A downed link keeps draining its FIFO at line rate, but every
        // serialised packet falls into the void; the transmitter never
        // stops, so no re-kick is needed when the link comes back.
        let slot = self.port_slot(node, port_idx);
        let port = &mut self.ports[slot];
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
        if verdict == EgressVerdict::Enqueue {
            self.egress(node, out, slot, Queue::Switch { ce_before }, pkt);
        } else {
            self.lose(node, out, pkt, DropCause::Policy);
        }
        self.apply_policy_fx(node, fx);
    }

    /// Applies the effects of switch `node`'s policy, then returns the
    /// drained sink to the pool.
    pub(crate) fn apply_policy_fx(&mut self, node: NodeId, mut fx: PolicyFx) {
        if !fx.cancels.is_empty() || !fx.timers.is_empty() {
            let Node::Switch(sw) = &mut self.nodes[node.0 as usize] else {
                panic!("only switches run policies");
            };
            // Cancels first, so a policy that re-arms in the same
            // callback cancels the stale generation before scheduling
            // the new one.
            let pending = &mut sw.timers;
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
            FaultAction::HostStall { node } | FaultAction::HostResume { node } => {
                assert!(
                    matches!(self.nodes[node.0 as usize], Node::Host(_)),
                    "host-stall target {node:?} is not a host"
                );
                let stalled = matches!(action, FaultAction::HostStall { .. });
                // The NIC's own parameter row: its row-mates keep theirs.
                self.change_port_params(node, 0, |p| p.stalled = stalled);
            }
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

    fn host_receive(&mut self, node: NodeId, pkt: PacketId) {
        let (now, flow) = (self.now, self.packets.get(pkt).flow);
        let ep = self.endpoints_of(flow);
        let mut fx = self.take_fx();
        let p = self.packets.get(pkt);
        debug_assert!(
            ep != FREED || !self.has_flow(flow),
            "a packet of {flow:?} reached {node:?} after the flow's endpoints were freed"
        );
        debug_assert!(
            self.endpoints
                .get(ep)
                .is_none_or(|e| [(e.src, e.dst), (e.dst, e.src)].contains(&(p.src, p.dst))),
            "a packet of {flow:?} from {:?} to {:?} reached another flow's endpoints",
            p.src,
            p.dst
        );
        let known = match self.endpoints.get_mut(ep) {
            Some(e) if e.src == node => {
                e.sender.on_packet(p, now, &mut fx);
                true
            }
            Some(e) if e.dst == node => {
                e.receiver.on_packet(p, now, &mut fx);
                true
            }
            _ => false, // A packet of an id that names no flow.
        };
        self.telemetry
            .pkt_arrive(now.nanos(), node.0, pkt.key(), p, known);
        // The endpoint has seen the packet; the slot is recyclable
        // before effects apply (effects never reference the packet).
        self.packets.free(pkt);
        if known {
            // Counted out without the free check: that runs once the
            // effects, which may send a reply, are applied.
            self.endpoints[ep].in_flight -= 1;
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

    /// Random link-rate, link-state, loss-window and host-stall faults
    /// on a star whose switch ports share one parameter row and whose
    /// NICs share another, with full frames sent into random ports
    /// between them, match a model that keeps each port's parameters
    /// and counters on its own: a fault changes its port (and, for link
    /// faults, the peer end) and no sibling of the row, and a stall
    /// changes only its host's NIC. Loss windows draw the fault RNG, so
    /// frames are sent only into ports with no window or a certain one.
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
                        stalled: false,
                    };
                    (params, PortStats::default())
                })
                .collect();
            for step in 0..rng.gen_range(1..80usize) {
                let i = rng.gen_range(0..ports.len());
                let (node, port) = ports[i];
                match rng.gen_range(0..8u32) {
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
                    kind @ (5 | 6) => {
                        // A stall or resume of one host: its NIC.
                        let nic = HOSTS + i % HOSTS;
                        let (node, stalled) = (ports[nic].0, kind == 5);
                        core.apply_fault(if stalled {
                            FaultAction::HostStall { node }
                        } else {
                            FaultAction::HostResume { node }
                        });
                        model[nic].0.stalled = stalled;
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
                        if !params.up || params.stalled || params.loss_permille == 1000 {
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

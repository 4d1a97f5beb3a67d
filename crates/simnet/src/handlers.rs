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

use rng::rngs::StdRng;
use rng::Rng;
use telemetry::{Telemetry, TraceEvent};

use crate::arena::{PacketArena, PacketId};
use crate::event::{Event, EventQueue};
use crate::fault::FaultAction;
use crate::node::{ecmp_select, port_in_mut, NextHops, Node, Port};
use crate::packet::{Flags, FlowId, NodeId, WINDOW_INIT};
use crate::policy::{EgressVerdict, IngressVerdict, PolicyFx};
use crate::sim::{AppCall, SimCore};
use crate::units::Time;

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
            // A stalled host emits nothing, silently.
            h.nic.fault_drops += 1;
            self.packets.free(pkt);
            return;
        }
        let accepted = Self::enqueue_and_kick(
            &mut h.nic,
            node,
            0,
            true,
            pkt,
            &mut self.packets,
            self.now,
            &mut self.events,
            &mut self.fault_rng,
            &mut self.telemetry,
        );
        if !accepted {
            self.packets.free(pkt);
        }
    }

    /// A packet finishes propagating into `node` on `port`.
    fn on_arrival(&mut self, node: NodeId, port: usize, pkt: PacketId) {
        if !self.port(node, port).up {
            // The packet propagated into a link that died under it:
            // lost without trace at the receiving end.
            self.record_fault_drop(node, port, pkt);
            if self.telemetry.spans.enabled() {
                let flow = self.packets.get(pkt).flow.0;
                self.telemetry.spans.on_drop(pkt.key(), flow);
            }
            self.packets.free(pkt);
            return;
        }
        match &self.nodes[node.0 as usize] {
            Node::Switch(_) => self.switch_ingress(node, port, pkt),
            Node::Host(_) => self.host_receive(node, pkt),
        }
    }

    /// A transport-endpoint timer fires at a host.
    fn on_host_timer(&mut self, node: NodeId, flow: FlowId, token: u64) {
        // The timer's cancellation handle is spent the moment it fires.
        if let Some(pending) = self.host_timers.get_mut(flow.0 as usize) {
            if let Some(i) = pending.iter().position(|&(t, _)| t == token) {
                pending.swap_remove(i);
            }
        }
        let now = self.now;
        let mut fx = self.take_fx();
        match self.senders.get_mut(flow) {
            Some((host, s)) if *host == node => s.on_timer(token, now, &mut fx),
            _ => {
                self.fx_pool.push(fx);
                return;
            }
        }
        self.apply_host_fx(node, flow, fx);
    }

    /// A switch-policy timer fires.
    fn on_policy_timer(&mut self, node: NodeId, token: u64) {
        if let Some(pending) = self.policy_timers.get_mut(node.0 as usize) {
            if let Some(i) = pending.iter().position(|&(t, _)| t == token) {
                pending.swap_remove(i);
            }
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

    /// Counts (and, with telemetry, records) a packet lost to a fault at
    /// `node`'s `port`. The caller frees the arena slot.
    fn record_fault_drop(&mut self, node: NodeId, port: usize, pkt: PacketId) {
        let (wire, flow, seq) = {
            let p = self.packets.get(pkt);
            (p.wire_bytes(), p.flow.0, p.seq)
        };
        self.port_mut(node, port).fault_drops += 1;
        if self.telemetry.log.enabled() {
            self.telemetry.log.record(
                self.now.nanos(),
                TraceEvent::PktDrop {
                    node: node.0,
                    port: port as u16,
                    flow,
                    seq,
                    bytes: wire,
                },
            );
        }
    }

    /// Enqueues `pkt` on `port`, port `port_idx` of node `id` (a host
    /// iff `is_host`), starting the transmitter if it is idle. Drops
    /// (with accounting in the queue) on overflow, and loses the packet
    /// outright on a downed link or an active loss window (fault
    /// accounting). Returns whether the packet was accepted; on
    /// `false`, the caller still owns the arena slot and must free it
    /// (after any logging it wants to do from the borrow).
    #[allow(clippy::too_many_arguments)]
    fn enqueue_and_kick(
        port: &mut Port,
        id: NodeId,
        port_idx: usize,
        is_host: bool,
        pkt: PacketId,
        arena: &mut PacketArena,
        now: Time,
        events: &mut EventQueue,
        fault_rng: &mut StdRng,
        tel: &mut Telemetry,
    ) -> bool {
        let (wire, flow, seq, data) = {
            let p = arena.get(pkt);
            (p.wire_bytes(), p.flow.0, p.seq, p.is_data())
        };
        let meta = tel.log.enabled().then_some((flow, seq));
        // The fault RNG is only drawn inside an active loss window, so
        // fault-free runs are byte-identical to pre-fault-layer ones.
        let lost = !port.up
            || (port.loss_permille > 0
                && fault_rng.gen_range(0..1000u64) < port.loss_permille as u64);
        if lost {
            port.fault_drops += 1;
            if let Some((flow, seq)) = meta {
                tel.log.record(
                    now.nanos(),
                    TraceEvent::PktDrop {
                        node: id.0,
                        port: port_idx as u16,
                        flow,
                        seq,
                        bytes: wire,
                    },
                );
            }
            tel.spans.on_drop(pkt.key(), flow);
            return false;
        }
        let accepted = port.queue.enqueue(pkt, arena);
        if accepted {
            // Starts the span on first sight (sender NIC) or closes the
            // preceding wire segment and advances the hop (switch).
            tel.spans.on_enqueue(pkt.key(), flow, data, is_host, now.nanos());
        } else {
            tel.spans.on_drop(pkt.key(), flow);
        }
        if let Some((flow, seq)) = meta {
            let event = if accepted {
                TraceEvent::PktEnqueue {
                    node: id.0,
                    port: port_idx as u16,
                    flow,
                    seq,
                    bytes: wire,
                    queue_bytes: port.queue.bytes(),
                }
            } else {
                TraceEvent::PktDrop {
                    node: id.0,
                    port: port_idx as u16,
                    flow,
                    seq,
                    bytes: wire,
                }
            };
            tel.log.record(now.nanos(), event);
        }
        if accepted && !port.busy {
            port.busy = true;
            let ser = port.link.rate.serialize(wire);
            events.schedule(
                now + ser,
                Event::TxDone {
                    node: id,
                    port: Event::port(port_idx),
                },
            );
        }
        accepted
    }

    fn tx_done(&mut self, node: NodeId, port_idx: usize) {
        let now = self.now;
        // A downed link keeps draining its FIFO at line rate, but every
        // serialised packet falls into the void; the transmitter never
        // stops, so no re-kick is needed when the link comes back.
        let (pkt, wire, up, link) = {
            let port = port_in_mut(&mut self.nodes, &mut self.ports, node, port_idx);
            let (pkt, wire) = port
                .queue
                .dequeue(&self.packets)
                .expect("TxDone with empty queue: transmitter state corrupt");
            let up = port.up;
            if up {
                port.tx_bytes += wire;
            } else {
                port.fault_drops += 1;
            }
            (pkt, wire, up, port.link)
        };
        if self.telemetry.log.enabled() {
            let (flow, seq) = {
                let p = self.packets.get(pkt);
                (p.flow.0, p.seq)
            };
            let ev = if up {
                TraceEvent::PktDequeue {
                    node: node.0,
                    port: port_idx as u16,
                    flow,
                    seq,
                    bytes: wire,
                }
            } else {
                TraceEvent::PktDrop {
                    node: node.0,
                    port: port_idx as u16,
                    flow,
                    seq,
                    bytes: wire,
                }
            };
            self.telemetry.log.record(now.nanos(), ev);
        }
        if self.telemetry.spans.enabled() {
            let flow = self.packets.get(pkt).flow.0;
            if up {
                // Closes the queue-wait segment at this hop; wire time
                // runs from here to the next enqueue or delivery.
                self.telemetry.spans.on_dequeue(pkt.key(), flow, now.nanos());
            } else {
                self.telemetry.spans.on_drop(pkt.key(), flow);
            }
        }
        let next_ser = {
            let port = port_in_mut(&mut self.nodes, &mut self.ports, node, port_idx);
            if port.queue.is_empty() {
                port.busy = false;
                None
            } else {
                // The head packet determines the next serialisation time.
                let head_wire = port
                    .queue
                    .peek_wire_bytes(&self.packets)
                    .expect("non-empty queue has a head");
                Some(port.link.rate.serialize(head_wire))
            }
        };
        if let Some(ser) = next_ser {
            self.events.schedule(
                now + ser,
                Event::TxDone {
                    node,
                    port: Event::port(port_idx),
                },
            );
        }
        if up {
            self.events.schedule(
                now + link.delay,
                Event::Arrival {
                    node: link.peer,
                    port: link.peer_port,
                    pkt,
                },
            );
        } else {
            self.packets.free(pkt);
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
            // forgotten without a drop count.
            if self.telemetry.spans.enabled() {
                let flow = self.packets.get(pkt).flow.0;
                self.telemetry.spans.on_consumed(pkt.key(), flow);
            }
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
                    let ports = sw.ports_in(&self.ports);
                    Some(ecmp_select(set, flow, hop, |p| ports[p as usize].up) as usize)
                }
            }
        };
        let Some(out) = out else {
            let (wire, seq) = {
                let p = self.packets.get(pkt);
                (p.wire_bytes(), p.seq)
            };
            self.port_mut(node, in_port).no_route_drops += 1;
            if self.telemetry.log.enabled() {
                self.telemetry.log.record(
                    now.nanos(),
                    TraceEvent::PktDrop {
                        node: node.0,
                        port: in_port as u16,
                        flow,
                        seq,
                        bytes: wire,
                    },
                );
            }
            if self.telemetry.spans.enabled() {
                self.telemetry.spans.on_drop(pkt.key(), flow);
            }
            self.packets.free(pkt);
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
            // The egress hook may have marked the packet; capture what
            // the telemetry events need from a borrow of the arena slot.
            let marks = self.telemetry.log.enabled().then(|| {
                let p = self.packets.get(pkt);
                (
                    p.flow.0,
                    p.seq,
                    !ce_before && p.flags.contains(Flags::CE),
                    p.flags.contains(Flags::RM),
                    // An unstamped window exports as the event field's
                    // all-ones `u64`, independent of the packet field's
                    // width.
                    if p.window == WINDOW_INIT {
                        u64::MAX
                    } else {
                        u64::from(p.window)
                    },
                )
            });
            let accepted = Self::enqueue_and_kick(
                &mut self.ports[slot],
                node,
                out,
                false,
                pkt,
                &mut self.packets,
                now,
                &mut self.events,
                &mut self.fault_rng,
                &mut self.telemetry,
            );
            if accepted && self.telemetry.spans.enabled() {
                let p = self.packets.get(pkt);
                if !ce_before && p.flags.contains(Flags::CE) {
                    self.telemetry.spans.on_ecn(pkt.key(), p.flow.0);
                }
            }
            if accepted {
                if let Some((flow, seq, ecn_marked, round_marked, window)) = marks {
                    if ecn_marked {
                        self.telemetry.log.record(
                            now.nanos(),
                            TraceEvent::PktEcnMark {
                                node: node.0,
                                port: out as u16,
                                flow,
                                seq,
                            },
                        );
                    }
                    if round_marked {
                        self.telemetry.log.record(
                            now.nanos(),
                            TraceEvent::PktRoundMark {
                                node: node.0,
                                port: out as u16,
                                flow,
                                seq,
                                window,
                            },
                        );
                    }
                }
            } else {
                // Rejected at the FIFO (overflow or fault loss).
                self.packets.free(pkt);
            }
        } else {
            // Policy-initiated drop: silent, as the pre-arena core was.
            if self.telemetry.spans.enabled() {
                let flow = self.packets.get(pkt).flow.0;
                self.telemetry.spans.on_drop(pkt.key(), flow);
            }
            self.packets.free(pkt);
        }
        self.apply_policy_fx(node, fx);
    }

    /// Applies a policy's effects, then returns the drained sink to the
    /// pool.
    pub(crate) fn apply_policy_fx(&mut self, node: NodeId, mut fx: PolicyFx) {
        // Cancels first, so a policy that re-arms in the same callback
        // cancels the stale generation before scheduling the new one.
        for token in fx.cancels.drain(..) {
            let pending = &mut self.policy_timers[node.0 as usize];
            if let Some(i) = pending.iter().position(|&(t, _)| t == token) {
                let (_, handle) = pending.swap_remove(i);
                self.events.cancel(handle);
            }
        }
        for (after, token) in fx.timers.drain(..) {
            let handle = self
                .events
                .schedule_cancellable(self.now + after, Event::PolicyTimer { node, token });
            self.policy_timers[node.0 as usize].push((token, handle));
        }
        for pkt in fx.inject.drain(..) {
            // Policy-owned packets (re)enter the fabric here; a no-route
            // drop of one is attributed to port 0 (they have no real
            // ingress port).
            let pkt = self.packets.alloc(pkt);
            self.switch_egress(node, 0, pkt, false);
        }
        for mut sample in fx.slot_samples.drain(..) {
            sample.at_ns = self.now.nanos();
            self.telemetry.push_slot_sample(sample);
        }
        for (flow, waited_ns) in fx.token_waits.drain(..) {
            self.telemetry.spans.on_token_wait(flow, waited_ns);
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
            FaultAction::LinkDown { node, port } => self.set_link_up(node, port, false),
            FaultAction::LinkUp { node, port } => self.set_link_up(node, port, true),
            FaultAction::LinkRate { node, port, rate } => {
                // A packet mid-serialisation completes on its old
                // schedule; the new rate applies from the next one.
                let (peer, peer_port) = {
                    let p = self.port_mut(node, port);
                    p.link.rate = rate;
                    (p.link.peer, p.link.peer_port)
                };
                self.port_mut(peer, peer_port as usize).link.rate = rate;
            }
            FaultAction::LossWindow {
                node,
                port,
                permille,
            } => {
                self.port_mut(node, port).loss_permille = permille.min(1000);
            }
            FaultAction::LossWindowEnd { node, port } => {
                self.port_mut(node, port).loss_permille = 0;
            }
            FaultAction::PolicyReset { node, port } => {
                let mut fx = self.take_policy_fx();
                {
                    let Node::Switch(sw) = &mut self.nodes[node.0 as usize] else {
                        panic!("PolicyReset target {node:?} is not a switch");
                    };
                    let rate = self.ports[sw.port_slot(port)].link.rate;
                    sw.policy.reset_port(port, rate, now, &mut fx);
                }
                self.apply_policy_fx(node, fx);
            }
            FaultAction::HostStall { node } => self.set_host_stalled(node, true),
            FaultAction::HostResume { node } => self.set_host_stalled(node, false),
        }
        if self.telemetry.log.enabled() {
            let (kind, node, port, value) = (
                action.kind_label(),
                action.node().0,
                action.port() as u16,
                action.value(),
            );
            let ev = if action.is_clear() {
                TraceEvent::FaultCleared {
                    kind,
                    node,
                    port,
                    value,
                }
            } else {
                TraceEvent::FaultInjected {
                    kind,
                    node,
                    port,
                    value,
                }
            };
            self.telemetry.log.record(now.nanos(), ev);
            if let FaultAction::LinkDown { node, port } = action {
                self.note_rerouted(node, port);
            }
        }
    }

    /// Records a [`TraceEvent::Rerouted`] for each switch end of the
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
            let ports = sw.ports_in(&self.ports);
            let dests = sw
                .routes
                .reroutable_dests(sw_port as u16, |p| ports[p as usize].up);
            self.telemetry.log.record(
                now.nanos(),
                TraceEvent::Rerouted {
                    node: sw_id.0,
                    port: sw_port as u16,
                    dests,
                },
            );
        }
    }

    /// Marks both ends of the link at `node`/`port` up or down.
    fn set_link_up(&mut self, node: NodeId, port: usize, up: bool) {
        let (peer, peer_port) = {
            let p = self.port_mut(node, port);
            p.up = up;
            (p.link.peer, p.link.peer_port)
        };
        self.port_mut(peer, peer_port as usize).up = up;
    }

    fn set_host_stalled(&mut self, node: NodeId, stalled: bool) {
        let Node::Host(h) = &mut self.nodes[node.0 as usize] else {
            panic!("host-stall target {node:?} is not a host");
        };
        h.stalled = stalled;
    }

    fn host_receive(&mut self, node: NodeId, pkt: PacketId) {
        let now = self.now;
        let (flow, is_ack, ack) = {
            let p = self.packets.get(pkt);
            (p.flow, p.flags.contains(Flags::ACK), p.ack)
        };
        {
            let Node::Host(h) = &mut self.nodes[node.0 as usize] else {
                unreachable!()
            };
            if h.stalled {
                // A stalled host's endpoints see nothing.
                h.nic.fault_drops += 1;
                self.telemetry.spans.on_drop(pkt.key(), flow.0);
                self.packets.free(pkt);
                return;
            }
        }
        if self.telemetry.log.enabled() && is_ack {
            self.telemetry.log.record(
                now.nanos(),
                TraceEvent::PktAck {
                    node: node.0,
                    flow: flow.0,
                    ack,
                },
            );
        }
        let mut fx = self.take_fx();
        // Both tables are flow-indexed: an entry whose host is not this
        // one belongs to a different flow that recycled the id.
        let known = {
            let p = self.packets.get(pkt);
            match (self.senders.get_mut(flow), self.receivers.get_mut(flow)) {
                (Some((host, s)), _) if *host == node => {
                    s.on_packet(p, now, &mut fx);
                    true
                }
                (_, Some((host, r))) if *host == node => {
                    r.on_packet(p, now, &mut fx);
                    true
                }
                _ => false, // Stale packet of a torn-down flow.
            }
        };
        if self.telemetry.spans.enabled() {
            if known {
                let sent_ns = self.packets.get(pkt).sent_at.nanos();
                // Final wire segment plus end-to-end from the emit stamp.
                self.telemetry.spans.on_deliver(pkt.key(), flow.0, sent_ns, now.nanos());
            } else {
                // Stale packet of a torn-down flow: forgotten, not lost.
                self.telemetry.spans.on_consumed(pkt.key(), flow.0);
            }
        }
        // The endpoint has seen the packet; the slot is recyclable
        // before effects apply (effects never reference the packet).
        self.packets.free(pkt);
        if known {
            self.apply_host_fx(node, flow, fx);
        } else {
            self.fx_pool.push(fx);
        }
    }
}

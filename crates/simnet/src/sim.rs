//! The simulation engine.
//!
//! [`Simulator`] owns the network, the event queue, the protocol stack,
//! and the workload application, and runs the discrete-event loop. All
//! state mutation happens through events, so runs are deterministic for
//! a given seed and topology.
//!
//! The loop itself is layered: this module holds the state and the
//! public control surface, [`crate::sched`] orders the events, and the
//! private `handlers` module implements the per-event-kind handlers
//! the dispatch loop fans out to.

use std::collections::{BTreeMap, VecDeque};

use metrics::{FctCollector, FlowRecord, RateMeter};
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use telemetry::{Telemetry, TelemetryConfig};

use crate::app::{Application, FlowEvent};
use crate::arena::PacketArena;
use crate::endpoint::{Effects, FlowSpec, Note, ProtocolStack, ReceiverEndpoint, SenderEndpoint};
use crate::event::{Event, EventQueue};
use crate::fault::FaultAction;
use crate::flowtable::Slab;
use crate::node::{intern_params, Node, Port, PortParams, PortStats};
use crate::packet::{FlowId, NodeId};
use crate::policy::PolicyFx;
use crate::retire::{FlowRetirer, RetireConfig};
use crate::sched::{SchedulerKind, Timers};
use crate::topology::Network;
use crate::units::{Dur, Time};
use metrics::TimeSeries;

/// XOR tag deriving the fault RNG stream from the run seed, so loss-
/// window draws never perturb the workload/jitter stream (same idiom as
/// the telemetry sampling seed).
const FAULT_RNG_TAG: u64 = 0xfa17_ca05_fa17_ca05;

/// A periodic queue-length sampler attached to one switch port (see
/// [`SimCore::add_queue_sampler`]).
#[derive(Debug, Clone)]
pub struct QueueSampler {
    /// Switch to sample.
    pub node: NodeId,
    /// Port index at that switch.
    pub port: usize,
    /// Sampling period.
    pub every: Dur,
    /// Stop sampling at this time (`None` = until simulation end).
    pub until: Option<Time>,
}

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; every run with the same seed and inputs is identical.
    pub seed: u64,
    /// Hard stop time (`None` = run until no events remain).
    pub end: Option<Time>,
    /// Per-packet host processing delay, drawn uniformly from the range,
    /// applied between an endpoint emitting a packet and the NIC queue.
    /// Models the testbed's random end-host processing (§6.1.2, Fig. 6).
    pub host_jitter: Option<(Dur, Dur)>,
    /// Structured telemetry: typed event log, event-loop counters, TFC
    /// slot gauges (all off by default; see [`SimCore::telemetry`]).
    pub telemetry: TelemetryConfig,
    /// Event-scheduler backend. The timing wheel is the default; the
    /// reference heap exists for equivalence tests and benchmarks, and
    /// both produce byte-identical runs (see [`crate::sched`]).
    pub scheduler: SchedulerKind,
    /// Bounded-memory flow retirement (off by default): a finished flow
    /// folds into per-class quantile sketches and frees its record once
    /// nothing can reach it, and its id is reused. Required for the
    /// streaming million-flow workloads; see [`crate::retire`].
    pub retire: Option<RetireConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            end: None,
            host_jitter: None,
            telemetry: TelemetryConfig::default(),
            scheduler: SchedulerKind::default(),
            retire: None,
        }
    }
}

/// A snapshot of one flow's book-keeping, built on demand by
/// [`SimCore::flow`] and [`SimCore::flows`]. The flow table stores a
/// compact private record instead; the rare per-flow extras, a goodput
/// meter and RTT samples, are read through [`SimCore::flow_meter`] and
/// [`SimCore::rtt_samples`].
#[derive(Debug, Clone, Copy)]
pub struct FlowState {
    /// The flow's static description.
    pub spec: FlowSpec,
    /// When the application started the flow.
    pub started_at: Time,
    /// When the handshake completed (sender saw SYN-ACK).
    pub established_at: Option<Time>,
    /// When the receiver held the complete byte stream.
    pub receiver_done_at: Option<Time>,
    /// When the sender finished (all data acknowledged, FIN acked).
    pub sender_done_at: Option<Time>,
    /// In-order bytes delivered to the receiving application.
    pub delivered: u64,
    /// Retransmission timeouts suffered by the sender.
    pub timeouts: u64,
    /// Packets retransmitted by the sender.
    pub retransmits: u64,
    /// Workload class tag (0 by default; see
    /// [`SimCore::set_flow_class`]). Keys the per-class retirement
    /// sketches when flow retirement is on.
    pub class: u8,
}

/// A time field of a [`FlowEntry`] that has not happened yet.
const NEVER: u64 = u64::MAX;
/// [`FlowEntry::bytes`] of an open-ended flow.
const OPEN_ENDED: u64 = u64::MAX;

/// [`FlowEntry::flags`]: forward `Delivered` events to the application.
const WATCH_DELIVERY: u8 = 1;
/// [`FlowEntry::flags`]: record sender RTT samples in the flow's
/// [`FlowExtras`].
const WATCH_RTT: u8 = 2;
/// [`FlowEntry::flags`]: the flow's [`FlowExtras`] hold a goodput
/// meter.
const METERED: u8 = 4;

/// One flow's slot in the flow table: what [`FlowState`] shows, packed.
/// Times are nanoseconds with [`NEVER`] for "not yet", counters that
/// never get near 2^32 saturate there, and the rare extras live in
/// [`SimCore::extras`].
#[derive(Debug)]
pub(crate) struct FlowEntry {
    src: NodeId,
    dst: NodeId,
    /// Bytes to transfer, or [`OPEN_ENDED`].
    bytes: u64,
    started_at: u64,
    established_at: u64,
    receiver_done_at: u64,
    sender_done_at: u64,
    delivered: u64,
    timeouts: u32,
    retransmits: u32,
    /// Index of the flow's [`Endpoints`] record in
    /// [`SimCore::endpoints`], or [`FREED`] once it is freed.
    pub(crate) endpoints: u32,
    weight: u8,
    class: u8,
    /// [`WATCH_DELIVERY`], [`WATCH_RTT`] and [`METERED`] bits.
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Option<FlowEntry>>() <= 80);

/// `t` as a time, or `None` if it is [`NEVER`].
fn when(t: u64) -> Option<Time> {
    (t != NEVER).then_some(Time(t))
}

impl FlowEntry {
    /// The record of a flow `spec` started at `now`, with endpoint
    /// record `endpoints`.
    fn new(spec: &FlowSpec, now: Time, endpoints: u32) -> Self {
        assert!(
            spec.bytes != Some(OPEN_ENDED),
            "a sized flow must be shorter than u64::MAX bytes"
        );
        Self {
            src: spec.src,
            dst: spec.dst,
            bytes: spec.bytes.unwrap_or(OPEN_ENDED),
            started_at: now.nanos(),
            established_at: NEVER,
            receiver_done_at: NEVER,
            sender_done_at: NEVER,
            delivered: 0,
            timeouts: 0,
            retransmits: 0,
            endpoints,
            weight: spec.weight,
            class: 0,
            flags: 0,
        }
    }

    /// The [`FlowState`] snapshot of this record.
    fn view(&self) -> FlowState {
        FlowState {
            spec: FlowSpec {
                src: self.src,
                dst: self.dst,
                bytes: self.size(),
                weight: self.weight,
            },
            started_at: Time(self.started_at),
            established_at: when(self.established_at),
            receiver_done_at: when(self.receiver_done_at),
            sender_done_at: when(self.sender_done_at),
            delivered: self.delivered,
            timeouts: u64::from(self.timeouts),
            retransmits: u64::from(self.retransmits),
            class: self.class,
        }
    }

    /// The flow's size, or `None` if it is open-ended.
    fn size(&self) -> Option<u64> {
        (self.bytes != OPEN_ENDED).then_some(self.bytes)
    }

    /// Whether both sides are done.
    fn finished(&self) -> bool {
        self.receiver_done_at != NEVER && self.sender_done_at != NEVER
    }

    /// The flow's completion record once its receiver is done; an
    /// open-ended flow counts the bytes delivered.
    fn fct_record(&self) -> Option<FlowRecord> {
        (self.receiver_done_at != NEVER).then(|| FlowRecord {
            bytes: self.size().unwrap_or(self.delivered),
            start_ns: self.started_at,
            end_ns: self.receiver_done_at,
        })
    }
}

/// The flow-table slot of `flow`; an id too large for the table names
/// no slot.
fn slot(flow: FlowId) -> u32 {
    u32::try_from(flow.0).unwrap_or(u32::MAX)
}

/// The per-flow state few flows carry, kept beside the flow table in
/// [`SimCore::extras`].
#[derive(Debug, Default)]
pub(crate) struct FlowExtras {
    /// Goodput meter (delivered bytes per window), attached by
    /// [`SimCore::meter_flow`].
    meter: Option<RateMeter>,
    /// Sender RTT samples `(time, rtt)` in ns, recorded after
    /// [`SimCore::watch_rtt`].
    rtt_samples: Vec<(u64, u64)>,
}

/// [`FlowEntry::endpoints`] of a flow whose endpoints are freed; no
/// slab index reaches it.
pub(crate) const FREED: u32 = u32::MAX;

/// Everything a packet or timer of a live flow can reach: both
/// transport endpoints with their hosts, the flow's pending timers and
/// its packets in flight. The simulator frees the record as soon as
/// none of them can act again (see [`SimCore::free_if_unreachable`]).
pub(crate) struct Endpoints {
    /// The sender's host (the flow's source).
    pub(crate) src: NodeId,
    /// The receiver's host (the flow's destination).
    pub(crate) dst: NodeId,
    pub(crate) sender: Box<dyn SenderEndpoint>,
    pub(crate) receiver: Box<dyn ReceiverEndpoint>,
    /// Pending cancellable host timers, by endpoint token.
    pub(crate) timers: Timers,
    /// The flow's packets in the arena or held by a switch policy that
    /// consumed them and has not re-injected them.
    pub(crate) in_flight: u32,
}

const _: () = assert!(std::mem::size_of::<Option<Endpoints>>() == 72);

/// One port's drops (see [`SimCore::port_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RareDrops {
    /// Packets tail-dropped at the full FIFO.
    pub(crate) tail: u64,
    /// Packets lost to injected faults (dead link, loss window, stalled
    /// host).
    pub(crate) fault: u64,
    /// Packets with no route at this switch, counted at their ingress
    /// port.
    pub(crate) no_route: u64,
}

pub(crate) enum AppCall {
    Timer(u64),
    Flow(FlowEvent),
    /// Deferred flow retirement: queued behind the flow's `Completed`
    /// event so the application still sees live state in its callback.
    Retire(FlowId),
}

/// Everything except the application: the part of the simulator that
/// [`SimApi`] exposes to application callbacks.
///
/// Fields are `pub(crate)` so the event handlers in the private
/// `handlers` module can borrow them disjointly.
pub struct SimCore {
    pub(crate) now: Time,
    pub(crate) events: EventQueue,
    pub(crate) nodes: Vec<Node>,
    /// The port table, host NICs and switch ports
    /// ([`Network::ports`]).
    pub(crate) ports: Vec<Port>,
    /// The interned port parameters ([`Network::params`]).
    pub(crate) params: Vec<PortParams>,
    pub(crate) hosts: Vec<NodeId>,
    pub(crate) switches: Vec<NodeId>,
    pub(crate) stack: Box<dyn ProtocolStack>,
    /// Flow records, each at the slot its flow id names: the slab hands
    /// out the ids. Without retirement no record is freed, so ids are
    /// sequential; with retirement ([`SimConfig::retire`]) a retired
    /// flow's id is reused at once, so the slab is bounded by peak
    /// concurrency.
    pub(crate) flows: Slab<FlowEntry>,
    /// The meters and RTT samples of the flows that carry them, by id.
    /// A flow's entry leaves with it at retirement, as its id is reused.
    pub(crate) extras: BTreeMap<FlowId, FlowExtras>,
    /// The endpoint records of the flows something can still reach,
    /// each named by its flow's [`FlowEntry::endpoints`].
    pub(crate) endpoints: Slab<Endpoints>,
    /// The retirement pipeline, when [`SimConfig::retire`] is set.
    pub(crate) retirer: Option<FlowRetirer>,
    pub(crate) rng: StdRng,
    pub(crate) fault_rng: StdRng,
    pub(crate) samplers: Vec<QueueSampler>,
    /// One series per entry of `samplers`.
    pub(crate) queue_series: Vec<TimeSeries>,
    pub(crate) pending_app: VecDeque<AppCall>,
    pub(crate) cfg: SimConfig,
    pub(crate) stopped: bool,
    pub(crate) events_processed: u64,
    /// Packets a switch policy's egress hook discarded
    /// ([`crate::policy::EgressVerdict::Drop`]), fabric-wide: the one
    /// drop cause no port counts, kept out of [`Port`] to keep ports
    /// small.
    pub(crate) policy_drops: u64,
    /// Packets that reached a host holding no endpoint of their flow
    /// (see [`SimCore::stale_arrivals`]).
    pub(crate) stale_arrivals: u64,
    /// Tail, fault and no-route drops per `(node, port)`, with an entry
    /// only for ports that lost a packet: rare counters, kept out of
    /// [`Port`] so a port is half a cache line.
    pub(crate) rare_drops: BTreeMap<(NodeId, u16), RareDrops>,
    /// Every fault injected so far, in injection order; an
    /// [`Event::Fault`] carries its index here.
    pub(crate) faults: Vec<FaultAction>,
    /// Host timers that came due at a stalled host, in firing order, as
    /// `(host, flow, token)`: they fire when the host resumes. Each
    /// keeps its spent handle in its flow's timers until then, so the
    /// flow stays reachable and a cancel still forgets it.
    pub(crate) parked_timers: Vec<(NodeId, FlowId, u64)>,
    pub(crate) telemetry: Telemetry,
    /// Every in-flight packet, slab-allocated; events carry ids into it.
    pub(crate) packets: PacketArena,
    /// Drained endpoint effect sinks, kept for reuse so handlers do not
    /// allocate fresh vectors per call. Holds as many sinks as effect
    /// applications ever nested.
    pub(crate) fx_pool: Vec<Effects>,
    /// Drained policy effect sinks (as `fx_pool`).
    pub(crate) policy_fx_pool: Vec<PolicyFx>,
}

/// The simulator: a [`SimCore`] plus the workload application.
pub struct Simulator<A: Application> {
    core: SimCore,
    app: A,
}

/// Handle through which applications drive the simulation.
pub struct SimApi<'a> {
    core: &'a mut SimCore,
}

impl SimCore {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Starts a flow and returns its id. The handshake begins
    /// immediately; data transfer follows the protocol's rules.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are not distinct hosts.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.src != spec.dst, "flow endpoints must differ");
        let (src, dst) = (spec.src, spec.dst);
        for node in [src, dst] {
            assert!(
                matches!(self.nodes[node.0 as usize], Node::Host(_)),
                "flow endpoint {node:?} is not a host"
            );
        }
        // The flow table hands out the id; the endpoint index follows.
        let idx = self.flows.insert(FlowEntry::new(&spec, self.now, FREED));
        let flow = FlowId(u64::from(idx));
        let sender = self.stack.new_sender(flow, &spec);
        let receiver = self.stack.new_receiver(flow, &spec);
        let bytes = spec.bytes.unwrap_or(0);
        self.telemetry
            .flow_open(self.now.nanos(), flow.0, src.0, dst.0, bytes);
        let ep = self.endpoints.insert(Endpoints {
            src,
            dst,
            sender,
            receiver,
            timers: Timers::default(),
            in_flight: 0,
        });
        self.flows[idx].endpoints = ep;
        let now = self.now;
        let mut fx = self.take_fx();
        self.endpoints[ep].sender.open(now, &mut fx);
        self.apply_host_fx(src, flow, ep, fx);
        flow
    }

    /// Adds `bytes` to an open-ended flow's send stream.
    ///
    /// # Panics
    ///
    /// Panics if the flow or its sender does not exist: it was never
    /// started, was retired, or finished and had its endpoints freed.
    pub fn push_data(&mut self, flow: FlowId, bytes: u64) {
        let now = self.now;
        let mut fx = self.take_fx();
        let ep = self.endpoints_of(flow);
        let e = self.endpoints.get_mut(ep).expect("sender exists");
        e.sender.push_data(bytes, now, &mut fx);
        let src = e.src;
        self.apply_host_fx(src, flow, ep, fx);
    }

    /// Closes an open-ended flow (FIN once pushed data is delivered).
    ///
    /// A no-op when the flow or its sender no longer exists: never
    /// started, or finished with its endpoints freed (a flow that
    /// closed and completed has nothing left to close). Closing twice
    /// is safe, so workloads need not track liveness across faults;
    /// under retirement, though, a retired flow's id may already name a
    /// new flow.
    pub fn close_flow(&mut self, flow: FlowId) {
        let now = self.now;
        let mut fx = self.take_fx();
        let ep = self.endpoints_of(flow);
        let Some(e) = self.endpoints.get_mut(ep) else {
            self.fx_pool.push(fx);
            return;
        };
        e.sender.close(now, &mut fx);
        let src = e.src;
        self.apply_host_fx(src, flow, ep, fx);
    }

    /// Schedules a fault to take effect at simulated time `at` (clamped
    /// to now). Identical seeds with identical fault timelines yield
    /// byte-identical runs; see [`crate::fault`] for the taxonomy.
    pub fn inject_fault(&mut self, at: Time, action: FaultAction) {
        let fault = u32::try_from(self.faults.len()).expect("installed faults exceed u32");
        self.faults.push(action);
        self.events
            .schedule(at.max(self.now), Event::Fault { fault });
    }

    /// Schedules every `(time, action)` pair of a fault timeline.
    pub fn inject_faults(&mut self, plan: &[(Time, FaultAction)]) {
        for &(at, action) in plan {
            self.inject_fault(at, action);
        }
    }

    /// Arms an application timer firing after `after`.
    pub fn set_timer(&mut self, after: Dur, token: u64) {
        self.events
            .schedule(self.now + after, Event::AppTimer { token });
    }

    /// Arms an application timer at absolute time `at` (clamped to now).
    pub fn set_timer_at(&mut self, at: Time, token: u64) {
        let at = at.max(self.now);
        self.events.schedule(at, Event::AppTimer { token });
    }

    /// Tags a flow with a workload class (defaults to 0). Classes key
    /// the per-class retirement sketches; the tag is a no-op for flows
    /// that are already gone.
    pub fn set_flow_class(&mut self, flow: FlowId, class: u8) {
        if let Some(state) = self.flows.get_mut(slot(flow)) {
            state.class = class;
        }
    }

    /// Attaches a goodput meter (window `window`) to a flow, replacing
    /// any meter it had; read it with [`flow_meter`](Self::flow_meter).
    pub fn meter_flow(&mut self, flow: FlowId, window: Dur) {
        self.flows.get_mut(slot(flow)).expect("flow exists").flags |= METERED;
        self.extras.entry(flow).or_default().meter =
            Some(RateMeter::new(format!("flow{}", flow.0), window.as_nanos()));
    }

    /// Requests `Delivered` events for a flow.
    pub fn watch_delivery(&mut self, flow: FlowId) {
        self.flows.get_mut(slot(flow)).expect("flow exists").flags |= WATCH_DELIVERY;
    }

    /// Requests sender RTT sample recording for a flow; read them with
    /// [`rtt_samples`](Self::rtt_samples).
    pub fn watch_rtt(&mut self, flow: FlowId) {
        self.flows.get_mut(slot(flow)).expect("flow exists").flags |= WATCH_RTT;
    }

    /// Registers a periodic queue-length sampler and returns the index
    /// of its series in [`queue_series`](Self::queue_series).
    pub fn add_queue_sampler(&mut self, s: QueueSampler) -> usize {
        let at = self.now + s.every;
        let idx = self.samplers.len();
        let sampler = u32::try_from(idx).expect("queue samplers exceed u32");
        self.queue_series
            .push(TimeSeries::new(format!("queue.s{}.p{}", s.node.0, s.port)));
        self.samplers.push(s);
        self.events.schedule(at, Event::Sample { sampler });
        idx
    }

    /// The seeded RNG (shared by workloads for reproducibility).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Stops the simulation after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// A snapshot of a flow's state.
    ///
    /// # Panics
    ///
    /// Panics if the flow never existed or was retired (see
    /// [`SimConfig::retire`]).
    pub fn flow(&self, flow: FlowId) -> FlowState {
        self.flows
            .get(slot(flow))
            .expect("flow exists (not retired)")
            .view()
    }

    /// The goodput meter attached by [`meter_flow`](Self::meter_flow),
    /// or `None` if the flow has none or was retired.
    pub fn flow_meter(&self, flow: FlowId) -> Option<&RateMeter> {
        self.extras.get(&flow)?.meter.as_ref()
    }

    /// The sender RTT samples `(time, rtt)` in ns recorded since
    /// [`watch_rtt`](Self::watch_rtt); empty if the flow recorded none
    /// or was retired.
    pub fn rtt_samples(&self, flow: FlowId) -> &[(u64, u64)] {
        self.extras
            .get(&flow)
            .map_or(&[], |x| x.rtt_samples.as_slice())
    }

    /// Whether the flow currently has live state (retired flows do not).
    pub fn has_flow(&self, flow: FlowId) -> bool {
        self.flows.get(slot(flow)).is_some()
    }

    /// Iterates all live flows in id order. Under retirement, retired
    /// flows are absent: their statistics live in [`SimCore::retirer`].
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, FlowState)> + '_ {
        self.flows
            .iter()
            .map(|(id, r)| (FlowId(u64::from(id)), r.view()))
    }

    /// The queued-bytes series of every queue sampler, in registration
    /// order, each named `queue.s<node>.p<port>`.
    pub fn queue_series(&self) -> &[TimeSeries] {
        &self.queue_series
    }

    /// The structured telemetry state (event log, loop counters, TFC
    /// slot gauges).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable telemetry access (tests, exporters).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// The run's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The completion records of the completed flows in the flow
    /// table, in id order, built from their flow records. Under
    /// retirement a retired flow's record is gone: its FCT lives in the
    /// per-class sketches of [`SimCore::retirer`].
    pub fn fct(&self) -> FctCollector {
        let done = || self.flows.iter().filter_map(|(_, r)| r.fct_record());
        let mut fct = FctCollector::with_capacity(done().count());
        done().for_each(|r| fct.record(r));
        fct
    }

    /// The flow-retirement pipeline, when enabled.
    pub fn retirer(&self) -> Option<&FlowRetirer> {
        self.retirer.as_ref()
    }

    /// Flow-slab occupancy diagnostics: `(live, peak_live, capacity)`.
    /// The slab reuses a retired flow's slot at once, so its capacity is
    /// its peak live count: with retirement on, both are bounded by peak
    /// concurrency — the resident-memory half of the million-flow claim.
    pub fn flow_slab_stats(&self) -> (usize, usize, usize) {
        let peak = self.flows.capacity();
        (self.flows.len(), peak, peak)
    }

    /// Slots of the endpoint-record slab: the peak number of flows whose
    /// endpoints were live at once. A record is freed once no packet or
    /// timer can reach its flow, and its slot is reused; so this is at
    /// most [`flow_slab_stats`](Self::flow_slab_stats)'s peak.
    pub fn endpoint_table_capacity(&self) -> usize {
        self.endpoints.capacity()
    }

    /// Read access to the event queue, e.g. for its
    /// [`peak_queued`](EventQueue::peak_queued) high-water mark.
    pub fn event_queue(&self) -> &EventQueue {
        &self.events
    }

    /// Host ids in creation order.
    pub fn host_ids(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Switch ids in creation order.
    pub fn switch_ids(&self) -> &[NodeId] {
        &self.switches
    }

    /// Total enqueue drops across every switch port.
    pub fn total_drops(&self) -> u64 {
        self.rare_drops
            .iter()
            .filter(|((node, _), _)| matches!(self.nodes[node.0 as usize], Node::Switch(_)))
            .map(|(_, d)| d.tail)
            .sum()
    }

    /// Statistics of port `port` of `node`: a switch port, or a host's
    /// NIC (port 0).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn port_stats(&self, node: NodeId, port: usize) -> PortStats {
        let p = self.port(node, port);
        // `port` exists, so it is below `MAX_PORTS` (2^15).
        let rare = self
            .rare_drops
            .get(&(node, port as u16))
            .copied()
            .unwrap_or_default();
        PortStats {
            queue_bytes: p.queue.bytes(),
            max_queue_bytes: p.queue.max_bytes_seen(),
            drops: rare.tail,
            tx_bytes: p.tx_bytes,
            fault_drops: rare.fault,
            no_route_drops: rare.no_route,
        }
    }

    /// The current parameters of port `port` of `node`: rate, delay,
    /// FIFO capacity, link state and loss window, as the builder set
    /// them and faults changed them since.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub(crate) fn port_params(&self, node: NodeId, port: usize) -> PortParams {
        self.params[usize::from(self.port(node, port).link.params)]
    }

    /// Applies `change` to the parameters of port `port` of `node`
    /// alone: the changed copy is interned, and the port moves to its
    /// row, so the ports sharing the old row keep it.
    pub(crate) fn change_port_params(
        &mut self,
        node: NodeId,
        port: usize,
        change: impl FnOnce(&mut PortParams),
    ) {
        let mut params = self.port_params(node, port);
        change(&mut params);
        let row = intern_params(&mut self.params, params);
        self.port_mut(node, port).link.params = row;
    }

    /// The port-table row of port `idx` of `node`: a host's NIC (port
    /// 0) or a switch port.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub(crate) fn port_slot(&self, node: NodeId, idx: usize) -> usize {
        self.nodes[node.0 as usize].port_slot(idx)
    }

    /// Port `idx` of `node` (see [`port_slot`](Self::port_slot)).
    pub(crate) fn port(&self, node: NodeId, idx: usize) -> &Port {
        &self.ports[self.port_slot(node, idx)]
    }

    /// Mutable [`port`](Self::port).
    pub(crate) fn port_mut(&mut self, node: NodeId, idx: usize) -> &mut Port {
        let slot = self.port_slot(node, idx);
        &mut self.ports[slot]
    }

    /// An empty endpoint effect sink, recycled when one is pooled.
    pub(crate) fn take_fx(&mut self) -> Effects {
        self.fx_pool.pop().unwrap_or_default()
    }

    /// An empty policy effect sink, recycled when one is pooled.
    pub(crate) fn take_policy_fx(&mut self) -> PolicyFx {
        self.policy_fx_pool.pop().unwrap_or_default()
    }

    /// Egress port of `switch` toward host `dst`: the deterministic
    /// primary (lowest equal-cost member). Per-packet forwarding hashes
    /// across the full set; see [`next_hops_of`](Self::next_hops_of).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is not a switch.
    pub fn route_of(&self, switch: NodeId, dst: NodeId) -> Option<usize> {
        let Node::Switch(sw) = &self.nodes[switch.0 as usize] else {
            panic!("{switch:?} is not a switch");
        };
        sw.route(dst)
    }

    /// All equal-cost egress ports of `switch` toward host `dst`
    /// (ascending; empty when unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is not a switch.
    pub fn next_hops_of(&self, switch: NodeId, dst: NodeId) -> Vec<usize> {
        let Node::Switch(sw) = &self.nodes[switch.0 as usize] else {
            panic!("{switch:?} is not a switch");
        };
        match sw.routes.next_hops(dst) {
            crate::node::NextHops::None => Vec::new(),
            crate::node::NextHops::Single(p) => vec![p as usize],
            crate::node::NextHops::Ecmp(set) => set.iter().map(|&p| p as usize).collect(),
        }
    }

    /// Route surgery: overwrites the equal-cost next hops of `switch`
    /// toward `dst` (`ports` ascending and duplicate-free; empty makes
    /// `dst` unreachable there, turning packets into counted
    /// `no_route_drops`). Built topologies are always validated
    /// connected, so this is how tests and dynamic-fabric experiments
    /// create sparse tables.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is not a switch or a port index is out of
    /// range.
    pub fn set_next_hops(&mut self, switch: NodeId, dst: NodeId, ports: &[usize]) {
        let Node::Switch(sw) = &mut self.nodes[switch.0 as usize] else {
            panic!("{switch:?} is not a switch");
        };
        let ports: Vec<u16> = ports
            .iter()
            .map(|&p| {
                assert!(p < sw.ports.len(), "port {p} out of range at {switch:?}");
                p as u16
            })
            .collect();
        sw.routes.set(dst.0 as usize, &ports);
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Packets discarded by a switch policy's egress hook, summed over
    /// the fabric (no port's [`PortStats`] counts them).
    pub fn policy_drops(&self) -> u64 {
        self.policy_drops
    }

    /// Packets that reached a host holding no endpoint of their flow and
    /// were discarded there: packets of an id that never named a flow. A
    /// flow's endpoints, and under retirement its id, outlive its last
    /// packet, so in a run this stays 0.
    pub fn stale_arrivals(&self) -> u64 {
        self.stale_arrivals
    }

    /// The in-flight packet arena (diagnostics: live slots, high-water).
    pub fn packet_arena(&self) -> &PacketArena {
        &self.packets
    }

    /// Current congestion window of a flow's sender, if it exists:
    /// `None` for a flow never started, retired, or finished with its
    /// endpoints freed.
    pub fn sender_cwnd(&self, flow: FlowId) -> Option<u64> {
        let e = self.endpoints.get(self.endpoints_of(flow))?;
        Some(e.sender.cwnd())
    }

    // ------------------------------------------------------------------
    // Internal machinery.
    // ------------------------------------------------------------------

    /// The index of `flow`'s endpoint record: [`FREED`] if the flow has
    /// no state (never started, or retired) or its endpoints are freed.
    #[inline]
    pub(crate) fn endpoints_of(&self, flow: FlowId) -> u32 {
        self.flows.get(slot(flow)).map_or(FREED, |s| s.endpoints)
    }

    /// Folds a finished flow nothing can reach into the retirer's
    /// per-class sketches and frees its record, its extras and its id.
    fn retire_flow(&mut self, flow: FlowId) {
        let state = self
            .flows
            .remove(slot(flow))
            .expect("a flow is retired once");
        let retirer = self.retirer.as_mut().expect("retire_flow requires retirer");
        retirer.retire(&state.view());
        // The id's next tenant must not inherit a meter or samples.
        self.extras.remove(&flow);
    }

    /// Frees `flow`'s endpoint record `ep` if nothing can reach it any
    /// more: both sides are done, no timer of the flow is pending and
    /// none of its packets is in flight. Then no event can ever call
    /// into the endpoints again, so dropping them changes nothing a run
    /// observes. Under retirement the flow is then retired, behind its
    /// `Completed` event, so the application's callback still observes
    /// the flow.
    ///
    /// Runs only after a callback's effects are applied: a receiver
    /// that just took the flow's last packet may be about to send an
    /// ACK, which puts the count back above zero.
    pub(crate) fn free_if_unreachable(&mut self, flow: FlowId, ep: u32) {
        let e = &self.endpoints[ep];
        if e.in_flight != 0 || !e.timers.is_empty() {
            return;
        }
        let state = &mut self.flows[slot(flow)];
        if state.finished() {
            state.endpoints = FREED;
            self.endpoints.remove(ep);
            // A parked timer the flow cancelled must not reach the
            // flow that reuses its id.
            self.parked_timers.retain(|&(_, f, _)| f != flow);
            if self.retirer.is_some() {
                self.pending_app.push_back(AppCall::Retire(flow));
            }
        }
    }

    /// One of `flow`'s packets left the arena outside an endpoint
    /// callback (lost or tail-dropped): counts it out of the flow's
    /// packets in flight, and frees the endpoints if that was the last
    /// thing that could reach them.
    pub(crate) fn packet_gone(&mut self, flow: FlowId) {
        let ep = self.endpoints_of(flow);
        if let Some(e) = self.endpoints.get_mut(ep) {
            e.in_flight -= 1;
            self.free_if_unreachable(flow, ep);
        }
    }

    /// Applies the effects of an endpoint of `flow` (record `ep`) at
    /// `host`, then returns the drained sink to the pool. Each packet
    /// it sends counts into the flow's packets in flight.
    pub(crate) fn apply_host_fx(&mut self, host: NodeId, flow: FlowId, ep: u32, mut fx: Effects) {
        let e = &mut self.endpoints[ep];
        e.in_flight += fx.packets.len() as u32;
        for mut pkt in fx.packets.drain(..) {
            pkt.sent_at = self.now;
            let jitter = match self.cfg.host_jitter {
                Some((lo, hi)) if hi > lo => Dur(self.rng.gen_range(lo.as_nanos()..=hi.as_nanos())),
                Some((lo, _)) => lo,
                None => Dur::ZERO,
            };
            // The endpoint-built packet moves into the arena here; from
            // this point on it travels the fabric as an id.
            let pkt = self.packets.alloc(pkt);
            self.events
                .schedule(self.now + jitter, Event::NicEnqueue { node: host, pkt });
        }
        // Cancels first: an endpoint that re-arms in the same callback
        // cancels the old generation before scheduling the new one.
        for token in fx.cancels.drain(..) {
            e.timers.cancel(&mut self.events, token);
        }
        for (after, token) in fx.timers.drain(..) {
            let at = self.now + after;
            e.timers.arm(
                &mut self.events,
                at,
                Event::host_timer(host, flow, token),
                token,
            );
        }
        for note in fx.notes.drain(..) {
            self.handle_note(flow, note);
        }
        self.fx_pool.push(fx);
        self.free_if_unreachable(flow, ep);
    }

    pub(crate) fn handle_note(&mut self, flow: FlowId, note: Note) {
        let (at, tel) = (self.now.nanos(), &mut self.telemetry);
        let Some(state) = self.flows.get_mut(slot(flow)) else {
            return;
        };
        match note {
            Note::Established => {
                if state.established_at == NEVER {
                    state.established_at = at;
                    tel.flow_established(at, flow.0);
                    self.pending_app
                        .push_back(AppCall::Flow(FlowEvent::Established(flow)));
                }
            }
            Note::Delivered { bytes } => {
                state.delivered += bytes;
                if state.flags & METERED != 0 {
                    let meter = self.extras.get_mut(&flow).and_then(|x| x.meter.as_mut());
                    meter.expect("a metered flow has a meter").add(at, bytes);
                }
                tel.flow_delivered(at, state.dst.0, flow.0, bytes);
                if state.flags & WATCH_DELIVERY != 0 {
                    self.pending_app
                        .push_back(AppCall::Flow(FlowEvent::Delivered { flow, bytes }));
                }
            }
            Note::ReceiverDone => {
                if state.receiver_done_at == NEVER {
                    state.receiver_done_at = at;
                    self.pending_app
                        .push_back(AppCall::Flow(FlowEvent::Completed(flow)));
                }
            }
            Note::SenderDone => {
                if state.sender_done_at == NEVER {
                    state.sender_done_at = at;
                    tel.flow_fin(at, flow.0, state.delivered);
                }
            }
            Note::Timeout => {
                state.timeouts = state.timeouts.saturating_add(1);
                tel.flow_rto(at, flow.0);
            }
            Note::Retransmit => {
                state.retransmits = state.retransmits.saturating_add(1);
                tel.flow_retransmit(at, flow.0);
            }
            Note::WindowAcquired { bytes } => tel.flow_window(at, flow.0, bytes),
            Note::RttSample { nanos } => {
                if state.flags & WATCH_RTT != 0 {
                    let samples = &mut self.extras.entry(flow).or_default().rtt_samples;
                    samples.push((at, nanos));
                }
                tel.flow_rtt(at, flow.0, nanos);
            }
        }
    }
}

impl<A: Application> Simulator<A> {
    /// Builds a simulator from a network, protocol stack, application,
    /// and config.
    pub fn new(net: Network, stack: Box<dyn ProtocolStack>, app: A, cfg: SimConfig) -> Self {
        let telemetry = Telemetry::new(&cfg.telemetry, cfg.seed, &Event::KIND_NAMES);
        let retirer = cfg.retire.clone().map(FlowRetirer::new);
        Self {
            core: SimCore {
                now: Time::ZERO,
                events: EventQueue::with_kind(cfg.scheduler),
                nodes: net.nodes,
                ports: net.ports,
                params: net.params,
                hosts: net.hosts,
                switches: net.switches,
                stack,
                flows: Slab::new("flow table"),
                extras: BTreeMap::new(),
                endpoints: Slab::new("endpoint records"),
                retirer,
                rng: StdRng::seed_from_u64(cfg.seed),
                fault_rng: StdRng::seed_from_u64(cfg.seed ^ FAULT_RNG_TAG),
                samplers: Vec::new(),
                queue_series: Vec::new(),
                pending_app: VecDeque::new(),
                cfg,
                stopped: false,
                events_processed: 0,
                policy_drops: 0,
                stale_arrivals: 0,
                rare_drops: BTreeMap::new(),
                faults: Vec::new(),
                parked_timers: Vec::new(),
                telemetry,
                packets: PacketArena::new(),
                fx_pool: Vec::new(),
                policy_fx_pool: Vec::new(),
            },
            app,
        }
    }

    /// Runs to completion: until no events remain, the configured end
    /// time passes, or the application calls [`SimApi::stop`].
    pub fn run(&mut self) {
        self.app.start(&mut SimApi {
            core: &mut self.core,
        });
        self.drain_app_calls();
        while !self.core.stopped {
            let Some((t, ev)) = self.core.events.pop() else {
                break;
            };
            if let Some(end) = self.core.cfg.end {
                if t > end {
                    self.core.now = end;
                    break;
                }
            }
            debug_assert!(t >= self.core.now, "event time moved backwards");
            self.core.now = t;
            self.core.handle_event(ev);
            self.drain_app_calls();
        }
        // Flush goodput meters so trailing zero-windows are emitted.
        let now = self.core.now.nanos();
        for x in self.core.extras.values_mut() {
            if let Some(m) = &mut x.meter {
                m.flush(now);
            }
        }
    }

    fn drain_app_calls(&mut self) {
        while let Some(call) = self.core.pending_app.pop_front() {
            let mut api = SimApi {
                core: &mut self.core,
            };
            match call {
                AppCall::Timer(token) => self.app.on_timer(token, &mut api),
                AppCall::Flow(ev) => self.app.on_flow_event(ev, &mut api),
                AppCall::Retire(flow) => self.core.retire_flow(flow),
            }
        }
    }

    /// Read access to the core (traces, flows, stats).
    pub fn core(&self) -> &SimCore {
        &self.core
    }

    /// Mutable access to the core (pre-run flow setup, samplers).
    pub fn core_mut(&mut self) -> &mut SimCore {
        &mut self.core
    }

    /// The application, e.g. to read workload-level results after `run`.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }
}

impl<'a> SimApi<'a> {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.core.now()
    }

    /// Starts a flow; see [`SimCore::start_flow`].
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.core.start_flow(spec)
    }

    /// Pushes data on an open-ended flow; see [`SimCore::push_data`].
    pub fn push_data(&mut self, flow: FlowId, bytes: u64) {
        self.core.push_data(flow, bytes)
    }

    /// Closes an open-ended flow; see [`SimCore::close_flow`].
    pub fn close_flow(&mut self, flow: FlowId) {
        self.core.close_flow(flow)
    }

    /// Schedules a fault; see [`SimCore::inject_fault`].
    pub fn inject_fault(&mut self, at: Time, action: FaultAction) {
        self.core.inject_fault(at, action)
    }

    /// Arms an application timer after `after`.
    pub fn set_timer(&mut self, after: Dur, token: u64) {
        self.core.set_timer(after, token)
    }

    /// Arms an application timer at absolute `at`.
    pub fn set_timer_at(&mut self, at: Time, token: u64) {
        self.core.set_timer_at(at, token)
    }

    /// Attaches a goodput meter to a flow.
    pub fn meter_flow(&mut self, flow: FlowId, window: Dur) {
        self.core.meter_flow(flow, window)
    }

    /// Requests `Delivered` events for a flow.
    pub fn watch_delivery(&mut self, flow: FlowId) {
        self.core.watch_delivery(flow)
    }

    /// Requests sender RTT sample recording for a flow.
    pub fn watch_rtt(&mut self, flow: FlowId) {
        self.core.watch_rtt(flow)
    }

    /// Tags a flow with a workload class; see
    /// [`SimCore::set_flow_class`].
    pub fn set_flow_class(&mut self, flow: FlowId, class: u8) {
        self.core.set_flow_class(flow, class)
    }

    /// A snapshot of a flow's state (delivered bytes, timestamps,
    /// counters); see [`SimCore::flow`].
    pub fn flow(&self, flow: FlowId) -> FlowState {
        self.core.flow(flow)
    }

    /// Whether the flow still has live state (false once retired).
    pub fn has_flow(&self, flow: FlowId) -> bool {
        self.core.has_flow(flow)
    }

    /// The seeded RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.core.rng()
    }

    /// Stops the simulation.
    pub fn stop(&mut self) {
        self.core.stop()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::app::NullApp;
    use crate::endpoint::{ReceiverEndpoint, SenderEndpoint};
    use crate::packet::{Flags, Packet, MSS};
    use crate::topology::TopologyBuilder;
    use crate::units::Bandwidth;

    /// A minimal "protocol": the sender emits one sized data packet per
    /// `push_data`; the receiver just counts. No handshake, no ACKs —
    /// for timing tests of the forwarding pipeline itself.
    struct BlastSender {
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        sent: u64,
    }

    impl SenderEndpoint for BlastSender {
        fn open(&mut self, _now: Time, _fx: &mut Effects) {}
        fn push_data(&mut self, bytes: u64, _now: Time, fx: &mut Effects) {
            let pkt = Packet::data(self.flow, self.src, self.dst, self.sent, bytes);
            self.sent += bytes;
            fx.send(pkt);
        }
        fn close(&mut self, _now: Time, _fx: &mut Effects) {}
        fn on_packet(&mut self, _pkt: &Packet, _now: Time, _fx: &mut Effects) {}
        fn on_timer(&mut self, _token: u64, _now: Time, _fx: &mut Effects) {}
        fn cwnd(&self) -> u64 {
            u64::MAX
        }
        fn acked_bytes(&self) -> u64 {
            0
        }
    }

    struct CountReceiver {
        got: u64,
    }

    impl ReceiverEndpoint for CountReceiver {
        fn on_packet(&mut self, pkt: &Packet, _now: Time, fx: &mut Effects) {
            self.got += pkt.payload;
            fx.note(Note::Delivered { bytes: pkt.payload });
        }
        fn delivered_bytes(&self) -> u64 {
            self.got
        }
    }

    pub(crate) struct BlastStack;

    impl ProtocolStack for BlastStack {
        fn new_sender(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn SenderEndpoint> {
            Box::new(BlastSender {
                flow,
                src: spec.src,
                dst: spec.dst,
                sent: 0,
            })
        }
        fn new_receiver(&self, _flow: FlowId, _spec: &FlowSpec) -> Box<dyn ReceiverEndpoint> {
            Box::new(CountReceiver { got: 0 })
        }
        fn name(&self) -> &'static str {
            "blast"
        }
    }

    fn two_host_sim(rate: Bandwidth, delay: Dur) -> (Simulator<NullApp>, FlowId) {
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, rate, delay);
        t.link(h2, s, rate, delay);
        let net = t.build_drop_tail();
        let mut sim = Simulator::new(net, Box::new(BlastStack), NullApp, SimConfig::default());
        let flow = sim.core_mut().start_flow(FlowSpec {
            src: h1,
            dst: h2,
            bytes: None,
            weight: 1,
        });
        (sim, flow)
    }

    #[test]
    fn store_and_forward_latency_is_exact() {
        // One MSS packet over host -> switch -> host at 1 Gbps with 1 µs
        // propagation per link: 2 × (12 µs serialisation + 1 µs prop).
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut().push_data(flow, MSS);
        sim.run();
        let st = sim.core().flow(flow);
        assert_eq!(st.delivered, MSS);
        assert_eq!(sim.core().now(), Time(2 * (12_000 + 1_000)));
    }

    #[test]
    fn back_to_back_packets_pipeline() {
        // Two packets: the second arrives one serialisation time after
        // the first (pipelined across the two hops).
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut().push_data(flow, MSS);
        sim.core_mut().push_data(flow, MSS);
        sim.run();
        assert_eq!(sim.core().flow(flow).delivered, 2 * MSS);
        assert_eq!(sim.core().now(), Time(2 * (12_000 + 1_000) + 12_000));
    }

    #[test]
    fn host_jitter_delays_but_delivers() {
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, Bandwidth::gbps(1), Dur::micros(1));
        t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
        let net = t.build_drop_tail();
        let mut sim = Simulator::new(
            net,
            Box::new(BlastStack),
            NullApp,
            SimConfig {
                host_jitter: Some((Dur::micros(5), Dur::micros(9))),
                ..Default::default()
            },
        );
        let flow = sim.core_mut().start_flow(FlowSpec {
            src: h1,
            dst: h2,
            bytes: None,
            weight: 1,
        });
        sim.core_mut().push_data(flow, MSS);
        sim.run();
        let base = 2 * (12_000 + 1_000);
        let now = sim.core().now().nanos();
        assert!(now >= base + 5_000 && now <= base + 9_000, "got {now}");
        assert_eq!(sim.core().flow(flow).delivered, MSS);
    }

    #[test]
    fn queue_sampler_records_series() {
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        let sw = sim.core().switch_ids()[0];
        let q = sim.core_mut().add_queue_sampler(QueueSampler {
            node: sw,
            port: 1,
            every: Dur::micros(5),
            until: Some(Time(50_000)),
        });
        for _ in 0..8 {
            sim.core_mut().push_data(flow, MSS);
        }
        sim.run();
        let ts = &sim.core().queue_series()[q];
        assert_eq!(ts.name(), format!("queue.s{}.p1", sw.0));
        assert!(ts.len() >= 9, "only {} samples", ts.len());
        assert!(ts.max_value().unwrap() > 0.0, "queue never observed");
    }

    #[test]
    fn meter_reports_goodput() {
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut().meter_flow(flow, Dur::micros(50));
        for _ in 0..10 {
            sim.core_mut().push_data(flow, MSS);
        }
        sim.run();
        let m = sim.core().flow_meter(flow).expect("meter attached");
        // 10 × 1460 B over ~146 µs of delivery: some window should show
        // close to line-rate goodput.
        assert!(m.series().max_value().unwrap() > 0.5e9);
    }

    #[test]
    fn overflow_drops_are_counted() {
        // 1 kB of switch buffer cannot hold a burst of full frames.
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, Bandwidth::gbps(10), Dur::micros(1));
        t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
        t.switch_buffer(1_000);
        let net = t.build_drop_tail();
        let mut sim = Simulator::new(net, Box::new(BlastStack), NullApp, SimConfig::default());
        let flow = sim.core_mut().start_flow(FlowSpec {
            src: h1,
            dst: h2,
            bytes: None,
            weight: 1,
        });
        for _ in 0..10 {
            sim.core_mut().push_data(flow, MSS);
        }
        sim.run();
        assert!(sim.core().total_drops() > 0);
        assert!(sim.core().flow(flow).delivered < 10 * MSS);
    }

    /// A host's NIC is port 0 of the host: its overflow drops and
    /// transmit bytes are observable like a switch port's.
    #[test]
    fn port_stats_reports_host_nics() {
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, Bandwidth::gbps(1), Dur::micros(1));
        t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
        t.host_buffer(2_000);
        let net = t.build_drop_tail();
        let mut sim = Simulator::new(net, Box::new(BlastStack), NullApp, SimConfig::default());
        let flow = sim.core_mut().start_flow(FlowSpec::open_ended(h1, h2));
        for _ in 0..8 {
            sim.core_mut().push_data(flow, MSS);
        }
        sim.run();
        let nic = sim.core().port_stats(h1, 0);
        let delivered = sim.core().flow(flow).delivered;
        // One full frame fits the 2 kB NIC queue at a time; the burst
        // overflows it.
        assert_eq!(nic.drops, 7);
        assert_eq!(nic.tx_bytes, 1_500);
        assert_eq!(nic.max_queue_bytes, 1_500);
        assert_eq!(delivered, MSS);
        assert_eq!(sim.core().port_stats(h2, 0), PortStats::default());
        assert_eq!(sim.core().total_drops(), 0, "switch ports dropped nothing");
    }

    #[test]
    #[should_panic(expected = "single NIC port")]
    fn port_stats_rejects_a_second_host_port() {
        let (sim, _) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        let host = sim.core().host_ids()[0];
        let _ = sim.core().port_stats(host, 1);
    }

    #[test]
    fn end_time_stops_simulation() {
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut().cfg.end = Some(Time(10_000)); // before delivery
        sim.core_mut().push_data(flow, MSS);
        sim.run();
        assert_eq!(sim.core().flow(flow).delivered, 0);
        assert_eq!(sim.core().now(), Time(10_000));
    }

    /// The flow table's packed record reads back as the state it
    /// encodes: a time that never came is `None`, an open-ended flow has
    /// no size (it opens with `bytes: 0` in the event log, and its FCT
    /// record counts the bytes delivered), and the saturating counters,
    /// weight and class round-trip.
    #[test]
    fn flow_records_read_back_their_encodings() {
        let (t, h, _) = crate::topology::star(2, Bandwidth::gbps(1), Dur::micros(1));
        let cfg = SimConfig {
            telemetry: TelemetryConfig {
                events: telemetry::LogMode::Full,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = Simulator::new(t.build_drop_tail(), Box::new(BlastStack), NullApp, cfg);
        let spec = FlowSpec::open_ended(h[0], h[1]).with_weight(3);
        let flow = sim.core_mut().start_flow(spec);
        sim.core_mut().set_flow_class(flow, 2);
        sim.core_mut().push_data(flow, MSS);
        sim.run();
        let st = sim.core().flow(flow);
        assert_eq!(st.spec, spec);
        assert_eq!(st.spec.bytes, None, "open-ended");
        assert_eq!(st.started_at, Time::ZERO);
        assert_eq!(st.established_at, None, "BlastStack never handshakes");
        assert_eq!((st.receiver_done_at, st.sender_done_at), (None, None));
        assert_eq!((st.delivered, st.timeouts, st.retransmits), (MSS, 0, 0));
        assert_eq!(st.class, 2);
        let opened = sim
            .core()
            .telemetry()
            .log
            .records()
            .iter()
            .find_map(|r| match r.event {
                telemetry::TraceEvent::FlowOpen { flow: f, bytes, .. } if f == flow.0 => {
                    Some(bytes)
                }
                _ => None,
            });
        assert_eq!(opened, Some(0), "an open-ended flow exports bytes: 0");

        let core = sim.core_mut();
        let done = core.now();
        for note in [Note::Timeout, Note::Retransmit, Note::Retransmit] {
            core.handle_note(flow, note);
        }
        core.handle_note(flow, Note::ReceiverDone);
        let st = core.flow(flow);
        assert_eq!((st.timeouts, st.retransmits), (1, 2));
        assert_eq!(st.receiver_done_at, Some(done));
        assert_eq!(st.sender_done_at, None);
        let fct = core.fct();
        let fct = fct.records();
        assert_eq!(
            (fct.len(), fct[0].bytes),
            (1, MSS),
            "FCT of the bytes delivered"
        );

        core.flows[slot(flow)].timeouts = u32::MAX;
        core.handle_note(flow, Note::Timeout);
        assert_eq!(core.flow(flow).timeouts, u64::from(u32::MAX), "saturates");
    }

    #[test]
    fn stale_packets_of_unknown_flows_are_ignored() {
        // Deliver a packet for a flow id that does not exist: no panic.
        let (mut sim, _) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        let hosts = sim.core().host_ids().to_vec();
        let mut pkt = Packet::data(FlowId(999), hosts[0], hosts[1], 0, 100);
        pkt.flags.set(Flags::ACK);
        let pkt = sim.core_mut().packets.alloc(pkt);
        sim.core_mut().events.schedule(
            Time(1),
            Event::Arrival {
                node: hosts[1],
                port: 0,
                pkt,
            },
        );
        sim.run();
        // The stale packet's slot was still recycled.
        assert!(sim.core().packet_arena().is_empty());
        assert_eq!(sim.core().stale_arrivals(), 1);
    }
}

#[cfg(test)]
mod event_log_tests {
    use telemetry::{LogMode, TraceEvent};

    use super::tests::BlastStack;
    use super::*;
    use crate::app::NullApp;
    use crate::packet::MSS;
    use crate::topology::TopologyBuilder;
    use crate::units::Bandwidth;

    /// A burst of full frames into a 2 kB switch buffer, traced with the
    /// telemetry event log: packets reach the switch and the receiver,
    /// the overflow is logged as drops at the switch, the records are
    /// time-ordered, and the run clones no packet and leaks no arena
    /// slot (every allocation reached a free site).
    #[test]
    fn traced_burst_logs_arrivals_and_drops_without_clones_or_leaks() {
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, Bandwidth::gbps(10), Dur::micros(1));
        t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
        t.switch_buffer(2_000);
        let net = t.build_drop_tail();
        let cfg = SimConfig {
            telemetry: TelemetryConfig {
                events: LogMode::Full,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = Simulator::new(net, Box::new(BlastStack), NullApp, cfg);
        let flow = sim.core_mut().start_flow(FlowSpec::open_ended(h1, h2));
        for _ in 0..8 {
            sim.core_mut().push_data(flow, MSS);
        }
        let clones_before = crate::packet::thread_packet_clones();
        sim.run();
        let cloned = crate::packet::thread_packet_clones() - clones_before;
        assert_eq!(cloned, 0, "hot path must not clone packets");

        let log = sim.core().telemetry().log.records();
        let logged = |want: fn(&TraceEvent) -> Option<(u32, u64)>, node: NodeId| {
            log.iter()
                .filter_map(|r| want(&r.event))
                .any(|at| at == (node.0, flow.0))
        };
        let enqueue = |e: &TraceEvent| match *e {
            TraceEvent::PktEnqueue { node, flow, .. } => Some((node, flow)),
            _ => None,
        };
        let deliver = |e: &TraceEvent| match *e {
            TraceEvent::PktDeliver { node, flow, .. } => Some((node, flow)),
            _ => None,
        };
        let drop = |e: &TraceEvent| match *e {
            TraceEvent::PktDrop { node, flow, .. } => Some((node, flow)),
            _ => None,
        };
        assert!(logged(enqueue, s), "no arrival at the switch logged");
        assert!(logged(deliver, h2), "no arrival at the receiver logged");
        assert!(logged(drop, s), "burst into a 2 kB buffer must log drops");
        for (a, b) in log.iter().zip(log.iter().skip(1)) {
            assert!(a.at_ns <= b.at_ns, "records out of time order");
        }
        let arena = sim.core().packet_arena();
        assert!(arena.allocated_total() > 0);
        assert!(arena.is_empty(), "{} packet slots leaked", arena.live());
    }
}

#[cfg(test)]
mod endpoint_table_tests {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::app::NullApp;
    use crate::endpoint::{ReceiverEndpoint, SenderEndpoint};
    use crate::packet::{Flags, Packet};
    use crate::policy::{IngressVerdict, SwitchPolicy};
    use crate::topology::star;
    use crate::units::Bandwidth;

    const BYTES: u64 = 100;

    /// One data packet per flow: the sender emits it on open and is done
    /// at once, the receiver is done on receipt and answers with an ACK.
    /// Every endpoint `on_packet` call bumps the shared counter.
    struct OneShotSender {
        flow: FlowId,
        spec: FlowSpec,
        calls: Arc<AtomicU64>,
    }

    impl SenderEndpoint for OneShotSender {
        fn open(&mut self, _now: Time, fx: &mut Effects) {
            fx.send(Packet::data(
                self.flow,
                self.spec.src,
                self.spec.dst,
                0,
                BYTES,
            ));
            fx.note(Note::SenderDone);
        }
        fn push_data(&mut self, _bytes: u64, _now: Time, _fx: &mut Effects) {}
        fn close(&mut self, _now: Time, _fx: &mut Effects) {}
        fn on_packet(&mut self, _pkt: &Packet, _now: Time, _fx: &mut Effects) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        fn on_timer(&mut self, _token: u64, _now: Time, _fx: &mut Effects) {}
        fn cwnd(&self) -> u64 {
            u64::MAX
        }
        fn acked_bytes(&self) -> u64 {
            0
        }
    }

    struct OneShotReceiver {
        got: u64,
        calls: Arc<AtomicU64>,
    }

    impl ReceiverEndpoint for OneShotReceiver {
        fn on_packet(&mut self, pkt: &Packet, _now: Time, fx: &mut Effects) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.got += pkt.payload;
            fx.send(Packet::ack(pkt.flow, pkt.dst, pkt.src, self.got));
            fx.note(Note::Delivered { bytes: pkt.payload });
            fx.note(Note::ReceiverDone);
        }
        fn delivered_bytes(&self) -> u64 {
            self.got
        }
    }

    struct OneShotStack(Arc<AtomicU64>);

    impl ProtocolStack for OneShotStack {
        fn new_sender(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn SenderEndpoint> {
            Box::new(OneShotSender {
                flow,
                spec: *spec,
                calls: self.0.clone(),
            })
        }
        fn new_receiver(&self, _flow: FlowId, _spec: &FlowSpec) -> Box<dyn ReceiverEndpoint> {
            Box::new(OneShotReceiver {
                got: 0,
                calls: self.0.clone(),
            })
        }
        fn name(&self) -> &'static str {
            "one-shot"
        }
    }

    /// How long [`HoldAcks`] holds each ACK.
    const HOLD: Dur = Dur::micros(100);

    /// Holds every pure ACK entering the switch for [`HOLD`] before
    /// forwarding it, as the TFC delay arbiter holds RMA ACKs.
    #[derive(Default)]
    struct HoldAcks(VecDeque<Packet>);

    impl SwitchPolicy for HoldAcks {
        fn on_ingress(
            &mut self,
            _in_port: usize,
            pkt: &mut Packet,
            _now: Time,
            fx: &mut PolicyFx,
        ) -> IngressVerdict {
            if !pkt.flags.contains(Flags::ACK) || pkt.payload > 0 {
                return IngressVerdict::Forward;
            }
            self.0.push_back(pkt.clone());
            fx.timer(HOLD, 0);
            IngressVerdict::Consume
        }

        fn on_timer(&mut self, _token: u64, _now: Time, fx: &mut PolicyFx) {
            // Every ACK is held equally long, so they leave in order.
            fx.inject(self.0.pop_front().expect("a held ACK"));
        }
    }

    fn sized(src: NodeId, dst: NodeId) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            bytes: Some(BYTES),
            weight: 1,
        }
    }

    /// A star of `hosts` running the one-shot stack and the application
    /// `app` builds from the host ids; its switch holds ACKs if
    /// `hold_acks`.
    fn star_sim<A: Application>(
        hosts: usize,
        cfg: SimConfig,
        hold_acks: bool,
        app: impl FnOnce(&[NodeId]) -> A,
    ) -> (Simulator<A>, Vec<NodeId>, Arc<AtomicU64>) {
        let (t, ids, _) = star(hosts, Bandwidth::gbps(10), Dur::micros(1));
        let net = if hold_acks {
            t.build(|_, _| Box::new(HoldAcks::default()))
        } else {
            t.build_drop_tail()
        };
        let calls = Arc::new(AtomicU64::new(0));
        let stack = Box::new(OneShotStack(calls.clone()));
        let app = app(&ids);
        (Simulator::new(net, stack, app, cfg), ids, calls)
    }

    fn retiring() -> SimConfig {
        SimConfig {
            retire: Some(RetireConfig::default()),
            ..Default::default()
        }
    }

    /// At time `at`, snapshots flow 0 if it is still live and starts
    /// `spec`.
    struct Probe {
        at: Time,
        spec: FlowSpec,
        seen: Option<(Option<FlowState>, FlowId)>,
    }

    impl Application for Probe {
        fn start(&mut self, api: &mut SimApi<'_>) {
            api.set_timer_at(self.at, 0);
        }

        fn on_timer(&mut self, _token: u64, api: &mut SimApi<'_>) {
            let first = FlowId(0);
            let state = api.has_flow(first).then(|| api.flow(first));
            self.seen = Some((state, api.start_flow(self.spec)));
        }
    }

    /// A flow whose ACK the switch still holds after both of its sides
    /// are done is neither retired nor has its id reused until the ACK
    /// reaches its sender; then its id goes to the next flow at once,
    /// the most recently retired first.
    #[test]
    fn held_ack_defers_retirement_and_id_reuse() {
        // Both sides of flow 0 are done ~2 µs in; its ACK is held until
        // ~103 µs.
        let (mut sim, h, calls) = star_sim(4, retiring(), true, |h| Probe {
            at: Time(Dur::micros(20).as_nanos()),
            spec: sized(h[2], h[3]),
            seen: None,
        });
        let old = sim.core_mut().start_flow(sized(h[0], h[1]));
        assert_eq!(old, FlowId(0));
        sim.run();
        let (state, new) = sim.app().seen.expect("the probe ran");
        let state = state.expect("flow retired while its ACK was held");
        assert!(state.receiver_done_at.is_some() && state.sender_done_at.is_some());
        assert_ne!(new, old, "id reused while its ACK was held");
        let core = sim.core();
        assert!(!core.has_flow(old) && !core.has_flow(new), "both retired");
        assert_eq!(core.retirer().expect("retiring").total(), 2);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            4,
            "each ACK reached its sender"
        );
        assert_eq!(core.stale_arrivals(), 0);
        assert!(core.packet_arena().is_empty());
        assert_eq!(core.flow_slab_stats(), (0, 2, 2));
        let next = sim.core_mut().start_flow(sized(h[0], h[1]));
        assert_eq!(next, new, "the last retired id is reused at once");
    }

    /// A retired flow's meter and RTT samples leave the side table with
    /// it: the id's next tenant starts with neither.
    #[test]
    fn retirement_drops_a_flows_extras() {
        let (mut sim, h, _) = star_sim(4, retiring(), false, |_| NullApp);
        let old = sim.core_mut().start_flow(sized(h[0], h[1]));
        sim.core_mut().meter_flow(old, Dur::micros(10));
        sim.core_mut().watch_rtt(old);
        sim.core_mut()
            .handle_note(old, Note::RttSample { nanos: 7 });
        assert!(sim.core().flow_meter(old).is_some());
        assert_eq!(sim.core().rtt_samples(old), &[(0, 7)]);
        sim.run();
        assert!(!sim.core().has_flow(old), "flow retired");
        assert!(sim.core().extras.is_empty(), "its extras left with it");
        assert!(sim.core().flow_meter(old).is_none());
        assert!(sim.core().rtt_samples(old).is_empty());

        let new = sim.core_mut().start_flow(sized(h[2], h[3]));
        assert_eq!(new, old, "retired id reused at once");
        assert!(sim.core().flow_meter(new).is_none(), "no inherited meter");
        sim.core_mut().watch_rtt(new);
        sim.core_mut()
            .handle_note(new, Note::RttSample { nanos: 9 });
        let at = sim.core().now().nanos();
        assert_eq!(
            sim.core().rtt_samples(new),
            &[(at, 9)],
            "no inherited samples"
        );
    }

    /// The endpoint-record slab grows with the flows live at once, not
    /// with the flows ever started or the hosts: 2,000 one-packet flows
    /// started together over a 64-host star take 2,000 records, each
    /// freed once its ACK is delivered, and a second batch of 2,000
    /// reuses those slots. The flow states stay, one per flow.
    #[test]
    fn endpoint_records_size_by_live_flows() {
        const HOSTS: usize = 64;
        const FLOWS: usize = 2_000;
        let (mut sim, h, calls) = star_sim(HOSTS, SimConfig::default(), false, |_| NullApp);
        let mut ids = Vec::new();
        for _batch in 0..2 {
            for i in 0..FLOWS {
                let spec = sized(h[i % HOSTS], h[(i + 1) % HOSTS]);
                ids.push(sim.core_mut().start_flow(spec));
            }
            assert_eq!(sim.core().endpoint_table_capacity(), FLOWS);
            let batch = &ids[ids.len() - FLOWS..];
            assert!(batch.iter().all(|&f| sim.core().sender_cwnd(f).is_some()));
            sim.run();
            assert!(
                ids.iter().all(|&f| sim.core().sender_cwnd(f).is_none()),
                "every delivered flow's endpoints are freed"
            );
        }
        assert_eq!(calls.load(Ordering::Relaxed), 4 * FLOWS as u64);
        assert_eq!(sim.core().flow_slab_stats().2, 2 * FLOWS);
        assert!(sim.core().flows().all(|(_, s)| s.delivered == BYTES));
        assert!(sim.core().flows.iter().all(|(_, r)| r.endpoints == FREED));
    }
}

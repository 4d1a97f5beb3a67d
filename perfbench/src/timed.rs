//! Timing wrappers around each layer's public surface.
//!
//! The benchmark's traced pass builds the simulation through these
//! wrappers instead of the bare policy, stack and application, so every
//! call into the switch policy, the transport endpoints and the workload
//! application is counted and timed from outside the simulator. The simulator
//! itself is unchanged; the untraced pass uses the bare types.
//!
//! Each wrapper accumulates into its own [`LayerTallies`] and folds them
//! into the shared [`Sink`] when it is dropped (senders and receivers
//! when their flow retires or the simulator is dropped, policies with the
//! simulator), so the hot path takes no lock.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use simnet::app::{Application, FlowEvent};
use simnet::endpoint::{Effects, FlowSpec, ProtocolStack, ReceiverEndpoint, SenderEndpoint};
use simnet::node::PortLink;
use simnet::packet::{FlowId, NodeId, Packet};
use simnet::policy::{EgressVerdict, IngressVerdict, PolicyFx, SwitchPolicy};
use simnet::sim::SimApi;
use simnet::units::{Bandwidth, Time};
use tfc::{TfcSwitchConfig, TfcSwitchPolicy};

/// Calls made into one surface and the host time they took.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub nanos: u64,
}

impl Tally {
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.nanos += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    fn add(&mut self, other: Tally) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }

    /// Host seconds spent inside the calls.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// Everything the wrappers count, summed over all wrapped objects.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LayerTallies {
    /// `SwitchPolicy::on_ingress`.
    pub ingress: Tally,
    /// `SwitchPolicy::on_egress`.
    pub egress: Tally,
    /// `SwitchPolicy::on_timer`.
    pub policy_timer: Tally,
    /// `SwitchPolicy::reset_port` calls.
    pub policy_resets: u64,
    /// ACKs the TFC delay arbiters ever held, over every port.
    pub arbiter_delayed: u64,
    /// `ProtocolStack::new_sender` calls.
    pub sender_new: u64,
    /// `SenderEndpoint::on_packet`.
    pub sender_packet: Tally,
    /// `SenderEndpoint::on_timer`.
    pub sender_timer: Tally,
    /// `ReceiverEndpoint::on_packet`.
    pub receiver_packet: Tally,
    /// Payload bytes the senders emitted: first transmissions and
    /// retransmissions alike.
    pub payload_sent: u64,
    /// Every `Application` callback.
    pub app: Tally,
}

impl LayerTallies {
    fn add(&mut self, o: &LayerTallies) {
        self.ingress.add(o.ingress);
        self.egress.add(o.egress);
        self.policy_timer.add(o.policy_timer);
        self.policy_resets += o.policy_resets;
        self.arbiter_delayed += o.arbiter_delayed;
        self.sender_new += o.sender_new;
        self.sender_packet.add(o.sender_packet);
        self.sender_timer.add(o.sender_timer);
        self.receiver_packet.add(o.receiver_packet);
        self.payload_sent += o.payload_sent;
        self.app.add(o.app);
    }
}

/// Where wrappers fold their tallies when dropped.
pub type Sink = Arc<Mutex<LayerTallies>>;

fn flush(sink: &Sink, local: &LayerTallies) {
    // Runs from `Drop`, which must not panic: a poisoned sink only
    // means another wrapper panicked first.
    if let Ok(mut total) = sink.lock() {
        total.add(local);
    }
}

/// The TFC switch policy, timed per hook.
pub struct TimedPolicy {
    inner: TfcSwitchPolicy,
    ports: usize,
    local: LayerTallies,
    sink: Sink,
}

/// A policy factory for `TopologyBuilder::build` that makes timed TFC
/// policies reporting into `sink`.
pub fn timed_tfc_factory(
    cfg: TfcSwitchConfig,
    sink: Sink,
) -> impl FnMut(NodeId, &[PortLink]) -> Box<dyn SwitchPolicy> {
    move |id, links| {
        Box::new(TimedPolicy {
            inner: TfcSwitchPolicy::new(id, links, cfg),
            ports: links.len(),
            local: LayerTallies::default(),
            sink: sink.clone(),
        })
    }
}

impl SwitchPolicy for TimedPolicy {
    fn on_ingress(
        &mut self,
        in_port: usize,
        pkt: &mut Packet,
        now: Time,
        fx: &mut PolicyFx,
    ) -> IngressVerdict {
        self.local
            .ingress
            .time(|| self.inner.on_ingress(in_port, pkt, now, fx))
    }

    fn on_egress(
        &mut self,
        out_port: usize,
        pkt: &mut Packet,
        queue_bytes: u64,
        now: Time,
        fx: &mut PolicyFx,
    ) -> EgressVerdict {
        self.local
            .egress
            .time(|| self.inner.on_egress(out_port, pkt, queue_bytes, now, fx))
    }

    fn on_timer(&mut self, token: u64, now: Time, fx: &mut PolicyFx) {
        self.local
            .policy_timer
            .time(|| self.inner.on_timer(token, now, fx))
    }

    fn reset_port(&mut self, port: usize, rate: Bandwidth, now: Time, fx: &mut PolicyFx) {
        self.local.policy_resets += 1;
        self.inner.reset_port(port, rate, now, fx)
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        self.local.arbiter_delayed = (0..self.ports)
            .map(|p| self.inner.arbiter(p).delayed_total())
            .sum();
        flush(&self.sink, &self.local);
    }
}

/// A protocol stack whose endpoints are timed per call.
pub struct TimedStack {
    inner: Box<dyn ProtocolStack>,
    sink: Sink,
}

impl TimedStack {
    /// Wraps `inner`, reporting into `sink`.
    pub fn new(inner: Box<dyn ProtocolStack>, sink: Sink) -> Self {
        Self { inner, sink }
    }
}

impl ProtocolStack for TimedStack {
    fn new_sender(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn SenderEndpoint> {
        Box::new(TimedSender {
            inner: self.inner.new_sender(flow, spec),
            local: LayerTallies {
                sender_new: 1,
                ..LayerTallies::default()
            },
            sink: self.sink.clone(),
        })
    }

    fn new_receiver(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn ReceiverEndpoint> {
        Box::new(TimedReceiver {
            inner: self.inner.new_receiver(flow, spec),
            local: LayerTallies::default(),
            sink: self.sink.clone(),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A sender endpoint timed per call, counting the payload it emits.
pub struct TimedSender {
    inner: Box<dyn SenderEndpoint>,
    local: LayerTallies,
    sink: Sink,
}

impl TimedSender {
    fn count_emitted(&mut self, fx: &Effects, before: usize) {
        self.local.payload_sent += fx.packets[before..].iter().map(|p| p.payload).sum::<u64>();
    }
}

impl SenderEndpoint for TimedSender {
    fn open(&mut self, now: Time, fx: &mut Effects) {
        let before = fx.packets.len();
        self.inner.open(now, fx);
        self.count_emitted(fx, before);
    }

    fn push_data(&mut self, bytes: u64, now: Time, fx: &mut Effects) {
        let before = fx.packets.len();
        self.inner.push_data(bytes, now, fx);
        self.count_emitted(fx, before);
    }

    fn close(&mut self, now: Time, fx: &mut Effects) {
        let before = fx.packets.len();
        self.inner.close(now, fx);
        self.count_emitted(fx, before);
    }

    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects) {
        let before = fx.packets.len();
        self.local
            .sender_packet
            .time(|| self.inner.on_packet(pkt, now, fx));
        self.count_emitted(fx, before);
    }

    fn on_timer(&mut self, token: u64, now: Time, fx: &mut Effects) {
        let before = fx.packets.len();
        self.local
            .sender_timer
            .time(|| self.inner.on_timer(token, now, fx));
        self.count_emitted(fx, before);
    }

    fn cwnd(&self) -> u64 {
        self.inner.cwnd()
    }

    fn acked_bytes(&self) -> u64 {
        self.inner.acked_bytes()
    }
}

impl Drop for TimedSender {
    fn drop(&mut self) {
        flush(&self.sink, &self.local);
    }
}

/// A receiver endpoint timed per call.
pub struct TimedReceiver {
    inner: Box<dyn ReceiverEndpoint>,
    local: LayerTallies,
    sink: Sink,
}

impl ReceiverEndpoint for TimedReceiver {
    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects) {
        self.local
            .receiver_packet
            .time(|| self.inner.on_packet(pkt, now, fx))
    }

    fn delivered_bytes(&self) -> u64 {
        self.inner.delivered_bytes()
    }
}

impl Drop for TimedReceiver {
    fn drop(&mut self) {
        flush(&self.sink, &self.local);
    }
}

/// A workload application timed per callback.
pub struct TimedApp<A> {
    inner: A,
    tally: Tally,
}

impl<A> TimedApp<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        Self {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<A: Application> Application for TimedApp<A> {
    fn start(&mut self, api: &mut SimApi<'_>) {
        self.tally.time(|| self.inner.start(api))
    }

    fn on_timer(&mut self, token: u64, api: &mut SimApi<'_>) {
        self.tally.time(|| self.inner.on_timer(token, api))
    }

    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        self.tally.time(|| self.inner.on_flow_event(ev, api))
    }
}

/// Uniform access to a workload application, bare or wrapped.
pub trait AppView: Application {
    /// The bare application.
    type Inner;
    /// The bare application.
    fn inner(&self) -> &Self::Inner;
    /// Its callback tally (zero for a bare application).
    fn tally(&self) -> Tally;
}

impl<A: Application> AppView for TimedApp<A> {
    type Inner = A;
    fn inner(&self) -> &A {
        &self.inner
    }
    fn tally(&self) -> Tally {
        self.tally
    }
}

/// Implements [`AppView`] for bare application types.
#[macro_export]
macro_rules! bare_app {
    ($($t:ty),*) => {$(
        impl $crate::timed::AppView for $t {
            type Inner = $t;
            fn inner(&self) -> &$t {
                self
            }
            fn tally(&self) -> $crate::timed::Tally {
                $crate::timed::Tally::default()
            }
        }
    )*};
}

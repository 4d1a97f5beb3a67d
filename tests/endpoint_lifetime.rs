//! Flow lifetime: a finished flow's endpoints are freed, and under
//! retirement the flow is retired, at the first moment nothing can
//! reach them again, and no packet ever reaches a flow after that.
//!
//! A flow's endpoint record is freed once its sender and receiver are
//! done, no timer of the flow is pending and none of its packets is in
//! flight (in the arena, or consumed by a switch policy that has not
//! re-injected it). Each case runs a star incast with fresh connections
//! per round under TFC, DCTCP and TCP, with 3 % loss on the receiver's
//! downlink for the whole run or with one of the fault kinds of
//! `experiments::faults` striking mid-run: a loss burst, an access-link
//! flap, a host stall or a policy reset. (That suite's own flows are
//! backlogged and never finish within its horizon, so nothing there
//! would be freed.) Each case runs once without retirement and once
//! with it, where a retired flow's id is reused at once. Every case
//! asserts:
//!
//! - no packet reaches a host that holds no endpoint of its flow
//!   (`SimCore::stale_arrivals`; in debug builds the simulator also
//!   asserts it at the arrival, and that a packet reaches only the
//!   endpoints of its own host pair);
//! - every completed flow's endpoints are freed;
//! - under retirement, every completed flow is retired and the flow
//!   table drains, and the RTOs of the retired and the live flows add
//!   up to the RTOs of the same run without retirement.
//!
//! The open-loop TFC stream of `tests/sched_equivalence.rs` retires
//! flows while the delay arbiter holds their ACKs; no packet of it
//! reaches a flow either.
//!
//! A policy reset wipes the TFC delay arbiter's held ACKs on the reset
//! port. Each was counted in flight when its receiver sent it; the
//! reset loses it as a policy drop, which counts it out again, so its
//! flow is freed once it completes (its sender retransmits on RTO).
//! `tfc_policy_reset_loses_wiped_acks_as_policy_drops` pins those
//! drops.

use chaos::FaultTimeline;
use experiments::proto::{Proto, ProtoConfig};
use simnet::app::{Application, FlowEvent};
use simnet::endpoint::FlowSpec;
use simnet::packet::{FlowId, NodeId};
use simnet::retire::RetireConfig;
use simnet::sim::{SimApi, SimConfig, Simulator};
use simnet::topology::{leaf_spine, star};
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::TelemetryConfig;
use tfc::config::TfcSwitchConfig;
use tfc::{TfcStack, TfcSwitchPolicy};
use workloads::dist::{background_flow_sizes, cache_follower_flow_sizes};
use workloads::{StreamApp, StreamClass, StreamConfig};

const SENDERS: usize = 16;
const ROUNDS: u32 = 6;

/// What strikes the incast.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// 3 % loss on the receiver's downlink for the whole run (1 s,
    /// several times the rounds' length).
    Lossy,
    /// 10 % loss on the receiver's downlink for 1 ms.
    LossBurst,
    /// The first sender's access link is down for 1 ms.
    LinkFlap,
    /// The second sender stalls for 2 ms.
    HostStall,
    /// The switch port toward the receiver, where the TFC delay arbiter
    /// holds the receiver's ACKs, loses its policy state.
    PolicyReset,
}

const FAULTS: [Fault; 5] = [
    Fault::Lossy,
    Fault::LossBurst,
    Fault::LinkFlap,
    Fault::HostStall,
    Fault::PolicyReset,
];

/// When the loss burst, flap and stall strike: inside the second round.
const FAULT_AT: Time = Time(1_500_000);
/// When the policy reset strikes: in the last round, while the TFC
/// delay arbiter holds an ACK of five of its flows.
const RESET_AT: Time = Time(4_984_000);

/// What one run leaves behind.
struct Outcome {
    /// Flows whose receiver holds the whole block.
    completed: usize,
    /// Completed flows that still hold their endpoints.
    kept: Vec<FlowId>,
    /// Flows retired (0 without retirement).
    retired: u64,
    /// Flows left in the flow table.
    live: usize,
    /// Packets that reached a host holding no endpoint of their flow.
    stale: u64,
    /// Packets left in the arena when the run drained.
    in_arena: usize,
    /// RTOs over all flows: the live flows' and the retired classes'.
    timeouts: u64,
    /// Packets switch policies dropped.
    policy_drops: u64,
}

/// Incast rounds on fresh connections: every sender sends one 64 KB
/// block to the receiver, and the next round starts when the last block
/// of this one is in. Unlike `workloads::IncastApp` it does not stop the
/// run after the last round, so every flow's teardown drains.
struct Rounds {
    senders: Vec<NodeId>,
    receiver: NodeId,
    started: u32,
    completed: usize,
}

impl Rounds {
    fn round(&mut self, api: &mut SimApi<'_>) {
        for &src in &self.senders {
            api.start_flow(FlowSpec::sized(src, self.receiver, 64 * 1024));
        }
        self.started += 1;
    }
}

impl Application for Rounds {
    fn start(&mut self, api: &mut SimApi<'_>) {
        self.round(api);
    }

    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        if let FlowEvent::Completed(_) = ev {
            self.completed += 1;
            if self.completed == self.senders.len() * self.started as usize && self.started < ROUNDS
            {
                self.round(api);
            }
        }
    }
}

fn incast(proto: Proto, fault: Fault, retire: bool) -> Outcome {
    let (mut t, hosts, switch) = star(SENDERS + 1, Bandwidth::gbps(10), Dur::micros(10));
    t.switch_buffer(512 * 1024);
    let proto_cfg = ProtoConfig::ten_gig();
    let net = proto_cfg.build_net(proto, t);
    let app = Rounds {
        senders: hosts[1..].to_vec(),
        receiver: hosts[0],
        started: 0,
        completed: 0,
    };
    let cfg = SimConfig {
        seed: 2016,
        // A backstop only: the runs drain long before.
        end: Some(Time(Dur::secs(60).as_nanos())),
        telemetry: TelemetryConfig::off(),
        retire: retire.then(RetireConfig::default),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(net, proto_cfg.stack(proto), app, cfg);
    // `star` links host i to switch port i: port 0 is the receiver's.
    let timeline = match fault {
        Fault::Lossy => FaultTimeline::new().loss_burst(Time::ZERO, Dur::secs(1), switch, 0, 30),
        Fault::LossBurst => {
            FaultTimeline::new().loss_burst(FAULT_AT, Dur::millis(1), switch, 0, 100)
        }
        Fault::LinkFlap => FaultTimeline::new().link_flap(FAULT_AT, Dur::millis(1), hosts[1], 0),
        Fault::HostStall => FaultTimeline::new().host_stall(FAULT_AT, Dur::millis(2), hosts[2]),
        Fault::PolicyReset => FaultTimeline::new().policy_reset(RESET_AT, switch, 0),
    };
    timeline.install(sim.core_mut());
    sim.run();
    let core = sim.core();
    Outcome {
        completed: sim.app().completed,
        kept: core
            .flows()
            .filter(|&(f, s)| s.receiver_done_at.is_some() && core.sender_cwnd(f).is_some())
            .map(|(f, _)| f)
            .collect(),
        retired: core.retirer().map_or(0, |r| r.total()),
        live: core.flow_slab_stats().0,
        stale: core.stale_arrivals(),
        in_arena: core.packet_arena().live(),
        timeouts: core.flows().map(|(_, s)| s.timeouts).sum::<u64>()
            + core
                .retirer()
                .map_or(0, |r| r.classes().iter().map(|c| c.timeouts).sum()),
        policy_drops: core.policy_drops(),
    }
}

/// Runs every fault under `proto`, with or without retirement.
fn check_freed(proto: Proto, retire: bool) {
    const FLOWS: usize = SENDERS * ROUNDS as usize;
    for fault in FAULTS {
        let out = incast(proto, fault, retire);
        let case = format!("{proto:?} {fault:?} (retire: {retire})");
        assert_eq!(out.completed, FLOWS, "{case}");
        assert_eq!(out.stale, 0, "{case}: packets reached freed flows");
        assert_eq!(out.in_arena, 0, "{case}: the run drained");
        assert_eq!(
            out.kept,
            Vec::<FlowId>::new(),
            "{case}: completed flows kept their endpoints"
        );
        if matches!(fault, Fault::Lossy) {
            assert!(out.timeouts > 0, "{case}: 3 % loss forces RTOs");
        }
        if retire {
            assert_eq!(out.retired, FLOWS as u64, "{case}: every flow retired");
            assert_eq!(out.live, 0, "{case}: the flow table drained");
            let kept = incast(proto, fault, false).timeouts;
            assert_eq!(
                out.timeouts, kept,
                "{case}: retirement lost RTOs of the run without it"
            );
        }
    }
}

#[test]
fn tfc_frees_every_completed_flow() {
    check_freed(Proto::Tfc, false);
}

#[test]
fn dctcp_frees_every_completed_flow() {
    check_freed(Proto::Dctcp, false);
}

#[test]
fn tcp_frees_every_completed_flow() {
    check_freed(Proto::Tcp, false);
}

#[test]
fn tfc_retires_every_completed_flow() {
    check_freed(Proto::Tfc, true);
}

#[test]
fn dctcp_retires_every_completed_flow() {
    check_freed(Proto::Dctcp, true);
}

#[test]
fn tcp_retires_every_completed_flow() {
    check_freed(Proto::Tcp, true);
}

/// The reset wipes one held ACK of each of five flows. Each is lost as
/// a policy drop, so the flows are freed once their senders time out,
/// retransmit and complete.
#[test]
fn tfc_policy_reset_loses_wiped_acks_as_policy_drops() {
    let out = incast(Proto::Tfc, Fault::PolicyReset, false);
    assert_eq!(out.completed, SENDERS * ROUNDS as usize);
    assert_eq!(out.stale, 0, "packets reached freed flows");
    assert_eq!(out.in_arena, 0, "the run drained");
    assert_eq!(out.policy_drops, 5, "one wiped ACK of each of five flows");
    assert_eq!(out.timeouts, 5, "each wiped ACK costs its sender an RTO");
    assert_eq!(
        out.kept,
        Vec::<FlowId>::new(),
        "every completed flow is freed"
    );
}

/// The open-loop TFC stream of `tests/sched_equivalence.rs`: a 3 x 4
/// leaf-spine until 1,500 flows complete, retiring flows and reusing
/// their ids while the delay arbiter holds ACKs. No packet reaches a
/// host that no longer holds its flow, and the flow table never grows
/// past the flows live at once.
#[test]
fn tfc_stream_retires_without_stale_arrivals() {
    let (t, hosts, _) = leaf_spine(
        3,
        4,
        Bandwidth::gbps(10),
        Bandwidth::gbps(40),
        Dur::micros(20),
    );
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let class = |name: &str, mean_interarrival, sizes| StreamClass {
        name: name.into(),
        mean_interarrival,
        sizes,
        weight: 1,
    };
    let app = StreamApp::new(StreamConfig {
        hosts,
        classes: vec![
            class(
                "cache-follower",
                Dur::micros(4),
                cache_follower_flow_sizes(),
            ),
            class("web-search", Dur::micros(40), background_flow_sizes()),
        ],
        target_completed: Some(1_500),
        horizon: None,
        max_active: 0,
    });
    let cfg = SimConfig {
        seed: 23,
        retire: Some(RetireConfig::default()),
        telemetry: TelemetryConfig::off(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(net, Box::new(TfcStack::default()), app, cfg);
    sim.run();
    let core = sim.core();
    assert!(sim.app().completed() >= 1_500);
    let retired = core.retirer().expect("retiring").total();
    let (live, peak, capacity) = core.flow_slab_stats();
    assert_eq!(sim.app().started(), retired + live as u64);
    assert_eq!(core.stale_arrivals(), 0, "packets reached retired flows");
    assert_eq!(capacity, peak, "retired ids are reused at once");
}

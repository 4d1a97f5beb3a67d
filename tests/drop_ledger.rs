//! Every counted packet loss is logged. Under a host stall, the event
//! log's exact `pkt_drop` count equals the tail, fault and no-route drops
//! summed over every switch port and host NIC — including the two drops
//! only a stalled host makes: a packet its endpoints emit into the NIC,
//! and a packet arriving for them. Under a dropping switch policy, and
//! under TFC policy resets that wipe the ACKs a delay arbiter holds, it
//! equals the ports' drops plus the simulator's policy drops.

use chaos::timeline::FaultTimeline;
use experiments::{Proto, ProtoConfig};
use simnet::app::NullApp;
use simnet::endpoint::FlowSpec;
use simnet::packet::NodeId;
use simnet::policy::PeriodicLoss;
use simnet::sim::{SimConfig, SimCore, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::{LogMode, TelemetryConfig, TraceConfig, TraceEvent};
use workloads::onoff::{OnOffApp, OnOffFlow};

const MS: u64 = 1_000_000;
const HORIZON: u64 = 300 * MS;

/// The tail, fault and no-route drops of a star's switch `sw` (one port
/// per host) and host NICs.
fn port_drops(core: &SimCore, sw: NodeId, hosts: &[NodeId]) -> u64 {
    let ports = (0..hosts.len())
        .map(|p| (sw, p))
        .chain(hosts.iter().map(|&h| (h, 0)));
    ports
        .map(|(node, p)| {
            let s = core.port_stats(node, p);
            s.drops + s.fault_drops + s.no_route_drops
        })
        .sum()
}

fn full_log() -> TelemetryConfig {
    TelemetryConfig {
        events: LogMode::Full,
        trace: TraceConfig::Full,
        ..TelemetryConfig::default()
    }
}

fn stalled_star(proto: Proto) {
    let senders = 4;
    let (t, hosts, sw) = star(senders + 1, Bandwidth::gbps(1), Dur::nanos(500));
    let (receiver, victim) = (hosts[senders], hosts[0]);
    let proto_cfg = ProtoConfig::default();
    let mut flows: Vec<OnOffFlow> = hosts[..senders]
        .iter()
        .map(|&src| OnOffFlow {
            src,
            dst: receiver,
            active: vec![(0, HORIZON)],
        })
        .collect();
    // A second flow of the victim's: one 128 KB chunk at the start,
    // long delivered when the stall strikes, and more data from its
    // application in the middle of the stall.
    flows.push(OnOffFlow {
        src: victim,
        dst: receiver,
        active: vec![(0, 1), (100 * MS, HORIZON)],
    });
    let mut sim = Simulator::new(
        proto_cfg.build_net(proto, t),
        proto_cfg.stack(proto),
        OnOffApp::new(flows, 128 * 1024),
        SimConfig {
            seed: 3,
            end: Some(Time(HORIZON)),
            host_jitter: None,
            telemetry: full_log(),
            ..Default::default()
        },
    );
    // The stall outlasts the 200 ms minimum RTO: the receiver's ACKs
    // for the victim's in-flight data arrive at a stalled host, and the
    // idle flow's sender, handed data by its application, emits into
    // its stalled NIC. (The busy flow's timers wait for the resume.)
    FaultTimeline::new()
        .host_stall(Time(20 * MS), Dur::millis(250), victim)
        .install(sim.core_mut());
    sim.run();

    let core = sim.core();
    let counted = port_drops(core, sw, &hosts);
    let log = &core.telemetry().log;
    assert!(
        core.port_stats(victim, 0).fault_drops > 0,
        "the stall drops packets"
    );
    assert_eq!(
        log.count_of("pkt_drop"),
        counted,
        "{proto:?}: logged drops reconcile"
    );

    // Both stalled-host paths are among the logged drops: what the idle
    // flow's sender emitted (nothing of that flow was in flight when
    // the stall struck), and the ACK-sized packets sent to the busy one.
    let [busy, idle] = [0, senders].map(|i| sim.app().flow_ids()[i].0);
    let victim_drops: Vec<(u64, u64)> = log
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::PktDrop {
                node, flow, bytes, ..
            } if node == victim.0 => Some((flow, bytes)),
            _ => None,
        })
        .collect();
    assert!(
        victim_drops.iter().any(|&(f, _)| f == idle),
        "{proto:?}: an emitted packet is logged"
    );
    assert!(
        victim_drops.contains(&(busy, 64)),
        "{proto:?}: an arriving ACK is logged"
    );
}

#[test]
fn stalled_host_drops_reconcile_with_port_counters_tfc() {
    stalled_star(Proto::Tfc);
}

#[test]
fn stalled_host_drops_reconcile_with_port_counters_tcp() {
    stalled_star(Proto::Tcp);
}

/// A stalled host runs none of its timers: a probe or RTO that comes
/// due is parked until the host resumes. A 250 ms stall of a sender
/// with data in flight, longer than its 200 ms minimum RTO and many
/// times its probe timeout, loses the ACKs sent to it but no data
/// packet at its NIC, and every flow completes after the resume.
#[test]
fn stalled_sender_defers_its_timers_to_resume() {
    for proto in [Proto::Tfc, Proto::Dctcp, Proto::Tcp] {
        let (t, hosts, _) = star(3, Bandwidth::gbps(1), Dur::micros(1));
        let (victim, receiver) = (hosts[0], hosts[2]);
        let proto_cfg = ProtoConfig::default();
        let mut sim = Simulator::new(
            proto_cfg.build_net(proto, t),
            proto_cfg.stack(proto),
            NullApp,
            SimConfig {
                end: Some(Time(HORIZON)),
                telemetry: full_log(),
                ..Default::default()
            },
        );
        let flows = [victim, hosts[1]].map(|src| {
            sim.core_mut()
                .start_flow(FlowSpec::sized(src, receiver, 2_000_000))
        });
        let stall = Time(2 * MS);
        FaultTimeline::new()
            .host_stall(stall, Dur::millis(250), victim)
            .install(sim.core_mut());
        sim.run();

        let core = sim.core();
        for f in flows {
            assert!(
                core.flow(f).receiver_done_at.is_some(),
                "{proto:?}: flow {f:?} completes"
            );
        }
        let victim_drops: Vec<u64> = core
            .telemetry()
            .log
            .records()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::PktDrop { node, bytes, .. } if node == victim.0 => Some(bytes),
                _ => None,
            })
            .collect();
        assert!(!victim_drops.is_empty(), "{proto:?}: the stall drops ACKs");
        assert!(
            victim_drops.iter().all(|&b| b == 64),
            "{proto:?}: a data packet was lost at the stalled NIC: {victim_drops:?}"
        );
    }
}

/// Packets a switch policy discards are counted by the simulator, not a
/// port, and logged like every other drop: two TCP senders through a
/// switch that drops every 23rd data packet it forwards.
#[test]
fn policy_drops_reconcile_with_the_log() {
    let (t, hosts, sw) = star(3, Bandwidth::gbps(1), Dur::micros(1));
    let net = t.build(|_, _| Box::new(PeriodicLoss::new(23)));
    let mut sim = Simulator::new(
        net,
        ProtoConfig::default().stack(Proto::Tcp),
        NullApp,
        SimConfig {
            end: Some(Time(HORIZON)),
            telemetry: full_log(),
            ..Default::default()
        },
    );
    for &src in &hosts[..2] {
        sim.core_mut().start_flow(FlowSpec {
            src,
            dst: hosts[2],
            bytes: Some(400_000),
            weight: 1,
        });
    }
    sim.run();

    let core = sim.core();
    assert!(core.policy_drops() > 0, "the policy drops packets");
    assert_eq!(
        core.telemetry().log.count_of("pkt_drop"),
        port_drops(core, sw, &hosts) + core.policy_drops(),
        "logged drops reconcile"
    );
}

/// ACKs a TFC delay arbiter holds when a policy reset wipes its port are
/// lost as policy drops, and logged: sixteen backlogged TFC senders into
/// one 1 Gbps receiver, whose switch port (where the arbiter holds the
/// receiver's ACKs) is reset every millisecond for 20 ms.
#[test]
fn policy_reset_drops_reconcile_with_the_log() {
    let senders = 16;
    let (t, hosts, sw) = star(senders + 1, Bandwidth::gbps(1), Dur::micros(1));
    let receiver = hosts[senders];
    let proto_cfg = ProtoConfig::default();
    let flows = hosts[..senders]
        .iter()
        .map(|&src| OnOffFlow {
            src,
            dst: receiver,
            active: vec![(0, 40 * MS)],
        })
        .collect();
    let mut sim = Simulator::new(
        proto_cfg.build_net(Proto::Tfc, t),
        proto_cfg.stack(Proto::Tfc),
        OnOffApp::new(flows, 128 * 1024),
        SimConfig {
            seed: 5,
            end: Some(Time(HORIZON)),
            telemetry: full_log(),
            ..Default::default()
        },
    );
    // `star` links host i to switch port i.
    let timeline = (1..=20).fold(FaultTimeline::new(), |t, ms| {
        t.policy_reset(Time(ms * MS), sw, senders)
    });
    timeline.install(sim.core_mut());
    sim.run();

    let core = sim.core();
    assert!(core.policy_drops() > 0, "a reset wipes held ACKs");
    assert_eq!(
        core.telemetry().log.count_of("pkt_drop"),
        port_drops(core, sw, &hosts) + core.policy_drops(),
        "logged drops reconcile"
    );
}

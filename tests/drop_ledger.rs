//! Every counted packet loss is logged. Under a host stall, the event
//! log's exact `pkt_drop` count equals the tail, fault and no-route drops
//! summed over every switch port and host NIC — including the two drops
//! only a stalled host makes: a packet its endpoints emit into the NIC,
//! and a packet arriving for them.

use chaos::timeline::FaultTimeline;
use experiments::{Proto, ProtoConfig};
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::{LogMode, TelemetryConfig, TraceConfig, TraceEvent};
use workloads::onoff::{OnOffApp, OnOffFlow};

const MS: u64 = 1_000_000;
const HORIZON: u64 = 300 * MS;

fn stalled_star(proto: Proto) {
    let senders = 4;
    let (t, hosts, sw) = star(senders + 1, Bandwidth::gbps(1), Dur::nanos(500));
    let (receiver, victim) = (hosts[senders], hosts[0]);
    let proto_cfg = ProtoConfig::default();
    let flows = hosts[..senders]
        .iter()
        .map(|&src| OnOffFlow {
            src,
            dst: receiver,
            active: vec![(0, HORIZON)],
        })
        .collect();
    let mut sim = Simulator::new(
        proto_cfg.build_net(proto, t),
        proto_cfg.stack(proto),
        OnOffApp::new(flows, 128 * 1024),
        SimConfig {
            seed: 3,
            end: Some(Time(HORIZON)),
            host_jitter: None,
            telemetry: TelemetryConfig {
                events: LogMode::Full,
                trace: TraceConfig::Full,
                ..TelemetryConfig::default()
            },
            ..Default::default()
        },
    );
    // The stall outlasts the 200 ms minimum RTO: the receiver's ACKs
    // for the victim's in-flight data arrive at a stalled host, and the
    // victim's sender then retransmits into its stalled NIC.
    FaultTimeline::new()
        .host_stall(Time(4 * MS), Dur::millis(250), victim)
        .install(sim.core_mut());
    sim.run();

    let core = sim.core();
    let ports = (0..=senders)
        .map(|p| (sw, p))
        .chain(hosts.iter().map(|&h| (h, 0)));
    let counted: u64 = ports
        .map(|(node, p)| {
            let s = core.port_stats(node, p);
            s.drops + s.fault_drops + s.no_route_drops
        })
        .sum();
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

    // Both stalled-host paths are among the logged drops: data the
    // victim's sender emitted, and the ACK-sized packets sent to it.
    let victim_drops: Vec<u64> = log
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::PktDrop { node, bytes, .. } if node == victim.0 => Some(bytes),
            _ => None,
        })
        .collect();
    assert!(
        victim_drops.iter().any(|&b| b > 64),
        "{proto:?}: an emitted packet is logged"
    );
    assert!(
        victim_drops.contains(&64),
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

//! TFC's cold start (DESIGN §4b, deviation 8): a switch port that has
//! not yet measured `rtt_b` takes a provisional pipe from its delimiter's
//! SYN → window-probe interval, so a fresh flow's first data round
//! carries `T / E` instead of a 4-MSS cap. A flow then needs the
//! handshake, the window probe and one data round trip, plus its
//! serialisation.
//!
//! Both runs use the benchmark fabric's links (10 Gbps hosts, 40 Gbps
//! fabric, 5 us per link) on smaller fat-trees.

use rng::{Rng, SeedableRng};
use simnet::app::NullApp;
use simnet::endpoint::FlowSpec;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::fat_tree;
use simnet::units::{Bandwidth, Dur};
use telemetry::TelemetryConfig;
use tfc::config::TfcSwitchConfig;
use tfc::{TfcStack, TfcSwitchPolicy};

const HOST_RATE: Bandwidth = Bandwidth::gbps(10);
const LINK_DELAY: Dur = Dur::micros(5);

/// A sized flow between two host indices.
type Flow = (usize, usize, u64);

/// Runs `flows`, all started at once, on a k-ary TFC fat-tree; returns
/// each flow's completion time in nanoseconds.
fn fcts(k: usize, flows: &[Flow]) -> Vec<u64> {
    let (t, hosts, _) = fat_tree(k, HOST_RATE, Bandwidth::gbps(40), LINK_DELAY);
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        NullApp,
        SimConfig {
            telemetry: TelemetryConfig::off(),
            ..SimConfig::default()
        },
    );
    let ids: Vec<_> = flows
        .iter()
        .map(|&(s, d, b)| {
            sim.core_mut()
                .start_flow(FlowSpec::sized(hosts[s], hosts[d], b))
        })
        .collect();
    sim.run();
    ids.iter()
        .map(|&f| {
            let st = sim.core().flow(f);
            let done = st.receiver_done_at.expect("every flow completes");
            (done - st.started_at).as_nanos()
        })
        .collect()
}

/// One-way propagation time between two host indices.
fn one_way_ns(k: usize, s: usize, d: usize) -> u64 {
    let half = k / 2;
    let links = if s / half == d / half {
        2 // same edge switch
    } else if s / (half * half) == d / (half * half) {
        4 // same pod
    } else {
        6
    };
    links * LINK_DELAY.as_nanos()
}

/// The earliest a TFC receiver can hold a flow's last byte: the SYN,
/// SYN-ACK, window probe and its RMA, then the data one way (five
/// one-way trips), plus serialisation at the host rate.
fn ideal_ns(k: usize, (s, d, bytes): Flow) -> u64 {
    5 * one_way_ns(k, s, d) + HOST_RATE.serialize(bytes).as_nanos()
}

#[test]
fn a_lone_flow_needs_one_data_round_trip() {
    let k = 4;
    let flow = (0, k * k * k / 4 - 1, 24_122);
    let fct = fcts(k, &[flow])[0];
    // Handshake, window probe and one data round trip, plus
    // serialisation, with 10 % to spare.
    let bound = 6 * one_way_ns(k, flow.0, flow.1) + HOST_RATE.serialize(flow.2).as_nanos();
    assert!(
        fct * 10 <= bound * 11,
        "{fct} ns against a bound of {bound} ns"
    );
}

#[test]
fn lone_flows_of_a_seeded_matrix_finish_near_ideal() {
    let k = 8;
    let n_hosts = k * k * k / 4;
    let mut rng = rng::rngs::StdRng::seed_from_u64(2016);
    let flows: Vec<Flow> = (0..48)
        .map(|_| {
            let s = rng.gen_range(0..n_hosts);
            let mut d = rng.gen_range(0..n_hosts - 1);
            if d >= s {
                d += 1;
            }
            (s, d, rng.gen_range(20_000u64..400_000))
        })
        .collect();
    let fct = fcts(k, &flows);
    // Flows that share neither host with another flow.
    let mut uses = vec![0u32; n_hosts];
    for &(s, d, _) in &flows {
        uses[s] += 1;
        uses[d] += 1;
    }
    let mut slowdowns: Vec<f64> = flows
        .iter()
        .zip(&fct)
        .filter(|((s, d, _), _)| uses[*s] == 1 && uses[*d] == 1)
        .map(|(&f, &t)| t as f64 / ideal_ns(k, f) as f64)
        .collect();
    assert!(slowdowns.len() >= 10, "{} lone flows", slowdowns.len());
    slowdowns.sort_by(f64::total_cmp);
    let median = slowdowns[slowdowns.len() / 2];
    // 1.04 here; 1.45 under the unconditional 4-MSS cap. (Against one
    // base RTT plus serialisation instead: 1.55 and 2.10.)
    assert!(median <= 1.2, "median slowdown {median:.3} of lone flows");
}

//! Storm-style on-off flows (§2, §4.2): connections stay open but
//! transmit intermittently. The switch's effective-flow count must track
//! only the *active* flows, so silent flows donate their bandwidth
//! instantly — the paper's answer to D3-style SYN/FIN counting.
//!
//! Run with `cargo run --release --example storm_onoff`.

use simnet::sim::{SimConfig, Simulator};
use simnet::topology::testbed;
use simnet::units::{Dur, Time};
use telemetry::TelemetryConfig;
use tfc::config::TfcSwitchConfig;
use tfc::{TfcStack, TfcSwitchPolicy};
use workloads::{OnOffApp, OnOffFlow};

fn main() {
    let (topo, hosts, switches) = testbed(Dur::nanos(500));
    let net = topo.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));

    // Two executors exchange messages continuously; three more wake for
    // 30 ms bursts, one after another — an on-off pattern like Storm's.
    let step = Dur::millis(30).as_nanos();
    let horizon = 8 * step;
    let h6 = hosts[5];
    let mut flows = vec![
        OnOffFlow {
            src: hosts[3],
            dst: h6,
            active: vec![(0, horizon)],
        },
        OnOffFlow {
            src: hosts[4],
            dst: h6,
            active: vec![(0, horizon)],
        },
    ];
    for i in 0..3u64 {
        flows.push(OnOffFlow {
            src: hosts[0],
            dst: h6,
            active: vec![((i + 1) * step, (i + 2) * step)],
        });
    }
    let app = OnOffApp::new(flows, 64 * 1024).with_meters(Dur::millis(5));
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        app,
        SimConfig {
            end: Some(Time(horizon)),
            telemetry: TelemetryConfig {
                tfc_gauges: true,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    sim.run();

    // Print the measured effective-flow count per 30 ms phase.
    let nf2 = switches[2];
    let port = sim.core().route_of(nf2, h6).expect("route");
    let ne: Vec<_> = sim
        .core()
        .telemetry()
        .slots
        .iter()
        .filter(|s| s.node == nf2.0 && usize::from(s.port) == port)
        .collect();
    println!("phase | active flows | measured Ne (switch)");
    for w in 0..8u64 {
        let vals: Vec<f64> = ne
            .iter()
            .filter(|s| (w * step..(w + 1) * step).contains(&s.at_ns))
            .map(|s| s.effective_flows)
            .collect();
        if vals.is_empty() {
            continue;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let active = 2 + u64::from((1..=3).contains(&w));
        println!("{w:>5} | {active:>12} | {mean:>8.2}");
    }
    println!();
    println!("The silent flows vanish from Ne within one slot — their");
    println!("bandwidth flows back to the active executors (paper Fig. 7).");
}

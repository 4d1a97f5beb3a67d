//! Headline claims of the paper as executable assertions, beyond the
//! per-figure experiments: RTT-biased fairness (§4.1), equal windows for
//! unequal paths, single-flow zero queueing, and fast window handoff
//! when a flow departs.

use simnet::app::NullApp;
use simnet::endpoint::FlowSpec;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::testbed;
use simnet::units::{Dur, Time};
use tfc::config::TfcSwitchConfig;
use tfc::{TfcStack, TfcSwitchPolicy};

/// §4.1: "we allocate an equal window to every flow passing the same
/// port" — so an intra-rack and a cross-rack flow sharing a bottleneck
/// get equal windows, and the longer-RTT flow gets proportionally less
/// throughput (fairness *with RTT bias*).
#[test]
fn equal_windows_mean_rtt_biased_throughput() {
    let (t, hosts, _) = testbed(Dur::micros(20));
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        NullApp,
        SimConfig {
            end: Some(Time(Dur::millis(120).as_nanos())),
            ..Default::default()
        },
    );
    // H4 -> H6 is intra-rack (2 hops); H1 -> H6 crosses the core (4).
    let near = sim
        .core_mut()
        .start_flow(FlowSpec::open_ended(hosts[3], hosts[5]));
    let far = sim
        .core_mut()
        .start_flow(FlowSpec::open_ended(hosts[0], hosts[5]));
    sim.core_mut().push_data(near, 64 << 20);
    sim.core_mut().push_data(far, 64 << 20);
    sim.run();

    let d_near = sim.core().flow(near).delivered as f64;
    let d_far = sim.core().flow(far).delivered as f64;
    // Equal windows: the sender-side cwnds end up within 2x of each
    // other (same stamp at the shared bottleneck; the far flow may be
    // clamped lower by the extra hop).
    let w_near = sim.core().sender_cwnd(near).unwrap() as f64;
    let w_far = sim.core().sender_cwnd(far).unwrap() as f64;
    let w_ratio = w_near / w_far;
    assert!(
        (0.5..=2.0).contains(&w_ratio),
        "window ratio {w_ratio:.2} ({w_near} vs {w_far})"
    );
    // Throughput is RTT-biased: the near flow gets more, but not
    // absurdly more (its RTT is roughly half).
    let t_ratio = d_near / d_far;
    assert!(
        (1.05..=4.0).contains(&t_ratio),
        "throughput ratio {t_ratio:.2}"
    );
    assert_eq!(sim.core().total_drops(), 0);
}

/// Zero-queueing with a single long flow: after the token converges, the
/// bottleneck queue holds at most a couple of packets.
#[test]
fn single_flow_steady_state_queue_is_packets() {
    let (t, hosts, switches) = testbed(Dur::micros(20));
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        NullApp,
        SimConfig {
            end: Some(Time(Dur::millis(100).as_nanos())),
            ..Default::default()
        },
    );
    let flow = sim
        .core_mut()
        .start_flow(FlowSpec::open_ended(hosts[0], hosts[5]));
    sim.core_mut().push_data(flow, 64 << 20);
    // Sample the bottleneck (NF2 toward H6) only after convergence.
    let nf2 = switches[2];
    let port = sim.core().route_of(nf2, hosts[5]).unwrap();
    let sampler = sim.core_mut().add_queue_sampler(simnet::QueueSampler {
        node: nf2,
        port,
        every: Dur::millis(1),
        until: None,
    });
    sim.run();
    let late: Vec<f64> = sim.core().queue_series()[sampler]
        .window(Dur::millis(40).as_nanos(), u64::MAX)
        .map(|(_, v)| v)
        .collect();
    let mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
    assert!(mean < 4_500.0, "steady queue {mean:.0} bytes (~3 packets)");
    // And the link is busy: delivered at ≥ 85% of capacity.
    let bps = sim.core().flow(flow).delivered as f64 * 8.0 / 0.1;
    assert!(bps > 0.85e9, "single flow got only {bps:.2e}");
}

/// When one of two flows finishes, the survivor absorbs the freed
/// bandwidth within a few slots (the fast-handoff property that SYN/FIN
/// counting schemes like D3 get wrong for silent flows).
#[test]
fn departing_flow_hands_bandwidth_over_quickly() {
    let (t, hosts, _) = testbed(Dur::micros(20));
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        NullApp,
        SimConfig {
            end: Some(Time(Dur::millis(120).as_nanos())),
            ..Default::default()
        },
    );
    // A sized flow that finishes around the middle of the run, and a
    // metered survivor.
    let survivor = sim
        .core_mut()
        .start_flow(FlowSpec::open_ended(hosts[0], hosts[5]));
    sim.core_mut().push_data(survivor, 64 << 20);
    sim.core_mut().meter_flow(survivor, Dur::millis(5));
    let departer = sim
        .core_mut()
        .start_flow(FlowSpec::sized(hosts[3], hosts[5], 3_000_000));
    sim.run();

    let gone_at = sim
        .core()
        .flow(departer)
        .receiver_done_at
        .expect("departer finished")
        .nanos();
    let meter = sim.core().flow_meter(survivor).unwrap();
    let before: Vec<f64> = meter
        .series()
        .window(gone_at.saturating_sub(20_000_000), gone_at)
        .map(|(_, v)| v)
        .collect();
    let after: Vec<f64> = meter
        .series()
        .window(gone_at + 10_000_000, gone_at + 40_000_000)
        .map(|(_, v)| v)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (b, a) = (mean(&before), mean(&after));
    assert!(
        a > b * 1.4,
        "survivor goodput before {b:.2e} vs after {a:.2e}"
    );
    assert!(a > 0.85e9, "survivor did not absorb the link: {a:.2e}");
}

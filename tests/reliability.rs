//! Reliability under injected loss: every protocol must deliver the
//! exact byte stream despite drops, recovering by fast retransmit,
//! TFC's tail-loss probe or RTO. Loss is injected deterministically at
//! the switch, so every run's retransmit count, timeout count and
//! completion time are exact and pinned: a change to the loss path
//! shows up here first.

use simnet::app::NullApp;
use simnet::endpoint::{FlowSpec, ProtocolStack};
use simnet::policy::PeriodicLoss;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use tfc::TfcStack;
use transport::{DctcpStack, TcpStack};

const FLOW_BYTES: u64 = 400_000;

/// Outcome of one lossy transfer: delivered bytes, retransmits,
/// timeouts and the receiver's completion time in nanoseconds.
type Outcome = (u64, u64, u64, u64);

fn run_with_loss(stack: Box<dyn ProtocolStack>, period: u64) -> Outcome {
    let (t, hosts, _) = star(2, Bandwidth::gbps(1), Dur::micros(1));
    let net = t.build(move |_, _| Box::new(PeriodicLoss::new(period)));
    let mut sim = Simulator::new(
        net,
        stack,
        NullApp,
        SimConfig {
            // Generous bound: multiple RTO backoffs fit.
            end: Some(Time(Dur::secs(30).as_nanos())),
            ..Default::default()
        },
    );
    let flow = sim.core_mut().start_flow(FlowSpec {
        src: hosts[0],
        dst: hosts[1],
        bytes: Some(FLOW_BYTES),
        weight: 1,
    });
    sim.run();
    let st = sim.core().flow(flow);
    let done = st
        .receiver_done_at
        .unwrap_or_else(|| panic!("flow did not complete under loss period {period}"));
    (st.delivered, st.retransmits, st.timeouts, done.0)
}

#[test]
fn tcp_delivers_exactly_under_loss() {
    // (period, retransmits, timeouts, receiver done at ns)
    for (period, retx, timeouts, done) in [
        (7, 59, 56, 11_205_532_080),
        (23, 12, 0, 3_451_728),
        (101, 2, 0, 3_348_752),
    ] {
        let out = run_with_loss(Box::new(TcpStack::default()), period);
        assert_eq!(out, (FLOW_BYTES, retx, timeouts, done), "period {period}");
    }
}

#[test]
fn dctcp_delivers_exactly_under_loss() {
    let out = run_with_loss(Box::new(DctcpStack::default()), 13);
    assert_eq!(out, (FLOW_BYTES, 22, 0, 4_409_552));
}

#[test]
fn tfc_delivers_exactly_under_loss() {
    // (period, retransmits, timeouts, receiver done at ns). TFC's
    // windows of about one packet rarely collect three duplicate ACKs;
    // the tail-loss probe resends the head a few smoothed RTTs into a
    // silence, so each loss costs round trips, not the 200 ms min-RTO
    // (without it: 39, 1, 206.5 ms; 12, 2, 405.9 ms; 2, 1, 203.4 ms).
    for (period, retx, timeouts, done) in [
        (7, 50, 0, 13_484_688),
        (23, 15, 0, 5_357_968),
        (101, 5, 0, 3_529_456),
    ] {
        let out = run_with_loss(Box::new(TfcStack::default()), period);
        assert_eq!(out, (FLOW_BYTES, retx, timeouts, done), "period {period}");
        assert_eq!(out.2, 0, "period {period}: no loss waits for an RTO");
        assert!(
            out.3 < Dur::millis(20).as_nanos(),
            "period {period}: done at {} ns, not within 20 ms",
            out.3
        );
    }
}

#[test]
fn heavy_loss_still_completes() {
    // Every 3rd data packet dropped: recovery leans on RTO chains.
    let out = run_with_loss(Box::new(TcpStack::default()), 3);
    assert_eq!(out, (FLOW_BYTES, 109, 107, 21_405_470_320));
}

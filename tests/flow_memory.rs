//! A completed flow keeps only its record and its endpoints: its
//! `FlowState` slab slot, its two endpoint-table slots and the sender
//! and receiver boxes. The receiver's reorder map and the flow's timer
//! list are freed once they drain.
//!
//! The shared counting allocator (`tests/common`) tracks live blocks
//! and bytes. The test runs a TFC incast with fresh connections per
//! round and no flow retirement, under a loss burst that spans the run
//! so the reorder path and RTOs run in every round, at two round
//! counts. The extra rounds' completed flows may add at most 2 live
//! heap blocks each: the two endpoint boxes (slab and table growth
//! reallocates, so it adds bytes but no blocks). Keeping the drained
//! reorder node and timer list made it 4. This binary holds exactly one
//! test, so no other thread allocates while it measures.

use chaos::FaultTimeline;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::TelemetryConfig;
use tfc::{TfcStack, TfcSwitchConfig, TfcSwitchPolicy};
use workloads::{IncastApp, IncastConfig};

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

const SENDERS: usize = 16;
/// Live heap blocks a completed flow may hold: its two endpoint boxes.
const BLOCKS_PER_FLOW: f64 = 2.0;

/// What one incast run leaves live when it stops.
struct Held {
    flows: usize,
    blocks: usize,
    bytes: usize,
    retransmits: u64,
    timeouts: u64,
}

/// Runs `rounds` incast rounds and measures the live heap the simulator
/// holds at the end, over what was live before it was built.
fn incast(rounds: u32) -> Held {
    let (blocks0, bytes0) = (common::blocks(), common::live());
    let (mut t, hosts, switch) = star(SENDERS + 1, Bandwidth::gbps(10), Dur::micros(10));
    t.switch_buffer(512 * 1024);
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let app = IncastApp::new(IncastConfig {
        senders: hosts[1..].to_vec(),
        receiver: hosts[0],
        block_bytes: 64 * 1024,
        rounds,
        request_delay: Dur::micros(20),
        fresh_per_round: true,
    });
    let cfg = SimConfig {
        seed: 2016,
        telemetry: TelemetryConfig::off(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(net, Box::new(TfcStack::default()), app, cfg);
    // 3 % loss on the receiver's downlink (`star` puts host i on switch
    // port i) for the whole run.
    FaultTimeline::new()
        .loss_burst(Time::ZERO, Dur::secs(60), switch, 0, 30)
        .install(sim.core_mut());
    sim.run();
    assert_eq!(sim.app().rounds_done(), rounds, "every round finishes");
    let held = Held {
        flows: sim.core().flows().count(),
        blocks: common::blocks() - blocks0,
        bytes: common::live() - bytes0,
        retransmits: sim.core().flows().map(|(_, s)| s.retransmits).sum(),
        timeouts: sim.core().flows().map(|(_, s)| s.timeouts).sum(),
    };
    drop(sim);
    held
}

#[test]
fn completed_flows_hold_two_heap_blocks() {
    let short = incast(8);
    let long = incast(24);
    for run in [&short, &long] {
        assert!(run.retransmits > 0, "the loss burst forces retransmits");
        assert!(run.timeouts > 0, "the loss burst forces RTOs");
    }
    let flows = (long.flows - short.flows) as f64;
    let blocks = (long.blocks as f64 - short.blocks as f64) / flows;
    let bytes = (long.bytes as f64 - short.bytes as f64) / flows;
    println!(
        "{flows} extra completed flows: {blocks:.2} live blocks and {bytes:.0} live bytes each \
         ({} retransmits, {} RTOs in the long run)",
        long.retransmits, long.timeouts
    );
    assert!(
        blocks <= BLOCKS_PER_FLOW,
        "each extra completed flow holds {blocks:.2} live heap blocks (bound {BLOCKS_PER_FLOW})"
    );
}

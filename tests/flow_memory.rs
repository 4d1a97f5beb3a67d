//! A completed flow keeps only its record: its 80-byte slot in the
//! flow table, from which `SimCore::fct` builds its FCT record on
//! demand. Its endpoints, timer list and transport scratch state are
//! freed once no packet or timer can reach the flow any more
//! (`SimCore::free_if_unreachable`).
//!
//! The shared counting allocator (`tests/common`) tracks live blocks
//! and bytes. The test runs a TFC incast with fresh connections per
//! round and no flow retirement, under a loss burst that spans the run
//! so the reorder path and RTOs run in every round, at two round
//! counts. The extra rounds' completed flows may add no live heap
//! block of their own: the only extra block is one new segment of the
//! flow table, which grows in never-moving segments. Keeping the two
//! endpoint boxes made it 2 blocks per flow, and keeping a drained
//! reorder node and timer list 4. Each extra flow may also add at most
//! [`BYTES_PER_FLOW`] live bytes: its 80-byte flow-table slot, with
//! the new segment's unfilled tail (~82 B measured, 84.875 B before TFC
//! ports took a provisional pipe from the handshake and a flow's last
//! segment went unmarked; 121 B with a
//! 24-byte FCT record per flow in a doubling vector beside the table,
//! 193 B with 152-byte `Option<FlowState>` slots on top, 197 B with a
//! per-slot generation column beside the flow table on top of that,
//! 683 B with the endpoint boxes). This binary holds exactly one test,
//! so no other thread allocates while it measures.

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
/// Live heap blocks a completed flow may hold of its own.
const BLOCKS_PER_FLOW: f64 = 0.0;
/// Blocks the longer run may add beyond that: one new segment of the
/// flow table (128 flows fill segments 0–1, 384 flows segments 0–2).
const TABLE_SEGMENTS: f64 = 1.0;
/// Live heap bytes a completed flow may hold: 84.875 B measured (~82 B
/// now), plus 5 %.
const BYTES_PER_FLOW: f64 = 89.0;

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
fn completed_flows_hold_no_heap_blocks() {
    let short = incast(8);
    let long = incast(24);
    for run in [&short, &long] {
        assert!(run.retransmits > 0, "the loss burst forces retransmits");
        assert!(run.timeouts > 0, "the loss burst forces RTOs");
    }
    let flows = (long.flows - short.flows) as f64;
    let extra_blocks = long.blocks as f64 - short.blocks as f64;
    let blocks = extra_blocks / flows;
    let bytes = (long.bytes as f64 - short.bytes as f64) / flows;
    println!(
        "{flows} extra completed flows: {extra_blocks} live blocks ({blocks:.3} each) and \
         {bytes:.0} live bytes each ({} retransmits, {} RTOs in the long run)",
        long.retransmits, long.timeouts
    );
    assert!(
        extra_blocks <= BLOCKS_PER_FLOW * flows + TABLE_SEGMENTS,
        "{flows} extra completed flows hold {extra_blocks} live heap blocks \
         (bound {BLOCKS_PER_FLOW} each plus {TABLE_SEGMENTS} table segments)"
    );
    assert!(
        bytes <= BYTES_PER_FLOW,
        "each extra completed flow holds {bytes:.0} live heap bytes (bound {BYTES_PER_FLOW})"
    );
}

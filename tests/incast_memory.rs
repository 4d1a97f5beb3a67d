//! Without retirement, memory follows the flows that are live, not the
//! flows ever run: a finished flow's endpoints are freed once no packet
//! or timer can reach it, and the flow table grows in never-moving
//! segments.
//!
//! The shared counting allocator (`tests/common`) tracks the live
//! heap's high-water mark over the benchmark's whole `incast_chaos`
//! run, topology build included, without its artifact export: 120 TFC
//! senders, 100 rounds of fresh connections (12,000 flows), seed 2016,
//! under a loss burst, a sender stall and a sender link flap, with the
//! benchmark's event ring, TFC gauges and 16 ‰ sampled spans. It
//! measures 2,379,006 B (2,429,886 B before a flow's last segment went
//! unmarked, so a delay arbiter no longer holds finished flows' RMAs)
//! against a bound of 2,414,422 B plus 5 %, which was measured before
//! TFC senders had a tail-loss probe; the flow
//! table's 16,320 slots of 80 bytes take 1,305,600 B. The probes move
//! flows from 200 ms timers to sub-ms ones, and the scheduler peaks at
//! 398 queued entries instead of 279. With one carrier stack instead
//! of a near and a far one, each flow's cancelled 200 ms timer stayed
//! queued: 4,217 entries and 3,214,374 B. With a
//! 24-byte FCT record per completed flow in a doubling vector beside
//! the table (16,384 × 24 B at the peak) it peaked at 2,807,638 B; with
//! 152-byte `Option<FlowState>` slots (meter, RTT samples and padded
//! options inline) on top at 3,982,678 B; with a per-slot generation
//! column beside the flow table on top at 4,056,294 B, and keeping
//! every finished flow's sender and receiver boxes in two flow-indexed
//! endpoint tables, beside a flow-indexed timer table, at 8,735,814 B.
//! This binary holds exactly one test, so no other thread allocates
//! while it measures.

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

/// The measured peak plus 5 %.
const BOUND: usize = PEAK + PEAK / 20;
const PEAK: usize = 2_414_422;

#[test]
fn incast_chaos_live_heap_peak_is_bounded() {
    let base = common::live();
    common::reset_peak();
    let mut sim = common::incast_chaos();
    sim.run();
    let peak = common::peak() - base;
    let held = common::live() - base;
    assert_eq!(
        sim.app().rounds_done(),
        common::INCAST_ROUNDS,
        "every round finishes"
    );
    let core = sim.core();
    println!(
        "incast_chaos run: {peak} B live-heap peak, {held} B live at the end; \
         {} flows, {} of them with live endpoints, {} endpoint-record slots",
        core.flows().count(),
        core.flows()
            .filter(|&(f, _)| core.sender_cwnd(f).is_some())
            .count(),
        core.endpoint_table_capacity()
    );
    assert!(
        peak <= BOUND,
        "the incast_chaos run's live heap peaked at {peak} B (bound {BOUND} B)"
    );
}

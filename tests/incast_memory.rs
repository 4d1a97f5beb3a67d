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
//! measures 3,982,678 B against a bound of that plus 5 %; with a
//! per-slot generation column beside the flow table it peaked at
//! 4,056,294 B, and keeping every finished flow's sender and receiver
//! boxes in two flow-indexed endpoint tables, beside a flow-indexed
//! timer table, at 8,735,814 B.
//! This binary holds exactly one test, so no other thread allocates
//! while it measures.

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

/// The measured peak plus 5 %.
const BOUND: usize = PEAK + PEAK / 20;
const PEAK: usize = 3_982_678;

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

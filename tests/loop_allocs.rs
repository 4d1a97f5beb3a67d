//! The event loop's hot path allocates nothing in steady state: effect
//! sinks are recycled through a pool on the simulator core, FIFOs are
//! links through the packet arena, and the arena and scheduler reuse
//! their slots.
//!
//! The shared counting allocator (`tests/common`) counts heap
//! allocations (including reallocations) made while `Simulator::run`
//! executes the benchmark's `fat_tree_k36` run: 1,100 seeded sized TFC
//! flows between random hosts of the k=36 ECMP fat-tree, seed 2016.
//! Building a fresh effects vector per handler call made 0.21
//! allocations per event there; the bound is 0.01. This binary holds
//! exactly one test, so no other thread allocates while it measures.

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

const BOUND_PER_EVENT: f64 = 0.01;

#[test]
fn fat_tree_loop_allocates_under_a_hundredth_per_event() {
    let mut sim = common::fat_tree_k36();
    let before = common::allocs();
    sim.run();
    let allocs = common::allocs() - before;
    assert_eq!(
        sim.app().completed,
        common::K36_FLOWS,
        "every flow completes"
    );
    let events = sim.core().events_processed();
    let per_event = allocs as f64 / events as f64;
    println!("{allocs} allocations over {events} events: {per_event:.4} per event");
    assert!(
        per_event <= BOUND_PER_EVENT,
        "{allocs} allocations over {events} events: {per_event:.4} per event \
         (bound {BOUND_PER_EVENT})"
    );
}

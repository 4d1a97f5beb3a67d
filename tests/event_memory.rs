//! Per-event and per-packet records are compact: a 16-byte `Event`, a
//! 32-byte scheduler entry with its bucket link and timer slot in
//! parallel `u32` columns, 16-byte live-run keys, 56-byte timer slots
//! and a 64-byte packet-arena slot; pushes at the instant just popped
//! queue in a FIFO linked through the entries' bucket-link column,
//! not in a heap; and the fabric they run on is compact too (see
//! `tests/port_memory.rs`).
//!
//! The shared counting allocator (`tests/common`) tracks the live
//! heap's high-water mark over the benchmark's whole `fat_tree_k36`
//! run, topology build included: 1,100 seeded sized TFC flows on the
//! k=36 ECMP fat-tree, seed 2016. The scheduler slab peaks at ~59 k
//! entries and the arena at ~51 k packets there, so every byte of those
//! records shows at the MiB scale. It measures 14,582,540 B against a
//! bound of 14,574,348 B plus 5 %, measured with one scheduler
//! carrier stack: the 8,192 B between them are the far stack's 2,048
//! `u32` slots (the near one ends at 8,192). No tail-loss probe fires
//! in this run, and the setup heap is unchanged. It was 14,642,640 B
//! with host NICs inline in
//! 56-byte nodes and a policy-timer list per switch beside them,
//! 14,647,884 B with a 24-byte FCT record per
//! completed flow beside the flow table, 14,790,732 B with 152-byte
//! flow-table slots on top, 14,798,668 B with a per-slot generation
//! column beside the flow table on top of that). With 64-byte ports,
//! 72-byte nodes, a policy-timer list per node and the same-instant
//! pushes in the `late` heap (a 38,445-key burst at tick 969 left a
//! 1 MiB heap) it
//! was 18,270,668 B; with 104-byte ports and a route row per switch
//! 23,351,520 B, and with a 32-byte `Event`, 56-byte entries,
//! 24-byte live-run keys, 80-byte timer slots and 80-byte arena slots
//! on top 25.5 MiB. This binary holds exactly one test, so no other
//! thread allocates while it measures.

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

const BOUND: usize = 14_574_348 * 105 / 100;

#[test]
fn fat_tree_k36_live_heap_peak_is_bounded() {
    let base = common::live();
    common::reset_peak();
    let mut sim = common::fat_tree_k36();
    let built = common::live() - base;
    sim.run();
    let peak = common::peak() - base;
    assert_eq!(
        sim.app().completed,
        common::K36_FLOWS,
        "every flow completes"
    );
    let core = sim.core();
    println!(
        "k=36 run: {peak} B live-heap peak ({built} B after setup); \
         {} peak queued events, {} arena slots",
        core.event_queue().peak_queued(),
        core.packet_arena().capacity()
    );
    assert!(
        peak <= BOUND,
        "the k=36 run's live heap peaked at {peak} B (bound {BOUND} B)"
    );
}

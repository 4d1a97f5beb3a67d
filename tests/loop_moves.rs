//! The tables that grow with in-flight packets never move: the packet
//! arena's slots, the timing wheel's entry columns and the timer slots
//! live in segments that are allocated once and never reallocated.
//!
//! The shared counting allocator (`tests/common`) counts the
//! reallocations of blocks of 64 KiB or more, and the bytes they may
//! copy, while `Simulator::run` executes the benchmark's `fat_tree_k36`
//! run: 1,100 seeded sized TFC flows on the k=36 ECMP fat-tree, seed
//! 2016. With those tables in doubling `Vec`s the loop made 21 such
//! reallocations of 8,273,920 B. What is left is the wheel's live run,
//! which grows by doubling: the `late` heap to 1 MiB and the sorted
//! `current` bucket to 128 KiB. This binary holds exactly one test, so
//! no other thread allocates while it measures.

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

/// The measured 1,048,576 B plus 5 %.
const BOUND: usize = 1_048_576 * 105 / 100;

#[test]
fn fat_tree_loop_moves_no_growing_table() {
    let mut sim = common::fat_tree_k36();
    let (moves, moved) = (common::moves(), common::moved());
    sim.run();
    let (moves, moved) = (common::moves() - moves, common::moved() - moved);
    assert_eq!(
        sim.app().completed,
        common::K36_FLOWS,
        "every flow completes"
    );
    println!(
        "k=36 loop: {moves} reallocations of blocks of at least {} B, {moved} B",
        common::MOVE_MIN
    );
    assert!(
        moved <= BOUND,
        "the k=36 loop reallocated {moved} B in {moves} blocks of at least {} B \
         (bound {BOUND} B)",
        common::MOVE_MIN
    );
}

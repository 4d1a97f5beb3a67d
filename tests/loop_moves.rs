//! The tables that grow with in-flight packets never move: the packet
//! arena's slots, the timing wheel's entry columns and the timer slots
//! live in segments that are allocated once and never reallocated.
//!
//! The shared counting allocator (`tests/common`) counts the
//! reallocations of blocks of 64 KiB or more, and the bytes they may
//! copy, while `Simulator::run` executes the benchmark's `fat_tree_k36`
//! run: 1,100 seeded sized TFC flows on the k=36 ECMP fat-tree, seed
//! 2016. With those tables in doubling `Vec`s the loop made 21 such
//! reallocations of 8,273,920 B, and while same-instant pushes went to
//! the wheel's `late` heap, its growth to 1 MiB moved 983,040 B of
//! them. What is left is the sorted `current` bucket of the wheel's
//! live run, which grows by doubling to 128 KiB: one reallocation of
//! 65,536 B. This binary holds exactly one test, so no other thread
//! allocates while it measures.

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

/// The measured 65,536 B plus 5 %.
const BOUND: usize = 65_536 * 105 / 100;

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

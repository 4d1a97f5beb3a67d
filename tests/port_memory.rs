//! Fabric port state is compact: one switch-port table of 104-byte
//! ports whose FIFOs are links through the packet arena, and TFC
//! prototypes and config shared across the fabric.
//!
//! The shared counting allocator (`tests/common`) tracks live bytes.
//! The test builds the k=36 fat-tree (1,620 switches, 58,320 switch
//! ports, 11,664 hosts) with `TfcSwitchPolicy::factory` and bounds the
//! live heap the built network holds at 10.5 MiB; it measures 9.9 MiB.
//! Per-switch `Vec`s of 128-byte ports and per-switch TFC prototypes
//! held 12.2 MiB. This binary holds exactly one test, so no other
//! thread allocates while it measures.

use simnet::topology::fat_tree;
use simnet::units::{Bandwidth, Dur};
use tfc::{TfcSwitchConfig, TfcSwitchPolicy};

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

const K: usize = 36;
const BOUND: usize = 10 * (1 << 20) + (1 << 19);

#[test]
fn built_k36_tfc_fat_tree_heap_is_bounded() {
    let base = common::live();
    let (t, hosts, switches) =
        fat_tree(K, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(5));
    drop((hosts, switches));
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let held = common::live() - base;
    let (ports, nodes) = (net.ports.len(), net.nodes.len());
    drop(net);
    println!("k={K} TFC fat-tree: {held} B live for {nodes} nodes and {ports} switch ports");
    assert_eq!(ports, K * K * 5 / 4 * K, "every switch has k ports");
    assert!(
        held <= BOUND,
        "the built k={K} TFC fat-tree holds {held} B (bound {BOUND} B)"
    );
}

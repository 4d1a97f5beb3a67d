//! Fabric state is compact: one switch-port table of 32-byte ports
//! whose FIFOs are links through the packet arena and whose rate,
//! delay, buffer and fault state are rows of one interned parameter
//! table, route rows shared by the switches that forward identically,
//! and TFC prototypes and config shared across the fabric.
//!
//! The shared counting allocator (`tests/common`) tracks live bytes.
//! The test builds the k=36 fat-tree (1,620 switches, 58,320 switch
//! ports, 11,664 hosts) with `TfcSwitchPolicy::factory` and bounds the
//! live heap the built network holds at the measured 3,174,164 B plus
//! 5 %. With 64-byte ports and 72-byte nodes it held 5,252,852 B; with
//! 104-byte ports, 112-byte nodes and a route row per switch
//! 10,333,704 B; per-switch `Vec`s of 128-byte ports and per-switch TFC
//! prototypes held 12.2 MiB. The test also
//! prints what each part of the network frees when it is dropped. This
//! binary holds exactly one test, so no other test thread allocates
//! while it measures; the harness's main thread now and then allocates
//! ~900 B meanwhile, which `held` and the parts may include.

use simnet::node::{Node, RouteTable};
use simnet::policy::DropTail;
use simnet::topology::fat_tree;
use simnet::units::{Bandwidth, Dur};
use tfc::{TfcSwitchConfig, TfcSwitchPolicy};

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

const K: usize = 36;
const BOUND: usize = 3_174_164 * 105 / 100;

/// Live bytes `f` frees.
fn freed(f: impl FnOnce()) -> usize {
    let before = common::live();
    f();
    before - common::live()
}

#[test]
fn built_k36_tfc_fat_tree_heap_is_bounded() {
    let base = common::live();
    let (t, hosts, switches) =
        fat_tree(K, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(5));
    drop((hosts, switches));
    let mut net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let held = common::live() - base;
    let (ports, nodes, params) = (net.ports.len(), net.nodes.len(), net.params.len());

    // Take the network apart, one part at a time. Neither an empty
    // table's clone nor a boxed `DropTail` allocates.
    let empty = RouteTable::default();
    let mut routes = Vec::with_capacity(nodes);
    let mut policies = Vec::with_capacity(nodes);
    for node in &mut net.nodes {
        if let Node::Switch(s) = node {
            routes.push(std::mem::replace(&mut s.routes, empty.clone()));
            policies.push(std::mem::replace(&mut s.policy, Box::new(DropTail)));
        }
    }
    let route_bytes = freed(|| routes.clear());
    let policy_bytes = freed(|| policies.clear());
    let port_bytes = freed(|| drop(std::mem::take(&mut net.ports)));
    let node_bytes = freed(|| drop(std::mem::take(&mut net.nodes)));
    let rest = freed(|| drop(net));
    println!("k={K} TFC fat-tree: {held} B live for {nodes} nodes and {ports} switch ports");
    println!(
        "  switch ports {port_bytes} B, nodes with host NICs {node_bytes} B, \
         routes {route_bytes} B, TFC policies {policy_bytes} B, \
         host and switch lists and port parameters {rest} B"
    );
    assert_eq!(ports, K * K * 5 / 4 * K, "every switch has k ports");
    assert_eq!(params, 3, "host NICs, edge-host ports and fabric ports");
    assert!(
        held <= BOUND,
        "the built k={K} TFC fat-tree holds {held} B (bound {BOUND} B)"
    );
}

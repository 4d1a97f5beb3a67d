//! TFC port state is built on first touch: a freshly built network
//! holds one Init prototype per distinct link rate per switch, not a
//! full token engine and delay arbiter per port.
//!
//! The shared counting allocator (`tests/common`) tracks live bytes.
//! The test builds the k=36 fat-tree (1,620 switches, 58,320 switch
//! ports) once with drop-tail switches and once with
//! `TfcSwitchPolicy::factory`, and asserts that the TFC network holds
//! at most 1 MiB more live heap. Building every port's state up front
//! takes 14.8 MiB there. This binary holds exactly one test, so no
//! other thread allocates while it measures.

use simnet::topology::{fat_tree, Network, TopologyBuilder};
use simnet::units::{Bandwidth, Dur};
use tfc::{TfcSwitchConfig, TfcSwitchPolicy};

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

const K: usize = 36;
const BOUND: usize = 1 << 20;

fn builder() -> TopologyBuilder {
    let (t, _, _) = fat_tree(K, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(5));
    t
}

/// Live heap the built network holds beyond its builder.
fn held(t: TopologyBuilder, build: impl FnOnce(TopologyBuilder) -> Network) -> (usize, Network) {
    let base = common::live();
    let net = build(t);
    (common::live() - base, net)
}

#[test]
fn untouched_tfc_ports_hold_no_per_port_state() {
    let (drop_tail, net) = held(builder(), TopologyBuilder::build_drop_tail);
    let ports: usize = net.switches.len() * K;
    drop(net);
    let (tfc, net) = held(builder(), |t| {
        t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()))
    });
    drop(net);
    let extra = tfc.saturating_sub(drop_tail);
    println!("TFC policies: {extra} B over drop-tail for {ports} switch ports");
    assert!(
        extra <= BOUND,
        "the TFC network holds {extra} B more than drop-tail (bound {BOUND} B) for {ports} switch ports"
    );
}

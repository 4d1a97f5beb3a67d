//! The event loop's hot path allocates nothing in steady state: effect
//! sinks are recycled through a pool on the simulator core, FIFOs are
//! links through the packet arena, and the arena and scheduler reuse
//! their slots.
//!
//! A counting global allocator counts heap allocations (including
//! reallocations) made while `Simulator::run` executes the benchmark's
//! `fat_tree_k36` run: 1,100 seeded sized TFC flows between random hosts
//! of the k=36 ECMP fat-tree, seed 2016. Building a fresh effects vector
//! per handler call made 0.21 allocations per event there; the bound is
//! 0.01. This binary holds exactly one test, so no other thread
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simnet::app::{Application, FlowEvent};
use simnet::endpoint::FlowSpec;
use simnet::sim::{SimApi, SimConfig, Simulator};
use simnet::topology::fat_tree;
use simnet::units::{Bandwidth, Dur};
use tfc::{TfcStack, TfcSwitchConfig, TfcSwitchPolicy};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const K: usize = 36;
const FLOWS: u64 = 1_100;
const SEED: u64 = 2016;
const BOUND_PER_EVENT: f64 = 0.01;

/// Stops the run when every flow has completed.
struct StopWhenDone {
    completed: u64,
}

impl Application for StopWhenDone {
    fn start(&mut self, _api: &mut SimApi<'_>) {}

    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        if let FlowEvent::Completed(_) = ev {
            self.completed += 1;
            if self.completed == FLOWS {
                api.stop();
            }
        }
    }
}

#[test]
fn fat_tree_loop_allocates_under_a_hundredth_per_event() {
    let (t, hosts, _) = fat_tree(K, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(5));
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let cfg = SimConfig {
        seed: SEED,
        ..SimConfig::default()
    };
    let app = StopWhenDone { completed: 0 };
    let mut sim = Simulator::new(net, Box::new(TfcStack::default()), app, cfg);
    let mut rng = StdRng::seed_from_u64(SEED);
    let n = hosts.len();
    for _ in 0..FLOWS {
        let src = rng.gen_range(0..n);
        let mut dst = rng.gen_range(0..n - 1);
        if dst >= src {
            dst += 1;
        }
        let bytes = rng.gen_range(20_000u64..400_000);
        sim.core_mut()
            .start_flow(FlowSpec::sized(hosts[src], hosts[dst], bytes));
    }
    let before = ALLOCS.load(Relaxed);
    sim.run();
    let allocs = ALLOCS.load(Relaxed) - before;
    assert_eq!(sim.app().completed, FLOWS, "every flow completes");
    let events = sim.core().events_processed();
    let per_event = allocs as f64 / events as f64;
    println!("{allocs} allocations over {events} events: {per_event:.4} per event");
    assert!(
        per_event <= BOUND_PER_EVENT,
        "{allocs} allocations over {events} events: {per_event:.4} per event \
         (bound {BOUND_PER_EVENT})"
    );
}

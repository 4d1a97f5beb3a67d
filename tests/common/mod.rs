//! Shared support for the integration tests that measure the heap.
//!
//! [`Counting`] wraps the system allocator and tracks live bytes, their
//! high-water mark, live blocks and allocation calls. A test binary
//! installs it with
//!
//! ```ignore
//! mod common;
//!
//! #[global_allocator]
//! static ALLOC: common::Counting = common::Counting;
//! ```
//!
//! The counters are process-wide, so each such binary holds exactly one
//! test: no other test thread allocates while it measures.
//!
//! [`fat_tree_k36`] builds the benchmark's `fat_tree_k36` run for the
//! tests that measure it.

// Each test binary compiles this module and uses part of it.
#![allow(dead_code)]

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

/// A counting global allocator over [`System`].
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static BLOCKS: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
            BLOCKS.fetch_add(1, Relaxed);
            ALLOCS.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
        BLOCKS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
            ALLOCS.fetch_add(1, Relaxed);
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// High-water mark of [`live`] since the process started or the last
/// [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Restarts the high-water mark at the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Blocks currently allocated (a reallocation keeps its block).
pub fn blocks() -> usize {
    BLOCKS.load(Relaxed)
}

/// Allocation calls so far, reallocations included.
pub fn allocs() -> usize {
    ALLOCS.load(Relaxed)
}

/// Fat-tree arity of the benchmark's `fat_tree_k36` workload.
pub const K36: usize = 36;
/// Sized flows the workload starts at time zero.
pub const K36_FLOWS: u64 = 1_100;
/// The workload's default seed.
pub const K36_SEED: u64 = 2016;

/// Stops the run when every flow has completed.
pub struct StopWhenDone {
    /// Flows completed so far.
    pub completed: u64,
}

impl Application for StopWhenDone {
    fn start(&mut self, _api: &mut SimApi<'_>) {}

    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        if let FlowEvent::Completed(_) = ev {
            self.completed += 1;
            if self.completed == K36_FLOWS {
                api.stop();
            }
        }
    }
}

/// The benchmark's `fat_tree_k36` run, ready to `run()`: 1,100 seeded
/// sized TFC flows (20–400 KB) between random hosts of the k=36 ECMP
/// fat-tree (10 G edge, 40 G fabric, 5 µs links), seed 2016.
pub fn fat_tree_k36() -> Simulator<StopWhenDone> {
    let (t, hosts, _) = fat_tree(
        K36,
        Bandwidth::gbps(10),
        Bandwidth::gbps(40),
        Dur::micros(5),
    );
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let cfg = SimConfig {
        seed: K36_SEED,
        ..SimConfig::default()
    };
    let app = StopWhenDone { completed: 0 };
    let mut sim = Simulator::new(net, Box::new(TfcStack::default()), app, cfg);
    let mut rng = StdRng::seed_from_u64(K36_SEED);
    let n = hosts.len();
    for _ in 0..K36_FLOWS {
        let src = rng.gen_range(0..n);
        let mut dst = rng.gen_range(0..n - 1);
        if dst >= src {
            dst += 1;
        }
        let bytes = rng.gen_range(20_000u64..400_000);
        sim.core_mut()
            .start_flow(FlowSpec::sized(hosts[src], hosts[dst], bytes));
    }
    sim
}

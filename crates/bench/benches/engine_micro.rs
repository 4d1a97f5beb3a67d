//! Microbenchmarks of the hot simulator and protocol paths: event-queue
//! churn, the packet arena and the timing wheel at `fat_tree_k36`'s peak
//! occupancy, port-queue operations, the TFC token engine's per-packet
//! cost, receive-side reassembly, and raw simulated-packet throughput of
//! the whole stack.

use simnet::app::NullApp;
use simnet::endpoint::FlowSpec;
use simnet::event::{Event, EventQueue};
use simnet::packet::{Flags, FlowId, NodeId, Packet, MSS};
use simnet::queue::PortQueue;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::{fat_tree, star};
use simnet::units::{Bandwidth, Dur, Time};
use simnet::SchedulerKind;
use std::hint::black_box;
use tfc::config::TfcSwitchConfig;
use tfc::port::TokenEngine;
use tfc::{TfcStack, TfcSwitchPolicy};
use tfc_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use transport::recv::RecvBuffer;

fn event_queue_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    for kind in [SchedulerKind::Wheel, SchedulerKind::RefHeap] {
        g.bench_function(&format!("schedule_pop_10k_{kind:?}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::with_kind(kind);
                for i in 0..10_000u64 {
                    q.schedule(Time(i * 37 % 5_000), Event::AppTimer { token: i });
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            })
        });
        // Sim-realistic churn: near-term packet events interleaved with
        // far-future RTO timers that are cancelled before they fire,
        // each new timer armed before the previous one is cancelled.
        g.bench_function(&format!("churn_with_dead_timers_10k_{kind:?}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::with_kind(kind);
                let mut handles = Vec::with_capacity(10_000);
                for i in 0..10_000u64 {
                    let now = i * 800;
                    q.schedule(Time(now + 1_500), Event::AppTimer { token: i });
                    handles.push(q.schedule_cancellable(
                        Time(now + 200_000_000),
                        Event::AppTimer { token: i },
                    ));
                    if i >= 1 {
                        q.cancel(handles[(i - 1) as usize]);
                    }
                    black_box(q.pop());
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            })
        });
        // The same churn in the simulator's order: each "ACK" cancels
        // the pending RTO, then re-arms it, so the re-arm adopts the
        // cancelled timer's queued entry instead of adding one.
        g.bench_function(&format!("churn_cancel_then_rearm_10k_{kind:?}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::with_kind(kind);
                let mut rto =
                    q.schedule_cancellable(Time(200_000_000), Event::AppTimer { token: 0 });
                for i in 0..10_000u64 {
                    let now = i * 800;
                    q.schedule(Time(now + 1_500), Event::AppTimer { token: i });
                    q.cancel(rto);
                    rto = q.schedule_cancellable(
                        Time(now + 200_000_000),
                        Event::AppTimer { token: i },
                    );
                    black_box(q.pop());
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            })
        });
    }
    // A wheel holding ~60 k entries, as at the peak of the benchmark's
    // k=36 run: every pop pushes one entry 0–20 µs past the popped time
    // (level 0 or 1), so the occupancy stays put and slab indices spread
    // over the whole entry table.
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("hold_60k_push_pop_64k_Wheel", |b| {
        const HELD: u64 = 60_000;
        let mut q = EventQueue::with_kind(SchedulerKind::Wheel);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 20_000
        };
        for i in 0..HELD {
            q.schedule(Time(jitter()), Event::AppTimer { token: i });
        }
        b.iter(|| {
            for i in 0..OPS {
                let (t, ev) = q.pop().expect("held entries");
                black_box(ev);
                q.schedule(Time(t.nanos() + jitter()), Event::AppTimer { token: i });
            }
        })
    });
    g.finish();
}

/// Operations per iteration of the occupancy-held benches.
const OPS: u64 = 1 << 16;

/// The packet arena at the k=36 run's peak of ~50 k live packets: each
/// operation frees one packet at a strided position, allocates its
/// replacement (which reuses the freed slot) and reads another live
/// packet, so the reads range over every segment of the slot table.
fn packet_arena(c: &mut Criterion) {
    const LIVE: usize = 50_000;
    let mut g = c.benchmark_group("packet_arena");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("packet_arena_churn_64k", |b| {
        let mut arena = simnet::PacketArena::new();
        let pkt = |seq| Packet::data(FlowId(0), NodeId(0), NodeId(1), seq, MSS);
        let mut live: Vec<_> = (0..LIVE as u64).map(|i| arena.alloc(pkt(i))).collect();
        let mut j = 0usize;
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..OPS {
                j = (j + 40_503) % LIVE;
                black_box(arena.free(live[j]));
                live[j] = arena.alloc(pkt(i));
                sum = sum.wrapping_add(arena.get(live[(j + LIVE / 2) % LIVE]).seq);
            }
            sum
        })
    });
    g.finish();
}

fn port_queue_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("port_queue");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("enqueue_dequeue_1k", |b| {
        // A packet sits in at most one FIFO at a time: queue 1,000
        // distinct live packets.
        let mut arena = simnet::PacketArena::new();
        let ids: Vec<_> = (0..1_000u64)
            .map(|i| arena.alloc(Packet::data(FlowId(0), NodeId(0), NodeId(1), i * MSS, MSS)))
            .collect();
        b.iter(|| {
            let mut q = PortQueue::new();
            for &id in &ids {
                q.enqueue(id, &mut arena, 16 << 20);
            }
            while let Some(p) = q.dequeue(&arena) {
                black_box(p);
            }
        })
    });
    g.finish();
}

fn token_engine_per_packet(c: &mut Criterion) {
    let mut g = c.benchmark_group("token_engine");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("on_data_10k", |b| {
        let mut rm = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, MSS);
        rm.flags.set(Flags::RM);
        let plain = Packet::data(FlowId(2), NodeId(0), NodeId(1), 0, MSS);
        let cfg = TfcSwitchConfig::default();
        b.iter(|| {
            let mut e = TokenEngine::new(Bandwidth::gbps(10), &cfg);
            for i in 0..10_000u64 {
                let t = Time(i * 1_200);
                if i % 10 == 0 {
                    black_box(e.on_data(&cfg, &rm, t));
                } else {
                    black_box(e.on_data(&cfg, &plain, t));
                }
            }
        })
    });
    g.finish();
}

/// Receive-side reassembly per segment: an in-order stream (the fast
/// path, which never touches the reorder map) and the same stream with
/// a hole every 16 segments, each filled once the next 15 arrived.
fn recv_buffer(c: &mut Criterion) {
    const SEGS: u64 = 1_000;
    let mut g = c.benchmark_group("recv_buffer");
    g.throughput(Throughput::Elements(SEGS));
    let in_order: Vec<u64> = (0..SEGS).collect();
    let mut holed: Vec<u64> = Vec::with_capacity(SEGS as usize);
    for block in (0..SEGS).step_by(16) {
        let end = (block + 16).min(SEGS);
        holed.extend(block + 1..end);
        holed.push(block);
    }
    for (name, order) in [("in_order_1k", &in_order), ("hole_every_16_1k", &holed)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut r = RecvBuffer::new();
                for &i in order {
                    black_box(r.on_segment(i * MSS, MSS));
                }
                assert_eq!(r.rcv_nxt(), SEGS * MSS);
            })
        });
    }
    g.finish();
}

/// Topology build with its route fill. A k=16 fat-tree (1,024 hosts,
/// 320 switches, 128 access groups: two 64-group words of the
/// bit-parallel fill) with drop-tail switches, so the route fill, not
/// policy construction, dominates; and the benchmark's k=36 fat-tree
/// (11,664 hosts, 1,620 switches, 648 groups in 11 words) built as it
/// builds it, with the TFC switch factory, 10/40 Gb/s links and 5 us
/// delays.
fn topology_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology");
    g.sample_size(10);
    g.bench_function("topology_build_fat_tree_k16", |b| {
        b.iter(|| {
            let (t, _, _) = fat_tree(16, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(1));
            black_box(t.build_drop_tail())
        })
    });
    g.bench_function("topology_build_fat_tree_k36_tfc", |b| {
        b.iter(|| {
            let (t, _, _) = fat_tree(36, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(5));
            black_box(t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default())))
        })
    });
    g.finish();
}

fn end_to_end_packet_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.bench_function("tfc_2flows_4mb", |b| {
        b.iter(|| {
            let (t, hosts, _) = star(3, Bandwidth::gbps(1), Dur::micros(1));
            let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
            let mut sim = Simulator::new(
                net,
                Box::new(TfcStack::default()),
                NullApp,
                SimConfig::default(),
            );
            for i in 0..2 {
                sim.core_mut().start_flow(FlowSpec {
                    src: hosts[i],
                    dst: hosts[2],
                    bytes: Some(2_000_000),
                    weight: 1,
                });
            }
            sim.run();
            black_box(sim.core().events_processed())
        })
    });
    g.finish();
}

criterion_group!(
    micro,
    event_queue_churn,
    packet_arena,
    port_queue_ops,
    token_engine_per_packet,
    recv_buffer,
    topology_build,
    end_to_end_packet_rate
);
criterion_main!(micro);

//! `tfc-scale-bench`: the simulation-core scale suite.
//!
//! Runs five scenarios — the paper's 360-host leaf-spine at 10 Gbps
//! edge links, a wide incast fan-in, a chaos fault timeline, a k-ary
//! fat-tree scale point (k = 36 → 11664 hosts in full mode), and a
//! multipath fat-tree whose cross-pod flows spray over every
//! equal-cost uplink while edge and aggregation links flap (ECMP
//! forwarding plus selection-time reroute at scale) —
//! under the reference binary-heap scheduler and the timing wheel (the
//! default). For each scenario, it checks both produced *identical*
//! simulations (same event count, same delivered bytes) and records
//! events/sec, writing `results/bench/BENCH_scale.json`. The timer
//! covers `Simulator::run` alone — topology and route build and flow
//! setup are excluded — so `speedup` is a loop-only ratio.
//!
//! Each scenario also re-runs the default variant with flow-sampled
//! lifecycle tracing on (16/1000 flows), asserting the traced
//! simulation is outcome-identical to the untraced one and recording
//! the loop-time ratio as `trace_overhead` (1.0 = free; the CI smoke
//! bounds the leaf-spine value at 1.10).
//!
//! `--quick` shortens every horizon for CI smoke use (`scripts/verify.sh`).
//! `--det` instead exports two same-seed wheel runs for the verify.sh
//! byte-determinism gate (`tfc-trace diff`).

use std::time::Instant;

use chaos::FaultTimeline;
use rng::seq::SliceRandom;
use rng::{Rng, SeedableRng};
use simnet::app::NullApp;
use simnet::endpoint::FlowSpec;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::{fat_tree, leaf_spine, star};
use simnet::units::{Bandwidth, Dur, Time};
use simnet::SchedulerKind;
use telemetry::export::{git_describe, results_dir};
use telemetry::json::{self, Value};
use telemetry::{TelemetryConfig, TraceConfig};

/// Variant-agnostic run outcome used for the cross-variant identity
/// check: `(events_processed, total delivered bytes)`.
type Outcome = (u64, u64);

/// One scenario, parameterized by the scheduler backend and the
/// lifecycle-trace mode; returns the outcome and the loop time (s).
struct Scenario {
    name: &'static str,
    hosts: usize,
    flows: usize,
    sim_ms: u64,
    run: Box<dyn Fn(SchedulerKind, TraceConfig) -> (Outcome, f64)>,
}

/// Runs the event loop, timing `Simulator::run` alone.
fn run_timed<A: simnet::app::Application>(sim: &mut Simulator<A>) -> (Outcome, f64) {
    let t0 = Instant::now();
    sim.run();
    let secs = t0.elapsed().as_secs_f64();
    let out = (
        sim.core().events_processed(),
        sim.core().flows().map(|(_, st)| st.delivered).sum(),
    );
    (out, secs)
}

fn cfg(kind: SchedulerKind, end_ms: u64, trace: TraceConfig) -> SimConfig {
    SimConfig {
        end: Some(Time(Dur::millis(end_ms).as_nanos())),
        scheduler: kind,
        telemetry: TelemetryConfig {
            trace,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The paper's §6.2.2 fabric scaled to 10 Gbps edges: 18 leaves × 20
/// hosts, 40 Gbps uplinks, a dense random flow matrix.
fn leaf_spine_360(sim_ms: u64, flows: usize) -> Scenario {
    Scenario {
        name: "leaf_spine_360",
        hosts: 360,
        flows,
        sim_ms,
        run: Box::new(move |kind, trace| {
            let (t, hosts, _) = leaf_spine(
                18,
                20,
                Bandwidth::gbps(10),
                Bandwidth::gbps(40),
                Dur::micros(20),
            );
            let net = t.build(tfc::TfcSwitchPolicy::factory(Default::default()));
            let mut sim = Simulator::new(
                net,
                Box::new(tfc::TfcStack::default()),
                NullApp,
                cfg(kind, sim_ms, trace),
            );
            let mut rng = rng::rngs::StdRng::seed_from_u64(2024);
            for _ in 0..flows {
                let src = *hosts.choose(&mut rng).expect("hosts");
                let mut dst = *hosts.choose(&mut rng).expect("hosts");
                while dst == src {
                    dst = *hosts.choose(&mut rng).expect("hosts");
                }
                let bytes = rng.gen_range(20_000u64..2_000_000);
                sim.core_mut().start_flow(FlowSpec::sized(src, dst, bytes));
            }
            run_timed(&mut sim)
        }),
    }
}

/// Wide fan-in: every spoke of a 10 Gbps star fires at one receiver.
fn incast_fanin(sim_ms: u64, senders: usize) -> Scenario {
    Scenario {
        name: "incast_fanin",
        hosts: senders + 1,
        flows: senders,
        sim_ms,
        run: Box::new(move |kind, trace| {
            let (t, hosts, _) = star(senders + 1, Bandwidth::gbps(10), Dur::micros(10));
            let receiver = hosts[0];
            let net = t.build(tfc::TfcSwitchPolicy::factory(Default::default()));
            let mut sim = Simulator::new(
                net,
                Box::new(tfc::TfcStack::default()),
                NullApp,
                cfg(kind, sim_ms, trace),
            );
            for (i, &src) in hosts[1..].iter().enumerate() {
                sim.core_mut().start_flow(FlowSpec::sized(
                    src,
                    receiver,
                    400_000 + 4_000 * i as u64,
                ));
            }
            run_timed(&mut sim)
        }),
    }
}

/// Chaos timeline on a 48-host leaf-spine: flaps, stalls, loss bursts,
/// and a policy reset while a random matrix runs.
fn chaos_leaf_spine(sim_ms: u64, flows: usize) -> Scenario {
    Scenario {
        name: "chaos_leaf_spine",
        hosts: 48,
        flows,
        sim_ms,
        run: Box::new(move |kind, trace| {
            let (t, hosts, switches) = leaf_spine(
                6,
                8,
                Bandwidth::gbps(1),
                Bandwidth::gbps(10),
                Dur::micros(20),
            );
            let net = t.build(tfc::TfcSwitchPolicy::factory(Default::default()));
            let mut sim = Simulator::new(
                net,
                Box::new(tfc::TfcStack::default()),
                NullApp,
                cfg(kind, sim_ms, trace),
            );
            for i in 0..flows {
                let src = hosts[i % hosts.len()];
                let dst = hosts[(i + 13) % hosts.len()];
                sim.core_mut()
                    .start_flow(FlowSpec::sized(src, dst, 100_000 + 777 * i as u64));
            }
            let leaf = switches[1];
            FaultTimeline::new()
                .link_flap(Time(2_000_000), Dur::millis(1), leaf, 0)
                .host_stall(Time(5_000_000), Dur::millis(3), hosts[5])
                .loss_burst(Time(9_000_000), Dur::millis(1), leaf, 2, 250)
                .policy_reset(Time(12_000_000), leaf, 3)
                .install(sim.core_mut());
            run_timed(&mut sim)
        }),
    }
}

/// k-ary fat-tree (Al-Fares) with a sparse random flow matrix: the
/// ≥10k-host scale point. Full mode runs k = 36 (11664 hosts, 1620
/// switches); quick CI smoke uses k = 8 (128 hosts) to exercise the
/// same code path cheaply.
fn fat_tree_scale(k: usize, sim_ms: u64, flows: usize) -> Scenario {
    Scenario {
        name: "fat_tree",
        hosts: k * k * k / 4,
        flows,
        sim_ms,
        run: Box::new(move |kind, trace| {
            let (t, hosts, _) =
                fat_tree(k, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(5));
            let net = t.build(tfc::TfcSwitchPolicy::factory(Default::default()));
            let mut sim = Simulator::new(
                net,
                Box::new(tfc::TfcStack::default()),
                NullApp,
                cfg(kind, sim_ms, trace),
            );
            let mut rng = rng::rngs::StdRng::seed_from_u64(4099);
            for _ in 0..flows {
                let src = *hosts.choose(&mut rng).expect("hosts");
                let mut dst = *hosts.choose(&mut rng).expect("hosts");
                while dst == src {
                    dst = *hosts.choose(&mut rng).expect("hosts");
                }
                let bytes = rng.gen_range(20_000u64..400_000);
                sim.core_mut().start_flow(FlowSpec::sized(src, dst, bytes));
            }
            run_timed(&mut sim)
        }),
    }
}

/// Multipath fat-tree with route churn: a deterministic cross-pod flow
/// matrix sprays over every equal-cost uplink via the `(flow, hop)`
/// ECMP hash while one edge uplink and one aggregation-core link flap
/// mid-run, forcing selection-time reroutes. The cross-variant identity
/// check then doubles as a scale-sized proof that route churn does not
/// leak the scheduler backend into the simulation. Quick CI smoke uses
/// k = 8; full mode k = 16 (1024 hosts).
fn fat_tree_multipath(k: usize, sim_ms: u64, flows: usize) -> Scenario {
    Scenario {
        name: "fat_tree_multipath",
        hosts: k * k * k / 4,
        flows,
        sim_ms,
        run: Box::new(move |kind, trace| {
            let (t, hosts, switches) =
                fat_tree(k, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(5));
            let net = t.build(tfc::TfcSwitchPolicy::factory(Default::default()));
            let mut sim = Simulator::new(
                net,
                Box::new(tfc::TfcStack::default()),
                NullApp,
                cfg(kind, sim_ms, trace),
            );
            let n = hosts.len();
            for i in 0..flows {
                // Peers half the fabric apart are always in another pod,
                // so every flow climbs to the core and back.
                let src = hosts[i % n];
                let dst = hosts[(i + n / 2 + 1) % n];
                sim.core_mut()
                    .start_flow(FlowSpec::sized(src, dst, 60_000 + 333 * i as u64));
            }
            // `switches` lists cores first, then per pod aggs then
            // edges: flap pod 0's first edge's uplink 0 and the first
            // aggregation switch's first core link.
            let half = k / 2;
            let edge0 = switches[half * half + half];
            let agg0 = switches[half * half];
            FaultTimeline::new()
                .link_flap(Time(1_000_000), Dur::millis(1), edge0, 0)
                .link_flap(Time(2_500_000), Dur::micros(800), agg0, 0)
                .install(sim.core_mut());
            run_timed(&mut sim)
        }),
    }
}

struct Row {
    name: &'static str,
    hosts: usize,
    flows: usize,
    sim_ms: u64,
    events: u64,
    heap_loop_ms: f64,
    wheel_loop_ms: f64,
    heap_events_per_sec: f64,
    wheel_events_per_sec: f64,
    /// Wheel vs reference heap, event loop only.
    speedup: f64,
    traced_loop_ms: f64,
    traced_events_per_sec: f64,
    /// Wheel with sampled lifecycle tracing vs without.
    trace_overhead: f64,
}

fn bench(s: &Scenario) -> Row {
    let (heap_out, heap_secs) = (s.run)(SchedulerKind::RefHeap, TraceConfig::Off);
    let (wheel_out, wheel_secs) = (s.run)(SchedulerKind::Wheel, TraceConfig::Off);
    assert_eq!(
        heap_out, wheel_out,
        "{}: wheel diverged from heap (events, delivered)",
        s.name
    );
    // The overhead ratio is measured in adjacent traced/untraced pairs
    // and reported as the minimum per-pair ratio: single wall-clock
    // samples on shared machines swing by double digits, but two runs
    // launched back to back see (mostly) the same ambient load, so
    // their ratio cancels slowdowns that would otherwise masquerade as
    // tracing cost. The minimum across pairs then discards pairs a load
    // spike split down the middle.
    let sampled = TraceConfig::SampledFlows {
        permille: 16,
        seed: 9,
    };
    let mut traced_best = f64::INFINITY;
    let mut overhead = f64::INFINITY;
    for _ in 0..3 {
        let (traced_out, traced_secs) = (s.run)(SchedulerKind::Wheel, sampled);
        assert_eq!(
            wheel_out, traced_out,
            "{}: sampled tracing changed the simulation (events, delivered)",
            s.name
        );
        traced_best = traced_best.min(traced_secs);
        let (out, untraced_secs) = (s.run)(SchedulerKind::Wheel, TraceConfig::Off);
        assert_eq!(wheel_out, out, "{}: rerun diverged", s.name);
        overhead = overhead.min(traced_secs / untraced_secs);
    }
    let events = heap_out.0;
    Row {
        name: s.name,
        hosts: s.hosts,
        flows: s.flows,
        sim_ms: s.sim_ms,
        events,
        heap_loop_ms: heap_secs * 1e3,
        wheel_loop_ms: wheel_secs * 1e3,
        heap_events_per_sec: events as f64 / heap_secs,
        wheel_events_per_sec: events as f64 / wheel_secs,
        speedup: heap_secs / wheel_secs,
        traced_loop_ms: traced_best * 1e3,
        traced_events_per_sec: events as f64 / traced_best,
        trace_overhead: overhead,
    }
}

fn row_json(r: &Row) -> Value {
    telemetry::json!({
        "name": r.name,
        "hosts": r.hosts as u64,
        "flows": r.flows as u64,
        "sim_ms": r.sim_ms,
        "events": r.events,
        "heap_loop_ms": r.heap_loop_ms,
        "wheel_loop_ms": r.wheel_loop_ms,
        "heap_events_per_sec": r.heap_events_per_sec,
        "wheel_events_per_sec": r.wheel_events_per_sec,
        "speedup": r.speedup,
        "traced_loop_ms": r.traced_loop_ms,
        "traced_events_per_sec": r.traced_events_per_sec,
        "trace_overhead": r.trace_overhead,
    })
}

/// `--det`: exports two same-seed wheel chaos leaf-spine runs with
/// full event/flow/slot telemetry for the verify.sh determinism gate,
/// which byte-compares them with `tfc-trace diff`. Profiling stays off
/// — wall-clock timings are never comparable across runs.
fn det_export() {
    for name in ["det-a", "det-b"] {
        let (t, hosts, switches) = leaf_spine(
            6,
            8,
            Bandwidth::gbps(1),
            Bandwidth::gbps(10),
            Dur::micros(20),
        );
        let net = t.build(tfc::TfcSwitchPolicy::factory(Default::default()));
        let cfg = SimConfig {
            end: Some(Time(Dur::millis(10).as_nanos())),
            scheduler: SchedulerKind::Wheel,
            telemetry: TelemetryConfig {
                events: telemetry::LogMode::Full,
                sample_one_in: 1,
                tfc_gauges: true,
                profile: false,
                trace: TraceConfig::Full,
                export: Some(name.to_string()),
            },
            ..Default::default()
        };
        let mut sim = Simulator::new(net, Box::new(tfc::TfcStack::default()), NullApp, cfg);
        for i in 0..32 {
            let src = hosts[i % hosts.len()];
            let dst = hosts[(i + 13) % hosts.len()];
            sim.core_mut()
                .start_flow(FlowSpec::sized(src, dst, 80_000 + 555 * i as u64));
        }
        let leaf = switches[1];
        FaultTimeline::new()
            .link_flap(Time(2_000_000), Dur::millis(1), leaf, 0)
            .host_stall(Time(5_000_000), Dur::millis(2), hosts[5])
            .install(sim.core_mut());
        sim.run();
        let dir = experiments::artifacts::maybe_export(
            sim.core(),
            "leaf_spine(6x8)",
            "determinism smoke",
        )
        .expect("export directory");
        println!("{}", dir.display());
    }
}

fn main() {
    if std::env::args().any(|a| a == "--det") {
        det_export();
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let scenarios = if quick {
        vec![
            leaf_spine_360(5, 300),
            incast_fanin(5, 40),
            chaos_leaf_spine(15, 24),
            fat_tree_scale(8, 4, 120),
            fat_tree_multipath(8, 4, 96),
        ]
    } else {
        vec![
            leaf_spine_360(60, 1200),
            incast_fanin(40, 120),
            chaos_leaf_spine(100, 48),
            fat_tree_scale(36, 5, 3000),
            fat_tree_multipath(16, 6, 1200),
        ]
    };

    let mut rows = Vec::new();
    for s in &scenarios {
        eprintln!(
            "running {} ({} hosts, {} flows, {} ms)...",
            s.name, s.hosts, s.flows, s.sim_ms
        );
        let row = bench(s);
        eprintln!(
            "  {} events; heap {:.0} ev/s, wheel {:.0} ev/s, speedup {:.2}x, trace overhead {:.3}x",
            row.events,
            row.heap_events_per_sec,
            row.wheel_events_per_sec,
            row.speedup,
            row.trace_overhead,
        );
        rows.push(row);
    }

    let leaf = rows
        .iter()
        .find(|r| r.name == "leaf_spine_360")
        .expect("leaf-spine scenario present");
    // Timings are only interpretable relative to the machine: record
    // how many hardware threads it advertises and how many the suite
    // keeps busy (the single event-loop thread). `available_parallelism`
    // is 0 when the platform cannot say.
    let available_parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    let mut doc = telemetry::json!({
        "schema": "tfc-bench-scale/v7",
        "mode": if quick { "quick" } else { "full" },
        "git": git_describe().as_str(),
        "host": telemetry::json!({
            "available_parallelism": available_parallelism,
            "active_threads": 1u64,
        }),
        "scenarios": Value::Array(rows.iter().map(row_json).collect()),
        "leaf_spine_speedup": leaf.speedup,
        "trace_overhead": leaf.trace_overhead,
    });

    let dir = results_dir().join("bench");
    std::fs::create_dir_all(&dir).expect("create results/bench");
    let path = dir.join("BENCH_scale.json");
    // `tfc-million` merges its streaming block into the same document;
    // carry an existing block across re-runs of this suite.
    if let Some(million) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| json::parse(&s).ok())
        .and_then(|v| v.get("million").cloned())
    {
        if let Value::Object(map) = &mut doc {
            map.insert("million".to_string(), million);
        }
    }
    json::write_file(&path, |w| w.value(&doc)).expect("write BENCH_scale.json");

    // Self-validate: the written file must parse back with the expected
    // schema and sane numbers.
    let parsed = json::parse(&std::fs::read_to_string(&path).expect("read back"))
        .expect("BENCH_scale.json parses");
    assert_eq!(
        parsed.get("schema").and_then(Value::as_str),
        Some("tfc-bench-scale/v7")
    );
    let host = parsed.get("host").expect("host block present");
    for key in ["available_parallelism", "active_threads"] {
        assert!(
            host.get(key).and_then(Value::as_f64).is_some(),
            "host.{key} must be recorded"
        );
    }
    assert!(
        parsed
            .get("scenarios")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("fat_tree_multipath")),
        "multipath scenario missing from the suite"
    );
    let scen = parsed
        .get("scenarios")
        .and_then(Value::as_array)
        .expect("scenarios array");
    assert!(!scen.is_empty(), "no scenarios recorded");
    for s in scen {
        for key in [
            "heap_events_per_sec",
            "wheel_events_per_sec",
            "speedup",
            "traced_events_per_sec",
            "trace_overhead",
        ] {
            let v = s.get(key).and_then(Value::as_f64).expect("rate present");
            assert!(v > 0.0, "{key} must be positive");
        }
    }
    println!("{}", path.display());
}

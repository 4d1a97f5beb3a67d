//! `tfc-scale-bench`: the scheduler and tracing identity smokes.
//!
//! Runs five scenarios — the paper's 360-host leaf-spine at 10 Gbps
//! edge links, a wide incast fan-in, a chaos fault timeline, a k = 8
//! fat-tree, and a multipath fat-tree whose cross-pod flows spray over
//! every equal-cost uplink while edge and aggregation links flap (ECMP
//! forwarding plus selection-time reroute) — under the reference
//! binary-heap scheduler, the timing wheel (the default) and the wheel
//! with flow-sampled lifecycle tracing (16/1000 flows), and asserts all
//! three reach the same outcome (events processed, bytes delivered).
//! On the leaf-spine it also records `trace_overhead`, the traced loop
//! time over the untraced one (1.0 = free; `scripts/verify.sh` bounds
//! it at 1.10). The results go to `results/bench/BENCH_scale.json`.
//! Simulator speed is measured by perfbench, not here.
//!
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

/// k-ary fat-tree (Al-Fares) with a sparse random flow matrix.
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
/// check then doubles as proof that route churn does not leak the
/// scheduler backend into the simulation.
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

/// Flow-sampled lifecycle tracing, as the identity and overhead checks
/// run it.
const SAMPLED: TraceConfig = TraceConfig::SampledFlows {
    permille: 16,
    seed: 9,
};

/// Runs `s` under the reference heap, the wheel and the traced wheel,
/// asserting all three reach one outcome, and returns it.
fn check_identity(s: &Scenario) -> Outcome {
    let (heap, _) = (s.run)(SchedulerKind::RefHeap, TraceConfig::Off);
    let (wheel, _) = (s.run)(SchedulerKind::Wheel, TraceConfig::Off);
    assert_eq!(
        heap, wheel,
        "{}: wheel diverged from heap (events, delivered)",
        s.name
    );
    let (traced, _) = (s.run)(SchedulerKind::Wheel, SAMPLED);
    assert_eq!(
        wheel, traced,
        "{}: sampled tracing changed the simulation (events, delivered)",
        s.name
    );
    wheel
}

/// The traced wheel's loop time over the untraced one on `s`, whose
/// runs must all reach `expect`.
///
/// The ratio is measured in adjacent traced/untraced pairs and reported
/// as the minimum per-pair ratio: single wall-clock samples on shared
/// machines swing by double digits, but two runs launched back to back
/// see (mostly) the same ambient load, so their ratio cancels slowdowns
/// that would otherwise masquerade as tracing cost. The minimum across
/// pairs then discards pairs a load spike split down the middle.
fn trace_overhead(s: &Scenario, expect: Outcome) -> f64 {
    let mut overhead = f64::INFINITY;
    for _ in 0..3 {
        let (traced, traced_secs) = (s.run)(SchedulerKind::Wheel, SAMPLED);
        let (untraced, untraced_secs) = (s.run)(SchedulerKind::Wheel, TraceConfig::Off);
        assert_eq!(
            (traced, untraced),
            (expect, expect),
            "{}: rerun diverged",
            s.name
        );
        overhead = overhead.min(traced_secs / untraced_secs);
    }
    overhead
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
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("--det") => return det_export(),
        Some(other) => {
            eprintln!("usage: tfc-scale-bench [--det] (unknown argument {other:?})");
            std::process::exit(2);
        }
    }
    let scenarios = [
        leaf_spine_360(5, 300),
        incast_fanin(5, 40),
        chaos_leaf_spine(15, 24),
        fat_tree_scale(8, 4, 120),
        fat_tree_multipath(8, 4, 96),
    ];

    let mut rows = Vec::new();
    let mut overhead = None;
    for s in &scenarios {
        eprintln!(
            "running {} ({} hosts, {} flows, {} ms)...",
            s.name, s.hosts, s.flows, s.sim_ms
        );
        let outcome = check_identity(s);
        eprintln!("  {} events, heap == wheel == traced wheel", outcome.0);
        if s.name == "leaf_spine_360" {
            let o = trace_overhead(s, outcome);
            eprintln!("  trace overhead {o:.3}x");
            overhead = Some(o);
        }
        rows.push(telemetry::json!({
            "name": s.name,
            "hosts": s.hosts as u64,
            "flows": s.flows as u64,
            "sim_ms": s.sim_ms,
            "events": outcome.0,
        }));
    }
    let overhead = overhead.expect("leaf-spine scenario present");

    // Timings are only interpretable relative to the machine: record
    // how many hardware threads it advertises and how many the suite
    // keeps busy (the single event-loop thread). `available_parallelism`
    // is 0 when the platform cannot say.
    let available_parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    let doc = telemetry::json!({
        "schema": "tfc-bench-scale/v8",
        "git": git_describe().as_str(),
        "host": telemetry::json!({
            "available_parallelism": available_parallelism,
            "active_threads": 1u64,
        }),
        "scenarios": Value::Array(rows),
        "trace_overhead": overhead,
    });

    let dir = results_dir().join("bench");
    std::fs::create_dir_all(&dir).expect("create results/bench");
    let path = dir.join("BENCH_scale.json");
    json::write_file(&path, |w| w.value(&doc)).expect("write BENCH_scale.json");

    // Self-validate: the written file must parse back with the expected
    // schema and sane numbers.
    let parsed = json::parse(&std::fs::read_to_string(&path).expect("read back"))
        .expect("BENCH_scale.json parses");
    assert_eq!(
        parsed.get("schema").and_then(Value::as_str),
        Some("tfc-bench-scale/v8")
    );
    let host = parsed.get("host").expect("host block present");
    for key in ["available_parallelism", "active_threads"] {
        assert!(
            host.get(key).and_then(Value::as_f64).is_some(),
            "host.{key} must be recorded"
        );
    }
    let scen = parsed
        .get("scenarios")
        .and_then(Value::as_array)
        .expect("scenarios array");
    assert_eq!(scen.len(), scenarios.len(), "every scenario recorded");
    for s in scen {
        let events = s.get("events").and_then(Value::as_f64).expect("events");
        assert!(events > 0.0, "a scenario processed no events");
    }
    let o = parsed.get("trace_overhead").and_then(Value::as_f64);
    assert!(
        o.is_some_and(|o| o > 0.0),
        "trace_overhead must be positive"
    );
    println!("{}", path.display());
}

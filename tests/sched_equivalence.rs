//! Scheduler-equivalence regression: the timing-wheel backend must
//! reproduce the reference binary-heap backend *byte for byte*.
//!
//! Four deterministic scenarios — a figure-style incast, a chaos
//! fault timeline on a leaf-spine, an open-loop streaming run with
//! flow retirement, and an ECMP fat-tree with link churn (multipath
//! spray plus selection-time reroute) — run once per variant,
//! exporting the full artifact
//! bundle (manifest, counters, events, flows, TFC slot gauges,
//! lifecycle-span sketches). Every exported file except the manifest
//! must be byte-identical across both variants: the wheel is a pure
//! data-structure substitution that pops in the same `(time, seq)`
//! order. The manifest is the one artifact that *should* differ — it
//! records which backend produced the run — so it is compared
//! semantically: backend fields must match the variant, everything
//! else must be identical.
//!
//! The streaming scenario pushes the bar further: a retired flow's id
//! is reused by the next flow mid-run and the retired sketches land in
//! the v2 `flows.json`, so byte-identity here proves
//! the whole retirement pipeline — deferred `Retire` calls, slab
//! reuse, sketch folds — is schedule-stable. A same-seed re-run of the
//! wheel must also reproduce the entire streaming bundle (manifest
//! included) byte for byte.
//!
//! Kept as a single `#[test]` because all halves set
//! `TFC_RESULTS_DIR`; Rust runs tests in threads and the environment is
//! process-global.

use std::path::{Path, PathBuf};

use chaos::FaultTimeline;
use experiments::artifacts::maybe_export;
use simnet::app::NullApp;
use simnet::endpoint::FlowSpec;
use simnet::retire::RetireConfig;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::{fat_tree, leaf_spine, star};
use simnet::units::{Bandwidth, Dur, Time};
use simnet::SchedulerKind;
use telemetry::{LogMode, TelemetryConfig};
use tfc::config::TfcSwitchConfig;
use tfc::{TfcStack, TfcSwitchPolicy};
use workloads::dist::{background_flow_sizes, cache_follower_flow_sizes};
use workloads::{StreamApp, StreamClass, StreamConfig};

/// One scheduling configuration under test.
#[derive(Clone, Copy, Debug)]
struct Variant {
    name: &'static str,
    kind: SchedulerKind,
}

const VARIANTS: [Variant; 2] = [
    Variant {
        name: "heap",
        kind: SchedulerKind::RefHeap,
    },
    Variant {
        name: "wheel",
        kind: SchedulerKind::Wheel,
    },
];

/// Full-fidelity telemetry, minus the wall-clock profile (which writes
/// non-deterministic nanosecond timings into `counters.json`). Span
/// tracing is on so `spans.json` joins the byte-compare: the lifecycle
/// sketches must also be backend-independent.
fn telemetry(run: &str) -> TelemetryConfig {
    TelemetryConfig {
        events: LogMode::Full,
        sample_one_in: 1,
        tfc_gauges: true,
        profile: false,
        trace: telemetry::TraceConfig::Full,
        export: Some(run.to_string()),
    }
}

/// Figure-style incast: 12 senders into one receiver through a star.
fn run_incast(v: Variant) {
    let (t, hosts, _hub) = star(13, Bandwidth::gbps(1), Dur::micros(5));
    let receiver = hosts[0];
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        NullApp,
        SimConfig {
            seed: 7,
            end: Some(Time(Dur::millis(30).as_nanos())),
            telemetry: telemetry("equiv_incast"),
            scheduler: v.kind,
            ..Default::default()
        },
    );
    for (i, &src) in hosts[1..].iter().enumerate() {
        sim.core_mut()
            .start_flow(FlowSpec::sized(src, receiver, 64_000 + 1_000 * i as u64));
    }
    sim.run();
    maybe_export(sim.core(), "star(13)", "sched-equivalence incast");
}

/// Chaos timeline on a small leaf-spine: link flap, host stall, loss
/// burst, and a policy reset, all scripted at fixed times.
fn run_chaos(v: Variant) {
    let (t, hosts, switches) = leaf_spine(
        4,
        6,
        Bandwidth::gbps(1),
        Bandwidth::gbps(10),
        Dur::micros(20),
    );
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        NullApp,
        SimConfig {
            seed: 11,
            end: Some(Time(Dur::millis(40).as_nanos())),
            telemetry: telemetry("equiv_chaos"),
            scheduler: v.kind,
            ..Default::default()
        },
    );
    for i in 0..16usize {
        let src = hosts[i];
        let dst = hosts[(i + 7) % hosts.len()];
        sim.core_mut()
            .start_flow(FlowSpec::sized(src, dst, 40_000 + 500 * i as u64));
    }
    let leaf = switches[0];
    FaultTimeline::new()
        .link_flap(Time(2_000_000), Dur::millis(1), leaf, 0)
        .host_stall(Time(6_000_000), Dur::millis(2), hosts[3])
        .loss_burst(Time(12_000_000), Dur::millis(1), leaf, 1, 300)
        .policy_reset(Time(20_000_000), leaf, 2)
        .install(sim.core_mut());
    sim.run();
    maybe_export(sim.core(), "leaf_spine(4x6)", "sched-equivalence chaos");
}

/// Open-loop streaming mix with flow retirement: two RPC classes drive
/// a small leaf-spine until 1 500 flows complete, reusing each retired
/// flow's id along the way. The retired
/// sketches and per-class counters ride in the v2 `flows.json`.
fn run_stream(v: Variant) {
    let (t, hosts, _switches) = leaf_spine(
        3,
        4,
        Bandwidth::gbps(10),
        Bandwidth::gbps(40),
        Dur::micros(20),
    );
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let app = StreamApp::new(StreamConfig {
        hosts,
        classes: vec![
            StreamClass {
                name: "cache-follower".into(),
                mean_interarrival: Dur::micros(4),
                sizes: cache_follower_flow_sizes(),
                weight: 1,
            },
            StreamClass {
                name: "web-search".into(),
                mean_interarrival: Dur::micros(40),
                sizes: background_flow_sizes(),
                weight: 1,
            },
        ],
        target_completed: Some(1_500),
        horizon: None,
        max_active: 0,
    });
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        app,
        SimConfig {
            seed: 23,
            retire: Some(RetireConfig {
                base_rtt: Dur::micros(170),
                line_rate: Bandwidth::gbps(10),
                classes: vec!["cache-follower".into(), "web-search".into()],
                ..RetireConfig::default()
            }),
            telemetry: telemetry("equiv_stream"),
            scheduler: v.kind,
            ..Default::default()
        },
    );
    sim.run();
    assert!(
        sim.app().completed() >= 1_500,
        "stream scenario stalled at {} completions under {}",
        sim.app().completed(),
        v.name
    );
    maybe_export(sim.core(), "leaf_spine(3x4)", "sched-equivalence stream");
}

/// ECMP fat-tree under route churn: cross-pod flows spray over the
/// k/2-way equal-cost route sets while an edge uplink flaps down and
/// back twice. Next-hop choice is the pure `(flow, hop)` hash and the
/// reroute filter reads only port liveness, so the backend may not leak
/// into a single artifact byte.
fn run_ecmp(v: Variant) {
    let (t, hosts, switches) =
        fat_tree(4, Bandwidth::gbps(1), Bandwidth::gbps(10), Dur::micros(20));
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        NullApp,
        SimConfig {
            seed: 31,
            end: Some(Time(Dur::millis(40).as_nanos())),
            telemetry: telemetry("equiv_ecmp"),
            scheduler: v.kind,
            ..Default::default()
        },
    );
    // Cross-pod pairs so every path climbs to the core and back: each
    // flow hashes onto one of the 2 uplinks / 2 core members per hop.
    for i in 0..12usize {
        let src = hosts[i];
        let dst = hosts[(i + hosts.len() / 2) % hosts.len()];
        sim.core_mut()
            .start_flow(FlowSpec::sized(src, dst, 48_000 + 750 * i as u64));
    }
    // switches = 4 cores, then per pod [agg, agg, edge, edge]; pod 0's
    // first edge is switches[6] and its ports 0..1 are the agg uplinks.
    let edge0 = switches[6];
    FaultTimeline::new()
        .link_flap(Time(3_000_000), Dur::millis(2), edge0, 0)
        .link_flap(Time(12_000_000), Dur::millis(1), edge0, 1)
        .install(sim.core_mut());
    sim.run();
    maybe_export(sim.core(), "fat_tree(4)", "sched-equivalence ecmp churn");
}

fn read(dir: &Path, run: &str, file: &str) -> Vec<u8> {
    let p = dir.join(run).join(file);
    std::fs::read(&p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

const ARTIFACTS: [&str; 5] = [
    "counters.json",
    "events.json",
    "flows.json",
    "tfc_slots.csv",
    "spans.json",
];

/// Manifests differ across variants exactly in the backend fields; the
/// rest of the document must match the reference byte-for-byte.
fn check_manifest(dir: &Path, run: &str, v: Variant, reference: &telemetry::json::Value) {
    let text = String::from_utf8(read(dir, run, "manifest.json")).unwrap();
    let mut doc = telemetry::json::parse(&text).unwrap_or_else(|e| panic!("{run} manifest: {e}"));
    let sim = doc
        .get("sim")
        .unwrap_or_else(|| panic!("{run} manifest lacks sim metadata"));
    assert_eq!(
        sim.get("scheduler").and_then(|s| s.as_str()),
        Some(format!("{:?}", v.kind).as_str()),
        "{run} manifest records the wrong scheduler for {}",
        v.name
    );
    assert_eq!(
        sim.get("trace").and_then(|s| s.as_str()),
        Some("full"),
        "{run} manifest records the wrong trace mode for {}",
        v.name
    );
    if let telemetry::json::Value::Object(m) = &mut doc {
        m.remove("sim");
    }
    assert_eq!(
        doc.pretty(),
        reference.pretty(),
        "{run} manifest differs beyond backend fields for {}",
        v.name
    );
}

/// The reference manifest with the variant-specific fields removed.
fn manifest_sans_sim(dir: &Path, run: &str) -> telemetry::json::Value {
    let text = String::from_utf8(read(dir, run, "manifest.json")).unwrap();
    let mut doc = telemetry::json::parse(&text).unwrap();
    if let telemetry::json::Value::Object(m) = &mut doc {
        m.remove("sim");
    }
    doc
}

#[test]
fn wheel_reproduces_heap_artifacts_byte_for_byte() {
    let base = std::env::temp_dir().join("tfc_sched_equiv_test");
    std::fs::remove_dir_all(&base).ok();
    let dir_of = |v: Variant| -> PathBuf {
        let dir = base.join(v.name);
        std::env::set_var("TFC_RESULTS_DIR", &dir);
        run_incast(v);
        run_chaos(v);
        run_stream(v);
        run_ecmp(v);
        dir
    };
    let dirs: Vec<PathBuf> = VARIANTS.iter().map(|&v| dir_of(v)).collect();

    // Same-seed re-run of the wheel: the streaming bundle — manifest
    // included, since backend and seed are identical — must reproduce
    // byte for byte. Retirement reuses flow ids mid-run, so this pins
    // down the whole lifecycle pipeline, not just the scheduler.
    let rerun = base.join("wheel_rerun");
    std::env::set_var("TFC_RESULTS_DIR", &rerun);
    run_stream(VARIANTS[1]);
    std::env::remove_var("TFC_RESULTS_DIR");
    for file in ARTIFACTS.into_iter().chain(["manifest.json"]) {
        assert_eq!(
            read(&dirs[1], "equiv_stream", file),
            read(&rerun, "equiv_stream", file),
            "equiv_stream/{file} differs between same-seed wheel re-runs"
        );
    }

    let reference = &dirs[0];
    for run in ["equiv_incast", "equiv_chaos", "equiv_stream", "equiv_ecmp"] {
        for file in ARTIFACTS {
            let want = read(reference, run, file);
            assert!(!want.is_empty(), "{run}/{file} is empty");
            for (v, dir) in VARIANTS.iter().zip(&dirs).skip(1) {
                let got = read(dir, run, file);
                assert_eq!(
                    want, got,
                    "{run}/{file} differs between {} and {}",
                    VARIANTS[0].name, v.name
                );
            }
        }
        let ref_manifest = manifest_sans_sim(reference, run);
        for (&v, dir) in VARIANTS.iter().zip(&dirs) {
            check_manifest(dir, run, v, &ref_manifest);
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

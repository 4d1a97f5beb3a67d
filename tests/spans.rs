//! Causal span-tracing acceptance: tracing must be *passive*.
//!
//! Three incast runs — trace off, full, and flow-sampled — share one
//! seed. Off must record zero span entries (checked via the
//! thread-local record counter, mirroring the zero-clone arena gate)
//! and must not write `spans.json`; every non-span artifact must be
//! byte-identical across all three modes, because observing a run can
//! never change it. Full-trace runs must drain their per-packet state
//! by simulation end (resident memory stays O(in-flight packets)) and
//! must populate each lifecycle stage's sketch with ordered quantiles.
//!
//! Kept as a single `#[test]`: every run reads the process-global
//! `TFC_RESULTS_DIR` environment variable.

use std::path::PathBuf;

use experiments::artifacts::maybe_export;
use simnet::app::NullApp;
use simnet::endpoint::FlowSpec;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::span::{
    thread_span_records, STAGE_E2E_DATA, STAGE_HOST_Q, STAGE_NAMES, STAGE_SW_Q, STAGE_WIRE,
};
use telemetry::{LogMode, SpanTracker, TelemetryConfig, TraceConfig};
use tfc::config::TfcSwitchConfig;
use tfc::{TfcStack, TfcSwitchPolicy};

/// What one traced (or untraced) incast run leaves behind.
struct RunOut {
    dir: PathBuf,
    tracked: u64,
    active: usize,
    records: u64,
}

/// 8-sender incast through a star hub, fixed seed, full event log.
/// Only the trace mode varies across calls; `inspect` sees the live
/// tracker before the simulator is dropped.
fn run_incast(trace: TraceConfig, run: &str, inspect: impl FnOnce(&SpanTracker)) -> RunOut {
    let before = thread_span_records();
    let (t, hosts, _hub) = star(9, Bandwidth::gbps(1), Dur::micros(2));
    let receiver = hosts[0];
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        NullApp,
        SimConfig {
            seed: 21,
            end: Some(Time(Dur::millis(30).as_nanos())),
            telemetry: TelemetryConfig {
                events: LogMode::Full,
                sample_one_in: 1,
                tfc_gauges: true,
                profile: false,
                trace,
                export: Some(run.to_string()),
            },
            ..Default::default()
        },
    );
    for (i, &src) in hosts[1..].iter().enumerate() {
        sim.core_mut()
            .start_flow(FlowSpec::sized(src, receiver, 48_000 + 1_000 * i as u64));
    }
    sim.run();
    let dir = maybe_export(sim.core(), "star(9)", "span acceptance").expect("export dir");
    let spans = &sim.core().telemetry().spans;
    inspect(spans);
    RunOut {
        dir,
        tracked: spans.tracked_packets(),
        active: spans.active_len(),
        records: thread_span_records() - before,
    }
}

#[test]
fn tracing_is_zero_cost_off_passive_on_and_bounded() {
    let base = std::env::temp_dir().join("tfc_spans_test");
    std::fs::remove_dir_all(&base).ok();
    std::env::set_var("TFC_RESULTS_DIR", &base);

    let off = run_incast(TraceConfig::Off, "spans_off", |_| {});
    assert_eq!(
        off.records, 0,
        "TraceConfig::Off must record zero span entries"
    );
    assert_eq!(off.tracked, 0);
    assert!(
        !off.dir.join("spans.json").exists(),
        "an untraced run must not write spans.json"
    );

    let full = run_incast(TraceConfig::Full, "spans_full", |spans| {
        // Every core lifecycle stage fills in on an incast: sender NIC
        // queue (hop 0), hub queue (hop 1), host->hub wire (hop 1), and
        // data end-to-end. Quantiles must be ordered and bracketed by
        // the observed extremes, within the sketch's relative error.
        for (stage, hop) in [
            (STAGE_HOST_Q, 0u8),
            (STAGE_SW_Q, 1),
            (STAGE_WIRE, 1),
            (STAGE_E2E_DATA, 0),
        ] {
            let name = STAGE_NAMES[stage as usize];
            let sk = spans
                .sketch(stage, hop)
                .unwrap_or_else(|| panic!("no sketch for {name}@{hop}"));
            assert!(sk.count() > 0, "{name}@{hop} is empty");
            let p50 = sk.quantile(0.5).unwrap();
            let p99 = sk.quantile(0.99).unwrap();
            let p999 = sk.quantile(0.999).unwrap();
            let (min, max) = (sk.min().unwrap(), sk.max().unwrap());
            let slack = 2.0 * sk.alpha();
            assert!(
                min * (1.0 - slack) <= p50 && p50 <= p99 && p99 <= p999,
                "{name}@{hop}: unordered quantiles {p50} {p99} {p999} (min {min})"
            );
            assert!(
                p999 <= max * (1.0 + slack),
                "{name}@{hop}: p999 {p999} above max {max}"
            );
        }
    });
    assert!(full.records > 0, "full trace recorded nothing");
    assert!(full.tracked > 0);
    assert_eq!(
        full.active, 0,
        "span state must drain with the packets that own it"
    );
    assert!(full.dir.join("spans.json").exists());

    let sampled = run_incast(
        TraceConfig::SampledFlows {
            permille: 500,
            seed: 3,
        },
        "spans_sampled",
        |_| {},
    );
    assert!(
        sampled.tracked > 0 && sampled.tracked < full.tracked,
        "permille=500 should track a strict, non-empty subset \
         ({} of {} packets)",
        sampled.tracked,
        full.tracked
    );

    // The simulation must be oblivious to being observed: every
    // non-span artifact is byte-identical whatever the trace mode.
    for file in [
        "counters.json",
        "events.json",
        "flows.json",
        "tfc_slots.csv",
    ] {
        let want = std::fs::read(off.dir.join(file)).unwrap();
        assert!(!want.is_empty(), "{file} is empty");
        for (mode, dir) in [("full", &full.dir), ("sampled", &sampled.dir)] {
            let got = std::fs::read(dir.join(file)).unwrap();
            assert_eq!(want, got, "{file} differs between off and {mode} tracing");
        }
    }

    std::env::remove_var("TFC_RESULTS_DIR");
    std::fs::remove_dir_all(&base).ok();
}

//! Artifact export streams: exporting a large bundle must not grow the
//! live heap by more than a small, size-independent bound.
//!
//! The shared counting allocator (`tests/common`) tracks live bytes and
//! their high-water mark. The test exports 100k stored event records and 100k flows —
//! whole-file trees or strings of that bundle would take tens of MiB —
//! and asserts that export's peak live-heap growth stays within 1 MiB.
//! This binary holds exactly one test, so no other thread allocates
//! while it measures.

use telemetry::export::export_run;
use telemetry::{
    EventLog, FlowSummary, LogMode, RunManifest, Telemetry, TelemetryConfig, TraceEvent,
};

mod common;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

const RECORDS: u64 = 100_000;
const FLOWS: u64 = 100_000;
const BOUND: usize = 1 << 20;

#[test]
fn export_heap_growth_is_bounded() {
    let dir = std::env::temp_dir().join(format!("tfc_export_memory_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::env::set_var("TFC_RESULTS_DIR", &dir);

    let mut log = EventLog::new(LogMode::Full, 1, 1);
    for i in 0..RECORDS {
        let event = match i % 4 {
            0 => TraceEvent::PktEnqueue {
                node: (i % 64) as u32,
                port: (i % 8) as u16,
                flow: i / 4,
                seq: i * 1460,
                bytes: 1500,
                queue_bytes: (i % 100) * 1500,
            },
            1 => TraceEvent::PktDeliver {
                node: 1,
                flow: i / 4,
                bytes: 1460,
            },
            2 => TraceEvent::FlowRttSample {
                flow: i / 4,
                nanos: 100_000 + i,
            },
            _ => TraceEvent::PktAck {
                node: 0,
                flow: i / 4,
                ack: i * 1460,
            },
        };
        log.record(i * 1_000, event);
    }
    // Unprofiled loop counters, spans off: only the log is exported.
    let mut tel = Telemetry::new(&TelemetryConfig::default(), 1, &["arrival"]);
    tel.log = log;
    let manifest = RunManifest {
        run: "export-memory".into(),
        seed: 1,
        topology: "synthetic".into(),
        config: "100k records, 100k flows".into(),
        git: "unknown".into(),
        sim: None,
    };
    let flows = (0..FLOWS).map(|i| FlowSummary {
        flow: i,
        src: (i % 128) as u32,
        dst: 128,
        bytes: 65_536,
        delivered: 65_536,
        retransmits: i % 3,
        timeouts: 0,
        started_ns: i * 10,
        established_ns: Some(i * 10 + 5),
        receiver_done_ns: (i % 2 == 0).then_some(i * 10 + 900),
        sender_done_ns: None,
    });

    let base = common::live();
    common::reset_peak();
    let out = export_run(&manifest, &tel, flows, None, &[]).unwrap();
    let growth = common::peak() - base;

    let events = std::fs::metadata(out.join("events.json")).unwrap().len();
    let flows = std::fs::metadata(out.join("flows.json")).unwrap().len();
    std::fs::remove_dir_all(&dir).ok();
    println!("export live-heap growth: {growth} B for {events} B of events, {flows} B of flows");
    // The files are each many times the bound, so a whole-file tree or
    // string cannot pass.
    assert!(
        events > 8 * BOUND as u64 && flows > 8 * BOUND as u64,
        "{events} / {flows} B"
    );
    assert!(
        growth <= BOUND,
        "export grew the live heap by {growth} B (bound {BOUND} B) for {events} B of events and {flows} B of flows"
    );
}

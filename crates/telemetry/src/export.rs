//! Per-run artifact exporters.
//!
//! A run exports up to seven files under `results/<run>/`:
//!
//! * `manifest.json` — seed, topology, config, simulator backend
//!   settings, git describe;
//! * `counters.json` — exact per-kind event counts plus the event-loop
//!   profile rows;
//! * `events.json` — the stored [`EventRecord`]s (sampled/ring-bounded);
//! * `flows.json` — per-flow ground-truth summaries from the simulator;
//! * `tfc_slots.csv` — the per-port TFC gauge time series;
//! * `spans.json` — per-hop lifecycle-span sketches (only when span
//!   tracing is on, so `TraceConfig::Off` artifact sets stay
//!   byte-identical to pre-span runs);
//! * `traces.csv` — the simulator's queue-sampler series, one
//!   `queue.s<node>.p<port>` series per sampler (only when any exist).
//!
//! Everything is plain JSON/CSV readable by `tfc-trace` (via
//! [`crate::json::parse`]) or any external tool.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::process::Command;

use metrics::QuantileSketch;

use crate::counters::{LoopStats, PortSlotSample};
use crate::event::{EventLog, EventRecord, TraceEvent, EVENT_KIND_NAMES};
use crate::json::{Map, Value};
use crate::span::SpanTracker;

/// Metadata making a run reproducible from its artifacts alone.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Run name (the directory under `results/`).
    pub run: String,
    /// Simulation seed.
    pub seed: u64,
    /// Human-readable topology description.
    pub topology: String,
    /// Experiment / protocol configuration (usually the `Debug` form).
    pub config: String,
    /// `git describe` of the tree that produced the artifacts.
    pub git: String,
    /// Simulator backend settings, when the run came from the event
    /// loop (`None` for figure dumps and other non-sim artifacts).
    pub sim: Option<SimMeta>,
}

/// Which simulator backend produced a run — recorded in the manifest so
/// artifacts are self-describing (`tfc-trace diff` ignores none of
/// these: a heap run and a wheel run of the same experiment are still
/// the same simulation, but the manifest says which one you're holding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimMeta {
    /// Event-queue backend (`Debug` form of `SchedulerKind`).
    pub scheduler: String,
    /// Lifecycle-span tracing mode ([`crate::TraceConfig::describe`]).
    pub trace: String,
}

/// Best-effort `git describe --always --dirty` of the working tree;
/// `"unknown"` outside a repository or without git.
pub fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where run artifacts and figure dumps go (`TFC_RESULTS_DIR` overrides
/// the default `results`).
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("TFC_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

/// Per-flow ground truth copied out of the simulator after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSummary {
    /// Flow id.
    pub flow: u64,
    /// Source host.
    pub src: u32,
    /// Destination host.
    pub dst: u32,
    /// Requested size in bytes (0 = open-ended).
    pub bytes: u64,
    /// In-order bytes delivered to the application.
    pub delivered: u64,
    /// Packets retransmitted.
    pub retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Start time (ns).
    pub started_ns: u64,
    /// Handshake completion time (ns), if reached.
    pub established_ns: Option<u64>,
    /// Receiver completion time (ns), if reached.
    pub receiver_done_ns: Option<u64>,
    /// Sender completion time (ns), if reached.
    pub sender_done_ns: Option<u64>,
}

fn manifest_json(m: &RunManifest) -> Value {
    let mut doc = crate::json!({
        "run": m.run.as_str(),
        "seed": m.seed,
        "topology": m.topology.as_str(),
        "config": m.config.as_str(),
        "git": m.git.as_str(),
    });
    if let (Value::Object(map), Some(sim)) = (&mut doc, &m.sim) {
        map.insert(
            "sim".to_string(),
            crate::json!({
                "scheduler": sim.scheduler.as_str(),
                "trace": sim.trace.as_str(),
            }),
        );
    }
    doc
}

fn counters_json(log: &EventLog, loop_stats: &LoopStats) -> Value {
    let mut events = Map::new();
    for (name, count) in EVENT_KIND_NAMES.iter().zip(log.counts()) {
        events.insert((*name).to_string(), Value::from(*count));
    }
    let loop_rows: Vec<Value> = loop_stats
        .rows()
        .map(
            |(name, count, _, nanos)| crate::json!({"event": name, "count": count, "nanos": nanos}),
        )
        .collect();
    crate::json!({
        "events": Value::Object(events),
        "stored": log.len(),
        "evicted": log.evicted(),
        "sampled_out": log.sampled_out(),
        "loop": Value::Array(loop_rows),
        "loop_total": loop_stats.total(),
        "loop_total_nanos": loop_stats.total_nanos(),
    })
}

/// The JSON form of one event record (the schema documented in the
/// repository README).
pub fn record_json(r: &EventRecord) -> Value {
    let mut m = Map::new();
    let mut put = |k: &str, v: Value| {
        m.insert(k.to_string(), v);
    };
    put("at_ns", r.at_ns.into());
    put("kind", r.event.kind_name().into());
    match r.event {
        TraceEvent::PktEnqueue {
            node,
            port,
            flow,
            seq,
            bytes,
            queue_bytes,
        } => {
            put("node", node.into());
            put("port", port.into());
            put("flow", flow.into());
            put("seq", seq.into());
            put("bytes", bytes.into());
            put("queue_bytes", queue_bytes.into());
        }
        TraceEvent::PktDequeue {
            node,
            port,
            flow,
            seq,
            bytes,
        }
        | TraceEvent::PktDrop {
            node,
            port,
            flow,
            seq,
            bytes,
        } => {
            put("node", node.into());
            put("port", port.into());
            put("flow", flow.into());
            put("seq", seq.into());
            put("bytes", bytes.into());
        }
        TraceEvent::PktEcnMark {
            node,
            port,
            flow,
            seq,
        } => {
            put("node", node.into());
            put("port", port.into());
            put("flow", flow.into());
            put("seq", seq.into());
        }
        TraceEvent::PktRoundMark {
            node,
            port,
            flow,
            seq,
            window,
        } => {
            put("node", node.into());
            put("port", port.into());
            put("flow", flow.into());
            put("seq", seq.into());
            put("window", window.into());
        }
        TraceEvent::PktDeliver { node, flow, bytes } => {
            put("node", node.into());
            put("flow", flow.into());
            put("bytes", bytes.into());
        }
        TraceEvent::PktAck { node, flow, ack } => {
            put("node", node.into());
            put("flow", flow.into());
            put("ack", ack.into());
        }
        TraceEvent::FlowOpen {
            flow,
            src,
            dst,
            bytes,
        } => {
            put("flow", flow.into());
            put("src", src.into());
            put("dst", dst.into());
            put("bytes", bytes.into());
        }
        TraceEvent::FlowEstablished { flow }
        | TraceEvent::FlowRetransmit { flow }
        | TraceEvent::FlowRto { flow } => {
            put("flow", flow.into());
        }
        TraceEvent::FlowWindowAcquired { flow, window } => {
            put("flow", flow.into());
            put("window", window.into());
        }
        TraceEvent::FlowFin { flow, delivered } => {
            put("flow", flow.into());
            put("delivered", delivered.into());
        }
        TraceEvent::FlowRttSample { flow, nanos } => {
            put("flow", flow.into());
            put("nanos", nanos.into());
        }
        TraceEvent::FaultInjected {
            kind,
            node,
            port,
            value,
        }
        | TraceEvent::FaultCleared {
            kind,
            node,
            port,
            value,
        } => {
            put("fault", kind.into());
            put("node", node.into());
            put("port", port.into());
            put("value", value.into());
        }
        TraceEvent::Rerouted { node, port, dests } => {
            put("node", node.into());
            put("port", port.into());
            put("dests", dests.into());
        }
    }
    Value::Object(m)
}

/// Per-class streaming statistics of retired flows, as exported into
/// `flows.json` when the simulator ran with flow retirement on. The
/// sketches are the *only* record of the retired flows — their dense
/// state was freed mid-run — so the document carries everything needed
/// to rebuild them ([`retired_from_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RetiredClass {
    /// Class tag (index into the retire config's class list).
    pub class: u8,
    /// Class name.
    pub name: String,
    /// Flows retired into this class.
    pub count: u64,
    /// FCT sketch (nanoseconds).
    pub fct_ns: QuantileSketch,
    /// Transferred-bytes sketch.
    pub bytes: QuantileSketch,
    /// Per-flow retransmit-count sketch.
    pub retransmits: QuantileSketch,
    /// Slowdown sketch in thousandths (slowdown x 1000).
    pub slowdown_milli: QuantileSketch,
}

/// The retired-flow section of a streaming run's `flows.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetiredFlows {
    /// Relative-error bound of all sketches.
    pub alpha: f64,
    /// Total flows retired.
    pub total: u64,
    /// Flow-slab slots materialised (peak-RSS proxy: bounded by peak
    /// concurrency, not total flows).
    pub slab_capacity: u64,
    /// Peak simultaneously live flows.
    pub slab_peak: u64,
    /// Per-class statistics, indexed by class tag.
    pub classes: Vec<RetiredClass>,
}

/// The JSON form of one quantile sketch: exact bucket contents plus
/// convenience quantiles. Inverse of [`sketch_from_json`].
pub fn sketch_json(s: &QuantileSketch) -> Value {
    let q = |p: f64| Value::from(s.quantile(p).unwrap_or(0.0));
    let buckets: Vec<Value> = s
        .bucket_entries()
        .into_iter()
        .map(|(k, c)| Value::Array(vec![Value::from(i64::from(k)), Value::from(c)]))
        .collect();
    let mut m = Map::new();
    m.insert("count".into(), s.count().into());
    m.insert("zero".into(), s.zero_count().into());
    m.insert("sum".into(), s.sum().into());
    m.insert("min".into(), s.min().unwrap_or(0.0).into());
    m.insert("max".into(), s.max().unwrap_or(0.0).into());
    m.insert("p50".into(), q(0.50));
    m.insert("p90".into(), q(0.90));
    m.insert("p99".into(), q(0.99));
    m.insert("p999".into(), q(0.999));
    m.insert("buckets".into(), Value::Array(buckets));
    Value::Object(m)
}

/// Rebuilds a sketch from its [`sketch_json`] form.
pub fn sketch_from_json(v: &Value, alpha: f64) -> Result<QuantileSketch, String> {
    let num = |k: &str| -> Result<f64, String> {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("sketch missing numeric '{k}'"))
    };
    let entries: Vec<(i32, u64)> = v
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or("sketch missing 'buckets'")?
        .iter()
        .map(|pair| {
            let p = pair.as_array().filter(|p| p.len() == 2).ok_or("bad bucket pair")?;
            let k = p[0].as_i64().ok_or("bad bucket key")? as i32;
            let c = p[1].as_i64().ok_or("bad bucket count")? as u64;
            Ok::<(i32, u64), String>((k, c))
        })
        .collect::<Result<_, _>>()?;
    Ok(QuantileSketch::from_parts(
        alpha,
        num("zero")? as u64,
        &entries,
        num("sum")?,
        num("min")?,
        num("max")?,
    ))
}

fn retired_class_json(c: &RetiredClass) -> Value {
    crate::json!({
        "class": u64::from(c.class),
        "name": c.name.as_str(),
        "count": c.count,
        "fct_ns": sketch_json(&c.fct_ns),
        "bytes": sketch_json(&c.bytes),
        "retransmits": sketch_json(&c.retransmits),
        "slowdown_milli": sketch_json(&c.slowdown_milli),
    })
}

/// Parses the retired-flow section back out of a `flows.json` document
/// in the `tfc-flows/v2` object form (inverse of the exporter; used by
/// `tfc-trace --flows`).
pub fn retired_from_json(doc: &Value) -> Result<RetiredFlows, String> {
    match doc.get("schema").and_then(Value::as_str) {
        Some("tfc-flows/v2") => {}
        other => return Err(format!("not a tfc-flows/v2 document (schema {other:?})")),
    }
    let num = |k: &str| -> Result<f64, String> {
        doc.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("flows.json missing numeric '{k}'"))
    };
    let alpha = num("alpha")?;
    let classes = doc
        .get("classes")
        .and_then(Value::as_array)
        .ok_or("flows.json missing 'classes'")?
        .iter()
        .map(|c| {
            let sketch = |k: &str| {
                sketch_from_json(c.get(k).ok_or_else(|| format!("class missing '{k}'"))?, alpha)
            };
            Ok::<RetiredClass, String>(RetiredClass {
                class: c.get("class").and_then(Value::as_i64).ok_or("class missing tag")? as u8,
                name: c
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("class missing name")?
                    .to_string(),
                count: c.get("count").and_then(Value::as_i64).ok_or("class missing count")? as u64,
                fct_ns: sketch("fct_ns")?,
                bytes: sketch("bytes")?,
                retransmits: sketch("retransmits")?,
                slowdown_milli: sketch("slowdown_milli")?,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(RetiredFlows {
        alpha,
        total: num("retired_total")? as u64,
        slab_capacity: num("slab_capacity")? as u64,
        slab_peak: num("slab_peak")? as u64,
        classes,
    })
}

fn flows_json(flows: &[FlowSummary], retired: Option<&RetiredFlows>) -> Value {
    let live = Value::Array(
        flows
            .iter()
            .map(|f| {
                crate::json!({
                    "flow": f.flow,
                    "src": f.src,
                    "dst": f.dst,
                    "bytes": f.bytes,
                    "delivered": f.delivered,
                    "retransmits": f.retransmits,
                    "timeouts": f.timeouts,
                    "started_ns": f.started_ns,
                    "established_ns": f.established_ns,
                    "receiver_done_ns": f.receiver_done_ns,
                    "sender_done_ns": f.sender_done_ns,
                })
            })
            .collect(),
    );
    // A run without retirement keeps the historical bare-array form, so
    // existing artifact sets stay byte-identical. Retirement upgrades
    // the document to an object: retired sketches plus the (few) flows
    // still live at export time.
    match retired {
        None => live,
        Some(r) => crate::json!({
            "schema": "tfc-flows/v2",
            "alpha": r.alpha,
            "retired_total": r.total,
            "slab_capacity": r.slab_capacity,
            "slab_peak": r.slab_peak,
            "classes": Value::Array(r.classes.iter().map(retired_class_json).collect()),
            "live": live,
        }),
    }
}

/// Column header of `tfc_slots.csv`.
pub const SLOTS_CSV_HEADER: &str =
    "at_ns,node,port,token_bytes,effective_flows,rho,window_bytes,rtt_b_ns,rtt_m_ns,held_acks,delayed_total";

fn slots_csv(slots: &[PortSlotSample]) -> String {
    let mut out = String::with_capacity(64 * (slots.len() + 1));
    out.push_str(SLOTS_CSV_HEADER);
    out.push('\n');
    for s in slots {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            s.at_ns,
            s.node,
            s.port,
            s.token_bytes,
            s.effective_flows,
            s.rho,
            s.window_bytes,
            s.rtt_b_ns,
            s.rtt_m_ns,
            s.held_acks,
            s.delayed_total
        );
    }
    out
}

/// Parses one `tfc_slots.csv` body back into samples (inverse of the
/// exporter; used by `tfc-trace`).
pub fn parse_slots_csv(text: &str) -> Result<Vec<PortSlotSample>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == SLOTS_CSV_HEADER => {}
        other => return Err(format!("bad tfc_slots.csv header: {other:?}")),
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 11 {
            return Err(format!("row {}: expected 11 fields, got {}", i + 2, f.len()));
        }
        let num =
            |j: usize| -> Result<f64, String> { f[j].parse().map_err(|e| format!("row {}: {e}", i + 2)) };
        let int =
            |j: usize| -> Result<u64, String> { f[j].parse().map_err(|e| format!("row {}: {e}", i + 2)) };
        out.push(PortSlotSample {
            at_ns: int(0)?,
            node: int(1)? as u32,
            port: int(2)? as u16,
            token_bytes: num(3)?,
            effective_flows: num(4)?,
            rho: num(5)?,
            window_bytes: int(6)?,
            rtt_b_ns: int(7)?,
            rtt_m_ns: int(8)?,
            held_acks: int(9)?,
            delayed_total: int(10)?,
        });
    }
    Ok(out)
}

/// Writes just `results/<manifest.run>/manifest.json` — for runs whose
/// outputs live elsewhere (e.g. figure dumps) but should still record
/// how they were produced. Returns the directory path.
pub fn write_manifest(manifest: &RunManifest) -> io::Result<PathBuf> {
    let dir = results_dir().join(&manifest.run);
    fs::create_dir_all(&dir)?;
    fs::write(dir.join("manifest.json"), manifest_json(manifest).pretty())?;
    Ok(dir)
}

/// Column header of `traces.csv` (flattened named queue-sampler series).
pub const TRACES_CSV_HEADER: &str = "series,at_ns,value";

fn traces_csv(series: &[(&str, &[(u64, f64)])]) -> String {
    let mut out = String::from(TRACES_CSV_HEADER);
    out.push('\n');
    for (name, points) in series {
        for (at_ns, value) in *points {
            let _ = writeln!(out, "{name},{at_ns},{value}");
        }
    }
    out
}

/// Writes the full artifact set under `results/<manifest.run>/` and
/// returns the directory path.
///
/// `spans.json` is written only when span tracing is enabled and
/// `traces.csv` only when sampler series exist, so a `TraceConfig::Off`
/// run without samplers produces exactly the historical five files.
pub fn export_run(
    manifest: &RunManifest,
    log: &EventLog,
    loop_stats: &LoopStats,
    slots: &[PortSlotSample],
    flows: &[FlowSummary],
    retired: Option<&RetiredFlows>,
    spans: &SpanTracker,
    series: &[(&str, &[(u64, f64)])],
) -> io::Result<PathBuf> {
    let dir = write_manifest(manifest)?;
    fs::write(dir.join("counters.json"), counters_json(log, loop_stats).pretty())?;
    let events = Value::Array(log.records().iter().map(record_json).collect());
    fs::write(dir.join("events.json"), events.pretty())?;
    fs::write(dir.join("flows.json"), flows_json(flows, retired).pretty())?;
    fs::write(dir.join("tfc_slots.csv"), slots_csv(slots))?;
    if spans.enabled() {
        fs::write(dir.join("spans.json"), spans.to_json().pretty())?;
    }
    if !series.is_empty() {
        fs::write(dir.join("traces.csv"), traces_csv(series))?;
    }
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogMode;
    use crate::json;

    const NAMES: [&str; 2] = ["arrival", "tx_done"];

    fn sample() -> PortSlotSample {
        PortSlotSample {
            at_ns: 123,
            node: 2,
            port: 1,
            token_bytes: 18_000.5,
            effective_flows: 3.25,
            rho: 0.97,
            window_bytes: 5_840,
            rtt_b_ns: 160_000,
            rtt_m_ns: 170_500,
            held_acks: 2,
            delayed_total: 9,
        }
    }

    #[test]
    fn slots_csv_roundtrips() {
        let slots = vec![sample(), PortSlotSample { at_ns: 456, ..sample() }];
        let csv = slots_csv(&slots);
        assert!(csv.starts_with(SLOTS_CSV_HEADER));
        assert_eq!(parse_slots_csv(&csv).unwrap(), slots);
        assert!(parse_slots_csv("nope\n1,2").is_err());
    }

    #[test]
    fn export_writes_all_artifacts() {
        let dir = std::env::temp_dir().join("tfc_telemetry_export_test");
        std::fs::remove_dir_all(&dir).ok();
        std::env::set_var("TFC_RESULTS_DIR", &dir);
        let mut log = EventLog::new(LogMode::Full, 1, 1);
        log.record(
            10,
            TraceEvent::PktDrop {
                node: 2,
                port: 0,
                flow: 7,
                seq: 1460,
                bytes: 1500,
            },
        );
        log.record(20, TraceEvent::FlowRetransmit { flow: 7 });
        let mut stats = LoopStats::new(&NAMES, true);
        stats.count(0);
        stats.add_nanos(0, 55);
        let flows = vec![FlowSummary {
            flow: 7,
            src: 0,
            dst: 1,
            bytes: 14_600,
            delivered: 14_600,
            retransmits: 1,
            timeouts: 0,
            started_ns: 0,
            established_ns: Some(5),
            receiver_done_ns: Some(99),
            sender_done_ns: None,
        }];
        let manifest = RunManifest {
            run: "unit".into(),
            seed: 3,
            topology: "star(2)".into(),
            config: "Cfg { x: 1 }".into(),
            git: "deadbeef".into(),
            sim: Some(SimMeta {
                scheduler: "Wheel".into(),
                trace: "full".into(),
            }),
        };
        let mut spans = SpanTracker::new(crate::TraceConfig::Full);
        spans.on_enqueue(1, 7, true, true, 0);
        spans.on_dequeue(1, 7, 50);
        spans.on_deliver(1, 7, 0, 120);
        let points: &[(u64, f64)] = &[(10, 0.5), (20, 0.75)];
        let out = export_run(
            &manifest,
            &log,
            &stats,
            &[sample()],
            &flows,
            None,
            &spans,
            &[("sw1.p0.rho", points)],
        )
        .unwrap();
        for f in [
            "manifest.json",
            "counters.json",
            "events.json",
            "flows.json",
            "tfc_slots.csv",
            "spans.json",
            "traces.csv",
        ] {
            assert!(out.join(f).exists(), "{f} missing");
        }
        // Everything JSON parses back, and key fields survive.
        let m = json::parse(&std::fs::read_to_string(out.join("manifest.json")).unwrap()).unwrap();
        assert_eq!(m.get("seed").unwrap().as_i64(), Some(3));
        let sim = m.get("sim").unwrap();
        assert_eq!(sim.get("scheduler").unwrap().as_str(), Some("Wheel"));
        assert_eq!(sim.get("trace").unwrap().as_str(), Some("full"));
        let sp = json::parse(&std::fs::read_to_string(out.join("spans.json")).unwrap()).unwrap();
        assert_eq!(sp.get("tracked_packets").unwrap().as_i64(), Some(1));
        let tr = std::fs::read_to_string(out.join("traces.csv")).unwrap();
        assert!(tr.starts_with(TRACES_CSV_HEADER));
        assert!(tr.contains("sw1.p0.rho,10,0.5"));
        let c = json::parse(&std::fs::read_to_string(out.join("counters.json")).unwrap()).unwrap();
        assert_eq!(
            c.get("events").unwrap().get("pkt_drop").unwrap().as_i64(),
            Some(1)
        );
        let e = json::parse(&std::fs::read_to_string(out.join("events.json")).unwrap()).unwrap();
        let recs = e.as_array().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].get("kind").unwrap().as_str(), Some("pkt_drop"));
        assert_eq!(recs[1].get("flow").unwrap().as_i64(), Some(7));
        let fl = json::parse(&std::fs::read_to_string(out.join("flows.json")).unwrap()).unwrap();
        assert_eq!(
            fl.as_array().unwrap()[0].get("delivered").unwrap().as_i64(),
            Some(14_600)
        );
        // An untraced run exports exactly the historical five files.
        let off = RunManifest { run: "unit-off".into(), sim: None, ..manifest };
        let out_off = export_run(
            &off,
            &log,
            &stats,
            &[sample()],
            &flows,
            None,
            &SpanTracker::new(crate::TraceConfig::Off),
            &[],
        )
        .unwrap();
        assert!(!out_off.join("spans.json").exists());
        assert!(!out_off.join("traces.csv").exists());
        let m_off =
            json::parse(&std::fs::read_to_string(out_off.join("manifest.json")).unwrap()).unwrap();
        assert!(m_off.get("sim").is_none());
        std::fs::remove_dir_all(&dir).ok();
        std::env::remove_var("TFC_RESULTS_DIR");
    }

    #[test]
    fn retired_flows_json_roundtrips() {
        let mut fct = QuantileSketch::new(0.01);
        let mut bytes = QuantileSketch::new(0.01);
        let mut rtx = QuantileSketch::new(0.01);
        let mut slow = QuantileSketch::new(0.01);
        for i in 1..=500u64 {
            fct.record(i as f64 * 1_000.0);
            bytes.record(600.0 + i as f64);
            rtx.record((i % 3) as f64);
            slow.record(1_000.0 + i as f64);
        }
        let retired = RetiredFlows {
            alpha: 0.01,
            total: 500,
            slab_capacity: 32,
            slab_peak: 30,
            classes: vec![RetiredClass {
                class: 0,
                name: "web-search".into(),
                count: 500,
                fct_ns: fct,
                bytes,
                retransmits: rtx,
                slowdown_milli: slow,
            }],
        };
        let doc = flows_json(&[], Some(&retired));
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("tfc-flows/v2"));
        assert!(doc.get("live").unwrap().as_array().unwrap().is_empty());
        let back = retired_from_json(&doc).unwrap();
        assert_eq!(back, retired, "sketches must survive the JSON roundtrip");
        // The bare-array legacy form is rejected, not misparsed.
        assert!(retired_from_json(&flows_json(&[], None)).is_err());
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }
}

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

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use metrics::QuantileSketch;

use crate::counters::{LoopStats, PortSlotSample};
use crate::event::{EventLog, EventRecord, TraceEvent, EVENT_KIND_NAMES};
use crate::json::{self, Map, PrettyWriter, Value};
use crate::Telemetry;

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
/// `"unknown"` outside a repository or without git. Computed once per
/// process: every manifest would otherwise spawn `git`.
pub fn git_describe() -> String {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
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

/// Writes one event record as a JSON object (the schema documented in
/// the repository README), keys in ascending order.
fn write_record<W: Write>(w: &mut PrettyWriter<W>, r: &EventRecord) -> io::Result<()> {
    let at = r.at_ns;
    let kind = r.event.kind_name();
    w.begin_object()?;
    match r.event {
        TraceEvent::PktEnqueue {
            node,
            port,
            flow,
            seq,
            bytes,
            queue_bytes,
        } => {
            w.field("at_ns", at)?;
            w.field("bytes", bytes)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
            w.field("node", node)?;
            w.field("port", port)?;
            w.field("queue_bytes", queue_bytes)?;
            w.field("seq", seq)?;
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
            w.field("at_ns", at)?;
            w.field("bytes", bytes)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
            w.field("node", node)?;
            w.field("port", port)?;
            w.field("seq", seq)?;
        }
        TraceEvent::PktEcnMark {
            node,
            port,
            flow,
            seq,
        } => {
            w.field("at_ns", at)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
            w.field("node", node)?;
            w.field("port", port)?;
            w.field("seq", seq)?;
        }
        TraceEvent::PktRoundMark {
            node,
            port,
            flow,
            seq,
            window,
        } => {
            w.field("at_ns", at)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
            w.field("node", node)?;
            w.field("port", port)?;
            w.field("seq", seq)?;
            w.field("window", window)?;
        }
        TraceEvent::PktDeliver { node, flow, bytes } => {
            w.field("at_ns", at)?;
            w.field("bytes", bytes)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
            w.field("node", node)?;
        }
        TraceEvent::PktAck { node, flow, ack } => {
            w.field("ack", ack)?;
            w.field("at_ns", at)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
            w.field("node", node)?;
        }
        TraceEvent::FlowOpen {
            flow,
            src,
            dst,
            bytes,
        } => {
            w.field("at_ns", at)?;
            w.field("bytes", bytes)?;
            w.field("dst", dst)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
            w.field("src", src)?;
        }
        TraceEvent::FlowEstablished { flow }
        | TraceEvent::FlowRetransmit { flow }
        | TraceEvent::FlowRto { flow } => {
            w.field("at_ns", at)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
        }
        TraceEvent::FlowWindowAcquired { flow, window } => {
            w.field("at_ns", at)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
            w.field("window", window)?;
        }
        TraceEvent::FlowFin { flow, delivered } => {
            w.field("at_ns", at)?;
            w.field("delivered", delivered)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
        }
        TraceEvent::FlowRttSample { flow, nanos } => {
            w.field("at_ns", at)?;
            w.field("flow", flow)?;
            w.str_field("kind", kind)?;
            w.field("nanos", nanos)?;
        }
        TraceEvent::FaultInjected {
            kind: fault,
            node,
            port,
            value,
        }
        | TraceEvent::FaultCleared {
            kind: fault,
            node,
            port,
            value,
        } => {
            w.field("at_ns", at)?;
            w.str_field("fault", fault)?;
            w.str_field("kind", kind)?;
            w.field("node", node)?;
            w.field("port", port)?;
            w.field("value", value)?;
        }
        TraceEvent::Rerouted { node, port, dests } => {
            w.field("at_ns", at)?;
            w.field("dests", dests)?;
            w.str_field("kind", kind)?;
            w.field("node", node)?;
            w.field("port", port)?;
        }
    }
    w.end_object()
}

fn write_events<W: Write>(w: &mut PrettyWriter<W>, log: &EventLog) -> io::Result<()> {
    w.begin_array()?;
    for r in log.records() {
        write_record(w, r)?;
    }
    w.end_array()
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
            let p = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("bad bucket pair")?;
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
                sketch_from_json(
                    c.get(k).ok_or_else(|| format!("class missing '{k}'"))?,
                    alpha,
                )
            };
            Ok::<RetiredClass, String>(RetiredClass {
                class: c
                    .get("class")
                    .and_then(Value::as_i64)
                    .ok_or("class missing tag")? as u8,
                name: c
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("class missing name")?
                    .to_string(),
                count: c
                    .get("count")
                    .and_then(Value::as_i64)
                    .ok_or("class missing count")? as u64,
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

fn write_flow<W: Write>(w: &mut PrettyWriter<W>, f: &FlowSummary) -> io::Result<()> {
    w.begin_object()?;
    w.field("bytes", f.bytes)?;
    w.field("delivered", f.delivered)?;
    w.field("dst", f.dst)?;
    w.field("established_ns", f.established_ns)?;
    w.field("flow", f.flow)?;
    w.field("receiver_done_ns", f.receiver_done_ns)?;
    w.field("retransmits", f.retransmits)?;
    w.field("sender_done_ns", f.sender_done_ns)?;
    w.field("src", f.src)?;
    w.field("started_ns", f.started_ns)?;
    w.field("timeouts", f.timeouts)?;
    w.end_object()
}

fn write_flows<W: Write>(
    w: &mut PrettyWriter<W>,
    flows: impl IntoIterator<Item = FlowSummary>,
    retired: Option<&RetiredFlows>,
) -> io::Result<()> {
    // A run without retirement keeps the historical bare-array form, so
    // existing artifact sets stay byte-identical. Retirement upgrades
    // the document to an object: retired sketches plus the (few) flows
    // still live at export time; in key order `live` falls between the
    // retired section's `classes` and `retired_total`.
    if let Some(r) = retired {
        w.begin_object()?;
        w.field("alpha", r.alpha)?;
        w.key("classes")?;
        w.begin_array()?;
        for c in &r.classes {
            w.value(&retired_class_json(c))?;
        }
        w.end_array()?;
        w.key("live")?;
    }
    w.begin_array()?;
    for f in flows {
        write_flow(w, &f)?;
    }
    w.end_array()?;
    if let Some(r) = retired {
        w.field("retired_total", r.total)?;
        w.str_field("schema", "tfc-flows/v2")?;
        w.field("slab_capacity", r.slab_capacity)?;
        w.field("slab_peak", r.slab_peak)?;
        w.end_object()?;
    }
    Ok(())
}

/// Column header of `tfc_slots.csv`.
pub const SLOTS_CSV_HEADER: &str =
    "at_ns,node,port,token_bytes,effective_flows,rho,window_bytes,rtt_b_ns,rtt_m_ns,held_acks,delayed_total";

fn write_slots_csv(out: &mut impl Write, slots: &[PortSlotSample]) -> io::Result<()> {
    writeln!(out, "{SLOTS_CSV_HEADER}")?;
    for s in slots {
        writeln!(
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
        )?;
    }
    Ok(())
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
            return Err(format!(
                "row {}: expected 11 fields, got {}",
                i + 2,
                f.len()
            ));
        }
        let num = |j: usize| -> Result<f64, String> {
            f[j].parse().map_err(|e| format!("row {}: {e}", i + 2))
        };
        let int = |j: usize| -> Result<u64, String> {
            f[j].parse().map_err(|e| format!("row {}: {e}", i + 2))
        };
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
    json::write_file(&dir.join("manifest.json"), |w| {
        w.value(&manifest_json(manifest))
    })?;
    Ok(dir)
}

/// Column header of `traces.csv` (flattened named queue-sampler series).
pub const TRACES_CSV_HEADER: &str = "series,at_ns,value";

fn write_traces_csv(out: &mut impl Write, series: &[(&str, &[(u64, f64)])]) -> io::Result<()> {
    writeln!(out, "{TRACES_CSV_HEADER}")?;
    for (name, points) in series {
        for (at_ns, value) in *points {
            writeln!(out, "{name},{at_ns},{value}")?;
        }
    }
    Ok(())
}

/// Creates `path` and streams a CSV body into it, buffered.
fn write_csv(
    path: &Path,
    body: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    body(&mut out)?;
    out.flush()
}

/// Writes the full artifact set of a run's telemetry `tel` under
/// `results/<manifest.run>/` and returns the directory path.
///
/// Every file is streamed through a buffered writer one record or row
/// at a time, so export holds no whole-file tree or string: its heap
/// growth stays bounded however many events and flows the run kept.
/// `flows` is consumed lazily, one summary per `flows.json` row.
///
/// `spans.json` is written only when span tracing is enabled and
/// `traces.csv` only when sampler series exist, so a `TraceConfig::Off`
/// run without samplers produces exactly the historical five files.
pub fn export_run(
    manifest: &RunManifest,
    tel: &Telemetry,
    flows: impl IntoIterator<Item = FlowSummary>,
    retired: Option<&RetiredFlows>,
    series: &[(&str, &[(u64, f64)])],
) -> io::Result<PathBuf> {
    let (log, spans) = (&tel.log, &tel.spans);
    let dir = write_manifest(manifest)?;
    json::write_file(&dir.join("counters.json"), |w| {
        w.value(&counters_json(log, &tel.loop_stats))
    })?;
    json::write_file(&dir.join("events.json"), |w| write_events(w, log))?;
    json::write_file(&dir.join("flows.json"), |w| write_flows(w, flows, retired))?;
    write_csv(&dir.join("tfc_slots.csv"), |out| {
        write_slots_csv(out, &tel.slots)
    })?;
    if spans.enabled() {
        json::write_file(&dir.join("spans.json"), |w| w.value(&spans.to_json()))?;
    }
    if !series.is_empty() {
        write_csv(&dir.join("traces.csv"), |out| write_traces_csv(out, series))?;
    }
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogMode;
    use crate::json;
    use crate::span::SpanTracker;

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

    /// One record of every [`TraceEvent`] variant, in kind order, with a
    /// fault label that needs escaping.
    fn every_event() -> EventLog {
        let mut log = EventLog::new(LogMode::Full, 1, 1);
        let events = [
            TraceEvent::PktEnqueue {
                node: 2,
                port: 1,
                flow: 7,
                seq: 1460,
                bytes: 1500,
                queue_bytes: 3000,
            },
            TraceEvent::PktDequeue {
                node: 2,
                port: 1,
                flow: 7,
                seq: 1460,
                bytes: 1500,
            },
            TraceEvent::PktDrop {
                node: 3,
                port: 0,
                flow: 8,
                seq: 2920,
                bytes: 1500,
            },
            TraceEvent::PktEcnMark {
                node: 3,
                port: 2,
                flow: 8,
                seq: 4380,
            },
            TraceEvent::PktRoundMark {
                node: 4,
                port: 3,
                flow: 9,
                seq: 0,
                window: 5840,
            },
            TraceEvent::PktDeliver {
                node: 1,
                flow: 7,
                bytes: 1460,
            },
            TraceEvent::PktAck {
                node: 0,
                flow: 7,
                ack: 2921,
            },
            TraceEvent::FlowOpen {
                flow: 10,
                src: 0,
                dst: 5,
                bytes: 65_536,
            },
            TraceEvent::FlowEstablished { flow: 10 },
            TraceEvent::FlowWindowAcquired {
                flow: 10,
                window: 14_600,
            },
            TraceEvent::FlowRetransmit { flow: 10 },
            TraceEvent::FlowRto { flow: 10 },
            TraceEvent::FlowFin {
                flow: 10,
                delivered: 65_536,
            },
            TraceEvent::FlowRttSample {
                flow: 10,
                nanos: 170_500,
            },
            TraceEvent::FaultInjected {
                kind: "link_down",
                node: 6,
                port: 2,
                value: 0,
            },
            TraceEvent::FaultCleared {
                kind: "we\"ird\\ \u{1}\n\t\r\u{e9}",
                node: 6,
                port: 2,
                value: 100,
            },
            TraceEvent::Rerouted {
                node: 6,
                port: 2,
                dests: 12,
            },
        ];
        for (i, e) in events.into_iter().enumerate() {
            log.record(10 * i as u64 + u64::MAX / 2, e);
        }
        log
    }

    /// A finished flow, one with every optional timestamp `None`, and
    /// one with a `u64` too large for JSON's integer form.
    fn flow_fixture() -> Vec<FlowSummary> {
        vec![
            FlowSummary {
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
                sender_done_ns: Some(120),
            },
            FlowSummary {
                flow: 8,
                src: 3,
                dst: 4,
                bytes: 0,
                delivered: 0,
                retransmits: 0,
                timeouts: 2,
                started_ns: 1_000,
                established_ns: None,
                receiver_done_ns: None,
                sender_done_ns: None,
            },
            FlowSummary {
                flow: u64::MAX,
                src: u32::MAX,
                dst: 2,
                bytes: 1,
                delivered: 1,
                retransmits: 0,
                timeouts: 0,
                started_ns: 3,
                established_ns: Some(4),
                receiver_done_ns: None,
                sender_done_ns: Some(u64::MAX),
            },
        ]
    }

    /// Two retired classes (one never used), with `alpha` as given so a
    /// non-finite value can be exported.
    fn retired_fixture(alpha: f64) -> RetiredFlows {
        let mut fct = QuantileSketch::new(0.01);
        let mut bytes = QuantileSketch::new(0.01);
        let mut rtx = QuantileSketch::new(0.01);
        let mut slow = QuantileSketch::new(0.01);
        for i in 1..=40u64 {
            fct.record(i as f64 * 1_000.5);
            bytes.record(600.0 + i as f64);
            rtx.record((i % 3) as f64);
            slow.record(1_000.0 + i as f64);
        }
        let empty = QuantileSketch::new(0.01);
        RetiredFlows {
            alpha,
            total: 40,
            slab_capacity: 32,
            slab_peak: 30,
            classes: vec![
                RetiredClass {
                    class: 0,
                    name: "web-search".into(),
                    count: 40,
                    fct_ns: fct,
                    bytes,
                    retransmits: rtx,
                    slowdown_milli: slow,
                },
                RetiredClass {
                    class: 1,
                    name: "data \"mining\"".into(),
                    count: 0,
                    fct_ns: empty.clone(),
                    bytes: empty.clone(),
                    retransmits: empty.clone(),
                    slowdown_milli: empty,
                },
            ],
        }
    }

    fn manifest_fixture() -> RunManifest {
        RunManifest {
            run: "golden".into(),
            seed: 2016,
            topology: "star(2) \"10G\"".into(),
            config: "Cfg {\n\tname: \"a\\b\",\u{1f} \u{e9} }".into(),
            git: "deadbeef-dirty".into(),
            sim: Some(SimMeta {
                scheduler: "Wheel".into(),
                trace: "full".into(),
            }),
        }
    }

    fn stats_fixture() -> LoopStats {
        let mut stats = LoopStats::new(&NAMES, true);
        stats.count(0);
        stats.count(0);
        stats.add_nanos(0, 55);
        stats.count(1);
        stats
    }

    fn spans_fixture() -> SpanTracker {
        let mut spans = SpanTracker::new(crate::TraceConfig::Full);
        spans.on_enqueue(1, 7, true, true, 0);
        spans.on_dequeue(1, 7, 50);
        spans.on_enqueue(1, 7, true, false, 60);
        spans.on_ecn(1, 7);
        spans.on_dequeue(1, 7, 260);
        spans.on_deliver(1, 7, 0, 400);
        spans.on_enqueue(2, 8, true, true, 10);
        spans.on_drop(2, 8);
        spans.on_token_wait(7, 1_234);
        spans
    }

    fn slots_fixture() -> Vec<PortSlotSample> {
        vec![
            sample(),
            PortSlotSample {
                at_ns: 456,
                rho: f64::NAN,
                token_bytes: f64::INFINITY,
                ..sample()
            },
        ]
    }

    const SERIES_POINTS: &[(u64, f64)] = &[(10, 0.5), (20, 0.75), (30, f64::NAN), (40, 1e21)];

    /// One JSON document streamed into memory through the exporters'
    /// writer.
    fn streamed(body: impl FnOnce(&mut PrettyWriter<Vec<u8>>) -> io::Result<()>) -> String {
        let mut w = PrettyWriter::new(Vec::new());
        body(&mut w).unwrap();
        String::from_utf8(w.finish()).unwrap()
    }

    /// One CSV body streamed into memory.
    fn streamed_csv(body: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
        let mut out = Vec::new();
        body(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// Bytes the whole-tree builders (one `Value` per file, then
    /// `pretty()`) produced for the fixtures above, recorded before the
    /// exporters streamed.
    macro_rules! golden {
        ($file:literal) => {
            include_str!(concat!("../testdata/export/", $file))
        };
    }

    #[test]
    fn streamed_events_match_tree_form() {
        let log = every_event();
        assert_eq!(streamed(|w| write_events(w, &log)), golden!("events.json"));
        let mut ring = EventLog::new(LogMode::Ring(4), 1, 1);
        for r in log.records() {
            ring.record(r.at_ns, r.event);
        }
        assert_eq!(
            streamed(|w| write_events(w, &ring)),
            golden!("events_ring.json")
        );
        let empty = EventLog::new(LogMode::Full, 1, 1);
        assert_eq!(streamed(|w| write_events(w, &empty)), "[]");
    }

    #[test]
    fn streamed_flows_match_tree_form() {
        let flows = flow_fixture();
        assert_eq!(
            streamed(|w| write_flows(w, flows.clone(), None)),
            golden!("flows.json")
        );
        assert_eq!(streamed(|w| write_flows(w, [], None)), "[]");
        let retired = retired_fixture(0.01);
        assert_eq!(
            streamed(|w| write_flows(w, flows, Some(&retired))),
            golden!("flows_v2.json")
        );
        let retired = retired_fixture(f64::NAN);
        assert_eq!(
            streamed(|w| write_flows(w, [], Some(&retired))),
            golden!("flows_v2_nolive.json")
        );
    }

    #[test]
    fn streamed_documents_match_tree_form() {
        assert_eq!(
            streamed(|w| w.value(&counters_json(&every_event(), &stats_fixture()))),
            golden!("counters.json")
        );
        assert_eq!(
            streamed(|w| w.value(&manifest_json(&manifest_fixture()))),
            golden!("manifest.json")
        );
        assert_eq!(
            streamed(|w| w.value(&spans_fixture().to_json())),
            golden!("spans.json")
        );
    }

    #[test]
    fn streamed_csvs_match_tree_form() {
        assert_eq!(
            streamed_csv(|out| write_slots_csv(out, &slots_fixture())),
            golden!("tfc_slots.csv")
        );
        assert_eq!(
            streamed_csv(|out| write_slots_csv(out, &[])),
            format!("{SLOTS_CSV_HEADER}\n")
        );
        let series: &[(&str, &[(u64, f64)])] = &[
            ("queue.s1.p0", SERIES_POINTS),
            ("w\"x", &[(5, f64::NEG_INFINITY)]),
        ];
        assert_eq!(
            streamed_csv(|out| write_traces_csv(out, series)),
            golden!("traces.csv")
        );
        assert_eq!(
            streamed_csv(|out| write_traces_csv(out, &[])),
            format!("{TRACES_CSV_HEADER}\n")
        );
    }

    #[test]
    fn slots_csv_roundtrips() {
        let slots = vec![
            sample(),
            PortSlotSample {
                at_ns: 456,
                ..sample()
            },
        ];
        let csv = streamed_csv(|out| write_slots_csv(out, &slots));
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
        let mut tel = Telemetry::new(&crate::TelemetryConfig::default(), 1, &NAMES);
        (tel.log, tel.loop_stats, tel.slots) = (log, stats, vec![sample()]);
        tel.spans = SpanTracker::new(crate::TraceConfig::Full);
        tel.spans.on_enqueue(1, 7, true, true, 0);
        tel.spans.on_dequeue(1, 7, 50);
        tel.spans.on_deliver(1, 7, 0, 120);
        let points: &[(u64, f64)] = &[(10, 0.5), (20, 0.75)];
        let series = [("sw1.p0.rho", points)];
        let out = export_run(&manifest, &tel, flows.clone(), None, &series).unwrap();
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
        let off = RunManifest {
            run: "unit-off".into(),
            sim: None,
            ..manifest
        };
        tel.spans = SpanTracker::new(crate::TraceConfig::Off);
        let out_off = export_run(&off, &tel, flows, None, &[]).unwrap();
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
        let doc = json::parse(&streamed(|w| write_flows(w, [], Some(&retired)))).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("tfc-flows/v2"));
        assert!(doc.get("live").unwrap().as_array().unwrap().is_empty());
        let back = retired_from_json(&doc).unwrap();
        assert_eq!(back, retired, "sketches must survive the JSON roundtrip");
        // The bare-array legacy form is rejected, not misparsed.
        let bare = json::parse(&streamed(|w| write_flows(w, [], None))).unwrap();
        assert!(retired_from_json(&bare).is_err());
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }
}

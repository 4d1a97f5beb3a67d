//! `tfc-trace` — inspect the artifact bundle of a telemetry-enabled run.
//!
//! ```text
//! tfc-trace <results/run-dir>    summarize an exported run
//! tfc-trace diff <runA> <runB>   compare two runs' artifacts and
//!                                report the first divergence
//! tfc-trace --flows <run-dir>    per-class FCT / slowdown quantile
//!                                tables from the retired-flow sketches
//!                                of a streaming run's flows.json
//! tfc-trace --smoke              run a small full-telemetry incast,
//!                                export it, then summarize the artifact
//! tfc-trace --chaos-smoke        run the chaos smoke pair (link flap +
//!                                host stall, fixed seed) and summarize
//!                                both artifact bundles
//! tfc-trace --ecmp-smoke         run a small multipath fat-tree with an
//!                                uplink flap and summarize it (per-port
//!                                spray balance, reroute records)
//! tfc-trace --diff-smoke         differ self-test: two same-seed runs
//!                                must match, a perturbed seed must not
//! tfc-trace --flows-smoke        streaming self-test: run a small
//!                                retire-enabled mix, then render it
//! tfc-trace --help               this text
//! ```
//!
//! The summary is built from the artifact files alone (manifest.json,
//! counters.json, events.json, flows.json, tfc_slots.csv, spans.json) —
//! nothing is recomputed from a live simulation, so the tool works on
//! bundles from any machine or commit.
//!
//! `diff` walks the artifacts in causal order — manifest, counters,
//! event log, flow summaries, slot gauges, span sketches, legacy trace
//! series — and stops at the first file that disagrees, pinpointing the
//! diverging key, record, line, or sketch. Exit status follows
//! `diff(1)`: 0 when identical, 1 on divergence, 2 on error.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::Sampler;
use telemetry::export::parse_slots_csv;
use telemetry::json::{self, Value};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            eprintln!(
                "usage: tfc-trace <results/run-dir> | diff <runA> <runB> \
                 | --flows <run-dir> | --smoke | --chaos-smoke | --ecmp-smoke \
                 | --diff-smoke | --flows-smoke"
            );
            if args.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: tfc-trace diff <runA> <runB>");
                return ExitCode::from(2);
            };
            match diff_runs(Path::new(a), Path::new(b)) {
                Ok(None) => {
                    println!("no divergence");
                    ExitCode::SUCCESS
                }
                Ok(Some(d)) => {
                    println!("first divergence: {d}");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("tfc-trace: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("--diff-smoke") => match try_diff_smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tfc-trace: diff smoke failed: {e}");
                ExitCode::FAILURE
            }
        },
        Some("--flows") => {
            let Some(dir) = args.get(1) else {
                eprintln!("usage: tfc-trace --flows <results/run-dir>");
                return ExitCode::from(2);
            };
            match try_flows(Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("tfc-trace: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--flows-smoke") => match try_flows_smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tfc-trace: flows smoke failed: {e}");
                ExitCode::FAILURE
            }
        },
        Some("--smoke") => match smoke_run() {
            Ok(dir) => summarize(&dir),
            Err(e) => {
                eprintln!("tfc-trace: smoke run failed: {e}");
                ExitCode::FAILURE
            }
        },
        Some("--ecmp-smoke") => match ecmp_smoke_run() {
            Ok(dir) => summarize(&dir),
            Err(e) => {
                eprintln!("tfc-trace: ecmp smoke failed: {e}");
                ExitCode::FAILURE
            }
        },
        Some("--chaos-smoke") => match chaos_smoke_run() {
            Ok(dirs) => {
                for dir in &dirs {
                    println!("\n=== {} ===", dir.display());
                    if let Err(e) = try_summarize(dir) {
                        eprintln!("tfc-trace: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("tfc-trace: chaos smoke failed: {e}");
                ExitCode::FAILURE
            }
        },
        Some(dir) => summarize(Path::new(dir)),
    }
}

/// Runs a small incast with full telemetry and returns the exported
/// artifact directory.
fn smoke_run() -> Result<PathBuf, String> {
    use experiments::incast::IncastExpConfig;
    use experiments::Proto;
    use telemetry::TelemetryConfig;

    let mut cfg = IncastExpConfig::testbed(Proto::Tfc, 8, 2);
    cfg.telemetry = TelemetryConfig::full("smoke-incast");
    println!("running smoke incast (8 senders, 2 rounds, full telemetry)...");
    experiments::incast::run(&cfg);
    let dir = telemetry::export::results_dir().join("smoke-incast");
    if dir.join("manifest.json").exists() {
        Ok(dir)
    } else {
        Err(format!("no artifacts under {}", dir.display()))
    }
}

/// Runs the chaos smoke pair — a link flap and a host stall on a TFC
/// star, fixed seed, full event telemetry — and returns the exported
/// artifact directories.
fn chaos_smoke_run() -> Result<Vec<PathBuf>, String> {
    use experiments::faults::{self, FaultsConfig, Scenario};
    use experiments::Proto;

    let mut dirs = Vec::new();
    for (scenario, run) in [
        (Scenario::LinkFlap, "smoke-chaos-flap"),
        (Scenario::HostStall, "smoke-chaos-stall"),
    ] {
        let cfg = FaultsConfig::exporting(Proto::Tfc, scenario, run);
        println!(
            "running chaos smoke ({} on a 5-host star, seed {})...",
            scenario.label(),
            cfg.seed
        );
        let r = faults::run(&cfg);
        dirs.push(
            r.export_dir
                .ok_or_else(|| format!("{run}: no artifacts exported"))?,
        );
    }
    Ok(dirs)
}

/// Runs a small multipath fat-tree — cross-pod flows sprayed over the
/// edge uplinks by the `(flow, hop)` ECMP hash, one uplink flapping
/// down mid-run — with full event telemetry, and returns the exported
/// artifact directory. The summary's spray-balance and fault sections
/// then show the per-port split and the `Rerouted` repair records.
fn ecmp_smoke_run() -> Result<PathBuf, String> {
    use experiments::reroute::RerouteConfig;
    use experiments::Proto;

    let mut cfg = RerouteConfig::exporting(Proto::Tfc, "smoke-ecmp");
    cfg.k = 4;
    cfg.senders = 2;
    println!(
        "running ecmp smoke (k=4 fat-tree, uplink flap at {} ms, seed {})...",
        cfg.fault_at.as_nanos() / 1_000_000,
        cfg.seed
    );
    let r = experiments::reroute::run(&cfg);
    r.export_dir
        .ok_or_else(|| "no artifacts exported".to_string())
}

fn load_json(dir: &Path, name: &str) -> Result<Value, String> {
    let path = dir.join(name);
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn summarize(dir: &Path) -> ExitCode {
    match try_summarize(dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tfc-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn try_summarize(dir: &Path) -> Result<(), String> {
    let manifest = load_json(dir, "manifest.json")?;
    let counters = load_json(dir, "counters.json")?;
    let events = load_json(dir, "events.json")?;
    let flows = load_json(dir, "flows.json")?;

    let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let n = |v: &Value, k: &str| v.get(k).and_then(Value::as_i64).unwrap_or(0);

    println!("run      : {}", s(&manifest, "run"));
    println!(
        "manifest : seed={} git={} topology={}",
        n(&manifest, "seed"),
        s(&manifest, "git"),
        s(&manifest, "topology"),
    );

    // Exact per-kind counts (pre-sampling, pre-eviction).
    println!("\nevent counts (exact):");
    let ev_counts = counters
        .get("events")
        .ok_or("counters.json: missing `events`")?;
    let mut drops = 0;
    let mut retransmits = 0;
    if let Value::Object(m) = ev_counts {
        for (kind, count) in m {
            let c = count.as_i64().unwrap_or(0);
            if c > 0 {
                println!("  {kind:<22} {c}");
            }
            match kind.as_str() {
                "pkt_drop" => drops = c,
                "flow_retransmit" => retransmits = c,
                _ => {}
            }
        }
    }
    println!(
        "  stored {} / evicted {} / sampled out {}",
        n(&counters, "stored"),
        n(&counters, "evicted"),
        n(&counters, "sampled_out"),
    );

    // Event-loop profile.
    if let Some(rows) = counters.get("loop").and_then(Value::as_array) {
        println!("\nevent loop:");
        for row in rows {
            let c = n(row, "count");
            if c > 0 {
                let ns = n(row, "nanos");
                println!(
                    "  {:<22} {c:>10}  {:.3} ms",
                    s(row, "event"),
                    ns as f64 / 1e6
                );
            }
        }
        println!(
            "  total: {} events, {:.3} ms handler time",
            n(&counters, "loop_total"),
            n(&counters, "loop_total_nanos") as f64 / 1e6,
        );
    }

    // Queue-depth percentiles over the stored enqueue events.
    let recs = events.as_array().ok_or("events.json: not an array")?;
    let mut depths = Sampler::new();
    for r in recs {
        if r.get("kind").and_then(Value::as_str) == Some("pkt_enqueue") {
            if let Some(q) = r.get("queue_bytes").and_then(Value::as_f64) {
                depths.record(q);
            }
        }
    }
    if !depths.is_empty() {
        println!("\nqueue depth at enqueue ({} stored events):", depths.len());
        for p in [50.0, 90.0, 99.0, 99.9] {
            if let Some(v) = depths.percentile(p) {
                println!("  p{p:<5} {v:.0} B");
            }
        }
        println!("  max    {:.0} B", depths.max().unwrap_or(0.0));
    }

    // Per-flow timelines from the ground-truth summaries. A streaming
    // run's flows.json (`tfc-flows/v2`) instead carries the retired
    // per-class sketches plus only the flows still live at shutdown.
    let retired = telemetry::export::retired_from_json(&flows).ok();
    let fl: &[Value] = match (&flows, &retired) {
        (Value::Object(m), _) => m
            .get("live")
            .and_then(Value::as_array)
            .ok_or("flows.json: v2 object without `live` array")?,
        _ => flows.as_array().ok_or("flows.json: not an array")?,
    };
    if let Some(r) = &retired {
        retired_table(r);
    }
    let delivered: i64 = fl.iter().map(|f| n(f, "delivered")).sum();
    println!(
        "\nflows{}: {}   delivered {} B   drops {drops}   retransmits {retransmits}",
        if retired.is_some() {
            " (live at shutdown)"
        } else {
            ""
        },
        fl.len(),
        delivered,
    );
    let show = fl.len().min(10);
    for f in &fl[..show] {
        let done = f
            .get("receiver_done_ns")
            .and_then(Value::as_i64)
            .map(|t| format!("{:.3} ms", t as f64 / 1e6))
            .unwrap_or_else(|| "unfinished".into());
        println!(
            "  flow {:<4} {} -> {}  {:>9} B delivered  started {:.3} ms  done {}  rtx {}  rto {}",
            n(f, "flow"),
            n(f, "src"),
            n(f, "dst"),
            n(f, "delivered"),
            n(f, "started_ns") as f64 / 1e6,
            done,
            n(f, "retransmits"),
            n(f, "timeouts"),
        );
    }
    if fl.len() > show {
        println!("  ... and {} more", fl.len() - show);
    }

    // TFC per-port slot gauges.
    let slots = match fs::read_to_string(dir.join("tfc_slots.csv")) {
        Ok(text) => parse_slots_csv(&text)?,
        Err(_) => Vec::new(),
    };
    if !slots.is_empty() {
        let mut per_port: BTreeMap<(u32, u16), (usize, f64, u64)> = BTreeMap::new();
        for sl in &slots {
            let e = per_port.entry((sl.node, sl.port)).or_insert((0, 0.0, 0));
            e.0 += 1;
            e.1 += sl.rho;
            e.2 = sl.delayed_total;
        }
        println!("\ntfc slot gauges ({} samples):", slots.len());
        for ((node, port), (count, rho_sum, delayed)) in per_port {
            println!(
                "  switch {node} port {port}: {count} slots  mean rho {:.3}  delayed ACKs {delayed}",
                rho_sum / count as f64,
            );
        }
    }

    spray_balance(recs, &n);
    waterfall(dir)?;
    fault_summary(recs, &slots, &s, &n);
    Ok(())
}

/// Per-port spray balance: how evenly each switch's egress ports shared
/// the forwarded packets, from the stored `pkt_enqueue` events. Only
/// switches that spread traffic over more than one port are shown —
/// the multipath signature (ECMP spray, or reroute shifting flows onto
/// surviving members). `balance` is the min/max port share: 1.00 is a
/// perfect split, small values a lopsided one.
fn spray_balance(recs: &[Value], n: &dyn Fn(&Value, &str) -> i64) {
    let mut per_node: BTreeMap<i64, BTreeMap<i64, (u64, u64)>> = BTreeMap::new();
    for r in recs {
        if r.get("kind").and_then(Value::as_str) == Some("pkt_enqueue") {
            let e = per_node
                .entry(n(r, "node"))
                .or_default()
                .entry(n(r, "port"))
                .or_insert((0, 0));
            e.0 += 1;
            e.1 += n(r, "bytes") as u64;
        }
    }
    per_node.retain(|_, ports| ports.len() > 1);
    if per_node.is_empty() {
        return;
    }
    println!("\nper-port spray balance (multi-port switches):");
    for (node, ports) in &per_node {
        let pkts: Vec<u64> = ports.values().map(|&(p, _)| p).collect();
        let (min, max) = (
            *pkts.iter().min().expect("non-empty"),
            *pkts.iter().max().expect("non-empty"),
        );
        let split = ports
            .iter()
            .map(|(port, &(p, b))| format!("p{port} {p} pkts/{b} B"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "  switch {node}: {split}  (balance {:.2})",
            min as f64 / max as f64
        );
    }
}

/// Renders the retired-flow class table of a streaming run: per-class
/// FCT, bytes, and slowdown quantiles straight off the exported
/// sketches, plus the slab high-water marks (the resident-memory
/// proxy the memory-bound claim rests on).
fn retired_table(r: &telemetry::RetiredFlows) {
    println!(
        "\nretired flows: {} total  (sketch α {:.3}, flow slab {} slots, peak {} live)",
        r.total, r.alpha, r.slab_capacity, r.slab_peak
    );
    println!(
        "  {:<16} {:>9} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "class",
        "count",
        "fct p50µs",
        "fct p99µs",
        "fct p999µs",
        "bytes p50",
        "rtx p99",
        "sd p50",
        "sd p99"
    );
    for c in &r.classes {
        if c.count == 0 {
            continue;
        }
        let q = |s: &metrics::QuantileSketch, q: f64| s.quantile(q).unwrap_or(0.0);
        let sd = |p: f64| q(&c.slowdown_milli, p) / simnet::retire::SLOWDOWN_SCALE;
        println!(
            "  {:<16} {:>9} {:>10.1} {:>10.1} {:>10.1} {:>10.0} {:>8.0} {:>8.2} {:>8.2}",
            c.name,
            c.count,
            q(&c.fct_ns, 0.5) / 1e3,
            q(&c.fct_ns, 0.99) / 1e3,
            q(&c.fct_ns, 0.999) / 1e3,
            q(&c.bytes, 0.5),
            q(&c.retransmits, 0.99),
            sd(0.5),
            sd(0.99),
        );
    }
}

/// `--flows <dir>`: the retired-class table alone, for streaming runs.
fn try_flows(dir: &Path) -> Result<(), String> {
    let flows = load_json(dir, "flows.json")?;
    let retired = telemetry::export::retired_from_json(&flows)
        .map_err(|e| format!("flows.json: {e} (not a streaming run?)"))?;
    println!("run dir  : {}", dir.display());
    retired_table(&retired);
    Ok(())
}

/// `--flows-smoke`: run a small retire-enabled streaming mix, render
/// its table, and check the artifact round-trips through the reader.
fn try_flows_smoke() -> Result<(), String> {
    use experiments::million::MillionConfig;

    let mut cfg = MillionConfig::oracle();
    cfg.target_flows = 2_000;
    cfg.keep_exact = false;
    cfg.telemetry = MillionConfig::streaming_telemetry("smoke-flows");
    println!("running flows smoke (2000 streaming flows, retirement on)...");
    let stats = experiments::million::run(&cfg);
    let dir = telemetry::export::results_dir().join("smoke-flows");
    try_flows(&dir)?;
    let retired = telemetry::export::retired_from_json(&load_json(&dir, "flows.json")?)?;
    if retired.total != stats.retired {
        return Err(format!(
            "exported retired count {} != simulator's {}",
            retired.total, stats.retired
        ));
    }
    if retired.classes.iter().all(|c| c.count == 0) {
        return Err("no class retired any flow".into());
    }
    Ok(())
}

/// The latency waterfall: per-stage, per-hop lifecycle sketches from
/// `spans.json` — how long packets spent in host queues, switch queues,
/// on the wire, and waiting for tokens, at each hop. Prints nothing for
/// untraced runs (the file is only written when tracing is on).
fn waterfall(dir: &Path) -> Result<(), String> {
    if !dir.join("spans.json").exists() {
        return Ok(());
    }
    let spans = load_json(dir, "spans.json")?;
    let trace = spans.get("trace").and_then(Value::as_str).unwrap_or("?");
    let tracked = spans
        .get("tracked_packets")
        .and_then(Value::as_i64)
        .unwrap_or(0);
    let dropped = spans
        .get("dropped_packets")
        .and_then(Value::as_i64)
        .unwrap_or(0);
    let rows = spans
        .get("stages")
        .and_then(Value::as_array)
        .ok_or("spans.json: missing `stages`")?;
    println!("\nlatency waterfall ({trace} trace, {tracked} packets tracked, {dropped} dropped):");
    println!(
        "  {:<10} {:>3} {:>9} {:>11} {:>11} {:>11} {:>11}",
        "stage", "hop", "count", "p50 µs", "p99 µs", "p999 µs", "max µs"
    );
    for row in rows {
        let stage = row.get("stage").and_then(Value::as_str).unwrap_or("?");
        let hop = row.get("hop").and_then(Value::as_i64).unwrap_or(0);
        let count = row.get("count").and_then(Value::as_i64).unwrap_or(0);
        let us = |k: &str| {
            row.get(k)
                .and_then(Value::as_f64)
                .map(|v| format!("{:.1}", v / 1e3))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "  {stage:<10} {hop:>3} {count:>9} {:>11} {:>11} {:>11} {:>11}",
            us("p50"),
            us("p99"),
            us("p999"),
            us("max_ns"),
        );
    }
    Ok(())
}

/// Artifact comparison order for `diff`: identity first, then the logs
/// in causal order, derived telemetry last.
const DIFF_FILES: [&str; 7] = [
    "manifest.json",
    "counters.json",
    "events.json",
    "flows.json",
    "tfc_slots.csv",
    "spans.json",
    "traces.csv",
];

/// Compares two run directories artifact by artifact; returns the first
/// divergence as a human-readable report, `None` if the runs match.
fn diff_runs(a: &Path, b: &Path) -> Result<Option<String>, String> {
    for dir in [a, b] {
        if !dir.join("manifest.json").exists() {
            return Err(format!(
                "{}: not a run directory (no manifest.json)",
                dir.display()
            ));
        }
    }
    for file in DIFF_FILES {
        let (pa, pb) = (a.join(file), b.join(file));
        match (pa.exists(), pb.exists()) {
            (false, false) => continue,
            (true, false) => return Ok(Some(format!("{file}: only in {}", a.display()))),
            (false, true) => return Ok(Some(format!("{file}: only in {}", b.display()))),
            (true, true) => {}
        }
        let ta = fs::read_to_string(&pa).map_err(|e| format!("{}: {e}", pa.display()))?;
        let tb = fs::read_to_string(&pb).map_err(|e| format!("{}: {e}", pb.display()))?;
        if let Some(d) = diff_file(file, &ta, &tb)? {
            return Ok(Some(format!("{file}: {d}")));
        }
    }
    Ok(None)
}

/// Compares one artifact's text from both runs. JSON artifacts are
/// compared structurally so the report can name the diverging key or
/// record; CSVs fall back to line comparison.
fn diff_file(file: &str, ta: &str, tb: &str) -> Result<Option<String>, String> {
    if !file.ends_with(".json") {
        return Ok(line_diff(ta, tb));
    }
    let va = json::parse(ta).map_err(|e| format!("first run: {e}"))?;
    let vb = json::parse(tb).map_err(|e| format!("second run: {e}"))?;
    Ok(match file {
        // Run name and git describe legitimately differ between
        // otherwise-equivalent runs; everything else must match.
        "manifest.json" => {
            let strip = |v: &Value| {
                let mut v = v.clone();
                if let Value::Object(m) = &mut v {
                    m.remove("run");
                    m.remove("git");
                }
                v
            };
            first_key_diff(&strip(&va), &strip(&vb))
        }
        "events.json" => first_record_diff("record", &va, &vb)?,
        "flows.json" => flows_diff(&va, &vb)?,
        "spans.json" => spans_diff(&va, &vb)?,
        _ => first_key_diff(&va, &vb),
    })
}

/// One-line rendering of a JSON value for divergence reports.
fn compact(v: &Value) -> String {
    let s = v.pretty().split_whitespace().collect::<Vec<_>>().join(" ");
    if s.len() > 160 {
        let head: String = s.chars().take(160).collect();
        format!("{head}...")
    } else {
        s
    }
}

/// First differing top-level key between two JSON objects (non-objects
/// fall back to whole-value comparison).
fn first_key_diff(a: &Value, b: &Value) -> Option<String> {
    if let (Value::Object(ma), Value::Object(mb)) = (a, b) {
        let keys: std::collections::BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
        for k in keys {
            match (ma.get(k), mb.get(k)) {
                (Some(x), Some(y)) if x == y => {}
                (Some(Value::Str(sx)), Some(Value::Str(sy))) if sx.len() > 80 || sy.len() > 80 => {
                    let (wx, wy) = str_diff_windows(sx, sy);
                    return Some(format!("`{k}` differs: {wx:?} vs {wy:?}"));
                }
                (Some(x), Some(y)) => {
                    return Some(format!("`{k}` differs: {} vs {}", compact(x), compact(y)))
                }
                (Some(_), None) => return Some(format!("`{k}` only in first run")),
                (None, Some(_)) => return Some(format!("`{k}` only in second run")),
                (None, None) => {}
            }
        }
        None
    } else if a == b {
        None
    } else {
        Some(format!("differs: {} vs {}", compact(a), compact(b)))
    }
}

/// For long strings, a window around the first differing character —
/// a full config dump differing in one field should show that field,
/// not two identical-looking truncated prefixes.
fn str_diff_windows(a: &str, b: &str) -> (String, String) {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    let mut p = 0;
    while p < ac.len() && p < bc.len() && ac[p] == bc[p] {
        p += 1;
    }
    let start = p.saturating_sub(20);
    let window = |c: &[char]| {
        let end = (start + 120).min(c.len());
        let mut s = String::new();
        if start > 0 {
            s.push_str("...");
        }
        s.extend(&c[start..end]);
        if end < c.len() {
            s.push_str("...");
        }
        s
    };
    (window(&ac), window(&bc))
}

/// First differing entry between two JSON arrays of `unit`s.
fn first_record_diff(unit: &str, a: &Value, b: &Value) -> Result<Option<String>, String> {
    let ra = a
        .as_array()
        .ok_or(format!("first run: not an array of {unit}s"))?;
    let rb = b
        .as_array()
        .ok_or(format!("second run: not an array of {unit}s"))?;
    for (i, (x, y)) in ra.iter().zip(rb).enumerate() {
        if x != y {
            return Ok(Some(format!(
                "first divergence at {unit} {i}: {} vs {}",
                compact(x),
                compact(y)
            )));
        }
    }
    if ra.len() != rb.len() {
        return Ok(Some(format!(
            "{} vs {} {unit}s (common prefix identical)",
            ra.len(),
            rb.len()
        )));
    }
    Ok(None)
}

/// First differing line between two text artifacts.
fn line_diff(ta: &str, tb: &str) -> Option<String> {
    for (i, (la, lb)) in ta.lines().zip(tb.lines()).enumerate() {
        if la != lb {
            return Some(format!(
                "first divergence at line {}: {la:?} vs {lb:?}",
                i + 1
            ));
        }
    }
    let (na, nb) = (ta.lines().count(), tb.lines().count());
    (na != nb).then(|| format!("{na} vs {nb} lines (common prefix identical)"))
}

/// Flow-table comparison, both schema forms. Legacy runs export a bare
/// array of per-flow summaries; streaming runs export the `tfc-flows/v2`
/// object (retired-class sketches + live flows). Mixed forms are
/// themselves a divergence — a retirement-config change between runs.
fn flows_diff(a: &Value, b: &Value) -> Result<Option<String>, String> {
    match (a, b) {
        (Value::Array(_), Value::Array(_)) => first_record_diff("flow", a, b),
        (Value::Object(ma), Value::Object(mb)) => {
            let arr =
                |m: &json::Map, k: &str| m.get(k).and_then(Value::as_array).unwrap_or(&[]).to_vec();
            if let Some(d) = first_record_diff(
                "retired class",
                &Value::Array(arr(ma, "classes")),
                &Value::Array(arr(mb, "classes")),
            )? {
                return Ok(Some(d));
            }
            if let Some(d) = first_record_diff(
                "live flow",
                &Value::Array(arr(ma, "live")),
                &Value::Array(arr(mb, "live")),
            )? {
                return Ok(Some(d));
            }
            let strip = |v: &Value| {
                let mut v = v.clone();
                if let Value::Object(m) = &mut v {
                    m.remove("classes");
                    m.remove("live");
                }
                v
            };
            Ok(first_key_diff(&strip(a), &strip(b)))
        }
        _ => Ok(Some(
            "one run exports the legacy flow array, the other the tfc-flows/v2 object".into(),
        )),
    }
}

/// Span-sketch comparison: names the first (stage, hop) whose sketch
/// disagrees, then sweeps the header fields (trace mode, packet and
/// drop tallies).
fn spans_diff(a: &Value, b: &Value) -> Result<Option<String>, String> {
    let rows = |v: &Value| {
        v.get("stages")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    let (ra, rb) = (rows(a), rows(b));
    for (x, y) in ra.iter().zip(&rb) {
        if x != y {
            let stage = x.get("stage").and_then(Value::as_str).unwrap_or("?");
            let hop = x.get("hop").and_then(Value::as_i64).unwrap_or(0);
            let count = |v: &Value| v.get("count").and_then(Value::as_i64).unwrap_or(0);
            let p50 = |v: &Value| v.get("p50").and_then(Value::as_f64).unwrap_or(0.0);
            return Ok(Some(format!(
                "sketch {stage}@{hop} differs (count {} vs {}, p50 {:.0} vs {:.0} ns)",
                count(x),
                count(y),
                p50(x),
                p50(y)
            )));
        }
    }
    if ra.len() != rb.len() {
        return Ok(Some(format!(
            "{} vs {} sketch rows (common prefix identical)",
            ra.len(),
            rb.len()
        )));
    }
    let strip = |v: &Value| {
        let mut v = v.clone();
        if let Value::Object(m) = &mut v {
            m.remove("stages");
        }
        v
    };
    Ok(first_key_diff(&strip(a), &strip(b)))
}

/// `--diff-smoke`: the differ's own regression. Two full-trace incasts
/// at the same seed must report no divergence (tracing and export are
/// deterministic); bumping the seed must produce a first-divergence
/// report.
fn try_diff_smoke() -> Result<(), String> {
    use experiments::incast::IncastExpConfig;
    use experiments::Proto;
    use telemetry::{LogMode, TelemetryConfig, TraceConfig};

    // Every run exports under the same name and is renamed afterwards:
    // the manifest records the full experiment config (which embeds the
    // export name), so distinct export names would read as a config
    // divergence between otherwise-identical runs.
    let run = |name: &str, seed: u64| -> Result<PathBuf, String> {
        let mut cfg = IncastExpConfig::testbed(Proto::Tfc, 6, 1);
        cfg.seed = seed;
        cfg.telemetry = TelemetryConfig {
            events: LogMode::Full,
            sample_one_in: 1,
            tfc_gauges: true,
            // Wall-clock timings are never comparable across runs.
            profile: false,
            trace: TraceConfig::Full,
            export: Some("diffsmoke".to_string()),
        };
        experiments::incast::run(&cfg);
        let src = telemetry::export::results_dir().join("diffsmoke");
        let dst = telemetry::export::results_dir().join(name);
        std::fs::remove_dir_all(&dst).ok();
        std::fs::rename(&src, &dst)
            .map_err(|e| format!("{} -> {}: {e}", src.display(), dst.display()))?;
        if dst.join("manifest.json").exists() {
            Ok(dst)
        } else {
            Err(format!("no artifacts under {}", dst.display()))
        }
    };
    println!("running diff-smoke incasts (two at seed 7, one at seed 8)...");
    let a = run("diffsmoke-a", 7)?;
    let b = run("diffsmoke-b", 7)?;
    let c = run("diffsmoke-c", 8)?;
    match diff_runs(&a, &b)? {
        None => println!("same-seed runs: no divergence"),
        Some(d) => return Err(format!("same-seed runs diverge: {d}")),
    }
    match diff_runs(&a, &c)? {
        Some(d) => println!("perturbed-seed runs: first divergence: {d}"),
        None => return Err("perturbed-seed runs show no divergence".into()),
    }
    Ok(())
}

/// The recovery section: fault windows paired from the event log, the
/// aggregate-goodput dip around them, window re-acquisition, and §4.3
/// token reclamation read off the per-port `effective_flows` gauge.
/// Prints nothing for fault-free runs.
fn fault_summary(
    recs: &[Value],
    slots: &[telemetry::PortSlotSample],
    s: &dyn Fn(&Value, &str) -> String,
    n: &dyn Fn(&Value, &str) -> i64,
) {
    let mut fault_events = Vec::new();
    for r in recs {
        let cleared = match r.get("kind").and_then(Value::as_str) {
            Some("fault_injected") => false,
            Some("fault_cleared") => true,
            _ => continue,
        };
        fault_events.push(chaos::recovery::FaultEventRec {
            at_ns: n(r, "at_ns") as u64,
            kind: s(r, "fault"),
            cleared,
            node: n(r, "node") as u32,
            port: n(r, "port") as u16,
            value: n(r, "value") as u64,
        });
    }
    if fault_events.is_empty() {
        return;
    }
    let windows = chaos::recovery::pair_windows(&fault_events);
    println!("\nfault windows:");
    for w in &windows {
        let end = w
            .end_ns
            .map(|e| format!("{:.3} ms", e as f64 / 1e6))
            .unwrap_or_else(|| "open".into());
        println!(
            "  {:<12} node {} port {}  {:.3} ms -> {}  (value {})",
            w.kind,
            w.node,
            w.port,
            w.start_ns as f64 / 1e6,
            end,
            w.value
        );
    }
    // Route repair: one `rerouted` record per switch end of a downed
    // link, counting the destinations a surviving ECMP member absorbs.
    let mut any_reroute = false;
    for r in recs {
        if r.get("kind").and_then(Value::as_str) == Some("rerouted") {
            if !any_reroute {
                println!("\nreroutes (selection-time ECMP repair):");
                any_reroute = true;
            }
            println!(
                "  {:.3} ms  switch {} port {}: {} destinations absorbed by surviving members",
                n(r, "at_ns") as f64 / 1e6,
                n(r, "node"),
                n(r, "port"),
                n(r, "dests"),
            );
        }
    }
    let start = windows.iter().map(|w| w.start_ns).min().unwrap_or(0);
    let end = windows
        .iter()
        .filter_map(|w| w.end_ns)
        .max()
        .unwrap_or(start);
    let mut deliveries = Vec::new();
    let mut acquired = Vec::new();
    for r in recs {
        match r.get("kind").and_then(Value::as_str) {
            Some("pkt_deliver") => deliveries.push((n(r, "at_ns") as u64, n(r, "bytes") as u64)),
            Some("flow_window_acquired") => acquired.push(n(r, "at_ns") as u64),
            _ => {}
        }
    }
    println!("\nrecovery:");
    const BIN_NS: u64 = 500_000;
    match chaos::recovery::goodput_dip(&deliveries, start, end, BIN_NS) {
        Some(d) => {
            println!(
                "  goodput: baseline {:.0} Mbps, floor {:.0} Mbps (dip {:.0} %)",
                d.baseline_bps / 1e6,
                d.floor_bps / 1e6,
                d.depth * 100.0
            );
            match d.recovery_ns {
                Some(r) => println!(
                    "  back to 90 % of baseline {:.3} ms after the last fault cleared",
                    r as f64 / 1e6
                ),
                None => println!("  never back to 90 % of baseline before the run ended"),
            }
        }
        None => println!("  goodput: no pre-fault baseline (fault too early or no deliveries)"),
    }
    match chaos::recovery::time_to_first_after(&acquired, end) {
        Some(t) => println!(
            "  first window acquisition {:.3} µs after the fault cleared",
            t as f64 / 1e3
        ),
        None => println!("  no window acquisitions after the fault cleared"),
    }
    // §4.3: per-port effective-flow count shedding the silenced flow.
    let mut per_port: BTreeMap<(u32, u16), Vec<(u64, f64)>> = BTreeMap::new();
    for sl in slots {
        per_port
            .entry((sl.node, sl.port))
            .or_default()
            .push((sl.at_ns, sl.effective_flows));
    }
    for ((node, port), series) in per_port {
        // Only ports that had flows to lose (E > 1 pre-fault).
        let Some(&(_, e_before)) = series.iter().take_while(|&&(t, _)| t < start).last() else {
            continue;
        };
        if e_before < 1.5 {
            continue;
        }
        match chaos::recovery::settle_time_ns(&series, start, e_before - 0.5) {
            Some(t) => println!(
                "  switch {node} port {port}: E {e_before:.2} pre-fault, one flow's tokens reclaimed {:.3} µs after injection",
                t as f64 / 1e3
            ),
            None => println!(
                "  switch {node} port {port}: E {e_before:.2} pre-fault, tokens never reclaimed"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json;

    #[test]
    fn key_diff_names_the_field() {
        let a = json::parse(r#"{"seed": 7, "x": 1}"#).unwrap();
        let b = json::parse(r#"{"seed": 8, "x": 1}"#).unwrap();
        assert_eq!(first_key_diff(&a, &a), None);
        let d = first_key_diff(&a, &b).unwrap();
        assert!(
            d.contains("`seed`") && d.contains('7') && d.contains('8'),
            "{d}"
        );
    }

    #[test]
    fn record_diff_finds_the_first_index() {
        let a = json::parse(r#"[{"k": 1}, {"k": 2}, {"k": 3}]"#).unwrap();
        let b = json::parse(r#"[{"k": 1}, {"k": 9}, {"k": 3}]"#).unwrap();
        assert_eq!(first_record_diff("record", &a, &a).unwrap(), None);
        let d = first_record_diff("record", &a, &b).unwrap().unwrap();
        assert!(d.contains("record 1"), "{d}");
        let short = json::parse(r#"[{"k": 1}]"#).unwrap();
        let d = first_record_diff("record", &a, &short).unwrap().unwrap();
        assert!(d.contains("3 vs 1"), "{d}");
    }

    #[test]
    fn line_diff_is_one_indexed() {
        assert_eq!(line_diff("a\nb\n", "a\nb\n"), None);
        let d = line_diff("a\nb\nc\n", "a\nx\nc\n").unwrap();
        assert!(d.contains("line 2"), "{d}");
        let d = line_diff("a\n", "a\nb\n").unwrap();
        assert!(d.contains("1 vs 2 lines"), "{d}");
    }

    #[test]
    fn manifest_diff_ignores_run_and_git_only() {
        let a = r#"{"run": "x", "git": "aaa", "seed": 7}"#;
        let b = r#"{"run": "y", "git": "bbb", "seed": 7}"#;
        assert_eq!(diff_file("manifest.json", a, b).unwrap(), None);
        let c = r#"{"run": "y", "git": "bbb", "seed": 8}"#;
        let d = diff_file("manifest.json", a, c).unwrap().unwrap();
        assert!(d.contains("`seed`"), "{d}");
    }

    #[test]
    fn flows_diff_handles_both_schema_forms() {
        let legacy_a = r#"[{"flow": 0, "delivered": 10}]"#;
        let legacy_b = r#"[{"flow": 0, "delivered": 20}]"#;
        assert_eq!(diff_file("flows.json", legacy_a, legacy_a).unwrap(), None);
        let d = diff_file("flows.json", legacy_a, legacy_b)
            .unwrap()
            .unwrap();
        assert!(d.contains("flow 0"), "{d}");

        let v2_a = r#"{"schema": "tfc-flows/v2", "retired_total": 5,
                       "classes": [{"class": 0, "count": 5}], "live": []}"#;
        let v2_b = r#"{"schema": "tfc-flows/v2", "retired_total": 6,
                       "classes": [{"class": 0, "count": 6}], "live": []}"#;
        assert_eq!(diff_file("flows.json", v2_a, v2_a).unwrap(), None);
        let d = diff_file("flows.json", v2_a, v2_b).unwrap().unwrap();
        assert!(d.contains("retired class 0"), "{d}");

        let d = diff_file("flows.json", legacy_a, v2_a).unwrap().unwrap();
        assert!(d.contains("legacy"), "{d}");
    }

    #[test]
    fn spans_diff_names_the_sketch() {
        let a =
            r#"{"trace": "full", "stages": [{"stage": "sw_q", "hop": 1, "count": 4, "p50": 100}]}"#;
        let b =
            r#"{"trace": "full", "stages": [{"stage": "sw_q", "hop": 1, "count": 5, "p50": 120}]}"#;
        assert_eq!(diff_file("spans.json", a, a).unwrap(), None);
        let d = diff_file("spans.json", a, b).unwrap().unwrap();
        assert!(d.contains("sw_q@1") && d.contains("4 vs 5"), "{d}");
    }
}

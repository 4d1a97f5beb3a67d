//! End-to-end telemetry: a fully-traced incast run exports artifacts
//! that reconcile exactly with the simulator's ground truth.

use std::collections::BTreeSet;
use std::fs;

use experiments::incast::IncastExpConfig;
use experiments::Proto;
use telemetry::json::{self, Value};
use telemetry::TelemetryConfig;

fn load(dir: &std::path::Path, name: &str) -> Value {
    let text = fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

fn i64_of(v: &Value, k: &str) -> i64 {
    v.get(k)
        .and_then(Value::as_i64)
        .unwrap_or_else(|| panic!("missing integer field {k}"))
}

/// TCP incast under full tracing: every exported counter matches what
/// the simulator itself reported. (One test fn: `TFC_RESULTS_DIR` is
/// process-global, so concurrent tests must not race on it.)
#[test]
fn exported_incast_artifacts_reconcile_with_ground_truth() {
    let tmp = std::env::temp_dir().join("tfc_e2e_telemetry");
    fs::remove_dir_all(&tmp).ok();
    std::env::set_var("TFC_RESULTS_DIR", &tmp);

    // Classic incast with fresh connections over TCP: enough senders
    // into a 1 Gbps port to overflow the buffer and force drops, so the
    // reconciliation below checks a non-trivial value.
    let mut cfg = IncastExpConfig::testbed(Proto::Tcp, 24, 2);
    cfg.telemetry = TelemetryConfig::full("e2e-incast");
    let r = experiments::incast::run(&cfg);

    let dir = tmp.join("e2e-incast");
    let manifest = load(&dir, "manifest.json");
    let counters = load(&dir, "counters.json");
    let events = load(&dir, "events.json");
    let flows = load(&dir, "flows.json");
    let slots_csv = fs::read_to_string(dir.join("tfc_slots.csv")).unwrap();

    assert_eq!(manifest.get("run").unwrap().as_str(), Some("e2e-incast"));
    assert_eq!(i64_of(&manifest, "seed"), cfg.seed as i64);

    // Host ids from the flow table; any drop at a non-host node is a
    // switch drop. (Host NICs are bounded too, so host drops can exist
    // and must be excluded: `IncastExpResult::drops` is switch-only.)
    let fl = flows.as_array().expect("flows.json array");
    let hosts: BTreeSet<i64> = fl
        .iter()
        .flat_map(|f| [i64_of(f, "src"), i64_of(f, "dst")])
        .collect();
    let recs = events.as_array().expect("events.json array");
    let drop_recs: Vec<&Value> = recs
        .iter()
        .filter(|r| r.get("kind").and_then(Value::as_str) == Some("pkt_drop"))
        .collect();
    let switch_drops = drop_recs
        .iter()
        .filter(|r| !hosts.contains(&i64_of(r, "node")))
        .count() as u64;
    assert!(r.drops > 0, "incast setup should overflow the buffer");
    assert_eq!(switch_drops, r.drops, "switch drops reconcile");

    // Full mode stores every record, so the exact counter equals the
    // stored drop records (host + switch).
    let ev_counts = counters.get("events").expect("counters.events");
    assert_eq!(i64_of(ev_counts, "pkt_drop") as usize, drop_recs.len());
    assert_eq!(i64_of(&counters, "evicted"), 0);
    assert_eq!(i64_of(&counters, "sampled_out"), 0);

    // Retransmits: event count == sum of per-flow ground truth.
    let rtx_flows: i64 = fl.iter().map(|f| i64_of(f, "retransmits")).sum();
    assert!(rtx_flows > 0, "drops should force retransmissions");
    assert_eq!(i64_of(ev_counts, "flow_retransmit"), rtx_flows);

    // Delivered bytes: per-packet deliver events sum to the per-flow
    // delivered totals.
    let deliver_bytes: i64 = recs
        .iter()
        .filter(|r| r.get("kind").and_then(Value::as_str) == Some("pkt_deliver"))
        .map(|r| i64_of(r, "bytes"))
        .sum();
    let flow_delivered: i64 = fl.iter().map(|f| i64_of(f, "delivered")).sum();
    assert_eq!(deliver_bytes, flow_delivered, "delivered bytes reconcile");

    // The slot CSV parses (empty body: droptail ports close no slots).
    let slots = telemetry::export::parse_slots_csv(&slots_csv).unwrap();
    assert!(slots.is_empty(), "TCP runs produce no TFC gauges");

    fs::remove_dir_all(&tmp).ok();
    std::env::remove_var("TFC_RESULTS_DIR");
}

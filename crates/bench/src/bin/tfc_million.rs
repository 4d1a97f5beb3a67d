//! `tfc-million`: the streaming million-flow acceptance run.
//!
//! Two phases, both seeded and deterministic:
//!
//! 1. **Oracle** — a small leaf-spine run with `keep_exact` on, so the
//!    per-class FCT sketches are checked against exact records *from
//!    the same simulation* at the sketch's floor-rank convention. Any
//!    disagreement beyond 2·alpha aborts the run.
//! 2. **Scale** — the open-loop web-search + cache-follower mix driven
//!    until the target flow count completes (1M full, 100k `--quick`),
//!    with flow retirement recycling slab slots and Ring-mode telemetry
//!    keeping the exported artifacts flat-sized. The flow-slab and
//!    packet-arena high-water marks are asserted bounded and recorded,
//!    the endpoint records reused as flows retire, and the scheduler's
//!    queued-entry high-water bounded by peak live flows.
//!
//! Results go to `results/bench/BENCH_million.json`
//! (`tfc-bench-million/v1`).

use experiments::million::{
    assert_sketch_matches_exact, run, MillionConfig, SCHED_ENTRIES_PER_LIVE_FLOW,
};
use telemetry::export::{git_describe, results_dir};
use telemetry::json::{self, Value};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    eprintln!("oracle: sketch-vs-exact validation (small scale, keep_exact)...");
    let oracle_cfg = MillionConfig::oracle();
    let oracle = run(&oracle_cfg);
    let checked = assert_sketch_matches_exact(&oracle, oracle_cfg.alpha);
    eprintln!(
        "  {} flows retired, {checked} classes within 2α of exact records",
        oracle.retired
    );

    let run_name = if quick {
        "million-quick"
    } else {
        "million-full"
    };
    let mut cfg = if quick {
        MillionConfig::quick()
    } else {
        MillionConfig::full()
    };
    cfg.telemetry = MillionConfig::streaming_telemetry(run_name);
    eprintln!(
        "scale: {} flows over leaf_spine({},{}), open loop...",
        cfg.target_flows, cfg.leaves, cfg.hosts_per_leaf
    );
    let stats = run(&cfg);
    eprintln!(
        "  completed {} (retired {}) in {:.1} sim-ms / {:.2} wall-s: {:.0} flows/s, {:.0} ev/s",
        stats.completed,
        stats.retired,
        stats.sim_ns as f64 / 1e6,
        stats.wall_secs,
        stats.flows_per_sec,
        stats.events_per_sec,
    );
    eprintln!(
        "  memory: flow slab {} slots (peak {} live) for {} flows; endpoint records {} slots; \
         scheduler peak {} queued entries; arena {} slots",
        stats.slab_capacity,
        stats.slab_peak,
        stats.retired,
        stats.endpoint_capacity,
        stats.sched_peak_queued,
        stats.arena_capacity,
    );

    // The acceptance claims, enforced where the numbers are produced.
    assert!(
        stats.completed >= cfg.target_flows,
        "only {} of {} flows completed",
        stats.completed,
        cfg.target_flows
    );
    assert!(
        (stats.slab_capacity as u64) < cfg.target_flows / 10,
        "flow slab grew to {} slots — retirement is not recycling ids",
        stats.slab_capacity
    );
    assert_eq!(
        stats.endpoint_capacity, stats.slab_peak,
        "endpoint records must be reused once their flows retire"
    );
    assert!(
        stats.sched_peak_queued <= SCHED_ENTRIES_PER_LIVE_FLOW * stats.slab_peak,
        "scheduler held {} entries for {} peak live flows — re-arms are not reusing entries",
        stats.sched_peak_queued,
        stats.slab_peak
    );

    // Flat artifacts: the event ring bounds events.json, and flows.json
    // holds fixed-size sketches plus only still-live flows.
    let run_dir = results_dir().join(run_name);
    for (file, max_bytes) in [("events.json", 4 << 20), ("flows.json", 4 << 20)] {
        let len = std::fs::metadata(run_dir.join(file))
            .unwrap_or_else(|e| panic!("{file} missing from {}: {e}", run_dir.display()))
            .len();
        assert!(
            len < max_bytes,
            "{file} is {len} bytes — artifact size must stay flat under streaming"
        );
    }

    let class_json = |c: &experiments::million::ClassReport| {
        let s = c.sketch.as_ref();
        telemetry::json!({
            "name": c.name.as_str(),
            "count": c.count,
            "mean_us": s.map_or(0.0, |s| s.mean_us),
            "p99_us": s.map_or(0.0, |s| s.p99_us),
            "p999_us": s.map_or(0.0, |s| s.p999_us),
            "slowdown_p50": c.slowdown_p50.unwrap_or(0.0),
            "slowdown_p99": c.slowdown_p99.unwrap_or(0.0),
        })
    };
    let doc = telemetry::json!({
        "schema": "tfc-bench-million/v1",
        "git": git_describe().as_str(),
        "mode": if quick { "quick" } else { "full" },
        "target_flows": cfg.target_flows,
        "completed": stats.completed,
        "retired": stats.retired,
        "started": stats.started,
        "shed": stats.shed,
        "sim_ns": stats.sim_ns,
        "wall_secs": stats.wall_secs,
        "flows_per_sec": stats.flows_per_sec,
        "events": stats.events,
        "events_per_sec": stats.events_per_sec,
        "slab_live": stats.slab_live as u64,
        "slab_peak": stats.slab_peak as u64,
        "slab_capacity": stats.slab_capacity as u64,
        "arena_capacity": stats.arena_capacity as u64,
        "arena_allocated": stats.arena_allocated,
        "drops": stats.drops,
        "oracle_classes_checked": checked as u64,
        "oracle_retired": oracle.retired,
        "alpha": cfg.alpha,
        "classes": Value::Array(stats.classes.iter().map(class_json).collect()),
    });

    let dir = results_dir().join("bench");
    std::fs::create_dir_all(&dir).expect("create results/bench");
    let path = dir.join("BENCH_million.json");
    json::write_file(&path, |w| w.value(&doc)).expect("write BENCH_million.json");

    // Self-validate the written document.
    let m = json::parse(&std::fs::read_to_string(&path).expect("read back"))
        .expect("BENCH_million.json parses");
    for key in ["flows_per_sec", "events_per_sec"] {
        assert!(
            m.get(key).and_then(Value::as_f64).expect("rate present") > 0.0,
            "{key} must be positive"
        );
    }
    for key in [
        "completed",
        "retired",
        "slab_capacity",
        "slab_peak",
        "arena_capacity",
    ] {
        assert!(
            m.get(key).and_then(Value::as_i64).expect("count present") > 0,
            "{key} must be positive"
        );
    }
    println!("{}", path.display());
}

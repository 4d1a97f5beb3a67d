//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats one workload for `--seconds` and prints its metrics: with
//! `--trace 0` the end-to-end metrics of untraced repetitions, with
//! `--trace 1` the per-layer metrics of traced repetitions (each cycle
//! pairs a traced run with untraced, reference-heap and telemetry-off
//! runs of the same inputs). Every line but the last is a human-readable
//! table row or the provenance record; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! correctness check fails and 2 on bad arguments.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use simnet::event::Event;
use tfc_perfbench::workloads::{self, Pass, Rep, Sizes, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 2016;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join("|"))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("seconds in (0, 600]"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs `cycle` for about `seconds`: another cycle starts only while the
/// longest one so far still fits, and at least `min` cycles run.
fn repeat<T>(seconds: f64, min: usize, mut cycle: impl FnMut() -> T) -> Vec<T> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut out = Vec::new();
    loop {
        let t0 = Instant::now();
        out.push(cycle());
        longest = longest.max(t0.elapsed());
        if out.len() >= min && start.elapsed() + longest > budget {
            return out;
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.add(name, value as f64, "count");
    }
}

/// Median of `f` over repetitions.
fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

/// Minimum of `f` over repetitions. Every repetition does identical
/// work, so the least-interfered one is the steadiest estimate of its
/// cost on a host whose neighbours slow whole stretches of a run.
fn fastest(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    reps.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The process's peak resident set (`VmHWM`), MiB. One process runs one
/// workload, so this is the workload's own peak.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Checks every repetition passed and computed the same digest.
fn verify(reps: &[&Rep]) -> Result<(), String> {
    let first = reps.first().ok_or("no repetitions ran")?;
    for rep in reps {
        rep.check.clone()?;
        if rep.digest != first.digest {
            return Err(format!(
                "digest {:?} differs from {:?}",
                rep.digest, first.digest
            ));
        }
    }
    Ok(())
}

/// `--trace 0`: end-to-end metrics of untraced repetitions.
fn end_to_end(args: &Args) -> (Vec<Rep>, Report) {
    let reps = repeat(args.seconds, 3, || {
        let rep = workloads::run(args.workload, args.seed, &Sizes::FULL, Pass::Plain);
        eprintln!(
            "rep: setup {:.4} s, loop {:.4} s, wall {:.4} s",
            rep.phases.setup(),
            rep.phases.run,
            rep.phases.wall()
        );
        rep
    });
    let o = reps[0].outcome;
    let mut r = Report::default();
    let wall = fastest(&reps, |x| x.phases.wall());
    let run = fastest(&reps, |x| x.phases.run);
    r.add("wall_s", wall, "s");
    r.add("setup_s", fastest(&reps, |x| x.phases.setup()), "s");
    r.add("loop_s", run, "s");
    // Every repetition processes the same events and completes the same
    // flows (`verify` checks the digests), so the fastest gives the rates.
    r.add("events_per_s", reps[0].digest.events as f64 / run, "ev/s");
    r.add("flows_per_s", o.completed as f64 / wall, "flows/s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("fct_p50_us", o.fct_p50_us, "us");
    r.add("fct_p99_us", o.fct_p99_us, "us");
    r.add("goodput_gbps", o.goodput_gbps, "Gb/s");
    r.add("max_queue_kb", o.max_queue_kb, "KiB");
    r.add(
        "drop_frac",
        o.queue_drops as f64 / o.packets.max(1) as f64,
        "ratio",
    );
    r.add("timeouts", o.timeouts as f64, "count");
    r.add(
        "failed_frac",
        (o.attempted - o.completed.min(o.attempted)) as f64 / o.attempted.max(1) as f64,
        "ratio",
    );
    r.add("wall_s.median", med(&reps, |x| x.phases.wall()), "s");
    r.add("setup_s.median", med(&reps, |x| x.phases.setup()), "s");
    r.add("loop_s.median", med(&reps, |x| x.phases.run), "s");
    r.count("reps", reps.len() as u64);
    r.count("fct_samples", o.fct_samples);
    (reps, r)
}

/// One traced cycle: the same inputs traced, untraced, on the reference
/// heap, and with telemetry off.
struct Cycle {
    traced: Rep,
    plain: Rep,
    heap: Rep,
    tel_off: Rep,
}

/// `--trace 1`: per-layer metrics.
fn per_layer(args: &Args) -> (Vec<Rep>, Report) {
    let run = |pass| workloads::run(args.workload, args.seed, &Sizes::FULL, pass);
    let cycles = repeat(args.seconds, 1, || {
        let c = Cycle {
            traced: run(Pass::Traced),
            plain: run(Pass::Plain),
            heap: run(Pass::RefHeap),
            tel_off: run(Pass::TelemetryOff),
        };
        eprintln!(
            "cycle: loop traced {:.4} s, plain {:.4} s, heap {:.4} s, telemetry off {:.4} s",
            c.traced.phases.run, c.plain.phases.run, c.heap.phases.run, c.tel_off.phases.run
        );
        c
    });
    let m = |f: &dyn Fn(&Cycle) -> f64| median(cycles.iter().map(f).collect());
    let t = &cycles[0].traced;
    let (lay, tal) = (&t.layers, &t.layers.tallies);
    let plain = &cycles[0].plain.layers;
    let mut r = Report::default();

    r.add("topology.ctor_s", m(&|c| c.traced.phases.ctor), "s");
    r.add("topology.build_s", m(&|c| c.traced.phases.build), "s");
    r.count("topology.nodes", lay.nodes);
    r.count("topology.links", lay.links);
    r.add("sim.new_s", m(&|c| c.traced.phases.new), "s");
    r.add("sim.start_flow_s", m(&|c| c.traced.phases.start_flow), "s");
    r.count("sim.start_flow_calls", t.phases.start_flow_calls);
    r.add("chaos.install_s", m(&|c| c.traced.phases.install), "s");

    for (i, kind) in Event::KIND_NAMES.iter().enumerate() {
        r.count(format!("loop.events.{kind}"), lay.events[i]);
    }
    for (i, kind) in Event::KIND_NAMES.iter().enumerate() {
        r.add(
            format!("loop.handler_s.{kind}"),
            m(&|c| c.traced.layers.handler_nanos[i] as f64 * 1e-9),
            "s",
        );
    }
    r.add(
        "loop.core_s",
        m(&|c| {
            let t = &c.traced.layers.tallies;
            let layers = t.ingress.secs()
                + t.egress.secs()
                + t.policy_timer.secs()
                + t.sender_packet.secs()
                + t.sender_timer.secs()
                + t.receiver_packet.secs()
                + t.app.secs();
            c.traced.phases.run - layers
        }),
        "s",
    );
    r.add(
        "sched.ns_per_event",
        m(&|c| c.plain.phases.run * 1e9 / c.plain.digest.events as f64),
        "ns",
    );
    r.add(
        "sched.refheap_ratio",
        m(&|c| c.plain.phases.run / c.heap.phases.run),
        "ratio",
    );

    r.count("policy.ingress_calls", tal.ingress.calls);
    r.add(
        "policy.ingress_s",
        m(&|c| c.traced.layers.tallies.ingress.secs()),
        "s",
    );
    r.count("policy.egress_calls", tal.egress.calls);
    r.add(
        "policy.egress_s",
        m(&|c| c.traced.layers.tallies.egress.secs()),
        "s",
    );
    r.count("policy.timer_calls", tal.policy_timer.calls);
    r.add(
        "policy.timer_s",
        m(&|c| c.traced.layers.tallies.policy_timer.secs()),
        "s",
    );
    r.count("policy.reset_calls", tal.policy_resets);
    r.count("tfc.arbiter_delayed", tal.arbiter_delayed);

    r.count("transport.sender_new_calls", tal.sender_new);
    r.count("transport.sender_packet_calls", tal.sender_packet.calls);
    r.add(
        "transport.sender_packet_s",
        m(&|c| c.traced.layers.tallies.sender_packet.secs()),
        "s",
    );
    r.count("transport.sender_timer_calls", tal.sender_timer.calls);
    r.add(
        "transport.sender_timer_s",
        m(&|c| c.traced.layers.tallies.sender_timer.secs()),
        "s",
    );
    r.count("transport.receiver_packet_calls", tal.receiver_packet.calls);
    r.add(
        "transport.receiver_packet_s",
        m(&|c| c.traced.layers.tallies.receiver_packet.secs()),
        "s",
    );
    r.count("transport.retransmits", lay.retransmits);
    r.add(
        "transport.useful_ratio",
        t.digest.delivered as f64 / tal.payload_sent.max(1) as f64,
        "ratio",
    );

    r.count("app.calls", tal.app.calls);
    r.add("app.s", m(&|c| c.traced.layers.tallies.app.secs()), "s");

    r.count("retire.retired", plain.retired);
    r.count("flowtable.slab_peak", plain.slab_peak);
    r.count("flowtable.slab_capacity", plain.slab_capacity);
    r.count("arena.capacity", plain.arena_capacity);
    r.count("arena.allocated", plain.arena_allocated);
    r.count("fault.drops", plain.fault_drops);
    r.count("fault.no_route_drops", plain.no_route_drops);

    r.add("telemetry.export_s", m(&|c| c.plain.phases.export), "s");
    r.add("telemetry.export_bytes", plain.export_bytes as f64, "B");
    r.add(
        "telemetry.overhead",
        m(&|c| c.plain.phases.run / c.tel_off.phases.run),
        "ratio",
    );
    r.add(
        "trace.wrapper_overhead",
        m(&|c| c.traced.phases.run / c.plain.phases.run),
        "ratio",
    );
    r.count("cycles", cycles.len() as u64);

    let reps = cycles
        .into_iter()
        .flat_map(|c| [c.traced, c.plain, c.heap, c.tel_off])
        .collect();
    (reps, r)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let load_start = loadavg();
    let (reps, report) = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let verdict = verify(&reps.iter().collect::<Vec<_>>());

    for m in &report.metrics {
        println!("{:<34} {:>18} {}", m.name, json_num(m.value), m.unit);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_str(&telemetry::export::git_describe()),
        json_str(&cpu_model()),
        json_str(&load_start),
        json_str(&loadavg()),
    );
    if let Err(e) = &verdict {
        eprintln!("perfbench: correctness check failed: {e}");
    }
    let attempted: u64 = reps.iter().map(|r| r.outcome.required).sum();
    let failed: u64 = reps
        .iter()
        .map(|r| r.outcome.required - r.outcome.completed.min(r.outcome.required))
        .sum();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        verdict.is_ok(),
        metrics.join(", ")
    );
    if verdict.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

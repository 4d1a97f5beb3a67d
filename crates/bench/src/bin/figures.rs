//! Regenerates every figure of the paper's evaluation (§6).
//!
//! Usage:
//!
//! ```text
//! figures --list            # enumerate figure ids
//! figures fig12             # one figure at default (scaled) size
//! figures fig12 --paper     # paper-scale parameters (slow)
//! figures all               # everything, scaled
//! ```
//!
//! Each figure prints the same rows/series the paper plots and writes a
//! machine-readable copy under `results/` (see `tfc_bench::dump_json`).

use experiments::benchmark::{BenchExpConfig, BenchResult};
use experiments::goodput::GoodputConfig;
use experiments::incast::{sweep, IncastExpConfig};
use experiments::ne::NeConfig;
use experiments::rho::RhoConfig;
use experiments::rttb::RttbConfig;
use experiments::workconserving::WorkConservingConfig;
use experiments::Proto;
use simnet::units::Dur;
use tfc_bench::chart::{bar_chart, line_chart};
use tfc_bench::{dump_json, fmt_bps, fmt_kb, fmt_us, header};

struct Args {
    figure: String,
    paper_scale: bool,
    seed: u64,
}

fn parse_args() -> Args {
    let mut figure = String::new();
    let mut paper_scale = false;
    let mut seed = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--paper" => paper_scale = true,
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--list" => {
                for f in FIGURES {
                    println!("{}  {}", f.0, f.1);
                }
                std::process::exit(0);
            }
            other if !other.starts_with('-') => figure = other.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if figure.is_empty() {
        eprintln!(
            "usage: figures <fig06|fig07|...|fig16|ablations|sweeps|reroute|all> [--paper] [--seed N] [--list]"
        );
        std::process::exit(2);
    }
    Args {
        figure,
        paper_scale,
        seed,
    }
}

const FIGURES: &[(&str, &str)] = &[
    ("fig06", "CDF of measured rtt_b vs referenced RTT"),
    ("fig07", "accuracy of Ne with inactive flows"),
    ("fig08", "queue length under TFC / DCTCP / TCP"),
    ("fig09", "goodput and fairness of four flows"),
    ("fig10", "convergence rate at flow-3 join"),
    ("fig11", "work conservation with two bottlenecks"),
    ("fig12", "testbed incast: goodput and queue vs senders"),
    (
        "fig13",
        "testbed benchmark: FCT of query and background flows",
    ),
    ("fig14", "impact of rho0 on goodput and queue"),
    (
        "fig15",
        "large-scale incast: throughput and timeouts vs senders",
    ),
    (
        "fig16",
        "large-scale benchmark: FCT of query and background flows",
    ),
];

/// Records how a figure's `results/<id>.json` dump was produced:
/// `results/<id>/manifest.json` with seed, scale, and git describe.
fn figure_manifest(id: &str, paper: bool, seed: u64) {
    let topology = FIGURES
        .iter()
        .find(|(fid, _)| *fid == id)
        .map(|(_, desc)| *desc)
        .unwrap_or("see figure driver");
    let m = telemetry::export::RunManifest {
        run: id.to_string(),
        seed,
        topology: topology.to_string(),
        config: format!("figures {id}{}", if paper { " --paper" } else { "" }),
        git: telemetry::export::git_describe(),
        sim: None,
    };
    if let Err(e) = telemetry::export::write_manifest(&m) {
        eprintln!("figures: manifest for {id} not written: {e}");
    }
}

fn main() {
    let args = parse_args();
    let dispatch = |id: &str| match id {
        "fig06" => fig06(args.paper_scale, args.seed),
        "fig07" => fig07(args.paper_scale, args.seed),
        "fig08" | "fig09" | "fig10" => fig08_09_10(args.paper_scale, args.seed),
        "fig11" => fig11(args.paper_scale, args.seed),
        "fig12" => fig12(args.paper_scale, args.seed),
        "fig13" => fig13(args.paper_scale, args.seed),
        "fig14" => fig14(args.paper_scale, args.seed),
        "fig15" => fig15(args.paper_scale, args.seed),
        "fig16" => fig16(args.paper_scale, args.seed),
        "ablations" => ablations(args.paper_scale),
        "sweeps" => sweeps(args.paper_scale),
        "reroute" => reroute(args.paper_scale, args.seed),
        other => {
            eprintln!("unknown figure {other}; try --list");
            std::process::exit(2);
        }
    };
    let run = |id: &str| {
        dispatch(id);
        figure_manifest(id, args.paper_scale, args.seed);
    };
    if args.figure == "all" {
        for (id, _) in FIGURES {
            if matches!(*id, "fig09" | "fig10") {
                continue; // shared run with fig08
            }
            run(id);
        }
    } else {
        run(&args.figure);
    }
}

fn fig06(paper: bool, seed: u64) {
    header("Fig. 6 — CDF of measured rtt_b vs referenced RTT");
    let cfg = RttbConfig {
        duration: if paper {
            Dur::secs(2)
        } else {
            Dur::millis(300)
        },
        sample_window: if paper {
            Dur::millis(100)
        } else {
            Dur::millis(10)
        },
        seed,
        ..Default::default()
    };
    let r = experiments::rttb::run(&cfg);
    println!(
        "measured rtt_b : median {} (p10 {}, p90 {})",
        fmt_us(r.measured_rttb.quantile(0.5)),
        fmt_us(r.measured_rttb.quantile(0.1)),
        fmt_us(r.measured_rttb.quantile(0.9)),
    );
    println!(
        "referenced rtt : median {} (p10 {}, p90 {})",
        fmt_us(r.reference_rtt.quantile(0.5)),
        fmt_us(r.reference_rtt.quantile(0.1)),
        fmt_us(r.reference_rtt.quantile(0.9)),
    );
    // Clip tail outliers so the chart shows the CDF body.
    let clip = |cdf: &metrics::Cdf| {
        let hi = cdf.quantile(0.99);
        cdf.sampled_points(64)
            .into_iter()
            .filter(|&(v, _)| v <= hi)
            .collect::<Vec<(f64, f64)>>()
    };
    let m_pts = clip(&r.measured_rttb);
    let ref_pts = clip(&r.reference_rtt);
    print!(
        "{}",
        line_chart(
            &[("measured rtt_b", &m_pts), ("referenced rtt", &ref_pts)],
            60,
            12
        )
    );
    let series = |cdf: &metrics::Cdf| {
        cdf.sampled_points(64)
            .into_iter()
            .map(|(v, p)| tfc_bench::json!([v, p]))
            .collect::<Vec<_>>()
    };
    dump_json(
        "fig06",
        &tfc_bench::json!({
            "measured_rttb_cdf_us": series(&r.measured_rttb),
            "reference_rtt_cdf_us": series(&r.reference_rtt),
        }),
    );
}

fn fig07(paper: bool, seed: u64) {
    header("Fig. 7 — measured Ne with inactive flows");
    let cfg = NeConfig {
        step: if paper { Dur::secs(1) } else { Dur::millis(20) },
        seed,
        ..Default::default()
    };
    let r = experiments::ne::run(&cfg);
    let step = cfg.step.as_nanos();
    println!("time(step)  measured_Ne  expected_Ne(eq.1)");
    for w in 0..(2 * cfg.n1_max as u64 + 1) {
        let mid = w * step + step / 2;
        let vals: Vec<f64> = r
            .measured
            .iter()
            .filter(|&&(t, _)| t >= w * step && t < (w + 1) * step)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            continue;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        println!("{w:>10}  {mean:>11.2}  {:>17.2}", r.expected_at(mid));
    }
    let ne_pts: Vec<(f64, f64)> = r
        .measured
        .iter()
        .map(|&(t, v)| (t as f64 / 1e6, v))
        .collect();
    print!("{}", line_chart(&[("measured Ne", &ne_pts)], 64, 10));
    dump_json(
        "fig07",
        &tfc_bench::json!({
            "measured": r.measured.iter().take(2000).collect::<Vec<_>>(),
            "active_n1": r.active_n1,
            "n2": r.n2,
            "rtt_ratio": r.rtt_ratio,
        }),
    );
}

fn fig08_09_10(paper: bool, seed: u64) {
    header("Figs. 8–10 — queue, goodput/fairness, convergence");
    let mut out = tfc_bench::json::Map::new();
    let mut queue_series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for proto in Proto::ALL {
        let mut cfg = if paper {
            GoodputConfig::paper(proto)
        } else {
            GoodputConfig::scaled(proto)
        };
        cfg.seed = seed;
        let r = experiments::goodput::run(&cfg);
        queue_series.push((
            proto.label().to_string(),
            r.queue
                .iter()
                .map(|&(t, v)| (t as f64 / 1e6, v / 1e3))
                .collect(),
        ));
        let qpts: Vec<(u64, f64)> = r.queue.clone();
        let q_late: Vec<(u64, f64)> = qpts
            .iter()
            .copied()
            .filter(|&(t, _)| t > cfg.join_interval.as_nanos())
            .collect();
        let q_mean = experiments::util::mean_of(&q_late);
        println!(
            "{:<6} aggregate {} | queue mean {} max {} | drops {} | flow-3 convergence {}",
            proto.label(),
            fmt_bps(r.aggregate_bps),
            fmt_kb(q_mean),
            fmt_kb(r.max_queue_bytes as f64),
            r.drops,
            r.convergence
                .map(|d| fmt_us(d.as_micros_f64()))
                .unwrap_or_else(|| "never".into()),
        );
        out.insert(
            proto.label().to_lowercase(),
            tfc_bench::json!({
                "queue_trace": r.queue.iter().step_by((r.queue.len()/200).max(1)).collect::<Vec<_>>(),
                "flow_goodput_bps": r.flows.iter().map(|s| {
                    s.sampled(200).into_iter().map(|(t,v)| tfc_bench::json!([t, v])).collect::<Vec<_>>()
                }).collect::<Vec<_>>(),
                "aggregate_bps": r.aggregate_bps,
                "queue_mean_bytes": q_mean,
                "queue_max_bytes": r.max_queue_bytes,
                "drops": r.drops,
                "convergence_us": r.convergence.map(|d| d.as_micros_f64()),
            }),
        );
    }
    let refs: Vec<(&str, &[(f64, f64)])> = queue_series
        .iter()
        .map(|(n, p)| (n.as_str(), p.as_slice()))
        .collect();
    println!("queue (KB) over time (ms):");
    print!("{}", line_chart(&refs, 64, 12));
    dump_json("fig08_09_10", &tfc_bench::json::Value::Object(out));
}

fn fig11(paper: bool, seed: u64) {
    header("Fig. 11 — work conservation (two bottlenecks)");
    let cfg = WorkConservingConfig {
        duration: if paper {
            Dur::secs(5)
        } else {
            Dur::millis(400)
        },
        seed,
        ..Default::default()
    };
    let with = experiments::workconserving::run(&cfg);
    let without = experiments::workconserving::run(&WorkConservingConfig {
        token_adjustment: false,
        ..cfg.clone()
    });
    println!(
        "with token adjustment    : S1 {}  S2 {}  drops {}",
        fmt_bps(with.s1_mean_bps),
        fmt_bps(with.s2_mean_bps),
        with.drops
    );
    println!(
        "without token adjustment : S1 {}  S2 {} (ablation)",
        fmt_bps(without.s1_mean_bps),
        fmt_bps(without.s2_mean_bps),
    );
    let qmean = |q: &[(u64, f64)]| experiments::util::mean_of(q);
    println!(
        "queue mean: S1 {}  S2 {}",
        fmt_kb(qmean(&with.s1_queue)),
        fmt_kb(qmean(&with.s2_queue))
    );
    dump_json(
        "fig11",
        &tfc_bench::json!({
            "s1_goodput_bps": with.s1_mean_bps,
            "s2_goodput_bps": with.s2_mean_bps,
            "s1_queue_mean_bytes": qmean(&with.s1_queue),
            "s2_queue_mean_bytes": qmean(&with.s2_queue),
            "ablation_no_adjustment": {
                "s1_goodput_bps": without.s1_mean_bps,
                "s2_goodput_bps": without.s2_mean_bps,
            },
        }),
    );
}

fn fig12(paper: bool, seed: u64) {
    header("Fig. 12 — testbed incast (1 Gbps, 256 KB blocks)");
    let counts: &[usize] = if paper {
        &[1, 2, 4, 8, 16, 24, 32, 48, 64, 80, 100]
    } else {
        &[1, 4, 12, 24, 48, 72, 100]
    };
    let rounds = if paper { 100 } else { 5 };
    let mut out = tfc_bench::json::Map::new();
    println!("senders | TFC goodput / maxQ | DCTCP goodput / maxQ | TCP goodput / maxQ");
    let series: Vec<(Proto, Vec<(usize, experiments::incast::IncastExpResult)>)> = Proto::ALL
        .iter()
        .map(|&p| {
            (
                p,
                sweep(counts, |n| {
                    let mut c = IncastExpConfig::testbed(p, n, rounds);
                    c.seed = seed;
                    c
                }),
            )
        })
        .collect();
    for (i, &n) in counts.iter().enumerate() {
        let cell = |p: usize| {
            let r = &series[p].1[i].1;
            format!(
                "{} / {}",
                fmt_bps(r.goodput_bps),
                fmt_kb(r.max_queue_bytes as f64)
            )
        };
        println!("{n:>7} | {} | {} | {}", cell(0), cell(1), cell(2));
    }
    let sweep_series: Vec<(String, Vec<(f64, f64)>)> = series
        .iter()
        .map(|(p, pts)| {
            (
                p.label().to_string(),
                pts.iter()
                    .map(|&(n, r)| (n as f64, r.goodput_bps / 1e6))
                    .collect(),
            )
        })
        .collect();
    let refs: Vec<(&str, &[(f64, f64)])> = sweep_series
        .iter()
        .map(|(n, p)| (n.as_str(), p.as_slice()))
        .collect();
    println!("goodput (Mbps) vs senders:");
    print!("{}", line_chart(&refs, 60, 10));
    for (proto, pts) in &series {
        out.insert(
            proto.label().to_lowercase(),
            tfc_bench::json!(pts
                .iter()
                .map(|(n, r)| tfc_bench::json!({
                    "senders": n,
                    "goodput_bps": r.goodput_bps,
                    "avg_queue_bytes": r.avg_queue_bytes,
                    "max_queue_bytes": r.max_queue_bytes,
                    "max_timeouts_per_block": r.max_timeouts_per_block,
                    "drops": r.drops,
                }))
                .collect::<Vec<_>>()),
        );
    }
    dump_json("fig12", &tfc_bench::json::Value::Object(out));
}

fn print_bench(label: &str, r: &BenchResult) {
    let q = r.query.as_ref();
    match q {
        Some(q) => println!(
            "{label:<6} queries: mean {} p95 {} p99 {} p99.9 {} p99.99 {} (n={})",
            fmt_us(q.mean_us),
            fmt_us(q.p95_us),
            fmt_us(q.p99_us),
            fmt_us(q.p999_us),
            fmt_us(q.p9999_us),
            q.count
        ),
        None => println!("{label:<6} queries: none completed"),
    }
    let bins = r
        .background_bins
        .iter()
        .map(|(b, us)| format!("{} {}", b.label(), fmt_us(*us)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("       background 99.9th by size: {bins}");
    println!(
        "       flows {}/{} completed, drops {}",
        r.completed, r.started, r.drops
    );
}

fn bench_json(r: &BenchResult) -> tfc_bench::json::Value {
    tfc_bench::json!({
        "query": r.query.as_ref().map(|q| tfc_bench::json!({
            "count": q.count, "mean_us": q.mean_us, "p95_us": q.p95_us,
            "p99_us": q.p99_us, "p999_us": q.p999_us, "p9999_us": q.p9999_us,
        })),
        "background_p999_by_bin_us": r.background_bins.iter()
            .map(|(b, us)| tfc_bench::json!([b.label(), us])).collect::<Vec<_>>(),
        "completed": r.completed,
        "started": r.started,
        "drops": r.drops,
    })
}

fn fig13(paper: bool, seed: u64) {
    header("Fig. 13 — testbed benchmark FCT");
    let mut out = tfc_bench::json::Map::new();
    for proto in Proto::ALL {
        let mut cfg = BenchExpConfig::testbed(proto);
        cfg.seed = seed;
        if paper {
            cfg.horizon = Dur::secs(2);
            cfg.drain = Dur::secs(2);
        }
        let r = experiments::benchmark::run(&cfg);
        print_bench(proto.label(), &r);
        out.insert(proto.label().to_lowercase(), bench_json(&r));
    }
    dump_json("fig13", &tfc_bench::json::Value::Object(out));
}

fn fig14(paper: bool, seed: u64) {
    header("Fig. 14 — impact of rho0");
    let cfg = RhoConfig {
        rho0_values: vec![0.90, 0.92, 0.94, 0.96, 0.98, 1.00],
        duration: if paper {
            Dur::secs(1)
        } else {
            Dur::millis(200)
        },
        seed,
        ..Default::default()
    };
    let pts = experiments::rho::run(&cfg);
    println!("rho0 | goodput | avg queue");
    for p in &pts {
        println!(
            "{:.2} | {} | {}",
            p.rho0,
            fmt_bps(p.goodput_bps),
            fmt_kb(p.avg_queue_bytes)
        );
    }
    let rows: Vec<(String, f64)> = pts
        .iter()
        .map(|p| (format!("rho0={:.2}", p.rho0), p.goodput_bps))
        .collect();
    let refs: Vec<(&str, f64)> = rows.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    print!("{}", bar_chart(&refs, 40));
    dump_json(
        "fig14",
        &tfc_bench::json!(pts
            .iter()
            .map(|p| tfc_bench::json!({
                "rho0": p.rho0,
                "goodput_bps": p.goodput_bps,
                "avg_queue_bytes": p.avg_queue_bytes,
                "max_queue_bytes": p.max_queue_bytes,
            }))
            .collect::<Vec<_>>()),
    );
}

fn fig15(paper: bool, seed: u64) {
    header("Fig. 15 — large-scale incast (10 Gbps)");
    let counts: &[usize] = if paper {
        &[8, 16, 32, 64, 100, 150, 200, 300, 400]
    } else {
        &[16, 64, 128]
    };
    let horizon = if paper { Dur::secs(2) } else { Dur::millis(80) };
    let blocks: &[u64] = if paper {
        &[64 * 1024, 128 * 1024, 256 * 1024]
    } else {
        &[64 * 1024]
    };
    let mut out = tfc_bench::json::Map::new();
    for &block in blocks {
        let kb = block / 1024;
        println!("-- block {kb} KB --");
        println!("senders | TFC tput / maxTO | TCP tput / maxTO");
        for &n in counts {
            let tfc = experiments::incast::run(&IncastExpConfig {
                seed,
                ..IncastExpConfig::large(Proto::Tfc, n, block, horizon)
            });
            let tcp = experiments::incast::run(&IncastExpConfig {
                seed,
                ..IncastExpConfig::large(Proto::Tcp, n, block, horizon)
            });
            println!(
                "{n:>7} | {} / {:.2} | {} / {:.2}",
                fmt_bps(tfc.goodput_bps),
                tfc.max_timeouts_per_block,
                fmt_bps(tcp.goodput_bps),
                tcp.max_timeouts_per_block
            );
            for (label, r) in [("tfc", &tfc), ("tcp", &tcp)] {
                out.entry(format!("{label}_{kb}kb"))
                    .or_insert_with(|| tfc_bench::json!([]))
                    .as_array_mut()
                    .expect("array")
                    .push(tfc_bench::json!({
                        "senders": n,
                        "goodput_bps": r.goodput_bps,
                        "max_timeouts_per_block": r.max_timeouts_per_block,
                        "drops": r.drops,
                    }));
            }
        }
    }
    dump_json("fig15", &tfc_bench::json::Value::Object(out));
}

fn fig16(paper: bool, seed: u64) {
    header("Fig. 16 — large-scale benchmark FCT");
    let (leaves, hosts) = if paper { (18, 20) } else { (4, 5) };
    let mut out = tfc_bench::json::Map::new();
    for proto in Proto::ALL {
        let mut cfg = BenchExpConfig::large(proto, leaves, hosts);
        cfg.seed = seed;
        if paper {
            cfg.horizon = Dur::millis(500);
            cfg.drain = Dur::secs(2);
        }
        let r = experiments::benchmark::run(&cfg);
        print_bench(proto.label(), &r);
        out.insert(proto.label().to_lowercase(), bench_json(&r));
    }
    dump_json("fig16", &tfc_bench::json::Value::Object(out));
}

fn ablations(paper: bool) {
    header("Ablations — what each TFC mechanism buys");
    let (n, rounds) = if paper { (64, 20) } else { (32, 3) };

    let a = experiments::ablations::delay_arbiter_incast(n, rounds);
    println!(
        "delay arbiter ({} senders incast): with -> {} goodput, {} drops, maxQ {}",
        n,
        fmt_bps(a.with.goodput_bps),
        a.with.drops,
        fmt_kb(a.with.max_queue_bytes as f64)
    );
    println!(
        "                                without -> {} goodput, {} drops, maxQ {}",
        fmt_bps(a.without.goodput_bps),
        a.without.drops,
        fmt_kb(a.without.max_queue_bytes as f64)
    );

    let d = experiments::ablations::decouple_rtt_queue(
        5,
        if paper {
            Dur::millis(500)
        } else {
            Dur::millis(150)
        },
    );
    let (wq, _, wg) = d.with;
    let (oq, _, og) = d.without;
    println!(
        "rtt decoupling (5 continuous flows): decoupled -> queue {} at {}",
        fmt_kb(wq),
        fmt_bps(wg)
    );
    println!(
        "                                      coupled  -> queue {} at {}",
        fmt_kb(oq),
        fmt_bps(og)
    );

    let w = experiments::workconserving::run(&WorkConservingConfig::default());
    let wo = experiments::workconserving::run(&WorkConservingConfig {
        token_adjustment: false,
        ..Default::default()
    });
    println!(
        "token adjustment (two bottlenecks): with -> S2 {}, without -> S2 {}",
        fmt_bps(w.s2_mean_bps),
        fmt_bps(wo.s2_mean_bps)
    );

    dump_json(
        "ablations",
        &tfc_bench::json!({
            "delay_arbiter": {
                "with": {"goodput_bps": a.with.goodput_bps, "drops": a.with.drops,
                         "max_queue_bytes": a.with.max_queue_bytes},
                "without": {"goodput_bps": a.without.goodput_bps, "drops": a.without.drops,
                            "max_queue_bytes": a.without.max_queue_bytes},
            },
            "decouple_rtt": {
                "with": {"avg_queue_bytes": wq, "goodput_bps": wg},
                "without": {"avg_queue_bytes": oq, "goodput_bps": og},
            },
            "token_adjustment": {
                "with_s2_bps": w.s2_mean_bps,
                "without_s2_bps": wo.s2_mean_bps,
            },
        }),
    );
}

/// Beyond the paper: reroute-on-link-down recovery on a multipath
/// fat-tree (see `experiments::reroute`). The uplink carrying the most
/// sprayed flows flaps; the affected flows' reverse path dies at the
/// partitioned aggregation switch, and each protocol's recovery from
/// the asymmetric outage is measured on the aggregate delivery rate.
fn reroute(paper: bool, seed: u64) {
    header("Reroute — ECMP fat-tree link-down recovery (TFC vs DCTCP vs TCP)");
    let mut out = tfc_bench::json::Map::new();
    println!("proto  | dip depth | recovery | reacquire | fault drops");
    for proto in experiments::Proto::ALL {
        let mut cfg = experiments::reroute::RerouteConfig::scaled(proto);
        cfg.seed = seed;
        if paper {
            cfg.horizon = Dur::millis(300);
            cfg.fault_at = Dur::millis(100);
            cfg.fault_dur = Dur::millis(50);
        }
        let r = experiments::reroute::run(&cfg);
        let dip = r.dip.as_ref();
        println!(
            "{:<6} | {:>9} | {:>8} | {:>9} | {}",
            proto.label(),
            dip.map(|d| format!("{:.1} %", d.depth * 100.0))
                .unwrap_or_else(|| "-".into()),
            dip.and_then(|d| d.recovery_ns)
                .map(|ns| fmt_us(ns as f64 / 1e3))
                .unwrap_or_else(|| "never".into()),
            r.reacquire_ns
                .map(|ns| fmt_us(ns as f64 / 1e3))
                .unwrap_or_else(|| "-".into()),
            r.fault_drops,
        );
        out.insert(
            proto.label().to_lowercase(),
            tfc_bench::json!({
                "baseline_bps": dip.map(|d| d.baseline_bps),
                "floor_bps": dip.map(|d| d.floor_bps),
                "dip_depth": dip.map(|d| d.depth),
                "recovery_ns": dip.and_then(|d| d.recovery_ns),
                "reacquire_ns": r.reacquire_ns,
                "delivered_bytes": r.delivered,
                "fault_drops": r.fault_drops,
                "queue_drops": r.queue_drops,
                "no_route_drops": r.no_route_drops,
                "rerouted": r.reroutes.iter()
                    .map(|&(node, port, dests)| tfc_bench::json!({
                        "node": node, "port": port, "dests": dests,
                    }))
                    .collect::<Vec<_>>(),
            }),
        );
    }
    dump_json("reroute", &tfc_bench::json::Value::Object(out));
}

fn sweeps(paper: bool) {
    header("Sweeps — parameter sensitivity beyond Fig. 14");
    let d = if paper {
        Dur::millis(500)
    } else {
        Dur::millis(120)
    };
    let alphas = [0.5, 0.75, 7.0 / 8.0, 0.95];
    println!("alpha (Eq. 8 EWMA weight):");
    let apts = experiments::sweeps::alpha_sweep(&alphas, d);
    for p in &apts {
        println!(
            "  alpha {:.3}: {} | queue {} | drops {}",
            p.value,
            fmt_bps(p.goodput_bps),
            fmt_kb(p.avg_queue_bytes),
            p.drops
        );
    }
    println!("initial rtt_b guess:");
    let rpts = experiments::sweeps::init_rttb_sweep(&[20, 80, 160, 400, 1_000], d);
    for p in &rpts {
        println!(
            "  init {:>5.0} µs: {} | queue {} | drops {}",
            p.value,
            fmt_bps(p.goodput_bps),
            fmt_kb(p.avg_queue_bytes),
            p.drops
        );
    }
    let ser = |pts: &[experiments::sweeps::SweepPoint]| {
        pts.iter()
            .map(|p| {
                tfc_bench::json!({
                    "value": p.value,
                    "goodput_bps": p.goodput_bps,
                    "avg_queue_bytes": p.avg_queue_bytes,
                    "drops": p.drops,
                })
            })
            .collect::<Vec<_>>()
    };
    dump_json(
        "sweeps",
        &tfc_bench::json!({"alpha": ser(&apts), "init_rttb_us": ser(&rpts)}),
    );
}

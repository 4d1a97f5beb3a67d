//! Figs. 8–10 — queue length, goodput/fairness, and convergence rate.
//!
//! Hosts H1 and H2 establish two flows each to H3 at fixed intervals
//! (the paper uses 3 s). One run per protocol produces: the bottleneck
//! queue trace (Fig. 8), per-flow goodput curves (Fig. 9), and the
//! convergence time of the third flow to its fair share (Fig. 10).

use metrics::TimeSeries;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::testbed;
use simnet::units::{Dur, Time};
use telemetry::TelemetryConfig;
use workloads::{OnOffApp, OnOffFlow};

use crate::proto::{Proto, ProtoConfig};
use crate::util::{convergence_time, mean_of, queue_points, sample_queue};

/// Figs. 8–10 parameters.
#[derive(Debug, Clone)]
pub struct GoodputConfig {
    /// Protocol under test.
    pub proto: Proto,
    /// Interval between flow joins (paper: 3 s; scaled by default).
    pub join_interval: Dur,
    /// Extra run time after the last join.
    pub tail: Dur,
    /// Goodput meter window (paper samples every 20 ms).
    pub meter_window: Dur,
    /// Queue-length sampling period.
    pub queue_sample: Dur,
    /// Per-link propagation delay.
    pub link_delay: Dur,
    /// Protocol knobs.
    pub proto_cfg: ProtoConfig,
    /// RNG seed.
    pub seed: u64,
    /// Structured telemetry (event log, gauges, export; off by default).
    pub telemetry: TelemetryConfig,
}

impl GoodputConfig {
    /// Scaled-down defaults that keep runs fast while preserving the
    /// dynamics (joins well past convergence time).
    pub fn scaled(proto: Proto) -> Self {
        Self {
            proto,
            join_interval: Dur::millis(150),
            tail: Dur::millis(150),
            meter_window: Dur::millis(5),
            queue_sample: Dur::millis(1),
            link_delay: Dur::nanos(500),
            proto_cfg: ProtoConfig::default(),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }

    /// Paper-scale run (3 s joins, 20 ms meters, 12 s total).
    pub fn paper(proto: Proto) -> Self {
        Self {
            proto,
            join_interval: Dur::secs(3),
            tail: Dur::secs(3),
            meter_window: Dur::millis(20),
            queue_sample: Dur::millis(10),
            link_delay: Dur::nanos(500),
            proto_cfg: ProtoConfig::default(),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }

    fn horizon(&self) -> u64 {
        3 * self.join_interval.as_nanos() + self.tail.as_nanos()
    }
}

/// Figs. 8–10 output for one protocol.
#[derive(Debug)]
pub struct GoodputResult {
    /// Per-flow goodput series (bits/s), in join order.
    pub flows: Vec<TimeSeries>,
    /// Bottleneck queue trace `(time_ns, bytes)`.
    pub queue: Vec<(u64, f64)>,
    /// Delay from flow 3's join to its goodput holding within 20% of
    /// the fair share (c/3), if it ever converges.
    pub convergence: Option<Dur>,
    /// Total enqueue drops at the bottleneck port.
    pub drops: u64,
    /// Mean aggregate goodput after the last join (bits/s).
    pub aggregate_bps: f64,
    /// Max queue ever seen at the bottleneck port (bytes).
    pub max_queue_bytes: u64,
    /// Jain's fairness index of per-flow goodput over the fully loaded
    /// phase (1.0 = perfectly fair).
    pub fairness: f64,
}

/// Runs one protocol through the Figs. 8–10 scenario.
pub fn run(cfg: &GoodputConfig) -> GoodputResult {
    let (t, hosts, switches) = testbed(cfg.link_delay);
    let net = cfg.proto_cfg.build_net(cfg.proto, t);
    let j = cfg.join_interval.as_nanos();
    let horizon = cfg.horizon();
    let sources = [hosts[0], hosts[1], hosts[0], hosts[1]];
    let flows_cfg: Vec<OnOffFlow> = sources
        .iter()
        .enumerate()
        .map(|(i, &src)| OnOffFlow {
            src,
            dst: hosts[2],
            active: vec![(i as u64 * j, horizon)],
        })
        .collect();
    let app = OnOffApp::new(flows_cfg, 128 * 1024).with_meters(cfg.meter_window);
    let mut sim = Simulator::new(
        net,
        cfg.proto_cfg.stack(cfg.proto),
        app,
        SimConfig {
            seed: cfg.seed,
            end: Some(Time(horizon)),
            host_jitter: None,
            telemetry: cfg.telemetry.clone(),
            ..Default::default()
        },
    );
    let nf1 = switches[1];
    let port = sim.core().route_of(nf1, hosts[2]).expect("route to H3");
    let sampler = sample_queue(sim.core_mut(), nf1, port, cfg.queue_sample);
    sim.run();
    crate::artifacts::maybe_export(
        sim.core(),
        "testbed(3 hosts, 2 switches)",
        format!("{cfg:?}"),
    );

    let flow_ids = sim.app().flow_ids().to_vec();
    let flows: Vec<TimeSeries> = flow_ids
        .iter()
        .map(|&f| {
            sim.core()
                .flow_meter(f)
                .map(|m| m.series().clone())
                .expect("meter attached at start")
        })
        .collect();
    let queue = queue_points(sim.core(), sampler);
    // Fair share of the bottleneck among 3 active flows (flow 3 joins
    // when flows 1–2 are running; goodput excludes headers).
    let fair = 1e9 / 3.0 * (1460.0 / 1500.0);
    let convergence =
        convergence_time(&flows[2], Time(2 * j), fair, 0.2, 3).map(|t| t.since(Time(2 * j)));
    let stats = sim.core().port_stats(nf1, port);
    let (max_q, drops) = (stats.max_queue_bytes, stats.drops);
    let loaded_start = 3 * j;
    let per_flow_means: Vec<f64> = flows
        .iter()
        .map(|s| {
            let pts: Vec<(u64, f64)> = s.window(loaded_start, horizon).collect();
            mean_of(&pts)
        })
        .collect();
    GoodputResult {
        flows,
        queue,
        convergence,
        drops,
        aggregate_bps: per_flow_means.iter().sum(),
        max_queue_bytes: max_q,
        fairness: metrics::jain_index(&per_flow_means),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::max_of;

    fn result(proto: Proto) -> GoodputResult {
        run(&GoodputConfig::scaled(proto))
    }

    #[test]
    fn all_protocols_fill_the_link() {
        for proto in Proto::ALL {
            let r = result(proto);
            assert!(
                r.aggregate_bps > 0.75e9,
                "{}: aggregate {:.0} Mbps",
                proto.label(),
                r.aggregate_bps / 1e6
            );
        }
    }

    #[test]
    fn tfc_queue_far_below_tcp() {
        let tfc = result(Proto::Tfc);
        let tcp = result(Proto::Tcp);
        // Steady-state comparison past the startup transient.
        let late = |r: &GoodputResult| {
            let pts: Vec<(u64, f64)> = r
                .queue
                .iter()
                .copied()
                .filter(|&(t, _)| t > 100_000_000)
                .collect();
            (mean_of(&pts), max_of(&pts))
        };
        let (tfc_mean, tfc_max) = late(&tfc);
        let (tcp_mean, tcp_max) = late(&tcp);
        assert!(
            tfc_mean * 5.0 < tcp_mean.max(1.0),
            "TFC mean queue {tfc_mean} vs TCP {tcp_mean}"
        );
        assert!(tfc_max < tcp_max, "TFC max {tfc_max} vs TCP max {tcp_max}");
        // Near-zero queueing in absolute terms (paper: ~9 kB max).
        assert!(tfc_mean < 6_000.0, "TFC mean queue {tfc_mean}");
    }

    #[test]
    fn dctcp_queue_sits_at_marking_threshold() {
        let r = result(Proto::Dctcp);
        let pts: Vec<(u64, f64)> = r
            .queue
            .iter()
            .copied()
            .filter(|&(t, _)| t > 100_000_000)
            .collect();
        let mean = mean_of(&pts);
        // K = 32 kB: DCTCP hovers below/around it (paper: ~30 kB).
        assert!(mean > 2_000.0 && mean < 60_000.0, "DCTCP mean queue {mean}");
    }

    #[test]
    fn tfc_converges_fastest() {
        let tfc = result(Proto::Tfc);
        let tcp = result(Proto::Tcp);
        let tfc_conv = tfc.convergence.expect("TFC converges");
        // TFC: a couple of RTTs (~tens of µs) plus one meter window.
        assert!(
            tfc_conv < Dur::millis(25),
            "TFC convergence took {tfc_conv}"
        );
        if let Some(tcp_conv) = tcp.convergence {
            assert!(tfc_conv <= tcp_conv, "TCP converged faster than TFC");
        }
    }

    #[test]
    fn tfc_is_fairest() {
        let tfc = result(Proto::Tfc);
        let tcp = result(Proto::Tcp);
        assert!(
            tfc.fairness > 0.99,
            "TFC Jain index {:.4} (paper: fair even at small timescales)",
            tfc.fairness
        );
        assert!(
            tfc.fairness >= tcp.fairness - 0.005,
            "TFC ({:.4}) less fair than TCP ({:.4})",
            tfc.fairness,
            tcp.fairness
        );
    }

    #[test]
    fn tfc_does_not_drop() {
        let r = result(Proto::Tfc);
        assert_eq!(r.drops, 0);
    }

    #[test]
    fn tfc_fair_share_in_loaded_phase() {
        let r = result(Proto::Tfc);
        let j = GoodputConfig::scaled(Proto::Tfc).join_interval.as_nanos();
        let horizon = GoodputConfig::scaled(Proto::Tfc).horizon();
        // All four flows active: each should sit near c/4.
        let fair = 1e9 / 4.0 * (1460.0 / 1500.0);
        for (i, s) in r.flows.iter().enumerate() {
            let pts: Vec<(u64, f64)> = s.window(3 * j + j / 2, horizon).collect();
            let mean = mean_of(&pts);
            assert!(
                (mean - fair).abs() / fair < 0.25,
                "flow {i} mean {mean:.0} vs fair {fair:.0}"
            );
        }
    }
}

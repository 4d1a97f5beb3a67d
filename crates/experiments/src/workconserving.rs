//! Fig. 11 — work conservation under multiple bottlenecks.
//!
//! Topology of Fig. 5: `h1 – S1 – S2 – {h3, h4}`, `h2 – S2`. Host 1
//! sends `n1 = 8` flows to h4 and `n2 = 2` flows to h3; host 2 sends
//! `n3 = 2` flows to h3. Two bottlenecks form: h1's uplink (managed at
//! S1's port toward S2) and S2's downlink to h3. The `n2` flows are
//! limited by the first bottleneck, so without token adjustment S2's
//! downlink would idle; TFC's Eq. 7 boosts S2's token until the `n3`
//! flows absorb the slack.

use simnet::sim::{SimConfig, Simulator};
use simnet::topology::multi_bottleneck;
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::TelemetryConfig;
use workloads::{OnOffApp, OnOffFlow};

use crate::proto::{Proto, ProtoConfig};
use crate::util::{mean_of, queue_points, sample_queue, sum_series};

/// Fig. 11 parameters.
#[derive(Debug, Clone)]
pub struct WorkConservingConfig {
    /// Flows h1→h4 (paper: 8).
    pub n1: usize,
    /// Flows h1→h3 (paper: 2).
    pub n2: usize,
    /// Flows h2→h3 (paper: 2).
    pub n3: usize,
    /// Run length (paper: 20 s; scaled by default).
    pub duration: Dur,
    /// Goodput meter window.
    pub meter_window: Dur,
    /// Whether TFC token adjustment is enabled (ablation switch).
    pub token_adjustment: bool,
    /// Per-link propagation delay. The default (20 µs, as in §6.2.2)
    /// puts the per-flow window above one MSS, the regime where the
    /// work-conserving problem manifests; at tiny RTTs the sub-MSS delay
    /// arbiter paces all flows at line rate and masks it.
    pub link_delay: Dur,
    /// RNG seed.
    pub seed: u64,
    /// Structured telemetry (event log, gauges, export; off by default).
    pub telemetry: TelemetryConfig,
}

impl Default for WorkConservingConfig {
    fn default() -> Self {
        Self {
            n1: 8,
            n2: 2,
            n3: 2,
            duration: Dur::millis(400),
            meter_window: Dur::millis(10),
            token_adjustment: true,
            link_delay: Dur::micros(20),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }
}

/// Fig. 11 output.
#[derive(Debug)]
pub struct WorkConservingResult {
    /// Aggregate goodput through bottleneck 1 (h1's flows), `(t, bps)`.
    pub s1_goodput: Vec<(u64, f64)>,
    /// Aggregate goodput through bottleneck 2 (flows into h3), `(t, bps)`.
    pub s2_goodput: Vec<(u64, f64)>,
    /// Queue trace at S1's port toward S2.
    pub s1_queue: Vec<(u64, f64)>,
    /// Queue trace at S2's port toward h3.
    pub s2_queue: Vec<(u64, f64)>,
    /// Steady-state mean goodput (bits/s) at the two bottlenecks.
    pub s1_mean_bps: f64,
    /// Steady-state mean goodput (bits/s) at bottleneck 2.
    pub s2_mean_bps: f64,
    /// Total drops across both switches.
    pub drops: u64,
}

/// Runs the Fig. 11 experiment (TFC; the ablation switch allows
/// demonstrating the non-work-conserving failure mode).
pub fn run(cfg: &WorkConservingConfig) -> WorkConservingResult {
    let (t, hosts, switches) = multi_bottleneck(Bandwidth::gbps(1), cfg.link_delay);
    let mut proto_cfg = ProtoConfig::default();
    proto_cfg.tfc_switch.token_adjustment = cfg.token_adjustment;
    let net = proto_cfg.build_net(Proto::Tfc, t);

    let horizon = cfg.duration.as_nanos();
    let (h1, h2, h3, h4) = (hosts[0], hosts[1], hosts[2], hosts[3]);
    let mut flows = Vec::new();
    for _ in 0..cfg.n1 {
        flows.push(OnOffFlow {
            src: h1,
            dst: h4,
            active: vec![(0, horizon)],
        });
    }
    for _ in 0..cfg.n2 {
        flows.push(OnOffFlow {
            src: h1,
            dst: h3,
            active: vec![(0, horizon)],
        });
    }
    for _ in 0..cfg.n3 {
        flows.push(OnOffFlow {
            src: h2,
            dst: h3,
            active: vec![(0, horizon)],
        });
    }
    let app = OnOffApp::new(flows, 128 * 1024).with_meters(cfg.meter_window);
    let mut sim = Simulator::new(
        net,
        proto_cfg.stack(Proto::Tfc),
        app,
        SimConfig {
            seed: cfg.seed,
            end: Some(Time(horizon)),
            host_jitter: None,
            telemetry: cfg.telemetry.clone(),
            ..Default::default()
        },
    );
    let (s1, s2) = (switches[0], switches[1]);
    let s1_port = sim.core().route_of(s1, h4).expect("S1 toward S2");
    let s2_port = sim.core().route_of(s2, h3).expect("S2 toward h3");
    let q1 = sample_queue(sim.core_mut(), s1, s1_port, Dur::millis(1));
    let q2 = sample_queue(sim.core_mut(), s2, s2_port, Dur::millis(1));
    sim.run();
    crate::artifacts::maybe_export(
        sim.core(),
        "multi_bottleneck(4 hosts, 2 switches)",
        format!("{cfg:?}"),
    );

    let ids = sim.app().flow_ids().to_vec();
    let series_of = |range: std::ops::Range<usize>| {
        let refs: Vec<&metrics::TimeSeries> = ids[range]
            .iter()
            .map(|&f| {
                sim.core()
                    .flow_meter(f)
                    .map(|m| m.series())
                    .expect("metered")
            })
            .collect();
        sum_series(&refs)
    };
    // Bottleneck 1 carries h1's flows (n1 + n2); bottleneck 2 carries
    // the flows into h3 (n2 + n3).
    let s1_goodput = series_of(0..cfg.n1 + cfg.n2);
    let n2_series = series_of(cfg.n1..cfg.n1 + cfg.n2);
    let n3_series = series_of(cfg.n1 + cfg.n2..cfg.n1 + cfg.n2 + cfg.n3);
    let s2_goodput: Vec<(u64, f64)> = n2_series
        .iter()
        .zip(n3_series.iter())
        .map(|(&(t, a), &(_, b))| (t, a + b))
        .collect();

    // Steady state: skip the first quarter of the run.
    let skip = horizon / 4;
    let steady = |pts: &[(u64, f64)]| {
        let late: Vec<(u64, f64)> = pts.iter().copied().filter(|&(t, _)| t > skip).collect();
        mean_of(&late)
    };
    WorkConservingResult {
        s1_mean_bps: steady(&s1_goodput),
        s2_mean_bps: steady(&s2_goodput),
        s1_queue: queue_points(sim.core(), q1),
        s2_queue: queue_points(sim.core(), q2),
        s1_goodput,
        s2_goodput,
        drops: sim.core().total_drops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_bottlenecks_fully_utilised() {
        let r = run(&WorkConservingConfig::default());
        // Paper Fig. 11a: both around 910–945 Mbps.
        assert!(
            r.s1_mean_bps > 0.85e9,
            "S1 bottleneck at {:.0} Mbps",
            r.s1_mean_bps / 1e6
        );
        assert!(
            r.s2_mean_bps > 0.85e9,
            "S2 bottleneck at {:.0} Mbps",
            r.s2_mean_bps / 1e6
        );
        assert_eq!(r.drops, 0);
    }

    #[test]
    fn queues_stay_near_one_packet() {
        let r = run(&WorkConservingConfig::default());
        let skip = 100_000_000;
        for (name, q) in [("s1", &r.s1_queue), ("s2", &r.s2_queue)] {
            let late: Vec<(u64, f64)> = q.iter().copied().filter(|&(t, _)| t > skip).collect();
            let mean = mean_of(&late);
            // Paper Fig. 11b: ~2 kB, about one packet.
            assert!(mean < 8_000.0, "{name} queue mean {mean}");
        }
    }

    #[test]
    fn ablation_without_adjustment_underutilises_s2() {
        let with = run(&WorkConservingConfig::default());
        let without = run(&WorkConservingConfig {
            token_adjustment: false,
            ..Default::default()
        });
        // Without Eq. 7 the n3 flows cannot absorb what the n2 flows
        // leave on the table at S2's downlink (analytically ~0.79 of
        // capacity for the 8/2/2 split; the whole-packet rounding of the
        // senders claws a little back).
        assert!(
            without.s2_mean_bps < 0.86e9,
            "expected underutilisation without adjustment, got {:.0} Mbps",
            without.s2_mean_bps / 1e6
        );
        assert!(
            without.s2_mean_bps + 80e6 < with.s2_mean_bps,
            "adjustment should add >80 Mbps: with {:.0}, without {:.0} Mbps",
            with.s2_mean_bps / 1e6,
            without.s2_mean_bps / 1e6
        );
    }
}

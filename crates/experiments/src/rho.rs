//! Fig. 14 — impact of the target utilisation `rho0`.
//!
//! Hosts H1–H5 each run one continuous TFC flow to H6; `rho0` sweeps
//! from 0.90 to 1.00. Goodput at the receiver tracks `rho0` (the
//! remaining bandwidth pays for headers), and the bottleneck queue stays
//! around a packet until `rho0` approaches 1.0, where the vanishing
//! drain margin lets backlog accumulate.

use simnet::sim::{SimConfig, Simulator};
use simnet::topology::testbed;
use simnet::units::{Dur, Time};
use telemetry::TelemetryConfig;
use workloads::{OnOffApp, OnOffFlow};

use crate::proto::{Proto, ProtoConfig};
use crate::util::{mean_of, queue_points, sample_queue};

/// Fig. 14 parameters.
#[derive(Debug, Clone)]
pub struct RhoConfig {
    /// `rho0` values to sweep (paper: 0.90 ..= 1.00).
    pub rho0_values: Vec<f64>,
    /// Run length per point.
    pub duration: Dur,
    /// Per-link propagation delay.
    pub link_delay: Dur,
    /// RNG seed.
    pub seed: u64,
    /// Structured telemetry; an export name gets the point's `rho0`
    /// appended so sweep points land in distinct directories.
    pub telemetry: TelemetryConfig,
}

impl Default for RhoConfig {
    fn default() -> Self {
        Self {
            rho0_values: vec![0.90, 0.92, 0.94, 0.96, 0.98, 1.00],
            duration: Dur::millis(200),
            link_delay: Dur::nanos(500),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct RhoPoint {
    /// The configured target utilisation.
    pub rho0: f64,
    /// Receiver goodput (bits/s).
    pub goodput_bps: f64,
    /// Mean sampled queue at the bottleneck (bytes).
    pub avg_queue_bytes: f64,
    /// Peak queue (bytes).
    pub max_queue_bytes: u64,
}

/// Runs the Fig. 14 sweep.
pub fn run(cfg: &RhoConfig) -> Vec<RhoPoint> {
    cfg.rho0_values
        .iter()
        .map(|&rho0| run_point(cfg, rho0))
        .collect()
}

fn run_point(cfg: &RhoConfig, rho0: f64) -> RhoPoint {
    let (t, hosts, switches) = testbed(cfg.link_delay);
    let mut proto_cfg = ProtoConfig::default();
    proto_cfg.tfc_switch.rho0 = rho0;
    let net = proto_cfg.build_net(Proto::Tfc, t);
    let horizon = cfg.duration.as_nanos();
    let h6 = hosts[5];
    // H1..H5 each send one continuous flow to H6.
    let flows: Vec<OnOffFlow> = hosts[..5]
        .iter()
        .map(|&src| OnOffFlow {
            src,
            dst: h6,
            active: vec![(0, horizon)],
        })
        .collect();
    let app = OnOffApp::new(flows, 128 * 1024);
    let mut telemetry = cfg.telemetry.clone();
    if let Some(name) = &mut telemetry.export {
        *name = format!("{name}-rho{rho0}");
    }
    let mut sim = Simulator::new(
        net,
        proto_cfg.stack(Proto::Tfc),
        app,
        SimConfig {
            seed: cfg.seed,
            end: Some(Time(horizon)),
            host_jitter: None,
            telemetry,
            ..Default::default()
        },
    );
    let nf2 = switches[2];
    let port = sim.core().route_of(nf2, h6).expect("route to H6");
    let sampler = sample_queue(sim.core_mut(), nf2, port, Dur::millis(1));
    sim.run();
    crate::artifacts::maybe_export(
        sim.core(),
        "testbed(6 hosts, 3 switches)",
        format!("rho0={rho0} {cfg:?}"),
    );

    // Receiver goodput: total delivered over the run (skip nothing; the
    // ramp-up is microseconds against a multi-ms run).
    let delivered: u64 = sim.core().flows().map(|(_, st)| st.delivered).sum();
    let goodput_bps = delivered as f64 * 8.0 / cfg.duration.as_secs_f64();
    let queue = queue_points(sim.core(), sampler);
    // Skip the startup transient for the queue average.
    let late: Vec<(u64, f64)> = queue
        .iter()
        .copied()
        .filter(|&(t, _)| t > horizon / 4)
        .collect();
    let max_q = sim.core().port_stats(nf2, port).max_queue_bytes;
    RhoPoint {
        rho0,
        goodput_bps,
        avg_queue_bytes: mean_of(&late),
        max_queue_bytes: max_q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_tracks_rho0_and_queue_grows_at_one() {
        let cfg = RhoConfig {
            rho0_values: vec![0.90, 0.97, 1.00],
            duration: Dur::millis(120),
            ..Default::default()
        };
        let pts = run(&cfg);
        assert_eq!(pts.len(), 3);
        // Goodput is monotone in rho0 and lands in the paper's band
        // (880–940 Mbps across the sweep).
        assert!(pts[0].goodput_bps < pts[2].goodput_bps);
        for p in &pts {
            assert!(
                p.goodput_bps > 0.8e9 && p.goodput_bps < 1.0e9,
                "rho0={}: goodput {:.0} Mbps",
                p.rho0,
                p.goodput_bps / 1e6
            );
        }
        // Queue at rho0=1.0 exceeds the queue at 0.90.
        assert!(
            pts[2].avg_queue_bytes > pts[0].avg_queue_bytes,
            "queue at rho0=1.0 ({:.0}) should exceed rho0=0.9 ({:.0})",
            pts[2].avg_queue_bytes,
            pts[0].avg_queue_bytes
        );
    }
}

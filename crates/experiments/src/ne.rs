//! Fig. 7 — accuracy of the effective-flow count with inactive flows.
//!
//! Five continuously backlogged flows H4→H6 share NF2's port toward H6
//! with a ramp of H1→H6 flows that activate one per step and then fall
//! silent one per step. The port's measured `Ne` must track
//! `n1(t)/ratio + n2`, where `ratio` is the RTT ratio between the
//! cross-rack H1 flows and the intra-rack delimiter flow from H4.

use simnet::sim::{SimConfig, Simulator};
use simnet::topology::testbed;
use simnet::units::{Dur, Time};
use telemetry::TelemetryConfig;
use tfc::config::TfcSwitchConfig;
use tfc::{TfcStack, TfcSwitchPolicy};
use workloads::{OnOffApp, OnOffFlow};

use crate::util::gauge_points;

/// Fig. 7 parameters.
#[derive(Debug, Clone)]
pub struct NeConfig {
    /// Ramp step (the paper uses 1 s; scaled down by default).
    pub step: Dur,
    /// Number of ramping flows (paper: 10).
    pub n1_max: usize,
    /// Number of continuous flows (paper: 5).
    pub n2: usize,
    /// Propagation delay per link.
    pub link_delay: Dur,
    /// RNG seed.
    pub seed: u64,
    /// Structured telemetry (event log, gauges, export; off by default).
    pub telemetry: TelemetryConfig,
}

impl Default for NeConfig {
    fn default() -> Self {
        Self {
            step: Dur::millis(20),
            n1_max: 10,
            n2: 5,
            link_delay: Dur::nanos(500),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }
}

/// Fig. 7 output.
#[derive(Debug)]
pub struct NeResult {
    /// `(time_ns, measured_ne)` samples from the port engine.
    pub measured: Vec<(u64, f64)>,
    /// `(time_ns, active_n1)` ground truth of ramping-flow activity.
    pub active_n1: Vec<(u64, f64)>,
    /// Number of continuous flows (`n2`).
    pub n2: usize,
    /// Estimated RTT ratio between H1 flows and the H4 delimiter.
    pub rtt_ratio: f64,
}

impl NeResult {
    /// Expected `Ne` at time `t_ns`: `n1(t)/ratio + n2` (Eq. 1).
    pub fn expected_at(&self, t_ns: u64) -> f64 {
        let n1 = self
            .active_n1
            .iter()
            .take_while(|&&(t, _)| t <= t_ns)
            .last()
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        n1 / self.rtt_ratio + self.n2 as f64
    }
}

/// Runs the Fig. 7 experiment.
pub fn run(cfg: &NeConfig) -> NeResult {
    let (t, hosts, switches) = testbed(cfg.link_delay);
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));

    let step = cfg.step.as_nanos();
    let total_steps = (cfg.n1_max * 2 + 1) as u64;
    let horizon = step * total_steps;
    let h1 = hosts[0];
    let h4 = hosts[3];
    let h6 = hosts[5];

    // The continuous H4 flows start first, so the delimiter at NF2's
    // port toward H6 is an intra-rack flow — like the paper's setup.
    let mut flows = Vec::new();
    for _ in 0..cfg.n2 {
        flows.push(OnOffFlow {
            src: h4,
            dst: h6,
            active: vec![(0, horizon)],
        });
    }
    // Ramp flow i activates at (i+1)·step and goes silent at
    // (n1_max + i + 1)·step: count rises 1..n1_max then falls to 0.
    let mut activity: Vec<(u64, f64)> = vec![(0, 0.0)];
    for i in 0..cfg.n1_max {
        let on = step * (i as u64 + 1);
        let off = step * ((cfg.n1_max + i) as u64 + 1);
        flows.push(OnOffFlow {
            src: h1,
            dst: h6,
            active: vec![(on, off)],
        });
        activity.push((on, 0.0));
        activity.push((off, 0.0));
    }
    activity.sort_unstable_by_key(|&(t, _)| t);
    for point in activity.iter_mut() {
        let t = point.0;
        let n_active = (0..cfg.n1_max)
            .filter(|&i| {
                let on = step * (i as u64 + 1);
                let off = step * ((cfg.n1_max + i) as u64 + 1);
                t >= on && t < off
            })
            .count();
        point.1 = n_active as f64;
    }

    let app = OnOffApp::new(flows, 64 * 1024);
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        app,
        SimConfig {
            seed: cfg.seed,
            end: Some(Time(horizon)),
            host_jitter: None,
            telemetry: TelemetryConfig {
                tfc_gauges: true,
                ..cfg.telemetry.clone()
            },
            ..Default::default()
        },
    );
    sim.run();
    crate::artifacts::maybe_export(
        sim.core(),
        "testbed(6 hosts, 3 switches)",
        format!("{cfg:?}"),
    );

    let nf2 = switches[2];
    let port = sim.core().route_of(nf2, h6).expect("route to H6");
    let measured = gauge_points(sim.core(), nf2, port, |s| s.effective_flows);
    assert!(!measured.is_empty(), "no Ne trace recorded");

    // RTT ratio estimate from hop counts: cross-rack H1 flows traverse
    // 4 links each way, intra-rack 2. Store-and-forward of a full frame
    // dominates, so the ratio is roughly hops_cross / hops_intra.
    let frame_us = 12.0; // 1500 B at 1 Gbps
    let prop_us = cfg.link_delay.as_micros_f64();
    let cross = 4.0 * (frame_us + prop_us);
    let intra = 2.0 * (frame_us + prop_us);
    let rtt_ratio = cross / intra;

    NeResult {
        measured,
        active_n1: activity,
        n2: cfg.n2,
        rtt_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ne_tracks_ramp() {
        let cfg = NeConfig::default();
        let r = run(&cfg);
        let step = cfg.step.as_nanos();
        // Early plateau: only the 5 continuous flows.
        let early: Vec<f64> = r
            .measured
            .iter()
            .filter(|&&(t, _)| t > step / 2 && t < step)
            .map(|&(_, v)| v)
            .collect();
        assert!(!early.is_empty());
        let early_mean = early.iter().sum::<f64>() / early.len() as f64;
        assert!(
            (early_mean - 5.0).abs() < 1.2,
            "expected ~5 effective flows early, got {early_mean}"
        );
        // Peak: between n1_max/ratio + n2 (RTT-biased sharing, Eq. 1)
        // and n1_max + n2 (the arbiter-paced sub-MSS regime equalises
        // flow rates, pushing each flow to one mark per slot).
        let peak_window = (step * 10, step * 11);
        let peak: Vec<f64> = r
            .measured
            .iter()
            .filter(|&&(t, _)| t > peak_window.0 && t < peak_window.1)
            .map(|&(_, v)| v)
            .collect();
        assert!(!peak.is_empty());
        let peak_mean = peak.iter().sum::<f64>() / peak.len() as f64;
        let lo = r.expected_at(step * 10 + step / 2) - 1.5;
        let hi = (cfg.n1_max + cfg.n2) as f64 + 1.5;
        assert!(
            peak_mean >= lo && peak_mean <= hi,
            "peak Ne {peak_mean} outside [{lo}, {hi}]"
        );
        // After the ramp drains, back to ~5.
        let late: Vec<f64> = r
            .measured
            .iter()
            .filter(|&&(t, _)| t > step * 20)
            .map(|&(_, v)| v)
            .collect();
        assert!(!late.is_empty());
        let late_mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            (late_mean - 5.0).abs() < 1.2,
            "expected ~5 effective flows late, got {late_mean}"
        );
    }
}

//! Parameter-sensitivity sweeps beyond Fig. 14: the token-EWMA weight
//! `alpha` (Eq. 8) and the initial `rtt_b` guess. The paper fixes
//! `alpha = 7/8` and `rtt_b(0) = 160 µs` without studying sensitivity;
//! these sweeps show the design is robust across a wide band of both.

use simnet::sim::{SimConfig, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use workloads::{OnOffApp, OnOffFlow};

use crate::proto::{Proto, ProtoConfig};
use crate::util::{mean_of, queue_points, sample_queue};

/// One sweep point: the parameter value and what it produced.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub value: f64,
    /// Aggregate goodput (bits/s).
    pub goodput_bps: f64,
    /// Mean bottleneck queue after warm-up (bytes).
    pub avg_queue_bytes: f64,
    /// Drops over the run.
    pub drops: u64,
}

fn run_point(mutate: impl FnOnce(&mut ProtoConfig), duration: Dur, n: usize) -> SweepPoint {
    let (t, hosts, sw) = star(n + 1, Bandwidth::gbps(1), Dur::micros(20));
    let mut pc = ProtoConfig::default();
    mutate(&mut pc);
    let net = pc.build_net(Proto::Tfc, t);
    let horizon = duration.as_nanos();
    let receiver = hosts[n];
    let flows: Vec<OnOffFlow> = hosts[..n]
        .iter()
        .map(|&src| OnOffFlow {
            src,
            dst: receiver,
            active: vec![(0, horizon)],
        })
        .collect();
    let app = OnOffApp::new(flows, 128 * 1024);
    let mut sim = Simulator::new(
        net,
        pc.stack(Proto::Tfc),
        app,
        SimConfig {
            end: Some(Time(horizon)),
            ..Default::default()
        },
    );
    let port = sim.core().route_of(sw, receiver).expect("downlink");
    let sampler = sample_queue(sim.core_mut(), sw, port, Dur::millis(1));
    sim.run();
    let q = queue_points(sim.core(), sampler);
    let late: Vec<(u64, f64)> = q
        .iter()
        .copied()
        .filter(|&(t, _)| t > horizon / 4)
        .collect();
    let delivered: u64 = sim.core().flows().map(|(_, st)| st.delivered).sum();
    SweepPoint {
        value: 0.0,
        goodput_bps: delivered as f64 * 8.0 / duration.as_secs_f64(),
        avg_queue_bytes: mean_of(&late),
        drops: sim.core().total_drops(),
    }
}

/// Sweeps the token-EWMA weight `alpha` (Eq. 8).
pub fn alpha_sweep(values: &[f64], duration: Dur) -> Vec<SweepPoint> {
    values
        .iter()
        .map(|&a| {
            let mut p = run_point(|pc| pc.tfc_switch.alpha = a, duration, 4);
            p.value = a;
            p
        })
        .collect()
}

/// Sweeps the initial `rtt_b` guess (paper Init: 160 µs).
pub fn init_rttb_sweep(values_us: &[u64], duration: Dur) -> Vec<SweepPoint> {
    values_us
        .iter()
        .map(|&us| {
            let mut p = run_point(|pc| pc.tfc_switch.init_rttb = Dur::micros(us), duration, 4);
            p.value = us as f64;
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_band_is_robust() {
        let pts = alpha_sweep(&[0.5, 0.75, 7.0 / 8.0, 0.95], Dur::millis(120));
        for p in &pts {
            assert!(
                p.goodput_bps > 0.85e9,
                "alpha {}: goodput {:.2e}",
                p.value,
                p.goodput_bps
            );
            assert_eq!(p.drops, 0, "alpha {} dropped", p.value);
            assert!(
                p.avg_queue_bytes < 25_000.0,
                "alpha {}: queue {:.0}",
                p.value,
                p.avg_queue_bytes
            );
        }
    }

    #[test]
    fn init_rttb_guess_is_forgiven() {
        // From far too small to far too large: the cold-start cap plus
        // the first-measurement snap make the initial guess irrelevant.
        let pts = init_rttb_sweep(&[20, 160, 1_000], Dur::millis(120));
        for p in &pts {
            assert!(
                p.goodput_bps > 0.85e9,
                "init {} µs: goodput {:.2e}",
                p.value,
                p.goodput_bps
            );
            assert_eq!(p.drops, 0, "init {} µs dropped", p.value);
        }
        // And outcomes stay close: the guess only affects the first
        // couple of RTTs (ramp pace), a bounded slice of this short run.
        let g: Vec<f64> = pts.iter().map(|p| p.goodput_bps).collect();
        let spread = (g.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - g.iter().cloned().fold(f64::INFINITY, f64::min))
            / g[0];
        assert!(spread < 0.12, "goodput spread {spread:.3}");
    }
}

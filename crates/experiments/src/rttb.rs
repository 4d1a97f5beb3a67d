//! Fig. 6 — accuracy of measuring `rtt_b`.
//!
//! Two hosts send long-lived TFC flows to a third; the bottleneck port's
//! token engine measures `rtt_m` every slot, and — like the paper — we
//! sample "`rtt_b`" as the minimum `rtt_m` per wall-clock window.
//! Concurrently, a reference flow keeps exactly one full-size packet per
//! round trip in flight and records its sender-side RTT samples (the
//! paper's "referenced rtt"). With random host processing delay enabled,
//! the measured `rtt_b` CDF sits a few microseconds below the referenced
//! RTT — the min filter strips the processing jitter — exactly as in the
//! paper (59 µs vs 65 µs on their testbed).

use metrics::Cdf;
use simnet::app::{Application, FlowEvent};
use simnet::endpoint::FlowSpec;
use simnet::packet::{FlowId, NodeId};
use simnet::sim::{SimApi, SimConfig, Simulator};
use simnet::topology::testbed;
use simnet::units::{Dur, Time};
use telemetry::TelemetryConfig;
use tfc::config::TfcSwitchConfig;
use tfc::{TfcStack, TfcSwitchPolicy};

use crate::util::{gauge_points, window_minima};

/// Fig. 6 parameters.
#[derive(Debug, Clone)]
pub struct RttbConfig {
    /// Run length.
    pub duration: Dur,
    /// Window over which each `rtt_b` sample takes the minimum `rtt_m`
    /// (the paper uses 1 s; scaled down by default to keep runs fast).
    pub sample_window: Dur,
    /// Host processing jitter range.
    pub jitter: (Dur, Dur),
    /// Propagation delay per link.
    pub link_delay: Dur,
    /// RNG seed.
    pub seed: u64,
    /// Structured telemetry (event log, gauges, export; off by default).
    pub telemetry: TelemetryConfig,
}

impl Default for RttbConfig {
    fn default() -> Self {
        Self {
            duration: Dur::millis(500),
            sample_window: Dur::millis(10),
            jitter: (Dur::micros(2), Dur::micros(8)),
            link_delay: Dur::nanos(500),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }
}

/// Fig. 6 output: the two CDFs (microseconds).
#[derive(Debug)]
pub struct RttbResult {
    /// Measured `rtt_b` samples, one per window.
    pub measured_rttb: Cdf,
    /// Referenced RTT samples from the 1-packet-per-RTT flow.
    pub reference_rtt: Cdf,
}

/// Load flows plus a concurrent 1-packet-per-RTT reference ping.
struct LoadAndPing {
    load_pairs: Vec<(NodeId, NodeId)>,
    ping: (NodeId, NodeId),
    chunk: u64,
    load_flows: Vec<FlowId>,
    ping_flow: Option<FlowId>,
    backlog: std::collections::BTreeMap<FlowId, i64>,
}

impl Application for LoadAndPing {
    fn start(&mut self, api: &mut SimApi<'_>) {
        for &(src, dst) in &self.load_pairs.clone() {
            let flow = api.start_flow(FlowSpec {
                src,
                dst,
                bytes: None,
                weight: 1,
            });
            api.watch_delivery(flow);
            api.push_data(flow, self.chunk);
            self.backlog.insert(flow, self.chunk as i64);
            self.load_flows.push(flow);
        }
        let (src, dst) = self.ping;
        let ping = api.start_flow(FlowSpec {
            src,
            dst,
            bytes: None,
            weight: 1,
        });
        api.watch_delivery(ping);
        api.watch_rtt(ping);
        api.push_data(ping, simnet::MSS);
        self.ping_flow = Some(ping);
    }

    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        let FlowEvent::Delivered { flow, bytes } = ev else {
            return;
        };
        if Some(flow) == self.ping_flow {
            // Next ping only once the previous one fully arrived.
            api.push_data(flow, simnet::MSS);
            return;
        }
        let backlog = self.backlog.entry(flow).or_insert(0);
        *backlog -= bytes as i64;
        if *backlog < self.chunk as i64 {
            api.push_data(flow, self.chunk);
            *backlog += self.chunk as i64;
        }
    }
}

/// Runs the Fig. 6 experiment.
pub fn run(cfg: &RttbConfig) -> RttbResult {
    // H1 and H2 send two long flows each to H3 (all on leaf NF1); the
    // engine at NF1's port toward H3 publishes rtt_m per slot. H1 also
    // pings H3 with one MSS per round trip.
    let (t, hosts, switches) = testbed(cfg.link_delay);
    let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
    let horizon = cfg.duration.as_nanos();
    let app = LoadAndPing {
        load_pairs: vec![
            (hosts[0], hosts[2]),
            (hosts[1], hosts[2]),
            (hosts[0], hosts[2]),
            (hosts[1], hosts[2]),
        ],
        ping: (hosts[0], hosts[2]),
        chunk: 128 * 1024,
        load_flows: Vec::new(),
        ping_flow: None,
        backlog: Default::default(),
    };
    let mut sim = Simulator::new(
        net,
        Box::new(TfcStack::default()),
        app,
        SimConfig {
            seed: cfg.seed,
            end: Some(Time(horizon)),
            host_jitter: Some(cfg.jitter),
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
        "testbed(3 hosts, 2 switches)",
        format!("{cfg:?}"),
    );

    let nf1 = switches[1];
    let port = sim.core().route_of(nf1, hosts[2]).expect("route to H3");
    let rttm = gauge_points(sim.core(), nf1, port, |s| Dur(s.rtt_m_ns).as_micros_f64());
    assert!(
        !rttm.is_empty(),
        "no rtt_m gauge recorded; TFC engine inactive?"
    );
    let measured = window_minima(&rttm, cfg.sample_window);

    let ping = sim.app().ping_flow.expect("ping flow started");
    let reference: Vec<f64> = sim
        .core()
        .rtt_samples(ping)
        .iter()
        .map(|&(_, rtt)| rtt as f64 / 1_000.0)
        .collect();
    assert!(!reference.is_empty(), "ping flow produced no RTT samples");

    RttbResult {
        measured_rttb: Cdf::from_samples(&measured),
        reference_rtt: Cdf::from_samples(&reference),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_rttb_sits_below_reference() {
        let cfg = RttbConfig {
            duration: Dur::millis(80),
            sample_window: Dur::millis(4),
            ..Default::default()
        };
        let r = run(&cfg);
        assert!(r.measured_rttb.len() >= 10);
        assert!(r.reference_rtt.len() >= 50);
        let measured_med = r.measured_rttb.quantile(0.5);
        let ref_med = r.reference_rtt.quantile(0.5);
        // The min filter strips processing jitter: measured below the
        // referenced median, but in the same ballpark (paper: 59 vs 65).
        assert!(
            measured_med < ref_med,
            "measured {measured_med} vs reference {ref_med}"
        );
        assert!(measured_med > ref_med * 0.4);
    }
}

//! Figs. 13 and 16 — flow completion times under the realistic
//! benchmark mix (query incasts + short messages + heavy-tailed
//! background flows, modelled on the DCTCP web-search workload).
//!
//! Fig. 13 runs on the 9-host testbed; Fig. 16 on the 18-leaf × 20-host
//! large-scale topology (1 Gbps down, 10 Gbps up, 20 µs links).

use metrics::{FctSummary, SizeBin};
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::{leaf_spine, testbed};
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::TelemetryConfig;
use workloads::{BenchmarkApp, BenchmarkConfig};

use crate::proto::{Proto, ProtoConfig};

/// Which topology the benchmark runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// The 9-host / 4-switch testbed of Fig. 4.
    Testbed,
    /// The §6.2.2 topology. Parameters: `(leaves, hosts_per_leaf)` —
    /// the paper uses (18, 20); smaller values keep CI runs fast.
    LeafSpine {
        /// Number of leaf switches.
        leaves: usize,
        /// Servers per leaf.
        hosts_per_leaf: usize,
    },
}

/// Figs. 13/16 parameters.
#[derive(Debug, Clone)]
pub struct BenchExpConfig {
    /// Protocol under test.
    pub proto: Proto,
    /// Topology.
    pub scale: BenchScale,
    /// Flow-generation horizon.
    pub horizon: Dur,
    /// Extra drain time after the horizon.
    pub drain: Dur,
    /// Mean interarrival of query fan-ins.
    pub query_interarrival: Dur,
    /// Responders per query (`None` = all other hosts).
    pub query_fanout: Option<usize>,
    /// Mean interarrival of short messages.
    pub short_interarrival: Dur,
    /// Mean interarrival of background flows.
    pub bg_interarrival: Dur,
    /// RNG seed.
    pub seed: u64,
    /// Structured telemetry (event log, gauges, export; off by default).
    pub telemetry: TelemetryConfig,
}

impl BenchExpConfig {
    /// Fig. 13: testbed scale.
    pub fn testbed(proto: Proto) -> Self {
        Self {
            proto,
            scale: BenchScale::Testbed,
            horizon: Dur::millis(300),
            drain: Dur::millis(500),
            query_interarrival: Dur::millis(5),
            query_fanout: None,
            short_interarrival: Dur::millis(12),
            bg_interarrival: Dur::millis(5),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }

    /// Fig. 16: large-scale (the paper uses 18 × 20; pass smaller values
    /// to bound run time).
    pub fn large(proto: Proto, leaves: usize, hosts_per_leaf: usize) -> Self {
        Self {
            proto,
            scale: BenchScale::LeafSpine {
                leaves,
                hosts_per_leaf,
            },
            horizon: Dur::millis(200),
            drain: Dur::millis(600),
            query_interarrival: Dur::millis(10),
            query_fanout: None,
            short_interarrival: Dur::millis(3),
            bg_interarrival: Dur::millis(1),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }
}

/// Figs. 13/16 output for one protocol.
#[derive(Debug)]
pub struct BenchResult {
    /// Query-flow FCT percentiles (Fig. 13a / 16a).
    pub query: Option<FctSummary>,
    /// Background + short flows: per-size-bin 99.9th FCT in µs
    /// (Fig. 13b / 16b).
    pub background_bins: Vec<(SizeBin, f64)>,
    /// Background + short flow FCT summary.
    pub background: Option<FctSummary>,
    /// Flows started / completed (coverage check).
    pub started: u64,
    /// Completed flows.
    pub completed: u64,
    /// Total drops across all switches.
    pub drops: u64,
}

/// Runs one benchmark configuration.
pub fn run(cfg: &BenchExpConfig) -> BenchResult {
    let proto_cfg = match cfg.scale {
        BenchScale::Testbed => ProtoConfig::default(),
        BenchScale::LeafSpine { .. } => ProtoConfig::ten_gig(),
    };
    let (builder, hosts) = match cfg.scale {
        BenchScale::Testbed => {
            let (b, hosts, _) = testbed(Dur::nanos(500));
            (b, hosts)
        }
        BenchScale::LeafSpine {
            leaves,
            hosts_per_leaf,
        } => {
            let (b, hosts, _) = leaf_spine(
                leaves,
                hosts_per_leaf,
                Bandwidth::gbps(1),
                Bandwidth::gbps(10),
                Dur::micros(20),
            );
            (b, hosts)
        }
    };
    let net = proto_cfg.build_net(cfg.proto, builder);
    let bench_cfg = BenchmarkConfig {
        hosts,
        horizon: cfg.horizon,
        query_interarrival: cfg.query_interarrival,
        query_bytes: 2_000,
        query_fanout: cfg.query_fanout,
        short_interarrival: cfg.short_interarrival,
        short_range: (50_000, 1_000_000),
        bg_interarrival: cfg.bg_interarrival,
        bg_sizes: workloads::dist::background_flow_sizes(),
    };
    let app = BenchmarkApp::new(bench_cfg);
    let mut sim = Simulator::new(
        net,
        proto_cfg.stack(cfg.proto),
        app,
        SimConfig {
            seed: cfg.seed,
            end: Some(Time(cfg.horizon.as_nanos() + cfg.drain.as_nanos())),
            host_jitter: None,
            telemetry: cfg.telemetry.clone(),
            ..Default::default()
        },
    );
    sim.run();
    crate::artifacts::maybe_export(sim.core(), format!("{:?}", cfg.scale), format!("{cfg:?}"));

    let (query, short, bg) = sim.app().fct_by_class(sim.core());
    let mut background = bg;
    for r in short.records() {
        background.record(*r);
    }
    let background_bins = background
        .per_bin()
        .into_iter()
        .map(|(bin, s)| (bin, s.p999_us))
        .collect();
    let completed = sim
        .core()
        .flows()
        .filter(|(_, st)| st.receiver_done_at.is_some())
        .count() as u64;
    BenchResult {
        query: query.summary(),
        background: background.summary(),
        background_bins,
        started: sim.app().flows_started(),
        completed,
        drops: sim.core().total_drops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_benchmark_tfc_beats_tcp_on_queries() {
        let tfc = run(&BenchExpConfig::testbed(Proto::Tfc));
        let tcp = run(&BenchExpConfig::testbed(Proto::Tcp));
        let tfc_q = tfc.query.expect("TFC query flows completed");
        let tcp_q = tcp.query.expect("TCP query flows completed");
        // Fig. 13a: TFC's mean and tails sit far below TCP's (TCP's
        // 99.99th hits the 200 ms RTO).
        assert!(
            tfc_q.mean_us < tcp_q.mean_us,
            "TFC mean {:.0} vs TCP {:.0}",
            tfc_q.mean_us,
            tcp_q.mean_us
        );
        assert!(tfc_q.p999_us < tcp_q.p999_us);
        // TFC query FCT is sub-millisecond even at the 99.9th.
        assert!(tfc_q.p999_us < 3_000.0, "TFC p999 {:.0} µs", tfc_q.p999_us);
        assert_eq!(tfc.drops, 0, "TFC dropped packets");
    }

    #[test]
    fn testbed_benchmark_completes_most_flows() {
        let r = run(&BenchExpConfig::testbed(Proto::Tfc));
        assert!(r.started > 100, "only {} flows started", r.started);
        assert!(
            r.completed as f64 > r.started as f64 * 0.95,
            "{} of {} completed",
            r.completed,
            r.started
        );
        // All six size bins should be populated by the mix.
        assert!(r.background_bins.len() >= 5);
    }

    #[test]
    fn small_leaf_spine_benchmark_runs() {
        let r = run(&BenchExpConfig::large(Proto::Tfc, 3, 4));
        assert!(r.query.is_some());
        assert!(r.completed > 0);
    }
}

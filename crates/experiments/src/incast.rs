//! Figs. 12 and 15 — the incast communication pattern.
//!
//! A receiver requests fixed-size blocks from `n` senders over
//! persistent connections; all senders respond synchronously and the
//! next round starts only when every block arrived. Fig. 12 runs the
//! testbed variant (1 Gbps, 256 KB buffers, 256 KB blocks, up to 100
//! senders); Fig. 15 the large-scale one (10 Gbps, 512 KB buffers,
//! blocks of 64/128/256 KB, up to 400 senders, 2 s horizon).

use simnet::sim::{SimConfig, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::TelemetryConfig;
use workloads::{IncastApp, IncastConfig};

use crate::proto::{Proto, ProtoConfig};
use crate::util::{mean_of, queue_points, sample_queue};

/// One incast run's parameters.
#[derive(Debug, Clone)]
pub struct IncastExpConfig {
    /// Protocol under test.
    pub proto: Proto,
    /// Number of senders.
    pub senders: usize,
    /// Block size per sender per round.
    pub block_bytes: u64,
    /// Rounds to run (the run also stops at `horizon` if set).
    pub rounds: u32,
    /// Link rate (all links identical).
    pub rate: Bandwidth,
    /// Switch buffer per port.
    pub buffer_bytes: u64,
    /// Per-link propagation delay.
    pub link_delay: Dur,
    /// Hard stop (Fig. 15 uses a 2 s horizon).
    pub horizon: Option<Dur>,
    /// Open fresh connections every round (the classic incast setup);
    /// otherwise persistent connections carry every block.
    pub fresh_connections: bool,
    /// Protocol knobs.
    pub proto_cfg: ProtoConfig,
    /// RNG seed.
    pub seed: u64,
    /// Structured telemetry (event log, gauges, export; off by default).
    pub telemetry: TelemetryConfig,
}

impl IncastExpConfig {
    /// Fig. 12 testbed settings (scaled round count).
    pub fn testbed(proto: Proto, senders: usize, rounds: u32) -> Self {
        Self {
            proto,
            senders,
            block_bytes: 256 * 1024,
            rounds,
            rate: Bandwidth::gbps(1),
            buffer_bytes: 256 * 1024,
            link_delay: Dur::nanos(500),
            horizon: None,
            fresh_connections: true,
            proto_cfg: ProtoConfig::default(),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }

    /// Fig. 15 large-scale settings (10 Gbps, 512 KB buffers).
    pub fn large(proto: Proto, senders: usize, block_bytes: u64, horizon: Dur) -> Self {
        Self {
            proto,
            senders,
            block_bytes,
            rounds: u32::MAX,
            rate: Bandwidth::gbps(10),
            buffer_bytes: 512 * 1024,
            link_delay: Dur::micros(20),
            horizon: Some(horizon),
            fresh_connections: true,
            proto_cfg: ProtoConfig::ten_gig(),
            seed: 1,
            telemetry: TelemetryConfig::off(),
        }
    }
}

/// One incast run's results.
#[derive(Debug, Clone, Copy)]
pub struct IncastExpResult {
    /// Application goodput over the run (bits/s).
    pub goodput_bps: f64,
    /// Mean over rounds of the worst per-flow timeout count (Fig. 15b).
    pub max_timeouts_per_block: f64,
    /// Mean sampled queue at the receiver's downlink (bytes).
    pub avg_queue_bytes: f64,
    /// Peak queue at the receiver's downlink (bytes).
    pub max_queue_bytes: u64,
    /// Total drops at the switch.
    pub drops: u64,
    /// Completed rounds.
    pub rounds: u32,
}

/// Runs one incast configuration.
pub fn run(cfg: &IncastExpConfig) -> IncastExpResult {
    let (t, hosts, sw) = {
        let mut b = star(cfg.senders + 1, cfg.rate, cfg.link_delay);
        b.0.switch_buffer(cfg.buffer_bytes);
        b
    };
    let net = cfg.proto_cfg.build_net(cfg.proto, t);
    let receiver = hosts[cfg.senders];
    // The request needs one switch traversal: two serialisations of a
    // minimum frame plus propagation.
    let request_delay = Dur(2 * cfg.rate.serialize(64).as_nanos() + 2 * cfg.link_delay.as_nanos());
    let app = IncastApp::new(IncastConfig {
        senders: hosts[..cfg.senders].to_vec(),
        receiver,
        block_bytes: cfg.block_bytes,
        rounds: cfg.rounds,
        request_delay,
        fresh_per_round: cfg.fresh_connections,
    });
    let mut sim = Simulator::new(
        net,
        cfg.proto_cfg.stack(cfg.proto),
        app,
        SimConfig {
            seed: cfg.seed,
            end: cfg.horizon.map(|h| Time(h.as_nanos())),
            host_jitter: None,
            telemetry: cfg.telemetry.clone(),
            ..Default::default()
        },
    );
    let port = sim.core().route_of(sw, receiver).expect("downlink");
    let sampler = sample_queue(sim.core_mut(), sw, port, Dur::micros(100));
    sim.run();
    crate::artifacts::maybe_export(
        sim.core(),
        format!("star(n={})", cfg.senders + 1),
        format!("{cfg:?}"),
    );

    let app = sim.app();
    let stats = sim.core().port_stats(sw, port);
    let (max_q, drops) = (stats.max_queue_bytes, stats.drops);
    let queue = queue_points(sim.core(), sampler);
    // For horizon-bounded runs goodput spans the whole horizon.
    let goodput_bps = if let Some(h) = cfg.horizon {
        let total = cfg.block_bytes * cfg.senders as u64 * u64::from(app.rounds_done());
        total as f64 * 8.0 / h.as_secs_f64()
    } else {
        app.goodput_bps()
    };
    // Fig. 15b's "max timeouts per block": with fresh connections the
    // flow list groups naturally by round, so incomplete rounds (cut by
    // the horizon or wedged in RTO backoff) still contribute.
    let max_timeouts_per_block = if cfg.fresh_connections {
        let flows: Vec<u64> = sim.core().flows().map(|(_, st)| st.timeouts).collect();
        let groups: Vec<&[u64]> = flows.chunks(cfg.senders).collect();
        if groups.is_empty() {
            0.0
        } else {
            groups
                .iter()
                .map(|g| *g.iter().max().unwrap_or(&0) as f64)
                .sum::<f64>()
                / groups.len() as f64
        }
    } else {
        app.mean_max_timeouts_per_block()
    };
    IncastExpResult {
        goodput_bps,
        max_timeouts_per_block,
        avg_queue_bytes: mean_of(&queue),
        max_queue_bytes: max_q,
        drops,
        rounds: app.rounds_done(),
    }
}

/// Runs a sweep over sender counts for one protocol (a Fig. 12 / 15
/// series). `make` builds the per-point config.
pub fn sweep(
    counts: &[usize],
    make: impl Fn(usize) -> IncastExpConfig,
) -> Vec<(usize, IncastExpResult)> {
    counts.iter().map(|&n| (n, run(&make(n)))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tfc_incast_no_loss_high_goodput() {
        let r = run(&IncastExpConfig::testbed(Proto::Tfc, 24, 6));
        assert_eq!(r.drops, 0, "TFC dropped packets in incast");
        assert!(
            r.max_timeouts_per_block < 0.01,
            "TFC timeouts {}",
            r.max_timeouts_per_block
        );
        // Paper Fig. 12a: 800–900 Mbps.
        assert!(
            r.goodput_bps > 0.7e9,
            "TFC incast goodput {:.0} Mbps",
            r.goodput_bps / 1e6
        );
        // Fig. 12b: near-zero backlog.
        assert!(r.avg_queue_bytes < 20_000.0);
    }

    #[test]
    fn tcp_incast_collapses_with_many_senders() {
        let few = run(&IncastExpConfig::testbed(Proto::Tcp, 4, 4));
        let many = run(&IncastExpConfig::testbed(Proto::Tcp, 48, 4));
        assert!(
            many.goodput_bps < few.goodput_bps * 0.5,
            "TCP should collapse: few {:.0} Mbps, many {:.0} Mbps",
            few.goodput_bps / 1e6,
            many.goodput_bps / 1e6
        );
        assert!(many.max_timeouts_per_block > 0.1);
        assert!(many.drops > 0);
    }

    #[test]
    fn tcp_fills_buffer_in_incast() {
        let r = run(&IncastExpConfig::testbed(Proto::Tcp, 48, 3));
        // Fig. 12b: TCP max queue close to the 256 KB buffer.
        assert!(
            r.max_queue_bytes > 200_000,
            "TCP max queue {}",
            r.max_queue_bytes
        );
    }

    #[test]
    fn tfc_outlasts_tcp_at_scale_10g() {
        // Past the collapse point (paper: ≥ ~50 senders; here ~100) TCP
        // wedges in RTO backoff while TFC stays near line rate.
        let horizon = Dur::millis(80);
        let tfc = run(&IncastExpConfig::large(Proto::Tfc, 128, 64 * 1024, horizon));
        let tcp = run(&IncastExpConfig::large(Proto::Tcp, 128, 64 * 1024, horizon));
        assert!(
            tfc.goodput_bps > 5e9,
            "TFC at scale: {:.2} Gbps",
            tfc.goodput_bps / 1e9
        );
        assert!(tfc.goodput_bps > 2.0 * tcp.goodput_bps.max(1.0));
        assert_eq!(tfc.drops, 0);
        assert!(tcp.drops > 0);
    }
}

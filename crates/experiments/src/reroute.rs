//! Reroute-on-link-down recovery on a multipath fat-tree (ROADMAP
//! "Multi-path fabrics"; the open edge §7 of the paper leaves to
//! future work).
//!
//! Backlogged cross-pod flows leave one edge switch of a k-ary
//! fat-tree, sprayed over its `k/2` equal-cost uplinks by the
//! deterministic `(flow, hop)` ECMP hash. Mid-run the uplink carrying
//! the most flows flaps down and back: forward traffic is absorbed by
//! the surviving members at the next hash selection (the `Rerouted`
//! telemetry event counts the absorbable destinations), but the
//! asymmetry bites on the *reverse* path — ACKs that hash through the
//! partitioned aggregation switch have no equal-cost sibling toward
//! the source edge and die at its single-path hop, so the affected
//! flows stall until the link returns. Recovery is judged on the
//! aggregate delivery rate exactly as in [`crate::faults`]: dip depth
//! below the pre-fault baseline and time from the clear back to 90 %
//! of baseline. TFC must reclaim the stalled flows' tokens (rho
//! notices the silence) and re-acquire windows when the link heals;
//! drop-tail TCP and DCTCP sit out RTO backoff first.

use std::path::PathBuf;

use chaos::recovery::{self, DipSummary};
use chaos::FaultTimeline;
use simnet::node::ecmp_hash;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::fat_tree;
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::{LogMode, TelemetryConfig, TraceEvent};
use workloads::{OnOffApp, OnOffFlow};

use crate::proto::{Proto, ProtoConfig};

/// Reroute-run parameters.
#[derive(Debug, Clone)]
pub struct RerouteConfig {
    /// Protocol under test.
    pub proto: Proto,
    /// Fat-tree arity (even, ≥ 4 so edges have ≥ 2 uplinks).
    pub k: usize,
    /// Backlogged cross-pod senders, all behind one edge switch
    /// (at most `k/2`, the hosts that edge owns).
    pub senders: usize,
    /// Total run time.
    pub horizon: Dur,
    /// When the uplink goes down.
    pub fault_at: Dur,
    /// How long it stays down.
    pub fault_dur: Dur,
    /// Bin width for the aggregate delivery rate.
    pub bin: Dur,
    /// Host access rate.
    pub host_rate: Bandwidth,
    /// Fabric (edge-agg-core) rate.
    pub fabric_rate: Bandwidth,
    /// Per-link propagation delay.
    pub link_delay: Dur,
    /// Protocol knobs.
    pub proto_cfg: ProtoConfig,
    /// RNG seed.
    pub seed: u64,
    /// Structured telemetry; the constructors enable the event log
    /// (dip metrics and `Rerouted` records need it).
    pub telemetry: TelemetryConfig,
}

impl RerouteConfig {
    /// Defaults: a k=8 fat-tree (4 equal-cost uplinks per edge) made
    /// asymmetric by the flap, sized so the whole suite stays fast.
    /// `RTO_min` is scaled to the simulated RTT (2 ms, the usual
    /// datacenter-incast setting) for every protocol — a flow whose
    /// reverse path dies recovers only by retransmission timeout, and
    /// the paper's WAN-ish 200 ms floor would dwarf a 60 ms horizon.
    pub fn scaled(proto: Proto) -> Self {
        let mut proto_cfg = ProtoConfig::default();
        proto_cfg.tcp.min_rto = Dur::millis(2);
        proto_cfg.tfc_host.min_rto = Dur::millis(2);
        Self {
            proto,
            k: 8,
            senders: 4,
            horizon: Dur::millis(60),
            fault_at: Dur::millis(20),
            fault_dur: Dur::millis(10),
            bin: Dur::micros(500),
            host_rate: Bandwidth::gbps(1),
            fabric_rate: Bandwidth::gbps(10),
            link_delay: Dur::micros(1),
            proto_cfg,
            seed: 1,
            telemetry: TelemetryConfig {
                events: LogMode::Full,
                sample_one_in: 1,
                tfc_gauges: true,
                profile: false,
                trace: telemetry::TraceConfig::Off,
                export: None,
            },
        }
    }

    /// Like [`Self::scaled`] but exporting artifacts under `run`.
    pub fn exporting(proto: Proto, run: impl Into<String>) -> Self {
        let mut cfg = Self::scaled(proto);
        cfg.telemetry.export = Some(run.into());
        cfg
    }

    /// The edge uplink port the timeline flaps: flow ids are assigned
    /// in sender order starting at 0 and the edge switch picks
    /// `uplinks[ecmp_hash(flow, 0) % (k/2)]`, so the busiest member is
    /// known before the run — downing it guarantees the fault actually
    /// carries traffic (lowest port wins ties, deterministically).
    pub fn victim_uplink(&self) -> usize {
        let half = self.k / 2;
        let mut load = vec![0u32; half];
        for f in 0..self.senders as u64 {
            load[(ecmp_hash(f, 0) % half as u64) as usize] += 1;
        }
        (0..half)
            .max_by_key(|&p| (load[p], std::cmp::Reverse(p)))
            .unwrap()
    }
}

/// Outcome of one reroute run.
#[derive(Debug)]
pub struct RerouteResult {
    /// Protocol under test.
    pub proto: Proto,
    /// Link-down time, ns.
    pub fault_start_ns: u64,
    /// Link-up time, ns.
    pub fault_end_ns: u64,
    /// Aggregate-goodput dip around the outage. The flows sprayed onto
    /// the surviving uplinks keep delivering, so depth < 1 measures the
    /// affected fraction; `recovery_ns` is the headline reroute metric.
    pub dip: Option<DipSummary>,
    /// `Rerouted` telemetry records as `(node, port, dests)` — one per
    /// switch end of the downed link, with the count of destinations a
    /// surviving equal-cost member absorbs.
    pub reroutes: Vec<(u32, u16, u64)>,
    /// Time from link-up to the first window (re-)acquisition note —
    /// TFC token grants, or a baseline stack growing cwnd again
    /// (`None` when the stack never notes one).
    pub reacquire_ns: Option<u64>,
    /// Total bytes delivered over the run.
    pub delivered: u64,
    /// Packets lost to the dead link across all switch ports (in-flight
    /// drops at the downed port plus reverse-path packets dying at the
    /// partitioned aggregation switch's single-path hop).
    pub fault_drops: u64,
    /// Ordinary queue-overflow drops across all switch ports.
    pub queue_drops: u64,
    /// Unroutable-packet drops (should stay 0: the fat-tree fill keeps
    /// every destination reachable; repair is selection-time only).
    pub no_route_drops: u64,
    /// Artifact directory when export was configured.
    pub export_dir: Option<PathBuf>,
}

/// Runs one protocol through the reroute scenario.
pub fn run(cfg: &RerouteConfig) -> RerouteResult {
    let half = cfg.k / 2;
    assert!(
        cfg.k >= 4 && cfg.k.is_multiple_of(2),
        "need ≥ 2 uplinks per edge"
    );
    assert!(
        (1..=half).contains(&cfg.senders),
        "senders must fit one edge switch (1..={half})"
    );
    let (t, hosts, switches) = fat_tree(cfg.k, cfg.host_rate, cfg.fabric_rate, cfg.link_delay);
    let net = cfg.proto_cfg.build_net(cfg.proto, t);
    // `switches` lists the (k/2)^2 cores, then per pod aggregation then
    // edge switches; pod 0's first edge owns hosts[0..k/2] and its
    // ports 0..k/2-1 are the aggregation uplinks, in agg order.
    let edge0 = switches[half * half + half];
    let horizon = cfg.horizon.as_nanos();
    let n_hosts = hosts.len();
    let flows_cfg: Vec<OnOffFlow> = (0..cfg.senders)
        .map(|i| OnOffFlow {
            src: hosts[i],
            // Cross-pod peers, one per sender, in the last pod.
            dst: hosts[n_hosts - 1 - i],
            active: vec![(0, horizon)],
        })
        .collect();
    let app = OnOffApp::new(flows_cfg, 128 * 1024).with_meters(cfg.bin);
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
    let at = Time(cfg.fault_at.as_nanos());
    FaultTimeline::new()
        .link_flap(at, cfg.fault_dur, edge0, cfg.victim_uplink())
        .install(sim.core_mut());
    sim.run();
    let export_dir = crate::artifacts::maybe_export(
        sim.core(),
        format!("fat_tree({})", cfg.k),
        format!("{cfg:?}"),
    );

    let fault_start_ns = at.nanos();
    let fault_end_ns = fault_start_ns + cfg.fault_dur.as_nanos();
    let mut deliveries = Vec::new();
    let mut acquired = Vec::new();
    let mut reroutes = Vec::new();
    for rec in sim.core().telemetry().log.records() {
        match rec.event {
            TraceEvent::PktDeliver { bytes, .. } => deliveries.push((rec.at_ns, bytes)),
            TraceEvent::FlowWindowAcquired { .. } => acquired.push(rec.at_ns),
            TraceEvent::Rerouted { node, port, dests } => reroutes.push((node, port, dests)),
            _ => {}
        }
    }
    let dip = recovery::goodput_dip(
        &deliveries,
        fault_start_ns,
        fault_end_ns,
        cfg.bin.as_nanos(),
    );
    // Every fat-tree switch has exactly k ports.
    let (mut fault_drops, mut queue_drops, mut no_route_drops) = (0, 0, 0);
    for &sw in &switches {
        for p in 0..cfg.k {
            let stats = sim.core().port_stats(sw, p);
            fault_drops += stats.fault_drops;
            queue_drops += stats.drops;
            no_route_drops += stats.no_route_drops;
        }
    }
    RerouteResult {
        proto: cfg.proto,
        fault_start_ns,
        fault_end_ns,
        dip,
        reroutes,
        reacquire_ns: recovery::time_to_first_after(&acquired, fault_end_ns),
        delivered: sim.core().flows().map(|(_, st)| st.delivered).sum(),
        fault_drops,
        queue_drops,
        no_route_drops,
        export_dir,
    }
}

/// Runs all three protocols through the same scenario and seed.
pub fn run_matrix(seed: u64) -> Vec<RerouteResult> {
    Proto::ALL
        .iter()
        .map(|&proto| {
            let mut cfg = RerouteConfig::scaled(proto);
            cfg.seed = seed;
            run(&cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_uplink_is_the_busiest_member() {
        let cfg = RerouteConfig::scaled(Proto::Tfc);
        let half = cfg.k / 2;
        let victim = cfg.victim_uplink();
        assert!(victim < half);
        // At least one of the senders' flows hashes onto it.
        let hits = (0..cfg.senders as u64)
            .filter(|&f| (ecmp_hash(f, 0) % half as u64) as usize == victim)
            .count();
        assert!(hits >= 1, "victim uplink carries no flow");
    }

    /// The headline scenario: the flap dents goodput (the affected
    /// flows' ACK path dies at the partitioned aggregation switch),
    /// both switch ends record the repair, and the rate recovers after
    /// the link returns.
    #[test]
    fn tfc_reroute_dips_and_recovers() {
        let r = run(&RerouteConfig::scaled(Proto::Tfc));
        assert!(r.delivered > 0);
        let dip = r.dip.expect("pre-fault baseline exists");
        assert!(dip.depth > 0.0, "flap left no mark: {dip:?}");
        assert!(
            dip.recovery_ns.is_some(),
            "goodput never recovered: {dip:?}"
        );
        assert_eq!(r.reroutes.len(), 2, "one record per switch end");
        // The edge end can absorb every multi-uplink destination; the
        // aggregation end has single-path entries only (dests 0).
        let dests: Vec<u64> = r.reroutes.iter().map(|&(_, _, d)| d).collect();
        assert!(dests.iter().any(|&d| d > 0), "edge end absorbs nothing");
        assert!(r.fault_drops > 0, "a flapped uplink loses packets");
        assert_eq!(r.no_route_drops, 0, "repair is selection-time only");
    }

    /// All three protocols survive the same asymmetric flap and record
    /// comparable recovery metrics.
    #[test]
    fn matrix_records_recovery_for_every_protocol() {
        let results = run_matrix(5);
        assert_eq!(results.len(), Proto::ALL.len());
        for r in &results {
            assert!(r.delivered > 0, "{}: nothing delivered", r.proto.label());
            assert!(r.dip.is_some(), "{}: no baseline", r.proto.label());
            assert_eq!(r.reroutes.len(), 2, "{}: reroute records", r.proto.label());
        }
        let tfc = &results[0];
        assert_eq!(tfc.proto, Proto::Tfc);
        assert!(
            tfc.reacquire_ns.is_some(),
            "TFC re-acquires a token window after the link returns"
        );
        // TFC's token reclamation hands the freed window back faster
        // than the baselines' RTO-gated additive increase.
        for other in &results[1..] {
            if let (Some(t), Some(o)) = (tfc.reacquire_ns, other.reacquire_ns) {
                assert!(
                    t <= o,
                    "TFC reacquired in {t} ns, {} in {o} ns",
                    other.proto.label()
                );
            }
        }
    }

    /// Identical seed ⇒ identical outcome, ECMP spray included.
    #[test]
    fn reroute_runs_are_deterministic() {
        let a = run(&RerouteConfig::scaled(Proto::Tfc));
        let b = run(&RerouteConfig::scaled(Proto::Tfc));
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.fault_drops, b.fault_drops);
        assert_eq!(a.reroutes, b.reroutes);
        assert_eq!(a.dip.map(|d| d.recovery_ns), b.dip.map(|d| d.recovery_ns));
    }
}

//! `tfc-million` — the streaming million-flow scale experiment.
//!
//! Drives the open-loop [`workloads::stream`] engine over the paper's
//! §6.2.2 leaf-spine fabric (10 Gbps edges) with a two-class RPC mix —
//! a thin stream of web-search background elephants over a torrent of
//! cache-follower mice — until a target number of flows has *completed
//! and retired*. The point of the experiment is not a new figure but a
//! systems claim: the run finishes millions of flows while the flow
//! slab, the endpoint tables, the timer table, the scheduler's queued
//! entries, and the packet arena stay at their peak-concurrency
//! high-water marks, and the per-class FCT/slowdown
//! quantiles come out of fixed-size sketches instead of an unbounded
//! record vector.
//!
//! Validation is in-run: an oracle configuration keeps exact per-class
//! [`metrics::FctCollector`] records *alongside* the sketches (same
//! simulation, same flows), so any disagreement beyond the sketch's
//! 2·alpha relative-error bound is pure sketch error, not behavioural
//! drift. The oracle is only affordable at small scale; the full run
//! drops `keep_exact` and trusts the bound the small run established.

use metrics::{FctSummary, QuantileSketch};
use simnet::retire::RetireConfig;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::leaf_spine;
use simnet::units::{Bandwidth, Dur};
use telemetry::TelemetryConfig;
use workloads::dist::{background_flow_sizes, cache_follower_flow_sizes};
use workloads::{StreamApp, StreamClass, StreamConfig};

use crate::proto::{Proto, ProtoConfig};

/// Bound on the event queue's peak queued entries per peak live flow:
/// a live flow holds its packets' events plus one timer entry, and a
/// cancelled-and-re-armed timer reuses its queued entry, so dead RTO
/// entries cannot pile up behind ACK-clocked re-arms.
pub const SCHED_ENTRIES_PER_LIVE_FLOW: usize = 16;

/// Parameters of one streaming run.
#[derive(Debug, Clone)]
pub struct MillionConfig {
    /// Protocol under test.
    pub proto: Proto,
    /// Leaf switches.
    pub leaves: usize,
    /// Servers per leaf.
    pub hosts_per_leaf: usize,
    /// Completed-and-retired flows to stop at.
    pub target_flows: u64,
    /// Mean interarrival of the cache-follower mice (aggregate, across
    /// the whole fabric).
    pub cache_interarrival: Dur,
    /// Mean interarrival of the web-search background flows.
    pub web_interarrival: Dur,
    /// Open-loop safety valve (0 = unlimited): arrivals are shed, not
    /// queued, while this many flows are in flight.
    pub max_active: u64,
    /// Sketch relative-error bound.
    pub alpha: f64,
    /// Keep exact per-class records alongside the sketches (unbounded
    /// memory — small oracle runs only).
    pub keep_exact: bool,
    /// RNG seed.
    pub seed: u64,
    /// Telemetry (Ring/sampled modes keep artifact size flat; see
    /// [`MillionConfig::streaming_telemetry`]).
    pub telemetry: TelemetryConfig,
}

impl MillionConfig {
    /// The full acceptance-scale run: 360 hosts, one million retired
    /// flows, mice-dominated mix (~1k web-search elephants ride along).
    pub fn full() -> Self {
        Self {
            proto: Proto::Tfc,
            leaves: 18,
            hosts_per_leaf: 20,
            target_flows: 1_000_000,
            cache_interarrival: Dur::nanos(1_100),
            web_interarrival: Dur::millis(1),
            max_active: 0,
            alpha: metrics::sketch::DEFAULT_ALPHA,
            keep_exact: false,
            seed: 61,
            telemetry: TelemetryConfig::off(),
        }
    }

    /// CI-sized variant: same fabric shape scaled down, 100k flows.
    pub fn quick() -> Self {
        Self {
            leaves: 6,
            hosts_per_leaf: 8,
            target_flows: 100_000,
            ..Self::full()
        }
    }

    /// Small oracle run with exact records kept for sketch validation.
    /// The web-search class is boosted to ~9 % of arrivals so both
    /// classes accumulate meaningful sample counts in a short run.
    pub fn oracle() -> Self {
        Self {
            leaves: 4,
            hosts_per_leaf: 6,
            target_flows: 20_000,
            web_interarrival: Dur::micros(11),
            keep_exact: true,
            ..Self::full()
        }
    }

    /// Flat-memory telemetry for streaming runs: a bounded event ring
    /// and heavy packet-event sampling, exported under `run`. The
    /// events.json size is capped by the ring, and flows.json carries
    /// the fixed-size retired sketches plus only still-live flows.
    pub fn streaming_telemetry(run: impl Into<String>) -> TelemetryConfig {
        TelemetryConfig {
            events: telemetry::LogMode::Ring(4096),
            sample_one_in: 256,
            tfc_gauges: false,
            profile: false,
            trace: telemetry::TraceConfig::Off,
            export: Some(run.into()),
        }
    }

    fn retire(&self) -> RetireConfig {
        RetireConfig {
            alpha: self.alpha,
            // Host–leaf–spine–leaf–host and back at the configured
            // per-link delay, plus slack for serialisation.
            base_rtt: Dur::micros(170),
            line_rate: Bandwidth::gbps(10),
            classes: vec!["cache-follower".into(), "web-search".into()],
            keep_exact: self.keep_exact,
        }
    }

    fn stream(&self, hosts: Vec<simnet::packet::NodeId>) -> StreamConfig {
        StreamConfig {
            hosts,
            classes: vec![
                StreamClass {
                    name: "cache-follower".into(),
                    mean_interarrival: self.cache_interarrival,
                    sizes: cache_follower_flow_sizes(),
                    weight: 1,
                },
                StreamClass {
                    name: "web-search".into(),
                    mean_interarrival: self.web_interarrival,
                    sizes: background_flow_sizes(),
                    weight: 1,
                },
            ],
            target_completed: Some(self.target_flows),
            horizon: None,
            max_active: self.max_active,
        }
    }
}

/// Per-class FCT view of one run: the sketch-derived summary and, on
/// oracle runs, the exact records next to it.
#[derive(Debug)]
pub struct ClassReport {
    /// Class name.
    pub name: String,
    /// Flows retired into the class.
    pub count: u64,
    /// Percentiles from the streaming sketch.
    pub sketch: Option<FctSummary>,
    /// Percentiles from the exact records (oracle runs only).
    pub exact: Option<FctSummary>,
    /// The class's FCT sketch itself (fixed size).
    pub fct_sketch: QuantileSketch,
    /// Exact per-flow FCTs in ns (oracle runs only, else empty).
    pub exact_fct_ns: Vec<f64>,
    /// Median slowdown (FCT over ideal FCT).
    pub slowdown_p50: Option<f64>,
    /// 99th-percentile slowdown.
    pub slowdown_p99: Option<f64>,
}

/// Outcome of one streaming run.
#[derive(Debug)]
pub struct MillionStats {
    /// Flows whose receiver held the full stream (the generator's stop
    /// criterion).
    pub completed: u64,
    /// Flows fully retired (receiver *and* sender done, nothing left in
    /// flight, state freed). Trails `completed` by the flows whose FIN
    /// ack, or an ACK a TFC delay arbiter held, was still in flight when
    /// the target tripped.
    pub retired: u64,
    /// Flows the generator started.
    pub started: u64,
    /// Arrivals shed by the open-loop valve.
    pub shed: u64,
    /// Simulated time consumed (ns).
    pub sim_ns: u64,
    /// Scheduler events processed.
    pub events: u64,
    /// Flows still live at shutdown.
    pub slab_live: usize,
    /// Peak concurrently-live flows.
    pub slab_peak: usize,
    /// Flow-slab slots ever created (resident-memory proxy). A retired
    /// flow's slot and id are reused at once, so this equals
    /// `slab_peak`, not `retired`.
    pub slab_capacity: usize,
    /// Endpoint-record slots: the peak number of flows with live
    /// endpoints. A record is freed, and its slot reused, once nothing
    /// can reach its flow, and the flow retires before the next event;
    /// the stream starts flows only from its timer events, so this
    /// equals `slab_peak`.
    pub endpoint_capacity: usize,
    /// Peak entries the event queue held, live or cancelled (re-armed
    /// timers reuse their queued entry, so this tracks live events).
    pub sched_peak_queued: usize,
    /// Packet-arena high-water mark (slots ever created).
    pub arena_capacity: usize,
    /// Packets ever allocated through the arena.
    pub arena_allocated: u64,
    /// Switch drops.
    pub drops: u64,
    /// Per-class FCT reports.
    pub classes: Vec<ClassReport>,
}

fn slowdown_q(s: &QuantileSketch, q: f64) -> Option<f64> {
    s.quantile(q).map(|v| v / simnet::retire::SLOWDOWN_SCALE)
}

/// Runs one streaming configuration to its completion target.
pub fn run(cfg: &MillionConfig) -> MillionStats {
    let proto_cfg = ProtoConfig::ten_gig();
    let (builder, hosts, _) = leaf_spine(
        cfg.leaves,
        cfg.hosts_per_leaf,
        Bandwidth::gbps(10),
        Bandwidth::gbps(40),
        Dur::micros(20),
    );
    let net = proto_cfg.build_net(cfg.proto, builder);
    let app = StreamApp::new(cfg.stream(hosts));
    let mut sim = Simulator::new(
        net,
        proto_cfg.stack(cfg.proto),
        app,
        SimConfig {
            seed: cfg.seed,
            retire: Some(cfg.retire()),
            telemetry: cfg.telemetry.clone(),
            ..Default::default()
        },
    );
    sim.run();
    crate::artifacts::maybe_export(
        sim.core(),
        format!("leaf_spine({},{})", cfg.leaves, cfg.hosts_per_leaf),
        format!("{cfg:?}"),
    );

    let core = sim.core();
    let retirer = core.retirer().expect("streaming run retires flows");
    let classes = retirer
        .classes()
        .iter()
        .map(|c| ClassReport {
            name: c.name.clone(),
            count: c.count,
            sketch: FctSummary::from_sketch(&c.fct_ns),
            exact: c.exact.summary(),
            fct_sketch: c.fct_ns.clone(),
            exact_fct_ns: c
                .exact
                .records()
                .iter()
                .map(|r| r.fct_ns() as f64)
                .collect(),
            slowdown_p50: slowdown_q(&c.slowdown_milli, 0.5),
            slowdown_p99: slowdown_q(&c.slowdown_milli, 0.99),
        })
        .collect();
    let (slab_live, slab_peak, slab_capacity) = core.flow_slab_stats();
    let arena = core.packet_arena();
    MillionStats {
        completed: sim.app().completed(),
        retired: retirer.total(),
        started: sim.app().started(),
        shed: sim.app().shed(),
        sim_ns: core.now().nanos(),
        events: core.events_processed(),
        slab_live,
        slab_peak,
        slab_capacity,
        endpoint_capacity: core.endpoint_table_capacity(),
        sched_peak_queued: core.event_queue().peak_queued(),
        arena_capacity: arena.capacity(),
        arena_allocated: arena.allocated_total(),
        drops: core.total_drops(),
        classes,
    }
}

/// Asserts every sketch quantile of every populated class sits within
/// `2·alpha` (relative) of the exact oracle value at the same rank.
/// Requires a run made with [`RetireConfig::keep_exact`]; returns the
/// checked class count.
///
/// The oracle uses the sketch's own floor-rank convention
/// (`sorted[floor(q·(n−1))]`): that is the order statistic the sketch's
/// α-relative-error guarantee is stated against, so the bound holds
/// deterministically at any sample count. Interpolating percentile
/// conventions disagree by the gap between adjacent order statistics,
/// which a heavy-tailed FCT distribution makes arbitrarily large.
///
/// # Panics
///
/// Panics if the run kept no exact records or a quantile falls outside
/// the bound.
pub fn assert_sketch_matches_exact(stats: &MillionStats, alpha: f64) -> usize {
    let mut checked = 0;
    for c in &stats.classes {
        if c.count == 0 {
            continue;
        }
        assert!(
            !c.exact_fct_ns.is_empty(),
            "{}: oracle run must keep exact records",
            c.name
        );
        assert_eq!(
            c.exact_fct_ns.len() as u64,
            c.count,
            "{}: counts diverge",
            c.name
        );
        let mut sorted = c.exact_fct_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite FCTs"));
        // Mean is tracked exactly (running sum), so it must agree to
        // floating-point precision, not just within α.
        let exact_mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let sketch_mean = c.fct_sketch.mean().expect("non-empty class sketch");
        assert!(
            (sketch_mean - exact_mean).abs() / exact_mean < 1e-9,
            "{}: sketch mean {sketch_mean} vs exact {exact_mean}",
            c.name
        );
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let want = sorted[(q * (sorted.len() - 1) as f64).floor() as usize];
            let got = c.fct_sketch.quantile(q).expect("non-empty class sketch");
            assert!(
                (got - want).abs() / want <= 2.0 * alpha,
                "{}: sketch q{q} {got} vs exact {want} beyond 2α",
                c.name
            );
        }
        checked += 1;
    }
    assert!(checked > 0, "no class had both sketch and exact records");
    checked
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle configuration at reduced scale: retirement on with
    /// exact records kept, so the 2α agreement check runs against the
    /// very same flows the sketches saw.
    #[test]
    fn oracle_run_validates_sketches_and_bounds_slab() {
        let cfg = MillionConfig::oracle();
        let stats = run(&cfg);
        assert!(
            stats.completed >= cfg.target_flows,
            "completed {}",
            stats.completed
        );
        // All but the flows with an ACK still in flight retired through
        // sketches.
        assert!(
            stats.retired >= cfg.target_flows * 95 / 100,
            "retired {} of {} completed",
            stats.retired,
            stats.completed
        );
        assert_eq!(assert_sketch_matches_exact(&stats, cfg.alpha), 2);
        // Bounded memory: retired ids are reused at once, so the slab
        // is exactly as large as peak concurrency.
        assert_eq!(stats.slab_capacity, stats.slab_peak);
        // The endpoint records and the scheduler are bounded too.
        assert_eq!(stats.endpoint_capacity, stats.slab_peak);
        assert!(
            stats.sched_peak_queued <= SCHED_ENTRIES_PER_LIVE_FLOW * stats.slab_peak,
            "{} queued entries for {} peak live flows",
            stats.sched_peak_queued,
            stats.slab_peak
        );
        // Both classes saw traffic, mice dominating.
        assert!(stats.classes[0].count > stats.classes[1].count);
        assert!(stats.classes[1].count > 0, "web-search class starved");
    }

    #[test]
    fn same_seed_same_outcome() {
        let cfg = MillionConfig {
            target_flows: 1_500,
            ..MillionConfig::oracle()
        };
        let (a, b) = (run(&cfg), run(&cfg));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.retired, b.retired);
        assert_eq!(a.started, b.started);
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.events, b.events);
        assert_eq!(a.slab_capacity, b.slab_capacity);
        assert_eq!(a.arena_allocated, b.arena_allocated);
    }
}

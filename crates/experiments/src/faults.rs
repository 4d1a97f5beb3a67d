//! Chaos suite — recovery under injected faults (§4.2/§4.3 dynamics).
//!
//! A star topology with `senders` backlogged flows into one receiver;
//! one scripted fault strikes mid-run. The *victim* scenarios (host
//! stall, access-link flap) silence one sender without FIN — exactly
//! the case TFC's rho counter exists for: the switch must notice the
//! silent flow within two time slots, reclaim its tokens, and hand the
//! freed window to the survivors, while drop-tail TCP's survivors must
//! grow their windows additively. The *bottleneck* scenarios (rate
//! dip, loss burst, policy reset) stress everyone's recovery machinery
//! on the shared link instead.
//!
//! Recovery is judged on the aggregate delivery rate: depth of the dip
//! below the pre-fault baseline, and time from fault clear until the
//! rate is back to 90 % of baseline (see [`chaos::recovery`]).

use std::path::PathBuf;

use chaos::recovery::{self, DipSummary};
use chaos::FaultTimeline;
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::{LogMode, TelemetryConfig, TraceEvent};
use workloads::{OnOffApp, OnOffFlow};

use crate::proto::{Proto, ProtoConfig};

/// The standard chaos scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// One sender goes silent without FIN, then resumes (§4.3).
    HostStall,
    /// One sender's access link flaps down and back up.
    LinkFlap,
    /// The bottleneck link renegotiates down to 100 Mbps, then back.
    RateDip,
    /// A bursty loss window on the bottleneck egress port.
    LossBurst,
    /// Control-plane reboot wipes the bottleneck port's policy state.
    PolicyReset,
}

impl Scenario {
    /// Every scenario, in suite order.
    pub const ALL: [Scenario; 5] = [
        Scenario::HostStall,
        Scenario::LinkFlap,
        Scenario::RateDip,
        Scenario::LossBurst,
        Scenario::PolicyReset,
    ];

    /// Whether the fault silences one sender (vs. degrading the shared
    /// bottleneck). Victim scenarios are judged on how fast the
    /// *surviving* flows absorb the freed capacity.
    pub fn is_victim(self) -> bool {
        matches!(self, Scenario::HostStall | Scenario::LinkFlap)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::HostStall => "host-stall",
            Scenario::LinkFlap => "link-flap",
            Scenario::RateDip => "rate-dip",
            Scenario::LossBurst => "loss-burst",
            Scenario::PolicyReset => "policy-reset",
        }
    }
}

/// Chaos-run parameters.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    /// Protocol under test.
    pub proto: Proto,
    /// Which fault strikes.
    pub scenario: Scenario,
    /// Backlogged senders sharing the bottleneck.
    pub senders: usize,
    /// Total run time.
    pub horizon: Dur,
    /// When the fault is injected.
    pub fault_at: Dur,
    /// How long it lasts (ignored by `PolicyReset`, which is a point
    /// event).
    pub fault_dur: Dur,
    /// Bin width for the aggregate delivery rate (dip measurement).
    pub bin: Dur,
    /// Per-link propagation delay.
    pub link_delay: Dur,
    /// Protocol knobs.
    pub proto_cfg: ProtoConfig,
    /// RNG seed (also seeds the loss-window draws).
    pub seed: u64,
    /// Structured telemetry. The dip metrics need the event log, so
    /// the constructors enable it; export stays off unless set.
    pub telemetry: TelemetryConfig,
}

impl FaultsConfig {
    /// Defaults sized so TCP's additive-increase recovery is visibly
    /// slower than TFC's token reclamation, but runs stay fast.
    pub fn scaled(proto: Proto, scenario: Scenario) -> Self {
        Self {
            proto,
            scenario,
            senders: 4,
            horizon: Dur::millis(80),
            fault_at: Dur::millis(20),
            fault_dur: Dur::millis(10),
            bin: Dur::micros(500),
            link_delay: Dur::nanos(500),
            proto_cfg: ProtoConfig::default(),
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
    /// Profiling stays off so identical runs export byte-identical
    /// artifacts (wall-clock nanos are not deterministic).
    pub fn exporting(proto: Proto, scenario: Scenario, run: impl Into<String>) -> Self {
        let mut cfg = Self::scaled(proto, scenario);
        cfg.telemetry.export = Some(run.into());
        cfg
    }

    /// When the fault stops acting (equals the injection time for the
    /// point-event `PolicyReset`).
    pub fn fault_end(&self) -> Time {
        match self.scenario {
            Scenario::PolicyReset => Time(self.fault_at.as_nanos()),
            _ => Time(self.fault_at.as_nanos() + self.fault_dur.as_nanos()),
        }
    }
}

/// Outcome of one chaos run.
#[derive(Debug)]
pub struct FaultsResult {
    /// Protocol under test.
    pub proto: Proto,
    /// Which fault struck.
    pub scenario: Scenario,
    /// Injection time, ns.
    pub fault_start_ns: u64,
    /// Clear time, ns.
    pub fault_end_ns: u64,
    /// Aggregate-goodput dip around the fault window. Beware the queue
    /// mask: the bottleneck's backlog keeps serving a silenced victim's
    /// stale packets, so the aggregate barely dips for victim faults —
    /// use [`Self::survivor_rise_ns`] for those.
    pub dip: Option<DipSummary>,
    /// For victim scenarios only: time from fault injection until the
    /// surviving flows' aggregate goodput sustainedly reaches 90 % of
    /// the link's payload capacity (§4.3 — how fast the victim's tokens
    /// are reclaimed and re-shared). `None` for bottleneck scenarios or
    /// when the survivors never get there.
    pub survivor_rise_ns: Option<u64>,
    /// Time from fault clear to the first TFC window (re-)acquisition
    /// (`None` for non-TFC runs or when none happened).
    pub reacquire_ns: Option<u64>,
    /// Total bytes delivered over the run.
    pub delivered: u64,
    /// Packets lost to the fault itself, across the switch's ports and
    /// the victim's NIC (a flapped access link loses packets at both
    /// ends).
    pub fault_drops: u64,
    /// Ordinary queue-overflow drops at the switch, for telling fault
    /// loss apart from congestion loss.
    pub queue_drops: u64,
    /// Artifact directory when export was configured.
    pub export_dir: Option<PathBuf>,
}

/// Runs one protocol through one chaos scenario.
pub fn run(cfg: &FaultsConfig) -> FaultsResult {
    assert!(cfg.senders >= 2, "need survivors to measure recovery");
    let (t, hosts, sw) = star(cfg.senders + 1, Bandwidth::gbps(1), cfg.link_delay);
    let receiver = hosts[cfg.senders];
    let victim = hosts[0];
    let net = cfg.proto_cfg.build_net(cfg.proto, t);
    let horizon = cfg.horizon.as_nanos();
    let flows_cfg: Vec<OnOffFlow> = hosts[..cfg.senders]
        .iter()
        .map(|&src| OnOffFlow {
            src,
            dst: receiver,
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
    let port = sim
        .core()
        .route_of(sw, receiver)
        .expect("route to receiver");
    let at = Time(cfg.fault_at.as_nanos());
    let dur = cfg.fault_dur;
    let timeline = match cfg.scenario {
        Scenario::HostStall => FaultTimeline::new().host_stall(at, dur, victim),
        Scenario::LinkFlap => FaultTimeline::new().link_flap(at, dur, victim, 0),
        Scenario::RateDip => FaultTimeline::new().rate_dip(
            at,
            dur,
            sw,
            port,
            Bandwidth::mbps(100),
            Bandwidth::gbps(1),
        ),
        Scenario::LossBurst => FaultTimeline::new().loss_burst(at, dur, sw, port, 100),
        Scenario::PolicyReset => FaultTimeline::new().policy_reset(at, sw, port),
    };
    timeline.install(sim.core_mut());
    sim.run();
    let export_dir = crate::artifacts::maybe_export(
        sim.core(),
        format!("star(n={})", cfg.senders + 1),
        format!("{cfg:?}"),
    );

    let fault_start_ns = at.nanos();
    let fault_end_ns = cfg.fault_end().nanos();
    let victim_flow = sim.app().flow_ids()[0];
    let mut deliveries = Vec::new();
    let mut survivor_deliveries = Vec::new();
    let mut acquired = Vec::new();
    for rec in sim.core().telemetry().log.records() {
        match rec.event {
            TraceEvent::PktDeliver { flow, bytes, .. } => {
                deliveries.push((rec.at_ns, bytes));
                if flow != victim_flow.0 {
                    survivor_deliveries.push((rec.at_ns, bytes));
                }
            }
            TraceEvent::FlowWindowAcquired { .. } => acquired.push(rec.at_ns),
            _ => {}
        }
    }
    let dip = recovery::goodput_dip(
        &deliveries,
        fault_start_ns,
        fault_end_ns,
        cfg.bin.as_nanos(),
    );
    let survivor_rise_ns = if cfg.scenario.is_victim() {
        // Payload capacity of the 1 Gbps bottleneck (goodput excludes
        // headers); sustain 4 bins so the queue-mask mirage — the
        // victim's already-queued packets draining after the fault —
        // can't fake an instant recovery.
        let payload_cap = Bandwidth::gbps(1).as_bps() as f64 * (1460.0 / 1500.0);
        recovery::rise_time_ns(
            &survivor_deliveries,
            fault_start_ns,
            0.9 * payload_cap,
            cfg.bin.as_nanos(),
            4,
        )
    } else {
        None
    };
    let (mut fault_drops, mut queue_drops) = (sim.core().port_stats(victim, 0).fault_drops, 0);
    for p in 0..=cfg.senders {
        let stats = sim.core().port_stats(sw, p);
        fault_drops += stats.fault_drops;
        queue_drops += stats.drops;
    }
    FaultsResult {
        proto: cfg.proto,
        scenario: cfg.scenario,
        fault_start_ns,
        fault_end_ns,
        dip,
        survivor_rise_ns,
        reacquire_ns: recovery::time_to_first_after(&acquired, fault_end_ns),
        delivered: sim.core().flows().map(|(_, st)| st.delivered).sum(),
        fault_drops,
        queue_drops,
        export_dir,
    }
}

/// Runs the full scenario suite for one protocol.
pub fn run_suite(proto: Proto, seed: u64) -> Vec<FaultsResult> {
    Scenario::ALL
        .iter()
        .map(|&scenario| {
            let mut cfg = FaultsConfig::scaled(proto, scenario);
            cfg.seed = seed;
            run(&cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(proto: Proto, scenario: Scenario) -> FaultsResult {
        run(&FaultsConfig::scaled(proto, scenario))
    }

    /// §4.3: a silently stalled sender costs TFC at most a couple of
    /// time slots — rho notices the silence, the tokens are reclaimed,
    /// and the survivors' RMA stamps grow within the next round. TCP's
    /// survivors must discover the freed capacity by additive increase
    /// behind a draining drop-tail queue.
    #[test]
    fn tfc_recovers_from_host_stall_faster_than_tcp() {
        let tfc = result(Proto::Tfc, Scenario::HostStall);
        let tcp = result(Proto::Tcp, Scenario::HostStall);
        let tfc_rise = tfc.survivor_rise_ns.expect("TFC survivors reach capacity");
        // Two token slots are ~320 µs; one 500 µs bin of rounding on top.
        assert!(
            tfc_rise <= 1_000_000,
            "TFC survivors took {tfc_rise} ns to absorb the freed capacity"
        );
        match tcp.survivor_rise_ns {
            None => {} // TCP survivors never sustained capacity — strictly slower.
            Some(tcp_rise) => assert!(
                tfc_rise < tcp_rise,
                "TFC survivors rose in {tfc_rise} ns, TCP in {tcp_rise} ns"
            ),
        }
    }

    #[test]
    fn tfc_recovers_from_link_flap_faster_than_tcp() {
        let tfc = result(Proto::Tfc, Scenario::LinkFlap);
        let tcp = result(Proto::Tcp, Scenario::LinkFlap);
        let tfc_rise = tfc.survivor_rise_ns.expect("TFC survivors reach capacity");
        assert!(
            tfc_rise <= 1_000_000,
            "TFC survivors took {tfc_rise} ns to absorb the freed capacity"
        );
        match tcp.survivor_rise_ns {
            None => {}
            Some(tcp_rise) => assert!(
                tfc_rise < tcp_rise,
                "TFC survivors rose in {tfc_rise} ns, TCP in {tcp_rise} ns"
            ),
        }
        // The victim's one-packet window may sit wholly in its own NIC
        // when the link dies (it does here: every loss, the segment and
        // the probes that resend it, is at the NIC), so the count takes
        // both ends of the link.
        assert!(tfc.fault_drops > 0, "a flapped access link loses packets");
    }

    #[test]
    fn policy_reset_is_survivable_for_tfc() {
        let r = result(Proto::Tfc, Scenario::PolicyReset);
        // The port re-learns its state from live traffic; goodput must
        // come back within the horizon.
        let dip = r.dip.expect("baseline exists");
        assert!(dip.recovery_ns.is_some(), "TFC re-learns after a reset");
        assert!(r.delivered > 0);
    }

    /// A 10 ms burst dropping 1 in 100 packets at the bottleneck: TFC's
    /// one-packet windows never collect three duplicate ACKs, so without
    /// the tail-loss probe every loss waited for the 200 ms min-RTO and
    /// goodput never came back inside the 80 ms horizon (2,480,540 B
    /// delivered, 5 fault drops). With it the dip recovers within a
    /// 500 us bin of the burst's end. TFC's fault drops rise to 77
    /// because its senders keep sending through the lossy window
    /// instead of stalling behind an RTO. (Under a 4-MSS cold start with
    /// no handshake pipe: 9,481,240 B and 73 drops; the first rounds
    /// set the flows' phase at the burst.) DCTCP and TCP never probe:
    /// they deliver exactly what they did without it.
    #[test]
    fn tfc_recovers_from_loss_burst() {
        let tfc = result(Proto::Tfc, Scenario::LossBurst);
        let dip = tfc.dip.expect("baseline exists");
        let recovery = dip.recovery_ns.expect("TFC recovers inside the horizon");
        assert!(recovery <= 1_000_000, "TFC took {recovery} ns to recover");
        assert_eq!((tfc.delivered, tfc.fault_drops), (9_577_600, 77));
        assert_eq!(
            result(Proto::Dctcp, Scenario::LossBurst).delivered,
            2_546_240
        );
        assert_eq!(result(Proto::Tcp, Scenario::LossBurst).delivered, 3_032_420);
    }

    #[test]
    fn suite_covers_every_scenario() {
        let results = run_suite(Proto::Tfc, 3);
        assert_eq!(results.len(), Scenario::ALL.len());
        for r in &results {
            assert!(r.delivered > 0, "{}: nothing delivered", r.scenario.label());
        }
    }

    /// Identical seed + identical timeline ⇒ identical outcome.
    #[test]
    fn chaos_runs_are_deterministic() {
        let a = result(Proto::Tfc, Scenario::LossBurst);
        let b = result(Proto::Tfc, Scenario::LossBurst);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.fault_drops, b.fault_drops);
        assert_eq!(a.dip.map(|d| d.recovery_ns), b.dip.map(|d| d.recovery_ns));
    }
}

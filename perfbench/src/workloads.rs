//! The benchmark's three workloads and one measured repetition of each.
//!
//! Every workload runs TFC on the production default configuration
//! (`SimConfig::default()`: the timing wheel, one thread) and generates
//! all of its inputs from the seed: the flow matrix, the simulator seed
//! (which drives `StreamApp` arrivals and the fault RNG) and the fault
//! timeline.

use std::path::Path;
use std::time::Instant;

use chaos::FaultTimeline;
use metrics::QuantileSketch;
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simnet::app::{Application, FlowEvent};
use simnet::endpoint::{FlowSpec, ProtocolStack};
use simnet::event::Event;
use simnet::node::Node;
use simnet::retire::RetireConfig;
use simnet::sim::{SimApi, SimConfig, SimCore, Simulator};
use simnet::topology::{fat_tree, leaf_spine, star, TopologyBuilder};
use simnet::units::{Bandwidth, Dur, Time};
use simnet::{NodeId, SchedulerKind};
use telemetry::{LogMode, TelemetryConfig, TraceConfig};
use tfc::{TfcStack, TfcSwitchConfig, TfcSwitchPolicy};
use workloads::dist::{background_flow_sizes, cache_follower_flow_sizes};
use workloads::{IncastApp, IncastConfig, StreamApp, StreamClass, StreamConfig};

use crate::bare_app;
use crate::timed::{timed_tfc_factory, AppView, LayerTallies, Sink, TimedApp, TimedStack};

/// Number of event kinds the simulator's loop counts.
pub const KINDS: usize = Event::KIND_NAMES.len();

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: sized flows on the k-ary ECMP fat-tree.
    FatTree,
    /// Open loop: Poisson RPC arrivals on the §6.2.2 leaf-spine.
    Stream,
    /// Closed loop: barrier-synchronised incast under a fault timeline.
    Incast,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::FatTree, Workload::Stream, Workload::Incast];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FatTree => "fat_tree_k36",
            Workload::Stream => "leaf_spine_stream",
            Workload::Incast => "incast_chaos",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The workload's own configuration, no wrappers: host time is
    /// measured on this pass.
    Plain,
    /// Timing wrappers around every layer plus the `LoopStats` profile.
    Traced,
    /// `Plain` on `SchedulerKind::RefHeap`.
    RefHeap,
    /// `Plain` with `TelemetryConfig::off()`.
    TelemetryOff,
}

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Fat-tree arity.
    pub fat_tree_k: usize,
    /// Sized flows started on the fat-tree.
    pub fat_tree_flows: usize,
    /// Completed flows the stream runs to.
    pub stream_target: u64,
    /// Incast senders.
    pub incast_senders: usize,
    /// Incast rounds.
    pub incast_rounds: u32,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        fat_tree_k: 36,
        fat_tree_flows: 1_100,
        stream_target: 60_000,
        incast_senders: 120,
        incast_rounds: 100,
    };
}

/// Host seconds per phase of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Topology constructor (`fat_tree`/`leaf_spine`/`star`).
    pub ctor: f64,
    /// `TopologyBuilder::build`: ports, route fill, policies.
    pub build: f64,
    /// `Simulator::new`.
    pub new: f64,
    /// All `start_flow` calls made before the loop.
    pub start_flow: f64,
    /// Number of those calls.
    pub start_flow_calls: u64,
    /// `FaultTimeline::install`.
    pub install: f64,
    /// `Simulator::run`.
    pub run: f64,
    /// `experiments::artifacts::maybe_export`.
    pub export: f64,
    /// Dropping the simulator.
    pub teardown: f64,
}

impl Phases {
    /// Host time before the first event.
    pub fn setup(&self) -> f64 {
        self.ctor + self.build + self.new + self.start_flow + self.install
    }

    /// Host time for the whole workload: set-up, loop, export and
    /// teardown.
    pub fn wall(&self) -> f64 {
        self.setup() + self.run + self.export + self.teardown
    }
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64();
    r
}

/// What a run computed; two runs of the same inputs must agree on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Events processed.
    pub events: u64,
    /// Payload bytes delivered in order, live and retired flows.
    pub delivered: u64,
    /// Simulated end time, ns.
    pub end_ns: u64,
}

/// Simulated outcome of one repetition (deterministic for a seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Flow arrivals: flows started plus arrivals shed.
    pub attempted: u64,
    /// Flows whose receiver got the whole stream.
    pub completed: u64,
    /// Completions the workload requires to pass.
    pub required: u64,
    /// Median FCT, µs.
    pub fct_p50_us: f64,
    /// 99th-percentile FCT, µs.
    pub fct_p99_us: f64,
    /// FCT samples the percentiles were taken over.
    pub fct_samples: u64,
    /// Payload delivered per simulated second, Gb/s.
    pub goodput_gbps: f64,
    /// Largest switch-port backlog seen, KiB.
    pub max_queue_kb: f64,
    /// Queue-overflow drops at switch ports.
    pub queue_drops: u64,
    /// Packets handed to the fabric (every arena allocation).
    pub packets: u64,
    /// RTO fires over flows still held in the flow table.
    pub timeouts: u64,
}

/// Per-layer counts of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Nodes in the built network.
    pub nodes: u64,
    /// Full-duplex links in the built network.
    pub links: u64,
    /// Events handled per kind (`Event::KIND_NAMES` order).
    pub events: [u64; KINDS],
    /// Profiled handler nanoseconds per kind (traced pass only).
    pub handler_nanos: [u64; KINDS],
    /// Flows retired into sketches.
    pub retired: u64,
    /// Peak live flows in the flow slab.
    pub slab_peak: u64,
    /// Flow-slab slots ever created.
    pub slab_capacity: u64,
    /// Packet-arena slots ever created.
    pub arena_capacity: u64,
    /// Packets ever allocated in the arena.
    pub arena_allocated: u64,
    /// Packets lost to injected faults at switch ports.
    pub fault_drops: u64,
    /// Packets dropped for want of a route.
    pub no_route_drops: u64,
    /// Retransmitted packets, live and retired flows.
    pub retransmits: u64,
    /// Bytes of the exported artifact bundle (0 without export).
    pub export_bytes: u64,
    /// Wrapper tallies (traced pass only).
    pub tallies: LayerTallies,
}

/// One measured repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host time per phase.
    pub phases: Phases,
    /// The run's digest.
    pub digest: Digest,
    /// Simulated outcome.
    pub outcome: Outcome,
    /// Per-layer counts.
    pub layers: Layers,
    /// The workload's correctness checks.
    pub check: Result<(), String>,
}

/// Runs one repetition of `workload` on the inputs `seed` generates.
pub fn run(workload: Workload, seed: u64, sizes: &Sizes, pass: Pass) -> Rep {
    match workload {
        Workload::FatTree => fat_tree_k36(seed, sizes, pass),
        Workload::Stream => leaf_spine_stream(seed, sizes, pass),
        Workload::Incast => incast_chaos(seed, sizes, pass),
    }
}

/// Everything a workload hands the common executor.
struct Plan {
    builder: TopologyBuilder,
    label: String,
    flows: Vec<FlowSpec>,
    timeline: FaultTimeline,
    telemetry: TelemetryConfig,
    retire: Option<RetireConfig>,
    seed: u64,
    /// Flow completions the run must reach.
    required: u64,
}

/// A workload's own view of a finished run: fills the workload-specific
/// parts of the outcome and returns its correctness verdict.
type Check<A> = fn(&A, &SimCore, &mut Outcome) -> Result<(), String>;

fn execute<A: AppView<Inner = A>>(
    phases: Phases,
    plan: Plan,
    app: A,
    pass: Pass,
    check: Check<A>,
) -> Rep {
    if pass == Pass::Traced {
        execute_with(phases, plan, TimedApp::new(app), pass, check)
    } else {
        execute_with(phases, plan, app, pass, check)
    }
}

fn execute_with<D: AppView>(
    mut ph: Phases,
    mut plan: Plan,
    app: D,
    pass: Pass,
    check: Check<D::Inner>,
) -> Rep {
    let sink: Option<Sink> = (pass == Pass::Traced).then(Sink::default);
    let switch_cfg = TfcSwitchConfig::default();
    let builder = std::mem::take(&mut plan.builder);
    let net = timed(&mut ph.build, || match &sink {
        Some(s) => builder.build(timed_tfc_factory(switch_cfg, s.clone())),
        None => builder.build(TfcSwitchPolicy::factory(switch_cfg)),
    });
    let mut layers = Layers {
        nodes: net.nodes.len() as u64,
        ..Layers::default()
    };
    let mut ports: Vec<(NodeId, usize)> = Vec::new();
    let mut port_ends = 0u64;
    for node in &net.nodes {
        match node {
            Node::Host(_) => port_ends += 1,
            Node::Switch(sw) => {
                ports.push((sw.id, sw.ports.len()));
                port_ends += sw.ports.len() as u64;
            }
        }
    }
    layers.links = port_ends / 2;
    let stack: Box<dyn ProtocolStack> = match &sink {
        Some(s) => Box::new(TimedStack::new(Box::new(TfcStack::default()), s.clone())),
        None => Box::new(TfcStack::default()),
    };
    let telemetry = match pass {
        Pass::Plain | Pass::RefHeap => plan.telemetry.clone(),
        Pass::Traced => TelemetryConfig {
            profile: true,
            ..plan.telemetry.clone()
        },
        Pass::TelemetryOff => TelemetryConfig::off(),
    };
    let cfg = SimConfig {
        seed: plan.seed,
        telemetry,
        retire: plan.retire.clone(),
        scheduler: match pass {
            Pass::RefHeap => SchedulerKind::RefHeap,
            _ => SimConfig::default().scheduler,
        },
        ..SimConfig::default()
    };
    let mut sim = timed(&mut ph.new, || Simulator::new(net, stack, app, cfg));
    for spec in std::mem::take(&mut plan.flows) {
        timed(&mut ph.start_flow, || sim.core_mut().start_flow(spec));
        ph.start_flow_calls += 1;
    }
    timed(&mut ph.install, || plan.timeline.install(sim.core_mut()));
    timed(&mut ph.run, || sim.run());
    let dir = timed(&mut ph.export, || {
        experiments::artifacts::maybe_export(sim.core(), plan.label.as_str(), "perfbench")
    });
    layers.export_bytes = dir.as_deref().map_or(0, dir_bytes);

    let core = sim.core();
    let mut outcome = Outcome {
        required: plan.required,
        ..Outcome::default()
    };
    let check_result = check(sim.app().inner(), core, &mut outcome).and_then(|()| {
        if outcome.completed < plan.required {
            return Err(format!(
                "{} of {} required flows completed",
                outcome.completed, plan.required
            ));
        }
        Ok(())
    });
    let digest = digest_and_layers(core, &ports, &mut outcome, &mut layers);
    let app_tally = sim.app().tally();
    timed(&mut ph.teardown, || drop(sim));
    if let Some(sink) = sink {
        layers.tallies = sink.lock().expect("wrappers never panic").clone();
        layers.tallies.app = app_tally;
    }
    Rep {
        phases: ph,
        digest,
        outcome,
        layers,
        check: check_result,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Fills the workload-independent outcome and layer counts.
fn digest_and_layers(
    core: &SimCore,
    ports: &[(NodeId, usize)],
    out: &mut Outcome,
    layers: &mut Layers,
) -> Digest {
    let mut delivered: u64 = core.flows().map(|(_, st)| st.delivered).sum();
    layers.retransmits = core.flows().map(|(_, st)| st.retransmits).sum();
    out.timeouts = core.flows().map(|(_, st)| st.timeouts).sum();
    if let Some(retirer) = core.retirer() {
        // Retired flows leave the table; their bytes, retransmits and
        // FCTs survive in the per-class sketches (sums are exact).
        let mut merged = QuantileSketch::new(retirer.config().alpha);
        for c in retirer.classes() {
            delivered += c.bytes.sum() as u64;
            layers.retransmits += c.retransmits.sum() as u64;
            merged.merge(&c.fct_ns);
        }
        layers.retired = retirer.total();
        out.fct_samples = merged.count();
        out.fct_p50_us = merged.quantile(0.5).unwrap_or(0.0) / 1e3;
        out.fct_p99_us = merged.quantile(0.99).unwrap_or(0.0) / 1e3;
    } else {
        let mut fct_ns: Vec<u64> = core.fct().records().iter().map(|r| r.fct_ns()).collect();
        fct_ns.sort_unstable();
        out.fct_samples = fct_ns.len() as u64;
        out.fct_p50_us = rank(&fct_ns, 0.5) / 1e3;
        out.fct_p99_us = rank(&fct_ns, 0.99) / 1e3;
    }
    let end_ns = core.now().nanos();
    out.goodput_gbps = delivered as f64 * 8.0 / end_ns.max(1) as f64;
    let mut max_queue = 0;
    for &(sw, n) in ports {
        for p in 0..n {
            let st = core.port_stats(sw, p);
            max_queue = max_queue.max(st.max_queue_bytes);
            layers.fault_drops += st.fault_drops;
            layers.no_route_drops += st.no_route_drops;
        }
    }
    out.max_queue_kb = max_queue as f64 / 1024.0;
    out.queue_drops = core.total_drops();
    out.packets = core.packet_arena().allocated_total();
    let (_, peak, capacity) = core.flow_slab_stats();
    layers.slab_peak = peak as u64;
    layers.slab_capacity = capacity as u64;
    layers.arena_capacity = core.packet_arena().capacity() as u64;
    layers.arena_allocated = out.packets;
    for (i, (_, count, _, nanos)) in core.telemetry().loop_stats.rows().enumerate() {
        layers.events[i] = count;
        layers.handler_nanos[i] = nanos;
    }
    Digest {
        events: core.events_processed(),
        delivered,
        end_ns,
    }
}

/// Nearest-rank quantile of sorted samples.
fn rank(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx] as f64
}

/// Counts completions and stops the loop once all flows are done.
pub struct StopWhenDone {
    target: u64,
    completed: u64,
}

impl Application for StopWhenDone {
    fn start(&mut self, _api: &mut SimApi<'_>) {}

    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        if let FlowEvent::Completed(_) = ev {
            self.completed += 1;
            if self.completed == self.target {
                api.stop();
            }
        }
    }
}

bare_app!(StopWhenDone, StreamApp, IncastApp);

/// Every started flow delivered exactly `expect(flow)` bytes.
fn exact_delivery(core: &SimCore, expect: impl Fn(&FlowSpec) -> u64) -> Result<(), String> {
    for (id, st) in core.flows() {
        let want = expect(&st.spec);
        if st.delivered != want || st.receiver_done_at.is_none() {
            return Err(format!(
                "flow {} delivered {} of {want} bytes",
                id.0, st.delivered
            ));
        }
    }
    Ok(())
}

/// Closed loop: sized flows between seeded random host pairs on the
/// k-ary ECMP fat-tree, all started at t = 0; the run ends when the last
/// one completes.
fn fat_tree_k36(seed: u64, sizes: &Sizes, pass: Pass) -> Rep {
    let k = sizes.fat_tree_k;
    let n_hosts = k * k * k / 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let matrix: Vec<(usize, usize, u64)> = (0..sizes.fat_tree_flows)
        .map(|_| {
            let src = rng.gen_range(0..n_hosts);
            let mut dst = rng.gen_range(0..n_hosts - 1);
            if dst >= src {
                dst += 1;
            }
            (src, dst, rng.gen_range(20_000u64..400_000))
        })
        .collect();
    let mut ph = Phases::default();
    let (builder, hosts, _) = timed(&mut ph.ctor, || {
        fat_tree(k, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(5))
    });
    let flows = matrix
        .iter()
        .map(|&(s, d, b)| FlowSpec::sized(hosts[s], hosts[d], b))
        .collect();
    let plan = Plan {
        builder,
        label: format!("fat_tree(k={k})"),
        flows,
        timeline: FaultTimeline::new(),
        telemetry: TelemetryConfig::default(),
        retire: None,
        seed,
        required: sizes.fat_tree_flows as u64,
    };
    let app = StopWhenDone {
        target: sizes.fat_tree_flows as u64,
        completed: 0,
    };
    execute(ph, plan, app, pass, |app, core, out| {
        out.attempted = core.flows().count() as u64;
        out.completed = app.completed;
        exact_delivery(core, |spec| spec.bytes.unwrap_or(0))
    })
}

/// The stream's retirement pipeline: the two classes' FCT sketches.
fn stream_retire() -> RetireConfig {
    RetireConfig {
        // Host–leaf–spine–leaf–host and back at 20 µs per link.
        base_rtt: Dur::micros(170),
        line_rate: Bandwidth::gbps(10),
        classes: vec!["cache-follower".into(), "web-search".into()],
        ..RetireConfig::default()
    }
}

/// Open loop at a fixed offered rate (§6.2.2 traffic): Poisson
/// cache-follower mice and web-search background flows on the 18×20
/// leaf-spine until a completed-flow target.
fn leaf_spine_stream(seed: u64, sizes: &Sizes, pass: Pass) -> Rep {
    let mut ph = Phases::default();
    let (builder, hosts, _) = timed(&mut ph.ctor, || {
        leaf_spine(
            18,
            20,
            Bandwidth::gbps(10),
            Bandwidth::gbps(40),
            Dur::micros(20),
        )
    });
    let app = StreamApp::new(StreamConfig {
        hosts,
        classes: vec![
            StreamClass {
                name: "cache-follower".into(),
                mean_interarrival: Dur::nanos(1_100),
                sizes: cache_follower_flow_sizes(),
                weight: 1,
            },
            StreamClass {
                name: "web-search".into(),
                mean_interarrival: Dur::millis(1),
                sizes: background_flow_sizes(),
                weight: 1,
            },
        ],
        target_completed: Some(sizes.stream_target),
        horizon: None,
        max_active: 0,
    });
    let plan = Plan {
        builder,
        label: "leaf_spine(18,20)".into(),
        flows: Vec::new(),
        timeline: FaultTimeline::new(),
        telemetry: TelemetryConfig::default(),
        retire: Some(stream_retire()),
        seed,
        required: sizes.stream_target,
    };
    execute(ph, plan, app, pass, |app, core, out| {
        out.attempted = app.started() + app.shed();
        out.completed = app.completed();
        let retired = core.retirer().map_or(0, |r| r.total());
        let live = core.flow_slab_stats().0 as u64;
        if app.started() != retired + live {
            return Err(format!(
                "started {} != retired {retired} + live {live}",
                app.started()
            ));
        }
        Ok(())
    })
}

/// The incast star's per-port switch buffer.
const INCAST_BUFFER: u64 = 512 * 1024;
/// Bytes each sender returns per round.
const INCAST_BLOCK: u64 = 64 * 1024;

/// Closed loop: barrier-synchronised incast with fresh connections per
/// round on a 10 G star, under a seeded fault timeline (a 10 % loss
/// burst on the receiver downlink, a sender stall and a sender link
/// flap), with telemetry on the way figure and chaos runs use it.
fn incast_chaos(seed: u64, sizes: &Sizes, pass: Pass) -> Rep {
    let senders = sizes.incast_senders;
    let link_delay = Dur::micros(10);
    // Seeded fault placement: which senders fail and when (µs jitter).
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1ca5_7c4a);
    let stalled = 1 + rng.gen_range(0..senders);
    let flapped = 1 + rng.gen_range(0..senders);
    let mut at = |base_us: u64| Time(Dur::micros(base_us + rng.gen_range(0..1_000u64)).as_nanos());
    let (loss_at, stall_at, flap_at) = (at(2_000), at(9_000), at(16_000));

    let mut ph = Phases::default();
    let (mut builder, hosts, switch) = timed(&mut ph.ctor, || {
        star(senders + 1, Bandwidth::gbps(10), link_delay)
    });
    builder.switch_buffer(INCAST_BUFFER);
    let receiver = hosts[0];
    let request_delay =
        Dur(2 * Bandwidth::gbps(10).serialize(64).as_nanos() + 2 * link_delay.as_nanos());
    let app = IncastApp::new(IncastConfig {
        senders: hosts[1..].to_vec(),
        receiver,
        block_bytes: INCAST_BLOCK,
        rounds: sizes.incast_rounds,
        request_delay,
        fresh_per_round: true,
    });
    // `star` links host i to switch port i, so port 0 is the receiver's
    // downlink.
    let timeline = FaultTimeline::new()
        .loss_burst(loss_at, Dur::millis(1), switch, 0, 100)
        .host_stall(stall_at, Dur::millis(2), hosts[stalled])
        .link_flap(flap_at, Dur::millis(1), hosts[flapped], 0);
    let plan = Plan {
        builder,
        label: format!("star(n={})", senders + 1),
        flows: Vec::new(),
        timeline,
        telemetry: TelemetryConfig {
            events: LogMode::Ring(4096),
            sample_one_in: 1,
            tfc_gauges: true,
            profile: false,
            trace: TraceConfig::SampledFlows {
                permille: 16,
                seed: 9,
            },
            export: Some("perfbench-incast_chaos".into()),
        },
        retire: None,
        seed,
        required: u64::from(sizes.incast_rounds) * senders as u64,
    };
    execute(ph, plan, app, pass, |app, core, out| {
        let senders = (core.host_ids().len() - 1) as u64;
        out.attempted = core.flows().count() as u64;
        out.completed = core
            .flows()
            .filter(|(_, st)| st.receiver_done_at.is_some())
            .count() as u64;
        // Every round ran and each of its flows delivered one block, so
        // each round delivered senders × block bytes.
        if u64::from(app.rounds_done()) * senders != out.required || out.attempted != out.required {
            return Err(format!(
                "{} rounds done, {} flows started, {} required",
                app.rounds_done(),
                out.attempted,
                out.required
            ));
        }
        exact_delivery(core, |_| INCAST_BLOCK)
    })
}

//! Open-loop streaming workload: millions of short RPC flows in
//! O(active flows) memory.
//!
//! Unlike the closed-loop drivers in this crate (which start a fixed
//! flow population and wait for it), [`StreamApp`] models an *open*
//! system: each class draws Poisson arrivals at a fixed offered rate,
//! whether or not earlier flows have finished — the load does not slow
//! down because the fabric is congested, which is exactly the regime
//! the switch-assisted schemes are evaluated under.
//!
//! The future arrival list is never materialised. Each class keeps one
//! armed application timer whose token is the class index; when it
//! fires the app starts one flow (random source/destination pair, size
//! drawn from the class's empirical CDF), tags it with the class, and
//! re-arms the timer with the next exponential gap. The timing wheel
//! holds exactly one pending arrival per class at any instant, so a
//! billion-flow schedule costs the same resident memory as a ten-flow
//! one.
//!
//! Pair with [`simnet::sim::SimConfig::retire`]: completed flows retire
//! into per-class sketches and free their slab slots, which is what
//! keeps the *simulator* side O(active flows) too. The app itself holds
//! only per-class counters.

use metrics::PiecewiseCdf;
use rng::Rng;
use simnet::app::{Application, FlowEvent};
use simnet::endpoint::FlowSpec;
use simnet::packet::NodeId;
use simnet::sim::SimApi;
use simnet::units::Dur;

use crate::dist::{exp_interarrival, sample_size};

/// One traffic class of the open-loop mix.
#[derive(Debug, Clone)]
pub struct StreamClass {
    /// Class name (should match the retire config's class list).
    pub name: String,
    /// Mean Poisson interarrival gap of this class.
    pub mean_interarrival: Dur,
    /// Flow-size distribution.
    pub sizes: PiecewiseCdf,
    /// Transport weight tag for the class's flows.
    pub weight: u8,
}

/// Configuration of the open-loop generator.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Hosts to draw source/destination pairs from (uniformly, always
    /// distinct). Must hold at least two hosts.
    pub hosts: Vec<NodeId>,
    /// The traffic classes; class tag = index in this list.
    pub classes: Vec<StreamClass>,
    /// Stop the simulation once this many flows completed (`None` =
    /// run to the configured end time).
    pub target_completed: Option<u64>,
    /// Stop *launching* new flows at this simulated time (`None` =
    /// launch forever). In-flight flows still drain afterwards.
    pub horizon: Option<Dur>,
    /// Safety valve: shed (count, but do not start) arrivals while this
    /// many flows are in flight (0 = unlimited). An over-driven fabric
    /// otherwise accumulates unbounded active flows; a shed arrival
    /// keeps the open-loop clock honest — the next arrival is drawn
    /// from the same Poisson process.
    pub max_active: u64,
}

/// Per-class launch/completion counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Flows started.
    pub started: u64,
    /// Flows whose receiver got the full byte stream.
    pub completed: u64,
    /// Arrivals shed by the `max_active` valve.
    pub shed: u64,
}

/// The open-loop streaming workload driver.
#[derive(Debug)]
pub struct StreamApp {
    cfg: StreamConfig,
    counters: Vec<ClassCounters>,
    started_total: u64,
    completed_total: u64,
    launching: bool,
}

impl StreamApp {
    /// Builds the driver.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two hosts, no classes, or more than 256
    /// classes (the class tag is a `u8`).
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(cfg.hosts.len() >= 2, "need at least two hosts");
        assert!(!cfg.classes.is_empty(), "need at least one class");
        assert!(cfg.classes.len() <= 256, "class tag is a u8");
        let counters = vec![ClassCounters::default(); cfg.classes.len()];
        Self {
            cfg,
            counters,
            started_total: 0,
            completed_total: 0,
            launching: true,
        }
    }

    /// Per-class counters, indexed by class tag.
    pub fn class_counters(&self) -> &[ClassCounters] {
        &self.counters
    }

    /// Total flows started.
    pub fn started(&self) -> u64 {
        self.started_total
    }

    /// Total flows completed (receiver held the full stream).
    pub fn completed(&self) -> u64 {
        self.completed_total
    }

    /// Total arrivals shed by the `max_active` valve.
    pub fn shed(&self) -> u64 {
        self.counters.iter().map(|c| c.shed).sum()
    }

    /// Flows currently in flight (started minus completed).
    pub fn active(&self) -> u64 {
        self.started_total - self.completed_total
    }

    fn arm_next(&self, class: usize, api: &mut SimApi<'_>) {
        let gap = exp_interarrival(api.rng(), self.cfg.classes[class].mean_interarrival);
        api.set_timer(gap, class as u64);
    }

    fn launch(&mut self, class: usize, api: &mut SimApi<'_>) {
        if self.cfg.max_active > 0 && self.active() >= self.cfg.max_active {
            self.counters[class].shed += 1;
            return;
        }
        let n = self.cfg.hosts.len();
        let src = api.rng().gen_range(0..n);
        let mut dst = api.rng().gen_range(0..n - 1);
        if dst >= src {
            dst += 1;
        }
        let c = &self.cfg.classes[class];
        let bytes = sample_size(api.rng(), &c.sizes);
        let spec =
            FlowSpec::sized(self.cfg.hosts[src], self.cfg.hosts[dst], bytes).with_weight(c.weight);
        let flow = api.start_flow(spec);
        api.set_flow_class(flow, class as u8);
        self.counters[class].started += 1;
        self.started_total += 1;
    }
}

impl Application for StreamApp {
    fn start(&mut self, api: &mut SimApi<'_>) {
        for class in 0..self.cfg.classes.len() {
            self.arm_next(class, api);
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut SimApi<'_>) {
        let class = token as usize;
        if class >= self.cfg.classes.len() || !self.launching {
            return;
        }
        if let Some(h) = self.cfg.horizon {
            if api.now().nanos() >= h.as_nanos() {
                self.launching = false;
                return;
            }
        }
        self.launch(class, api);
        self.arm_next(class, api);
    }

    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        if let FlowEvent::Completed(flow) = ev {
            let class = api.flow(flow).class as usize;
            if let Some(c) = self.counters.get_mut(class) {
                c.completed += 1;
            }
            self.completed_total += 1;
            if let Some(target) = self.cfg.target_completed {
                if self.completed_total >= target {
                    api.stop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{background_flow_sizes, cache_follower_flow_sizes};
    use simnet::sim::{SimConfig, Simulator};
    use simnet::topology::star;
    use simnet::units::Bandwidth;
    use transport::TcpStack;

    fn two_class_cfg(hosts: Vec<NodeId>) -> StreamConfig {
        StreamConfig {
            hosts,
            classes: vec![
                StreamClass {
                    name: "web-search".into(),
                    mean_interarrival: Dur::micros(60),
                    sizes: cache_follower_flow_sizes(),
                    weight: 1,
                },
                StreamClass {
                    name: "background".into(),
                    mean_interarrival: Dur::micros(200),
                    sizes: background_flow_sizes(),
                    weight: 1,
                },
            ],
            target_completed: Some(300),
            horizon: None,
            max_active: 0,
        }
    }

    #[test]
    fn open_loop_reaches_target_and_counts_classes() {
        let (t, hosts, _hub) = star(8, Bandwidth::gbps(10), Dur::micros(2));
        let net = t.build_drop_tail();
        let app = StreamApp::new(two_class_cfg(hosts));
        let mut sim = Simulator::new(
            net,
            Box::new(TcpStack::default()),
            app,
            SimConfig {
                seed: 42,
                ..Default::default()
            },
        );
        sim.run();
        let app = sim.app();
        assert!(
            app.completed() >= 300,
            "target reached: {}",
            app.completed()
        );
        let per = app.class_counters();
        assert!(
            per[0].completed > 0 && per[1].completed > 0,
            "both classes ran"
        );
        assert_eq!(
            per.iter().map(|c| c.started).sum::<u64>(),
            app.started(),
            "per-class counters reconcile"
        );
    }

    #[test]
    fn max_active_valve_sheds_instead_of_accumulating() {
        let (t, hosts, _hub) = star(4, Bandwidth::mbps(10), Dur::micros(50));
        let net = t.build_drop_tail();
        let mut cfg = two_class_cfg(hosts);
        cfg.target_completed = None;
        cfg.horizon = Some(Dur::millis(30));
        cfg.max_active = 8;
        let app = StreamApp::new(cfg);
        let mut sim = Simulator::new(
            net,
            Box::new(TcpStack::default()),
            app,
            SimConfig {
                seed: 7,
                end: Some(simnet::units::Time(Dur::millis(60).as_nanos())),
                ..Default::default()
            },
        );
        sim.run();
        let app = sim.app();
        assert!(app.shed() > 0, "a slow fabric must shed arrivals");
        assert!(app.active() <= 8 + 2, "active flows stay near the valve");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (t, hosts, _hub) = star(6, Bandwidth::gbps(10), Dur::micros(2));
            let net = t.build_drop_tail();
            let app = StreamApp::new(two_class_cfg(hosts));
            let mut sim = Simulator::new(
                net,
                Box::new(TcpStack::default()),
                app,
                SimConfig {
                    seed: 9,
                    ..Default::default()
                },
            );
            sim.run();
            (
                sim.core().now().nanos(),
                sim.app().started(),
                sim.app().completed(),
            )
        };
        assert_eq!(run(), run());
    }
}

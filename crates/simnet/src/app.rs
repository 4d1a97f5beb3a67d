//! The application (workload driver) interface.

use crate::endpoint::FlowSpec;
use crate::packet::FlowId;
use crate::sim::SimApi;

/// Flow lifecycle notifications delivered to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowEvent {
    /// The connection handshake completed.
    Established(FlowId),
    /// In-order bytes reached the receiving application.
    Delivered {
        /// The flow.
        flow: FlowId,
        /// Newly delivered in-order payload bytes.
        bytes: u64,
    },
    /// A sized flow delivered its full byte count to the receiver.
    Completed(FlowId),
}

/// A workload driver: starts flows, reacts to their progress, and paces
/// itself with timers.
///
/// Exactly one application runs per simulation. All interaction with the
/// simulator goes through the [`SimApi`] handle.
pub trait Application: Send {
    /// Called once at simulation start.
    fn start(&mut self, api: &mut SimApi<'_>);

    /// Called when a timer armed via [`SimApi::set_timer`] fires.
    fn on_timer(&mut self, token: u64, api: &mut SimApi<'_>) {
        let _ = (token, api);
    }

    /// Called on flow lifecycle events.
    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        let _ = (ev, api);
    }
}

/// An application that does nothing; used when the experiment pre-starts
/// all flows imperatively.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullApp;

impl Application for NullApp {
    fn start(&mut self, _api: &mut SimApi<'_>) {}
}

/// An application that starts a fixed set of flows at given times.
///
/// Convenient for micro-benchmarks like Fig. 9 ("H1 and H2 establish 2
/// flows each at 3 s intervals").
pub struct StaticFlows {
    /// `(start_time_token, spec)` pairs; flows start at the given
    /// nanosecond timestamps.
    schedule: Vec<(u64, FlowSpec)>,
    /// Flow ids assigned at start, in schedule order.
    started: Vec<Option<FlowId>>,
}

impl StaticFlows {
    /// Creates a driver starting each `spec` at its `at_ns` timestamp.
    pub fn new(schedule: Vec<(u64, FlowSpec)>) -> Self {
        let n = schedule.len();
        Self {
            schedule,
            started: vec![None; n],
        }
    }

    /// Flow ids in schedule order (`None` until started).
    pub fn flow_ids(&self) -> &[Option<FlowId>] {
        &self.started
    }
}

impl Application for StaticFlows {
    fn start(&mut self, api: &mut SimApi<'_>) {
        for (i, (at, _)) in self.schedule.iter().enumerate() {
            api.set_timer_at(crate::units::Time(*at), i as u64);
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut SimApi<'_>) {
        let idx = token as usize;
        let spec = self.schedule[idx].1;
        self.started[idx] = Some(api.start_flow(spec));
    }
}

//! A discrete-event data-center network simulator.
//!
//! This crate is the substrate for the TFC reproduction: it plays the
//! role the authors' NetFPGA testbed and ns-2 platform play in the paper.
//! It models:
//!
//! * hosts with a single NIC output queue and per-flow transport
//!   endpoints (protocols plug in via [`endpoint::SenderEndpoint`] /
//!   [`endpoint::ReceiverEndpoint`]),
//! * output-queued, store-and-forward switches with byte-bounded FIFOs
//!   and a pluggable per-switch [`policy::SwitchPolicy`] (drop-tail, ECN
//!   marking, and — in the `tfc` crate — the TFC token engine),
//! * full-duplex links with a rate and a propagation delay,
//! * static shortest-path routing,
//! * a workload [`app::Application`] hook plus deterministic seeded
//!   randomness, queue sampling, and flow accounting.
//!
//! # Examples
//!
//! Build a two-host topology:
//!
//! ```
//! use tfc_simnet::topology::TopologyBuilder;
//! use tfc_simnet::units::{Bandwidth, Dur};
//!
//! let mut t = TopologyBuilder::new();
//! let h1 = t.host();
//! let h2 = t.host();
//! let s = t.switch();
//! t.link(h1, s, Bandwidth::gbps(1), Dur::micros(1));
//! t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
//! let net = t.build_drop_tail();
//! assert_eq!(net.hosts.len(), 2);
//! ```

pub mod app;
pub mod arena;
pub mod endpoint;
pub mod event;
pub mod fault;
mod flowtable;
mod handlers;
pub mod node;
pub mod packet;
pub mod policy;
pub mod queue;
pub mod retire;
pub mod sched;
mod segmented;
pub mod sim;
pub mod topology;
pub mod units;

pub use app::{Application, FlowEvent, NullApp};
pub use arena::{PacketArena, PacketId};
pub use endpoint::{Effects, FlowSpec, Note, ProtocolStack, ReceiverEndpoint, SenderEndpoint};
pub use fault::FaultAction;
pub use node::PortStats;
pub use packet::{Flags, FlowId, NodeId, Packet, HEADER_BYTES, MIN_FRAME, MSS, WINDOW_INIT};
pub use retire::{FlowRetirer, RetireConfig};
pub use sched::{SchedulerKind, TimerHandle};
pub use sim::{FlowState, QueueSampler, SimApi, SimConfig, SimCore, Simulator};
pub use topology::{Network, TopologyBuilder};
pub use units::{Bandwidth, Dur, Time};

//! Token Flow Control (TFC) — the primary contribution of
//! *TFC: Token Flow Control in Data Center Networks* (EuroSys '16).
//!
//! TFC is an explicit, window-based transport for data centers. Each
//! switch egress port converts its link capacity into **tokens**
//! (`T = c × rtt_b`, Eq. 3), counts the **number of effective flows**
//! per time slot by counting round-marked packets (Eq. 4), and assigns
//! every flow the window `W = T / E` (Eq. 5), adjusted for measured
//! utilisation (Eq. 7) and smoothed (Eq. 8). Because the token excludes
//! buffer space, steady state has (near) zero queueing; the
//! window-acquisition phase and the sub-MSS **delay arbiter** (§4.6)
//! keep even massive incast loss-free.
//!
//! The crate provides:
//!
//! * [`port::TokenEngine`] — the per-port slot state machine (RTT timer,
//!   N counter, rho counter, token allocator, window calculator);
//! * [`arbiter::DelayArbiter`] — the token-bucket ACK pacing of §4.6;
//! * [`switch::TfcSwitchPolicy`] — the two glued into the simulator's
//!   switch hooks; a port gets its own engine and arbiter the first
//!   time a hook changes it, and until then reads its switch's Init
//!   prototype for its line rate;
//! * [`sender::TfcSender`] + [`stack::TfcStack`] — the end-host side
//!   (§5.1/§5.3): the explicit-window policy over the `transport`
//!   crate's shared send core, paired with its shared receiver;
//! * [`config`] — paper-faithful defaults (`rho0 = 0.97`, `alpha = 7/8`,
//!   initial `rtt_b` 160 µs) plus ablation switches.
//!
//! # Examples
//!
//! Wire a TFC network:
//!
//! ```
//! use simnet::topology::star;
//! use simnet::units::{Bandwidth, Dur};
//! use tfc::switch::TfcSwitchPolicy;
//! use tfc::config::TfcSwitchConfig;
//!
//! let (t, hosts, _sw) = star(4, Bandwidth::gbps(1), Dur::micros(1));
//! let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
//! assert_eq!(net.hosts.len(), hosts.len());
//! ```

pub mod arbiter;
pub mod config;
pub mod port;
pub mod sender;
pub mod stack;
pub mod switch;

pub use arbiter::DelayArbiter;
pub use config::{TfcHostConfig, TfcSwitchConfig};
pub use port::TokenEngine;
pub use sender::TfcSender;
pub use stack::TfcStack;
pub use switch::TfcSwitchPolicy;

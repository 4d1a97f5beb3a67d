//! Statistics substrate for the TFC reproduction.
//!
//! This crate is a leaf dependency shared by the simulator, the protocol
//! implementations, and the experiment harness. It provides:
//!
//! * exact percentile computation over collected samples ([`Sampler`]),
//! * empirical CDFs ([`Cdf`]),
//! * time series and fixed-window rate meters ([`TimeSeries`],
//!   [`RateMeter`]),
//! * summary statistics ([`Summary`]),
//! * flow-completion-time bookkeeping with the paper's size bins
//!   ([`FctCollector`], [`SizeBin`]),
//! * mergeable streaming quantile sketches with bounded memory and a
//!   relative error guarantee ([`QuantileSketch`]).
//!
//! All times are `u64` nanoseconds and all derived statistics are `f64`;
//! this crate knows nothing about the network simulator.

pub mod cdf;
pub mod fct;
pub mod percentile;
pub mod rate;
pub mod sketch;
pub mod summary;
pub mod timeseries;

pub use cdf::{Cdf, PiecewiseCdf};
pub use fct::{FctCollector, FctSummary, FlowRecord, SizeBin};
pub use percentile::Sampler;
pub use rate::RateMeter;
pub use sketch::QuantileSketch;
pub use summary::{jain_index, Summary};
pub use timeseries::TimeSeries;

/// Nanoseconds per second, used across the crate for rate conversions.
pub const NANOS_PER_SEC: f64 = 1e9;

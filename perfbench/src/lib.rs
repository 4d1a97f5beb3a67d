//! Phase- and layer-resolved benchmark of the TFC simulator.
//!
//! [`workloads`] builds and runs the benchmark's workloads one measured
//! repetition at a time; [`timed`] holds the wrappers the traced pass
//! puts around each layer's public surface. The `perfbench` binary
//! repeats repetitions for a fixed time and reports the fastest
//! repetition's host times and medians over traced cycles.

pub mod timed;
pub mod workloads;

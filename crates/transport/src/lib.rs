//! Baseline transports for the TFC reproduction.
//!
//! Provides the reliable-stream machinery shared by every protocol in
//! the workspace (the send core [`send::SendCore`], RTT estimation,
//! receive-side reassembly, the generic [`recv::StreamReceiver`]) plus
//! the paper's two baselines:
//!
//! * **TCP NewReno** ([`tcp::TcpSender`] with default config) — the
//!   testbed's CentOS 5.5 stack: slow start, congestion avoidance, fast
//!   retransmit/recovery, 200 ms minimum RTO;
//! * **DCTCP** ([`tcp::TcpConfig::dctcp`]) — ECT marking plus the
//!   `alpha`-proportional window reduction, paired with
//!   [`simnet::policy::EcnMark`] switches (K = 32 KB at 1 Gbps in the
//!   paper's testbed).
//!
//! The TFC protocol itself lives in the `tfc` crate. Its sender embeds
//! the same [`send::SendCore`] as [`tcp::TcpSender`]: the sequence space,
//! RTO, RTT probe, SYN/FIN, retransmitted head and go-back-N live there
//! once, and each sender keeps only its window policy. TFC also reuses
//! the receiver from here.

pub mod recv;
pub mod rtt;
pub mod send;
pub mod stack;
pub mod tcp;

pub use recv::{EchoMode, RecvBuffer, StreamReceiver};
pub use rtt::RttEstimator;
pub use stack::{DctcpStack, TcpStack};
pub use tcp::{TcpConfig, TcpSender};

//! Ablations of TFC's design choices (§4.4–§4.6): each function runs a
//! scenario with one mechanism disabled and returns both results, so
//! tests and benches can show what each mechanism buys.

use simnet::sim::{SimConfig, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use workloads::{OnOffApp, OnOffFlow};

use crate::incast::{self, IncastExpConfig};
use crate::proto::{Proto, ProtoConfig};
use crate::util::{mean_of, queue_points, sample_queue};

/// Result pair of an ablation: the mechanism on vs. off.
#[derive(Debug)]
pub struct Ablation<T> {
    /// With the mechanism enabled (the default configuration).
    pub with: T,
    /// With the mechanism disabled.
    pub without: T,
}

/// §4.6's delay arbiter vs. none, under heavy incast. Without it, the
/// sub-MSS windows are rounded up by every sender simultaneously and
/// the fan-in overflows the buffer.
pub fn delay_arbiter_incast(senders: usize, rounds: u32) -> Ablation<incast::IncastExpResult> {
    let mut on = IncastExpConfig::testbed(Proto::Tfc, senders, rounds);
    on.proto_cfg.tfc_switch.delay_arbiter = false;
    let without = incast::run(&on);
    let with = incast::run(&IncastExpConfig::testbed(Proto::Tfc, senders, rounds));
    Ablation { with, without }
}

/// Sustained-load queue statistics: `(avg_queue_bytes, max_queue_bytes,
/// goodput_bps)` for `n` continuous flows into one receiver.
fn continuous_load_queue(decouple: bool, n: usize, duration: Dur) -> (f64, u64, f64) {
    let (t, hosts, sw) = star(n + 1, Bandwidth::gbps(1), Dur::micros(20));
    let mut pc = ProtoConfig::default();
    pc.tfc_switch.decouple_rtt = decouple;
    // Isolate §4.4: under the integral adjustment the token feeds back
    // on itself and the pipe term only bounds the clamp, hiding the
    // coupling; the literal Eq. 7 exposes it.
    pc.tfc_switch.integral_adjustment = false;
    let net = pc.build_net(Proto::Tfc, t);
    let horizon = duration.as_nanos();
    let receiver = hosts[n];
    let flows: Vec<OnOffFlow> = hosts[..n]
        .iter()
        .map(|&src| OnOffFlow {
            src,
            dst: receiver,
            active: vec![(0, horizon)],
        })
        .collect();
    let app = OnOffApp::new(flows, 128 * 1024);
    let mut sim = Simulator::new(
        net,
        pc.stack(Proto::Tfc),
        app,
        SimConfig {
            end: Some(Time(horizon)),
            ..Default::default()
        },
    );
    let port = sim.core().route_of(sw, receiver).expect("downlink");
    let sampler = sample_queue(sim.core_mut(), sw, port, Dur::millis(1));
    sim.run();
    let q = queue_points(sim.core(), sampler);
    let late: Vec<(u64, f64)> = q
        .iter()
        .copied()
        .filter(|&(t, _)| t > horizon / 4)
        .collect();
    let max_q = sim.core().port_stats(sw, port).max_queue_bytes;
    let delivered: u64 = sim.core().flows().map(|(_, st)| st.delivered).sum();
    (
        mean_of(&late),
        max_q,
        delivered as f64 * 8.0 / duration.as_secs_f64(),
    )
}

/// §4.4's decoupling of the token RTT (`rtt_b`) from the measurement
/// RTT (`rtt_m`), under sustained load. Re-coupling feeds queueing delay
/// back into the token: a longer queue ⇒ larger measured RTT ⇒ larger
/// token ⇒ an even longer queue. Returns `(avg_q, max_q, goodput)`.
pub fn decouple_rtt_queue(n: usize, duration: Dur) -> Ablation<(f64, u64, f64)> {
    Ablation {
        with: continuous_load_queue(true, n, duration),
        without: continuous_load_queue(false, n, duration),
    }
}

/// The window-acquisition phase (§4.6) vs. none: with
/// `probe_on_resume` off, every barrier round bursts stale windows.
pub fn window_acquisition_incast(senders: usize, rounds: u32) -> Ablation<incast::IncastExpResult> {
    let mut off = IncastExpConfig::testbed(Proto::Tfc, senders, rounds);
    off.fresh_connections = false; // persistent flows resume per round
    off.proto_cfg.tfc_host.probe_on_resume = false;
    let without = incast::run(&off);
    let mut on = IncastExpConfig::testbed(Proto::Tfc, senders, rounds);
    on.fresh_connections = false;
    let with = incast::run(&on);
    Ablation { with, without }
}

/// Scaled-down default used by tests and benches.
pub fn default_scale() -> (usize, u32) {
    (32, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::units::Bandwidth;

    #[test]
    fn delay_arbiter_prevents_incast_loss() {
        let (n, rounds) = default_scale();
        let a = delay_arbiter_incast(n, rounds);
        assert_eq!(a.with.drops, 0, "TFC with arbiter must not drop");
        // Without the arbiter the queue at least grows far beyond the
        // gated case (and typically drops).
        assert!(
            a.without.max_queue_bytes > 2 * a.with.max_queue_bytes,
            "no-arbiter max queue {} vs gated {}",
            a.without.max_queue_bytes,
            a.with.max_queue_bytes
        );
    }

    #[test]
    fn decoupling_keeps_queue_low() {
        let a = decouple_rtt_queue(5, Dur::millis(150));
        let (with_avg, _, with_bps) = a.with;
        let (without_avg, _, _) = a.without;
        assert!(
            without_avg > 1.5 * with_avg,
            "coupled avg queue {without_avg:.0} should exceed decoupled {with_avg:.0}"
        );
        assert!(with_bps > 0.8e9, "decoupled goodput {with_bps:.2e}");
    }

    #[test]
    fn acquisition_probe_bounds_resume_bursts() {
        let a = window_acquisition_incast(24, 3);
        assert_eq!(a.with.drops, 0, "probe-on-resume must stay loss-free");
        assert!(
            a.without.max_queue_bytes >= a.with.max_queue_bytes,
            "stale-window resume ({}) should not beat probing ({})",
            a.without.max_queue_bytes,
            a.with.max_queue_bytes
        );
    }

    #[test]
    fn ablation_struct_is_generic() {
        let a = Ablation {
            with: Bandwidth::gbps(1),
            without: Bandwidth::mbps(1),
        };
        assert!(a.with > a.without);
    }
}

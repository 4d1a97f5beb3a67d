//! The ACK delay arbiter: token-bucket pacing of sub-MSS windows (§4.6).
//!
//! When the computed per-flow window drops below one MSS (massive
//! concurrency), TFC does not let every sender transmit each slot.
//! Instead, each switch port keeps a byte counter that fills at line
//! rate. A returning RMA ACK whose window is smaller than one packet is
//! either promoted to a one-MSS grant (consuming counter) or held in a
//! delay queue until the counter refills. ACKs carrying a full window
//! pass through immediately but still debit the counter, so the number
//! of flows transmitting per slot never exceeds the token value.

use std::collections::VecDeque;

use simnet::packet::{Packet, MSS, WINDOW_INIT};
use simnet::units::{Bandwidth, Dur, Time};

/// One MSS as a value of the 32-bit window field.
const MSS_WINDOW: u32 = {
    assert!(MSS <= u32::MAX as u64);
    MSS as u32
};

/// Outcome of offering an RMA ACK to the arbiter.
#[derive(Debug, PartialEq)]
pub enum ArbiterVerdict {
    /// Forward the (possibly rewritten) ACK now.
    Forward,
    /// The ACK was queued; release it when
    /// [`DelayArbiter::next_release_in`] elapses.
    Delayed,
}

/// Per-port delay arbiter.
#[derive(Debug, Clone)]
pub struct DelayArbiter {
    rate_bytes_per_nano: f64,
    counter: f64,
    cap: f64,
    last_refill: Time,
    /// Held ACKs with the time they entered the queue (the hold start),
    /// so releases can report how long each flow waited for its token.
    queue: VecDeque<(Time, Packet)>,
    /// Gate full windows through the counter too (see `set_gate_all`).
    gate_all: bool,
    /// Total ACKs ever delayed (diagnostics).
    delayed_total: u64,
}

impl DelayArbiter {
    /// Creates an arbiter for a port of the given line rate; `cap` bounds
    /// the counter (one token's worth of bytes is the natural choice).
    /// The counter fills at `rho0 × line rate`: granting at the full line
    /// rate would hold the queue at whatever backlog once accumulated,
    /// while the utilisation-target margin lets it drain.
    pub fn new(rate: Bandwidth, cap: f64) -> Self {
        Self::with_fill_factor(rate, cap, 1.0)
    }

    /// Creates an arbiter whose counter fills at `fill × line rate`.
    pub fn with_fill_factor(rate: Bandwidth, cap: f64, fill: f64) -> Self {
        Self {
            rate_bytes_per_nano: rate.bytes_per_nano() * fill.clamp(0.05, 1.0),
            counter: cap.max(MSS as f64),
            cap: cap.max(MSS as f64),
            last_refill: Time::ZERO,
            queue: VecDeque::new(),
            gate_all: false,
            delayed_total: 0,
        }
    }

    /// When enabled, RMAs carrying a full window are also held until the
    /// counter can pay for them, making the arbiter a true token-bucket
    /// shaper. The paper's literal §4.6 lets full windows pass
    /// immediately (only debiting), which stops pacing exactly in the
    /// window-around-one-MSS regime where self-clocked flows hold a
    /// standing queue at the bottleneck.
    pub fn set_gate_all(&mut self, on: bool) {
        self.gate_all = on;
    }

    /// Updates the counter cap (tracks the port's token value).
    pub fn set_cap(&mut self, cap: f64) {
        self.cap = cap.max(MSS as f64);
        self.counter = self.counter.min(self.cap);
    }

    /// Offers an RMA ACK. May rewrite `pkt.window`; on `Delayed` the
    /// packet was consumed into the queue.
    pub fn offer(&mut self, pkt: &mut Packet, now: Time) -> ArbiterVerdict {
        self.refill(now);
        if pkt.window == WINDOW_INIT {
            // Never stamped by any TFC port: nothing to arbitrate.
            return ArbiterVerdict::Forward;
        }
        if pkt.window >= MSS_WINDOW && !self.gate_all {
            // §4.6: full windows pass immediately; the counter still
            // pays for them (and may go negative, throttling future
            // sub-MSS grants).
            self.counter -= f64::from(pkt.window);
            self.counter = self.counter.max(-self.cap);
            return ArbiterVerdict::Forward;
        }
        let need = self.need_of(pkt);
        if self.queue.is_empty() && self.counter >= need {
            pkt.window = pkt.window.max(MSS_WINDOW);
            self.counter -= need;
            ArbiterVerdict::Forward
        } else {
            self.delayed_total += 1;
            self.queue.push_back((now, pkt.clone()));
            ArbiterVerdict::Delayed
        }
    }

    /// Counter cost of granting this ACK: the wire cost the sender will
    /// actually incur — windows are consumed in whole packets, so the
    /// charge rounds up to full segments — clamped to the cap so a grant
    /// can never deadlock.
    fn need_of(&self, pkt: &Packet) -> f64 {
        let pkts = u64::from(pkt.window).max(MSS).div_ceil(MSS);
        ((pkts * MSS) as f64).min(self.cap)
    }

    /// Releases every queued ACK the refilled counter can pay for.
    /// Returns the released packets (windows rewritten to one MSS) with
    /// how long each was held — the flow's token acquire wait.
    pub fn release(&mut self, now: Time) -> Vec<(Packet, Dur)> {
        self.refill(now);
        let mut out = Vec::new();
        while let Some((_, head)) = self.queue.front() {
            let need = self.need_of(head);
            if self.counter < need {
                break;
            }
            let (held_since, mut pkt) = self.queue.pop_front().expect("checked non-empty");
            pkt.window = pkt.window.max(MSS_WINDOW);
            self.counter -= need;
            out.push((pkt, now.since(held_since)));
        }
        out
    }

    /// Time until the head-of-line delayed ACK can be released, or
    /// `None` when the queue is empty.
    pub fn next_release_in(&self, now: Time) -> Option<Dur> {
        let (_, head) = self.queue.front()?;
        let need = self.need_of(head);
        let counter = self.peek_counter(now);
        if counter >= need {
            return Some(Dur::ZERO);
        }
        let deficit = need - counter;
        Some(Dur((deficit / self.rate_bytes_per_nano).ceil() as u64))
    }

    /// Takes every held ACK out of the arbiter, oldest first.
    pub(crate) fn take_held(&mut self) -> impl Iterator<Item = Packet> {
        std::mem::take(&mut self.queue)
            .into_iter()
            .map(|(_, pkt)| pkt)
    }

    /// Number of ACKs currently held.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Total ACKs ever delayed.
    pub fn delayed_total(&self) -> u64 {
        self.delayed_total
    }

    /// Counter value as of `now` without mutating state.
    fn peek_counter(&self, now: Time) -> f64 {
        let dt = now.since(self.last_refill).as_nanos() as f64;
        (self.counter + dt * self.rate_bytes_per_nano).min(self.cap)
    }

    fn refill(&mut self, now: Time) {
        if now > self.last_refill {
            self.counter = self.peek_counter(now);
            self.last_refill = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::props::{cases, vec_u64};
    use rng::Rng;
    use simnet::packet::{Flags, FlowId, NodeId};
    use simnet::units::Bandwidth;

    const GBPS: Bandwidth = Bandwidth(1_000_000_000);

    fn rma(window: u64) -> Packet {
        let mut p = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 0);
        p.flags.set(Flags::RMA);
        p.window = u32::try_from(window).expect("window fits the 32-bit field");
        p
    }

    fn arb() -> DelayArbiter {
        DelayArbiter::new(GBPS, 20_000.0)
    }

    #[test]
    fn full_window_passes_and_debits() {
        let mut a = arb();
        let mut pkt = rma(10_000);
        assert_eq!(a.offer(&mut pkt, Time(0)), ArbiterVerdict::Forward);
        assert_eq!(pkt.window, 10_000);
        // 20_000 - 10_000 left: a second 10 kB window still passes ...
        assert_eq!(a.offer(&mut rma(10_000), Time(0)), ArbiterVerdict::Forward);
        // ... and a sub-MSS ACK now has no counter.
        let mut small = rma(100);
        assert_eq!(a.offer(&mut small, Time(0)), ArbiterVerdict::Delayed);
    }

    #[test]
    fn small_window_promoted_to_one_mss() {
        let mut a = arb();
        let mut pkt = rma(100);
        assert_eq!(a.offer(&mut pkt, Time(0)), ArbiterVerdict::Forward);
        assert_eq!(u64::from(pkt.window), MSS);
    }

    #[test]
    fn unstamped_ack_ignored() {
        let mut a = arb();
        let mut pkt = rma(u64::from(WINDOW_INIT));
        let before = a.peek_counter(Time(0));
        assert_eq!(a.offer(&mut pkt, Time(0)), ArbiterVerdict::Forward);
        assert_eq!(pkt.window, WINDOW_INIT);
        assert_eq!(a.peek_counter(Time(0)), before);
    }

    #[test]
    fn delayed_acks_release_in_fifo_order() {
        let mut a = arb();
        // Drain the counter.
        a.offer(&mut rma(20_000), Time(0));
        for f in 0..3u64 {
            let mut p = rma(100);
            p.flow = FlowId(f);
            assert_eq!(a.offer(&mut p, Time(0)), ArbiterVerdict::Delayed);
        }
        assert_eq!(a.queued(), 3);
        // At 1 Gbps the counter refills 125 bytes/µs; 3 MSS ≈ 35 µs.
        let released = a.release(Time(40_000));
        assert_eq!(released.len(), 3);
        assert_eq!(released[0].0.flow, FlowId(0));
        assert_eq!(released[2].0.flow, FlowId(2));
        for (p, held) in &released {
            assert_eq!(u64::from(p.window), MSS);
            // All were queued at t = 0 and released at t = 40 µs.
            assert_eq!(*held, Dur(40_000));
        }
    }

    #[test]
    fn partial_release_when_counter_partial() {
        let mut a = arb();
        a.offer(&mut rma(20_000), Time(0));
        for _ in 0..3 {
            a.offer(&mut rma(100), Time(0));
        }
        // Refill only enough for one MSS (~11.7 µs).
        let released = a.release(Time(12_000));
        assert_eq!(released.len(), 1);
        assert_eq!(a.queued(), 2);
    }

    #[test]
    fn next_release_predicts_refill() {
        let mut a = arb();
        a.offer(&mut rma(20_000), Time(0));
        a.offer(&mut rma(100), Time(0));
        let wait = a.next_release_in(Time(0)).unwrap();
        // Counter at 0, deficit one MSS: 1460 / 0.125 B/ns = 11_680 ns.
        assert_eq!(wait, Dur(11_680));
        // After that long, the release succeeds.
        assert_eq!(a.release(Time(wait.as_nanos())).len(), 1);
    }

    #[test]
    fn small_acks_fifo_even_with_counter() {
        // A queued ACK must not be overtaken by a newly arriving one.
        let mut a = arb();
        a.offer(&mut rma(20_000), Time(0));
        let mut first = rma(100);
        first.flow = FlowId(10);
        assert_eq!(a.offer(&mut first, Time(0)), ArbiterVerdict::Delayed);
        // Refill past one MSS, then offer another small ACK: it must
        // queue behind the first.
        let mut second = rma(100);
        second.flow = FlowId(11);
        assert_eq!(a.offer(&mut second, Time(20_000)), ArbiterVerdict::Delayed);
        let released = a.release(Time(20_000));
        assert_eq!(released[0].0.flow, FlowId(10));
        assert_eq!(released[0].1, Dur(20_000));
    }

    #[test]
    fn counter_never_exceeds_cap() {
        let a = arb();
        assert_eq!(a.peek_counter(Time(1_000_000_000)), 20_000.0);
    }

    #[test]
    fn grants_bounded_by_line_rate() {
        cases(128, |_case, rng| {
            let offers = vec_u64(rng, 1..200, 64..1460);
            let horizon_us = rng.gen_range(1..1_000u64);
            // Over any horizon, promoted grants (1 MSS each) never exceed
            // cap + rate × horizon bytes.
            let mut a = DelayArbiter::new(GBPS, 20_000.0);
            let mut granted = 0u64;
            for (i, w) in offers.iter().enumerate() {
                let t = Time(i as u64 * horizon_us * 1_000 / offers.len() as u64);
                let mut p = rma(*w);
                if a.offer(&mut p, t) == ArbiterVerdict::Forward {
                    granted += u64::from(p.window);
                }
            }
            let end = Time(horizon_us * 1_000);
            granted += a
                .release(end)
                .iter()
                .map(|(p, _)| u64::from(p.window))
                .sum::<u64>();
            let budget = 20_000.0 + 125.0 * horizon_us as f64 + MSS as f64;
            assert!(
                (granted as f64) <= budget,
                "granted {granted} exceeds budget {budget} ({} offers over {horizon_us} us)",
                offers.len()
            );
        });
    }
}

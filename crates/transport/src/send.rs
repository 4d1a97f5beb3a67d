//! The reliable-stream send core that TCP, DCTCP and TFC senders embed.
//!
//! [`SendCore`] owns what does not depend on how the window is chosen:
//! the sequence space, the cancellable RTO, the RTT estimator with its
//! Karn-safe probe, SYN and FIN emission, the retransmitted head, the
//! cumulative-ACK advance and the go-back-N rewind on RTO. Each sender
//! keeps its window policy: when to send and how much, the segment rule
//! of [`SendCore::next_segment`], and the [`Stamp`] on its packets.
//!
//! A sender may also enable a time-based tail-loss probe
//! ([`SendCore::with_tail_probe`], after RFC 8985): while data is
//! outstanding, the one timer fires at the earlier of the RTO deadline
//! and a probe timeout ([`RttEstimator::pto`]), and a probe resends the
//! head without backing off the RTO or moving its deadline. TFC's
//! one-packet windows never collect three duplicate ACKs, so without it
//! every loss of a burst waits for the 200 ms minimum RTO.

use std::num::NonZeroU64;

use simnet::endpoint::{Effects, Note};
use simnet::packet::{Flags, FlowId, NodeId, Packet, MSS};
use simnet::units::{Dur, Time};

use crate::rtt::RttEstimator;

/// What a sender stamps on the packets the core builds.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Flags on every data segment, retransmission and FIN (DCTCP's ECT).
    pub data: Flags,
    /// Flags on the SYN and every retransmitted head (TFC's round mark).
    pub mark: Flags,
    /// Allocation weight on the SYN and every data segment (TFC).
    pub weight: u8,
}

/// Sequence space, RTO and RTT probe of one sending stream: `pushed`
/// payload bytes, then a FIN that takes one sequence number, so the FIN
/// is sent exactly when `snd_nxt > pushed` and acknowledged exactly when
/// `snd_una > pushed`.
#[derive(Debug)]
pub struct SendCore {
    flow: FlowId,
    local: NodeId,
    remote: NodeId,
    stamp: Stamp,
    pushed: u64,
    closed: bool,
    snd_una: u64,
    snd_nxt: u64,
    /// Duplicate ACKs since `snd_una` last moved; the policy counts them.
    pub dup_acks: u32,
    /// RTT estimate and RTO backoff; the policy backs off on a timeout.
    pub est: RttEstimator,
    timer_gen: u64,
    timer_armed: bool,
    /// Whether tail-loss probes are armed while data is outstanding.
    tail_probe: bool,
    /// Whether the armed timer is a tail-loss probe, due before the RTO.
    probe_armed: bool,
    /// When the RTO fires; the armed timer may fire earlier, as a
    /// tail-loss probe.
    rto_at: Time,
    /// `(sequence end, send time)` of the segment being timed. A timed
    /// segment carries payload, so its end is past 0, and the niche
    /// keeps the option at 16 bytes.
    rtt_probe: Option<(NonZeroU64, Time)>,
}

impl SendCore {
    /// A core for `flow` from `local` to `remote`; `bytes` is the
    /// sized-flow length (`None` = open-ended, fed by [`Self::push`]).
    /// The RTO stays within `[min_rto, max_rto]`.
    pub fn new(
        flow: FlowId,
        local: NodeId,
        remote: NodeId,
        bytes: Option<u64>,
        min_rto: Dur,
        max_rto: Dur,
        stamp: Stamp,
    ) -> Self {
        Self {
            flow,
            local,
            remote,
            stamp,
            pushed: bytes.unwrap_or(0),
            closed: bytes.is_some(),
            snd_una: 0,
            snd_nxt: 0,
            dup_acks: 0,
            est: RttEstimator::new(min_rto, max_rto),
            timer_gen: 0,
            timer_armed: false,
            tail_probe: false,
            probe_armed: false,
            rto_at: Time::ZERO,
            rtt_probe: None,
        }
    }

    /// Enables the tail-loss probe: once an RTT is sampled, a flight
    /// that goes unanswered for [`RttEstimator::pto`] has its head
    /// resent ([`Self::send_tail_probe`]) long before the RTO.
    pub fn with_tail_probe(mut self) -> Self {
        self.tail_probe = true;
        self
    }

    /// The cumulative ACK point.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// The next sequence number to send.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Sent but unacknowledged sequence space.
    pub fn outstanding(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Whether everything pushed so far is sent and acknowledged.
    pub fn idle(&self) -> bool {
        self.outstanding() == 0 && self.snd_nxt == self.pushed
    }

    /// Whether a segment ending at `end` is the last of a closed stream.
    pub fn ends_stream(&self, end: u64) -> bool {
        self.closed && end == self.pushed
    }

    /// Payload bytes acknowledged so far.
    pub fn acked_bytes(&self) -> u64 {
        self.snd_una.min(self.pushed)
    }

    /// Whether the RTO is armed.
    pub fn timer_armed(&self) -> bool {
        self.timer_armed
    }

    /// Appends application bytes to the stream.
    pub fn push(&mut self, bytes: u64) {
        assert!(!self.closed, "push_data after close");
        self.pushed += bytes;
    }

    /// Closes the stream: the FIN follows the last pushed byte.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Restarts the RTO at `now` and arms the timer at its deadline or,
    /// if a tail-loss probe is due before it, at the probe deadline.
    pub fn arm_timer(&mut self, now: Time, fx: &mut Effects) {
        self.rto_at = now + self.est.rto();
        self.set_timer(now, fx);
    }

    /// Arms the timer under a new generation at the RTO deadline or, if
    /// a tail-loss probe is due before it, at the probe deadline. The
    /// armed generation is cancelled first, so the simulator's re-arm
    /// reuse keeps one queued entry.
    fn set_timer(&mut self, now: Time, fx: &mut Effects) {
        if self.timer_armed {
            fx.cancel_timer(self.timer_gen);
        }
        self.timer_gen += 1;
        self.timer_armed = true;
        let mut at = self.rto_at;
        self.probe_armed = false;
        if self.tail_probe && self.outstanding() > 0 {
            if let Some(pto) = self.est.pto() {
                let probe_at = now + pto;
                self.probe_armed = probe_at < at;
                at = at.min(probe_at);
            }
        }
        fx.timer(at - now, self.timer_gen);
    }

    /// Stops the RTO.
    pub fn disarm_timer(&mut self, fx: &mut Effects) {
        if self.timer_armed {
            fx.cancel_timer(self.timer_gen);
        }
        self.timer_armed = false;
        self.timer_gen += 1; // invalidate a pending RTO that outran the cancel
    }

    /// Whether `token` is the armed timer firing; consumes it if so.
    /// Cancels are best-effort, so a stale generation may still fire.
    pub fn take_timer(&mut self, token: u64) -> bool {
        if token != self.timer_gen || !self.timer_armed {
            return false;
        }
        self.timer_armed = false;
        true
    }

    /// Whether the armed timer, or the one [`Self::take_timer`] just
    /// consumed, is a tail-loss probe rather than the RTO.
    pub fn probe_armed(&self) -> bool {
        self.probe_armed
    }

    /// Whether the timer [`Self::take_timer`] just consumed at `now` is
    /// a tail-loss probe: armed as one, with the RTO not yet due. A
    /// timer that fires late, past that deadline (its host was
    /// stalled), is the RTO.
    pub fn probe_due(&self, now: Time) -> bool {
        self.probe_armed && now < self.rto_at
    }

    /// Sends a tail-loss probe: resends the head like
    /// [`Self::retransmit_head`] (a `Retransmit` is noted, the RTT probe
    /// stops), doubles the next probe interval and re-arms the timer
    /// without moving the RTO deadline or backing off the RTO. Returns
    /// the resent segment's end.
    pub fn send_tail_probe(&mut self, now: Time, fx: &mut Effects) -> Option<u64> {
        debug_assert!(self.probe_due(now), "the RTO is due, not a probe");
        self.est.back_off_probe();
        self.set_timer(now, fx);
        self.resend_head(fx)
    }

    /// Sends the SYN and arms the RTO.
    pub fn emit_syn(&mut self, now: Time, fx: &mut Effects) {
        let mut syn = Packet::data(self.flow, self.local, self.remote, 0, 0);
        syn.flags.set(Flags::SYN.with(self.stamp.mark));
        syn.weight = self.stamp.weight;
        fx.send(syn);
        self.arm_timer(now, fx);
    }

    fn emit_fin(&self, fx: &mut Effects) {
        let mut fin = Packet::data(self.flow, self.local, self.remote, self.pushed, 0);
        fin.flags.set(Flags::FIN.with(self.stamp.data));
        fx.send(fin);
    }

    /// A stamped data packet of `len` bytes at `seq`.
    pub fn segment(&self, seq: u64, len: u64) -> Packet {
        let mut pkt = Packet::data(self.flow, self.local, self.remote, seq, len);
        pkt.flags.set(self.stamp.data);
        pkt.weight = self.stamp.weight;
        pkt
    }

    /// Takes the next segment of up to one MSS that a window of `wnd`
    /// bytes past `snd_una` admits, timing it unless another is being
    /// timed; the caller sends it. Any window space admits a full
    /// segment, unless `fit` asks that the segment fit inside the window.
    pub fn next_segment(&mut self, wnd: u64, fit: bool, now: Time) -> Option<Packet> {
        let wnd_end = self.snd_una + wnd;
        if self.snd_nxt >= self.pushed || self.snd_nxt >= wnd_end {
            return None;
        }
        let (seq, len) = (self.snd_nxt, (self.pushed - self.snd_nxt).min(MSS));
        if fit && wnd_end - seq < len {
            return None;
        }
        if self.rtt_probe.is_none() {
            self.rtt_probe = NonZeroU64::new(seq + len).map(|end| (end, now));
        }
        self.snd_nxt += len;
        Some(self.segment(seq, len))
    }

    /// Ends a send loop: the FIN once a closed stream is all sent, and
    /// the RTO if anything is outstanding.
    pub fn send_tail(&mut self, now: Time, fx: &mut Effects) {
        if self.closed && self.snd_nxt == self.pushed {
            self.snd_nxt += 1;
            self.emit_fin(fx);
        }
        if self.outstanding() > 0 && !self.timer_armed {
            self.arm_timer(now, fx);
        }
    }

    /// Retransmits the outstanding head and restarts the RTO. The head
    /// is the segment at `snd_una` with the mark on top, or the FIN if
    /// only it is outstanding. Stops the RTT probe (Karn: a
    /// retransmission is never timed). Returns the resent segment's end.
    pub fn retransmit_head(&mut self, now: Time, fx: &mut Effects) -> Option<u64> {
        self.arm_timer(now, fx);
        self.resend_head(fx)
    }

    /// Sends the head (see [`Self::retransmit_head`]) without touching
    /// the timer.
    fn resend_head(&mut self, fx: &mut Effects) -> Option<u64> {
        debug_assert!(self.outstanding() > 0, "nothing to retransmit");
        fx.note(Note::Retransmit);
        self.rtt_probe = None;
        if self.snd_una >= self.pushed {
            self.emit_fin(fx);
            return None;
        }
        let len = (self.pushed - self.snd_una).min(MSS);
        let mut pkt = self.segment(self.snd_una, len);
        pkt.flags.set(self.stamp.mark);
        fx.send(pkt);
        Some(self.snd_una + len)
    }

    /// `ack` clamped to what was sent: never trust an ACK beyond it.
    pub fn clamp_ack(&self, ack: u64) -> u64 {
        ack.min(self.snd_nxt)
    }

    /// Moves `snd_una` up to a clamped `ack` and samples the RTT if the
    /// ACK covers the timed segment. Returns the newly acked bytes.
    ///
    /// An ACK past the end of the head (the segment a tail-loss probe
    /// resends) shows that the receiver held later data, so the loss
    /// was real and the probe backoff resets; an ACK exactly at the
    /// head's end may be the original segment's, and does not.
    pub fn advance(&mut self, ack: u64, now: Time, fx: &mut Effects) -> u64 {
        let head_end = self.snd_una + self.pushed.saturating_sub(self.snd_una).min(MSS);
        if ack > head_end {
            self.est.reset_probe_backoff();
        }
        let acked = ack - self.snd_una;
        self.snd_una = ack;
        self.dup_acks = 0;
        if let Some((target, t0)) = self.rtt_probe {
            if ack >= target.get() {
                let rtt = now - t0;
                self.est.sample(rtt);
                fx.note(Note::RttSample {
                    nanos: rtt.as_nanos(),
                });
                self.rtt_probe = None;
            }
        }
        acked
    }

    /// Finishes an ACK that moved `snd_una`. Returns `true` when it
    /// covered the FIN (no later ACK can move `snd_una` again): the RTO
    /// stops and `SenderDone` is noted. Otherwise the RTO restarts while
    /// anything is outstanding.
    pub fn settle(&mut self, now: Time, fx: &mut Effects) -> bool {
        if self.snd_una > self.pushed {
            self.disarm_timer(fx);
            fx.note(Note::SenderDone);
            return true;
        }
        if self.outstanding() > 0 {
            self.arm_timer(now, fx);
        } else {
            self.disarm_timer(fx);
        }
        false
    }

    /// Go-back-N on an RTO with something outstanding: rewinds to
    /// `snd_una` and retransmits the head (see [`Self::retransmit_head`]).
    pub fn go_back_n(&mut self, now: Time, fx: &mut Effects) -> Option<u64> {
        self.dup_acks = 0;
        if self.snd_una < self.pushed {
            self.snd_nxt = self.snd_una + (self.pushed - self.snd_una).min(MSS);
        }
        self.retransmit_head(now, fx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN_RTO: Dur = Dur::millis(200);
    const MAX_RTO: Dur = Dur::secs(60);

    fn core(bytes: u64) -> SendCore {
        let stamp = Stamp {
            data: Flags::default(),
            mark: Flags::default(),
            weight: 1,
        };
        SendCore::new(
            FlowId(1),
            NodeId(0),
            NodeId(1),
            Some(bytes),
            MIN_RTO,
            MAX_RTO,
            stamp,
        )
    }

    /// One pass of a send loop over a fixed window, as the senders run it.
    fn send(c: &mut SendCore, wnd: u64, now: Time) -> Effects {
        let mut fx = Effects::new();
        while let Some(pkt) = c.next_segment(wnd, true, now) {
            fx.send(pkt);
        }
        c.send_tail(now, &mut fx);
        fx
    }

    /// A cumulative ACK as the senders process it.
    fn ack(c: &mut SendCore, n: u64, now: Time) -> Effects {
        let mut fx = Effects::new();
        let n = c.clamp_ack(n);
        if n > c.snd_una() {
            c.advance(n, now, &mut fx);
            c.settle(now, &mut fx);
        }
        fx
    }

    /// A timer firing at `now` as the senders process it: a tail-loss
    /// probe before the RTO deadline, else the RTO.
    fn fire(c: &mut SendCore, token: u64, now: Time) -> Effects {
        let mut fx = Effects::new();
        if c.take_timer(token) && c.outstanding() > 0 {
            if c.probe_due(now) {
                c.send_tail_probe(now, &mut fx);
            } else {
                c.est.back_off();
                c.go_back_n(now, &mut fx);
            }
        }
        fx
    }

    /// The one timer `fx` armed: `(delay, token)`.
    fn armed(fx: &Effects) -> (Dur, u64) {
        assert_eq!(fx.timers.len(), 1, "one timer per flow");
        fx.timers[0]
    }

    fn rtt_samples(fx: &Effects) -> usize {
        fx.notes
            .iter()
            .filter(|n| matches!(n, Note::RttSample { .. }))
            .count()
    }

    #[test]
    fn rto_with_only_fin_outstanding_resends_fin_and_rearms() {
        let mut c = core(1_000);
        let fx = send(&mut c, 10 * MSS, Time(0));
        assert!(fx.packets[1].flags.contains(Flags::FIN));
        let fx = ack(&mut c, 1_000, Time(1_000));
        assert_eq!(c.outstanding(), 1, "the FIN alone is outstanding");
        let token = fx.timers.last().expect("RTO re-armed on the ACK").1;
        let fx = fire(&mut c, token, Time(1_000) + MIN_RTO);
        assert_eq!(fx.notes, vec![Note::Retransmit]);
        assert_eq!(fx.packets.len(), 1);
        assert!(fx.packets[0].flags.contains(Flags::FIN));
        assert_eq!(fx.packets[0].seq, 1_000);
        assert_eq!(fx.timers.len(), 1, "RTO re-armed");
        assert!(c.timer_armed());
        assert_eq!(c.snd_nxt(), 1_001);
        let fx = ack(&mut c, 1_001, Time(2_000));
        assert!(fx.notes.contains(&Note::SenderDone));
    }

    #[test]
    fn karn_ack_of_retransmitted_segment_is_not_sampled() {
        let mut c = core(100_000);
        send(&mut c, 3 * MSS, Time(0));
        let mut fx = Effects::new();
        assert_eq!(c.retransmit_head(Time(0), &mut fx), Some(MSS));
        let fx = ack(&mut c, MSS, Time(5_000));
        assert_eq!(rtt_samples(&fx), 0);
        // Without the retransmission the same ACK is sampled.
        let mut c = core(100_000);
        send(&mut c, 3 * MSS, Time(0));
        let fx = ack(&mut c, MSS, Time(5_000));
        assert_eq!(fx.notes, vec![Note::RttSample { nanos: 5_000 }]);
    }

    #[test]
    fn ack_beyond_snd_nxt_is_clamped() {
        let mut c = core(100_000);
        send(&mut c, 3 * MSS, Time(0));
        ack(&mut c, 50_000, Time(1_000));
        assert_eq!(c.snd_una(), 3 * MSS);
        assert_eq!(c.acked_bytes(), 3 * MSS);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn timer_after_sender_done_is_ignored() {
        let mut c = core(1_000);
        let fx = send(&mut c, 10 * MSS, Time(0));
        let token = fx.timers[0].1;
        let fx = ack(&mut c, 1_001, Time(1_000));
        assert!(fx.notes.contains(&Note::SenderDone));
        assert!(!c.timer_armed());
        for t in 0..=token + 2 {
            assert!(!c.take_timer(t), "token {t} fired");
        }
    }

    #[test]
    fn rearm_cancels_the_armed_generation_first() {
        let mut c = core(100_000);
        let mut fx = Effects::new();
        c.arm_timer(Time(0), &mut fx);
        c.arm_timer(Time(0), &mut fx);
        assert_eq!(fx.cancels, vec![1]);
        assert_eq!(
            fx.timers.iter().map(|t| t.1).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(!c.take_timer(1), "superseded generation is stale");
        assert!(c.take_timer(2));
        assert!(!c.take_timer(2), "a fired timer is consumed");
    }

    #[test]
    fn segment_rule_fit_or_fill() {
        let mut c = core(10 * MSS);
        // Half an MSS of window: a fitting segment does not go out, a
        // filling one does.
        assert!(c.next_segment(MSS / 2, true, Time(0)).is_none());
        let pkt = c
            .next_segment(MSS / 2, false, Time(0))
            .expect("full segment");
        assert_eq!((pkt.seq, pkt.payload), (0, MSS));
        assert_eq!(c.snd_nxt(), MSS);
        assert!(
            c.next_segment(MSS / 2, false, Time(0)).is_none(),
            "window used up"
        );
    }

    #[test]
    fn stamp_lands_on_syn_data_retransmit_and_fin() {
        let stamp = Stamp {
            data: Flags::ECT,
            mark: Flags::RM,
            weight: 3,
        };
        let mut c = SendCore::new(
            FlowId(1),
            NodeId(0),
            NodeId(1),
            Some(MSS),
            MIN_RTO,
            MAX_RTO,
            stamp,
        );
        let mut fx = Effects::new();
        c.emit_syn(Time(0), &mut fx);
        assert_eq!(fx.timers.len(), 1, "the SYN arms the RTO");
        let syn = fx.packets.pop().unwrap();
        assert_eq!(syn.flags, Flags::SYN.with(Flags::RM));
        assert_eq!(syn.weight, 3);
        let fx = send(&mut c, MSS, Time(0));
        assert_eq!(fx.packets[0].flags, Flags::ECT);
        assert_eq!(fx.packets[0].weight, 3);
        assert_eq!(fx.packets[1].flags, Flags::FIN.with(Flags::ECT));
        assert_eq!(fx.packets[1].weight, 1);
        let mut fx = Effects::new();
        c.retransmit_head(Time(0), &mut fx);
        assert_eq!(fx.packets[0].flags, Flags::ECT.with(Flags::RM));
        assert_eq!(fx.packets[0].weight, 3);
    }

    /// A probing core whose first MSS was sent at 0 and acknowledged at
    /// 100 µs: srtt 100 µs, rttvar 50 µs, so the PTO is 2 x 300 µs.
    fn sampled_probing_core(bytes: u64) -> SendCore {
        let mut c = core(bytes).with_tail_probe();
        send(&mut c, MSS, Time(0));
        let fx = ack(&mut c, MSS, Time(100_000));
        assert_eq!(fx.notes, vec![Note::RttSample { nanos: 100_000 }]);
        c
    }

    const PTO: Dur = Dur::micros(600);

    #[test]
    fn lost_one_packet_flight_is_resent_at_the_pto() {
        let mut c = sampled_probing_core(100_000);
        let t = Time(100_000);
        let fx = send(&mut c, MSS, t);
        let (after, token) = armed(&fx);
        assert_eq!(after, PTO, "the probe is due before the 200 ms RTO");
        let fx = fire(&mut c, token, t + PTO);
        assert_eq!(fx.notes, vec![Note::Retransmit], "a retransmit, no timeout");
        assert_eq!(fx.packets.len(), 1);
        assert_eq!((fx.packets[0].seq, fx.packets[0].payload), (MSS, MSS));
        assert_eq!(c.est.rto(), MIN_RTO, "a probe does not back off the RTO");
        assert_eq!(armed(&fx).0, PTO * 2, "the next probe waits twice as long");
    }

    #[test]
    fn probes_double_and_the_rto_keeps_its_deadline() {
        let mut c = sampled_probing_core(100_000);
        let mut now = Time(100_000);
        let rto_at = now + MIN_RTO;
        let (mut after, mut token) = armed(&send(&mut c, MSS, now));
        let mut intervals = Vec::new();
        while now + after < rto_at {
            intervals.push(after);
            now += after;
            let fx = fire(&mut c, token, now);
            assert_eq!(fx.notes, vec![Note::Retransmit]);
            (after, token) = armed(&fx);
        }
        let doubling: Vec<_> = (0..intervals.len()).map(|k| PTO * (1 << k)).collect();
        assert_eq!(intervals, doubling);
        // 600 us x (2^8 - 1) < 200 ms < 600 us x (2^9 - 1).
        assert_eq!(intervals.len(), 8);
        assert_eq!(now + after, rto_at, "the last interval ends at the RTO");
        let fx = fire(&mut c, token, rto_at);
        assert_eq!(fx.notes, vec![Note::Retransmit]);
        assert_eq!(c.snd_nxt(), 2 * MSS, "go-back-N rewound to the head");
    }

    /// A three-segment flight from `MSS` whose head was probed once at
    /// the PTO, then acknowledged up to `n`: the next timer's delay.
    fn delay_after_probe_and_ack(n: u64) -> Dur {
        let mut c = sampled_probing_core(100_000);
        let t = Time(100_000);
        let token = armed(&send(&mut c, 3 * MSS, t)).1;
        let fx = fire(&mut c, token, t + PTO);
        assert_eq!(fx.packets[0].seq, MSS, "the head is probed");
        let fx = ack(&mut c, n, t + PTO * 2);
        assert_eq!(rtt_samples(&fx), 0, "Karn: the probed flight is not timed");
        armed(&fx).0
    }

    #[test]
    fn only_an_ack_past_the_probed_end_resets_the_backoff() {
        // Exactly at the probed end: maybe the original's ACK.
        assert_eq!(delay_after_probe_and_ack(2 * MSS), PTO * 2);
        // Past it: the receiver held later data, so the loss was real.
        assert_eq!(delay_after_probe_and_ack(3 * MSS), PTO);
    }

    #[test]
    fn no_probe_before_the_first_rtt_sample() {
        let mut c = core(100_000).with_tail_probe();
        let fx = send(&mut c, 3 * MSS, Time(0));
        assert_eq!(armed(&fx).0, MIN_RTO);
        let fx = fire(&mut c, armed(&fx).1, Time(0) + MIN_RTO);
        assert_eq!(c.snd_nxt(), MSS, "the RTO fired, not a probe");
        assert_eq!(armed(&fx).0, MIN_RTO * 2);
    }

    #[test]
    fn a_core_without_the_probe_arms_only_the_rto() {
        let mut c = core(100_000);
        send(&mut c, MSS, Time(0));
        ack(&mut c, MSS, Time(100_000));
        let fx = send(&mut c, MSS, Time(100_000));
        assert_eq!(armed(&fx).0, MIN_RTO);
    }
}

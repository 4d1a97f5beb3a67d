//! The reliable-stream send core that TCP, DCTCP and TFC senders embed.
//!
//! [`SendCore`] owns what does not depend on how the window is chosen:
//! the sequence space, the cancellable RTO, the RTT estimator with its
//! Karn-safe probe, SYN and FIN emission, the retransmitted head, the
//! cumulative-ACK advance and the go-back-N rewind on RTO. Each sender
//! keeps its window policy: when to send and how much, the segment rule
//! of [`SendCore::next_segment`], and the [`Stamp`] on its packets.

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
    /// `(sequence end, send time)` of the segment being timed.
    rtt_probe: Option<(u64, Time)>,
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
            rtt_probe: None,
        }
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

    /// Arms the RTO under a new generation, cancelling the armed one
    /// first so the simulator's re-arm reuse keeps one queued entry.
    pub fn arm_timer(&mut self, fx: &mut Effects) {
        if self.timer_armed {
            fx.cancel_timer(self.timer_gen);
        }
        self.timer_gen += 1;
        self.timer_armed = true;
        fx.timer(self.est.rto(), self.timer_gen);
    }

    /// Stops the RTO.
    pub fn disarm_timer(&mut self, fx: &mut Effects) {
        if self.timer_armed {
            fx.cancel_timer(self.timer_gen);
        }
        self.timer_armed = false;
        self.timer_gen += 1; // invalidate a pending RTO that outran the cancel
    }

    /// Whether `token` is the armed RTO firing; consumes it if so.
    /// Cancels are best-effort, so a stale generation may still fire.
    pub fn take_timer(&mut self, token: u64) -> bool {
        if token != self.timer_gen || !self.timer_armed {
            return false;
        }
        self.timer_armed = false;
        true
    }

    /// Sends the SYN and arms the RTO.
    pub fn emit_syn(&mut self, fx: &mut Effects) {
        let mut syn = Packet::data(self.flow, self.local, self.remote, 0, 0);
        syn.flags.set(Flags::SYN.with(self.stamp.mark));
        syn.weight = self.stamp.weight;
        fx.send(syn);
        self.arm_timer(fx);
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
            self.rtt_probe = Some((seq + len, now));
        }
        self.snd_nxt += len;
        Some(self.segment(seq, len))
    }

    /// Ends a send loop: the FIN once a closed stream is all sent, and
    /// the RTO if anything is outstanding.
    pub fn send_tail(&mut self, fx: &mut Effects) {
        if self.closed && self.snd_nxt == self.pushed {
            self.snd_nxt += 1;
            self.emit_fin(fx);
        }
        if self.outstanding() > 0 && !self.timer_armed {
            self.arm_timer(fx);
        }
    }

    /// Retransmits the outstanding head and re-arms the RTO. The head
    /// is the segment at `snd_una` with the mark on top, or the FIN if
    /// only it is outstanding. Stops the RTT probe (Karn: a
    /// retransmission is never timed). Returns the resent segment's end.
    pub fn retransmit_head(&mut self, fx: &mut Effects) -> Option<u64> {
        debug_assert!(self.outstanding() > 0, "nothing to retransmit");
        fx.note(Note::Retransmit);
        self.rtt_probe = None;
        self.arm_timer(fx);
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
    pub fn advance(&mut self, ack: u64, now: Time, fx: &mut Effects) -> u64 {
        let acked = ack - self.snd_una;
        self.snd_una = ack;
        self.dup_acks = 0;
        if let Some((target, t0)) = self.rtt_probe {
            if ack >= target {
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
    pub fn settle(&mut self, fx: &mut Effects) -> bool {
        if self.snd_una > self.pushed {
            self.disarm_timer(fx);
            fx.note(Note::SenderDone);
            return true;
        }
        if self.outstanding() > 0 {
            self.arm_timer(fx);
        } else {
            self.disarm_timer(fx);
        }
        false
    }

    /// Go-back-N on an RTO with something outstanding: rewinds to
    /// `snd_una` and retransmits the head (see [`Self::retransmit_head`]).
    pub fn go_back_n(&mut self, fx: &mut Effects) -> Option<u64> {
        self.dup_acks = 0;
        if self.snd_una < self.pushed {
            self.snd_nxt = self.snd_una + (self.pushed - self.snd_una).min(MSS);
        }
        self.retransmit_head(fx)
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
        c.send_tail(&mut fx);
        fx
    }

    /// A cumulative ACK as the senders process it.
    fn ack(c: &mut SendCore, n: u64, now: Time) -> Effects {
        let mut fx = Effects::new();
        let n = c.clamp_ack(n);
        if n > c.snd_una() {
            c.advance(n, now, &mut fx);
            c.settle(&mut fx);
        }
        fx
    }

    /// An RTO as the senders process it.
    fn rto(c: &mut SendCore, token: u64) -> Effects {
        let mut fx = Effects::new();
        if c.take_timer(token) && c.outstanding() > 0 {
            c.go_back_n(&mut fx);
        }
        fx
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
        let fx = rto(&mut c, token);
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
        assert_eq!(c.retransmit_head(&mut fx), Some(MSS));
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
        c.arm_timer(&mut fx);
        c.arm_timer(&mut fx);
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
        c.emit_syn(&mut fx);
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
        c.retransmit_head(&mut fx);
        assert_eq!(fx.packets[0].flags, Flags::ECT.with(Flags::RM));
        assert_eq!(fx.packets[0].weight, 3);
    }
}

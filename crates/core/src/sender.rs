//! The TFC sender endpoint (§5.1).
//!
//! The sender is deliberately simple — the paper's point is that explicit
//! switch allocation makes end-host congestion control trivial:
//!
//! * the SYN carries the round mark (switches count establishing flows);
//! * after the handshake, a zero-payload RM probe fetches the first
//!   window (the window-acquisition phase of §4.6);
//! * the first data packet after each received RMA carries the RM bit,
//!   with the window field reset to the init value for switches to
//!   min-clamp, unless it is the flow's last segment (beyond the paper:
//!   the window its RMA would grant can never be used);
//! * the congestion window is exactly the value carried by the last RMA;
//! * loss recovery is a plain dup-ACK fast retransmit plus an RTO safety
//!   net (TFC rarely drops, so these are cold paths), and, beyond the
//!   paper, a tail-loss probe: windows of about one packet never collect
//!   three duplicate ACKs, so a flight unanswered for a probe timeout
//!   has its head resent, re-marked, long before the 200 ms RTO.
//!
//! The stream machinery (sequence space, RTO, tail-loss probe, RTT
//! probe, SYN and FIN, retransmitted head, go-back-N) is the `transport`
//! crate's [`SendCore`], shared with TCP and DCTCP (which never enable
//! the tail-loss probe); this module is only the explicit-window policy
//! over it.

use simnet::endpoint::{Effects, Note, SenderEndpoint};
use simnet::packet::{Flags, FlowId, NodeId, Packet, MSS, WINDOW_INIT};
use simnet::units::{Dur, Time};
use transport::send::{SendCore, Stamp};

use crate::config::TfcHostConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Window-acquisition probe in flight.
    WindowAcq,
    /// Normal data transfer.
    Streaming,
}

/// TFC sender endpoint.
pub struct TfcSender {
    /// Stamps the weight on the SYN and data, and RM on the SYN and
    /// every retransmitted head.
    core: SendCore,
    // From `TfcHostConfig`.
    awnd: u64,
    probe_on_resume: bool,
    state: State,
    // Window.
    cwnd: u64,
    /// The next outgoing data packet carries the RM bit.
    rm_pending: bool,
    /// An RM packet is in flight and its RMA has not returned.
    rm_outstanding: bool,
    /// Sequence end of the last marked packet, for RMA-loss detection.
    rm_seq_end: u64,
    /// When the last round mark was sent. Marks are spaced at least half
    /// an RTT apart: the delay arbiter can reorder an RMA behind plain
    /// ACKs, and without spacing the re-mark paths emit back-to-back
    /// marks whose compressed interval poisons the switch's `rtt_b`.
    rm_sent_at: Option<Time>,
}

// Pinned: every live TFC flow boxes one sender. The tail-loss probe's
// 8-byte RTO deadline fits in what the RTT probe's niche saves, so the
// sender stays at 184 B.
const _: () = assert!(std::mem::size_of::<TfcSender>() <= 184);

impl TfcSender {
    /// Creates a sender for `flow` from `local` to `remote`; `bytes` is
    /// the sized-flow length (`None` = open-ended).
    pub fn new(
        flow: FlowId,
        local: NodeId,
        remote: NodeId,
        bytes: Option<u64>,
        cfg: TfcHostConfig,
    ) -> Self {
        Self::with_weight(flow, local, remote, bytes, cfg, 1)
    }

    /// Creates a sender with an allocation weight (weighted extension).
    pub fn with_weight(
        flow: FlowId,
        local: NodeId,
        remote: NodeId,
        bytes: Option<u64>,
        cfg: TfcHostConfig,
        weight: u8,
    ) -> Self {
        let stamp = Stamp {
            data: Flags::default(),
            mark: Flags::RM,
            weight: weight.max(1),
        };
        Self {
            core: SendCore::new(flow, local, remote, bytes, cfg.min_rto, cfg.max_rto, stamp)
                .with_tail_probe(),
            awnd: cfg.awnd,
            probe_on_resume: cfg.probe_on_resume,
            state: State::SynSent,
            cwnd: 0,
            rm_pending: false,
            rm_outstanding: false,
            rm_seq_end: 0,
            rm_sent_at: None,
        }
    }

    /// Whether enough time has passed since the last mark to mark again.
    fn mark_spacing_ok(&self, now: Time) -> bool {
        match (self.rm_sent_at, self.core.est.srtt()) {
            (Some(at), Some(srtt)) => now.since(at) >= Dur(srtt.as_nanos() / 2),
            _ => true,
        }
    }

    /// Sends a window-acquisition probe and arms the RTO.
    fn acquire_window(&mut self, now: Time, fx: &mut Effects) {
        let mut probe = self.core.segment(self.core.snd_una(), 0);
        probe.flags.set(Flags::RM);
        self.rm_outstanding = true;
        fx.send(probe);
        self.core.arm_timer(now, fx);
    }

    /// Records the round mark a retransmitted head carried, if data went
    /// out: the mark keeps the slot machinery alive, so the switch keeps
    /// counting this flow.
    fn head_remarked(&mut self, end: Option<u64>) {
        if let Some(end) = end {
            self.rm_outstanding = true;
            self.rm_seq_end = end;
        }
    }

    fn send_available(&mut self, now: Time, fx: &mut Effects) {
        if self.state != State::Streaming {
            return;
        }
        // The window counts in whole packets: send a full segment
        // whenever any window space remains (ceiling semantics, at most
        // one MSS of overshoot per flow per round). Splitting segments
        // to fit the byte window exactly would strand up to one MSS per
        // round, and the resulting odd-sized fragments self-perpetuate
        // (each ACK opens fragment-sized space) — starving the
        // full-frame-only rtt_b filter of §4.4. The overshoot is
        // absorbed by the rho feedback of Eq. 7.
        while let Some(mut pkt) = self.core.next_segment(self.cwnd, false, now) {
            let last = self.core.ends_stream(pkt.seq + pkt.payload);
            if self.rm_pending && self.mark_spacing_ok(now) && !last {
                self.rm_pending = false;
                pkt.flags.set(Flags::RM);
                self.rm_outstanding = true;
                self.rm_seq_end = pkt.seq + pkt.payload;
                self.rm_sent_at = Some(now);
            }
            fx.send(pkt);
        }
        self.core.send_tail(now, fx);
    }

    /// Current state name (tests, diagnostics).
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::SynSent => "syn-sent",
            State::WindowAcq => "window-acq",
            State::Streaming => "streaming",
        }
    }
}

impl SenderEndpoint for TfcSender {
    fn open(&mut self, now: Time, fx: &mut Effects) {
        if self.state == State::SynSent && !self.core.timer_armed() {
            self.core.emit_syn(now, fx);
        }
    }

    fn push_data(&mut self, bytes: u64, now: Time, fx: &mut Effects) {
        let was_idle = self.core.idle();
        self.core.push(bytes);
        if self.state == State::WindowAcq && !self.rm_outstanding {
            // Established while idle: run the deferred acquisition now.
            self.acquire_window(now, fx);
            return;
        }
        if self.state == State::Streaming && was_idle && self.probe_on_resume {
            // Silent flow resuming: its stale window may be far too big
            // now (the switch stopped counting it). Re-acquire first.
            self.state = State::WindowAcq;
            self.cwnd = 0;
            self.acquire_window(now, fx);
            return;
        }
        self.send_available(now, fx);
    }

    fn close(&mut self, now: Time, fx: &mut Effects) {
        self.core.close();
        self.send_available(now, fx);
    }

    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects) {
        if pkt.flags.contains(Flags::SYN) && pkt.flags.contains(Flags::ACK) {
            if self.state == State::SynSent {
                self.state = State::WindowAcq;
                self.core.disarm_timer(fx);
                fx.note(Note::Established);
                // Window-acquisition phase (§4.6): fetch the first window
                // with a zero-payload marked packet. Deferred until the
                // application has data, so connect-then-idle flows do not
                // mark rounds they will not use (and cannot become a
                // silent delimiter).
                if !self.core.idle() {
                    self.acquire_window(now, fx);
                }
            }
            return;
        }
        if !pkt.flags.contains(Flags::ACK) {
            return;
        }
        if pkt.flags.contains(Flags::RMA) {
            self.rm_outstanding = false;
            // Adopt the explicitly allocated window. The delay arbiter
            // guarantees at least one MSS when it is enabled; clamp for
            // the ablation case so the flow cannot deadlock.
            if pkt.window != WINDOW_INIT {
                self.cwnd = u64::from(pkt.window).max(MSS).min(self.awnd);
            } else {
                self.cwnd = self.awnd;
            }
            fx.note(Note::WindowAcquired { bytes: self.cwnd });
            self.rm_pending = true;
            if self.state == State::WindowAcq {
                self.state = State::Streaming;
            }
        }
        let ack = self.core.clamp_ack(pkt.ack);
        if !pkt.flags.contains(Flags::RMA) && self.rm_outstanding && ack >= self.rm_seq_end {
            // The marked packet was cumulatively acknowledged by a later,
            // unmarked ACK. Its RMA was either lost or is being held by a
            // delay arbiter (which legitimately lets plain ACKs overtake
            // it); only declare it lost after a couple of RTTs.
            let overdue = match (self.rm_sent_at, self.core.est.srtt()) {
                (Some(at), Some(srtt)) => now.since(at) > Dur(2 * srtt.as_nanos()),
                _ => true,
            };
            if overdue {
                self.rm_outstanding = false;
                self.rm_pending = true;
            }
        }
        let una = self.core.snd_una();
        if ack > una {
            self.core.advance(ack, now, fx);
            if self.core.settle(now, fx) {
                return;
            }
        } else if ack == una && self.core.outstanding() > 0 && !pkt.flags.contains(Flags::RMA) {
            // An RMA for a probe or a re-marked head is no dup-ACK signal.
            self.core.dup_acks += 1;
            if self.core.dup_acks == 3 {
                let end = self.core.retransmit_head(now, fx);
                self.head_remarked(end);
            }
        }
        self.send_available(now, fx);
    }

    fn on_timer(&mut self, token: u64, now: Time, fx: &mut Effects) {
        if !self.core.take_timer(token) {
            return;
        }
        if self.core.probe_due(now) {
            // Probes are armed only with data outstanding, so streaming.
            let end = self.core.send_tail_probe(now, fx);
            self.head_remarked(end);
            return;
        }
        fx.note(Note::Timeout);
        self.core.est.back_off();
        match self.state {
            State::SynSent => self.core.emit_syn(now, fx),
            State::WindowAcq => self.acquire_window(now, fx),
            State::Streaming if self.core.outstanding() == 0 => {}
            State::Streaming => {
                let end = self.core.go_back_n(now, fx);
                self.head_remarked(end);
            }
        }
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn acked_bytes(&self) -> u64 {
        self.core.acked_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::units::Dur;

    const H0: NodeId = NodeId(0);
    const H1: NodeId = NodeId(1);

    fn sender(bytes: Option<u64>) -> TfcSender {
        TfcSender::new(FlowId(1), H0, H1, bytes, TfcHostConfig::default())
    }

    fn synack() -> Packet {
        let mut p = Packet::ack(FlowId(1), H1, H0, 0);
        p.flags.set(Flags::SYN);
        p
    }

    fn rma(ack: u64, window: u64) -> Packet {
        let mut p = Packet::ack(FlowId(1), H1, H0, ack);
        p.flags.set(Flags::RMA);
        p.window = u32::try_from(window).expect("window fits the 32-bit field");
        p
    }

    fn ack(n: u64) -> Packet {
        Packet::ack(FlowId(1), H1, H0, n)
    }

    #[test]
    fn syn_carries_rm() {
        let mut s = sender(Some(10_000));
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let syn = &fx.packets[0];
        assert!(syn.flags.contains(Flags::SYN));
        assert!(syn.flags.contains(Flags::RM));
        assert_eq!(s.state_name(), "syn-sent");
    }

    #[test]
    fn synack_triggers_probe_not_data() {
        let mut s = sender(Some(10_000));
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let mut fx2 = Effects::new();
        s.on_packet(&synack(), Time(100), &mut fx2);
        assert!(fx2.notes.contains(&Note::Established));
        assert_eq!(fx2.packets.len(), 1);
        let probe = &fx2.packets[0];
        assert_eq!(probe.payload, 0);
        assert!(probe.flags.contains(Flags::RM));
        assert!(!probe.flags.contains(Flags::SYN));
        assert_eq!(s.state_name(), "window-acq");
    }

    fn establish(s: &mut TfcSender, window: u64) -> Effects {
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let mut fx = Effects::new();
        s.on_packet(&synack(), Time(100), &mut fx);
        let mut fx = Effects::new();
        s.on_packet(&rma(0, window), Time(200), &mut fx);
        fx
    }

    #[test]
    fn probe_rma_sets_window_and_sends_marked_round() {
        let mut s = sender(Some(100_000));
        let fx = establish(&mut s, 2 * MSS);
        assert_eq!(s.state_name(), "streaming");
        assert_eq!(s.cwnd(), 2 * MSS);
        let data: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert_eq!(data.len(), 2);
        assert!(data[0].flags.contains(Flags::RM), "first of round marked");
        assert!(!data[1].flags.contains(Flags::RM));
        assert_eq!(data[0].window, WINDOW_INIT, "window reset for stamping");
    }

    #[test]
    fn rma_below_mss_clamped_for_ablation_safety() {
        let mut s = sender(Some(100_000));
        establish(&mut s, 100);
        assert_eq!(s.cwnd(), MSS);
    }

    #[test]
    fn each_rma_remarks_next_packet() {
        let mut s = sender(Some(100_000));
        establish(&mut s, 3 * MSS);
        // The RMA of the marked head arrives: window refreshed, the next
        // outgoing packet re-marks the new round.
        let mut fx = Effects::new();
        s.on_packet(&rma(MSS, 3 * MSS), Time(300), &mut fx);
        let sent: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert!(!sent.is_empty());
        assert!(sent[0].flags.contains(Flags::RM));
        // Plain ACKs within the round release unmarked packets.
        let mut fx2 = Effects::new();
        s.on_packet(&ack(2 * MSS), Time(400), &mut fx2);
        let sent2: Vec<_> = fx2.packets.iter().filter(|p| p.is_data()).collect();
        assert!(sent2.iter().all(|p| !p.flags.contains(Flags::RM)));
    }

    #[test]
    fn lost_rma_triggers_remark() {
        let mut s = sender(Some(100_000));
        establish(&mut s, 3 * MSS);
        // The marked head covered seq 0..MSS; a *plain* ACK past it means
        // the RMA echo was lost: the sender must re-mark to stay counted.
        let mut fx = Effects::new();
        s.on_packet(&ack(2 * MSS), Time(300), &mut fx);
        let sent: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert!(!sent.is_empty());
        assert!(sent[0].flags.contains(Flags::RM));
    }

    #[test]
    fn window_shrink_pauses_sending() {
        let mut s = sender(Some(1_000_000));
        establish(&mut s, 10 * MSS);
        assert_eq!(s.core.outstanding(), 10 * MSS);
        // RMA shrinks the window to 2 MSS: nothing new until drained.
        let mut fx = Effects::new();
        s.on_packet(&rma(MSS, 2 * MSS), Time(300), &mut fx);
        assert!(fx.packets.iter().all(|p| !p.is_data()));
    }

    #[test]
    fn three_dup_acks_fast_retransmit() {
        let mut s = sender(Some(1_000_000));
        establish(&mut s, 4 * MSS);
        for _ in 0..2 {
            let mut fx = Effects::new();
            s.on_packet(&ack(0), Time(300), &mut fx);
            assert!(fx.packets.is_empty());
        }
        let mut fx = Effects::new();
        s.on_packet(&ack(0), Time(300), &mut fx);
        assert!(fx.notes.contains(&Note::Retransmit));
        let rtx = fx.packets.iter().find(|p| p.is_data()).unwrap();
        assert_eq!(rtx.seq, 0);
        assert!(rtx.flags.contains(Flags::RM), "retransmitted head re-marks");
    }

    #[test]
    fn rma_not_counted_as_dup_ack() {
        let mut s = sender(Some(1_000_000));
        establish(&mut s, 4 * MSS);
        for _ in 0..5 {
            let mut fx = Effects::new();
            s.on_packet(&rma(0, 4 * MSS), Time(300), &mut fx);
            assert!(
                !fx.notes.contains(&Note::Retransmit),
                "RMAs must not trigger fast retransmit"
            );
        }
    }

    #[test]
    fn probe_loss_recovers_by_rto() {
        let mut s = sender(Some(10_000));
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let mut fx = Effects::new();
        s.on_packet(&synack(), Time(100), &mut fx);
        let tok = fx.timers[0].1;
        let mut fx2 = Effects::new();
        s.on_timer(tok, Time::ZERO + Dur::millis(200), &mut fx2);
        assert!(fx2.notes.contains(&Note::Timeout));
        assert!(fx2.packets[0].flags.contains(Flags::RM));
        assert_eq!(fx2.packets[0].payload, 0);
    }

    /// A one-packet-window sender whose first segment (sent at 200 ns)
    /// was acknowledged 100 us later, with the second in flight: the
    /// armed timer's `(delay, token)`. The PTO is 2 x (100 + 4 x 50) us.
    fn second_segment_in_flight(s: &mut TfcSender) -> (Dur, u64) {
        establish(s, MSS);
        let mut fx = Effects::new();
        s.on_packet(&ack(MSS), Time(100_200), &mut fx);
        assert!(fx.notes.contains(&Note::RttSample { nanos: 100_000 }));
        assert_eq!(fx.packets.iter().filter(|p| p.is_data()).count(), 1);
        assert_eq!(fx.timers.len(), 1);
        fx.timers[0]
    }

    #[test]
    fn lost_flight_is_probed_with_a_marked_head() {
        let mut s = sender(Some(100_000));
        let (after, token) = second_segment_in_flight(&mut s);
        assert_eq!(after, Dur::micros(600), "the probe, not the 200 ms RTO");
        let mut fx = Effects::new();
        s.on_timer(token, Time(100_200) + after, &mut fx);
        assert_eq!(fx.notes, vec![Note::Retransmit], "no timeout is noted");
        assert_eq!(fx.packets.len(), 1);
        let head = &fx.packets[0];
        assert_eq!((head.seq, head.payload), (MSS, MSS));
        assert!(
            head.flags.contains(Flags::RM),
            "the probe re-marks the head"
        );
        assert!(s.rm_outstanding && s.rm_seq_end == 2 * MSS);
        assert_eq!(
            s.core.est.rto(),
            Dur::millis(200),
            "the RTO is not backed off"
        );
        assert_eq!(
            fx.timers[0].0,
            Dur::micros(1_200),
            "the next probe backs off"
        );
    }

    #[test]
    fn no_probe_before_the_first_rtt_sample() {
        let mut s = sender(Some(100_000));
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let mut fx = Effects::new();
        s.on_packet(&synack(), Time(100), &mut fx);
        let (after, token) = fx.timers[0];
        assert_eq!(after, Dur::millis(200));
        let mut fx = Effects::new();
        s.on_packet(&rma(0, MSS), Time(200), &mut fx);
        assert!(
            fx.timers.is_empty(),
            "the acquisition's RTO covers the flight"
        );
        let mut fx = Effects::new();
        s.on_timer(token, Time(100) + after, &mut fx);
        assert!(fx.notes.contains(&Note::Timeout), "the RTO fired");
    }

    /// A flow's last segment carries no round mark: the window its RMA
    /// would grant can never be used, and a delay arbiter would hold
    /// that RMA, and with it the finished flow, in its queue.
    #[test]
    fn last_segment_is_not_marked() {
        let mut s = sender(Some(MSS + 100));
        let fx = establish(&mut s, 10 * MSS);
        let data: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert_eq!(data.len(), 2);
        assert!(data[0].flags.contains(Flags::RM), "first of round marked");
        assert!(!data[1].flags.contains(Flags::RM));
        // The RMA of the first arrives with the last still to send.
        let mut s = sender(Some(MSS + 100));
        establish(&mut s, MSS);
        let mut fx = Effects::new();
        s.on_packet(&rma(MSS, MSS), Time(100_000), &mut fx);
        let last = fx.packets.iter().find(|p| p.is_data()).expect("sent");
        assert_eq!((last.seq, last.payload), (MSS, 100));
        assert!(!last.flags.contains(Flags::RM), "the last is unmarked");
        assert!(!s.rm_outstanding);
        // A one-segment flow marks only its SYN and its probe.
        let mut s = sender(Some(300));
        let fx = establish(&mut s, 10 * MSS);
        let data: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert_eq!(data.len(), 1);
        assert!(!data[0].flags.contains(Flags::RM));
    }

    #[test]
    fn fin_and_done() {
        let mut s = sender(Some(1_000));
        let fx = establish(&mut s, 10 * MSS);
        assert!(fx.packets.iter().any(|p| p.flags.contains(Flags::FIN)));
        let mut fx2 = Effects::new();
        s.on_packet(&ack(1_001), Time(500), &mut fx2);
        assert!(fx2.notes.contains(&Note::SenderDone));
    }

    #[test]
    fn resume_after_idle_probes_again() {
        let mut s = sender(None);
        establish(&mut s, 10 * MSS);
        let mut fx = Effects::new();
        s.push_data(1_000, Time(1_000), &mut fx);
        // probe_on_resume: a fresh zero-payload probe, no data yet.
        assert_eq!(fx.packets.len(), 1);
        assert_eq!(fx.packets[0].payload, 0);
        assert!(fx.packets[0].flags.contains(Flags::RM));
        assert_eq!(s.state_name(), "window-acq");
        // RMA releases the data.
        let mut fx2 = Effects::new();
        s.on_packet(&rma(0, 5 * MSS), Time(1_200), &mut fx2);
        assert_eq!(fx2.packets.iter().filter(|p| p.is_data()).count(), 1);
        assert_eq!(fx2.packets[0].payload, 1_000);
    }

    #[test]
    fn resume_without_probe_when_disabled() {
        let cfg = TfcHostConfig {
            probe_on_resume: false,
            ..Default::default()
        };
        let mut s = TfcSender::new(FlowId(1), H0, H1, None, cfg);
        establish(&mut s, 10 * MSS);
        let mut fx = Effects::new();
        s.push_data(1_000, Time(1_000), &mut fx);
        assert_eq!(fx.packets.iter().filter(|p| p.is_data()).count(), 1);
    }

    #[test]
    fn stale_timer_ignored() {
        let mut s = sender(Some(100_000));
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let stale = fx.timers[0].1;
        let mut fx2 = Effects::new();
        s.on_packet(&synack(), Time(100), &mut fx2);
        let mut fx3 = Effects::new();
        s.on_timer(stale, Time(200), &mut fx3);
        assert!(fx3.notes.is_empty());
    }
}

#[cfg(test)]
mod spacing_tests {
    use super::*;
    use crate::config::TfcHostConfig;

    const H0: NodeId = NodeId(0);
    const H1: NodeId = NodeId(1);

    fn streaming_sender() -> TfcSender {
        let mut s = TfcSender::new(
            FlowId(1),
            H0,
            H1,
            Some(10_000_000),
            TfcHostConfig::default(),
        );
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let mut synack = Packet::ack(FlowId(1), H1, H0, 0);
        synack.flags.set(Flags::SYN);
        let mut fx = Effects::new();
        s.on_packet(&synack, Time(100), &mut fx);
        let mut rma = Packet::ack(FlowId(1), H1, H0, 0);
        rma.flags.set(Flags::RMA);
        rma.window = u32::try_from(4 * MSS).expect("window fits the 32-bit field");
        let mut fx = Effects::new();
        s.on_packet(&rma, Time(200), &mut fx);
        s
    }

    fn plain_ack(n: u64) -> Packet {
        Packet::ack(FlowId(1), H1, H0, n)
    }

    fn rma_at(ack: u64, window: u64) -> Packet {
        let mut p = Packet::ack(FlowId(1), H1, H0, ack);
        p.flags.set(Flags::RMA);
        p.window = u32::try_from(window).expect("window fits the 32-bit field");
        p
    }

    /// Seeds the RTT estimator with ~100 µs samples.
    fn seed_srtt(s: &mut TfcSender) {
        for _ in 0..4 {
            s.core.est.sample(Dur::micros(100));
        }
    }

    #[test]
    fn marks_are_spaced_at_least_half_srtt() {
        let mut s = streaming_sender();
        seed_srtt(&mut s);
        // Two RMAs arrive almost back to back (reordered by an arbiter):
        // only one mark may go out within srtt/2.
        let mut fx = Effects::new();
        s.on_packet(&rma_at(MSS, 4 * MSS), Time(300_000), &mut fx);
        let marks1 = fx
            .packets
            .iter()
            .filter(|p| p.flags.contains(Flags::RM))
            .count();
        let mut fx2 = Effects::new();
        s.on_packet(&rma_at(2 * MSS, 4 * MSS), Time(301_000), &mut fx2);
        let marks2 = fx2
            .packets
            .iter()
            .filter(|p| p.flags.contains(Flags::RM))
            .count();
        assert_eq!(marks1 + marks2, 1, "marks must not bunch");
        // Well past srtt/2 the pending mark is released.
        let mut fx3 = Effects::new();
        s.on_packet(&plain_ack(3 * MSS), Time(500_000), &mut fx3);
        assert!(fx3.packets.iter().any(|p| p.flags.contains(Flags::RM)));
    }

    #[test]
    fn rma_loss_guard_waits_two_srtt() {
        let mut s = streaming_sender();
        seed_srtt(&mut s);
        // A mark goes out at ~t=300µs.
        let mut fx = Effects::new();
        s.on_packet(&rma_at(MSS, 4 * MSS), Time(300_000), &mut fx);
        assert!(fx.packets.iter().any(|p| p.flags.contains(Flags::RM)));
        // A plain ACK covering the mark arrives quickly (its RMA is just
        // delayed in an arbiter): no re-mark yet.
        let mut fx2 = Effects::new();
        s.on_packet(&plain_ack(3 * MSS), Time(350_000), &mut fx2);
        assert!(
            !fx2.packets.iter().any(|p| p.flags.contains(Flags::RM)),
            "guard fired before 2 x srtt"
        );
        // Much later, with a plain ACK covering the whole marked packet
        // and the RMA still missing, the guard re-marks.
        let mut fx3 = Effects::new();
        s.on_packet(&plain_ack(6 * MSS), Time(900_000), &mut fx3);
        assert!(
            fx3.packets.iter().any(|p| p.flags.contains(Flags::RM)),
            "guard never recovered the lost RMA"
        );
    }
}

//! TCP NewReno sender, with the DCTCP extension as a configuration.
//!
//! This is the paper's baseline pair: TCP NewReno (the testbed's CentOS
//! stack) and DCTCP [Alizadeh et al., SIGCOMM '10]. Both share the same
//! loss recovery (fast retransmit / fast recovery, RTO with exponential
//! backoff); DCTCP adds ECT marking on data and the `alpha`-proportional
//! window reduction from ECN feedback.

use simnet::endpoint::{Effects, Note, SenderEndpoint};
use simnet::packet::{Flags, FlowId, NodeId, Packet, MSS};
use simnet::units::{Dur, Time};

use crate::send::{SendCore, Stamp};

/// TCP / DCTCP sender configuration.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Initial congestion window in bytes (RFC 3390: 3 segments for a
    /// 1460 B MSS, matching the paper-era Linux 2.6.38 default).
    pub init_cwnd: u64,
    /// Minimum retransmission timeout (Linux default: 200 ms).
    pub min_rto: Dur,
    /// Maximum retransmission timeout.
    pub max_rto: Dur,
    /// Receiver advertised window in bytes: the effective send window is
    /// `min(cwnd, awnd)`. The paper-era Linux stacks cap in-flight data
    /// this way; without it, persistent incast connections grow
    /// unbounded windows between loss events and every round bursts at
    /// full rate.
    pub awnd: u64,
    /// Whether to mark data ECN-capable and react to ECE (DCTCP).
    pub ecn: bool,
    /// DCTCP `g` (weight of new fraction in the alpha EWMA).
    pub dctcp_g: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            init_cwnd: 3 * MSS,
            min_rto: Dur::millis(200),
            max_rto: Dur::secs(60),
            awnd: 64 * 1024,
            ecn: false,
            dctcp_g: 1.0 / 16.0,
        }
    }
}

impl TcpConfig {
    /// The DCTCP variant of the default config (`g = 1/16`, as the paper
    /// sets following \[7\]).
    pub fn dctcp() -> Self {
        Self {
            ecn: true,
            ..Self::default()
        }
    }
}

#[derive(Debug)]
struct DctcpState {
    alpha: f64,
    g: f64,
    acked_bytes: u64,
    marked_bytes: u64,
    window_end: u64,
}

/// TCP NewReno sender endpoint (DCTCP when `cfg.ecn` is set).
pub struct TcpSender {
    core: SendCore,
    /// Receiver advertised window (`TcpConfig::awnd`).
    awnd: u64,
    established: bool,
    // Congestion control.
    cwnd: f64,
    ssthresh: f64,
    in_recovery: bool,
    recover: u64,
    dctcp: Option<DctcpState>,
}

impl TcpSender {
    /// Creates a sender for `flow` from `local` to `remote`; `bytes` is
    /// the sized-flow length (`None` = open-ended, fed by `push_data`).
    pub fn new(
        flow: FlowId,
        local: NodeId,
        remote: NodeId,
        bytes: Option<u64>,
        cfg: TcpConfig,
    ) -> Self {
        let dctcp = cfg.ecn.then_some(DctcpState {
            alpha: 1.0,
            g: cfg.dctcp_g,
            acked_bytes: 0,
            marked_bytes: 0,
            window_end: 0,
        });
        // DCTCP marks data, retransmissions and the FIN ECN-capable.
        let data = if cfg.ecn {
            Flags::ECT
        } else {
            Flags::default()
        };
        let stamp = Stamp {
            data,
            mark: Flags::default(),
            weight: 1,
        };
        Self {
            core: SendCore::new(flow, local, remote, bytes, cfg.min_rto, cfg.max_rto, stamp),
            awnd: cfg.awnd,
            established: false,
            cwnd: cfg.init_cwnd as f64,
            ssthresh: f64::INFINITY,
            in_recovery: false,
            recover: 0,
            dctcp,
        }
    }

    /// Sends whatever the window and stream allow.
    fn send_available(&mut self, now: Time, fx: &mut Effects) {
        if !self.established {
            return;
        }
        let wnd = (self.cwnd.max(0.0) as u64).min(self.awnd);
        // Do not split segments to fit a sub-MSS window remnant unless
        // that remnant covers the rest of the stream.
        while let Some(pkt) = self.core.next_segment(wnd, true, now) {
            fx.send(pkt);
        }
        self.core.send_tail(fx);
    }

    fn on_new_ack(&mut self, ack: u64, ece: bool, now: Time, fx: &mut Effects) {
        let acked = self.core.advance(ack, now, fx);

        if let Some(d) = &mut self.dctcp {
            d.acked_bytes += acked;
            if ece {
                d.marked_bytes += acked;
            }
        }

        if self.in_recovery {
            if ack >= self.recover {
                // Full acknowledgement: leave fast recovery.
                self.in_recovery = false;
                self.cwnd = self.ssthresh;
                fx.note(Note::WindowAcquired {
                    bytes: self.cwnd as u64,
                });
            } else {
                // Partial ack: retransmit the next hole, deflate.
                self.core.retransmit_head(fx);
                self.cwnd = (self.cwnd - acked as f64 + MSS as f64).max(MSS as f64);
            }
        } else {
            if self.cwnd < self.ssthresh {
                self.cwnd += acked.min(MSS) as f64; // slow start (ABC)
            } else {
                self.cwnd += (MSS as f64) * (MSS as f64) / self.cwnd;
            }
            // DCTCP reacts once per window of data.
            let rollover = self.dctcp.as_ref().is_some_and(|d| ack >= d.window_end);
            if rollover {
                let d = self.dctcp.as_mut().expect("checked above");
                if d.acked_bytes > 0 {
                    let f = d.marked_bytes as f64 / d.acked_bytes as f64;
                    d.alpha = (1.0 - d.g) * d.alpha + d.g * f;
                    if d.marked_bytes > 0 {
                        self.cwnd = (self.cwnd * (1.0 - d.alpha / 2.0)).max(MSS as f64);
                        self.ssthresh = self.cwnd;
                    }
                    d.acked_bytes = 0;
                    d.marked_bytes = 0;
                }
                d.window_end = self.core.snd_nxt();
            }
        }

        if !self.core.settle(fx) {
            self.send_available(now, fx);
        }
    }

    fn on_dup_ack(&mut self, now: Time, fx: &mut Effects) {
        self.core.dup_acks += 1;
        if self.in_recovery {
            // Inflate and try to keep the pipe full.
            self.cwnd += MSS as f64;
            self.send_available(now, fx);
        } else if self.core.dup_acks == 3 {
            self.ssthresh = (self.core.outstanding() as f64 / 2.0).max(2.0 * MSS as f64);
            self.recover = self.core.snd_nxt();
            self.in_recovery = true;
            self.core.retransmit_head(fx);
            self.cwnd = self.ssthresh + 3.0 * MSS as f64;
            fx.note(Note::WindowAcquired {
                bytes: self.cwnd as u64,
            });
        }
    }

    /// Congestion state for tests and diagnostics: `(cwnd, ssthresh,
    /// in_recovery)`.
    pub fn cc_state(&self) -> (f64, f64, bool) {
        (self.cwnd, self.ssthresh, self.in_recovery)
    }

    /// DCTCP alpha (1.0 initially), if ECN mode is on.
    pub fn dctcp_alpha(&self) -> Option<f64> {
        self.dctcp.as_ref().map(|d| d.alpha)
    }
}

impl SenderEndpoint for TcpSender {
    fn open(&mut self, _now: Time, fx: &mut Effects) {
        // Until the SYN-ACK, a SYN in flight always has its RTO armed.
        if !self.established && !self.core.timer_armed() {
            self.core.emit_syn(fx);
        }
    }

    fn push_data(&mut self, bytes: u64, now: Time, fx: &mut Effects) {
        self.core.push(bytes);
        self.send_available(now, fx);
    }

    fn close(&mut self, now: Time, fx: &mut Effects) {
        self.core.close();
        self.send_available(now, fx);
    }

    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects) {
        if pkt.flags.contains(Flags::SYN) && pkt.flags.contains(Flags::ACK) {
            if !self.established {
                self.established = true;
                self.core.disarm_timer(fx);
                fx.note(Note::Established);
                self.send_available(now, fx);
            }
            return;
        }
        if !pkt.flags.contains(Flags::ACK) || !self.established {
            return;
        }
        let ece = pkt.flags.contains(Flags::ECE);
        let ack = self.core.clamp_ack(pkt.ack);
        if ack > self.core.snd_una() {
            self.on_new_ack(ack, ece, now, fx);
        } else if ack == self.core.snd_una() && self.core.outstanding() > 0 {
            self.on_dup_ack(now, fx);
        }
    }

    fn on_timer(&mut self, token: u64, _now: Time, fx: &mut Effects) {
        if !self.core.take_timer(token) {
            return;
        }
        if !self.established {
            // SYN loss.
            fx.note(Note::Timeout);
            self.core.est.back_off();
            self.core.emit_syn(fx);
            return;
        }
        if self.core.outstanding() == 0 {
            return;
        }
        fx.note(Note::Timeout);
        self.ssthresh = (self.core.outstanding() as f64 / 2.0).max(2.0 * MSS as f64);
        self.cwnd = MSS as f64;
        fx.note(Note::WindowAcquired {
            bytes: self.cwnd as u64,
        });
        self.in_recovery = false;
        self.core.est.back_off();
        self.core.go_back_n(fx);
    }

    fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    fn acked_bytes(&self) -> u64 {
        self.core.acked_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H0: NodeId = NodeId(0);
    const H1: NodeId = NodeId(1);

    fn sender(bytes: u64) -> TcpSender {
        TcpSender::new(FlowId(1), H0, H1, Some(bytes), TcpConfig::default())
    }

    fn establish(s: &mut TcpSender) -> Effects {
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        assert!(fx.packets[0].flags.contains(Flags::SYN));
        let mut synack = Packet::ack(FlowId(1), H1, H0, 0);
        synack.flags.set(Flags::SYN);
        let mut fx2 = Effects::new();
        s.on_packet(&synack, Time(1_000), &mut fx2);
        fx2
    }

    fn ack(n: u64) -> Packet {
        Packet::ack(FlowId(1), H1, H0, n)
    }

    #[test]
    fn initial_window_after_handshake() {
        let mut s = sender(100_000);
        let fx = establish(&mut s);
        assert!(fx.notes.contains(&Note::Established));
        // 3 * MSS initial window: 3 full segments.
        let data: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert_eq!(data.len(), 3);
        assert_eq!(data[0].seq, 0);
        assert_eq!(data[2].seq, 2 * MSS);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender(1_000_000);
        establish(&mut s);
        let mut fx = Effects::new();
        s.on_packet(&ack(MSS), Time(2_000), &mut fx);
        // cwnd grew by one MSS: one ACK releases two segments.
        let sent = fx.packets.iter().filter(|p| p.is_data()).count();
        assert_eq!(sent, 2);
    }

    #[test]
    fn dup_acks_trigger_fast_retransmit() {
        let mut s = sender(1_000_000);
        establish(&mut s);
        for _ in 0..2 {
            let mut fx = Effects::new();
            s.on_packet(&ack(0), Time(2_000), &mut fx);
            assert!(fx.packets.is_empty());
        }
        let mut fx = Effects::new();
        s.on_packet(&ack(0), Time(2_000), &mut fx);
        assert!(fx.notes.contains(&Note::Retransmit));
        let rtx = fx.packets.iter().find(|p| p.is_data()).expect("retransmit");
        assert_eq!(rtx.seq, 0);
        assert!(s.cc_state().2, "in recovery");
    }

    #[test]
    fn full_ack_exits_recovery_at_ssthresh() {
        let mut s = sender(1_000_000);
        establish(&mut s);
        for _ in 0..3 {
            let mut fx = Effects::new();
            s.on_packet(&ack(0), Time(2_000), &mut fx);
        }
        let recover = s.recover;
        let mut fx = Effects::new();
        s.on_packet(&ack(recover), Time(3_000), &mut fx);
        let (cwnd, ssthresh, in_rec) = s.cc_state();
        assert!(!in_rec);
        assert_eq!(cwnd, ssthresh);
    }

    #[test]
    fn rto_collapses_window_and_retransmits() {
        let mut s = sender(1_000_000);
        let fx = establish(&mut s);
        let rto_token = fx
            .timers
            .last()
            .map(|&(_, tok)| tok)
            .expect("timer armed after handshake data");
        let mut fx2 = Effects::new();
        s.on_timer(rto_token, Time::ZERO + Dur::millis(200), &mut fx2);
        assert!(fx2.notes.contains(&Note::Timeout));
        assert_eq!(s.cwnd(), MSS);
        let rtx = fx2.packets.iter().find(|p| p.is_data()).expect("rtx");
        assert_eq!(rtx.seq, 0);
    }

    #[test]
    fn stale_timer_ignored() {
        let mut s = sender(1_000_000);
        let fx = establish(&mut s);
        let stale = fx.timers.last().unwrap().1;
        // Progress: ACK arrives, rearming with a new generation.
        let mut fx2 = Effects::new();
        s.on_packet(&ack(MSS), Time(2_000), &mut fx2);
        let mut fx3 = Effects::new();
        s.on_timer(stale, Time(3_000), &mut fx3);
        assert!(fx3.notes.is_empty());
        assert!(fx3.packets.is_empty());
    }

    #[test]
    fn fin_sent_and_done_on_final_ack() {
        let mut s = sender(1_000); // single sub-MSS segment
        let fx = establish(&mut s);
        let data: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].payload, 1_000);
        let fin = fx
            .packets
            .iter()
            .find(|p| p.flags.contains(Flags::FIN))
            .expect("fin");
        assert_eq!(fin.seq, 1_000);
        let mut fx2 = Effects::new();
        s.on_packet(&ack(1_001), Time(5_000), &mut fx2);
        assert!(fx2.notes.contains(&Note::SenderDone));
    }

    #[test]
    fn syn_loss_retries() {
        let mut s = sender(1_000);
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let tok = fx.timers[0].1;
        let mut fx2 = Effects::new();
        s.on_timer(tok, Time::ZERO + Dur::millis(200), &mut fx2);
        assert!(fx2.notes.contains(&Note::Timeout));
        assert!(fx2.packets[0].flags.contains(Flags::SYN));
    }

    #[test]
    fn congestion_avoidance_linear() {
        let mut s = sender(10_000_000);
        establish(&mut s);
        // Force CA by setting up a loss + recovery exit.
        for _ in 0..3 {
            let mut fx = Effects::new();
            s.on_packet(&ack(0), Time(2_000), &mut fx);
        }
        let recover = s.recover;
        let mut fx = Effects::new();
        s.on_packet(&ack(recover), Time(3_000), &mut fx);
        let (cwnd0, ssthresh, _) = s.cc_state();
        assert!(cwnd0 >= ssthresh);
        let una = s.core.snd_una();
        let mut fx = Effects::new();
        s.on_packet(&ack(una + MSS), Time(4_000), &mut fx);
        let (cwnd1, _, _) = s.cc_state();
        let growth = cwnd1 - cwnd0;
        assert!(growth > 0.0 && growth <= MSS as f64);
    }

    #[test]
    fn dctcp_alpha_tracks_marks() {
        let mut s = TcpSender::new(FlowId(1), H0, H1, Some(10_000_000), TcpConfig::dctcp());
        establish(&mut s);
        assert_eq!(s.dctcp_alpha(), Some(1.0));
        // Every byte of the first window marked: alpha stays high and the
        // window is cut.
        let mut marked = ack(3 * MSS);
        marked.flags.set(Flags::ECE);
        let mut fx = Effects::new();
        let cwnd_before = s.cwnd();
        s.on_packet(&marked, Time(2_000), &mut fx);
        assert!(s.cwnd() < cwnd_before + MSS);
        // Unmarked windows decay alpha.
        let mut a_prev = s.dctcp_alpha().unwrap();
        for i in 2..20 {
            let mut fx = Effects::new();
            s.on_packet(&ack(i * 3 * MSS), Time(2_000 + i), &mut fx);
            let a = s.dctcp_alpha().unwrap();
            assert!(a <= a_prev);
            a_prev = a;
        }
        assert!(a_prev < 0.5);
    }

    #[test]
    fn dctcp_sets_ect_on_data() {
        let mut s = TcpSender::new(FlowId(1), H0, H1, Some(10_000), TcpConfig::dctcp());
        let fx = establish(&mut s);
        for p in fx.packets.iter().filter(|p| p.is_data()) {
            assert!(p.flags.contains(Flags::ECT));
        }
    }

    #[test]
    fn open_ended_push_and_close() {
        let mut s = TcpSender::new(FlowId(1), H0, H1, None, TcpConfig::default());
        establish(&mut s);
        let mut fx = Effects::new();
        s.push_data(500, Time(2_000), &mut fx);
        assert_eq!(fx.packets[0].payload, 500);
        let mut fx2 = Effects::new();
        s.on_packet(&ack(500), Time(3_000), &mut fx2);
        let mut fx3 = Effects::new();
        s.close(Time(4_000), &mut fx3);
        assert!(fx3.packets[0].flags.contains(Flags::FIN));
    }
}

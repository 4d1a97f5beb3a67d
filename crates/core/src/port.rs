//! The per-port token engine: §4 of the paper as a pure state machine.
//!
//! One [`TokenEngine`] instance manages one switch egress port. It
//! implements the paper's five switch modules that sit on the data path
//! of §5.2 — RTT timer, N (effective-flow) counter, rho counter, token
//! allocator, and window calculator — without touching the simulator, so
//! it can be unit-tested directly.

use simnet::packet::{FlowId, Packet, RTT_PROBE_FRAME};
use simnet::units::{Bandwidth, Dur, Time};

use crate::config::TfcSwitchConfig;

/// Per-slot measurements published when a slot closes (for tracing and
/// tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotReport {
    /// Number of effective flows measured in the closed slot.
    pub effective_flows: f64,
    /// Instantaneous slot length (`rtt_m`).
    pub rtt_m: Dur,
    /// Minimum filtered base RTT (`rtt_b`).
    pub rtt_b: Dur,
    /// Measured utilisation of the slot.
    pub rho: f64,
    /// Smoothed token value in bytes after adjustment.
    pub token_bytes: f64,
    /// Window for the next slot, in bytes.
    pub window_bytes: u64,
}

/// The token engine for one egress port.
///
/// Feed it every data-direction packet with
/// [`on_data`](TokenEngine::on_data); it returns `Some(SlotReport)` when
/// the packet was the delimiter flow's round mark and a slot closed. Read
/// the current window with [`window`](TokenEngine::window) to stamp RM
/// packets.
///
/// The engine holds only its port's state. The switch config is the
/// same for every port of a switch, so the caller passes it to the
/// methods that read it instead of each engine keeping a copy.
#[derive(Debug, Clone)]
pub struct TokenEngine {
    rate: Bandwidth,
    delimiter: Option<FlowId>,
    slot_start: Time,
    /// Count of round marks seen this slot. The paper's Event 1 resets
    /// `E = 1` at slot close (the delimiter's own mark).
    e_count: f64,
    arrived_bytes: u64,
    rtt_b: Dur,
    rtt_m: Dur,
    /// Effective-flow count of the previous slot (for the §4.3 two-slot
    /// average).
    e_prev: Option<f64>,
    token: f64,
    window: u64,
    /// Set when the delimiter timed out; the next RM from any flow is
    /// adopted as the new delimiter.
    rearm: bool,
    miss_k: u32,
    /// What the token is sized from: the configured guess, the
    /// handshake's interval, or a measured `rtt_b`.
    pipe: Pipe,
    /// Wire size, up to a full frame, of the RM that opened the current
    /// slot (see [`frame_size`]). `rtt_b` intervals are only valid
    /// between two full frames (§4.4): store-and-forward time depends
    /// on frame size, so a slot opened by a small probe and closed by a
    /// data packet reads short. Two frames of one size time a clean
    /// round trip, but a small one's lacks the data frame's
    /// serialisation, so it only sizes a provisional pipe.
    slot_opener_wire: u16,
}

/// A packet's wire size, with every full frame (§4.4) the same.
fn frame_size(pkt: &Packet) -> u16 {
    pkt.wire_bytes().min(RTT_PROBE_FRAME) as u16
}

const FULL: u16 = RTT_PROBE_FRAME as u16;

/// What a port's token is sized from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pipe {
    /// Nothing measured: the token is the configured `c × init_rttb`,
    /// and stamps are capped at [`TokenEngine::COLD_START_CAP`].
    Guess,
    /// Provisional: the first same-size small-frame interval (the
    /// delimiter's SYN to its window-acquisition probe), if shorter
    /// than `init_rttb`, snapped the token to `c × rtt_m × rho0`.
    /// `rtt_b` is still the guess.
    Handshake,
    /// `rtt_b` measured between two full frames.
    Measured,
}

impl TokenEngine {
    /// Creates an engine for a port of the given line rate.
    pub fn new(rate: Bandwidth, cfg: &TfcSwitchConfig) -> Self {
        let init_token = rate.bytes_per_sec() * cfg.init_rttb.as_secs_f64();
        Self {
            rate,
            delimiter: None,
            slot_start: Time::ZERO,
            e_count: 1.0,
            arrived_bytes: 0,
            rtt_b: cfg.init_rttb,
            rtt_m: cfg.init_rttb,
            e_prev: None,
            token: init_token,
            window: init_token as u64,
            rearm: false,
            miss_k: 0,
            pipe: Pipe::Guess,
            slot_opener_wire: 0,
        }
    }

    /// Current window (bytes) to stamp into RM packets.
    ///
    /// Until the port has timed any round trip the stamp is capped at a
    /// few segments: the configured initial pipe (`c × 160 µs`) can be
    /// an order above the true one, and stamping it into a burst of
    /// establishing flows builds a standing queue that then inflates
    /// every subsequent RTT measurement (the queue hides the base RTT
    /// from the min filter). The delimiter's handshake usually lifts the
    /// cap before its first data round: the interval from its SYN to
    /// its window probe sizes a provisional pipe. The cap is the
    /// fallback when it did not.
    pub fn window(&self) -> u64 {
        self.capped(self.window)
    }

    fn capped(&self, w: u64) -> u64 {
        if self.pipe == Pipe::Guess {
            w.min(Self::COLD_START_CAP)
        } else {
            w
        }
    }

    /// Line rate of the port.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Current smoothed token value in bytes.
    pub fn token_bytes(&self) -> f64 {
        self.token
    }

    /// Base RTT estimate.
    pub fn rtt_b(&self) -> Dur {
        self.rtt_b
    }

    /// Last instantaneous slot length.
    pub fn rtt_m(&self) -> Dur {
        self.rtt_m
    }

    /// The current delimiter flow, if armed.
    pub fn delimiter(&self) -> Option<FlowId> {
        self.delimiter
    }

    /// Current delimiter-miss exponent (diagnostics).
    pub fn miss_k(&self) -> u32 {
        self.miss_k
    }

    /// When the current slot opened (adoption or last close).
    pub fn slot_start(&self) -> Time {
        self.slot_start
    }

    /// Token divided by the round marks counted *so far* in the open
    /// slot. In steady state this is at least the computed window (the
    /// live count has not reached `E` yet), so min-clamping stamps with
    /// it changes nothing; during a concurrent-arrival burst (incast
    /// establishment) it caps the k-th new flow at `token / k` instead
    /// of everyone receiving the stale single-flow window.
    pub fn live_window(&self) -> u64 {
        self.capped((self.token / self.e_count.max(1.0)).max(1.0) as u64)
    }

    /// Pre-measurement stamp cap: four full segments.
    pub const COLD_START_CAP: u64 = 4 * simnet::packet::MSS;

    /// Window for a flow of the given allocation weight:
    /// `weight × token / E` (the unit-weight [`window`](Self::window)
    /// scaled), with the same cold-start cap.
    pub fn window_for(&self, weight: u8) -> u64 {
        self.capped(self.window.saturating_mul(weight.max(1) as u64))
    }

    /// Weighted variant of [`live_window`](Self::live_window).
    pub fn live_window_for(&self, weight: u8) -> u64 {
        self.live_window().saturating_mul(weight.max(1) as u64)
    }

    /// Processes a data-direction packet headed out this port
    /// (the paper's Event 1). Returns a report when a slot closed.
    pub fn on_data(
        &mut self,
        cfg: &TfcSwitchConfig,
        pkt: &Packet,
        now: Time,
    ) -> Option<SlotReport> {
        self.arrived_bytes += pkt.wire_bytes();
        if !pkt.flags.contains(simnet::packet::Flags::RM) {
            return None;
        }
        match self.delimiter {
            None => {
                self.adopt(pkt, now);
                None
            }
            Some(d) if d == pkt.flow => Some(self.close_slot(cfg, pkt, now)),
            Some(_) if self.rearm => {
                // The old delimiter timed out; switch to this flow.
                self.adopt(pkt, now);
                None
            }
            Some(_) => {
                // Weighted-allocation extension: a weight-w flow counts
                // as w consumers (§4.1's "any allocation policies").
                self.e_count += pkt.weight.max(1) as f64;
                None
            }
        }
    }

    /// Handles a FIN from the current delimiter flow: the port re-arms on
    /// the next round mark (§5.2, "when the current delimiter flow
    /// ends").
    pub fn on_fin(&mut self, flow: FlowId) {
        if self.delimiter == Some(flow) {
            self.delimiter = None;
            self.rearm = false;
            self.miss_k = 0;
        }
    }

    /// Delimiter-miss check (the `2^k × rtt_last` timer of §5.2).
    /// Returns the delay until the next check, or `None` when the miss
    /// budget is exhausted and the port has fully re-armed.
    pub fn on_miss_timer(
        &mut self,
        cfg: &TfcSwitchConfig,
        armed_at: Time,
        now: Time,
    ) -> Option<Dur> {
        if self.slot_start > armed_at || self.delimiter.is_none() {
            // A slot closed (or the delimiter was replaced) since the
            // timer was armed; the caller re-arms on the next close.
            return None;
        }
        let _ = now;
        self.rearm = true;
        if self.miss_k >= cfg.max_miss_k {
            // Give up on the delimiter entirely.
            self.delimiter = None;
            self.miss_k = 0;
            return None;
        }
        self.miss_k += 1;
        Some(self.miss_delay(cfg))
    }

    /// Current miss-timer delay: `2^(k+1) × rtt_last` (§5.2: the first
    /// re-catch happens after `2 × rtt_last`, the second after
    /// `4 × rtt_last`, and so on).
    pub fn miss_delay(&self, cfg: &TfcSwitchConfig) -> Dur {
        Dur(self.rtt_m.as_nanos() << (self.miss_k.min(cfg.max_miss_k) + 1))
    }

    fn adopt(&mut self, pkt: &Packet, now: Time) {
        self.delimiter = Some(pkt.flow);
        self.slot_start = now;
        self.e_count = pkt.weight.max(1) as f64;
        self.arrived_bytes = 0;
        self.rearm = false;
        // Deliberately keep `miss_k`: §5.2 escalates the re-catch delay
        // (2×, 4×, ... rtt_last) across successive re-adoptions, and the
        // escalation is what lets the check outlast a round that is
        // longer than the stale `rtt_m` (e.g. the sub-MSS paced regime).
        // A real slot close resets it.
        self.slot_opener_wire = frame_size(pkt);
    }

    fn close_slot(&mut self, cfg: &TfcSwitchConfig, pkt: &Packet, now: Time) -> SlotReport {
        let rtt_m = now.since(self.slot_start);
        if rtt_m > Dur::ZERO {
            self.rtt_m = rtt_m;
        }
        // §4.4: only intervals between two full frames measure the base
        // RTT, because store-and-forward time depends on frame size.
        let closer = frame_size(pkt);
        let full = closer == FULL && self.slot_opener_wire == FULL;
        let mut snapped = None;
        if full && rtt_m > Dur::ZERO {
            self.rtt_b = self.rtt_b.min(rtt_m);
            if self.pipe != Pipe::Measured {
                // First real measurement: snap the token to the measured
                // pipe instead of EWMA-dragging from the initial guess.
                self.pipe = Pipe::Measured;
                snapped = Some(self.rtt_b);
            }
        } else if closer == self.slot_opener_wire
            && self.pipe == Pipe::Guess
            && rtt_m > Dur::ZERO
            && rtt_m < cfg.init_rttb
        {
            // Same-size small frames: a provisional pipe that keeps the
            // min filter clean. An interval stretched past the guess
            // (a deferred probe, a queue) is no evidence: keep the cap.
            self.pipe = Pipe::Handshake;
            snapped = Some(rtt_m);
        }
        if let Some(rtt) = snapped {
            self.token = self.rate.bytes_per_sec() * rtt.as_secs_f64() * cfg.rho0;
        }
        self.slot_opener_wire = closer;
        let rtt_for_token = if cfg.decouple_rtt {
            self.rtt_b
        } else {
            self.rtt_m
        };
        let pipe = self.rate.bytes_per_sec() * rtt_for_token.as_secs_f64();
        let slot_capacity = self.rate.bytes_per_sec() * self.rtt_m.as_secs_f64();
        let rho_raw = self.arrived_bytes as f64 / slot_capacity.max(1.0);
        let raw_token = if cfg.token_adjustment && rho_raw >= cfg.rho_floor {
            // Eq. 7: the rho0 / rho correction, with rho measured over
            // the instantaneous slot. In integral mode the ratio applies
            // to the current token (see `TfcSwitchConfig`).
            let base = if cfg.integral_adjustment {
                self.token
            } else {
                pipe
            };
            (base * cfg.rho0 / rho_raw).clamp(pipe * 0.25, pipe * cfg.token_boost_cap)
        } else if cfg.token_adjustment {
            // Nearly empty slot: idle gaps carry no demand signal, so
            // boosting on them would inflate the token right before the
            // next burst (e.g. between barrier-synchronised incast
            // rounds). Hold the token instead.
            self.token
        } else {
            pipe * cfg.rho0
        };
        // Eq. 8: EWMA with history weight alpha. The snap slot keeps the
        // freshly measured pipe as-is.
        if snapped.is_none() {
            self.token = cfg.alpha * self.token + (1.0 - cfg.alpha) * raw_token;
        }
        let e_now = self.e_count.max(1.0);
        let e = if cfg.e_two_slot_average {
            let avg = (e_now + self.e_prev.unwrap_or(e_now)) / 2.0;
            self.e_prev = Some(e_now);
            avg
        } else {
            e_now
        };
        self.window = (self.token / e).max(1.0) as u64;

        let report = SlotReport {
            effective_flows: e_now,
            rtt_m: self.rtt_m,
            rtt_b: self.rtt_b,
            rho: rho_raw,
            token_bytes: self.token,
            window_bytes: self.window,
        };
        // Paper Event 1: "Let E = 1 and tstart = tnow" — the delimiter's
        // own mark opens the next slot (its weight's worth of consumers).
        self.e_count = pkt.weight.max(1) as f64;
        self.arrived_bytes = 0;
        self.slot_start = now;
        self.miss_k = 0;
        self.rearm = false;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::packet::{Flags, NodeId, MSS};
    use simnet::units::Bandwidth;

    const GBPS: Bandwidth = Bandwidth(1_000_000_000);

    fn rm_data(flow: u64, payload: u64) -> Packet {
        let mut p = Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, payload);
        p.flags.set(Flags::RM);
        p
    }

    fn data(flow: u64, payload: u64) -> Packet {
        Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, payload)
    }

    fn cfg() -> TfcSwitchConfig {
        TfcSwitchConfig::default()
    }

    fn engine() -> TokenEngine {
        TokenEngine::new(GBPS, &cfg())
    }

    #[test]
    fn initial_window_is_cold_start_capped() {
        let mut e = engine();
        // Pre-measurement: capped at four segments, not c × 160 µs.
        assert_eq!(e.window(), TokenEngine::COLD_START_CAP);
        // After a full-frame interval the cap lifts and the token snaps
        // to the measured pipe.
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        e.on_data(&cfg(), &rm_data(1, MSS), Time(100_000));
        assert!(e.window() > TokenEngine::COLD_START_CAP);
        // Pipe = 1 Gbps × 100 µs × 0.97 = 12_125 B (one flow).
        assert!((e.token_bytes() - 12_125.0).abs() < 500.0);
    }

    /// The delimiter's SYN and its window-acquisition probe: two marked
    /// 64 B frames one round trip apart.
    fn rm_bare(flow: u64) -> Packet {
        rm_data(flow, 0)
    }

    #[test]
    fn handshake_interval_lifts_the_cap_but_not_rtt_b() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_bare(1), Time(0));
        let r = e.on_data(&cfg(), &rm_bare(1), Time(100_000)).unwrap();
        // A provisional pipe: 1 Gbps × 100 µs × 0.97 = 12_125 B.
        assert!((r.token_bytes - 12_125.0).abs() < 1.0);
        assert_eq!(e.window(), 12_125);
        assert_eq!(e.live_window(), 12_125);
        assert_eq!(e.window_for(2), 24_250);
        // The min filter never saw the small frames.
        assert_eq!(e.rtt_b(), cfg().init_rttb);
    }

    #[test]
    fn first_full_sample_resnaps_after_the_handshake() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_bare(1), Time(0));
        e.on_data(&cfg(), &rm_bare(1), Time(100_000));
        // The first data round: a full-frame mark opens, another closes.
        e.on_data(&cfg(), &rm_data(1, MSS), Time(180_000));
        let r = e.on_data(&cfg(), &rm_data(1, MSS), Time(260_000)).unwrap();
        assert_eq!(e.rtt_b(), Dur::micros(80));
        // Snapped to 1 Gbps × 80 µs × 0.97, not EWMA-dragged.
        assert!((r.token_bytes - 9_700.0).abs() < 1.0);
    }

    #[test]
    fn handshake_interval_at_or_over_the_guess_keeps_the_cap() {
        for interval in [160_000, 400_000] {
            let mut e = engine();
            e.on_data(&cfg(), &rm_bare(1), Time(0));
            e.on_data(&cfg(), &rm_bare(1), Time(interval));
            assert_eq!(e.window(), TokenEngine::COLD_START_CAP, "{interval} ns");
            assert_eq!(e.rtt_b(), cfg().init_rttb);
        }
    }

    #[test]
    fn small_opener_and_full_closer_never_touch_rtt_b_or_the_cap() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_bare(1), Time(0));
        e.on_data(&cfg(), &rm_data(1, MSS), Time(50_000));
        assert_eq!(e.rtt_b(), cfg().init_rttb);
        assert_eq!(e.window(), TokenEngine::COLD_START_CAP);
        // Small frames of two sizes are no clean round trip either.
        e.on_data(&cfg(), &rm_data(1, 300), Time(100_000));
        e.on_data(&cfg(), &rm_bare(1), Time(150_000));
        assert_eq!(e.window(), TokenEngine::COLD_START_CAP);
        // Nor is a same-size pair once `rtt_b` is measured.
        e.on_data(&cfg(), &rm_data(1, MSS), Time(200_000));
        e.on_data(&cfg(), &rm_data(1, MSS), Time(300_000));
        let token = e.token_bytes();
        e.on_data(&cfg(), &rm_bare(1), Time(310_000));
        e.on_data(&cfg(), &rm_bare(1), Time(320_000));
        assert_eq!(e.rtt_b(), Dur::micros(100));
        assert_eq!(e.token_bytes(), token, "an idle slot holds the token");
    }

    #[test]
    fn first_rm_adopts_delimiter() {
        let mut e = engine();
        assert!(e.on_data(&cfg(), &rm_data(7, MSS), Time(1_000)).is_none());
        assert_eq!(e.delimiter(), Some(FlowId(7)));
    }

    #[test]
    fn slot_counts_effective_flows() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        // Two other flows mark once, delimiter closes the slot.
        e.on_data(&cfg(), &rm_data(2, MSS), Time(10_000));
        e.on_data(&cfg(), &rm_data(3, MSS), Time(20_000));
        let report = e
            .on_data(&cfg(), &rm_data(1, MSS), Time(100_000))
            .expect("slot closes");
        assert_eq!(report.effective_flows, 3.0);
        assert_eq!(report.rtt_m, Dur::micros(100));
    }

    #[test]
    fn window_is_token_over_e() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        for f in 2..=4 {
            e.on_data(&cfg(), &rm_data(f, MSS), Time(1_000 * f));
        }
        let r = e.on_data(&cfg(), &rm_data(1, MSS), Time(160_000)).unwrap();
        assert_eq!(r.effective_flows, 4.0);
        assert_eq!(r.window_bytes, (r.token_bytes / 4.0) as u64);
    }

    #[test]
    fn rtt_b_takes_minimum_full_frames_only() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        // A small marked frame closes a slot but must not update rtt_b.
        e.on_data(&cfg(), &rm_data(1, 100), Time(50_000));
        assert_eq!(e.rtt_b(), Dur::micros(160));
        // An interval opened by the small frame is invalid too, even if
        // closed by a full frame.
        e.on_data(&cfg(), &rm_data(1, MSS), Time(150_000));
        assert_eq!(e.rtt_b(), Dur::micros(160));
        // A full-frame-to-full-frame interval finally measures.
        e.on_data(&cfg(), &rm_data(1, MSS), Time(250_000));
        assert_eq!(e.rtt_b(), Dur::micros(100));
        // Larger samples never raise it back.
        e.on_data(&cfg(), &rm_data(1, MSS), Time(550_000));
        assert_eq!(e.rtt_b(), Dur::micros(100));
    }

    #[test]
    fn token_adjustment_boosts_underutilised_link() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        // Slots of 160 µs carrying 8 packets: rho = 0.6, well above the
        // idle threshold but below rho0, so the token must be boosted
        // past the pipe (20 kB).
        let mut last = 0.0;
        for i in 1..=60u64 {
            for _ in 0..7 {
                e.on_data(&cfg(), &data(2, MSS), Time(i * 160_000 - 1));
            }
            if let Some(r) = e.on_data(&cfg(), &rm_data(1, MSS), Time(i * 160_000)) {
                last = r.token_bytes;
            }
        }
        assert!(last > 20_000.0, "token should grow, got {last}");
        // Bounded by the boost cap.
        let cap = 4.0 * 1.25e8 * 160e-6;
        assert!(last <= cap * 1.01);
    }

    #[test]
    fn idle_slots_hold_the_token() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        e.on_data(&cfg(), &rm_data(1, MSS), Time(160_000));
        let after_snap = e.token_bytes();
        // Near-empty slots (one mark each, rho ≈ 0.075) must not move
        // the token.
        for i in 2..=20u64 {
            e.on_data(&cfg(), &rm_data(1, MSS), Time(i * 160_000));
        }
        assert_eq!(e.token_bytes(), after_snap);
    }

    #[test]
    fn token_adjustment_shrinks_overloaded_link() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        // Stuff 3 pipes' worth of arrivals into each slot: rho = 3.
        for i in 1..=40u64 {
            for _ in 0..40 {
                e.on_data(&cfg(), &data(2, MSS), Time(i * 160_000 - 1));
            }
            e.on_data(&cfg(), &rm_data(1, MSS), Time(i * 160_000));
        }
        // rho ≈ 3 ⇒ token ≈ pipe × 0.97 / 3.
        let expect = 20_000.0 * 0.97 / 3.0;
        assert!(
            (e.token_bytes() - expect).abs() / expect < 0.25,
            "token {} vs expected {expect}",
            e.token_bytes()
        );
    }

    #[test]
    fn ablation_disables_adjustment() {
        let cfg = TfcSwitchConfig {
            token_adjustment: false,
            ..Default::default()
        };
        let mut e = TokenEngine::new(GBPS, &cfg);
        e.on_data(&cfg, &rm_data(1, MSS), Time(0));
        for i in 1..=40u64 {
            e.on_data(&cfg, &rm_data(1, MSS), Time(i * 160_000));
        }
        // Without adjustment the token settles at rho0 × pipe.
        assert!((e.token_bytes() - 0.97 * 20_000.0).abs() < 200.0);
    }

    #[test]
    fn fin_clears_delimiter_and_next_rm_adopts() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        e.on_fin(FlowId(1));
        assert_eq!(e.delimiter(), None);
        e.on_data(&cfg(), &rm_data(9, MSS), Time(1_000));
        assert_eq!(e.delimiter(), Some(FlowId(9)));
    }

    #[test]
    fn foreign_fin_does_not_clear() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        e.on_fin(FlowId(2));
        assert_eq!(e.delimiter(), Some(FlowId(1)));
    }

    #[test]
    fn miss_timer_rearms_on_other_flow() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        // Timer armed at t=0 fires later with no delimiter RM in between.
        let next = e.on_miss_timer(&cfg(), Time(0), Time(320_000));
        assert!(next.is_some());
        // Another flow's RM is now adopted.
        e.on_data(&cfg(), &rm_data(2, MSS), Time(330_000));
        assert_eq!(e.delimiter(), Some(FlowId(2)));
    }

    #[test]
    fn miss_timer_noop_when_slot_progressed() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        e.on_data(&cfg(), &rm_data(1, MSS), Time(100_000)); // slot closed
        assert_eq!(e.on_miss_timer(&cfg(), Time(0), Time(320_000)), None);
        assert_eq!(e.delimiter(), Some(FlowId(1)));
    }

    #[test]
    fn miss_budget_exhausts_to_full_rearm() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        let mut armed = Time(0);
        let mut fired = 0;
        while let Some(d) = e.on_miss_timer(&cfg(), armed, Time(armed.nanos() + 1)) {
            armed = Time(armed.nanos() + d.as_nanos());
            fired += 1;
            assert!(fired < 100, "miss loop must terminate");
        }
        assert_eq!(e.delimiter(), None);
        assert_eq!(fired, TfcSwitchConfig::default().max_miss_k);
    }

    #[test]
    fn miss_delay_doubles() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        let d0 = e.miss_delay(&cfg());
        e.on_miss_timer(&cfg(), Time(0), Time(400_000));
        let d1 = e.miss_delay(&cfg());
        assert_eq!(d1.as_nanos(), d0.as_nanos() * 2);
    }

    #[test]
    fn weighted_flows_count_as_multiple_consumers() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        // A weight-3 flow's mark counts as three consumers.
        let mut heavy = rm_data(2, MSS);
        heavy.weight = 3;
        e.on_data(&cfg(), &heavy, Time(10_000));
        let r = e.on_data(&cfg(), &rm_data(1, MSS), Time(160_000)).unwrap();
        assert_eq!(r.effective_flows, 4.0);
        // And its stamp is three unit windows.
        assert_eq!(e.window_for(3), e.window().saturating_mul(3));
    }

    /// Packet spray (ECMP): during route churn one flow transiently
    /// holds delimiter slots on several ports of the same switch. The
    /// engines are fully independent, so each port adopts it, counts
    /// its own E from the marks it actually sees, and computes its own
    /// window — and a FIN releases the slot at *every* port holding it.
    #[test]
    fn sprayed_flow_holds_slots_on_several_ports() {
        let mut a = engine();
        let mut b = engine();
        // Flow 1's marks reach both ports (spray); flow 2 rides port a
        // only.
        a.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        b.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        assert_eq!(a.delimiter(), Some(FlowId(1)));
        assert_eq!(b.delimiter(), Some(FlowId(1)));
        a.on_data(&cfg(), &rm_data(2, MSS), Time(50_000));
        let ra = a.on_data(&cfg(), &rm_data(1, MSS), Time(160_000)).unwrap();
        let rb = b.on_data(&cfg(), &rm_data(1, MSS), Time(160_000)).unwrap();
        // Per-port E reflects per-port marks: the shared port sees two
        // consumers, the private one only the sprayed flow.
        assert_eq!(ra.effective_flows, 2.0);
        assert_eq!(rb.effective_flows, 1.0);
        // The flow's end-to-end stamp is the min along its path, i.e.
        // the busier port governs.
        assert!(a.window() <= b.window());
        // FIN releases the slot everywhere it was held.
        a.on_fin(FlowId(1));
        b.on_fin(FlowId(1));
        assert_eq!(a.delimiter(), None);
        assert_eq!(b.delimiter(), None);
    }

    /// Route repair moves a flow off a port mid-stream: while no round
    /// mark arrives, the abandoned port's miss timer escalates (2×, 4×,
    /// ... `rtt_m`) until the budget is spent and the delimiter is
    /// dropped; the next round mark is then adopted — the slot is never
    /// leaked to a flow that no longer maps there.
    #[test]
    fn migrated_delimiter_is_reclaimed_by_the_miss_timer() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        e.on_data(&cfg(), &rm_data(1, MSS), Time(160_000)); // steady slot
                                                            // Flow 1 reroutes away; no mark reaches the port.
        let armed = Time(160_000);
        let mut delays = Vec::new();
        while let Some(d) = e.on_miss_timer(&cfg(), armed, Time(armed.nanos() + 1)) {
            delays.push(d);
            assert!(
                delays.len() <= cfg().max_miss_k as usize,
                "budget bounds the re-arms"
            );
        }
        assert!(
            !delays.is_empty(),
            "miss timer must fire for the moved flow"
        );
        assert!(
            delays.windows(2).all(|w| w[1] > w[0]),
            "delays escalate: {delays:?}"
        );
        assert_eq!(e.delimiter(), None, "a spent budget drops the moved flow");
        // Flow 2's next round mark takes the slot over.
        e.on_data(&cfg(), &rm_data(2, MSS), Time(armed.nanos() + 2));
        assert_eq!(e.delimiter(), Some(FlowId(2)));
    }

    /// Property test for spray/churn: random flows spraying marks over
    /// random ports of one switch, with random mid-run migrations.
    /// Invariants at every slot close and at the end of the run: the
    /// reported E is bounded by the round marks the port actually
    /// received during the slot (per-port accounting never invents
    /// consumers), windows never collapse below one byte, and every
    /// abandoned delimiter is reclaimed within the miss budget.
    ///
    /// Audit note: E is *not* bounded by the live flow count — when the
    /// delimiter migrates away mid-slot the slot stretches and other
    /// flows mark several times, each counted (the paper's estimator
    /// assumes path stability). The miss timer bounds how long such an
    /// inflated slot can last; the over-count itself only makes windows
    /// conservative (token / E shrinks), never unsafe.
    #[test]
    fn spray_and_churn_keep_per_port_accounting_sound() {
        use rng::Rng as _;
        rng::props::cases(48, |case, rg| {
            let n_ports = rg.gen_range(2..5usize);
            let n_flows = rg.gen_range(2..7u64);
            let rounds = rg.gen_range(4..12u64);
            let mut engines: Vec<TokenEngine> = (0..n_ports).map(|_| engine()).collect();
            // port_of[f] = the flow's current port; churn re-rolls it.
            let mut port_of: Vec<usize> = (0..n_flows).map(|_| rg.gen_range(0..n_ports)).collect();
            // Round marks fed to each port since its last slot close.
            let mut marks = vec![0u64; n_ports];
            let mut t = 0u64;
            for round in 0..rounds {
                for f in 0..n_flows {
                    if rg.gen_range(0..8u32) == 0 {
                        // Reroute: the flow migrates to another port.
                        port_of[f as usize] = rg.gen_range(0..n_ports);
                    }
                    t += rg.gen_range(1_000..40_000u64);
                    let p = port_of[f as usize];
                    marks[p] += 1;
                    let report = engines[p].on_data(&cfg(), &rm_data(f, MSS), Time(t));
                    if let Some(r) = report {
                        assert!(
                            r.effective_flows >= 1.0 && r.effective_flows <= marks[p] as f64,
                            "case {case} round {round}: E {} outside [1, {}]",
                            r.effective_flows,
                            marks[p]
                        );
                        assert!(r.window_bytes >= 1, "window collapsed");
                        assert!(r.token_bytes.is_finite() && r.token_bytes > 0.0);
                        // The closing mark opens the next slot.
                        marks[p] = 1;
                    }
                }
            }
            // Reclamation: every port whose delimiter no longer maps to
            // it clears (or re-adopts) within the miss budget.
            for (p, e) in engines.iter_mut().enumerate() {
                let Some(d) = e.delimiter() else { continue };
                if port_of[d.0 as usize] == p {
                    continue;
                }
                let mut armed = Time(t);
                let mut fired = 0u32;
                while let Some(delay) = e.on_miss_timer(&cfg(), armed, Time(armed.nanos() + 1)) {
                    armed = Time(armed.nanos() + delay.as_nanos());
                    fired += 1;
                    assert!(
                        fired <= TfcSwitchConfig::default().max_miss_k,
                        "miss loop leaked"
                    );
                }
                assert_eq!(e.delimiter(), None, "stale delimiter survived reclamation");
            }
        });
    }

    #[test]
    fn non_rm_packets_only_count_arrivals() {
        let mut e = engine();
        e.on_data(&cfg(), &rm_data(1, MSS), Time(0));
        for _ in 0..5 {
            assert!(e.on_data(&cfg(), &data(2, MSS), Time(1_000)).is_none());
        }
        let r = e.on_data(&cfg(), &rm_data(1, MSS), Time(160_000)).unwrap();
        assert_eq!(r.effective_flows, 1.0);
        // 5 non-RM + 1 RM(open) + 1 RM(close): rho counts them all.
        assert!(r.rho > 0.0);
    }
}

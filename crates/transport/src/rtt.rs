//! RFC 6298 round-trip-time estimation and RTO management, plus the
//! probe timeout of a time-based tail-loss probe (after RFC 8985).

use simnet::units::Dur;

/// RTT estimator with RFC 6298 smoothing and a configurable RTO clamp.
///
/// Retransmitted segments must not be sampled (Karn's algorithm);
/// [`crate::send::SendCore`], which every sender embeds, enforces that
/// by dropping its RTT probe on each retransmission.
///
/// # Examples
///
/// ```
/// use simnet::units::Dur;
/// use tfc_transport::rtt::RttEstimator;
///
/// let mut est = RttEstimator::new(Dur::millis(200), Dur::secs(60));
/// est.sample(Dur::micros(100));
/// assert_eq!(est.rto(), Dur::millis(200)); // clamped to min RTO
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    srtt: Option<Dur>,
    rttvar: Dur,
    min_rto: Dur,
    max_rto: Dur,
    backoff: u32,
    /// Unanswered tail-loss probes since the last reset.
    probe_backoff: u8,
}

impl RttEstimator {
    /// Creates an estimator with the given RTO clamp.
    pub fn new(min_rto: Dur, max_rto: Dur) -> Self {
        Self {
            srtt: None,
            rttvar: Dur::ZERO,
            min_rto,
            max_rto,
            backoff: 0,
            probe_backoff: 0,
        }
    }

    /// Feeds one RTT measurement and resets both backoffs.
    pub fn sample(&mut self, rtt: Dur) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = Dur(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - rtt|,
                //           srtt  = 7/8 srtt  + 1/8 rtt.
                let err = Dur(srtt.as_nanos().abs_diff(rtt.as_nanos()));
                self.rttvar = Dur((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                self.srtt = Some(Dur((7 * srtt.as_nanos() + rtt.as_nanos()) / 8));
            }
        }
        self.backoff = 0;
        self.probe_backoff = 0;
    }

    /// RFC 6298's unclamped RTO, `srtt + 4 * rttvar`, once sampled.
    fn base(&self) -> Option<Dur> {
        let srtt = self.srtt?;
        Some(Dur(srtt
            .as_nanos()
            .saturating_add(4 * self.rttvar.as_nanos().max(1))))
    }

    /// Current retransmission timeout, including backoff, clamped to
    /// `[min_rto, max_rto]`.
    pub fn rto(&self) -> Dur {
        let base = self.base().unwrap_or(self.min_rto);
        // A large base shifted by the backoff count can overflow u64; an
        // unchecked `<<` would wrap to a tiny value and the clamp below
        // would then *shrink* the RTO on backoff. Saturate to max_rto
        // instead: backoff may only ever lengthen the timeout.
        let shift = self.backoff.min(16);
        let backed = match base.as_nanos().checked_shl(shift) {
            Some(v) if v >> shift == base.as_nanos() => v,
            _ => self.max_rto.as_nanos(),
        };
        Dur(backed.clamp(self.min_rto.as_nanos(), self.max_rto.as_nanos()))
    }

    /// Doubles the RTO (called on each timeout).
    pub fn back_off(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }

    /// Tail-loss probe timeout: twice the unclamped RTO, so without the
    /// `min_rto` floor, doubled per unanswered probe and capped at
    /// `max_rto`. `None` before the first sample: no probe is armed
    /// without an RTT.
    pub fn pto(&self) -> Option<Dur> {
        let base = self.base()?.as_nanos().saturating_mul(2);
        let backed = base.saturating_mul(1 << self.probe_backoff);
        Some(Dur(backed.min(self.max_rto.as_nanos())))
    }

    /// Doubles the probe timeout (called on each probe).
    pub fn back_off_probe(&mut self) {
        self.probe_backoff = (self.probe_backoff + 1).min(16);
    }

    /// Restores the undoubled probe timeout: a probe was answered.
    pub fn reset_probe_backoff(&mut self) {
        self.probe_backoff = 0;
    }

    /// Smoothed RTT, if at least one sample has arrived.
    pub fn srtt(&self) -> Option<Dur> {
        self.srtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(Dur::millis(10), Dur::secs(60))
    }

    #[test]
    fn initial_rto_is_min() {
        assert_eq!(est().rto(), Dur::millis(10));
    }

    #[test]
    fn first_sample_sets_srtt() {
        let mut e = est();
        e.sample(Dur::micros(100));
        assert_eq!(e.srtt(), Some(Dur::micros(100)));
        // 100us + 4*50us = 300us, clamped up to min 10ms.
        assert_eq!(e.rto(), Dur::millis(10));
    }

    #[test]
    fn large_rtt_escapes_min_clamp() {
        let mut e = est();
        e.sample(Dur::millis(100));
        // 100ms + 4 * 50ms = 300ms.
        assert_eq!(e.rto(), Dur::millis(300));
    }

    #[test]
    fn smoothing_converges() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(Dur::micros(200));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt.as_nanos().abs_diff(Dur::micros(200).as_nanos()) < 1_000);
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = est();
        e.sample(Dur::millis(100));
        let base = e.rto();
        e.back_off();
        assert_eq!(e.rto(), Dur(base.as_nanos() * 2));
        e.back_off();
        assert_eq!(e.rto(), Dur(base.as_nanos() * 4));
        e.sample(Dur::millis(100));
        assert!(e.rto() <= Dur(base.as_nanos() * 2));
    }

    #[test]
    fn pto_is_twice_the_unclamped_rto_and_doubles_per_probe() {
        let mut e = est();
        assert_eq!(e.pto(), None, "no probe before the first sample");
        e.sample(Dur::micros(100));
        // 2 x (100us + 4 * 50us), below the 10 ms min RTO.
        assert_eq!(e.pto(), Some(Dur::micros(600)));
        e.back_off_probe();
        e.back_off_probe();
        assert_eq!(e.pto(), Some(Dur::micros(2_400)));
        assert_eq!(e.rto(), Dur::millis(10), "probes leave the RTO alone");
        e.reset_probe_backoff();
        assert_eq!(e.pto(), Some(Dur::micros(600)));
        e.back_off_probe();
        e.sample(Dur::micros(100));
        // Reset, and rttvar is now 37.5 us: 2 x (100us + 150us).
        assert_eq!(e.pto(), Some(Dur::micros(500)), "a sample resets it");
    }

    #[test]
    fn rto_clamped_to_max() {
        let mut e = RttEstimator::new(Dur::millis(1), Dur::millis(50));
        e.sample(Dur::millis(100));
        assert_eq!(e.rto(), Dur::millis(50));
    }

    /// Regression: an extreme SRTT-derived base shifted by the backoff
    /// count used to wrap u64 and come out *below* the pre-backoff RTO.
    /// The shift now saturates to `max_rto`.
    #[test]
    fn huge_base_backoff_saturates_instead_of_wrapping() {
        let max = Dur::secs(300);
        let mut e = RttEstimator::new(Dur::millis(1), max);
        // SRTT near 2^61 ns: one back_off would overflow the shift.
        e.sample(Dur(1u64 << 61));
        assert_eq!(e.rto(), max);
        for _ in 0..20 {
            e.back_off();
            assert_eq!(e.rto(), max, "backoff {} wrapped", e.backoff);
        }
    }

    /// Acceptance property: over extreme bases and backoff counts, the
    /// RTO never decreases as backoff increases.
    #[test]
    fn rto_is_monotone_in_backoff() {
        use rng::props::cases;
        use rng::Rng;
        cases(128, |_case, rng| {
            let min_rto = Dur(rng.gen_range(1..10_000_000u64));
            let max_rto = Dur(min_rto
                .as_nanos()
                .saturating_add(rng.gen_range(1..u64::MAX / 2)));
            let mut e = RttEstimator::new(min_rto, max_rto);
            // Mix ordinary and near-overflow RTT samples.
            let rtt = if rng.gen_bool(0.5) {
                Dur(rng.gen_range(1_000..100_000_000u64))
            } else {
                Dur(rng.gen_range(1u64 << 50..1u64 << 63))
            };
            e.sample(rtt);
            let mut last = e.rto();
            assert!(last >= min_rto && last <= max_rto);
            for i in 0..24 {
                e.back_off();
                let rto = e.rto();
                assert!(
                    rto >= last,
                    "RTO shrank from {last:?} to {rto:?} at backoff {i} (rtt {rtt:?})"
                );
                assert!(rto >= min_rto && rto <= max_rto, "clamp violated: {rto:?}");
                last = rto;
            }
        });
    }
}

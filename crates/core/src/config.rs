//! TFC configuration knobs.

use simnet::units::Dur;

/// Switch-side TFC parameters (§5.2 and §6.1.1).
#[derive(Debug, Clone, Copy)]
pub struct TfcSwitchConfig {
    /// Target link utilisation `rho_0` (the paper uses 0.97).
    pub rho0: f64,
    /// History weight `alpha` of the token EWMA (Eq. 8; paper: 7/8).
    pub alpha: f64,
    /// Initial `rtt_b` before any measurement (paper Init: 160 µs).
    pub init_rttb: Dur,
    /// Minimum measured utilisation for a slot to drive token
    /// adjustment. Slots below it (idle gaps, establishment slots where
    /// only SYNs and probes are on the wire) hold the token unchanged:
    /// they carry no demand signal, and boosting on them would inflate
    /// the token right before the next burst.
    pub rho_floor: f64,
    /// Upper bound on the adjusted token, as a multiple of the
    /// unadjusted `c × rtt_b`. Keeps one under-utilised slot from
    /// inflating windows without bound; the EWMA then converges.
    pub token_boost_cap: f64,
    /// Maximum delimiter-miss exponent `k` (paper: 7).
    pub max_miss_k: u32,
    /// Enable the ACK delay arbiter (§4.6). Disable only for ablation.
    pub delay_arbiter: bool,
    /// Gate full-window RMAs through the arbiter's counter as well
    /// (token-bucket shaping of every grant). The paper's literal §4.6
    /// only delays sub-MSS windows; see `DelayArbiter::set_gate_all`.
    pub arbiter_gates_all: bool,
    /// Enable token adjustment (Eq. 7). Disable only for ablation.
    pub token_adjustment: bool,
    /// Apply the `rho0 / rho` correction to the *current* token instead
    /// of the base pipe `c × rtt_b` (integral rather than proportional
    /// control). The literal Eq. 7 has a square-root equilibrium —
    /// utilisation settles at `sqrt(rho0 · rtt_b / rtt_m)` — which under-
    /// corrects whenever `rtt_b` is underestimated or windows quantise
    /// to whole packets; the integral form converges to `rho0` exactly.
    /// The clamp to `[0.25, token_boost_cap] × pipe` bounds it.
    pub integral_adjustment: bool,
    /// Average the effective-flow count over two adjacent slots before
    /// dividing the token. §4.3 observes that when flow RTTs are
    /// multiples of the slot, the per-slot count alternates (e.g. 1, 2,
    /// 1, 2 for a theoretical 1.5) and "the average of the measured
    /// values of two adjacent time slots equals the theoretical result";
    /// this knob applies that average.
    pub e_two_slot_average: bool,
    /// Use the decoupled `rtt_b` for the token and `rtt_m` for `rho`
    /// (§4.4). When disabled (ablation), the instantaneous `rtt_m` is
    /// used for the token too, re-coupling queueing delay into it.
    pub decouple_rtt: bool,
}

impl Default for TfcSwitchConfig {
    fn default() -> Self {
        Self {
            rho0: 0.97,
            alpha: 7.0 / 8.0,
            init_rttb: Dur::micros(160),
            rho_floor: 0.25,
            token_boost_cap: 4.0,
            max_miss_k: 7,
            delay_arbiter: true,
            arbiter_gates_all: true,
            token_adjustment: true,
            integral_adjustment: true,
            e_two_slot_average: true,
            decouple_rtt: true,
        }
    }
}

/// Host-side TFC parameters (§5.1, §5.3).
#[derive(Debug, Clone, Copy)]
pub struct TfcHostConfig {
    /// Receiver advertised window in bytes.
    pub awnd: u64,
    /// Minimum retransmission timeout. TFC rarely drops, so the RTO is a
    /// safety net; the testbed kernel default applies.
    pub min_rto: Dur,
    /// Maximum retransmission timeout.
    pub max_rto: Dur,
    /// Re-run the window-acquisition probe when a silent flow resumes
    /// (avoids bursting a stale window; see DESIGN.md).
    pub probe_on_resume: bool,
}

impl Default for TfcHostConfig {
    fn default() -> Self {
        Self {
            awnd: 1 << 20,
            min_rto: Dur::millis(200),
            max_rto: Dur::secs(60),
            probe_on_resume: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = TfcSwitchConfig::default();
        assert_eq!(c.rho0, 0.97);
        assert_eq!(c.alpha, 7.0 / 8.0);
        assert_eq!(c.init_rttb, Dur::micros(160));
        assert_eq!(c.max_miss_k, 7);
        assert!(c.delay_arbiter && c.token_adjustment && c.decouple_rtt);
        let h = TfcHostConfig::default();
        assert!(h.probe_on_resume);
        assert_eq!(h.min_rto, Dur::millis(200));
    }
}

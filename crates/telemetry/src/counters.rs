//! Sim-wide event-loop counters and per-port TFC slot gauges.

/// Per-event-type counts and (optionally) cumulative wall-clock time
/// spent handling each type — the simulator's built-in profiling hook.
///
/// The name table is provided by the event-loop owner (the simulator
/// passes its `Event` kind names) so this crate stays below it.
#[derive(Debug)]
pub struct LoopStats {
    names: &'static [&'static str],
    counts: Vec<u64>,
    nanos: Vec<u64>,
    profile: bool,
}

impl LoopStats {
    /// Creates stats for `names.len()` event types. `profile` enables
    /// wall-clock accumulation (the caller is expected to time handlers
    /// only when [`profiled`](Self::profiled) is true).
    pub fn new(names: &'static [&'static str], profile: bool) -> Self {
        Self {
            names,
            counts: vec![0; names.len()],
            nanos: vec![0; names.len()],
            profile,
        }
    }

    /// Whether handler timing was requested.
    #[inline]
    pub fn profiled(&self) -> bool {
        self.profile
    }

    /// Counts one handled event of type `idx`.
    #[inline]
    pub fn count(&mut self, idx: usize) {
        self.counts[idx] += 1;
    }

    /// Adds handler wall-clock time for type `idx`.
    #[inline]
    pub fn add_nanos(&mut self, idx: usize, ns: u64) {
        self.nanos[idx] += ns;
    }

    /// `(name, count, batches, cumulative_ns)` per event type, in index
    /// order. Every event is dispatched on its own, so `batches` always
    /// equals `count`; the slot is kept so existing four-field
    /// destructurings still compile.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64, u64)> + '_ {
        self.names
            .iter()
            .zip(&self.counts)
            .zip(&self.nanos)
            .map(|((n, c), t)| (*n, *c, *c, *t))
    }

    /// Total events counted across all types.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total handler wall-clock time across all types (0 unless
    /// profiling was on).
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// One per-port TFC gauge sample, taken when a token-engine slot closes.
///
/// Mirrors the paper's per-port state: the token `T[n]`, the effective
/// flow estimate `E[n]`, the utilisation counter rho, plus the delay
/// arbiter's held-ACK backlog and cumulative delay-function activations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortSlotSample {
    /// Slot-close simulation time in nanoseconds (filled by the
    /// simulator; policies leave it 0).
    pub at_ns: u64,
    /// The switch.
    pub node: u32,
    /// Egress port index.
    pub port: u16,
    /// Token `T[n]` in bytes after the adjustment.
    pub token_bytes: f64,
    /// Effective flow count `E[n]` after the slot.
    pub effective_flows: f64,
    /// Slot utilisation `rho` (arrived bytes / capacity).
    pub rho: f64,
    /// Per-flow window `W[n]` in bytes derived from the slot.
    pub window_bytes: u64,
    /// Base RTT estimate in nanoseconds.
    pub rtt_b_ns: u64,
    /// Measured slot RTT in nanoseconds.
    pub rtt_m_ns: u64,
    /// ACKs currently held by the delay arbiter.
    pub held_acks: u64,
    /// Cumulative ACKs ever delayed by the arbiter (activations).
    pub delayed_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 3] = ["a", "b", "c"];

    #[test]
    fn counts_and_nanos_accumulate_per_type() {
        let mut s = LoopStats::new(&NAMES, true);
        assert!(s.profiled());
        s.count(0);
        s.count(2);
        s.count(2);
        s.add_nanos(2, 40);
        s.add_nanos(2, 2);
        let rows: Vec<_> = s.rows().collect();
        assert_eq!(rows, vec![("a", 1, 1, 0), ("b", 0, 0, 0), ("c", 2, 2, 42)]);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn unprofiled_stats_still_count() {
        let mut s = LoopStats::new(&NAMES, false);
        assert!(!s.profiled());
        s.count(1);
        assert_eq!(s.total(), 1);
    }
}

//! Recovery metrics over exported run data.
//!
//! Everything here is a pure function over plain slices, so the same
//! code serves live experiments (reading simulator state) and the
//! `tfc-trace` CLI (reading exported JSON/CSV artifacts).

/// One fault event as read back from an exported event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEventRec {
    /// Event timestamp in ns.
    pub at_ns: u64,
    /// Fault kind label (`link_down`, `host_stall`, ...).
    pub kind: String,
    /// Whether this is the clearing half of the pair.
    pub cleared: bool,
    /// Node the fault applied to.
    pub node: u32,
    /// Port the fault applied to (0 for node-wide faults).
    pub port: u16,
    /// Kind-specific magnitude (bps, permille, or 0).
    pub value: u64,
}

/// A matched inject/clear pair (or an uncleaned injection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultWindow {
    /// Fault kind label.
    pub kind: String,
    /// Node the fault applied to.
    pub node: u32,
    /// Port the fault applied to.
    pub port: u16,
    /// When the fault was injected, ns.
    pub start_ns: u64,
    /// When it was cleared (`None` if still active at run end).
    pub end_ns: Option<u64>,
    /// Magnitude of the injection.
    pub value: u64,
}

/// Pairs `fault_injected` events with the matching `fault_cleared` by
/// `(kind, node, port)`, in time order. Rate renegotiations have no
/// clear event; each shows up as an open window.
pub fn pair_windows(events: &[FaultEventRec]) -> Vec<FaultWindow> {
    let mut windows: Vec<FaultWindow> = Vec::new();
    for ev in events {
        if ev.cleared {
            if let Some(w) = windows.iter_mut().rev().find(|w| {
                w.end_ns.is_none() && w.kind == ev.kind && w.node == ev.node && w.port == ev.port
            }) {
                w.end_ns = Some(ev.at_ns);
                continue;
            }
        } else {
            windows.push(FaultWindow {
                kind: ev.kind.clone(),
                node: ev.node,
                port: ev.port,
                start_ns: ev.at_ns,
                end_ns: None,
                value: ev.value,
            });
        }
    }
    windows
}

/// Summary of a goodput dip around one fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DipSummary {
    /// Mean delivery rate over the bins fully before the fault, bps.
    pub baseline_bps: f64,
    /// Lowest binned rate between fault start and recovery, bps.
    pub floor_bps: f64,
    /// `1 - floor/baseline` (0 = no dip, 1 = total stall).
    pub depth: f64,
    /// Time from fault clear until the binned rate first again reaches
    /// 90 % of baseline (`None` if it never does before the data ends).
    pub recovery_ns: Option<u64>,
}

/// Bins `(at_ns, bytes)` delivery events into `bin_ns` buckets and
/// measures the dip caused by a fault active over
/// `[fault_start_ns, fault_end_ns)`.
///
/// Returns `None` when there is no full pre-fault bin to take a
/// baseline from, or when the baseline is zero.
pub fn goodput_dip(
    deliveries: &[(u64, u64)],
    fault_start_ns: u64,
    fault_end_ns: u64,
    bin_ns: u64,
) -> Option<DipSummary> {
    assert!(bin_ns > 0, "bin width must be positive");
    let horizon = deliveries.iter().map(|&(t, _)| t).max()?;
    let n_bins = (horizon / bin_ns + 1) as usize;
    let mut bytes = vec![0u64; n_bins];
    for &(t, b) in deliveries {
        bytes[(t / bin_ns) as usize] += b;
    }
    let rate = |b: u64| b as f64 * 8.0 / (bin_ns as f64 / 1e9);
    // Baseline: bins that end at or before the fault starts.
    let pre_bins = (fault_start_ns / bin_ns) as usize;
    if pre_bins == 0 {
        return None;
    }
    let baseline_bps = bytes[..pre_bins.min(n_bins)]
        .iter()
        .map(|&b| rate(b))
        .sum::<f64>()
        / pre_bins as f64;
    if baseline_bps <= 0.0 {
        return None;
    }
    // Recovery: first bin starting at/after the clear whose rate is back
    // to 90 % of baseline.
    let first_after = (fault_end_ns / bin_ns) as usize;
    let mut recovery_ns = None;
    for (i, &b) in bytes.iter().enumerate().skip(first_after) {
        if rate(b) >= 0.9 * baseline_bps {
            let bin_end = (i as u64 + 1) * bin_ns;
            recovery_ns = Some(bin_end.saturating_sub(fault_end_ns));
            break;
        }
    }
    // Floor: lowest rate from fault start until recovery (or data end).
    let dip_from = (fault_start_ns / bin_ns) as usize;
    let dip_to = recovery_ns
        .map(|r| ((fault_end_ns + r) / bin_ns) as usize)
        .unwrap_or(n_bins)
        .min(n_bins);
    let floor_bps = bytes[dip_from.min(n_bins)..dip_to]
        .iter()
        .map(|&b| rate(b))
        .fold(f64::INFINITY, f64::min);
    let floor_bps = if floor_bps.is_finite() {
        floor_bps
    } else {
        baseline_bps
    };
    Some(DipSummary {
        baseline_bps,
        floor_bps,
        depth: (1.0 - floor_bps / baseline_bps).max(0.0),
        recovery_ns,
    })
}

/// Time for the binned delivery rate to *rise* to `target_bps` and stay
/// there for `sustain` consecutive bins, measured from `from_ns` to the
/// end of the first bin of the sustained run.
///
/// This is the headline metric for victim faults (one sender silenced):
/// the survivors' aggregate must climb from its pre-fault share to the
/// full link rate. A plain "first bin over target" check is fooled by
/// the bottleneck's queue backlog, which keeps serving the victim's
/// stale packets for a while after the fault — the sustain requirement
/// skips that mirage. A run that reaches the end of the data counts
/// even if it is shorter than `sustain`; returns `None` when the rate
/// never holds the target.
pub fn rise_time_ns(
    deliveries: &[(u64, u64)],
    from_ns: u64,
    target_bps: f64,
    bin_ns: u64,
    sustain: usize,
) -> Option<u64> {
    assert!(bin_ns > 0, "bin width must be positive");
    assert!(sustain > 0, "need at least one sustained bin");
    let horizon = deliveries.iter().map(|&(t, _)| t).max()?;
    let n_bins = (horizon / bin_ns + 1) as usize;
    let mut bytes = vec![0u64; n_bins];
    for &(t, b) in deliveries {
        bytes[(t / bin_ns) as usize] += b;
    }
    let rate = |b: u64| b as f64 * 8.0 / (bin_ns as f64 / 1e9);
    let mut run_start = None;
    let mut run_len = 0;
    for (i, &b) in bytes.iter().enumerate().skip((from_ns / bin_ns) as usize) {
        if rate(b) >= target_bps {
            run_start = run_start.or(Some(i as u64));
            run_len += 1;
            if run_len >= sustain {
                break;
            }
        } else {
            run_start = None;
            run_len = 0;
        }
    }
    run_start.map(|i0| ((i0 + 1) * bin_ns).saturating_sub(from_ns))
}

/// Time for a gauge series `(at_ns, value)` to fall to `target` or
/// below, measured from `fault_ns`. Used on the TFC `effective_flows`
/// (and token) slot gauges to measure §4.3 reclamation: after a host
/// stalls, E should drop to the surviving-flow count within two slots.
pub fn settle_time_ns(series: &[(u64, f64)], fault_ns: u64, target: f64) -> Option<u64> {
    series
        .iter()
        .find(|&&(t, v)| t >= fault_ns && v <= target)
        .map(|&(t, _)| t - fault_ns)
}

/// Time from `t_ns` to the first event timestamp at or after it —
/// e.g. window re-acquisition: the first `flow_window_acquired` after a
/// host resumes. `events` must be sorted ascending.
pub fn time_to_first_after(events: &[u64], t_ns: u64) -> Option<u64> {
    events.iter().find(|&&e| e >= t_ns).map(|&e| e - t_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, kind: &str, cleared: bool) -> FaultEventRec {
        FaultEventRec {
            at_ns: at,
            kind: kind.into(),
            cleared,
            node: 9,
            port: 1,
            value: 0,
        }
    }

    #[test]
    fn windows_pair_by_identity_in_order() {
        let events = vec![
            rec(100, "link_down", false),
            rec(150, "host_stall", false),
            rec(200, "link_down", true),
            rec(300, "link_down", false),
        ];
        let w = pair_windows(&events);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].end_ns, Some(200));
        assert_eq!(w[1].kind, "host_stall");
        assert_eq!(w[1].end_ns, None);
        assert_eq!(w[2].start_ns, 300);
        assert_eq!(w[2].end_ns, None);
    }

    #[test]
    fn dip_detects_depth_and_recovery() {
        // 10 bins of 1000 ns at 1000 B/bin, a dead window in bins 4-5,
        // then full rate again.
        let mut deliveries = Vec::new();
        for bin in 0..10u64 {
            let b = if (4..6).contains(&bin) { 0 } else { 1000 };
            if b > 0 {
                deliveries.push((bin * 1000 + 500, b));
            }
        }
        let s = goodput_dip(&deliveries, 4_000, 6_000, 1_000).unwrap();
        assert!((s.baseline_bps - 8e9).abs() < 1.0, "{}", s.baseline_bps);
        assert_eq!(s.floor_bps, 0.0);
        assert_eq!(s.depth, 1.0);
        // Bin 6 is already back at baseline: recovery by its end, 1000 ns
        // after the clear.
        assert_eq!(s.recovery_ns, Some(1_000));
    }

    #[test]
    fn dip_without_pre_fault_bins_is_none() {
        assert!(goodput_dip(&[(100, 10)], 0, 500, 1_000).is_none());
    }

    #[test]
    fn dip_that_never_recovers() {
        let deliveries = vec![(500, 1000), (1_500, 1000), (2_500, 0)];
        let s = goodput_dip(&deliveries, 2_000, 2_100, 1_000).unwrap();
        assert_eq!(s.recovery_ns, None);
        assert_eq!(s.depth, 1.0);
    }

    #[test]
    fn rise_time_skips_the_queue_mask_mirage() {
        // 1000 ns bins at 8 Gbps target-passing rate; bins 4-5 pass,
        // bin 6 dips (the masked collapse), bins 7+ hold.
        let mut deliveries = Vec::new();
        for bin in 0..12u64 {
            let b = if bin == 6 { 100 } else { 1000 };
            deliveries.push((bin * 1000 + 500, b));
        }
        // Sustain 3: the bins 4-5 run is broken by bin 6, so the real
        // rise is the run starting at bin 7 → end of bin 7 = 8000 ns.
        assert_eq!(
            rise_time_ns(&deliveries, 4_000, 7.9e9, 1_000, 3),
            Some(4_000)
        );
        // Sustain 1 is fooled by the mirage run at bin 4.
        assert_eq!(
            rise_time_ns(&deliveries, 4_000, 7.9e9, 1_000, 1),
            Some(1_000)
        );
    }

    #[test]
    fn rise_time_accepts_a_short_run_at_data_end() {
        let deliveries = vec![(500, 0), (1_500, 0), (2_500, 1000)];
        assert_eq!(rise_time_ns(&deliveries, 0, 7.9e9, 1_000, 5), Some(3_000));
        assert_eq!(rise_time_ns(&deliveries, 0, 9.0e9, 1_000, 5), None);
    }

    #[test]
    fn settle_time_finds_first_sample_at_or_below_target() {
        let series = vec![(100, 3.0), (200, 3.0), (300, 2.0), (400, 1.9)];
        assert_eq!(settle_time_ns(&series, 150, 2.0), Some(150));
        assert_eq!(settle_time_ns(&series, 150, 0.5), None);
    }

    #[test]
    fn first_after_measures_reacquisition() {
        let events = vec![100, 900, 2_000];
        assert_eq!(time_to_first_after(&events, 500), Some(400));
        assert_eq!(time_to_first_after(&events, 2_001), None);
    }
}

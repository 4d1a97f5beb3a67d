//! Shared helpers for experiment assembly and post-processing.

use metrics::TimeSeries;
use simnet::packet::NodeId;
use simnet::sim::{QueueSampler, SimCore};
use simnet::units::{Dur, Time};
use telemetry::PortSlotSample;

/// Attaches a periodic queue-length sampler to `(switch, port)` and
/// returns its index for [`queue_points`].
pub fn sample_queue(core: &mut SimCore, switch: NodeId, port: usize, every: Dur) -> usize {
    core.add_queue_sampler(QueueSampler {
        node: switch,
        port,
        every,
        until: None,
    })
}

/// Points recorded by queue sampler `sampler`.
pub fn queue_points(core: &SimCore, sampler: usize) -> Vec<(u64, f64)> {
    core.queue_series()[sampler].points().to_vec()
}

/// `(time_ns, value)` points of one TFC slot gauge at `(switch, port)`,
/// read from the telemetry slot samples (the run must enable
/// `TelemetryConfig::tfc_gauges`).
pub fn gauge_points(
    core: &SimCore,
    switch: NodeId,
    port: usize,
    value: impl Fn(&PortSlotSample) -> f64,
) -> Vec<(u64, f64)> {
    core.telemetry()
        .slots
        .iter()
        .filter(|s| s.node == switch.0 && usize::from(s.port) == port)
        .map(|s| (s.at_ns, value(s)))
        .collect()
}

/// Sums several equally-windowed rate series point-wise (aggregate
/// goodput of a flow group). Shorter series are zero-padded.
pub fn sum_series(series: &[&TimeSeries]) -> Vec<(u64, f64)> {
    let longest = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut out: Vec<(u64, f64)> = Vec::with_capacity(longest);
    for i in 0..longest {
        let mut t = 0;
        let mut v = 0.0;
        for s in series {
            if let Some(&(ti, vi)) = s.points().get(i) {
                t = t.max(ti);
                v += vi;
            }
        }
        out.push((t, v));
    }
    out
}

/// Per-window minima of a `(time, value)` trace — how the paper samples
/// `rtt_b` ("set to the minimum of the measured rtt_m during 1 second").
pub fn window_minima(points: &[(u64, f64)], window: Dur) -> Vec<f64> {
    let w = window.as_nanos().max(1);
    let mut out = Vec::new();
    let mut current_window = None;
    let mut min = f64::INFINITY;
    for &(t, v) in points {
        let idx = t / w;
        match current_window {
            None => {
                current_window = Some(idx);
                min = v;
            }
            Some(c) if c == idx => min = min.min(v),
            Some(_) => {
                out.push(min);
                current_window = Some(idx);
                min = v;
            }
        }
    }
    if current_window.is_some() {
        out.push(min);
    }
    out
}

/// First time a rate series reaches within `tol` (fraction) of `target`
/// and stays there for `hold` consecutive windows; `None` if never.
pub fn convergence_time(
    series: &TimeSeries,
    start: Time,
    target: f64,
    tol: f64,
    hold: usize,
) -> Option<Time> {
    let lo = target * (1.0 - tol);
    let hi = target * (1.0 + tol);
    let pts: Vec<(u64, f64)> = series
        .points()
        .iter()
        .copied()
        .filter(|&(t, _)| t >= start.nanos())
        .collect();
    let mut run = 0;
    let mut run_start = 0;
    for &(t, v) in &pts {
        if v >= lo && v <= hi {
            if run == 0 {
                run_start = t;
            }
            run += 1;
            if run >= hold {
                return Some(Time(run_start));
            }
        } else {
            run = 0;
        }
    }
    None
}

/// Mean of the values of a `(time, value)` point list (0.0 when empty).
pub fn mean_of(points: &[(u64, f64)]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().map(|&(_, v)| v).sum::<f64>() / points.len() as f64
}

/// Max of the values of a `(time, value)` point list (0.0 when empty).
pub fn max_of(points: &[(u64, f64)]) -> f64 {
    points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_minima_partitions() {
        let pts = vec![(0, 5.0), (10, 3.0), (25, 9.0), (26, 7.0), (51, 1.0)];
        let mins = window_minima(&pts, Dur(25));
        assert_eq!(mins, vec![3.0, 7.0, 1.0]);
    }

    #[test]
    fn window_minima_empty() {
        assert!(window_minima(&[], Dur(10)).is_empty());
    }

    #[test]
    fn sum_series_pads() {
        let mut a = TimeSeries::new("a");
        a.push(10, 1.0);
        a.push(20, 2.0);
        let mut b = TimeSeries::new("b");
        b.push(10, 5.0);
        let sum = sum_series(&[&a, &b]);
        assert_eq!(sum, vec![(10, 6.0), (20, 2.0)]);
    }

    #[test]
    fn convergence_detects_hold() {
        let mut s = TimeSeries::new("r");
        for (i, v) in [0.0, 0.2, 0.95, 1.02, 0.97, 1.0, 0.5].iter().enumerate() {
            s.push(i as u64 * 10, *v);
        }
        let t = convergence_time(&s, Time(0), 1.0, 0.1, 3).unwrap();
        assert_eq!(t, Time(20));
        assert!(convergence_time(&s, Time(0), 1.0, 0.1, 5).is_none());
    }

    #[test]
    fn mean_max_helpers() {
        let pts = vec![(0, 1.0), (1, 3.0)];
        assert_eq!(mean_of(&pts), 2.0);
        assert_eq!(max_of(&pts), 3.0);
        assert_eq!(mean_of(&[]), 0.0);
    }
}

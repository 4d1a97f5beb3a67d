//! Run-artifact export shared by every experiment driver.
//!
//! A driver that finds [`TelemetryConfig::export`](telemetry::TelemetryConfig::export) set on its simulator
//! writes the full artifact bundle (manifest, counters, events, flows,
//! TFC slot gauges, lifecycle-span sketches, queue-sampler series) under
//! `results/<run>/` via [`maybe_export`]. With export unset (the
//! default) nothing touches the filesystem.

use std::path::PathBuf;

use simnet::sim::SimCore;
use telemetry::export::{export_run, git_describe, SimMeta};
use telemetry::{FlowSummary, RunManifest};

/// Per-flow ground truth read out of the simulator core, one flow at a
/// time (the exporter streams it straight to `flows.json`).
pub fn flow_summaries(core: &SimCore) -> impl Iterator<Item = FlowSummary> + '_ {
    core.flows().map(|(id, st)| FlowSummary {
        flow: id.0,
        src: st.spec.src.0,
        dst: st.spec.dst.0,
        bytes: st.spec.bytes.unwrap_or(0),
        delivered: st.delivered,
        retransmits: st.retransmits,
        timeouts: st.timeouts,
        started_ns: st.started_at.nanos(),
        established_ns: st.established_at.map(|t| t.nanos()),
        receiver_done_ns: st.receiver_done_at.map(|t| t.nanos()),
        sender_done_ns: st.sender_done_at.map(|t| t.nanos()),
    })
}

/// Exports the run's artifacts if the simulator was configured with an
/// export name; returns the artifact directory. Export failures are
/// reported on stderr but never abort the experiment.
///
/// This is the single tracing exit point: the structured event log, the
/// TFC slot gauges, the span sketches, and the queue-sampler series all
/// leave through the same `results/<run>/` bundle.
pub fn maybe_export(
    core: &SimCore,
    topology: impl Into<String>,
    config: impl Into<String>,
) -> Option<PathBuf> {
    let run = core.config().telemetry.export.clone()?;
    let cfg = core.config();
    let manifest = RunManifest {
        run,
        seed: cfg.seed,
        topology: topology.into(),
        config: config.into(),
        git: git_describe(),
        sim: Some(SimMeta {
            scheduler: format!("{:?}", cfg.scheduler),
            trace: cfg.telemetry.trace.describe(),
        }),
    };
    let series: Vec<(&str, &[(u64, f64)])> = core
        .queue_series()
        .iter()
        .map(|ts| (ts.name(), ts.points()))
        .collect();
    // Streaming runs export their per-class retired sketches alongside
    // the (few) flows still live at shutdown; the slab high-water marks
    // ride along as the resident-memory proxy.
    let retired = core.retirer().map(|r| {
        let (_, peak, capacity) = core.flow_slab_stats();
        r.to_export(capacity as u64, peak as u64)
    });
    match export_run(
        &manifest,
        core.telemetry(),
        flow_summaries(core),
        retired.as_ref(),
        &series,
    ) {
        Ok(dir) => Some(dir),
        Err(e) => {
            eprintln!("telemetry export for run {:?} failed: {e}", manifest.run);
            None
        }
    }
}

//! Figure-regeneration harness.
//!
//! The `figures` binary regenerates every figure of the paper's §6
//! (`figures --list` enumerates them); this library holds the shared
//! formatting and JSON-dumping helpers.

pub mod chart;
pub mod harness;

// The JSON value/writer/parser (and the `json!` literal macro) live in
// the telemetry crate so exporters and this harness share one format;
// re-exported here for the figure dumpers.
pub use telemetry::json;

use std::fs;
use std::path::{Path, PathBuf};

/// Formats a bits-per-second value the way the paper's axes do.
pub fn fmt_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{:.2} Gbps", bps / 1e9)
    } else {
        format!("{:.0} Mbps", bps / 1e6)
    }
}

/// Formats a microsecond value with sensible units.
pub fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} µs")
    }
}

/// Formats bytes as KB with one decimal.
pub fn fmt_kb(bytes: f64) -> String {
    format!("{:.1} KB", bytes / 1e3)
}

/// Where figure JSON dumps go (shared with the telemetry exporters).
pub use telemetry::export::results_dir;

/// Writes a JSON value under `results/<name>.json`.
///
/// # Panics
///
/// Panics if the directory cannot be created or the file not written.
pub fn dump_json(name: &str, value: &json::Value) {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    let path: PathBuf = dir.join(format!("{name}.json"));
    json::write_file(&path, |w| w.value(value))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  [wrote {}]", path.display());
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// True when a path exists (test helper).
pub fn exists(p: &Path) -> bool {
    p.exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_bps(940e6), "940 Mbps");
        assert_eq!(fmt_bps(9.2e9), "9.20 Gbps");
        assert_eq!(fmt_us(65.0), "65.0 µs");
        assert_eq!(fmt_us(2_500.0), "2.50 ms");
        assert_eq!(fmt_us(1.5e6), "1.50 s");
        assert_eq!(fmt_kb(2_048.0), "2.0 KB");
    }

    #[test]
    fn dump_json_writes_file() {
        let dir = std::env::temp_dir().join("tfc_bench_test");
        std::env::set_var("TFC_RESULTS_DIR", &dir);
        dump_json("unit_test", &crate::json!({"x": 1}));
        assert!(exists(&dir.join("unit_test.json")));
        std::fs::remove_dir_all(&dir).ok();
        std::env::remove_var("TFC_RESULTS_DIR");
    }
}

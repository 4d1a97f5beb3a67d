//! A plain timed-binary bench harness with a `criterion`-shaped API.
//!
//! `benches/engine_micro.rs` was written against Criterion; pulling
//! that crate (and its large dependency tree) from a registry is not
//! possible in the hermetic build, so this module provides the small
//! surface it uses — benchmark groups, element throughput, and the
//! `criterion_group!`/`criterion_main!` macros — implemented as a
//! straightforward wall-clock timer. The bench target stays
//! `harness = false`, so `cargo bench` runs the binary directly and
//! prints one line per benchmark:
//!
//! ```text
//! bench event_queue/schedule_pop_10k ... mean 1.23 ms, min 1.19 ms, 8.1 Melem/s (10 iters)
//! ```
//!
//! Sample counts honour `TFC_BENCH_SAMPLES` (default 10).

use std::time::{Duration, Instant};

/// How work is scaled when reporting rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The measured body processes this many elements per iteration.
    Elements(u64),
}

/// Top-level bench context (a stand-in for `criterion::Criterion`).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let sample_size = std::env::var("TFC_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);
        Self { sample_size }
    }
}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            throughput: None,
        }
    }
}

/// A named group sharing sample-size and throughput settings.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Sets the per-iteration element count for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Sets iterations per benchmark within the group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times one benchmark of the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_bench(
            &format!("{}/{name}", self.name),
            self.sample_size,
            self.throughput,
            f,
        );
        self
    }

    /// Ends the group (kept for API parity; nothing to flush).
    pub fn finish(self) {}
}

/// Passed to the bench closure; `iter` times its body.
pub struct Bencher {
    iters: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Runs `body` once untimed (warm-up), then `iters` timed times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        std::hint::black_box(body());
        for _ in 0..self.iters {
            let start = Instant::now();
            std::hint::black_box(body());
            self.samples.push(start.elapsed());
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(label: &str, iters: usize, tp: Option<Throughput>, mut f: F) {
    let mut b = Bencher {
        iters,
        samples: Vec::with_capacity(iters),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("bench {label} ... no samples (closure never called iter)");
        return;
    }
    let total: Duration = b.samples.iter().sum();
    let mean = total / b.samples.len() as u32;
    let min = *b.samples.iter().min().expect("non-empty");
    let rate = match tp {
        Some(Throughput::Elements(n)) if mean > Duration::ZERO => {
            format!(", {}", fmt_rate(n as f64 / mean.as_secs_f64()))
        }
        _ => String::new(),
    };
    println!(
        "bench {label} ... mean {}, min {}{rate} ({} iters)",
        fmt_dur(mean),
        fmt_dur(min),
        b.samples.len()
    );
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.2} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.1} Melem/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1} kelem/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} elem/s")
    }
}

/// Declares a bench group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

// Let bench files import the macros through this module, matching the
// `use criterion::{criterion_group, criterion_main}` shape they had.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_applies_sample_size_and_throughput() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(100)).sample_size(2);
        let mut calls = 0;
        g.bench_function("inner", |b| b.iter(|| calls += 1));
        g.finish();
        // One warm-up plus two timed samples.
        assert_eq!(calls, 3);
    }

    #[test]
    fn formatting_is_humane() {
        assert_eq!(fmt_dur(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_dur(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_rate(2_500_000.0), "2.5 Melem/s");
    }
}

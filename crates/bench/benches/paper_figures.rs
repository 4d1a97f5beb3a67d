//! One Criterion bench per paper figure: each measures the wall-clock
//! cost of regenerating a (reduced-size) instance of the figure's
//! experiment, and doubles as a smoke-check that every figure's pipeline
//! stays runnable. Figure *values* are produced by the `figures` binary;
//! these benches track the simulator's performance on each scenario.

use experiments::benchmark::BenchExpConfig;
use experiments::goodput::GoodputConfig;
use experiments::incast::IncastExpConfig;
use experiments::ne::NeConfig;
use experiments::rho::RhoConfig;
use experiments::rttb::RttbConfig;
use experiments::workconserving::WorkConservingConfig;
use experiments::Proto;
use simnet::units::Dur;
use std::hint::black_box;
use tfc_bench::harness::{criterion_group, criterion_main, Criterion};

fn small(c: &mut Criterion) -> Criterion {
    let _ = c;
    Criterion::default().sample_size(10)
}

fn fig06_rttb(c: &mut Criterion) {
    c.bench_function("fig06_rttb", |b| {
        b.iter(|| {
            let cfg = RttbConfig {
                duration: Dur::millis(30),
                sample_window: Dur::millis(3),
                ..Default::default()
            };
            black_box(experiments::rttb::run(&cfg))
        })
    });
}

fn fig07_ne(c: &mut Criterion) {
    c.bench_function("fig07_ne", |b| {
        b.iter(|| {
            let cfg = NeConfig {
                step: Dur::millis(5),
                ..Default::default()
            };
            black_box(experiments::ne::run(&cfg))
        })
    });
}

fn fig08_queue(c: &mut Criterion) {
    c.bench_function("fig08_queue_tfc", |b| {
        b.iter(|| {
            let mut cfg = GoodputConfig::scaled(Proto::Tfc);
            cfg.join_interval = Dur::millis(30);
            cfg.tail = Dur::millis(30);
            black_box(experiments::goodput::run(&cfg))
        })
    });
}

fn fig09_goodput(c: &mut Criterion) {
    c.bench_function("fig09_goodput_dctcp", |b| {
        b.iter(|| {
            let mut cfg = GoodputConfig::scaled(Proto::Dctcp);
            cfg.join_interval = Dur::millis(30);
            cfg.tail = Dur::millis(30);
            black_box(experiments::goodput::run(&cfg))
        })
    });
}

fn fig10_convergence(c: &mut Criterion) {
    c.bench_function("fig10_convergence_tcp", |b| {
        b.iter(|| {
            let mut cfg = GoodputConfig::scaled(Proto::Tcp);
            cfg.join_interval = Dur::millis(30);
            cfg.tail = Dur::millis(30);
            black_box(experiments::goodput::run(&cfg))
        })
    });
}

fn fig11_workconserving(c: &mut Criterion) {
    c.bench_function("fig11_workconserving", |b| {
        b.iter(|| {
            let cfg = WorkConservingConfig {
                duration: Dur::millis(60),
                ..Default::default()
            };
            black_box(experiments::workconserving::run(&cfg))
        })
    });
}

fn fig12_incast(c: &mut Criterion) {
    c.bench_function("fig12_incast_tfc_16", |b| {
        b.iter(|| {
            black_box(experiments::incast::run(&IncastExpConfig::testbed(
                Proto::Tfc,
                16,
                2,
            )))
        })
    });
}

fn fig13_benchmark(c: &mut Criterion) {
    c.bench_function("fig13_benchmark_tfc", |b| {
        b.iter(|| {
            let mut cfg = BenchExpConfig::testbed(Proto::Tfc);
            cfg.horizon = Dur::millis(50);
            cfg.drain = Dur::millis(100);
            black_box(experiments::benchmark::run(&cfg))
        })
    });
}

fn fig14_rho(c: &mut Criterion) {
    c.bench_function("fig14_rho_sweep", |b| {
        b.iter(|| {
            let cfg = RhoConfig {
                rho0_values: vec![0.90, 0.97],
                duration: Dur::millis(40),
                ..Default::default()
            };
            black_box(experiments::rho::run(&cfg))
        })
    });
}

fn fig15_incast_large(c: &mut Criterion) {
    c.bench_function("fig15_incast_10g_tfc_32", |b| {
        b.iter(|| {
            black_box(experiments::incast::run(&IncastExpConfig::large(
                Proto::Tfc,
                32,
                64 * 1024,
                Dur::millis(20),
            )))
        })
    });
}

fn fig16_benchmark_large(c: &mut Criterion) {
    c.bench_function("fig16_benchmark_leafspine", |b| {
        b.iter(|| {
            let mut cfg = BenchExpConfig::large(Proto::Tfc, 3, 4);
            cfg.horizon = Dur::millis(40);
            cfg.drain = Dur::millis(120);
            black_box(experiments::benchmark::run(&cfg))
        })
    });
}

criterion_group! {
    name = figures;
    config = small(&mut Criterion::default());
    targets = fig06_rttb, fig07_ne, fig08_queue, fig09_goodput,
        fig10_convergence, fig11_workconserving, fig12_incast,
        fig13_benchmark, fig14_rho, fig15_incast_large,
        fig16_benchmark_large
}
criterion_main!(figures);

//! Criterion wall-clock benchmarks of the Figure 3 grid.
//!
//! The paper's tables come from deterministic virtual-time runs
//! (`bastion paper fig3`); this bench measures real simulator wall time per
//! configuration so regressions in the reproduction itself are visible.

use bastion::apps::{App, ALL_APPS};
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, WorkloadSize};
use bastion::vm::CostModel;
use bastion::Protection;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_overhead(c: &mut Criterion) {
    let size = WorkloadSize {
        http_requests: 120,
        http_concurrency: 8,
        tpcc_tx: 150,
        tpcc_sessions: 4,
        ftp_downloads: 1,
    };
    let compiler = BastionCompiler::new();
    let cost = CostModel::default();
    let mut g = c.benchmark_group("figure3");
    g.sample_size(10);
    for app in ALL_APPS {
        for prot in [Protection::vanilla(), Protection::cet(), Protection::full()] {
            g.bench_with_input(
                BenchmarkId::new(app.id(), prot.label),
                &(app, prot),
                |b, (app, prot)| {
                    b.iter(|| run_app_benchmark(*app, prot, &size, &compiler, cost));
                },
            );
        }
    }
    g.finish();
}

fn bench_boot(c: &mut Criterion) {
    let compiler = BastionCompiler::new();
    let mut g = c.benchmark_group("compile");
    g.sample_size(10);
    for app in ALL_APPS {
        g.bench_function(BenchmarkId::new("bastion_pass", app.id()), |b| {
            let module = app.module().expect("compiles");
            b.iter(|| compiler.compile(module.clone()).expect("instrumentation"));
        });
        let _ = app;
    }
    g.finish();
    let _ = App::Webserve;
}

criterion_group!(benches, bench_overhead, bench_boot);
criterion_main!(benches);

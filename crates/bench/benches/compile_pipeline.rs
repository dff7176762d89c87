//! Host cost of the compile pipeline every deploy runs: the MiniC front
//! end, the BASTION pass (`BastionCompiler::compile`) and the image
//! loader (`Image::load`), for each evaluation app and one generated
//! corpus program.
//!
//! `compile` and `image_load` consume their input, so those two time a
//! clone of a prebuilt module as well; `pipeline` is the whole chain from
//! source, as `Deployment::from_minic` runs it.

use bastion::apps::ALL_APPS;
use bastion::attacks::generate;
use bastion::compiler::BastionCompiler;
use bastion::vm::Image;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn programs() -> Vec<(&'static str, &'static str)> {
    let mut progs: Vec<_> = ALL_APPS.iter().map(|a| (a.id(), a.source())).collect();
    let (family, _, source) = generate::corpus()[0];
    progs.push((family, source));
    progs
}

fn front(source: &str) -> bastion::ir::Module {
    bastion::minic::compile_program("bench", &[source]).expect("compiles")
}

fn bench_compile_pipeline(c: &mut Criterion) {
    let compiler = BastionCompiler::new();
    let mut g = c.benchmark_group("compile_pipeline");
    g.sample_size(20);
    for (name, source) in programs() {
        let module = front(source);
        let instrumented = compiler.compile(module.clone()).expect("compiles").module;
        g.bench_with_input(BenchmarkId::new("front", name), &source, |b, src| {
            b.iter(|| black_box(front(src)));
        });
        g.bench_with_input(BenchmarkId::new("compile", name), &module, |b, m| {
            b.iter(|| black_box(compiler.compile(m.clone()).expect("compiles")));
        });
        g.bench_with_input(
            BenchmarkId::new("image_load", name),
            &instrumented,
            |b, m| {
                b.iter(|| black_box(Image::load(m.clone()).expect("loads")));
            },
        );
        g.bench_with_input(BenchmarkId::new("pipeline", name), &source, |b, src| {
            b.iter(|| {
                let out = compiler.compile(front(src)).expect("compiles");
                black_box((Image::load(out.module).expect("loads"), out.metadata))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_compile_pipeline);
criterion_main!(benches);

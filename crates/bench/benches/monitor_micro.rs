//! Microbenchmarks of the monitor's building blocks: shadow-table
//! operations, metadata lookups, and a full trap verification.

use bastion::compiler::BastionCompiler;
use bastion::ir::sysno;
use bastion::vm::{CostModel, Machine, MemIo, Memory, ShadowTable, SHADOW_REGION_SIZE};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_shadow(c: &mut Criterion) {
    let mut mem = Memory::new();
    let base = 0x5800_0000_0000u64;
    mem.map_region(base, SHADOW_REGION_SIZE);
    let t = ShadowTable::new(base);
    for i in 0..4096u64 {
        t.write_value(&mut mem, 0x1_0000 + i * 8, i, 8).unwrap();
    }
    c.bench_function("shadow/write_value", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            t.write_value(&mut mem, 0x1_0000 + (i % 4096) * 8, i, 8)
                .unwrap();
        });
    });
    c.bench_function("shadow/read_value_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            t.read_value(&mem, 0x1_0000 + (i % 4096) * 8).unwrap()
        });
    });
    c.bench_function("shadow/read_value_miss", |b| {
        b.iter(|| t.read_value(&mem, 0x9999_0000).unwrap());
    });
    c.bench_function("shadow/bind_and_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            t.bind_mem(&mut mem, 0x40_1000 + (i % 64) * 4, 3, 0x7fff_0000)
                .unwrap();
            t.get_binding(&mem, 0x40_1000 + (i % 64) * 4, 3).unwrap()
        });
    });
}

fn bench_memory(c: &mut Criterion) {
    let mut mem = Memory::new();
    mem.map_region(0x1000, 1 << 20);
    c.bench_function("memory/write_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(8);
            mem.write_u64(0x1000 + (i & 0xfffff & !7), i).unwrap();
        });
    });
    c.bench_function("memory/read_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(8);
            mem.read_u64(0x1000 + (i & 0xfffff & !7)).unwrap()
        });
    });
}

fn bench_interp(c: &mut Criterion) {
    // A tight MiniC loop: measures raw interpreter throughput.
    let src = r#"
        long main() {
            long i;
            long acc;
            acc = 0;
            for (i = 0; i < 100000; i = i + 1) {
                acc = acc + (i ^ (acc >> 3));
            }
            return acc & 0xff;
        }
    "#;
    let module = bastion::minic::compile_program("hot", &[src]).expect("compiles");
    let image = Arc::new(bastion::vm::Image::load(module).expect("image"));
    c.bench_function("interp/arith_loop_100k", |b| {
        b.iter(|| {
            let mut m = Machine::new(image.clone(), CostModel::default());
            bastion::vm::interp::run(&mut m, 10_000_000).event()
        });
    });
}

fn bench_compile_pass(c: &mut Criterion) {
    let compiler = BastionCompiler::new();
    let module = bastion::apps::App::Webserve.module().expect("compiles");
    c.bench_function("compiler/webserve_full_pass", |b| {
        b.iter(|| compiler.compile(module.clone()).expect("instrumentation"));
    });
    let extended = BastionCompiler::with_sensitive(sysno::extended_sensitive_set());
    c.bench_function("compiler/webserve_extended_scope", |b| {
        b.iter(|| extended.compile(module.clone()).expect("instrumentation"));
    });
}

fn bench_trap_verify(c: &mut Criterion) {
    use bastion::ir::build::ModuleBuilder;
    use bastion::ir::{Operand, Ty};
    use bastion::kernel::{Tracee, Tracer};
    use bastion::monitor::{ContextConfig, LaunchInfo, Monitor};

    // main → mmap with constant arguments: the smallest module whose trap
    // exercises CT, the stack walk, and AI argument checks.
    let mut mb = ModuleBuilder::new("trapbench");
    let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
    let mut f = mb.function("main", &[], Ty::I64);
    let _ = f.call_direct(
        mmap,
        &[
            0i64.into(),
            4096i64.into(),
            3i64.into(),
            0x21i64.into(),
            (-1i64).into(),
            0i64.into(),
        ],
    );
    f.ret(Some(Operand::Imm(0)));
    f.finish();
    let out = BastionCompiler::new()
        .compile(mb.finish())
        .expect("instrumentation");
    let image = Arc::new(bastion::vm::Image::load(out.module).expect("image"));
    let mut machine = Machine::new(image.clone(), CostModel::default());
    match bastion::vm::interp::run(&mut machine, 10_000_000).event() {
        bastion::vm::Event::Syscall { nr, .. } if nr == sysno::MMAP => {}
        e => panic!("expected the mmap trap, got {e:?}"),
    }
    let info = LaunchInfo::from_image(&image, &out.metadata);

    // `on_trap` is the tier-2 entry point: the prefilter never runs here.
    let mut mon = Monitor::new(&out.metadata, ContextConfig::full(), info);
    {
        // The clean trap must verify before it is timed.
        let mut charge = 0u64;
        let mut t = Tracee::new(&machine, 1, &mut charge);
        assert_eq!(mon.on_trap(&mut t), bastion::kernel::TraceVerdict::Allow);
    }
    c.bench_function("trap_verify/full", |b| {
        b.iter(|| {
            let mut charge = 0u64;
            let mut t = Tracee::new(&machine, 1, &mut charge);
            criterion::black_box(mon.on_trap(&mut t))
        });
    });
}

criterion_group!(
    benches,
    bench_shadow,
    bench_memory,
    bench_interp,
    bench_compile_pass,
    bench_trap_verify
);
criterion_main!(benches);

//! Interpreter dispatch throughput: predecoded fast path vs the legacy
//! tree-walking oracle, on a call-heavy arithmetic loop; the guest
//! memory paths under it (`mem_access`); and a file `read` into guest
//! memory (`file_read`).

use bastion::ir::build::ModuleBuilder;
use bastion::ir::{BinOp, CmpOp, Operand, Ty};
use bastion::vm::{interp, CostModel, Image, Machine, MemIo, Memory};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn microloop() -> Arc<Image> {
    let mut mb = ModuleBuilder::new("bench_loop");
    let helper = mb.declare("helper", &[("x", Ty::I64)], Ty::I64);
    {
        let mut f = mb.define(helper);
        let a = f.frame_addr(f.param_slot(0));
        let v = f.load(a);
        let d = f.bin(BinOp::Add, v, 1i64);
        f.ret(Some(d.into()));
        f.finish();
    }
    let mut f = mb.function("main", &[], Ty::I64);
    let acc = f.local("acc", Ty::I64);
    let head = f.new_block();
    let body = f.new_block();
    let done = f.new_block();
    let pa = f.frame_addr(acc);
    f.store(pa, 0i64);
    f.jmp(head);
    f.switch_to(head);
    let pa = f.frame_addr(acc);
    let cur = f.load(pa);
    let c = f.cmp(CmpOp::Lt, cur, 1_000_000_000i64);
    f.br(c, body, done);
    f.switch_to(body);
    let pa = f.frame_addr(acc);
    let cur = f.load(pa);
    let x = f.bin(BinOp::Mul, cur, 3i64);
    let bumped = f.call_direct(helper, &[cur.into()]);
    let _dead = f.bin(BinOp::Xor, x, bumped);
    f.store(pa, bumped);
    f.jmp(head);
    f.switch_to(done);
    f.ret(Some(Operand::Imm(0)));
    f.finish();
    Arc::new(Image::load(mb.finish()).expect("loads"))
}

const STEPS: u64 = 20_000;

fn bench_interp_throughput(c: &mut Criterion) {
    let img = microloop();
    let mut group = c.benchmark_group("interp_throughput");
    group.bench_function("fast_20k_steps", |b| {
        b.iter(|| {
            let mut m = Machine::new(img.clone(), CostModel::default());
            criterion::black_box(interp::run_bounded(&mut m, STEPS))
        });
    });
    group.bench_function("legacy_20k_steps", |b| {
        b.iter(|| {
            let mut m = Machine::new(img.clone(), CostModel::default());
            for _ in 0..STEPS {
                criterion::black_box(interp::step(&mut m));
            }
        });
    });
    group.finish();
}

/// Base of the pages the memory benches touch.
const BASE: u64 = 0x10_0000;
const PAGE: u64 = 4096;

fn bench_mem_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("mem_access");
    let mut owned = Memory::new();
    owned.map_region(BASE, PAGE);
    owned.write_u64(BASE, 1).expect("mapped");
    group.bench_function("store_owned_page", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            owned.write_u64(BASE + (v & 0x1f8), v)
        });
    });
    let mut shared = owned.clone();
    shared.share_pages();
    // Each iteration clones a one-page memory and pays its CoW break.
    group.bench_function("first_store_shared_page", |b| {
        b.iter(|| {
            let mut m = shared.clone();
            m.write_u64(BASE, 2).expect("mapped");
            m
        });
    });
    // 17 resident pages: pages 0 and 16 share a TLB entry, so the
    // round-robin evicts and refills it on every pass. `load_u64` is the
    // interpreter's load, which fills the TLB on a miss.
    let mut spread = Memory::new();
    spread.map_region(BASE, 17 * PAGE);
    for p in 0..17 {
        spread.write_u64(BASE + p * PAGE, p).expect("mapped");
    }
    group.bench_function("load_17_pages", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for p in 0..17 {
                sum = sum.wrapping_add(spread.load_u64(BASE + p * PAGE).expect("mapped"));
            }
            sum
        });
    });
    group.finish();
}

/// The FTP server's download loop at the kernel: 32 KiB `read`s of the
/// 16 MiB download fixture into a buffer at guest page offset 3480, where
/// ftpd's `chunk` buffer sits. One iteration is one read; at end of file
/// the next iteration rewinds.
fn bench_file_read(c: &mut Criterion) {
    use bastion::apps::ftpd;
    use bastion::ir::sysno;
    use bastion::kernel::process::FdTable;
    use bastion::kernel::syscall::{Kernel, OfdKind, SysOutcome};
    use bastion::kernel::Process;

    const CHUNK: u64 = 32 * 1024;
    let buf = BASE + 3480;
    let mut kernel = Kernel::new(CostModel::default());
    kernel.vfs.put_file(ftpd::FILE_PATH, ftpd::payload(), 0o644);
    let (i, o, e) = kernel.stdio();
    let mut p = Process::new(
        1,
        Machine::new(microloop(), CostModel::default()),
        FdTable::with_stdio(i, o, e),
    );
    p.machine.mem.map_region(BASE, CHUNK + PAGE);
    let fd = p.fds.alloc(kernel.alloc_ofd(OfdKind::File {
        path: ftpd::FILE_PATH.into(),
        offset: 0,
        writable: false,
    })) as u64;
    let mut group = c.benchmark_group("file_read");
    group.bench_function("ftpd_fixture_32k_at_3480", |b| {
        b.iter(|| {
            let read = kernel.dispatch(&mut p, sysno::READ, [fd, buf, CHUNK, 0, 0, 0], 0);
            if read == SysOutcome::Done(0) {
                kernel.dispatch(&mut p, sysno::LSEEK, [fd, 0, 0, 0, 0, 0], 0);
            }
            read
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_interp_throughput,
    bench_mem_access,
    bench_file_read
);
criterion_main!(benches);

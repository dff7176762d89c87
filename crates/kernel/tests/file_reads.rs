//! `read` of a regular file, dispatched straight into the kernel: the whole
//! guest pages a read covers become views of the file's bytes, and a view
//! keeps the bytes it read however the file changes after.

use bastion_ir::sysno;
use bastion_kernel::errno;
use bastion_kernel::process::FdTable;
use bastion_kernel::syscall::{Kernel, OfdKind, SysOutcome};
use bastion_kernel::Process;
use bastion_minic::compile_program;
use bastion_vm::mem::PAGE_SIZE;
use bastion_vm::{CostModel, Image, Machine, MemIo};
use std::sync::Arc;

const PATH: &str = "/srv/payload";

/// Guest address of the read buffer: page offset 3480, where the FTP
/// server's transfer buffer sits.
const BUF: u64 = 0x5000_0000 + 3480;

/// Bytes of the buffer and of each read: the buffer spans 4 whole pages.
const LEN: u64 = 5 * PAGE_SIZE;

fn fixture() -> Arc<Vec<u8>> {
    Arc::new((0..4 * LEN).map(|i| (i * 31 % 251) as u8 + 1).collect())
}

/// A kernel holding `fixture` at [`PATH`] and a process with the pages of
/// `[BUF, BUF + LEN)` mapped.
fn kernel_and_process(fixture: &Arc<Vec<u8>>) -> (Kernel, Process) {
    let module = compile_program("t", &["long main() { return 0; }"]).unwrap();
    let machine = Machine::new(Arc::new(Image::load(module).unwrap()), CostModel::default());
    let mut kernel = Kernel::new(CostModel::default());
    kernel.vfs.put_file(PATH, Arc::clone(fixture), 0o644);
    let (i, o, e) = kernel.stdio();
    let mut p = Process::new(1, machine, FdTable::with_stdio(i, o, e));
    let lo = BUF & !(PAGE_SIZE - 1);
    assert!(!p.machine.mem.is_mapped(lo, 1), "the buffer pages are free");
    p.machine
        .mem
        .map_region(lo, (BUF + LEN).div_ceil(PAGE_SIZE) * PAGE_SIZE - lo);
    (kernel, p)
}

fn open(kernel: &mut Kernel, p: &mut Process, writable: bool) -> u64 {
    let id = kernel.alloc_ofd(OfdKind::File {
        path: PATH.into(),
        offset: 0,
        writable,
    });
    p.fds.alloc(id) as u64
}

fn call(kernel: &mut Kernel, p: &mut Process, nr: u32, args: [u64; 3]) -> u64 {
    match kernel.dispatch(p, nr, [args[0], args[1], args[2], 0, 0, 0], 0) {
        SysOutcome::Done(v) => v,
        other => panic!("syscall {nr}: {other:?}"),
    }
}

fn guest_bytes(p: &Process, addr: u64, len: u64) -> Vec<u8> {
    let mut buf = vec![0u8; len as usize];
    p.machine.mem.read(addr, &mut buf).unwrap();
    buf
}

#[test]
fn a_read_keeps_its_bytes_when_the_file_is_rewritten() {
    let fixture = fixture();
    let (mut kernel, mut p) = kernel_and_process(&fixture);
    let rd = open(&mut kernel, &mut p, false);
    let wr = open(&mut kernel, &mut p, true);
    // Read the second LEN bytes of the file.
    assert_eq!(call(&mut kernel, &mut p, sysno::LSEEK, [rd, LEN, 0]), LEN);
    assert_eq!(call(&mut kernel, &mut p, sysno::READ, [rd, BUF, LEN]), LEN);
    let read = fixture[LEN as usize..2 * LEN as usize].to_vec();
    assert_eq!(guest_bytes(&p, BUF, LEN), read);
    assert!(
        Arc::strong_count(&fixture) > 2,
        "the read's whole pages are views of the fixture"
    );

    // Overwrite that range of the file with bytes from another guest page.
    let src = 0x6000_0000;
    p.machine.mem.map_region(src, LEN);
    p.machine
        .mem
        .write_unchecked(src, &vec![0xee; LEN as usize]);
    assert_eq!(call(&mut kernel, &mut p, sysno::LSEEK, [wr, LEN, 0]), LEN);
    assert_eq!(call(&mut kernel, &mut p, sysno::WRITE, [wr, src, LEN]), LEN);

    assert_eq!(
        guest_bytes(&p, BUF, LEN),
        read,
        "the guest keeps what it read"
    );
    let now = &kernel.vfs.file(PATH).unwrap().data;
    assert!(now[LEN as usize..2 * LEN as usize]
        .iter()
        .all(|&b| b == 0xee));
    assert_eq!(now[..LEN as usize], fixture[..LEN as usize]);
    assert_eq!(
        *fixture,
        *self::fixture(),
        "the shared fixture is untouched"
    );
}

#[test]
fn a_read_into_a_partly_unmapped_buffer_faults_and_installs_nothing() {
    let fixture = fixture();
    let (mut kernel, mut p) = kernel_and_process(&fixture);
    let rd = open(&mut kernel, &mut p, false);
    // Unmap the buffer's third page: the first two pages stay mapped.
    let hole = (BUF & !(PAGE_SIZE - 1)) + 2 * PAGE_SIZE;
    p.machine.mem.unmap_region(hole, PAGE_SIZE);
    let resident = p.machine.mem.resident_pages();
    let refs = Arc::strong_count(&fixture);

    let ret = call(&mut kernel, &mut p, sysno::READ, [rd, BUF, LEN]);
    assert_eq!(ret, errno::err(errno::EFAULT));
    assert_eq!(call(&mut kernel, &mut p, sysno::LSEEK, [rd, 0, 1]), 0);
    assert_eq!(p.machine.mem.resident_pages(), resident);
    assert_eq!(Arc::strong_count(&fixture), refs);
    assert!(guest_bytes(&p, BUF, 2 * PAGE_SIZE - 3480)
        .iter()
        .all(|&b| b == 0));

    // The same read into a mapped buffer then succeeds from offset 0.
    p.machine.mem.map_region(hole, PAGE_SIZE);
    assert_eq!(call(&mut kernel, &mut p, sysno::READ, [rd, BUF, LEN]), LEN);
    assert_eq!(guest_bytes(&p, BUF, LEN), fixture[..LEN as usize]);
}

//! Syscall-surface coverage: each family of the dispatcher exercised by a
//! MiniC program, with kernel-side state asserted.

use bastion_kernel::{ExitReason, RunStatus, World};
use bastion_minic::compile_program;
use bastion_vm::{CostModel, Image, Machine};
use std::sync::Arc;

fn run(src: &str, setup: impl FnOnce(&mut World)) -> (World, i64) {
    let module = compile_program("t", &[src]).unwrap();
    let image = Arc::new(Image::load(module).unwrap());
    let machine = Machine::new(image, CostModel::default());
    let mut world = World::new(CostModel::default());
    setup(&mut world);
    let pid = world.spawn(machine);
    assert_eq!(world.run(200_000_000), RunStatus::AllExited);
    let Some(ExitReason::Exited(code)) = world.proc(pid).unwrap().exit.clone() else {
        panic!("abnormal exit: {:?}", world.proc(pid).unwrap().exit);
    };
    (world, code)
}

#[test]
fn open_create_write_read_back() {
    let (world, code) = run(
        r#"
        long main() {
            long fd;
            char buf[32];
            long n;
            fd = open("/data/new.txt", 0x41, 0644);   // O_WRONLY|O_CREAT
            if (fd < 0) { return 1; }
            write(fd, "persisted", 9);
            close(fd);
            fd = open("/data/new.txt", 0, 0);
            n = read(fd, buf, 31);
            buf[n] = 0;
            close(fd);
            if (strcmp(buf, "persisted") != 0) { return 2; }
            return 0;
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 0);
    assert_eq!(
        *world.kernel.vfs.file("/data/new.txt").unwrap().data,
        b"persisted"
    );
}

#[test]
fn lseek_whence_semantics() {
    let (_, code) = run(
        r#"
        long main() {
            long fd;
            char b[8];
            fd = open("/f", 0, 0);
            if (lseek(fd, 3, 0) != 3) { return 1; }     // SEEK_SET
            read(fd, b, 1);
            if (b[0] != 'd') { return 2; }
            if (lseek(fd, 2, 1) != 6) { return 3; }     // SEEK_CUR (4+2)
            if (lseek(fd, 0 - 2, 2) != 8) { return 4; } // SEEK_END (10-2)
            read(fd, b, 2);
            if (b[0] != 'i') { return 5; }
            if (lseek(fd, 0 - 99, 0) >= 0) { return 6; } // negative → EINVAL
            return 0;
        }
        "#,
        |w| w.kernel.vfs.put_file("/f", b"abcdefghij".to_vec(), 0o644),
    );
    assert_eq!(code, 0);
}

#[test]
fn stat_reports_size_and_mode() {
    let (_, code) = run(
        r#"
        long main() {
            long st[2];
            if (stat("/f", st) != 0) { return 1; }
            if (st[0] != 10) { return 2; }
            if (st[1] != 0644) { return 3; }
            if (stat("/missing", st) >= 0) { return 4; }
            return 0;
        }
        "#,
        |w| w.kernel.vfs.put_file("/f", b"abcdefghij".to_vec(), 0o644),
    );
    assert_eq!(code, 0);
}

#[test]
fn writev_gathers_iovecs() {
    let (world, code) = run(
        r#"
        long main() {
            long iov[4];
            char *a = "hello ";
            char *b = "world";
            iov[0] = a; iov[1] = 6;
            iov[2] = b; iov[3] = 5;
            return writev(1, iov, 2);
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 11);
    assert_eq!(world.kernel.console, b"hello world");
}

#[test]
fn dup_shares_the_description() {
    let (world, code) = run(
        r#"
        long main() {
            long fd;
            long fd2;
            fd = open("/log", 0x41, 0600);
            fd2 = dup(fd);
            write(fd, "ab", 2);
            write(fd2, "cd", 2);   // shared offset: appends after "ab"
            close(fd);
            write(fd2, "ef", 2);   // description still alive through fd2
            close(fd2);
            return 0;
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 0);
    assert_eq!(*world.kernel.vfs.file("/log").unwrap().data, b"abcdef");
}

#[test]
fn rename_unlink_mkdir_chain() {
    let (world, code) = run(
        r#"
        long main() {
            mkdir("/tmp", 0777);
            long fd = open("/tmp/a", 0x41, 0600);
            write(fd, "x", 1);
            close(fd);
            if (rename("/tmp/a", "/tmp/b") != 0) { return 1; }
            if (open("/tmp/a", 0, 0) >= 0) { return 2; }
            if (unlink("/tmp/b") != 0) { return 3; }
            if (unlink("/tmp/b") >= 0) { return 4; }
            return 0;
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 0);
    // Everything we created was renamed away and unlinked.
    assert_eq!(world.kernel.vfs.file_count(), 0);
}

#[test]
fn ftruncate_resizes() {
    let (world, code) = run(
        r#"
        long main() {
            long fd = open("/f", 1, 0);
            if (ftruncate(fd, 4) != 0) { return 1; }
            close(fd);
            long st[2];
            stat("/f", st);
            return st[0];
        }
        "#,
        |w| w.kernel.vfs.put_file("/f", b"abcdefghij".to_vec(), 0o644),
    );
    assert_eq!(code, 4);
    assert_eq!(*world.kernel.vfs.file("/f").unwrap().data, b"abcd");
}

#[test]
fn brk_grows_the_heap() {
    let (_, code) = run(
        r#"
        long main() {
            long base = brk(0);
            long p = brk(base + 8192);
            if (p != base + 8192) { return 1; }
            // The new heap memory is usable.
            long *cell = base;
            *cell = 777;
            return *cell == 777;
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 1);
}

#[test]
fn mmap_munmap_lifecycle() {
    let (world, code) = run(
        r#"
        long main() {
            long a = mmap(0, 8192, 3, 0x21, 0 - 1, 0);
            long *p = a;
            *p = 42;
            if (*p != 42) { return 1; }
            munmap(a, 8192);
            return 0;
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 0);
    // The VMA was removed again.
    assert!(world.procs[0].vmas.is_empty());
}

#[test]
fn munmap_then_fixed_remap_reads_zeros() {
    // Regression: munmap kept the backing pages, so a MAP_FIXED re-map of
    // the same range read the old bytes back.
    let (_, code) = run(
        r#"
        long main() {
            long a = mmap(0, 8192, 3, 0x21, 0 - 1, 0);
            long *p = a;
            p[0] = 0xdeadbeef;
            p[600] = 0xdeadbeef;
            munmap(a, 8192);
            long b = mmap(a, 8192, 3, 0x31, 0 - 1, 0);   // MAP_FIXED
            if (b != a) { return 1; }
            if (p[0] != 0) { return 2; }
            if (p[600] != 0) { return 3; }
            return 0;
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 0);
}

#[test]
fn brk_shrink_then_regrow_reads_zeros() {
    let (world, code) = run(
        r#"
        long main() {
            long base = brk(0);
            brk(base + 8192);
            long *cell = base + 4096;
            *cell = 0xdeadbeef;
            brk(base + 4096);
            brk(base + 8192);
            return *cell;
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 0);
    let p = &world.procs[0];
    assert!(p.machine.mem.is_mapped(p.brk - 8192, 8192));
}

#[test]
fn getrandom_is_deterministic_per_world() {
    let go = || {
        run(
            r#"
            long main() {
                char buf[16];
                getrandom(buf, 16, 0);
                long i;
                long acc = 0;
                for (i = 0; i < 16; i = i + 1) { acc = acc ^ (buf[i] << (i & 7)); }
                return acc & 0x7fffffff;
            }
            "#,
            |_| {},
        )
        .1
    };
    let a = go();
    let b = go();
    assert_eq!(a, b, "getrandom must be deterministic across worlds");
    assert_ne!(a, 0);
}

#[test]
fn bad_fds_and_unknown_syscalls_error_cleanly() {
    let (_, code) = run(
        r#"
        long main() {
            if (read(99, 0, 0) >= 0) { return 1; }      // EBADF
            if (close(99) >= 0) { return 2; }           // EBADF
            if (write(0, "x", 1) >= 0) { return 3; }    // stdin not writable? (EINVAL path)
            if (kill(42, 9) != 0) { return 4; }         // no-op success
            if (getcwd(0, 0) >= 0) { return 5; }        // EFAULT
            return 0;
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 0);
}

#[test]
fn setuid_requires_privilege() {
    let (world, code) = run(
        r#"
        long main() {
            if (setuid(1000) != 0) { return 1; }    // root may drop
            if (setuid(0) >= 0) { return 2; }       // and cannot come back
            if (setgid(5) >= 0) { return 3; }       // unprivileged now
            return 0;
        }
        "#,
        |_| {},
    );
    assert_eq!(code, 0);
    assert_eq!(world.procs[0].creds.uid, 1000);
    assert_eq!(world.procs[0].creds.euid, 1000);
}

#[test]
fn sendfile_to_stdout() {
    let (world, code) = run(
        r#"
        long main() {
            long fd = open("/f", 0, 0);
            return sendfile(1, fd, 0, 5);
        }
        "#,
        |w| w.kernel.vfs.put_file("/f", b"abcdefghij".to_vec(), 0o644),
    );
    assert_eq!(code, 5);
    assert_eq!(world.kernel.console, b"abcde");
}

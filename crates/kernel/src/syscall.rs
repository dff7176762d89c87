//! The system call dispatcher.
//!
//! Implements ~40 Linux x86-64 syscalls over the VFS, network, and process
//! state, with Linux numbering ([`bastion_ir::sysno`]) and the `-errno`
//! return convention. Every *executed* syscall increments a per-number
//! counter — the raw data behind Table 4.
//!
//! ## ABI conventions (simulator)
//!
//! * `sockaddr` is 16 bytes: `u16` family at +0, `u16` port at +2
//!   (little-endian), zero padding;
//! * `iovec` entries are `(ptr: u64, len: u64)` pairs;
//! * `nanosleep` takes a duration in *virtual cycles* in its first argument;
//! * `PROT_READ/WRITE/EXEC` are 1/2/4; `MAP_FIXED` is 0x10;
//! * `O_WRONLY/O_RDWR/O_CREAT/O_TRUNC` are 1/2/0x40/0x200.

use crate::errno::{self, err};
use crate::fs::Vfs;
use crate::net::{ConnId, Net, ReadOutcome};
use crate::process::{OfdId, Pid, Process, Vma, WaitReason};
use bastion_ir::sysno;
use bastion_vm::{CostModel, MemIo, Memory, OutOfBounds};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What an open file descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfdKind {
    /// Standard input (always at EOF).
    Stdin,
    /// Standard output (appended to the kernel console).
    Stdout,
    /// Standard error (appended to the kernel console).
    Stderr,
    /// A regular file with a cursor.
    File {
        /// VFS path.
        path: String,
        /// Read/write cursor.
        offset: u64,
        /// Opened writable.
        writable: bool,
    },
    /// A socket created but not yet listening.
    Socket {
        /// Port recorded by `bind`.
        bound_port: Option<u16>,
    },
    /// A listening socket.
    Listener(crate::net::ListenerId),
    /// An established connection.
    Conn(crate::net::ConnId),
}

/// A refcounted open file description (shared across `clone`).
#[derive(Debug, Clone)]
pub struct Ofd {
    /// What it refers to.
    pub kind: OfdKind,
    /// Reference count across fd tables.
    pub refs: u32,
}

/// The outcome of dispatching a syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysOutcome {
    /// Completed with a return value.
    Done(u64),
    /// Must block; the world parks the process.
    Block(WaitReason),
    /// The process exits with this status.
    Exit(i64),
    /// `fork`/`vfork`/`clone`: the world must duplicate the process.
    Fork,
}

/// Shared kernel state. `Clone` is the world-snapshot path: VFS, network
/// namespace, open-file table, logs, and the seeded RNG are all captured so
/// a restored world replays syscalls bit-identically.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The filesystem.
    pub vfs: Vfs,
    /// The network namespace.
    pub net: Net,
    /// Open file description table.
    pub ofds: Vec<Ofd>,
    /// Executed-syscall counters (Table 4 ground truth).
    pub counts: BTreeMap<u32, u64>,
    /// Kernel-side virtual cycles (folded into the world clock).
    pub cycles: u64,
    /// Bytes written to stdout/stderr.
    pub console: Vec<u8>,
    /// Successful `execve`s: (pid, path, euid) — attack ground truth.
    pub exec_log: Vec<(Pid, String, u32)>,
    /// Successful `chmod`s: (path, mode) — attack ground truth.
    pub chmod_log: Vec<(String, u32)>,
    /// All `mprotect`s: (pid, addr, len, prot) — attack ground truth.
    pub mprotect_log: Vec<(Pid, u64, u64, u64)>,
    /// Cost model for kernel-side charging.
    pub cost: CostModel,
    rng_state: u64,
}

impl Kernel {
    /// A fresh kernel with an empty VFS and network.
    pub fn new(cost: CostModel) -> Self {
        Kernel {
            vfs: Vfs::new(),
            net: Net::new(),
            ofds: vec![
                Ofd {
                    kind: OfdKind::Stdin,
                    refs: 1,
                },
                Ofd {
                    kind: OfdKind::Stdout,
                    refs: 1,
                },
                Ofd {
                    kind: OfdKind::Stderr,
                    refs: 1,
                },
            ],
            counts: BTreeMap::new(),
            cycles: 0,
            console: Vec::new(),
            exec_log: Vec::new(),
            chmod_log: Vec::new(),
            mprotect_log: Vec::new(),
            cost,
            rng_state: 0x1234_5678_9abc_def0,
        }
    }

    /// The stdio description ids for a new process's fd table.
    pub fn stdio(&mut self) -> (OfdId, OfdId, OfdId) {
        self.ofds[0].refs += 1;
        self.ofds[1].refs += 1;
        self.ofds[2].refs += 1;
        (0, 1, 2)
    }

    /// Allocates an open file description.
    pub fn alloc_ofd(&mut self, kind: OfdKind) -> OfdId {
        for (i, o) in self.ofds.iter_mut().enumerate() {
            if o.refs == 0 {
                *o = Ofd { kind, refs: 1 };
                return i;
            }
        }
        self.ofds.push(Ofd { kind, refs: 1 });
        self.ofds.len() - 1
    }

    /// Increments refcounts for every fd in a forked child's table.
    pub fn ref_table(&mut self, fds: &crate::process::FdTable) {
        for id in fds.iter_open() {
            self.ofds[id].refs += 1;
        }
    }

    /// Drops one reference; closes the description at zero.
    pub fn deref_ofd(&mut self, id: OfdId) {
        let o = &mut self.ofds[id];
        o.refs = o.refs.saturating_sub(1);
        if o.refs == 0 {
            if let OfdKind::Conn(cid) = o.kind {
                self.net.server_close(cid);
            }
        }
    }

    /// Total executed syscalls for `nr`.
    pub fn count_of(&self, nr: u32) -> u64 {
        self.counts.get(&nr).copied().unwrap_or(0)
    }

    fn charge_io(&mut self, bytes: u64) {
        // ~1 cycle per 16 bytes moved: kernel-side copy bandwidth.
        self.cycles += bytes / 16;
    }

    /// Reads up to `len` queued bytes of connection `cid` into guest
    /// memory at `buf`, copied once, straight from the socket queue into
    /// the guest pages. Peek-validate-consume: the bytes leave the queue
    /// only once the whole destination is known to be mapped, so an EFAULT
    /// leaves them readable by a later, correctly-mapped read. Charges
    /// nothing. Shared by `read` and the scheduler's wake-up path.
    ///
    /// # Errors
    /// Fails, with the stream untouched, if the destination is unmapped.
    pub fn conn_read(
        &mut self,
        mem: &mut Memory,
        cid: ConnId,
        buf: u64,
        len: u64,
    ) -> Result<ReadOutcome, OutOfBounds> {
        self.net.server_read_with(cid, len as usize, |front, back| {
            if !mem.is_mapped(buf, (front.len() + back.len()) as u64) {
                return Err(OutOfBounds {
                    addr: buf,
                    write: true,
                });
            }
            mem.write_unchecked(buf, front);
            mem.write_unchecked(buf.wrapping_add(front.len() as u64), back);
            Ok(())
        })
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*: deterministic "randomness" for getrandom.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Completes a pending `accept`: allocates the connection fd and fills
    /// the peer sockaddr. Shared by the dispatcher and the scheduler's
    /// wake-up path.
    pub fn complete_accept(
        &mut self,
        p: &mut Process,
        lid: crate::net::ListenerId,
        addr_out: u64,
    ) -> u64 {
        let Some(cid) = self.net.accept(lid) else {
            return err(errno::EAGAIN);
        };
        let port = self.net.peer_port(cid);
        if addr_out != 0 {
            let mut sa = [0u8; 16];
            sa[0] = 2; // AF_INET
            sa[2..4].copy_from_slice(&port.to_le_bytes());
            let _ = p.machine.mem.write(addr_out, &sa);
        }
        let ofd = self.alloc_ofd(OfdKind::Conn(cid));
        p.fds.alloc(ofd) as u64
    }

    /// Dispatches one syscall for process `p` at virtual time `now`.
    ///
    /// # Panics
    /// Never panics on untrusted input; unknown syscalls return `-ENOSYS`.
    pub fn dispatch(&mut self, p: &mut Process, nr: u32, args: [u64; 6], now: u64) -> SysOutcome {
        *self.counts.entry(nr).or_insert(0) += 1;
        self.cycles += self.cost.syscall;
        match nr {
            sysno::READ => self.sys_read(p, args[0], args[1], args[2]),
            sysno::WRITE => self.sys_write(p, args[0], args[1], args[2]),
            sysno::OPEN => self.sys_open(p, args[0], args[1]),
            sysno::OPENAT => self.sys_open(p, args[1], args[2]),
            sysno::CLOSE => match p.fds.close(args[0]) {
                Some(id) => {
                    self.deref_ofd(id);
                    SysOutcome::Done(0)
                }
                None => SysOutcome::Done(err(errno::EBADF)),
            },
            sysno::STAT => self.sys_stat(p, args[0], args[1]),
            sysno::LSEEK => self.sys_lseek(p, args[0], args[1] as i64, args[2]),
            sysno::MMAP => self.sys_mmap(p, args),
            sysno::MPROTECT => {
                self.mprotect_log.push((p.pid, args[0], args[1], args[2]));
                for v in &mut p.vmas {
                    if args[0] < v.start + v.len && v.start < args[0] + args[1] {
                        v.prot = args[2];
                    }
                }
                SysOutcome::Done(0)
            }
            sysno::MUNMAP => {
                p.machine.mem.unmap_region(args[0], args[1]);
                p.vmas.retain(|v| v.start != args[0]);
                SysOutcome::Done(0)
            }
            sysno::BRK => {
                let cur = p.brk;
                if args[0] == 0 {
                    return SysOutcome::Done(cur);
                }
                if args[0] > cur {
                    p.machine.mem.map_region(cur, args[0] - cur);
                } else {
                    // A shrink drops what lay above the new break, so a
                    // later regrow reads zeros. The heap below its base
                    // was never brk's to unmap.
                    let lo = args[0].max(p.machine.image.heap_base);
                    if lo < cur {
                        p.machine.mem.unmap_region(lo, cur - lo);
                    }
                }
                p.brk = args[0];
                SysOutcome::Done(args[0])
            }
            sysno::MREMAP => SysOutcome::Done(args[0]),
            sysno::REMAP_FILE_PAGES => SysOutcome::Done(0),
            sysno::SOCKET => {
                let ofd = self.alloc_ofd(OfdKind::Socket { bound_port: None });
                SysOutcome::Done(p.fds.alloc(ofd) as u64)
            }
            sysno::BIND => self.sys_bind(p, args[0], args[1]),
            sysno::LISTEN => self.sys_listen(p, args[0], args[1]),
            sysno::ACCEPT => self.sys_accept(p, args[0], args[1], false),
            sysno::ACCEPT4 => self.sys_accept(p, args[0], args[1], true),
            sysno::CONNECT => {
                // Connects the socket to an unmodelled local peer: the fd
                // becomes a blackhole connection (writes vanish, reads EOF).
                let Some(id) = p.fds.get(args[0]) else {
                    return SysOutcome::Done(err(errno::EBADF));
                };
                let cid = self.net.blackhole();
                self.ofds[id].kind = OfdKind::Conn(cid);
                SysOutcome::Done(0)
            }
            sysno::SENDTO => self.sys_write(p, args[0], args[1], args[2]),
            sysno::RECVFROM => self.sys_read(p, args[0], args[1], args[2]),
            sysno::SENDFILE => self.sys_sendfile(p, args[0], args[1], args[3]),
            sysno::WRITEV => self.sys_writev(p, args[0], args[1], args[2]),
            sysno::SHUTDOWN => SysOutcome::Done(0),
            sysno::CLONE | sysno::FORK | sysno::VFORK => SysOutcome::Fork,
            sysno::EXECVE => self.sys_execve(p, args[0]),
            sysno::EXECVEAT => self.sys_execve(p, args[1]),
            sysno::EXIT | sysno::EXIT_GROUP => SysOutcome::Exit(args[0] as i64),
            sysno::WAIT4 => SysOutcome::Block(WaitReason::Wait4 {
                status_out: args[1],
            }),
            sysno::KILL => SysOutcome::Done(0),
            sysno::GETPID => SysOutcome::Done(u64::from(p.pid)),
            sysno::GETUID => SysOutcome::Done(u64::from(p.creds.uid)),
            sysno::SETUID => {
                if p.creds.euid == 0 {
                    p.creds.uid = args[0] as u32;
                    p.creds.euid = args[0] as u32;
                    SysOutcome::Done(0)
                } else {
                    SysOutcome::Done(err(errno::EPERM))
                }
            }
            sysno::SETGID => {
                if p.creds.euid == 0 {
                    p.creds.gid = args[0] as u32;
                    p.creds.egid = args[0] as u32;
                    SysOutcome::Done(0)
                } else {
                    SysOutcome::Done(err(errno::EPERM))
                }
            }
            sysno::SETREUID => {
                if p.creds.euid == 0 {
                    p.creds.uid = args[0] as u32;
                    p.creds.euid = args[1] as u32;
                    SysOutcome::Done(0)
                } else {
                    SysOutcome::Done(err(errno::EPERM))
                }
            }
            sysno::CHMOD => self.sys_chmod(p, args[0], args[1]),
            sysno::NANOSLEEP => SysOutcome::Block(WaitReason::Sleep {
                until: now + args[0],
            }),
            sysno::FTRUNCATE => self.sys_ftruncate(p, args[0], args[1]),
            sysno::UNLINK => match self.read_str(p, args[0]) {
                Some(path) if self.vfs.unlink(&path) => SysOutcome::Done(0),
                Some(_) => SysOutcome::Done(err(errno::ENOENT)),
                None => SysOutcome::Done(err(errno::EFAULT)),
            },
            sysno::MKDIR => match self.read_str(p, args[0]) {
                Some(path) => {
                    self.vfs.mkdir(&path, args[1] as u32);
                    SysOutcome::Done(0)
                }
                None => SysOutcome::Done(err(errno::EFAULT)),
            },
            sysno::RENAME => {
                let (Some(a), Some(b)) = (self.read_str(p, args[0]), self.read_str(p, args[1]))
                else {
                    return SysOutcome::Done(err(errno::EFAULT));
                };
                if self.vfs.rename(&a, &b) {
                    SysOutcome::Done(0)
                } else {
                    SysOutcome::Done(err(errno::ENOENT))
                }
            }
            sysno::GETCWD => {
                let cwd = b"/\0";
                if args[1] >= 2 && p.machine.mem.write(args[0], cwd).is_ok() {
                    SysOutcome::Done(2)
                } else {
                    SysOutcome::Done(err(errno::EFAULT))
                }
            }
            sysno::DUP => match p.fds.get(args[0]) {
                Some(id) => {
                    self.ofds[id].refs += 1;
                    SysOutcome::Done(p.fds.alloc(id) as u64)
                }
                None => SysOutcome::Done(err(errno::EBADF)),
            },
            sysno::FCNTL | sysno::IOCTL => SysOutcome::Done(0),
            sysno::PTRACE => SysOutcome::Done(err(errno::EPERM)),
            sysno::GETRANDOM => {
                let len = args[1].min(4096);
                let mut buf = vec![0u8; len as usize];
                for chunk in buf.chunks_mut(8) {
                    let r = self.next_random().to_le_bytes();
                    let n = chunk.len();
                    chunk.copy_from_slice(&r[..n]);
                }
                match p.machine.mem.write(args[0], &buf) {
                    Ok(()) => SysOutcome::Done(len),
                    Err(_) => SysOutcome::Done(err(errno::EFAULT)),
                }
            }
            _ => SysOutcome::Done(err(errno::ENOSYS)),
        }
    }

    fn read_str(&self, p: &Process, addr: u64) -> Option<String> {
        if addr == 0 {
            return None;
        }
        let mut out = Vec::new();
        for i in 0..4096u64 {
            let mut b = [0u8; 1];
            p.machine.mem.read(addr + i, &mut b).ok()?;
            if b[0] == 0 {
                break;
            }
            out.push(b[0]);
        }
        String::from_utf8(out).ok()
    }

    fn sys_read(&mut self, p: &mut Process, fd: u64, buf: u64, len: u64) -> SysOutcome {
        let Some(id) = p.fds.get(fd) else {
            return SysOutcome::Done(err(errno::EBADF));
        };
        let len = len.min(1 << 20);
        let n = match &mut self.ofds[id].kind {
            OfdKind::Stdin => return SysOutcome::Done(0),
            OfdKind::File { path, offset, .. } => {
                let Some(f) = self.vfs.file(path) else {
                    return SysOutcome::Done(err(errno::ENOENT));
                };
                let start = (*offset as usize).min(f.data.len());
                let n = (len as usize).min(f.data.len() - start);
                let mem = &mut p.machine.mem;
                if !mem.is_mapped(buf, n as u64) {
                    return SysOutcome::Done(err(errno::EFAULT));
                }
                // Whole guest pages become views of the file's bytes;
                // only the partial pages at either end are copied.
                mem.write_file_unchecked(buf, &f.data, start, n);
                *offset += n as u64;
                n
            }
            &mut OfdKind::Conn(cid) => match self.conn_read(&mut p.machine.mem, cid, buf, len) {
                Ok(ReadOutcome::Data(n)) => n,
                Ok(ReadOutcome::Eof) => return SysOutcome::Done(0),
                Ok(ReadOutcome::WouldBlock) => {
                    return SysOutcome::Block(WaitReason::ConnRead { cid, buf, len })
                }
                Err(_) => return SysOutcome::Done(err(errno::EFAULT)),
            },
            _ => return SysOutcome::Done(err(errno::EINVAL)),
        };
        self.charge_io(n as u64);
        SysOutcome::Done(n as u64)
    }

    fn sys_write(&mut self, p: &mut Process, fd: u64, buf: u64, len: u64) -> SysOutcome {
        let Some(id) = p.fds.get(fd) else {
            return SysOutcome::Done(err(errno::EBADF));
        };
        let len = len.min(1 << 20);
        // Validate the whole source range up front, then copy guest bytes
        // once, straight into their destination.
        let mem = &p.machine.mem;
        if !mem.is_mapped(buf, len) {
            return SysOutcome::Done(err(errno::EFAULT));
        }
        self.charge_io(len);
        let n = len as usize;
        match &mut self.ofds[id].kind {
            OfdKind::Stdout | OfdKind::Stderr => {
                mem.read_unchecked_into(buf, n, &mut self.console);
                SysOutcome::Done(len)
            }
            OfdKind::File {
                path,
                offset,
                writable,
            } => {
                if !*writable {
                    return SysOutcome::Done(err(errno::EBADF));
                }
                let Some(f) = self.vfs.file_mut(path) else {
                    return SysOutcome::Done(err(errno::ENOENT));
                };
                let start = *offset as usize;
                let end = start + n;
                let data = f.data_mut();
                if data.len() < end {
                    data.resize(end, 0);
                }
                mem.read_unchecked(buf, &mut data[start..end]);
                *offset += len;
                SysOutcome::Done(len)
            }
            &mut OfdKind::Conn(cid) => {
                let n = self
                    .net
                    .server_write_with(cid, n, |dst| mem.read_unchecked_into(buf, n, dst));
                SysOutcome::Done(n as u64)
            }
            _ => SysOutcome::Done(err(errno::EINVAL)),
        }
    }

    fn sys_open(&mut self, p: &mut Process, path_ptr: u64, flags: u64) -> SysOutcome {
        let Some(path) = self.read_str(p, path_ptr) else {
            return SysOutcome::Done(err(errno::EFAULT));
        };
        let creat = flags & 0x40 != 0;
        let trunc = flags & 0x200 != 0;
        let writable = flags & 3 != 0;
        if !self.vfs.exists(&path) {
            if !creat {
                return SysOutcome::Done(err(errno::ENOENT));
            }
            self.vfs.ensure_file(&path, 0o644);
        }
        if trunc {
            if let Some(f) = self.vfs.file_mut(&path) {
                // A fresh empty buffer: unsharing the old bytes only to
                // drop them would copy the whole file.
                f.data = Arc::default();
            }
        }
        let ofd = self.alloc_ofd(OfdKind::File {
            path,
            offset: 0,
            writable,
        });
        SysOutcome::Done(p.fds.alloc(ofd) as u64)
    }

    fn sys_stat(&mut self, p: &mut Process, path_ptr: u64, statbuf: u64) -> SysOutcome {
        let Some(path) = self.read_str(p, path_ptr) else {
            return SysOutcome::Done(err(errno::EFAULT));
        };
        let Some(f) = self.vfs.file(&path) else {
            return SysOutcome::Done(err(errno::ENOENT));
        };
        let (size, mode) = (f.data.len() as u64, u64::from(f.mode));
        let ok = p.machine.mem.write_u64(statbuf, size).is_ok()
            && p.machine.mem.write_u64(statbuf + 8, mode).is_ok();
        SysOutcome::Done(if ok { 0 } else { err(errno::EFAULT) })
    }

    fn sys_lseek(&mut self, p: &mut Process, fd: u64, off: i64, whence: u64) -> SysOutcome {
        let Some(id) = p.fds.get(fd) else {
            return SysOutcome::Done(err(errno::EBADF));
        };
        let size = if let OfdKind::File { path, .. } = &self.ofds[id].kind {
            self.vfs.file(path).map_or(0, |f| f.data.len() as i64)
        } else {
            return SysOutcome::Done(err(errno::EINVAL));
        };
        if let OfdKind::File { offset, .. } = &mut self.ofds[id].kind {
            let new = match whence {
                0 => off,
                1 => *offset as i64 + off,
                2 => size + off,
                _ => return SysOutcome::Done(err(errno::EINVAL)),
            };
            if new < 0 {
                return SysOutcome::Done(err(errno::EINVAL));
            }
            *offset = new as u64;
            SysOutcome::Done(new as u64)
        } else {
            SysOutcome::Done(err(errno::EINVAL))
        }
    }

    fn sys_mmap(&mut self, p: &mut Process, args: [u64; 6]) -> SysOutcome {
        let (addr, len, prot, flags) = (args[0], args[1], args[2], args[3]);
        if len == 0 {
            return SysOutcome::Done(err(errno::EINVAL));
        }
        let len = len.div_ceil(4096) * 4096;
        let base = if addr != 0 && flags & 0x10 != 0 {
            addr
        } else {
            let b = p.mmap_cursor;
            p.mmap_cursor += len + 4096;
            b
        };
        p.machine.mem.map_region(base, len);
        p.vmas.push(Vma {
            start: base,
            len,
            prot,
        });
        SysOutcome::Done(base)
    }

    fn sys_bind(&mut self, p: &mut Process, fd: u64, addr_ptr: u64) -> SysOutcome {
        let Some(id) = p.fds.get(fd) else {
            return SysOutcome::Done(err(errno::EBADF));
        };
        let mut sa = [0u8; 4];
        if p.machine.mem.read(addr_ptr, &mut sa).is_err() {
            return SysOutcome::Done(err(errno::EFAULT));
        }
        let port = u16::from_le_bytes([sa[2], sa[3]]);
        if let OfdKind::Socket { bound_port } = &mut self.ofds[id].kind {
            *bound_port = Some(port);
            SysOutcome::Done(0)
        } else {
            SysOutcome::Done(err(errno::EINVAL))
        }
    }

    fn sys_listen(&mut self, p: &mut Process, fd: u64, backlog: u64) -> SysOutcome {
        let Some(id) = p.fds.get(fd) else {
            return SysOutcome::Done(err(errno::EBADF));
        };
        let OfdKind::Socket {
            bound_port: Some(port),
        } = self.ofds[id].kind
        else {
            return SysOutcome::Done(err(errno::EINVAL));
        };
        match self.net.listen(port, backlog as usize) {
            Ok(lid) => {
                self.ofds[id].kind = OfdKind::Listener(lid);
                SysOutcome::Done(0)
            }
            Err(_) => SysOutcome::Done(err(errno::EADDRINUSE)),
        }
    }

    fn sys_accept(&mut self, p: &mut Process, fd: u64, addr_out: u64, accept4: bool) -> SysOutcome {
        let Some(id) = p.fds.get(fd) else {
            return SysOutcome::Done(err(errno::EBADF));
        };
        let OfdKind::Listener(lid) = self.ofds[id].kind else {
            return SysOutcome::Done(err(errno::EINVAL));
        };
        if self.net.has_pending(lid) {
            SysOutcome::Done(self.complete_accept(p, lid, addr_out))
        } else {
            SysOutcome::Block(WaitReason::Accept {
                lid,
                addr_out,
                accept4,
            })
        }
    }

    fn sys_sendfile(&mut self, p: &mut Process, out_fd: u64, in_fd: u64, count: u64) -> SysOutcome {
        let (Some(out_id), Some(in_id)) = (p.fds.get(out_fd), p.fds.get(in_fd)) else {
            return SysOutcome::Done(err(errno::EBADF));
        };
        let OfdKind::File { path, offset, .. } = &self.ofds[in_id].kind else {
            return SysOutcome::Done(err(errno::EINVAL));
        };
        let Some(f) = self.vfs.file(path) else {
            return SysOutcome::Done(err(errno::ENOENT));
        };
        // Holding the contents by `Arc` (no byte copy) frees `self` for
        // the charge; the chunk then moves once, into its destination.
        let data = Arc::clone(&f.data);
        let start = (*offset as usize).min(data.len());
        let n = (count as usize).min(data.len() - start);
        let chunk = &data[start..start + n];
        self.charge_io(n as u64);
        match self.ofds[out_id].kind {
            OfdKind::Conn(cid) => {
                self.net.server_write(cid, chunk);
            }
            OfdKind::Stdout | OfdKind::Stderr => self.console.extend_from_slice(chunk),
            _ => return SysOutcome::Done(err(errno::EINVAL)),
        }
        if let OfdKind::File { offset, .. } = &mut self.ofds[in_id].kind {
            *offset += n as u64;
        }
        SysOutcome::Done(n as u64)
    }

    fn sys_writev(&mut self, p: &mut Process, fd: u64, iov: u64, cnt: u64) -> SysOutcome {
        let mut total = 0u64;
        for i in 0..cnt.min(64) {
            let (Ok(ptr), Ok(len)) = (
                p.machine.mem.load_u64(iov + i * 16),
                p.machine.mem.load_u64(iov + i * 16 + 8),
            ) else {
                return SysOutcome::Done(err(errno::EFAULT));
            };
            match self.sys_write(p, fd, ptr, len) {
                SysOutcome::Done(n) if (n as i64) >= 0 => total += n,
                other => return other,
            }
        }
        SysOutcome::Done(total)
    }

    fn sys_execve(&mut self, p: &mut Process, path_ptr: u64) -> SysOutcome {
        let Some(path) = self.read_str(p, path_ptr) else {
            return SysOutcome::Done(err(errno::EFAULT));
        };
        let Some(f) = self.vfs.file(&path) else {
            return SysOutcome::Done(err(errno::ENOENT));
        };
        if !f.executable {
            return SysOutcome::Done(err(errno::EACCES));
        }
        p.exec_count += 1;
        self.exec_log.push((p.pid, path, p.creds.euid));
        SysOutcome::Done(0)
    }

    fn sys_chmod(&mut self, p: &mut Process, path_ptr: u64, mode: u64) -> SysOutcome {
        let Some(path) = self.read_str(p, path_ptr) else {
            return SysOutcome::Done(err(errno::EFAULT));
        };
        if self.vfs.chmod(&path, mode as u32) {
            self.chmod_log.push((path, mode as u32));
            SysOutcome::Done(0)
        } else {
            SysOutcome::Done(err(errno::ENOENT))
        }
    }

    fn sys_ftruncate(&mut self, p: &mut Process, fd: u64, len: u64) -> SysOutcome {
        let Some(id) = p.fds.get(fd) else {
            return SysOutcome::Done(err(errno::EBADF));
        };
        if let OfdKind::File { path, .. } = &self.ofds[id].kind {
            let path = path.clone();
            if let Some(f) = self.vfs.file_mut(&path) {
                f.data_mut().resize(len as usize, 0);
                return SysOutcome::Done(0);
            }
        }
        SysOutcome::Done(err(errno::EINVAL))
    }
}

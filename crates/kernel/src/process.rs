//! Processes: fd tables, credentials, VMAs, scheduling state.

use crate::net::{ConnId, ListenerId};
use crate::seccomp::SeccompFilter;
use bastion_obs::DenyRecord;
use bastion_vm::{Fault, Machine};
use std::sync::Arc;

/// Process identifier.
pub type Pid = u32;

/// What a blocked process is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// `accept`/`accept4` on an empty backlog. Completion allocates the
    /// connection fd and fills the peer sockaddr.
    Accept {
        /// The listening socket.
        lid: ListenerId,
        /// Where to write the peer sockaddr (0 = none).
        addr_out: u64,
        /// Whether this was accept4 (flags argument present).
        accept4: bool,
    },
    /// `read`/`recvfrom` on a connection with no data yet.
    ConnRead {
        /// The connection.
        cid: ConnId,
        /// Destination buffer.
        buf: u64,
        /// Buffer capacity.
        len: u64,
    },
    /// `nanosleep` until the given virtual time.
    Sleep {
        /// Absolute wake-up time in world cycles.
        until: u64,
    },
    /// `wait4` for any child to exit.
    Wait4 {
        /// Where to write the status (0 = none).
        status_out: u64,
    },
}

/// Why a process stopped existing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitReason {
    /// Normal exit with a status code.
    Exited(i64),
    /// Hardware fault (segfault, CET #CP, CFI trap, ...).
    Fault(Fault),
    /// seccomp `SECCOMP_RET_KILL` fired for this syscall number.
    SeccompKill {
        /// The offending syscall.
        nr: u32,
    },
    /// The BASTION monitor denied a traced syscall.
    MonitorKill {
        /// The offending syscall.
        nr: u32,
        /// The monitor's deny record: context, rule and message
        /// (`Display` prints `"<CTX>: <msg>"`).
        reason: Box<DenyRecord>,
    },
}

/// Scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// May be stepped.
    Runnable,
    /// Parked in a blocking syscall.
    Blocked(WaitReason),
    /// Terminated; `exit` holds the reason.
    Zombie,
}

/// User/group credentials (for `setuid`-family syscalls and the
/// privilege-escalation scenarios).
/// Processes start privileged (all ids zero, i.e. root) and drop, like
/// nginx/vsftpd — hence the derived all-zero `Default`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Creds {
    /// Real user id.
    pub uid: u32,
    /// Effective user id.
    pub euid: u32,
    /// Real group id.
    pub gid: u32,
    /// Effective group id.
    pub egid: u32,
}

/// A virtual memory area created by `mmap` (tracked so `mprotect` outcomes
/// — e.g. an attacker achieving RWX — are observable ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// Start address.
    pub start: u64,
    /// Length in bytes.
    pub len: u64,
    /// PROT_* bits (1=read, 2=write, 4=exec).
    pub prot: u64,
}

/// The per-fd slot: an index into the kernel's open-file-description table.
pub type OfdId = usize;

/// A process's file descriptor table.
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    slots: Vec<Option<OfdId>>,
}

impl FdTable {
    /// A table with stdio wired to the given descriptions.
    pub fn with_stdio(stdin: OfdId, stdout: OfdId, stderr: OfdId) -> Self {
        FdTable {
            slots: vec![Some(stdin), Some(stdout), Some(stderr)],
        }
    }

    /// Allocates the lowest free fd for `ofd`.
    pub fn alloc(&mut self, ofd: OfdId) -> i64 {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.is_none() {
                *s = Some(ofd);
                return i as i64;
            }
        }
        self.slots.push(Some(ofd));
        (self.slots.len() - 1) as i64
    }

    /// Resolves an fd.
    pub fn get(&self, fd: u64) -> Option<OfdId> {
        self.slots.get(fd as usize).copied().flatten()
    }

    /// Closes an fd, returning the description it referenced.
    pub fn close(&mut self, fd: u64) -> Option<OfdId> {
        self.slots.get_mut(fd as usize).and_then(Option::take)
    }

    /// All open descriptions (for refcounting on fork).
    pub fn iter_open(&self) -> impl Iterator<Item = OfdId> + '_ {
        self.slots.iter().filter_map(|s| *s)
    }
}

/// One simulated process. `Clone` is the world-snapshot path: the machine's
/// memory clones copy-on-write (page table of shared `Arc` pages), and the
/// seccomp filter stays shared behind its `Arc`.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent pid, if any.
    pub parent: Option<Pid>,
    /// CPU + memory state.
    pub machine: Machine,
    /// Scheduling state.
    pub state: ProcState,
    /// File descriptors.
    pub fds: FdTable,
    /// Credentials.
    pub creds: Creds,
    /// mmap'd areas.
    pub vmas: Vec<Vma>,
    /// Next mmap allocation address.
    pub mmap_cursor: u64,
    /// Current program break.
    pub brk: u64,
    /// Installed seccomp filter (inherited by children).
    pub seccomp: Option<Arc<SeccompFilter>>,
    /// Whether a tracer is attached (inherited by children).
    pub traced: bool,
    /// Exit reason once a zombie.
    pub exit: Option<ExitReason>,
    /// Count of successful `execve`s (ground truth for attack tests).
    pub exec_count: u32,
    /// Cycles already folded into the world clock.
    pub cycles_accounted: u64,
    /// Whether `wait4` already reaped this zombie.
    pub reaped: bool,
}

impl Process {
    /// Wraps a machine as pid `pid`.
    pub fn new(pid: Pid, machine: Machine, fds: FdTable) -> Self {
        let mmap_cursor = machine.image.mmap_base;
        let brk = machine.image.heap_base;
        Process {
            pid,
            parent: None,
            machine,
            state: ProcState::Runnable,
            fds,
            creds: Creds::default(),
            vmas: Vec::new(),
            mmap_cursor,
            brk,
            seccomp: None,
            traced: false,
            exit: None,
            exec_count: 0,
            cycles_accounted: 0,
            reaped: false,
        }
    }

    /// Whether any VMA is simultaneously writable and executable — the
    /// ground-truth "memory permission attack succeeded" predicate.
    pub fn has_wx_mapping(&self) -> bool {
        self.vmas.iter().any(|v| v.prot & 0b110 == 0b110)
    }

    /// Kills the process with the given reason.
    pub fn kill(&mut self, reason: ExitReason) {
        self.state = ProcState::Zombie;
        self.exit = Some(reason);
    }

    /// Whether the process is alive (not a zombie).
    pub fn alive(&self) -> bool {
        self.state != ProcState::Zombie
    }
}

/// One entry of [`World::procs`](crate::World::procs): a process this
/// world owns, or one it still shares with the snapshot it was forked
/// from and with that snapshot's other restores.
///
/// A slot derefs to its [`Process`], so readers never see the difference.
/// Every write goes through [`ProcSlot::get_mut`], which copies a shared
/// process into an owned one on the first write (copy-on-write, one level
/// above the pages: the copy shares its pages with the original).
/// [`World::snapshot`](crate::World::snapshot) moves every owned process
/// into a shared slot, so a snapshot or a restore clones `Arc`s, not
/// processes.
// An owned process stays inline, as in a `Vec<Process>`: boxing it would
// add a pointer chase to every scheduler and syscall access of it.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ProcSlot {
    /// A process only this world sees: written in place.
    Owned(Process),
    /// A process shared with a snapshot or its restores, never written.
    Shared(Arc<Process>),
}

impl ProcSlot {
    /// The process, for writing. An owned slot is one branch; a shared one
    /// is copied into an owned one first.
    #[inline]
    pub fn get_mut(&mut self) -> &mut Process {
        if let ProcSlot::Shared(_) = self {
            self.unshare();
        }
        match self {
            ProcSlot::Owned(p) => p,
            ProcSlot::Shared(_) => unreachable!("the slot was just made owned"),
        }
    }

    /// Replaces a shared slot with an owned copy of its process.
    #[cold]
    #[inline(never)]
    fn unshare(&mut self) {
        if let ProcSlot::Shared(a) = self {
            *self = ProcSlot::Owned(Process::clone(a));
        }
    }

    /// The slot as a shared one: an owned process has its all-zero pages
    /// pruned and the rest made shared
    /// ([`Memory::share_pages`](bastion_vm::Memory::share_pages)), then
    /// moves behind an `Arc`.
    pub(crate) fn into_shared(self) -> ProcSlot {
        match self {
            ProcSlot::Owned(mut p) => {
                p.machine.mem.prune_zero_pages();
                p.machine.mem.share_pages();
                ProcSlot::Shared(Arc::new(p))
            }
            shared @ ProcSlot::Shared(_) => shared,
        }
    }

    /// `(resident_pages, shared_pages)` of the process's memory. Every
    /// resident page of a slot still shared with another world counts as
    /// shared, as it would be copied on that world's first write.
    pub(crate) fn page_stats(&self) -> (u64, u64) {
        let mem = &self.machine.mem;
        let resident = mem.resident_pages();
        match self {
            ProcSlot::Shared(a) if Arc::strong_count(a) > 1 => (resident, resident),
            _ => (resident, mem.shared_pages()),
        }
    }
}

impl std::ops::Deref for ProcSlot {
    type Target = Process;

    #[inline]
    fn deref(&self) -> &Process {
        match self {
            ProcSlot::Owned(p) => p,
            ProcSlot::Shared(a) => a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_table_allocates_lowest_free() {
        let mut t = FdTable::with_stdio(0, 1, 2);
        assert_eq!(t.alloc(10), 3);
        assert_eq!(t.alloc(11), 4);
        assert_eq!(t.close(3), Some(10));
        assert_eq!(t.alloc(12), 3);
        assert_eq!(t.get(3), Some(12));
        assert_eq!(t.get(99), None);
    }

    #[test]
    fn a_boxed_deny_record_does_not_grow_the_exit_reason() {
        // The monitor's record rides in a box, so the kill reason is one
        // pointer and the enum stays at the 32 bytes (on a 64-bit host)
        // it had with a `String` reason.
        assert!(std::mem::size_of::<ExitReason>() <= 32);
    }

    #[test]
    fn wx_detection() {
        use bastion_ir::build::ModuleBuilder;
        use bastion_ir::Ty;
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        f.ret(Some(bastion_ir::Operand::Imm(0)));
        f.finish();
        let img = bastion_vm::Image::load(mb.finish()).unwrap();
        let m = Machine::new(std::sync::Arc::new(img), bastion_vm::CostModel::default());
        let mut p = Process::new(1, m, FdTable::default());
        assert!(!p.has_wx_mapping());
        p.vmas.push(Vma {
            start: 0x1000,
            len: 0x1000,
            prot: 0b101,
        });
        assert!(!p.has_wx_mapping());
        p.vmas.push(Vma {
            start: 0x2000,
            len: 0x1000,
            prot: 0b111,
        });
        assert!(p.has_wx_mapping());
    }
}

//! # bastion-kernel
//!
//! A simulated Linux-like kernel servicing the system calls of
//! [`bastion_vm`] processes. This is the substrate the BASTION runtime
//! monitor plugs into:
//!
//! * [`seccomp`] — a seccomp-BPF model: per-syscall `Allow`/`Kill`/`Trace`
//!   verdicts evaluated on every syscall entry, inherited across `clone`;
//! * [`trace`] — the `ptrace`/`process_vm_readv` analogue: a [`trace::Tracer`]
//!   registered with the [`world::World`] is woken synchronously on traced
//!   syscalls and inspects the stopped process through [`trace::Tracee`],
//!   paying context-switch costs from the VM's [`bastion_vm::CostModel`];
//! * [`fs`] — an in-memory VFS with modes (for `chmod`), sizes, and the
//!   usual `open/read/write/lseek/stat/unlink/rename/mkdir` surface;
//! * [`net`] — loopback TCP-ish sockets: listeners with backlogs, byte-queue
//!   connections, and an *external peer* API that workload generators (the
//!   `wrk`/`dkftpbench` analogues) use to drive servers;
//! * [`process`] — processes with credentials, fd tables (shared open file
//!   descriptions across `clone`), VMA lists (for `mmap`/`mprotect`), and
//!   exit reasons distinguishing seccomp kills from monitor kills;
//! * [`syscall`] — the dispatcher implementing ~40 Linux x86-64 syscalls
//!   over the above, with per-number invocation counters (Table 4);
//! * `trap` — the trap pipeline every syscall entry runs: seccomp, the
//!   tier-1 prefilter, the tier-2 monitor stop, then one record that the
//!   span, sketches and flight recorder are written from;
//! * [`world`] — the deterministic round-robin scheduler tying machines,
//!   kernel, seccomp, and tracer together, and accounting global virtual
//!   time.

pub mod errno;
pub mod faults;
pub mod fs;
pub mod net;
pub mod process;
pub mod seccomp;
pub mod syscall;
pub mod trace;
mod trap;
pub mod world;

pub use faults::{
    AccessClass, FaultAction, FaultInjector, FaultKind, FaultSchedule, FaultSpec, InjectedFault,
    Trigger,
};
pub use process::{ExitReason, Pid, Process};
pub use seccomp::{SeccompAction, SeccompFilter};
pub use trace::{EscalateReason, PrefilterVerdict, Regs, TraceVerdict, Tracee, Tracer};
pub use world::{
    set_thread_legacy_interp, thread_legacy_interp, ExtConnId, LegacyInterpGuard, RunStatus, World,
    WorldSnapshot,
};

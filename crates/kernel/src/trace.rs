//! The ptrace / `process_vm_readv` analogue (paper §7.1).
//!
//! When seccomp returns `SECCOMP_RET_TRACE`, the world stops the process and
//! wakes the attached [`Tracer`] — the BASTION monitor — handing it a
//! [`Tracee`] view of the stopped process. Every access through the view
//! charges virtual cycles to the trap, reproducing the paper's key cost
//! observation (Table 7): *fetching process state dominates monitor
//! overhead* because each access implies context switches.

use crate::faults::{AccessClass, FaultAction, FaultInjector};
use crate::process::Pid;
use bastion_obs::{FlightEntry, FlightRecorder};
use bastion_vm::{Machine, MemIo, OutOfBounds};
use std::cell::RefCell;

/// The register snapshot `PTRACE_GETREGS` returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Regs {
    /// Trapped syscall number (`orig_rax`).
    pub nr: u32,
    /// Syscall argument registers (rdi, rsi, rdx, r10, r8, r9).
    pub args: [u64; 6],
    /// Address of the trapping `syscall` instruction (`rip`).
    pub rip: u64,
    /// Stack pointer.
    pub sp: u64,
    /// Frame pointer.
    pub fp: u64,
}

/// The monitor's window into a stopped process.
pub struct Tracee<'a> {
    machine: &'a Machine,
    pid: Pid,
    charge: &'a mut u64,
    /// Cycles already on `charge` when this trap's view was created; the
    /// watchdog deadline is measured against `charged() - start_charge`.
    start_charge: u64,
    /// Fault injector, when the world runs under a chaos schedule.
    faults: Option<&'a RefCell<FaultInjector>>,
    /// The world's always-on flight-recorder ring, so the monitor's deny
    /// path can join a dump of the run-up to the violation.
    flight: Option<&'a RefCell<FlightRecorder>>,
}

impl<'a> Tracee<'a> {
    /// Wraps a stopped machine. `charge` accumulates the virtual cycles the
    /// monitor's accesses cost (added to the world clock by the caller).
    pub fn new(machine: &'a Machine, pid: Pid, charge: &'a mut u64) -> Self {
        Tracee::with_faults(machine, pid, charge, None)
    }

    /// Like [`Tracee::new`] but with an optional fault injector every
    /// substrate access consults.
    pub fn with_faults(
        machine: &'a Machine,
        pid: Pid,
        charge: &'a mut u64,
        faults: Option<&'a RefCell<FaultInjector>>,
    ) -> Self {
        let start_charge = *charge;
        Tracee {
            machine,
            pid,
            charge,
            start_charge,
            faults,
            flight: None,
        }
    }

    /// Attaches the world's flight-recorder ring to this view so
    /// [`Tracee::flight_dump`] returns the run-up to the current trap.
    pub fn attach_flight(&mut self, flight: &'a RefCell<FlightRecorder>) {
        self.flight = Some(flight);
    }

    /// Flight-ring contents, oldest first — empty when no recorder is
    /// attached. Unlike every other accessor on this view, reading the
    /// ring is host-side observability only: **zero virtual cycles** are
    /// charged, so deny-path dumps never perturb clean-path cycle counts.
    #[must_use]
    pub fn flight_dump(&self) -> Vec<FlightEntry> {
        self.flight.map(|f| f.borrow().dump()).unwrap_or_default()
    }

    /// The stopped process's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Consults the injector (no-op without one).
    fn fault(&mut self, class: AccessClass, len: usize) -> Option<FaultAction> {
        self.faults?.borrow_mut().on_access(class, len)
    }

    /// `PTRACE_GETREGS`: the trapped syscall state. Infallible view for
    /// harness code; the monitor uses [`Tracee::try_getregs`], which sees
    /// injected faults.
    pub fn getregs(&mut self) -> Regs {
        *self.charge += self.machine.cost.ptrace_getregs;
        self.kernel_regs()
    }

    /// `PTRACE_GETREGS` as the monitor calls it: same snapshot and charge
    /// as [`Tracee::getregs`], but an injected fault makes it fail the way
    /// a dead or detached tracee would.
    ///
    /// # Errors
    /// Fails only under an injected [`AccessClass::GetRegs`] fault.
    pub fn try_getregs(&mut self) -> Result<Regs, OutOfBounds> {
        match self.fault(AccessClass::GetRegs, 0) {
            Some(FaultAction::Error) => {
                *self.charge += self.machine.cost.ptrace_getregs;
                Err(OutOfBounds {
                    addr: 0,
                    write: false,
                })
            }
            Some(FaultAction::Stall { cycles }) => {
                *self.charge += cycles;
                Ok(self.getregs())
            }
            _ => Ok(self.getregs()),
        }
    }

    /// `process_vm_readv`: read remote memory.
    ///
    /// # Errors
    /// Fails if the range is unmapped in the tracee, or under an injected
    /// read fault. Callers of this API need the *whole* buffer, so a torn
    /// (short) injected read is surfaced as a failure at the cut point —
    /// never as silently zero-filled bytes a verifier might trust.
    pub fn read_mem(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfBounds> {
        *self.charge += self.machine.cost.remote_read
            + (buf.len() as u64 / 64) * self.machine.cost.remote_read_per_64b;
        match self.fault(AccessClass::ReadMem, buf.len()) {
            Some(FaultAction::Error) => {
                return Err(OutOfBounds { addr, write: false });
            }
            Some(FaultAction::Torn { keep }) => {
                return Err(OutOfBounds {
                    addr: addr + keep.min(buf.len()) as u64,
                    write: false,
                });
            }
            Some(FaultAction::Stall { cycles }) => *self.charge += cycles,
            _ => {}
        }
        self.machine.mem.read(addr, buf)
    }

    /// Remote read of one u64.
    ///
    /// # Errors
    /// Fails if the word is unmapped in the tracee.
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, OutOfBounds> {
        let mut b = [0u8; 8];
        self.read_mem(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Batched frame fetch: the saved frame pointer (at `fp`) and the
    /// return address (at `fp + 8`) in ONE charged `process_vm_readv`,
    /// instead of two word reads each paying the full base cost. This is
    /// the trap-fast-path primitive Table 7 motivates: the base cost of a
    /// remote read dwarfs its per-byte cost, so fetching the 16-byte frame
    /// head at once halves the dominant per-frame charge.
    ///
    /// # Errors
    /// Fails if the 16-byte frame head is unmapped in the tracee, or under
    /// an injected frame-read fault. An injected corruption XORs the saved
    /// frame pointer; a torn frame read fails at the cut point — a
    /// zero-filled tail would fabricate a bottom-of-stack marker the
    /// walker must never trust.
    pub fn read_frame(&mut self, fp: u64) -> Result<(u64, u64), OutOfBounds> {
        *self.charge += self.machine.cost.remote_read;
        let mut b = [0u8; 16];
        let mut fp_xor = 0u64;
        match self.fault(AccessClass::ReadFrame, 16) {
            Some(FaultAction::Error) => {
                return Err(OutOfBounds {
                    addr: fp,
                    write: false,
                });
            }
            Some(FaultAction::Torn { keep }) => {
                return Err(OutOfBounds {
                    addr: fp + keep.min(16) as u64,
                    write: false,
                });
            }
            Some(FaultAction::Corrupt { xor }) => fp_xor = xor,
            Some(FaultAction::Stall { cycles }) => *self.charge += cycles,
            _ => {}
        }
        self.machine.mem.read(fp, &mut b)?;
        let saved_fp = u64::from_le_bytes(b[..8].try_into().expect("8 bytes")) ^ fp_xor;
        let ret = u64::from_le_bytes(b[8..].try_into().expect("8 bytes"));
        Ok((saved_fp, ret))
    }

    /// Bounded prefix read in ONE charged `process_vm_readv`: fills `buf`
    /// with as many bytes from `addr` as are mapped and returns that count
    /// (`Ok(0)` if `addr` itself is unmapped). Mirrors `process_vm_readv`'s
    /// partial-read semantics; the charge covers only the bytes actually
    /// transferred, plus the fixed base cost of the attempt.
    ///
    /// If the mapping check and the copy race with a concurrent unmap (or
    /// an injected torn read shortens the transfer), the returned count
    /// shrinks to whatever was actually readable — the call never panics
    /// and never reports bytes it did not fill.
    ///
    /// # Errors
    /// Fails only under an injected hard read fault; a merely-unmapped
    /// start is the `Ok(0)` case.
    pub fn read_mem_prefix(&mut self, addr: u64, buf: &mut [u8]) -> Result<usize, OutOfBounds> {
        let mut n = self.machine.mem.mapped_prefix_len(addr, buf.len() as u64) as usize;
        *self.charge +=
            self.machine.cost.remote_read + (n as u64 / 64) * self.machine.cost.remote_read_per_64b;
        match self.fault(AccessClass::ReadPrefix, n) {
            Some(FaultAction::Error) => {
                return Err(OutOfBounds { addr, write: false });
            }
            Some(FaultAction::Torn { keep }) => n = n.min(keep),
            Some(FaultAction::Stall { cycles }) => *self.charge += cycles,
            _ => {}
        }
        Ok(self.read_prefix(addr, &mut buf[..n]))
    }

    /// Fills the longest prefix of `buf` that reads cleanly from `addr` and
    /// returns its length. The copy may race with an unmap after the
    /// caller's length probe, so the length shrinks (strictly, so this
    /// terminates) until a whole prefix reads. Uncharged: each caller
    /// charges its own read.
    fn read_prefix(&self, addr: u64, buf: &mut [u8]) -> usize {
        let mut n = buf.len();
        while n > 0 {
            if self.machine.mem.read(addr, &mut buf[..n]).is_ok() {
                break;
            }
            let again = self.machine.mem.mapped_prefix_len(addr, n as u64) as usize;
            n = if again < n { again } else { n - 1 };
        }
        n
    }

    /// The shadow-region base of the tracee (learned at launch, like the
    /// monitor's shared mapping in the paper).
    pub fn gs_base(&self) -> u64 {
        self.machine.gs_base
    }

    // ---- tier-1 prefilter primitives (in-kernel, no context switch) ----
    //
    // The prefilter runs at seccomp-classify time, inside the kernel, so
    // its reads cost `prefilter_read` cycles — same-address-space loads —
    // instead of a `process_vm_readv` round trip. Fault injection is
    // deliberately NOT consulted here: a world with any fault schedule
    // installed escalates every trap to tier 2 before the prefilter would
    // read anything, so faults always land on the monitor's resilience
    // ladder (DESIGN.md §6g).

    /// In-kernel register snapshot for the prefilter. At classify time the
    /// kernel already holds `seccomp_data` (nr, args, rip) and the stopped
    /// task's stack registers, so this is uncharged — the fixed
    /// `prefilter_eval` cost covers it.
    pub fn kernel_regs(&self) -> Regs {
        Regs {
            nr: self.machine.trap_nr,
            args: self.machine.trap_args,
            rip: self.machine.trap_pc,
            sp: self.machine.sp,
            fp: self.machine.fp,
        }
    }

    /// In-kernel tracee memory read (one `prefilter_read` charge).
    ///
    /// # Errors
    /// Fails if the range is unmapped in the tracee.
    pub fn kernel_read_mem(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfBounds> {
        *self.charge += self.machine.cost.prefilter_read;
        self.machine.mem.read(addr, buf)
    }

    /// In-kernel read of one u64 (one `prefilter_read` charge).
    ///
    /// # Errors
    /// Fails if the word is unmapped in the tracee.
    pub fn kernel_read_u64(&mut self, addr: u64) -> Result<u64, OutOfBounds> {
        let mut b = [0u8; 8];
        self.kernel_read_mem(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// In-kernel frame-head fetch: saved frame pointer and return address
    /// in one `prefilter_read` charge (the 16-byte head is one load pair).
    ///
    /// # Errors
    /// Fails if the frame head is unmapped in the tracee.
    pub fn kernel_read_frame(&mut self, fp: u64) -> Result<(u64, u64), OutOfBounds> {
        let mut b = [0u8; 16];
        self.kernel_read_mem(fp, &mut b)?;
        let saved_fp = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let ret = u64::from_le_bytes(b[8..].try_into().expect("8 bytes"));
        Ok((saved_fp, ret))
    }

    /// In-kernel bounded prefix read (one `prefilter_read` charge): fills
    /// `buf` with as many bytes from `addr` as are mapped and returns the
    /// count (`0` if `addr` itself is unmapped). The in-kernel analogue of
    /// [`Tracee::read_mem_prefix`] — same partial-read and racing-unmap
    /// semantics, but no fault consultation (the faults-installed gate
    /// escalates before tier 1 ever reads) and no remote round trip, so
    /// the call is infallible.
    pub fn kernel_read_mem_prefix(&mut self, addr: u64, buf: &mut [u8]) -> usize {
        *self.charge += self.machine.cost.prefilter_read;
        let n = self.machine.mem.mapped_prefix_len(addr, buf.len() as u64) as usize;
        self.read_prefix(addr, &mut buf[..n])
    }

    /// Total cycles charged so far on this trap.
    pub fn charged(&self) -> u64 {
        *self.charge
    }

    /// Cycles charged since this tracee view was created — the quantity a
    /// per-trap verification deadline (watchdog) is measured against.
    pub fn charged_this_trap(&self) -> u64 {
        *self.charge - self.start_charge
    }

    /// Charges extra cycles without touching the tracee: retry backoff,
    /// deliberate waits. Counted like any other monitor-side work.
    pub fn stall(&mut self, cycles: u64) {
        *self.charge += cycles;
    }
}

/// A read-only adaptor over the tracee's memory implementing [`MemIo`].
///
/// The shadow region is a *shared mapping* between the application and the
/// monitor (paper §7.1: "a shadow memory region ... for shared use between
/// the application process and the Bastion monitor process"), so monitor
/// reads of shadow-table entries are local and cost nothing beyond ordinary
/// loads — use this adaptor only for the shadow region. Ordinary tracee
/// memory (stack frames, argument buffers) must instead be fetched with
/// [`Tracee::read_mem`], which pays the `process_vm_readv` cost.
pub struct SharedShadow<'a> {
    machine: &'a Machine,
    faults: Option<&'a RefCell<FaultInjector>>,
}

impl<'a> SharedShadow<'a> {
    /// Wraps the stopped machine for shadow-region access.
    pub fn new(machine: &'a Machine) -> Self {
        SharedShadow {
            machine,
            faults: None,
        }
    }
}

impl MemIo for SharedShadow<'_> {
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfBounds> {
        self.machine.mem.read(addr, buf)?;
        // Shared-mapping loads are local and cannot fail, but a chaos
        // schedule may flip a bit in what the monitor observes.
        if let Some(f) = self.faults {
            if let Some(FaultAction::FlipBit { byte, bit }) =
                f.borrow_mut().on_access(AccessClass::Shadow, buf.len())
            {
                buf[byte % buf.len().max(1)] ^= 1 << bit;
            }
        }
        Ok(())
    }

    fn write(&mut self, addr: u64, _buf: &[u8]) -> Result<(), OutOfBounds> {
        // The monitor's mapping is read-only.
        Err(OutOfBounds { addr, write: true })
    }
}

impl Tracee<'_> {
    /// Shared-mapping view for shadow-table lookups (uncharged, but
    /// subject to injected shadow bit-flips).
    pub fn shared_shadow(&self) -> SharedShadow<'_> {
        SharedShadow {
            machine: self.machine,
            faults: self.faults,
        }
    }
}

/// The verdict a tracer returns for a trapped syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceVerdict {
    /// Let the syscall execute.
    Allow,
    /// Kill the application (context violation).
    Deny(String),
}

/// Why the tier-1 prefilter handed a trap to the full monitor.
///
/// The codes are stable (exported as the `prefilter_escalate` span arg and
/// as per-reason counters), ordered roughly by check order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EscalateReason {
    /// The attached tracer implements no prefilter (default trait impl).
    NoPrefilter,
    /// A fault schedule is installed: faults must always land on the
    /// monitor's fail-closed resilience ladder, never on tier 1.
    FaultsInstalled,
    /// The monitor is on a non-`Full` resilience rung.
    NonFullMode,
    /// The shadow region is quarantined (checksum strike).
    ShadowQuarantine,
    /// The trapped nr is not reachable from the tracked flow state in the
    /// compiled syscall-flow digraph.
    FlowMiss,
    /// Call-Type table mismatch (unknown callsite, wrong kind, or a
    /// not-callable flag combination).
    CtMismatch,
    /// The frame-pointer chain failed the compiled chain checks.
    ChainAnomaly,
    /// A direct argument predicate (constant, binding, global, stack
    /// range) did not hold.
    ArgMismatch,
    /// The syscall has extended-pointee argument positions; the per-byte
    /// probe is monitor work by design.
    ExtendedArgs,
    /// An in-kernel read needed by a check failed.
    ReadFailure,
}

impl EscalateReason {
    /// Stable numeric code (span arg / export payload).
    pub fn code(self) -> u64 {
        match self {
            EscalateReason::NoPrefilter => 0,
            EscalateReason::FaultsInstalled => 1,
            EscalateReason::NonFullMode => 2,
            EscalateReason::ShadowQuarantine => 3,
            EscalateReason::FlowMiss => 4,
            EscalateReason::CtMismatch => 5,
            EscalateReason::ChainAnomaly => 6,
            EscalateReason::ArgMismatch => 7,
            EscalateReason::ExtendedArgs => 8,
            EscalateReason::ReadFailure => 9,
        }
    }

    /// Stable snake_case label (stats lines, exports).
    pub fn label(self) -> &'static str {
        match self {
            EscalateReason::NoPrefilter => "no_prefilter",
            EscalateReason::FaultsInstalled => "faults_installed",
            EscalateReason::NonFullMode => "non_full_mode",
            EscalateReason::ShadowQuarantine => "shadow_quarantine",
            EscalateReason::FlowMiss => "flow_miss",
            EscalateReason::CtMismatch => "ct_mismatch",
            EscalateReason::ChainAnomaly => "chain_anomaly",
            EscalateReason::ArgMismatch => "arg_mismatch",
            EscalateReason::ExtendedArgs => "extended_args",
            EscalateReason::ReadFailure => "read_failure",
        }
    }
}

/// The tier-1 verdict for a `TracePrefiltered` syscall.
///
/// Tier 1 **never denies**: it either proves the trap equivalent to a
/// full-monitor Allow, or it escalates and the authoritative monitor
/// decides. Every deny string in the system therefore still comes from
/// one place, byte-identical with the prefilter off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefilterVerdict {
    /// The compiled check program proved this trap clean; skip the stop.
    Allow,
    /// Hand the trap to the full monitor (with the reason why).
    Escalate(EscalateReason),
}

/// A syscall tracer — implemented by the BASTION runtime monitor.
///
/// `Send` is a supertrait so a [`crate::World`] carrying an attached
/// tracer can move across OS threads (the fleet runner shards independent
/// worlds over a thread pool). The monitor holds only owned state plus
/// interior-mutable cells, so this costs implementors nothing.
pub trait Tracer: std::any::Any + Send {
    /// Called when a traced syscall stops; inspect the tracee and decide.
    fn on_trap(&mut self, tracee: &mut Tracee<'_>) -> TraceVerdict;

    /// Tier-1 check at seccomp-classify time for `TracePrefiltered`
    /// syscalls, *before* any monitor stop. `faults_installed` tells the
    /// implementation whether the world carries any fault schedule —
    /// injected faults must always escalate so they land on the monitor's
    /// resilience ladder. The default implementation escalates everything,
    /// so tracers without a compiled prefilter behave exactly as under
    /// plain `Trace`.
    fn prefilter(&mut self, _tracee: &mut Tracee<'_>, _faults_installed: bool) -> PrefilterVerdict {
        PrefilterVerdict::Escalate(EscalateReason::NoPrefilter)
    }

    /// Called after a fork completes, once the child exists. The tracer
    /// can seed per-pid state (the prefilter copies the parent's flow
    /// state so the child's next trap classifies against the parent's
    /// last-trapped position). The default does nothing.
    fn on_fork(&mut self, _parent: Pid, _child: Pid) {}

    /// The prefilter's flow-automaton state word for `pid` (0 when no
    /// compiled flow digraph tracks the process) — recorded into each
    /// flight-recorder entry. Host-side observability only: an
    /// implementation must not charge virtual cycles here.
    fn flow_word(&self, _pid: Pid) -> u64 {
        0
    }

    /// The monitor's resilience-ladder rung as a stable small integer
    /// (0 = full verification, higher = degraded). The world captures a
    /// flight dump whenever this changes between traps. Host-side
    /// observability only: no virtual cycles.
    fn ladder_rung(&self) -> u8 {
        0
    }

    /// Downcast support so harnesses can recover concrete monitor
    /// statistics after a run.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Deep-copies the tracer for [`crate::World::snapshot`]. The default
    /// returns `None`, meaning the tracer does not support checkpointing;
    /// snapshotting a world with such a tracer attached panics. The BASTION
    /// monitor overrides this with a structural clone (stats, deny log,
    /// caches, prefilter per-pid state), so a restored world resumes
    /// verification exactly where the checkpoint left it.
    fn snapshot_box(&self) -> Option<Box<dyn Tracer>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::{Operand, Ty};
    use bastion_vm::{CostModel, Image};
    use std::sync::Arc;

    fn machine() -> Machine {
        let mut mb = ModuleBuilder::new("t");
        let stub = mb.declare_syscall_stub("write", 1, 3);
        let mut f = mb.function("main", &[], Ty::I64);
        let r = f.call_direct(stub, &[1i64.into(), 2i64.into(), 3i64.into()]);
        f.ret(Some(Operand::Reg(r)));
        f.finish();
        let img = Image::load(mb.finish()).unwrap();
        let mut m = Machine::new(Arc::new(img), CostModel::default());
        let e = bastion_vm::interp::run(&mut m, 10_000).event();
        assert!(matches!(e, bastion_vm::Event::Syscall { nr: 1, .. }));
        m
    }

    #[test]
    fn getregs_reports_trap_state_and_charges() {
        let m = machine();
        let mut charge = 0;
        let mut t = Tracee::new(&m, 7, &mut charge);
        let regs = t.getregs();
        assert_eq!(regs.nr, 1);
        assert_eq!(regs.args[0], 1);
        assert_eq!(regs.args[2], 3);
        assert_eq!(t.pid(), 7);
        assert!(t.charged() >= m.cost.ptrace_getregs);
    }

    #[test]
    fn remote_reads_charge_per_volume() {
        let m = machine();
        let mut charge = 0;
        let mut t = Tracee::new(&m, 1, &mut charge);
        let _ = t.read_u64(m.fp).unwrap();
        let small = t.charged();
        let mut big = vec![0u8; 4096];
        t.read_mem(m.image.stack_base, &mut big).unwrap();
        assert!(t.charged() - small > small);
    }

    #[test]
    fn read_frame_matches_word_reads_at_half_the_charge() {
        let m = machine();
        let mut charge = 0;
        let mut t = Tracee::new(&m, 1, &mut charge);
        let saved = t.read_u64(m.fp).unwrap();
        let ret = t.read_u64(m.fp + 8).unwrap();
        let two_reads = t.charged();
        let mut charge2 = 0;
        let mut t2 = Tracee::new(&m, 1, &mut charge2);
        assert_eq!(t2.read_frame(m.fp).unwrap(), (saved, ret));
        assert_eq!(t2.charged() * 2, two_reads);
    }

    #[test]
    fn read_mem_prefix_is_partial_and_single_charged() {
        let m = machine();
        let mut charge = 0;
        let mut t = Tracee::new(&m, 1, &mut charge);
        // A read straddling the top of the stack mapping returns only the
        // mapped prefix, for one base charge.
        let mut buf = [0u8; 256];
        let start = m.image.stack_top - 32;
        let n = t.read_mem_prefix(start, &mut buf).unwrap();
        assert_eq!(n, 32);
        assert_eq!(
            t.charged(),
            m.cost.remote_read // 32 bytes are below the per-64B step
        );
        // Fully unmapped start: zero bytes, base charge only.
        let before = t.charged();
        assert_eq!(t.read_mem_prefix(0x10, &mut buf).unwrap(), 0);
        assert_eq!(t.charged() - before, m.cost.remote_read);
    }

    #[test]
    fn read_mem_prefix_zero_length_buffer() {
        let m = machine();
        let mut charge = 0;
        let mut t = Tracee::new(&m, 1, &mut charge);
        let mut empty = [0u8; 0];
        // A 0-byte request is satisfiable anywhere, mapped or not, for the
        // base charge of the attempt.
        assert_eq!(t.read_mem_prefix(m.fp, &mut empty).unwrap(), 0);
        assert_eq!(t.read_mem_prefix(0x10, &mut empty).unwrap(), 0);
        assert_eq!(t.charged(), 2 * m.cost.remote_read);
    }

    #[test]
    fn read_mem_prefix_partial_page_and_exact_boundary() {
        let m = machine();
        let mut charge = 0;
        let mut t = Tracee::new(&m, 1, &mut charge);
        let top = m.image.stack_top;
        // Partial page: a request reaching 7 bytes past the mapping end
        // keeps the in-bounds part.
        let mut buf = [0xAAu8; 64];
        assert_eq!(t.read_mem_prefix(top - 57, &mut buf).unwrap(), 57);
        // Exact boundary: a request ending at the very last mapped byte is
        // complete, not partial.
        assert_eq!(t.read_mem_prefix(top - 64, &mut buf).unwrap(), 64);
        // Starting exactly at the boundary: nothing is mapped.
        assert_eq!(t.read_mem_prefix(top, &mut buf).unwrap(), 0);
    }

    #[test]
    fn kernel_read_mem_prefix_is_partial_and_flat_charged() {
        let m = machine();
        let mut charge = 0;
        let mut t = Tracee::new(&m, 1, &mut charge);
        let top = m.image.stack_top;
        // A read straddling the top of the stack keeps the mapped prefix,
        // for exactly one prefilter_read charge (no remote round trip).
        let mut buf = [0u8; 256];
        assert_eq!(t.kernel_read_mem_prefix(top - 32, &mut buf), 32);
        assert_eq!(t.charged(), m.cost.prefilter_read);
        // Fully unmapped start: zero bytes, same flat charge.
        assert_eq!(t.kernel_read_mem_prefix(0x10, &mut buf), 0);
        assert_eq!(t.charged(), 2 * m.cost.prefilter_read);
        // Fully mapped: the whole buffer, identical bytes to a plain read.
        let base = m.image.stack_base;
        assert_eq!(t.kernel_read_mem_prefix(base, &mut buf), 256);
        let mut plain = [0u8; 256];
        m.mem.read(base, &mut plain).unwrap();
        assert_eq!(buf, plain);
    }

    #[test]
    fn injected_transient_read_error_fails_once() {
        use crate::faults::{FaultInjector, FaultKind, FaultSchedule, Trigger};
        let m = machine();
        let inj = RefCell::new(FaultInjector::new(
            FaultSchedule::new(11).with(FaultKind::ReadError, Trigger::OnAccess(1)),
        ));
        let mut charge = 0;
        let mut t = Tracee::with_faults(&m, 1, &mut charge, Some(&inj));
        assert!(t.read_u64(m.fp).is_err());
        // Transient: the retry succeeds.
        assert!(t.read_u64(m.fp).is_ok());
        assert_eq!(inj.borrow().log().len(), 1);
    }

    #[test]
    fn injected_torn_read_shortens_prefix_and_fails_full_reads() {
        use crate::faults::{FaultInjector, FaultKind, FaultSchedule, Trigger};
        let m = machine();
        let inj = RefCell::new(FaultInjector::new(
            FaultSchedule::new(23).with(FaultKind::TornRead, Trigger::FromAccess(1)),
        ));
        let mut charge = 0;
        let mut t = Tracee::with_faults(&m, 1, &mut charge, Some(&inj));
        // The prefix read reports the torn (shorter) count rather than
        // pretending the whole range was transferred.
        let mut buf = [0xFFu8; 64];
        let n = t.read_mem_prefix(m.fp, &mut buf).unwrap();
        assert!(n < 64, "torn read must shorten the prefix, got {n}");
        // Full-buffer reads have no partial semantics: a torn transfer is
        // an error at the cut point, never a zero-filled tail a verifier
        // could mistake for real memory.
        let mut b2 = [0xFFu8; 64];
        assert!(t.read_mem(m.image.stack_base, &mut b2).is_err());
        assert!(t.read_frame(m.fp).is_err());
        assert_eq!(inj.borrow().log().len(), 3);
        assert!(inj
            .borrow()
            .log()
            .iter()
            .all(|f| f.kind == FaultKind::TornRead));
    }

    #[test]
    fn injected_frame_corruption_flips_saved_fp() {
        use crate::faults::{FaultInjector, FaultKind, FaultSchedule, Trigger};
        let m = machine();
        let mut charge = 0;
        let mut clean_t = Tracee::new(&m, 1, &mut charge);
        let (clean_fp, clean_ret) = clean_t.read_frame(m.fp).unwrap();
        let inj = RefCell::new(FaultInjector::new(
            FaultSchedule::new(31).with(FaultKind::FrameCorrupt, Trigger::OnAccess(1)),
        ));
        let mut charge2 = 0;
        let mut t = Tracee::with_faults(&m, 1, &mut charge2, Some(&inj));
        let (bad_fp, ret) = t.read_frame(m.fp).unwrap();
        assert_ne!(bad_fp, clean_fp, "saved fp must be corrupted");
        assert_eq!(ret, clean_ret, "return address untouched");
        // The corruption was transient: the next fetch is clean.
        assert_eq!(t.read_frame(m.fp).unwrap(), (clean_fp, clean_ret));
    }

    #[test]
    fn injected_stall_charges_extra_cycles() {
        use crate::faults::{FaultInjector, FaultKind, FaultSchedule, Trigger};
        let m = machine();
        let inj = RefCell::new(FaultInjector::new(
            FaultSchedule::new(5).with(FaultKind::Stall { cycles: 9_999 }, Trigger::OnAccess(1)),
        ));
        let mut charge = 0;
        let mut t = Tracee::with_faults(&m, 1, &mut charge, Some(&inj));
        let r = t.try_getregs().unwrap();
        assert_eq!(r.nr, 1);
        assert_eq!(t.charged_this_trap(), m.cost.ptrace_getregs + 9_999);
    }

    #[test]
    fn injected_getregs_failure_surfaces_as_error() {
        use crate::faults::{FaultInjector, FaultKind, FaultSchedule, Trigger};
        let m = machine();
        let inj = RefCell::new(FaultInjector::new(
            FaultSchedule::new(5).with(FaultKind::ReadError, Trigger::OnAccess(1)),
        ));
        let mut charge = 0;
        let mut t = Tracee::with_faults(&m, 1, &mut charge, Some(&inj));
        assert!(t.try_getregs().is_err());
        assert!(t.try_getregs().is_ok());
    }

    #[test]
    fn injected_shadow_bit_flip_corrupts_shared_reads() {
        use crate::faults::{FaultInjector, FaultKind, FaultSchedule, Trigger};
        let m = machine();
        let inj = RefCell::new(FaultInjector::new(
            FaultSchedule::new(77).with(FaultKind::ShadowBitFlip, Trigger::OnAccess(1)),
        ));
        let mut charge = 0;
        let t = Tracee::with_faults(&m, 1, &mut charge, Some(&inj));
        let shadow = t.shared_shadow();
        let mut flipped = [0u8; 8];
        shadow.read(m.fp, &mut flipped).unwrap();
        let mut clean = [0u8; 8];
        m.mem.read(m.fp, &mut clean).unwrap();
        let diff: u32 = flipped
            .iter()
            .zip(clean.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flips");
    }

    #[test]
    fn unmapped_remote_read_fails() {
        let m = machine();
        let mut charge = 0;
        let mut t = Tracee::new(&m, 1, &mut charge);
        assert!(t.read_u64(0x10).is_err());
    }
}

//! Architectural state of one simulated process.
//!
//! The split between *registers* and *memory* is load-bearing for the whole
//! reproduction: virtual registers live in native frames and cannot be
//! corrupted (the paper's threat model gives attackers arbitrary memory
//! read/write, not register control), while return addresses, saved frame
//! pointers, and every named variable live in simulated memory where the
//! attack framework can overwrite them byte-wise.
//!
//! Stack frame layout (grows down):
//!
//! ```text
//! fp + 8   return address
//! fp       saved caller fp
//! fp - frame_size .. fp     slot area (params spilled first, then locals)
//! ```
//!
//! `ret` trusts *memory*, so a corrupted return address redirects control
//! (ROP); the optional CET shadow stack (a protected native vector, like
//! the hardware's) detects the mismatch when enabled.

use crate::cost::CostModel;
use crate::image::Image;
use crate::mem::{MemIo, Memory, OutOfBounds};
use bastion_ir::{CodeAddr, FuncId, InstLoc, Operand, Reg, SlotId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A native execution frame: the register file of one activation.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Function this frame executes.
    pub func: FuncId,
    /// Virtual register file.
    pub regs: Vec<u64>,
    /// Register in the *caller* that receives the return value.
    pub ret_dst: Option<Reg>,
}

/// LLVM-CFI policy: permitted indirect-call targets (entry address → arity).
#[derive(Debug, Clone, Default)]
pub struct CfiPolicy {
    /// Allowed targets: function entry address → declared arity.
    pub allowed: HashMap<u64, u8>,
}

impl CfiPolicy {
    /// Whether an indirect call with `argc` arguments may land on `target`.
    pub fn allows(&self, target: u64, argc: usize) -> bool {
        self.allowed.get(&target) == Some(&(argc as u8))
    }
}

/// A hardware-level fault terminating the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Access to unmapped memory.
    Mem(OutOfBounds),
    /// Integer division by zero.
    DivByZero,
    /// Control transferred to a non-code address.
    BadJump(u64),
    /// CET shadow-stack mismatch (#CP fault).
    ControlProtection {
        /// Shadow-stack value (`None` if the shadow stack underflowed).
        expected: Option<u64>,
        /// Return address found in memory.
        got: u64,
    },
    /// LLVM-CFI indirect-call check failed.
    CfiViolation {
        /// The attempted target address.
        target: u64,
        /// Arguments at the callsite.
        argc: usize,
    },
    /// Stack exhausted.
    StackOverflow,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Mem(e) => write!(f, "segmentation fault: {e}"),
            Fault::DivByZero => write!(f, "division by zero"),
            Fault::BadJump(a) => write!(f, "jump to non-code address {a:#x}"),
            Fault::ControlProtection { expected, got } => write!(
                f,
                "control-protection fault: shadow {expected:?} vs return {got:#x}"
            ),
            Fault::CfiViolation { target, argc } => {
                write!(f, "cfi violation: indirect call/{argc} to {target:#x}")
            }
            Fault::StackOverflow => write!(f, "stack overflow"),
        }
    }
}

/// Where a `ret` went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetTo {
    /// `main` returned: the process exit status.
    Exit(i64),
    /// Execution resumes at this flat code unit (`pc` already points at
    /// it).
    Unit(usize),
}

/// The CPU + memory state of one process.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The program image (shared, immutable).
    pub image: Arc<Image>,
    /// The process address space.
    pub mem: Memory,
    /// Virtual-time cost model.
    pub cost: CostModel,
    /// Current instruction.
    pub pc: InstLoc,
    /// Stack pointer.
    pub sp: u64,
    /// Frame pointer.
    pub fp: u64,
    /// Native frames (register files).
    pub frames: Vec<Frame>,
    /// Shadow-region segment base ($gs).
    pub gs_base: u64,
    /// Virtual cycle counter.
    pub cycles: u64,
    /// Last trapped syscall: number.
    pub trap_nr: u32,
    /// Last trapped syscall: argument registers (rdi..r9).
    pub trap_args: [u64; 6],
    /// Last trapped syscall: address of the `syscall` instruction (rip).
    pub trap_pc: u64,
    /// Where the pending syscall's return value goes.
    pending_ret: Option<Reg>,
    /// Reusable argument buffer for the predecoded call path (avoids a
    /// per-call allocation; not part of the architectural state).
    pub(crate) call_scratch: Vec<u64>,
    /// Recycled register files for popped frames (avoids a heap
    /// allocation per call; not part of the architectural state).
    frame_pool: Vec<Vec<u64>>,
    /// CET shadow stack, when the defense is enabled.
    pub shadow_stack: Option<Vec<u64>>,
    /// LLVM-CFI policy, when the baseline defense is enabled.
    pub cfi: Option<CfiPolicy>,
    /// Exit status once the process has terminated.
    pub exited: Option<i64>,
}

impl Machine {
    /// Creates a process at `main`'s entry with a fresh address space.
    pub fn new(image: Arc<Image>, cost: CostModel) -> Self {
        let mem = image.fresh_memory();
        let gs_base = image.shadow.base;
        let entry = image.entry;
        let mut m = Machine {
            image,
            mem,
            cost,
            pc: InstLoc {
                func: entry,
                block: bastion_ir::BlockId(0),
                inst: 0,
            },
            sp: 0,
            fp: 0,
            frames: Vec::new(),
            gs_base,
            cycles: 0,
            trap_nr: 0,
            trap_args: [0; 6],
            trap_pc: 0,
            pending_ret: None,
            call_scratch: Vec::new(),
            frame_pool: Vec::new(),
            shadow_stack: None,
            cfi: None,
            exited: None,
        };
        // Build main's initial frame: null return address and saved fp.
        let top = m.image.stack_top;
        m.sp = top - 8;
        m.mem.write_u64(m.sp, 0).expect("stack mapped");
        m.sp -= 8;
        m.mem.write_u64(m.sp, 0).expect("stack mapped");
        m.fp = m.sp;
        let fi = &m.image.frame_info[entry.index()];
        m.sp -= fi.frame_size;
        let regs = vec![0u64; m.image.module.func(entry).reg_count as usize];
        m.frames.push(Frame {
            func: entry,
            regs,
            ret_dst: None,
        });
        m
    }

    /// Enables the CET shadow stack (`-fcf-protection=full` analogue).
    pub fn enable_cet(&mut self) {
        self.shadow_stack = Some(Vec::new());
    }

    /// Enables the LLVM-CFI baseline with the given policy.
    pub fn enable_cfi(&mut self, policy: CfiPolicy) {
        self.cfi = Some(policy);
    }

    /// Flips one bit of *application* state — a live frame register, a word
    /// of the current stack frame (locals, saved fp, return address), or a
    /// word of the $gs shadow region backing shadow-bound locals — selected
    /// by the seeded draws `a`/`b`. This is the dual of the substrate faults
    /// the kernel injector applies to the monitor's read path: it models an
    /// SFP-style soft error inside the protected app itself. Returns a
    /// stable label for the fault log.
    pub fn chaos_flip(&mut self, a: u64, b: u64) -> &'static str {
        let bit = (b >> 56) % 64;
        match a % 3 {
            0 if !self.frames.is_empty() => {
                let fi = (a / 3) as usize % self.frames.len();
                let regs = &mut self.frames[fi].regs;
                if !regs.is_empty() {
                    let ri = (b & 0xffff_ffff) as usize % regs.len();
                    regs[ri] ^= 1 << bit;
                    return "app_reg";
                }
                self.flip_stack_word(b, bit)
            }
            1 => self.flip_stack_word(b, bit),
            _ => {
                // A word inside the shadow region: corrupts a shadow-bound
                // local's duplicate copy or its checksum.
                let slots = crate::shadow::SHADOW_REGION_SIZE / 8;
                let addr = self.gs_base + 8 * ((b & 0xffff_ffff) % slots);
                self.flip_word_at(addr, bit);
                "app_shadow"
            }
        }
    }

    /// Flips `bit` of an 8-byte-aligned word in `[sp, fp + 16)`: the active
    /// frame's locals plus its saved frame pointer and return address.
    fn flip_stack_word(&mut self, b: u64, bit: u64) -> &'static str {
        let lo = self.sp & !7;
        let hi = (self.fp + 16).max(lo + 8);
        let slots = (hi - lo) / 8;
        let addr = lo + 8 * ((b & 0xffff_ffff) % slots);
        self.flip_word_at(addr, bit);
        "app_stack"
    }

    fn flip_word_at(&mut self, addr: u64, bit: u64) {
        let mut w = [0u8; 8];
        self.mem.read_unchecked(addr, &mut w);
        let v = u64::from_le_bytes(w) ^ (1 << bit);
        self.mem.write_unchecked(addr, &v.to_le_bytes());
    }

    /// The current frame.
    ///
    /// # Panics
    /// Panics if the process has fully unwound (use only while running).
    #[inline]
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("no active frame")
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("no active frame")
    }

    /// Evaluates an operand against the current register file.
    #[inline]
    pub fn eval(&self, op: Operand) -> u64 {
        match op {
            Operand::Imm(v) => v as u64,
            Operand::Reg(r) => self.frame().regs[r.index()],
        }
    }

    /// Writes a register in the current frame.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.frame_mut().regs[r.index()] = v;
    }

    /// Runtime address of a slot in the current frame.
    pub fn slot_addr(&self, slot: SlotId) -> u64 {
        let fi = &self.image.frame_info[self.frame().func.index()];
        self.fp - fi.frame_size + fi.slot_offsets[slot.index()]
    }

    /// The code address of the current pc.
    pub fn pc_addr(&self) -> CodeAddr {
        self.image.layout.addr_of(self.pc)
    }

    /// Charges `c` virtual cycles.
    #[inline]
    pub fn charge(&mut self, c: u64) {
        self.cycles += c;
    }

    /// Advances pc to the next instruction in the block.
    pub fn advance(&mut self) {
        self.pc.inst += 1;
    }

    /// Performs the call sequence onto `target` (an instruction address —
    /// usually a function entry, but ROP/JOP may land mid-function).
    /// Returns the flat code unit the call landed on.
    ///
    /// # Errors
    /// Faults on stack overflow, unmapped stack, or a non-code target.
    pub fn do_call(
        &mut self,
        target: CodeAddr,
        args: &[u64],
        ret_dst: Option<Reg>,
        retaddr: CodeAddr,
    ) -> Result<usize, Fault> {
        let unit = self
            .image
            .decoded
            .resolve(target.raw())
            .ok_or(Fault::BadJump(target.raw()))?;
        self.do_call_unit(unit, args, ret_dst, retaddr)?;
        Ok(unit)
    }

    /// [`Self::do_call`] onto a flat code unit already known to start an
    /// instruction (the predecoded engine resolves direct-call targets at
    /// image load).
    ///
    /// # Errors
    /// Faults on stack overflow or an unmapped stack.
    pub(crate) fn do_call_unit(
        &mut self,
        unit: usize,
        args: &[u64],
        ret_dst: Option<Reg>,
        retaddr: CodeAddr,
    ) -> Result<(), Fault> {
        let loc = self.image.decoded.loc_at(unit);
        let callee = loc.func;
        let fi = &self.image.frame_info[callee.index()];
        if self.sp < self.image.stack_base + fi.frame_size + 64 {
            return Err(Fault::StackOverflow);
        }
        // Push return address and saved fp.
        self.sp -= 8;
        self.mem
            .write_u64(self.sp, retaddr.raw())
            .map_err(Fault::Mem)?;
        self.sp -= 8;
        self.mem.write_u64(self.sp, self.fp).map_err(Fault::Mem)?;
        self.fp = self.sp;
        self.sp -= fi.frame_size;
        // Spill arguments into parameter slots.
        let func = self.image.module.func(callee);
        let base = self.fp - fi.frame_size;
        for (i, &a) in args.iter().enumerate().take(func.params.len()) {
            let addr = base + fi.slot_offsets[i];
            self.mem.write_u64(addr, a).map_err(Fault::Mem)?;
        }
        if let Some(ss) = &mut self.shadow_stack {
            ss.push(retaddr.raw());
        }
        let nregs = func.reg_count as usize;
        let regs = self.fresh_regs(nregs);
        self.frames.push(Frame {
            func: callee,
            regs,
            ret_dst,
        });
        self.pc = loc;
        Ok(())
    }

    /// A zeroed register file, recycled from [`Self::frame_pool`] when one
    /// is available.
    fn fresh_regs(&mut self, n: usize) -> Vec<u64> {
        let mut regs = self.frame_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(n, 0);
        regs
    }

    /// Performs the return sequence, trusting the in-memory frame chain.
    /// Returns the process exit value when `main` returns, else the unit
    /// execution resumes at.
    ///
    /// # Errors
    /// Faults on unmapped stack, CET mismatch, or a non-code return target.
    pub fn do_ret(&mut self, val: u64) -> Result<RetTo, Fault> {
        let saved_fp = self.mem.read_u64(self.fp).map_err(Fault::Mem)?;
        let retaddr = self.mem.read_u64(self.fp + 8).map_err(Fault::Mem)?;
        if let Some(ss) = &mut self.shadow_stack {
            let expected = ss.pop();
            if expected != Some(retaddr) {
                // main's sentinel return (0) with an empty shadow stack is
                // the legitimate process exit, not a violation.
                if !(retaddr == 0 && expected.is_none()) {
                    return Err(Fault::ControlProtection {
                        expected,
                        got: retaddr,
                    });
                }
            }
        }
        self.sp = self.fp + 16;
        self.fp = saved_fp;
        let popped = self.frames.pop().expect("ret without frame");
        let ret_dst = popped.ret_dst;
        if self.frame_pool.len() < 64 {
            self.frame_pool.push(popped.regs);
        }
        if retaddr == 0 {
            self.exited = Some(val as i64);
            return Ok(RetTo::Exit(val as i64));
        }
        let unit = self
            .image
            .decoded
            .resolve(retaddr)
            .ok_or(Fault::BadJump(retaddr))?;
        let loc = self.image.decoded.loc_at(unit);
        match self.frames.last_mut() {
            Some(parent) if parent.func == loc.func => {
                if let Some(dst) = ret_dst {
                    parent.regs[dst.index()] = val;
                }
            }
            _ => {
                // ROP-style return into a foreign frame: synthesize a
                // register file so execution continues in the target
                // function's context over the attacker-controlled stack.
                let regs = self.fresh_regs(self.image.module.func(loc.func).reg_count as usize);
                self.frames.push(Frame {
                    func: loc.func,
                    regs,
                    ret_dst: None,
                });
            }
        }
        self.pc = loc;
        Ok(RetTo::Unit(unit))
    }

    /// Records the trapped syscall state (the registers the monitor reads).
    pub fn set_trap(&mut self, nr: u32, args: [u64; 6], dst: Reg) {
        self.trap_nr = nr;
        self.trap_args = args;
        self.trap_pc = self.pc_addr().raw();
        self.pending_ret = Some(dst);
    }

    /// Completes the pending syscall with `ret` and resumes after it.
    ///
    /// # Panics
    /// Panics if no syscall is pending.
    pub fn complete_syscall(&mut self, ret: u64) {
        let dst = self.pending_ret.take().expect("no pending syscall");
        self.set_reg(dst, ret);
        self.advance();
    }

    /// Whether a syscall is awaiting completion (blocked in the kernel).
    pub fn in_syscall(&self) -> bool {
        self.pending_ret.is_some()
    }

    /// Current call depth (native frames).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::{Operand, Ty};

    fn machine() -> Machine {
        let mut mb = ModuleBuilder::new("m");
        let callee = mb.declare("callee", &[("x", Ty::I64)], Ty::I64);
        let mut f = mb.define(callee);
        let a = f.frame_addr(f.param_slot(0));
        let v = f.load(a);
        f.ret(Some(v.into()));
        f.finish();
        let mut f = mb.function("main", &[], Ty::I64);
        let r = f.call_direct(callee, &[Operand::Imm(5)]);
        f.ret(Some(r.into()));
        f.finish();
        let img = Image::load(mb.finish()).unwrap();
        Machine::new(Arc::new(img), CostModel::default())
    }

    #[test]
    fn call_spills_args_to_memory() {
        let mut m = machine();
        let callee = m.image.module.func_by_name("callee").unwrap();
        let entry = m.image.layout.func_entry(callee);
        let ra = m.pc_addr().offset(bastion_ir::CALL_SIZE);
        m.do_call(entry, &[5], None, ra).unwrap();
        // The spilled param is readable at the slot address.
        let slot = m.slot_addr(SlotId(0));
        assert_eq!(m.mem.read_u64(slot).unwrap(), 5);
        // Return address sits at fp+8.
        assert_eq!(m.mem.read_u64(m.fp + 8).unwrap(), ra.raw());
        assert_eq!(m.depth(), 2);
    }

    #[test]
    fn ret_restores_caller_and_passes_value() {
        let mut m = machine();
        let callee = m.image.module.func_by_name("callee").unwrap();
        let entry = m.image.layout.func_entry(callee);
        let ra = m.pc_addr().offset(bastion_ir::CALL_SIZE);
        let old_fp = m.fp;
        m.do_call(entry, &[5], Some(Reg(0)), ra).unwrap();
        let to = m.do_ret(42).unwrap();
        assert!(matches!(to, RetTo::Unit(_)));
        assert_eq!(m.fp, old_fp);
        assert_eq!(m.frame().regs[0], 42);
        assert_eq!(m.depth(), 1);
    }

    #[test]
    fn main_ret_exits() {
        let mut m = machine();
        let exited = m.do_ret(7).unwrap();
        assert_eq!(exited, RetTo::Exit(7));
        assert_eq!(m.exited, Some(7));
    }

    #[test]
    fn corrupted_return_address_redirects_control() {
        let mut m = machine();
        let callee = m.image.module.func_by_name("callee").unwrap();
        let entry = m.image.layout.func_entry(callee);
        let ra = m.pc_addr().offset(bastion_ir::CALL_SIZE);
        m.do_call(entry, &[5], None, ra).unwrap();
        // Attacker overwrites the return address with callee's own entry.
        m.mem.write_u64(m.fp + 8, entry.raw()).unwrap();
        m.do_ret(0).unwrap();
        // Control went to the attacker's address, with a synthesized frame.
        assert_eq!(m.pc, m.image.layout.loc_of(entry).unwrap());
    }

    #[test]
    fn cet_catches_corrupted_return() {
        let mut m = machine();
        m.enable_cet();
        let callee = m.image.module.func_by_name("callee").unwrap();
        let entry = m.image.layout.func_entry(callee);
        let ra = m.pc_addr().offset(bastion_ir::CALL_SIZE);
        m.do_call(entry, &[5], None, ra).unwrap();
        m.mem.write_u64(m.fp + 8, entry.raw()).unwrap();
        let e = m.do_ret(0).unwrap_err();
        assert!(matches!(e, Fault::ControlProtection { .. }));
    }

    #[test]
    fn cet_allows_legitimate_returns() {
        let mut m = machine();
        m.enable_cet();
        let callee = m.image.module.func_by_name("callee").unwrap();
        let entry = m.image.layout.func_entry(callee);
        let ra = m.pc_addr().offset(bastion_ir::CALL_SIZE);
        m.do_call(entry, &[5], None, ra).unwrap();
        assert!(matches!(m.do_ret(1).unwrap(), RetTo::Unit(_)));
        assert_eq!(m.do_ret(0).unwrap(), RetTo::Exit(0));
    }

    #[test]
    fn stack_overflow_detected() {
        let mut m = machine();
        let callee = m.image.module.func_by_name("callee").unwrap();
        let entry = m.image.layout.func_entry(callee);
        let ra = m.pc_addr().offset(bastion_ir::CALL_SIZE);
        let mut res = Ok(0);
        for _ in 0..100_000 {
            res = m.do_call(entry, &[1], None, ra);
            if res.is_err() {
                break;
            }
        }
        assert_eq!(res.unwrap_err(), Fault::StackOverflow);
    }

    #[test]
    fn cfi_policy_allows_matching_arity_only() {
        let p = CfiPolicy {
            allowed: [(0x1000u64, 2u8)].into_iter().collect(),
        };
        assert!(p.allows(0x1000, 2));
        assert!(!p.allows(0x1000, 3));
        assert!(!p.allows(0x2000, 2));
    }
}

//! The instruction interpreter.
//!
//! Two execution paths share one observable semantics:
//!
//! * the **predecoded fast path** — [`run`]/[`run_bounded`] dispatch over
//!   the flat [`crate::decode::DecodedProgram`] built at image load,
//!   keeping the program counter (as a flat unit index) and the cycle
//!   counter in locals between events;
//! * the **legacy reference path** — [`step`] executes exactly one
//!   instruction by walking the IR tree, and [`run_legacy`] loops it. It is
//!   kept as the differential-testing oracle and as the single-step
//!   interface the defenses/monitor tests use.
//!
//! Both paths produce bit-identical [`Event`] streams, virtual cycle
//! counts, and fault behaviour; `tests/differential.rs` asserts this over
//! the shipped apps, the Table 6 scenarios, and random IR modules.
//!
//! The kernel crate drives the loop: it handles [`Event::Syscall`] through
//! the simulated Linux syscall layer (seccomp, tracing, blocking) and
//! resumes the machine with [`Machine::complete_syscall`]; faults and exits
//! terminate the process.

use crate::decode::{DecodedInst, MAX_RUN};
use crate::machine::{Fault, Machine, RetTo};
use crate::mem::{MemIo, Memory, OutOfBounds};
use crate::shadow::ShadowTable;
use bastion_ir::{
    BinOp, Callee, CmpOp, CodeAddr, Inst, IntrinsicOp, Operand, Terminator, Width, CALL_SIZE,
};
use std::sync::Arc;

/// The outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Execution may continue with another [`step`].
    Continue,
    /// A `syscall` instruction trapped; the kernel must service it and call
    /// [`Machine::complete_syscall`] (or kill the process).
    Syscall {
        /// Syscall number.
        nr: u32,
        /// Argument registers.
        args: [u64; 6],
    },
    /// `main` returned or the process exited.
    Exited(i64),
    /// A hardware fault; the process is dead.
    Fault(Fault),
}

/// Why [`run`] returned: a real event, or the step budget ran out with the
/// machine still runnable. Distinct from [`Event::Continue`] so a wedged
/// (looping) app can never be mistaken for one that produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A syscall trap, exit, or fault occurred.
    Event(Event),
    /// `max_steps` instructions executed without an event; the machine can
    /// keep running.
    BudgetExhausted,
}

impl RunOutcome {
    /// The event, for callers that know the budget is ample.
    ///
    /// # Panics
    /// Panics if the budget was exhausted without an event.
    pub fn event(self) -> Event {
        match self {
            RunOutcome::Event(e) => e,
            RunOutcome::BudgetExhausted => panic!("step budget exhausted without an event"),
        }
    }

    /// Whether the budget ran out before any event.
    pub fn exhausted(self) -> bool {
        matches!(self, RunOutcome::BudgetExhausted)
    }
}

/// Executes one instruction of `m` (legacy tree-walking path).
///
/// # Panics
/// Panics if the machine has already exited or is blocked in a syscall.
pub fn step(m: &mut Machine) -> Event {
    assert!(m.exited.is_none(), "stepping an exited machine");
    assert!(!m.in_syscall(), "stepping a machine blocked in a syscall");
    let func = &m.image.module.functions[m.pc.func.index()];
    let block = &func.blocks[m.pc.block.index()];
    if m.pc.inst < block.insts.len() {
        let inst = block.insts[m.pc.inst].clone();
        exec_inst(m, &inst)
    } else {
        let term = block.term;
        exec_term(m, term)
    }
}

/// Runs the predecoded fast path until the next event or until `max_steps`
/// instructions have executed.
pub fn run(m: &mut Machine, max_steps: u64) -> RunOutcome {
    match run_bounded(m, max_steps) {
        (_, Some(e)) => RunOutcome::Event(e),
        (_, None) => RunOutcome::BudgetExhausted,
    }
}

/// Runs the legacy tree-walking path until the next event or until
/// `max_steps` instructions have executed (the differential oracle).
pub fn run_legacy(m: &mut Machine, max_steps: u64) -> RunOutcome {
    for _ in 0..max_steps {
        match step(m) {
            Event::Continue => {}
            e => return RunOutcome::Event(e),
        }
    }
    RunOutcome::BudgetExhausted
}

/// The fused dispatch loop over the predecoded stream. Returns the number
/// of instructions executed (the event-producing one included) and the
/// event, if any; `None` means the step budget ran out.
///
/// The architectural `pc` and `cycles`, the frame pointer and the active
/// frame's register file live in locals while the loop runs. The register
/// file goes back into its frame before every call, return, syscall trap
/// and exit, and after a call or return the loop takes the new top frame's
/// file; `pc` and `cycles` are synced at every exit point (and before a
/// syscall trap is recorded, since [`Machine::set_trap`] snapshots `pc`).
///
/// One budget guard covers every superinstruction: the loop dispatches
/// from the fused stream only while at least [`MAX_RUN`] steps remain, and
/// from the unfused stream after that, so a run never has to stop between
/// its units.
///
/// # Panics
/// Panics if the machine has already exited or is blocked in a syscall.
#[allow(clippy::too_many_lines)]
pub fn run_bounded(m: &mut Machine, max_steps: u64) -> (u64, Option<Event>) {
    assert!(m.exited.is_none(), "stepping an exited machine");
    assert!(!m.in_syscall(), "stepping a machine blocked in a syscall");
    let image = Arc::clone(&m.image);
    let prog = &image.decoded;
    let (fused, plain) = (prog.insts(), prog.plain_insts());
    // `steps < fused_limit` exactly when `steps + MAX_RUN <= max_steps`.
    let fused_limit = max_steps.saturating_sub(MAX_RUN - 1);
    let cost = m.cost;
    let mut cycles = m.cycles;
    let mut idx = prog.unit_of_addr(image.layout.addr_of(m.pc).raw());
    let mut steps = 0u64;
    let mut fp = m.fp;
    let mut regs = std::mem::take(&mut m.frames.last_mut().expect("no active frame").regs);

    // Hands the register file back to the active frame.
    macro_rules! park {
        () => {
            m.frames.last_mut().expect("no active frame").regs = std::mem::take(&mut regs)
        };
    }
    // Takes the (new) active frame's register file and frame pointer.
    macro_rules! unpark {
        () => {{
            regs = std::mem::take(&mut m.frames.last_mut().expect("no active frame").regs);
            fp = m.fp;
        }};
    }
    // Returns `$ev` at unit `$idx` once the register file is back home.
    macro_rules! exit_parked {
        ($idx:expr, $ev:expr) => {{
            m.pc = prog.loc_at($idx);
            m.cycles = cycles;
            return (steps, Some($ev));
        }};
    }
    macro_rules! exit_at {
        ($idx:expr, $ev:expr) => {{
            park!();
            exit_parked!($idx, $ev)
        }};
    }
    // The units a run is made of. `$u` is the unit's offset in the run, so
    // a fault reports the unit that raised it.
    macro_rules! bin_unit {
        ($u:expr, $dst:expr, $op:expr, $a:expr, $b:expr) => {{
            match bin($op, $a, $b) {
                Some(v) => regs[$dst.index()] = v,
                None => exit_at!(idx + $u, Event::Fault(Fault::DivByZero)),
            }
            cycles += cost.inst;
        }};
    }
    macro_rules! frame_addr_unit {
        ($tmp:expr, $neg_off:expr) => {{
            let a = fp - $neg_off;
            regs[$tmp.index()] = a;
            cycles += cost.inst;
            a
        }};
    }
    macro_rules! load_unit {
        ($u:expr, $dst:expr, $a:expr, $width:expr) => {{
            match load(&m.mem, $a, $width) {
                Ok(v) => regs[$dst.index()] = v,
                Err(e) => exit_at!(idx + $u, Event::Fault(Fault::Mem(e))),
            }
            cycles += cost.mem;
        }};
    }
    macro_rules! store_unit {
        ($u:expr, $a:expr, $src:expr, $width:expr) => {{
            if let Err(e) = store(&mut m.mem, $a, ev(&regs, $src), $width) {
                exit_at!(idx + $u, Event::Fault(Fault::Mem(e)));
            }
            cycles += cost.mem;
        }};
    }

    /// Operand evaluation against the loop's register file.
    #[inline(always)]
    fn ev(regs: &[u64], op: Operand) -> u64 {
        match op {
            Operand::Imm(v) => v as u64,
            Operand::Reg(r) => regs[r.index()],
        }
    }

    loop {
        let unit = if steps < fused_limit {
            #[cfg(test)]
            tests::note_dispatch(idx, fused[idx]);
            &fused[idx]
        } else if steps < max_steps {
            &plain[idx]
        } else {
            break;
        };
        steps += 1;
        match *unit {
            DecodedInst::Mov { dst, src } => {
                regs[dst.index()] = ev(&regs, src);
                cycles += cost.inst;
                idx += 1;
            }
            DecodedInst::Bin { dst, op, a, b } => {
                bin_unit!(0, dst, op, ev(&regs, a), ev(&regs, b));
                idx += 1;
            }
            DecodedInst::Cmp { dst, op, a, b } => {
                let v = compare(op, ev(&regs, a), ev(&regs, b));
                regs[dst.index()] = u64::from(v);
                cycles += cost.inst;
                idx += 1;
            }
            DecodedInst::CmpBr {
                dst,
                op,
                a,
                b,
                then_,
                else_,
            } => {
                let v = compare(op, ev(&regs, a), ev(&regs, b));
                regs[dst.index()] = u64::from(v);
                steps += 1;
                cycles += 2 * cost.inst;
                idx = if v { then_ } else { else_ } as usize;
            }
            DecodedInst::Load { dst, addr, width } => {
                load_unit!(0, dst, ev(&regs, addr), width);
                idx += 1;
            }
            DecodedInst::Store { addr, src, width } => {
                store_unit!(0, ev(&regs, addr), src, width);
                idx += 1;
            }
            DecodedInst::FrameAddr { dst, neg_off } => {
                frame_addr_unit!(dst, neg_off);
                idx += 1;
            }
            DecodedInst::FrameLoad {
                tmp,
                neg_off,
                dst,
                width,
            } => {
                let a = frame_addr_unit!(tmp, neg_off);
                steps += 1;
                load_unit!(1, dst, a, width);
                idx += 2;
            }
            DecodedInst::FrameLoad2 {
                tmp,
                neg_off,
                dst,
                width,
                tmp2,
                neg_off2,
                dst2,
                width2,
            } => {
                let a = frame_addr_unit!(tmp, neg_off);
                steps += 1;
                load_unit!(1, dst, a, width);
                steps += 1;
                let a = frame_addr_unit!(tmp2, neg_off2);
                steps += 1;
                load_unit!(3, dst2, a, width2);
                idx += 4;
            }
            DecodedInst::FrameLoadBin {
                tmp,
                neg_off,
                dst,
                width,
                bin_dst,
                op,
                b,
            } => {
                let a = frame_addr_unit!(tmp, neg_off);
                steps += 1;
                load_unit!(1, dst, a, width);
                steps += 1;
                bin_unit!(2, bin_dst, op, regs[dst.index()], ev(&regs, b));
                idx += 3;
            }
            DecodedInst::FrameStore {
                tmp,
                neg_off,
                src,
                width,
            } => {
                let a = frame_addr_unit!(tmp, neg_off);
                steps += 1;
                store_unit!(1, a, src, width);
                idx += 2;
            }
            DecodedInst::FrameStoreJmp {
                tmp,
                neg_off,
                src,
                width,
                target,
            } => {
                let a = frame_addr_unit!(tmp, neg_off);
                steps += 1;
                store_unit!(1, a, src, width);
                steps += 1;
                cycles += cost.inst;
                idx = target as usize;
            }
            DecodedInst::BinFrameStore {
                dst,
                op,
                a,
                b,
                tmp,
                neg_off,
                width,
            } => {
                bin_unit!(0, dst, op, ev(&regs, a), ev(&regs, b));
                steps += 1;
                let a = frame_addr_unit!(tmp, u64::from(neg_off));
                steps += 1;
                store_unit!(2, a, Operand::Reg(dst), width);
                idx += 3;
            }
            DecodedInst::LoadAddr { dst, addr } => {
                regs[dst.index()] = addr;
                cycles += cost.inst;
                idx += 1;
            }
            DecodedInst::FieldAddr { dst, base, off } => {
                regs[dst.index()] = ev(&regs, base).wrapping_add(off);
                cycles += cost.inst;
                idx += 1;
            }
            DecodedInst::IndexAddr {
                dst,
                base,
                elem_size,
                index,
            } => {
                regs[dst.index()] =
                    ev(&regs, base).wrapping_add(ev(&regs, index).wrapping_mul(elem_size));
                cycles += cost.inst;
                idx += 1;
            }
            DecodedInst::IndexLoad {
                tmp,
                base,
                elem_size,
                index,
                dst,
                width,
            } => {
                let a = ev(&regs, base)
                    .wrapping_add(ev(&regs, index).wrapping_mul(u64::from(elem_size)));
                regs[tmp.index()] = a;
                cycles += cost.inst;
                steps += 1;
                load_unit!(1, dst, a, width);
                idx += 2;
            }
            DecodedInst::CallDirect {
                dst,
                args,
                target_unit,
                retaddr,
            } => {
                let mut argv = std::mem::take(&mut m.call_scratch);
                argv.clear();
                argv.extend(prog.arg_ops(args).iter().map(|&a| ev(&regs, a)));
                cycles += cost.call;
                if m.shadow_stack.is_some() {
                    cycles += cost.cet;
                }
                park!();
                let res = m.do_call_unit(target_unit as usize, &argv, dst, CodeAddr(retaddr));
                m.call_scratch = argv;
                match res {
                    Ok(()) => idx = target_unit as usize,
                    Err(f) => exit_parked!(idx, Event::Fault(f)),
                }
                unpark!();
            }
            DecodedInst::CallIndirect {
                dst,
                args,
                target,
                retaddr,
            } => {
                let mut argv = std::mem::take(&mut m.call_scratch);
                argv.clear();
                argv.extend(prog.arg_ops(args).iter().map(|&a| ev(&regs, a)));
                let t = ev(&regs, target);
                if let Some(policy) = &m.cfi {
                    let ok = policy.allows(t, argv.len());
                    cycles += cost.cfi_check;
                    if !ok {
                        m.call_scratch = argv;
                        exit_at!(
                            idx,
                            Event::Fault(Fault::CfiViolation {
                                target: t,
                                argc: args.len(),
                            })
                        );
                    }
                }
                cycles += cost.call;
                if m.shadow_stack.is_some() {
                    cycles += cost.cet;
                }
                park!();
                let res = m.do_call(CodeAddr(t), &argv, dst, CodeAddr(retaddr));
                m.call_scratch = argv;
                match res {
                    Ok(unit) => idx = unit,
                    Err(f) => exit_parked!(idx, Event::Fault(f)),
                }
                unpark!();
            }
            DecodedInst::Syscall { dst, nr, args } => {
                let mut a = [0u64; 6];
                for (i, &op) in prog.arg_ops(args).iter().take(6).enumerate() {
                    a[i] = ev(&regs, op);
                }
                park!();
                // set_trap snapshots the trapped rip from m.pc: sync first.
                m.pc = prog.loc_at(idx);
                m.cycles = cycles;
                m.set_trap(nr, a, dst);
                return (steps, Some(Event::Syscall { nr, args: a }));
            }
            DecodedInst::CtxWriteMem { addr, size } => {
                cycles += cost.intrinsic;
                let shadow = ShadowTable::new(m.gs_base);
                let a = ev(&regs, addr);
                let sz = size.min(8) as usize;
                let mut buf = [0u8; 8];
                let res = match m.mem.read(a, &mut buf[..sz]) {
                    Ok(()) => shadow.write_value(&mut m.mem, a, u64::from_le_bytes(buf), sz as u8),
                    Err(e) => Err(e),
                };
                if let Err(e) = res {
                    exit_at!(idx, Event::Fault(Fault::Mem(e)));
                }
                idx += 1;
            }
            DecodedInst::CtxBindMem {
                pos,
                addr,
                callsite,
            } => {
                cycles += cost.intrinsic;
                let shadow = ShadowTable::new(m.gs_base);
                let a = ev(&regs, addr);
                let res = match callsite {
                    Some(cs) => shadow.bind_mem(&mut m.mem, cs, pos, a),
                    None => Ok(()),
                };
                if let Err(e) = res {
                    exit_at!(idx, Event::Fault(Fault::Mem(e)));
                }
                idx += 1;
            }
            DecodedInst::CtxBindConst {
                pos,
                value,
                callsite,
            } => {
                cycles += cost.intrinsic;
                let shadow = ShadowTable::new(m.gs_base);
                let res = match callsite {
                    Some(cs) => shadow.bind_const(&mut m.mem, cs, pos, value),
                    None => Ok(()),
                };
                if let Err(e) = res {
                    exit_at!(idx, Event::Fault(Fault::Mem(e)));
                }
                idx += 1;
            }
            DecodedInst::Jmp { target } => {
                cycles += cost.inst;
                idx = target as usize;
            }
            DecodedInst::Br { cond, then_, else_ } => {
                cycles += cost.inst;
                idx = if ev(&regs, cond) != 0 { then_ } else { else_ } as usize;
            }
            DecodedInst::Ret { val } => {
                let v = val.map_or(0, |op| ev(&regs, op));
                cycles += cost.call;
                park!();
                match m.do_ret(v) {
                    Ok(RetTo::Exit(code)) => exit_parked!(idx, Event::Exited(code)),
                    Ok(RetTo::Unit(unit)) => idx = unit,
                    Err(f) => exit_parked!(idx, Event::Fault(f)),
                }
                unpark!();
            }
            DecodedInst::Pad => unreachable!("executed inter-function alignment padding"),
        }
    }
    park!();
    m.pc = prog.loc_at(idx);
    m.cycles = cycles;
    (steps, None)
}

/// `a <op> b` with wrapping arithmetic; `None` on a zero divisor.
#[inline(always)]
fn bin(op: BinOp, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            (a as i64).wrapping_div(b as i64) as u64
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            (a as i64).wrapping_rem(b as i64) as u64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a << (b & 63),
        BinOp::Shr => a >> (b & 63),
    })
}

/// `a <op> b` as signed integers.
#[inline(always)]
fn compare(op: CmpOp, a: u64, b: u64) -> bool {
    let (a, b) = (a as i64, b as i64);
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// A guest load of `width` at `a`, one TLB probe on a hit.
#[inline(always)]
fn load(mem: &Memory, a: u64, width: Width) -> Result<u64, OutOfBounds> {
    match width {
        Width::W8 => mem.read_u8(a).map(u64::from),
        Width::W64 => mem.read_u64(a),
    }
}

/// A guest store of `width` at `a`, one TLB probe on a hit.
#[inline(always)]
fn store(mem: &mut Memory, a: u64, v: u64, width: Width) -> Result<(), OutOfBounds> {
    match width {
        Width::W8 => mem.write_u8(a, v as u8),
        Width::W64 => mem.write_u64(a, v),
    }
}

fn exec_inst(m: &mut Machine, inst: &Inst) -> Event {
    match inst {
        Inst::Mov { dst, src } => {
            let v = m.eval(*src);
            m.set_reg(*dst, v);
            m.charge(m.cost.inst);
            m.advance();
            Event::Continue
        }
        Inst::Bin { dst, op, a, b } => {
            let (a, b) = (m.eval(*a), m.eval(*b));
            let v = match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Event::Fault(Fault::DivByZero);
                    }
                    (a as i64).wrapping_div(b as i64) as u64
                }
                BinOp::Rem => {
                    if b == 0 {
                        return Event::Fault(Fault::DivByZero);
                    }
                    (a as i64).wrapping_rem(b as i64) as u64
                }
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Shl => a << (b & 63),
                BinOp::Shr => a >> (b & 63),
            };
            m.set_reg(*dst, v);
            m.charge(m.cost.inst);
            m.advance();
            Event::Continue
        }
        Inst::Cmp { dst, op, a, b } => {
            let v = compare(*op, m.eval(*a), m.eval(*b));
            m.set_reg(*dst, u64::from(v));
            m.charge(m.cost.inst);
            m.advance();
            Event::Continue
        }
        Inst::Load { dst, addr, width } => {
            let a = m.eval(*addr);
            let v = match width {
                Width::W8 => {
                    let mut b = [0u8; 1];
                    match crate::mem::MemIo::read(&m.mem, a, &mut b) {
                        Ok(()) => u64::from(b[0]),
                        Err(e) => return Event::Fault(Fault::Mem(e)),
                    }
                }
                Width::W64 => match crate::mem::MemIo::read_u64(&m.mem, a) {
                    Ok(v) => v,
                    Err(e) => return Event::Fault(Fault::Mem(e)),
                },
            };
            m.set_reg(*dst, v);
            m.charge(m.cost.mem);
            m.advance();
            Event::Continue
        }
        Inst::Store { addr, src, width } => {
            let a = m.eval(*addr);
            let v = m.eval(*src);
            let res = match width {
                Width::W8 => crate::mem::MemIo::write(&mut m.mem, a, &[v as u8]),
                Width::W64 => crate::mem::MemIo::write_u64(&mut m.mem, a, v),
            };
            if let Err(e) = res {
                return Event::Fault(Fault::Mem(e));
            }
            m.charge(m.cost.mem);
            m.advance();
            Event::Continue
        }
        Inst::FrameAddr { dst, slot } => {
            let a = m.slot_addr(*slot);
            m.set_reg(*dst, a);
            m.charge(m.cost.inst);
            m.advance();
            Event::Continue
        }
        Inst::GlobalAddr { dst, global } => {
            let a = m.image.global_addr(*global);
            m.set_reg(*dst, a);
            m.charge(m.cost.inst);
            m.advance();
            Event::Continue
        }
        Inst::FuncAddr { dst, func } => {
            let a = m.image.layout.func_entry(*func).raw();
            m.set_reg(*dst, a);
            m.charge(m.cost.inst);
            m.advance();
            Event::Continue
        }
        Inst::FieldAddr {
            dst,
            base,
            struct_id,
            field,
        } => {
            let structs = &m.image.module.structs;
            let off = structs[struct_id.index()].field_offset(*field as usize, structs);
            let v = m.eval(*base).wrapping_add(off);
            m.set_reg(*dst, v);
            m.charge(m.cost.inst);
            m.advance();
            Event::Continue
        }
        Inst::IndexAddr {
            dst,
            base,
            elem_size,
            index,
        } => {
            let v = m
                .eval(*base)
                .wrapping_add(m.eval(*index).wrapping_mul(*elem_size));
            m.set_reg(*dst, v);
            m.charge(m.cost.inst);
            m.advance();
            Event::Continue
        }
        Inst::Call { dst, callee, args } => {
            let argv: Vec<u64> = args.iter().map(|a| m.eval(*a)).collect();
            let retaddr = m.pc_addr().offset(CALL_SIZE);
            let target = match callee {
                Callee::Direct(f) => m.image.layout.func_entry(*f),
                Callee::Indirect(op) => {
                    let t = m.eval(*op);
                    if let Some(policy) = &m.cfi {
                        let ok = policy.allows(t, args.len());
                        m.charge(m.cost.cfi_check);
                        if !ok {
                            return Event::Fault(Fault::CfiViolation {
                                target: t,
                                argc: args.len(),
                            });
                        }
                    }
                    CodeAddr(t)
                }
            };
            m.charge(m.cost.call);
            if m.shadow_stack.is_some() {
                m.charge(m.cost.cet);
            }
            match m.do_call(target, &argv, *dst, retaddr) {
                Ok(_) => Event::Continue,
                Err(f) => Event::Fault(f),
            }
        }
        Inst::Syscall { dst, nr, args } => {
            let mut a = [0u64; 6];
            for (i, op) in args.iter().take(6).enumerate() {
                a[i] = m.eval(*op);
            }
            m.set_trap(*nr, a, *dst);
            Event::Syscall { nr: *nr, args: a }
        }
        Inst::Intrinsic(op) => {
            m.charge(m.cost.intrinsic);
            let shadow = ShadowTable::new(m.gs_base);
            let res = match op {
                IntrinsicOp::CtxWriteMem { addr, size } => {
                    let a = m.eval(*addr);
                    let sz = (*size).min(8) as usize;
                    let mut buf = [0u8; 8];
                    match crate::mem::MemIo::read(&m.mem, a, &mut buf[..sz]) {
                        Ok(()) => {
                            shadow.write_value(&mut m.mem, a, u64::from_le_bytes(buf), sz as u8)
                        }
                        Err(e) => Err(e),
                    }
                }
                IntrinsicOp::CtxBindMem { pos, addr } => {
                    let a = m.eval(*addr);
                    match next_callsite_addr(m) {
                        Some(cs) => shadow.bind_mem(&mut m.mem, cs, *pos, a),
                        None => Ok(()),
                    }
                }
                IntrinsicOp::CtxBindConst { pos, value } => match next_callsite_addr(m) {
                    Some(cs) => shadow.bind_const(&mut m.mem, cs, *pos, *value),
                    None => Ok(()),
                },
            };
            if let Err(e) = res {
                return Event::Fault(Fault::Mem(e));
            }
            m.advance();
            Event::Continue
        }
    }
}

/// Address of the next call instruction in the current block (the callsite
/// a `ctx_bind_*` intrinsic refers to).
fn next_callsite_addr(m: &Machine) -> Option<u64> {
    let func = &m.image.module.functions[m.pc.func.index()];
    let block = &func.blocks[m.pc.block.index()];
    for i in (m.pc.inst + 1)..block.insts.len() {
        if block.insts[i].is_call() {
            let loc = bastion_ir::InstLoc { inst: i, ..m.pc };
            return Some(m.image.layout.addr_of(loc).raw());
        }
    }
    None
}

fn exec_term(m: &mut Machine, term: Terminator) -> Event {
    match term {
        Terminator::Jmp(b) => {
            m.pc.block = b;
            m.pc.inst = 0;
            m.charge(m.cost.inst);
            Event::Continue
        }
        Terminator::Br { cond, then_, else_ } => {
            let c = m.eval(cond);
            m.pc.block = if c != 0 { then_ } else { else_ };
            m.pc.inst = 0;
            m.charge(m.cost.inst);
            Event::Continue
        }
        Terminator::Ret(val) => {
            let v = val.map_or(0, |op| m.eval(op));
            m.charge(m.cost.call);
            match m.do_ret(v) {
                Ok(RetTo::Exit(code)) => Event::Exited(code),
                Ok(RetTo::Unit(_)) => Event::Continue,
                Err(f) => Event::Fault(f),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::image::Image;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::{GlobalId, GlobalInit, Operand, SlotId, Ty};
    use std::cell::RefCell;
    use std::sync::Arc;

    thread_local! {
        /// The units at which `run_bounded` dispatched a superinstruction
        /// from the fused stream, in order.
        static FUSED_AT: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn note_dispatch(idx: usize, unit: DecodedInst) {
        if unit.run_len() > 1 {
            FUSED_AT.with(|v| v.borrow_mut().push(idx));
        }
    }

    /// Runs `run_bounded` and reports whether it dispatched the
    /// superinstruction at unit `at`.
    fn run_bounded_noting(m: &mut Machine, k: u64, at: usize) -> (u64, Option<Event>, bool) {
        FUSED_AT.with(|v| v.borrow_mut().clear());
        let (n, e) = run_bounded(m, k);
        (n, e, FUSED_AT.with(|v| v.borrow().contains(&at)))
    }

    fn run_main(mb: ModuleBuilder) -> (Machine, Event) {
        let img = Arc::new(Image::load(mb.finish()).unwrap());
        // Drive the legacy oracle alongside the fast path and insist on
        // identical events, cycles, and stack geometry.
        let mut legacy = Machine::new(img.clone(), CostModel::default());
        let le = run_legacy(&mut legacy, 1_000_000).event();
        let mut m = Machine::new(img, CostModel::default());
        let e = run(&mut m, 1_000_000).event();
        assert_eq!(e, le, "fast path event diverged from legacy");
        assert_eq!(m.cycles, legacy.cycles, "fast path cycles diverged");
        assert_eq!((m.sp, m.fp), (legacy.sp, legacy.fp));
        (m, e)
    }

    #[test]
    fn arithmetic_and_branching() {
        // Computes sum of 1..=10 with a loop; returns 55.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let i = f.local("i", Ty::I64);
        let acc = f.local("acc", Ty::I64);
        let ia = f.frame_addr(i);
        f.store(ia, 1i64);
        let aa = f.frame_addr(acc);
        f.store(aa, 0i64);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jmp(header);
        f.switch_to(header);
        let ia2 = f.frame_addr(i);
        let iv = f.load(ia2);
        let c = f.cmp(CmpOp::Le, iv, 10i64);
        f.br(c, body, exit);
        f.switch_to(body);
        let aa2 = f.frame_addr(acc);
        let av = f.load(aa2);
        let sum = f.bin(BinOp::Add, av, iv);
        let aa3 = f.frame_addr(acc);
        f.store(aa3, sum);
        let inc = f.bin(BinOp::Add, iv, 1i64);
        let ia3 = f.frame_addr(i);
        f.store(ia3, inc);
        f.jmp(header);
        f.switch_to(exit);
        let aa4 = f.frame_addr(acc);
        let fin = f.load(aa4);
        f.ret(Some(fin.into()));
        f.finish();
        let (_, e) = run_main(mb);
        assert_eq!(e, Event::Exited(55));
    }

    #[test]
    fn nested_calls_return_values() {
        let mut mb = ModuleBuilder::new("t");
        let double = mb.declare("double", &[("x", Ty::I64)], Ty::I64);
        let mut f = mb.define(double);
        let a = f.frame_addr(f.param_slot(0));
        let v = f.load(a);
        let d = f.bin(BinOp::Mul, v, 2i64);
        f.ret(Some(d.into()));
        f.finish();
        let mut f = mb.function("main", &[], Ty::I64);
        let r1 = f.call_direct(double, &[Operand::Imm(10)]);
        let r2 = f.call_direct(double, &[r1.into()]);
        f.ret(Some(r2.into()));
        f.finish();
        let (_, e) = run_main(mb);
        assert_eq!(e, Event::Exited(40));
    }

    #[test]
    fn indirect_calls_through_function_pointers() {
        let mut mb = ModuleBuilder::new("t");
        let add3 = mb.declare("add3", &[("x", Ty::I64)], Ty::I64);
        let mut f = mb.define(add3);
        let a = f.frame_addr(f.param_slot(0));
        let v = f.load(a);
        let d = f.bin(BinOp::Add, v, 3i64);
        f.ret(Some(d.into()));
        f.finish();
        let mut f = mb.function("main", &[], Ty::I64);
        let p = f.func_addr(add3);
        let r = f.call_indirect(p, &[Operand::Imm(4)]);
        f.ret(Some(r.into()));
        f.finish();
        let (_, e) = run_main(mb);
        assert_eq!(e, Event::Exited(7));
    }

    #[test]
    fn syscall_traps_with_arg_registers() {
        let mut mb = ModuleBuilder::new("t");
        let stub = mb.declare_syscall_stub("write", 1, 3);
        let mut f = mb.function("main", &[], Ty::I64);
        let r = f.call_direct(stub, &[1i64.into(), 0x1234i64.into(), 5i64.into()]);
        f.ret(Some(r.into()));
        f.finish();
        let img = Image::load(mb.finish()).unwrap();
        let mut m = Machine::new(Arc::new(img), CostModel::default());
        let e = run(&mut m, 10_000).event();
        assert_eq!(
            e,
            Event::Syscall {
                nr: 1,
                args: [1, 0x1234, 5, 0, 0, 0]
            }
        );
        assert_eq!(m.trap_nr, 1);
        assert!(m.in_syscall());
        // The kernel resumes it with a return value.
        m.complete_syscall(5);
        let e = run(&mut m, 10_000).event();
        assert_eq!(e, Event::Exited(5));
    }

    #[test]
    fn byte_loads_zero_extend() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global_str("s", "\u{7f}");
        let mut f = mb.function("main", &[], Ty::I64);
        let a = f.global_addr(g);
        let v = f.load_w(a, Width::W8);
        f.ret(Some(v.into()));
        f.finish();
        let (_, e) = run_main(mb);
        assert_eq!(e, Event::Exited(0x7f));
    }

    #[test]
    fn wild_store_faults() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        f.store(Operand::Imm(0x10), Operand::Imm(1));
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let (_, e) = run_main(mb);
        assert!(matches!(e, Event::Fault(Fault::Mem(_))));
    }

    #[test]
    fn division_by_zero_faults() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let r = f.bin(BinOp::Div, 10i64, 0i64);
        f.ret(Some(r.into()));
        f.finish();
        let (_, e) = run_main(mb);
        assert_eq!(e, Event::Fault(Fault::DivByZero));
    }

    #[test]
    fn intrinsics_update_shadow_table() {
        use bastion_ir::Inst;
        let mut mb = ModuleBuilder::new("t");
        let callee = mb.declare("callee", &[("x", Ty::I64)], Ty::I64);
        let mut f = mb.define(callee);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let mut f = mb.function("main", &[], Ty::I64);
        let x = f.local("x", Ty::I64);
        let xa = f.frame_addr(x);
        f.store(xa, 77i64);
        f.emit(Inst::Intrinsic(IntrinsicOp::CtxWriteMem {
            addr: xa.into(),
            size: 8,
        }));
        f.emit(Inst::Intrinsic(IntrinsicOp::CtxBindMem {
            pos: 1,
            addr: xa.into(),
        }));
        let xv = f.load(xa);
        let _ = f.call_direct(callee, &[xv.into()]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let img = Image::load(mb.finish()).unwrap();
        let layout_probe = img.clone();
        let mut m = Machine::new(Arc::new(img), CostModel::default());
        let e = run(&mut m, 100_000).event();
        assert_eq!(e, Event::Exited(0));
        // The shadow table holds x's value and the callsite binding.
        let shadow = ShadowTable::new(m.gs_base);
        // Recompute x's address in main's (now-popped) frame: the initial
        // fp is stack_top - 16.
        let main = layout_probe.module.func_by_name("main").unwrap();
        let fi = layout_probe.frame(main);
        let x_addr = (layout_probe.stack_top - 16) - fi.frame_size + fi.slot_offsets[0];
        assert_eq!(shadow.read_value(&m.mem, x_addr).unwrap(), Some((77, 8)));
    }

    #[test]
    fn wild_indirect_call_is_a_bad_jump() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let r = f.call_indirect(Operand::Imm(0xdead_0000), &[]);
        f.ret(Some(r.into()));
        f.finish();
        let img = Image::load(mb.finish()).unwrap();
        let mut m = Machine::new(Arc::new(img), CostModel::default());
        let e = run(&mut m, 1_000).event();
        assert_eq!(e, Event::Fault(Fault::BadJump(0xdead_0000)));
    }

    #[test]
    fn indirect_call_mid_function_executes_from_there() {
        // JOP-style: an indirect call may land past a function's entry;
        // execution continues at that instruction with a fresh frame.
        let mut mb = ModuleBuilder::new("t");
        let gadget = mb.declare("gadget", &[], Ty::I64);
        let mut f = mb.define(gadget);
        let _ = f.mov(1i64); // skipped when entering at +1 inst
        let v = f.mov(55i64);
        f.ret(Some(v.into()));
        f.finish();
        let mut f = mb.function("main", &[], Ty::I64);
        let entry = f.func_addr(gadget);
        let mid = f.bin(BinOp::Add, entry, bastion_ir::layout::INST_SIZE as i64);
        let r = f.call_indirect(mid, &[]);
        f.ret(Some(r.into()));
        f.finish();
        let img = Image::load(mb.finish()).unwrap();
        let mut m = Machine::new(Arc::new(img), CostModel::default());
        assert_eq!(run(&mut m, 10_000).event(), Event::Exited(55));
    }

    /// `main` stores to a local, loads it back and returns it: two fused
    /// frame-slot pairs.
    fn frame_slot_roundtrip() -> Arc<Image> {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let x = f.local("x", Ty::I64);
        let xa = f.frame_addr(x);
        f.store(xa, 42i64);
        let xb = f.frame_addr(x);
        let v = f.load(xb);
        f.ret(Some(v.into()));
        f.finish();
        Arc::new(Image::load(mb.finish()).unwrap())
    }

    fn regs(m: &Machine) -> Vec<Vec<u64>> {
        m.frames.iter().map(|f| f.regs.clone()).collect()
    }

    #[test]
    fn frame_slot_accesses_are_fused() {
        let img = frame_slot_roundtrip();
        let prog = &img.decoded;
        let entry = prog.unit_of_addr(img.layout.func_entry(img.entry).raw());
        assert!(matches!(prog.inst(entry), DecodedInst::FrameStore { .. }));
        assert!(matches!(prog.inst(entry + 1), DecodedInst::Store { .. }));
        assert!(matches!(
            prog.inst(entry + 2),
            DecodedInst::FrameLoad { .. }
        ));
        assert!(matches!(prog.inst(entry + 3), DecodedInst::Load { .. }));
    }

    /// `main` counts a global word up to 3 in a loop whose header ends in
    /// a compare-and-branch, its only superinstruction, then returns it.
    fn counting_loop() -> Arc<Image> {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("i", Ty::I64, GlobalInit::Words(vec![0]));
        let mut f = mb.function("main", &[], Ty::I64);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jmp(header);
        f.switch_to(header);
        let ga = f.global_addr(g);
        let iv = f.load(ga);
        let c = f.cmp(CmpOp::Lt, iv, 3i64);
        f.br(c, body, exit);
        f.switch_to(body);
        let next = f.bin(BinOp::Add, iv, 1i64);
        let gb = f.global_addr(g);
        f.store(gb, next);
        f.jmp(header);
        f.switch_to(exit);
        f.ret(Some(iv.into()));
        f.finish();
        Arc::new(Image::load(mb.finish()).unwrap())
    }

    /// Makes one unit of a run fault when applied to a fresh machine.
    type Inject = Box<dyn Fn(&mut Machine)>;

    /// Unmaps the word at `off` in `main`'s slot `slot`.
    fn unmap_slot(slot: SlotId, off: u64) -> Inject {
        Box::new(move |m: &mut Machine| {
            let a = m.slot_addr(slot) + off;
            m.mem.unmap_region(a, 8);
        })
    }

    /// Zeroes the global word `g` (a divisor).
    fn zero_global(g: GlobalId) -> Inject {
        Box::new(move |m: &mut Machine| {
            let a = m.image.global_addr(g);
            m.mem.write_u64(a, 0).unwrap();
        })
    }

    /// A program whose first superinstruction is the run under test, and
    /// for each unit of that run that can fault, the unit's offset in the
    /// run and how to make it fault.
    struct FusedCase {
        img: Arc<Image>,
        faults: Vec<(usize, Inject)>,
    }

    /// A program for every superinstruction kind. A divisor comes from a
    /// global word (7 unless a fault zeroes it) so the same program runs
    /// with and without the `DivByZero`.
    fn fused_cases() -> Vec<FusedCase> {
        let load = |mb: ModuleBuilder| Arc::new(Image::load(mb.finish()).unwrap());
        let divisor = |mb: &mut ModuleBuilder| mb.global("d", Ty::I64, GlobalInit::Words(vec![7]));
        let mut cases = Vec::new();

        // FrameLoad: return x
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let x = f.local("x", Ty::I64);
        let xa = f.frame_addr(x);
        let v = f.load(xa);
        f.ret(Some(v.into()));
        f.finish();
        let faults = vec![(1, unmap_slot(x, 0))];
        cases.push(FusedCase {
            img: load(mb),
            faults,
        });

        // FrameStore: x = 42; return x
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let x = f.local("x", Ty::I64);
        let xa = f.frame_addr(x);
        f.store(xa, 42i64);
        let xb = f.frame_addr(x);
        let v = f.load(xb);
        f.ret(Some(v.into()));
        f.finish();
        let faults = vec![(1, unmap_slot(x, 0))];
        cases.push(FusedCase {
            img: load(mb),
            faults,
        });

        // FrameStoreJmp: x = 42; goto next; next: return x
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let x = f.local("x", Ty::I64);
        let next = f.new_block();
        let xa = f.frame_addr(x);
        f.store(xa, 42i64);
        f.jmp(next);
        f.switch_to(next);
        let xb = f.frame_addr(x);
        let v = f.load(xb);
        f.ret(Some(v.into()));
        f.finish();
        let faults = vec![(1, unmap_slot(x, 0))];
        cases.push(FusedCase {
            img: load(mb),
            faults,
        });

        // FrameLoad2: return x + y
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let x = f.local("x", Ty::I64);
        let y = f.local("y", Ty::I64);
        let xa = f.frame_addr(x);
        let xv = f.load(xa);
        let ya = f.frame_addr(y);
        let yv = f.load(ya);
        let s = f.bin(BinOp::Add, xv, yv);
        f.ret(Some(s.into()));
        f.finish();
        let faults = vec![(1, unmap_slot(x, 0)), (3, unmap_slot(y, 0))];
        cases.push(FusedCase {
            img: load(mb),
            faults,
        });

        // FrameLoadBin: return x / d
        let mut mb = ModuleBuilder::new("t");
        let g = divisor(&mut mb);
        let mut f = mb.function("main", &[], Ty::I64);
        let x = f.local("x", Ty::I64);
        let ga = f.global_addr(g);
        let d = f.load(ga);
        let xa = f.frame_addr(x);
        let xv = f.load(xa);
        let q = f.bin(BinOp::Div, xv, d);
        f.ret(Some(q.into()));
        f.finish();
        let faults = vec![(1, unmap_slot(x, 0)), (2, zero_global(g))];
        cases.push(FusedCase {
            img: load(mb),
            faults,
        });

        // BinFrameStore: x = 84 / d; return x
        let mut mb = ModuleBuilder::new("t");
        let g = divisor(&mut mb);
        let mut f = mb.function("main", &[], Ty::I64);
        let x = f.local("x", Ty::I64);
        let ga = f.global_addr(g);
        let d = f.load(ga);
        let q = f.bin(BinOp::Div, 84i64, d);
        let xa = f.frame_addr(x);
        f.store(xa, q);
        let xb = f.frame_addr(x);
        let v = f.load(xb);
        f.ret(Some(v.into()));
        f.finish();
        let faults = vec![(0, zero_global(g)), (2, unmap_slot(x, 0))];
        cases.push(FusedCase {
            img: load(mb),
            faults,
        });

        // IndexLoad: return arr[2]
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let arr = f.local("arr", Ty::Array(Box::new(Ty::I64), 4));
        let base = f.frame_addr(arr);
        let p = f.index_addr(base, 8, 2i64);
        let v = f.load(p);
        f.ret(Some(v.into()));
        f.finish();
        let faults = vec![(1, unmap_slot(arr, 16))];
        cases.push(FusedCase {
            img: load(mb),
            faults,
        });

        // CmpBr: the counting loop
        cases.push(FusedCase {
            img: counting_loop(),
            faults: Vec::new(),
        });
        cases
    }

    /// For every superinstruction kind, every budget up to `MAX_RUN - 1`
    /// past the program's length, and a fault in each unit of the run
    /// that can fault, the fast path agrees with the legacy oracle on the
    /// event, the steps taken, `pc`, cycles and every frame's registers,
    /// and again after both resume from where the budget stopped them.
    /// Each variant runs the superinstruction itself at some budget, and
    /// the unfused units at the smaller ones.
    #[test]
    fn every_superinstruction_matches_legacy_at_every_budget() {
        let mut longest = 0;
        let mut kinds = std::collections::HashSet::new();
        let cases = fused_cases();
        for case in &cases {
            let prog = &case.img.decoded;
            let start = (0..prog.len())
                .find(|&u| prog.inst(u).run_len() > 1)
                .expect("a superinstruction in the fused stream");
            let fused = prog.inst(start);
            assert!(
                kinds.insert(std::mem::discriminant(&fused)),
                "two cases test {fused:?}"
            );
            longest = longest.max(fused.run_len());
            let variants = std::iter::once(None).chain(case.faults.iter().map(Some));
            for variant in variants {
                let fresh = || {
                    let mut m = Machine::new(case.img.clone(), CostModel::default());
                    if let Some((_, inject)) = variant {
                        inject(&mut m);
                    }
                    m
                };
                // The oracle's whole run: its length bounds the budgets,
                // and a fault must stop at the intended unit of the run.
                let mut oracle = fresh();
                let mut total = 0;
                let end = loop {
                    total += 1;
                    match step(&mut oracle) {
                        Event::Continue => {}
                        e => break e,
                    }
                };
                let at = variant.map(|(u, _)| *u);
                let what = format!("{fused:?} with a fault at {at:?}");
                match at {
                    Some(u) => {
                        assert!(matches!(end, Event::Fault(_)), "{what}: {end:?}");
                        assert_eq!(oracle.pc, prog.loc_at(start + u), "{what}");
                    }
                    None => assert!(matches!(end, Event::Exited(_)), "{what}: {end:?}"),
                }
                let mut ran_fused = false;
                for k in 1..=total + MAX_RUN - 1 {
                    let (mut legacy, mut fast) = (fresh(), fresh());
                    let le = run_legacy(&mut legacy, k);
                    let (n, fe, hit) = run_bounded_noting(&mut fast, k, start);
                    ran_fused |= hit;
                    assert_eq!(
                        fe.map_or(RunOutcome::BudgetExhausted, RunOutcome::Event),
                        le,
                        "{what}, budget {k}"
                    );
                    assert_eq!(n, k.min(total), "{what}, budget {k}: steps");
                    assert_eq!(fast.pc, legacy.pc, "{what}, budget {k}: pc");
                    assert_eq!(fast.cycles, legacy.cycles, "{what}, budget {k}: cycles");
                    assert_eq!(regs(&fast), regs(&legacy), "{what}, budget {k}: registers");
                    if le.exhausted() {
                        assert_eq!(run(&mut fast, 1_000), run_legacy(&mut legacy, 1_000));
                        assert_eq!(fast.pc, legacy.pc, "{what}, resumed after {k}: pc");
                        assert_eq!(fast.cycles, legacy.cycles, "{what}, resumed after {k}");
                        assert_eq!(regs(&fast), regs(&legacy), "{what}, resumed after {k}");
                    }
                }
                assert!(ran_fused, "{what}: the superinstruction never ran");
            }
        }
        assert_eq!(kinds.len(), 8, "a case for every superinstruction kind");
        assert_eq!(longest, MAX_RUN, "MAX_RUN is the longest run");
    }

    #[test]
    fn cycles_accumulate() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", &[], Ty::I64);
        let a = f.mov(1i64);
        let b = f.bin(BinOp::Add, a, 2i64);
        f.ret(Some(b.into()));
        f.finish();
        let (m, e) = run_main(mb);
        assert_eq!(e, Event::Exited(3));
        assert!(m.cycles >= 3);
    }
}

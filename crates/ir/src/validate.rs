//! Module verifier.
//!
//! Catches malformed IR early (front-end or instrumentation bugs) so that
//! the VM can assume structural invariants: every referenced id is in
//! bounds, every register is within the function's register file, every
//! block is terminated, and syscall instructions appear only inside stubs.

use crate::hash::FxHashSet;
use crate::inst::{Callee, Inst, Operand};
use crate::module::{FuncKind, Module};
use std::fmt;

/// A structural error found by [`Module::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Function in which the error was found, if applicable.
    pub func: Option<String>,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.func {
            Some(name) => write!(f, "invalid IR in `{name}`: {}", self.message),
            None => write!(f, "invalid IR: {}", self.message),
        }
    }
}

impl std::error::Error for ValidateError {}

impl Module {
    /// Checks structural invariants of the module.
    ///
    /// # Errors
    /// Returns the first problem found: out-of-range ids, duplicate function
    /// names, unterminated control flow, misplaced `syscall` instructions,
    /// or calls whose arity disagrees with the callee declaration.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let err = |func: Option<&str>, message: String| {
            Err(ValidateError {
                func: func.map(str::to_string),
                message,
            })
        };

        // Unique function names (metadata and the front-end key on them).
        let mut seen = FxHashSet::default();
        seen.reserve(self.functions.len());
        for f in &self.functions {
            if !seen.insert(f.name.as_str()) {
                return err(None, format!("duplicate function name `{}`", f.name));
            }
        }

        for f in &self.functions {
            let n = Some(f.name.as_str());
            if f.blocks.is_empty() {
                return err(n, "function has no body".into());
            }
            if f.params.len() > f.locals.len() {
                return err(n, "parameters must have frame slots".into());
            }
            for (bi, b) in f.blocks.iter().enumerate() {
                for inst in &b.insts {
                    self.validate_inst(f, inst).map_err(|m| ValidateError {
                        func: Some(f.name.clone()),
                        message: format!("block {bi}: {m}"),
                    })?;
                }
                for op in b.term.uses() {
                    self.check_operand(f, op).map_err(|m| ValidateError {
                        func: Some(f.name.clone()),
                        message: format!("block {bi} terminator: {m}"),
                    })?;
                }
                for s in b.term.successors() {
                    if s.index() >= f.blocks.len() {
                        return err(n, format!("block {bi}: branch to missing block {s}"));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_operand(&self, f: &crate::module::Function, op: Operand) -> Result<(), String> {
        if let Operand::Reg(r) = op {
            if r.0 >= f.reg_count {
                return Err(format!(
                    "register {r} out of range (reg_count {})",
                    f.reg_count
                ));
            }
        }
        Ok(())
    }

    fn check_def(&self, f: &crate::module::Function, r: crate::inst::Reg) -> Result<(), String> {
        if r.0 >= f.reg_count {
            return Err(format!("defined register {r} out of range"));
        }
        Ok(())
    }

    fn validate_inst(&self, f: &crate::module::Function, inst: &Inst) -> Result<(), String> {
        for op in inst.uses() {
            self.check_operand(f, op)?;
        }
        if let Some(d) = inst.def() {
            self.check_def(f, d)?;
        }
        match inst {
            Inst::FrameAddr { slot, .. } if slot.index() >= f.locals.len() => {
                Err(format!("frame slot {slot} out of range"))
            }
            Inst::GlobalAddr { global, .. } if global.index() >= self.globals.len() => {
                Err(format!("global {global} out of range"))
            }
            Inst::FuncAddr { func, .. } if func.index() >= self.functions.len() => {
                Err(format!("function {func} out of range"))
            }
            Inst::FieldAddr {
                struct_id, field, ..
            } => {
                let Some(s) = self.structs.get(struct_id.index()) else {
                    return Err(format!("{struct_id} out of range"));
                };
                if *field as usize >= s.fields.len() {
                    return Err(format!("field {field} out of range for {}", s.name));
                }
                Ok(())
            }
            Inst::Call {
                callee: Callee::Direct(id),
                args,
                ..
            } => {
                let Some(callee_fn) = self.functions.get(id.index()) else {
                    return Err(format!("call target {id} out of range"));
                };
                if callee_fn.params.len() != args.len() {
                    return Err(format!(
                        "call to `{}` passes {} args, expected {}",
                        callee_fn.name,
                        args.len(),
                        callee_fn.params.len()
                    ));
                }
                Ok(())
            }
            Inst::Syscall { nr, .. } if f.kind != FuncKind::SyscallStub(*nr) => Err(format!(
                "`syscall {nr}` outside a matching syscall stub (kind {:?})",
                f.kind
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ModuleBuilder;
    use crate::inst::{Inst, Operand, Reg, Width};
    use crate::module::{Block, FuncId, Function, Local, Param, SlotId};
    use crate::types::Ty;

    fn valid_module() -> Module {
        let mut mb = ModuleBuilder::new("ok");
        let stub = mb.declare_syscall_stub("getpid", 39, 0);
        let mut f = mb.function("main", &[], Ty::I64);
        let r = f.call_direct(stub, &[]);
        f.ret(Some(r.into()));
        f.finish();
        mb.finish()
    }

    #[test]
    fn valid_module_passes() {
        assert!(valid_module().validate().is_ok());
    }

    #[test]
    fn duplicate_names_fail() {
        let mut m = valid_module();
        let dup = m.functions[1].clone();
        m.functions.push(dup);
        let e = m.validate().unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn out_of_range_register_fails() {
        let mut m = valid_module();
        m.functions[1].blocks[0].insts.push(Inst::Mov {
            dst: Reg(0),
            src: Operand::Reg(Reg(999)),
        });
        assert!(m.validate().is_err());
    }

    #[test]
    fn call_arity_mismatch_fails() {
        let mut m = valid_module();
        // main calls getpid with one extra argument.
        if let Inst::Call { args, .. } = &mut m.functions[1].blocks[0].insts[0] {
            args.push(Operand::Imm(1));
        } else {
            panic!("expected call");
        }
        let e = m.validate().unwrap_err();
        assert!(e.message.contains("args"));
    }

    #[test]
    fn syscall_outside_stub_fails() {
        let mut m = valid_module();
        m.functions[1].blocks[0].insts.insert(
            0,
            Inst::Syscall {
                dst: Reg(0),
                nr: 39,
                args: vec![],
            },
        );
        let e = m.validate().unwrap_err();
        assert!(e.message.contains("syscall"));
    }

    #[test]
    fn branch_to_missing_block_fails() {
        let m = Module {
            name: "bad".into(),
            structs: vec![],
            globals: vec![],
            functions: vec![Function {
                name: "f".into(),
                kind: crate::module::FuncKind::Normal,
                params: vec![],
                ret_ty: Ty::Void,
                locals: vec![],
                blocks: vec![Block {
                    insts: vec![],
                    term: crate::inst::Terminator::Jmp(crate::module::BlockId(9)),
                }],
                reg_count: 0,
            }],
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn params_require_slots() {
        let m = Module {
            name: "bad".into(),
            structs: vec![],
            globals: vec![],
            functions: vec![Function {
                name: "f".into(),
                kind: crate::module::FuncKind::Normal,
                params: vec![Param {
                    name: "x".into(),
                    ty: Ty::I64,
                }],
                ret_ty: Ty::Void,
                locals: vec![],
                blocks: vec![Block {
                    insts: vec![],
                    term: crate::inst::Terminator::Ret(None),
                }],
                reg_count: 0,
            }],
        };
        assert!(m.validate().is_err());
        // And the fixed version passes.
        let mut m = m;
        m.functions[0].locals.push(Local {
            name: "x".into(),
            ty: Ty::I64,
        });
        assert!(m.validate().is_ok());
        let _ = (FuncId(0), SlotId(0), Width::W64);
    }
}

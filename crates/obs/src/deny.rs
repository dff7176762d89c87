//! Deny provenance: the one typed record of a monitor deny.
//!
//! A [`DenyRecord`] captures *why* a trap was denied at rule granularity —
//! which context fired, which specific rule within it, the expected vs
//! observed values where the rule compares two quantities, and the
//! resilience state (retries, strikes, ladder rung) the monitor was in.
//! The monitor builds it once and it travels, boxed and never cloned,
//! through the kernel's deny verdict into the killed process's
//! `MonitorKill` exit, where every reader finds it. Its `Display` prints
//! the kill-reason text `"<CTX>: <msg>"`.

use serde::Serialize;

/// Which context denied (paper §7.2–§7.4), or the fail-closed policy.
/// Defined here, below both the kernel and the monitor, so the monitor's
/// violations, its stats and every kill reason share one tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DenyContext {
    /// Call-Type context (§7.2).
    CallType,
    /// Control-Flow context (§7.3).
    ControlFlow,
    /// Argument Integrity context (§7.4).
    ArgIntegrity,
    /// The monitor's own substrate failed; fail-closed policy denied.
    FailClosed,
}

impl DenyContext {
    /// Short label used in kill reasons ("CT", "CF", "AI", "FC").
    pub fn label(self) -> &'static str {
        match self {
            DenyContext::CallType => "CT",
            DenyContext::ControlFlow => "CF",
            DenyContext::ArgIntegrity => "AI",
            DenyContext::FailClosed => "FC",
        }
    }
}

/// Rule-level provenance: the specific check that fired, one variant per
/// deny site in the verification pipeline (4 CT, 7 CF, 24 AI, 4
/// fail-closed). A check an earlier stage decides has no rule (DESIGN.md
/// §6e); `bastion paper deny-rules` shows what fires or reaches each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DenyRule {
    // ---- Call-Type (§7.2) ----
    /// The stub frame head could not be read (CT needs the callsite).
    StackUnreadable,
    /// Direct call to a syscall not classified directly-callable.
    NotDirectlyCallable,
    /// Indirect call to a syscall not classified indirectly-callable.
    NotIndirectlyCallable,
    /// No call instruction precedes the return address.
    NoCallInstruction,
    // ---- Control-Flow (§7.3) ----
    /// A frame head in the walk could not be read.
    FrameUnreadable,
    /// The walk bottomed out in a function other than `main`.
    BottomNotMain,
    /// A return address is not preceded by any known call instruction.
    ReturnNotAfterCall,
    /// A frame was entered indirectly but its function is not a permitted
    /// indirect entry.
    IllegalIndirectEntry,
    /// A direct callsite's target disagrees with the unwound callee.
    CalleeMismatch,
    /// A callsite is not in the callee's valid-caller set.
    InvalidCaller,
    /// The 128-frame unwind limit was exceeded.
    DepthLimitExceeded,
    // ---- Argument Integrity (§7.4) ----
    /// A checked shadow read faulted.
    ShadowReadFault,
    /// A shadow entry failed its integrity checksum (table quarantined).
    ShadowCorrupt,
    /// The shadow table is quarantined; AI is unverifiable.
    ShadowQuarantined,
    /// The trapped syscall frame has no callsite to key metadata on.
    NoSyscallCallsite,
    /// A sensitive syscall arrived from a site not in the metadata.
    UnlistedSyscallSite,
    /// The trapped syscall number disagrees with the site's registration.
    SysnoMismatch,
    /// An argument register disagrees with its expected constant.
    ConstArgMismatch,
    /// A bound variable has no shadow copy.
    NoShadowCopy,
    /// An argument register disagrees with the shadow value.
    ShadowValueMismatch,
    /// The bound variable's memory was corrupted after binding (TOCTOU).
    CorruptedAfterBind,
    /// An argument register disagrees with a bound constant.
    BoundConstMismatch,
    /// No binding exists for an argument position that requires one.
    BindingMissing,
    /// An extended-argument pointee could not be read.
    PointeeUnreadable,
    /// A shadow-backed pointee byte disagrees with its shadow entry.
    PointeeByteCorrupted,
    /// Shadow-backed pointee bytes past the readable window escaped
    /// verification.
    PointeeTailUnverifiable,
    /// An extended-argument pointee ran off the end of its mapping with no
    /// terminator inside the readable window.
    PointeeRunsOffMapping,
    /// A bound variable's current memory could not be read.
    BoundVarUnreadable,
    /// A bound sensitive variable up-stack disagrees with its shadow copy.
    SensitiveVarCorrupted,
    /// A propagation site is missing its memory binding.
    MissingMemBinding,
    /// A spilled parameter slot could not be read.
    ParamSlotUnreadable,
    /// A spilled constant parameter was corrupted.
    ConstParamCorrupted,
    /// An argument does not point at the expected global.
    GlobalAddrMismatch,
    /// The pointee of a global-symbol argument was corrupted.
    GlobalPointeeCorrupted,
    /// A stack-address argument lies outside the plausible stack range.
    StackAddrImplausible,
    // ---- Fail-Closed (substrate) ----
    /// Registers unreadable after retries.
    RegsUnreadable,
    /// Per-trap verification deadline exceeded.
    WatchdogDeadline,
    /// Degraded ladder rung: CF/AI-configured traps denied.
    DegradedMode,
    /// Fail-closed ladder rung: every trap denied.
    FailClosedMode,
}

/// Every rule with its stable snake_case name (exports and reports), in
/// declaration order: `RULES[rule as usize]` is `rule`'s row.
pub const RULES: [(DenyRule, &str); 39] = [
    (DenyRule::StackUnreadable, "stack_unreadable"),
    (DenyRule::NotDirectlyCallable, "not_directly_callable"),
    (DenyRule::NotIndirectlyCallable, "not_indirectly_callable"),
    (DenyRule::NoCallInstruction, "no_call_instruction"),
    (DenyRule::FrameUnreadable, "frame_unreadable"),
    (DenyRule::BottomNotMain, "bottom_not_main"),
    (DenyRule::ReturnNotAfterCall, "return_not_after_call"),
    (DenyRule::IllegalIndirectEntry, "illegal_indirect_entry"),
    (DenyRule::CalleeMismatch, "callee_mismatch"),
    (DenyRule::InvalidCaller, "invalid_caller"),
    (DenyRule::DepthLimitExceeded, "depth_limit_exceeded"),
    (DenyRule::ShadowReadFault, "shadow_read_fault"),
    (DenyRule::ShadowCorrupt, "shadow_corrupt"),
    (DenyRule::ShadowQuarantined, "shadow_quarantined"),
    (DenyRule::NoSyscallCallsite, "no_syscall_callsite"),
    (DenyRule::UnlistedSyscallSite, "unlisted_syscall_site"),
    (DenyRule::SysnoMismatch, "sysno_mismatch"),
    (DenyRule::ConstArgMismatch, "const_arg_mismatch"),
    (DenyRule::NoShadowCopy, "no_shadow_copy"),
    (DenyRule::ShadowValueMismatch, "shadow_value_mismatch"),
    (DenyRule::CorruptedAfterBind, "corrupted_after_bind"),
    (DenyRule::BoundConstMismatch, "bound_const_mismatch"),
    (DenyRule::BindingMissing, "binding_missing"),
    (DenyRule::PointeeUnreadable, "pointee_unreadable"),
    (DenyRule::PointeeByteCorrupted, "pointee_byte_corrupted"),
    (
        DenyRule::PointeeTailUnverifiable,
        "pointee_tail_unverifiable",
    ),
    (DenyRule::PointeeRunsOffMapping, "pointee_runs_off_mapping"),
    (DenyRule::BoundVarUnreadable, "bound_var_unreadable"),
    (DenyRule::SensitiveVarCorrupted, "sensitive_var_corrupted"),
    (DenyRule::MissingMemBinding, "missing_mem_binding"),
    (DenyRule::ParamSlotUnreadable, "param_slot_unreadable"),
    (DenyRule::ConstParamCorrupted, "const_param_corrupted"),
    (DenyRule::GlobalAddrMismatch, "global_addr_mismatch"),
    (DenyRule::GlobalPointeeCorrupted, "global_pointee_corrupted"),
    (DenyRule::StackAddrImplausible, "stack_addr_implausible"),
    (DenyRule::RegsUnreadable, "regs_unreadable"),
    (DenyRule::WatchdogDeadline, "watchdog_deadline"),
    (DenyRule::DegradedMode, "degraded_mode"),
    (DenyRule::FailClosedMode, "fail_closed_mode"),
];

impl DenyRule {
    /// Stable snake_case rule name for exports and reports.
    pub fn name(self) -> &'static str {
        RULES[self as usize].1
    }
}

/// The monitor's resilience state at deny time — lets chaos assertions
/// distinguish a deny caused by substrate trouble from a clean context
/// violation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultCtx {
    /// Substrate-access retries performed so far in the run.
    pub retries: u64,
    /// Substrate strikes accumulated (the ladder driver).
    pub strikes: u64,
    /// Watchdog overruns observed.
    pub watchdog_overruns: u64,
    /// Whether the shadow table is quarantined.
    pub shadow_quarantined: bool,
}

/// One structured deny: context, rule, the compared values, resilience
/// state and the flight-recorder run-up. It is the kill reason of the
/// process the deny killed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DenyRecord {
    /// Monitor trap sequence number (1-based; joins with the kernel
    /// fault log's `world_trap`).
    pub trap_seq: u64,
    /// Trapped syscall number (0 when registers were never readable).
    pub sysno: u32,
    /// Which context denied.
    pub context: DenyContext,
    /// The specific rule that fired.
    pub rule: DenyRule,
    /// Expected value, for rules comparing two quantities.
    pub expected: Option<u64>,
    /// Observed value, for rules comparing two quantities.
    pub observed: Option<u64>,
    /// Resilience state at deny time.
    pub fault_ctx: FaultCtx,
    /// Degradation-ladder rung at deny time ("full"/"degraded"/
    /// "fail-closed").
    pub ladder_rung: &'static str,
    /// The human-readable message (everything after the "CT: " prefix
    /// of the displayed reason).
    pub message: String,
    /// Flight-recorder dump joined at deny time: the per-trap summaries
    /// leading up to (and including, in-flight) the denied trap, oldest
    /// first. Empty only for records built before the recorder existed
    /// (tests) or denies outside a world (none today).
    pub flight: Vec<crate::flight::FlightEntry>,
}

impl DenyRecord {
    /// A deny of `rule` in `context`, as a verification stage reports it,
    /// boxed as it travels; the monitor stamps the trap fields
    /// (`trap_seq`, `sysno`, `fault_ctx`, `ladder_rung`, `flight`).
    pub fn new(context: DenyContext, rule: DenyRule, message: impl Into<String>) -> Box<Self> {
        Box::new(DenyRecord {
            trap_seq: 0,
            sysno: 0,
            context,
            rule,
            expected: None,
            observed: None,
            fault_ctx: FaultCtx::default(),
            ladder_rung: "full",
            message: message.into(),
            flight: Vec::new(),
        })
    }

    /// Attaches the expected/observed pair.
    #[must_use]
    pub fn vals(mut self: Box<Self>, expected: u64, observed: u64) -> Box<Self> {
        self.expected = Some(expected);
        self.observed = Some(observed);
        self
    }
}

/// The kill-reason text: `"<CTX>: <msg>"`.
impl std::fmt::Display for DenyRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.context.label(), self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_context_label_then_message() {
        let rec = DenyRecord {
            trap_seq: 3,
            sysno: 105,
            context: DenyContext::ArgIntegrity,
            rule: DenyRule::ShadowValueMismatch,
            expected: Some(0),
            observed: Some(0xdead),
            fault_ctx: FaultCtx::default(),
            ladder_rung: "full",
            message: "argument 1: 0xdead != shadow value 0x0".into(),
            flight: Vec::new(),
        };
        assert_eq!(
            rec.to_string(),
            "AI: argument 1: 0xdead != shadow value 0x0"
        );
    }

    #[test]
    fn labels_cover_all_contexts() {
        assert_eq!(DenyContext::CallType.label(), "CT");
        assert_eq!(DenyContext::ControlFlow.label(), "CF");
        assert_eq!(DenyContext::ArgIntegrity.label(), "AI");
        assert_eq!(DenyContext::FailClosed.label(), "FC");
    }

    #[test]
    fn rule_names_are_snake_case() {
        assert_eq!(DenyRule::StackUnreadable.name(), "stack_unreadable");
        assert_eq!(DenyRule::WatchdogDeadline.name(), "watchdog_deadline");
    }

    #[test]
    fn rules_table_lists_every_variant_in_declaration_order() {
        for (i, (rule, name)) in RULES.iter().enumerate() {
            assert_eq!(*rule as usize, i, "{name} is out of place");
            assert!(name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'));
        }
        let last = DenyRule::FailClosedMode;
        assert_eq!(last as usize + 1, RULES.len(), "a variant has no row");
    }

    #[test]
    fn record_serializes() {
        let rec = DenyRecord {
            trap_seq: 1,
            sysno: 59,
            context: DenyContext::CallType,
            rule: DenyRule::NotIndirectlyCallable,
            expected: None,
            observed: None,
            fault_ctx: FaultCtx::default(),
            ladder_rung: "full",
            message: "syscall 59 not indirectly-callable".into(),
            flight: Vec::new(),
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"trap_seq\""));
        assert!(json.contains("NotIndirectlyCallable"));
    }
}

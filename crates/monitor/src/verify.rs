//! Context verification at a trapped syscall (paper §7.2–§7.4).
//!
//! Remote state is fetched in as few charged reads as the threat model
//! allows: each frame head (saved fp + return address) in one batched
//! read, each extended-argument pointee in one bounded prefix read. CT and
//! stack-walk verdicts are memoized in the [`crate::cache::VerifyCache`];
//! the stack itself is still fetched on every trap.
//!
//! Every verification stage is bracketed by telemetry spans (DESIGN.md
//! §6e). The spans carry the monitor-time clock (`Tracee::charged`) and
//! cost nothing when tracing is disabled — they never charge virtual
//! cycles, so clean-path trap costs are bit-identical either way.

use crate::cache::ChainHasher;
use crate::Monitor;
use bastion_compiler::metadata::{ArgMeta, CallsiteKind};
use bastion_ir::CALL_SIZE;
use bastion_kernel::{Regs, Tracee};
use bastion_obs::{self as obs, DenyContext, DenyRule, Phase};
use bastion_vm::shadow::{Binding, ShadowError};
use bastion_vm::{OutOfBounds, ShadowTable};

/// A structured context violation: which context fired, rule-level
/// provenance, optional expected/observed values for comparing rules, and
/// the message the kill reason displays.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Context that detected the violation.
    pub ctx: DenyContext,
    /// The specific rule that fired.
    pub rule: DenyRule,
    /// Expected value, when the rule compares two quantities.
    pub expected: Option<u64>,
    /// Observed value, when the rule compares two quantities.
    pub observed: Option<u64>,
    /// Message body (everything after the "CT: " prefix).
    pub msg: String,
}

impl Violation {
    /// Builds a violation with no expected/observed payload.
    pub fn new(ctx: DenyContext, rule: DenyRule, msg: impl Into<String>) -> Self {
        Violation {
            ctx,
            rule,
            expected: None,
            observed: None,
            msg: msg.into(),
        }
    }

    /// Attaches the expected/observed pair.
    #[must_use]
    pub fn vals(mut self, expected: u64, observed: u64) -> Self {
        self.expected = Some(expected);
        self.observed = Some(observed);
        self
    }
}

/// The single signed-constant comparison rule. Compiler metadata carries
/// constants as `i64`; trapped registers and parameter slots are raw
/// `u64` bit patterns. Every comparison between the two goes through this
/// two's-complement widening, so `Const(-1)` matches exactly
/// `0xFFFF_FFFF_FFFF_FFFF` — and *only* that pattern: a zero-extended
/// 32-bit forgery (`0x0000_0000_FFFF_FFFF`) must not pass. Scattered
/// ad-hoc `as` casts at each comparison site are how a narrowing cast
/// (`as u32 as u64`) silently sneaks in; keep them all here.
pub(crate) fn const_to_u64(v: i64) -> u64 {
    u64::from_ne_bytes(v.to_ne_bytes())
}

// ---- Substrate resilience (fail-closed policy layer) ----
//
// Every remote access the verification paths make goes through the helpers
// below. On the clean path they are pass-through: one attempt, no extra
// charge, no bookkeeping. Only when an access fails (injected fault or a
// genuinely hostile/unlucky tracee) do retry-with-backoff, strike counting,
// and the degradation ladder engage.

/// Runs one substrate access under the configured bounded
/// retry-with-backoff policy. Exhausting the retries records a substrate
/// strike (the degradation-ladder driver) and surfaces the final error.
fn with_retries<T>(
    mon: &Monitor,
    tracee: &mut Tracee<'_>,
    mut op: impl FnMut(&mut Tracee<'_>) -> Result<T, OutOfBounds>,
) -> Result<T, OutOfBounds> {
    let pol = mon.cfg.resilience;
    let mut attempt = 0u32;
    loop {
        match op(tracee) {
            Ok(v) => {
                if attempt > 0 {
                    mon.res.borrow_mut().retry_successes += 1;
                }
                return Ok(v);
            }
            Err(e) => {
                if attempt >= pol.max_retries {
                    mon.substrate_strike();
                    return Err(e);
                }
                let seq = mon.stats.traps;
                obs::instant(Phase::Retry, seq, tracee.charged(), u64::from(attempt + 1));
                // Exponential backoff, charged as monitor-side stall time.
                obs::span_begin(Phase::Backoff, seq, tracee.charged());
                tracee.stall(pol.retry_backoff_cycles << attempt.min(8));
                obs::span_end(
                    Phase::Backoff,
                    seq,
                    tracee.charged(),
                    u64::from(attempt + 1),
                );
                obs::counter_add("monitor.retries", 1);
                attempt += 1;
                mon.res.borrow_mut().retries += 1;
            }
        }
    }
}

/// `PTRACE_GETREGS` with retries; the register snapshot is the monitor's
/// entry point into the tracee, so its loss is terminal for the trap.
pub(crate) fn getregs_resilient(mon: &Monitor, tracee: &mut Tracee<'_>) -> Result<Regs, Violation> {
    with_retries(mon, tracee, |t| t.try_getregs()).map_err(|_| {
        fc_err(
            DenyRule::RegsUnreadable,
            "tracee registers unreadable after retries; denying trap".to_string(),
        )
    })
}

/// Watchdog checkpoint: if this trap's verification has charged more
/// cycles than the configured deadline, record the overrun and (policy
/// permitting) deny the trap fail-closed. Checked at every verification
/// stage boundary so a stalled access is caught at the next checkpoint.
fn check_deadline(mon: &Monitor, tracee: &Tracee<'_>) -> Result<(), Violation> {
    let pol = mon.cfg.resilience;
    let Some(deadline) = pol.deadline_cycles else {
        return Ok(());
    };
    if tracee.charged_this_trap() <= deadline {
        return Ok(());
    }
    mon.res.borrow_mut().watchdog_overruns += 1;
    if !pol.deny_on_timeout {
        return Ok(());
    }
    mon.res.borrow_mut().watchdog_denies += 1;
    mon.substrate_strike();
    Err(fc_err(
        DenyRule::WatchdogDeadline,
        format!("trap verification exceeded its {deadline}-cycle deadline"),
    )
    .vals(deadline, tracee.charged_this_trap()))
}

/// Maps a checked-shadow-read failure to a violation; corruption
/// additionally quarantines the shadow table.
fn shadow_fail(mon: &Monitor, e: ShadowError) -> Violation {
    match e {
        ShadowError::Fault(f) => ai_err(
            DenyRule::ShadowReadFault,
            format!("shadow read failed: {f}"),
        ),
        ShadowError::Corrupt { .. } => {
            mon.quarantine_shadow();
            ai_err(
                DenyRule::ShadowCorrupt,
                format!("{e}; shadow table quarantined"),
            )
        }
    }
}

/// Integrity-checked binding lookup.
fn shadow_binding(
    mon: &Monitor,
    tracee: &Tracee<'_>,
    shadow: &ShadowTable,
    callsite: u64,
    pos: u8,
) -> Result<Option<Binding>, Violation> {
    shadow
        .get_binding_checked(&tracee.shared_shadow(), callsite, pos)
        .map_err(|e| shadow_fail(mon, e))
}

/// Integrity-checked shadow-value lookup.
fn shadow_value(
    mon: &Monitor,
    tracee: &Tracee<'_>,
    shadow: &ShadowTable,
    addr: u64,
) -> Result<Option<(u64, u8)>, Violation> {
    shadow
        .read_value_checked(&tracee.shared_shadow(), addr)
        .map_err(|e| shadow_fail(mon, e))
}

/// Table 7 row 2: fetch the same process state a full verification would
/// (top return address plus the frame chain) without checking anything.
pub(crate) fn fetch_only(
    mon: &Monitor,
    tracee: &mut Tracee<'_>,
    regs: &Regs,
) -> Result<u64, Violation> {
    let Some(stub) = mon.md.func_of(regs.rip) else {
        return Ok(0);
    };
    let stub_entry = stub.entry;
    // Walk without CF validation (walk_stack honours cfg.control_flow).
    let frames = walk_stack(mon, tracee, stub_entry, regs.fp, None)?;
    Ok(frames.len() as u64)
}

/// One unwound frame: `(function entry, callsite that created it, fp)`.
/// The callsite is `None` for the bottom (`main`) frame.
pub(crate) struct FrameRec {
    func_entry: u64,
    callsite: Option<u64>,
    fp: u64,
}

/// Verifies all enabled contexts for one trap. Returns the walk depth.
pub(crate) fn verify_trap(
    mon: &Monitor,
    tracee: &mut Tracee<'_>,
    regs: &Regs,
) -> Result<u64, Violation> {
    let md = &mon.md;
    let nr = regs.nr;
    let seq = mon.stats.traps;

    // Identify the stub the trap occurred in.
    let stub = md
        .func_of(regs.rip)
        .ok_or_else(|| ct_err(DenyRule::RipOutsideKnownCode, "trap rip outside known code"))?;
    let stub_entry = stub.entry;

    // Recover the callsite by "decoding the call instruction" before the
    // return address on the stub frame. The saved frame pointer comes
    // along in the same batched read — the stack walk needs it moments
    // later.
    obs::span_begin(Phase::FrameRead, seq, tracee.charged());
    let fetched = with_retries(mon, tracee, |t| t.read_frame(regs.fp))
        .map_err(|e| ct_err(DenyRule::StackUnreadable, &format!("stack unreadable: {e}")));
    obs::span_end(Phase::FrameRead, seq, tracee.charged(), 0);
    let frame0 = fetched?;
    mon.cache.borrow_mut().batched_frame_reads += 1;
    let callsite0 = frame0.1.wrapping_sub(CALL_SIZE);
    check_deadline(mon, tracee)?;

    // ---- Call-Type context (§7.2) ----
    if mon.cfg.call_type {
        obs::span_begin(Phase::CtCheck, seq, tracee.charged());
        let cached = mon.cache.borrow_mut().ct_lookup(nr, callsite0);
        let outcome = match cached {
            Some(verdict) => {
                obs::instant(Phase::CtCacheHit, seq, tracee.charged(), 0);
                verdict
            }
            None => {
                let verdict = check_call_type(mon, nr, callsite0);
                mon.cache
                    .borrow_mut()
                    .ct_store(nr, callsite0, verdict.clone());
                verdict
            }
        };
        obs::span_end(
            Phase::CtCheck,
            seq,
            tracee.charged(),
            u64::from(outcome.is_err()),
        );
        outcome?;
    }

    if !mon.cfg.control_flow && !mon.cfg.arg_integrity {
        // Walk-free verdict: report depth 0 so CT-only configurations do
        // not pollute the §9.2 depth statistics with phantom walks.
        return Ok(0);
    }

    // ---- Stack walk (shared by CF §7.3 and AI §7.4) ----
    obs::span_begin(Phase::CfWalk, seq, tracee.charged());
    let walked = walk_stack(mon, tracee, stub_entry, regs.fp, Some(frame0));
    obs::span_end(
        Phase::CfWalk,
        seq,
        tracee.charged(),
        walked.as_ref().map_or(0, |f| f.len() as u64),
    );
    let frames = walked?;
    check_deadline(mon, tracee)?;

    // ---- Argument Integrity context (§7.4) ----
    if mon.cfg.arg_integrity {
        obs::span_begin(Phase::AiDirect, seq, tracee.charged());
        let checked = verify_args(mon, tracee, regs, &frames);
        obs::span_end(
            Phase::AiDirect,
            seq,
            tracee.charged(),
            u64::from(checked.is_err()),
        );
        checked?;
        check_deadline(mon, tracee)?;
    }

    Ok(frames.len() as u64)
}

/// Call-Type verdict for `(nr, callsite0)` — a pure function of metadata
/// and code addresses, which is what makes it cacheable.
fn check_call_type(mon: &Monitor, nr: u32, callsite0: u64) -> Result<(), Violation> {
    let md = &mon.md;
    let Some(class) = md.syscall_classes.get(&nr).copied() else {
        return Err(ct_err(
            DenyRule::NoCallTypeEntry,
            &format!("syscall {nr} has no call-type entry"),
        ));
    };
    if !class.callable() {
        return Err(ct_err(
            DenyRule::NotCallable,
            &format!("syscall {nr} is not-callable"),
        ));
    }
    match md.callsites.get(&callsite0).map(|c| c.kind) {
        Some(CallsiteKind::Direct(_)) => {
            if !class.allows_direct() {
                return Err(ct_err(
                    DenyRule::NotDirectlyCallable,
                    &format!("syscall {nr} not directly-callable"),
                ));
            }
        }
        Some(CallsiteKind::Indirect) => {
            if !class.allows_indirect() {
                return Err(ct_err(
                    DenyRule::NotIndirectlyCallable,
                    &format!("syscall {nr} not indirectly-callable"),
                ));
            }
        }
        None => {
            return Err(ct_err(
                DenyRule::NoCallInstruction,
                &format!("no call instruction at {callsite0:#x} reaching syscall {nr}"),
            ));
        }
    }
    Ok(())
}

fn ct_err(rule: DenyRule, msg: &str) -> Violation {
    Violation::new(DenyContext::CallType, rule, msg)
}

fn fc_err(rule: DenyRule, msg: String) -> Violation {
    Violation::new(DenyContext::FailClosed, rule, msg)
}

fn cf_err(rule: DenyRule, msg: String) -> Violation {
    Violation::new(DenyContext::ControlFlow, rule, msg)
}

fn ai_err(rule: DenyRule, msg: String) -> Violation {
    Violation::new(DenyContext::ArgIntegrity, rule, msg)
}

/// How a raw chain read terminated.
enum ChainEnd {
    /// Null return address: the bottom (`main`) frame.
    Bottom,
    /// A return address not preceded by any known call instruction.
    UnknownCallsite { ret: u64 },
    /// The next frame head could not be fetched.
    Unreadable { fp: u64, err: OutOfBounds },
    /// The 128-frame unwind limit was exceeded.
    DepthLimit,
}

/// Unwinds the frame-pointer chain and validates it when the
/// Control-Flow context is enabled. The walk terminates at `main` (null
/// return address) or at the first indirect callsite, whose partial trace
/// must be permitted (paper: "verifies the partial stack trace encountered
/// matches the expected one derived at compile time").
///
/// The raw chain is fetched with one batched read per frame, then
/// validated through the walk cache. The cache holds only the chain
/// verdict, a pure function of the chain key, so it also serves AI traps:
/// `verify_args` always runs on the freshly read chain (DESIGN.md §6b).
/// `prefetched` carries the trap frame's `(saved fp, return address)` pair
/// when the caller already fetched it.
fn walk_stack(
    mon: &Monitor,
    tracee: &mut Tracee<'_>,
    stub_entry: u64,
    trap_fp: u64,
    prefetched: Option<(u64, u64)>,
) -> Result<Vec<FrameRec>, Violation> {
    let (chain, end) = read_chain(mon, tracee, stub_entry, trap_fp, prefetched);
    // The CF verdict (including its message) is determined by the callsite
    // sequence and the terminator, so that is exactly what is hashed — and
    // also kept verbatim as the full cache key the lookup confirms against
    // (the 64-bit hash alone would alias colliding chains).
    let mut chain_key: Vec<u64> = Vec::with_capacity(chain.len() + 3);
    chain_key.push(stub_entry);
    let mut h = ChainHasher::new(stub_entry);
    for f in &chain {
        if let Some(cs) = f.callsite {
            h.push(cs);
            chain_key.push(cs);
        }
    }
    let (tag, payload) = match &end {
        ChainEnd::Bottom => (0, chain.last().map_or(0, |f| f.func_entry)),
        ChainEnd::UnknownCallsite { ret } => (1, *ret),
        ChainEnd::Unreadable { fp, .. } => (2, *fp),
        ChainEnd::DepthLimit => (3, 0),
    };
    h.push(tag);
    h.push(payload);
    chain_key.push(tag);
    chain_key.push(payload);
    let key = h.finish();
    if let Some(verdict) = mon.cache.borrow_mut().walk_lookup(key, &chain_key) {
        obs::instant(Phase::WalkCacheHit, mon.stats.traps, tracee.charged(), 0);
        verdict?;
        return Ok(chain);
    }
    let verdict = validate_chain(mon, &chain, &end);
    mon.cache
        .borrow_mut()
        .walk_store(key, &chain_key, verdict.clone());
    verdict?;
    Ok(chain)
}

/// Fetches the raw frame chain with one batched read per frame, consulting
/// metadata only to know where the chain ends. Performs no verification.
fn read_chain(
    mon: &Monitor,
    tracee: &mut Tracee<'_>,
    stub_entry: u64,
    trap_fp: u64,
    mut prefetched: Option<(u64, u64)>,
) -> (Vec<FrameRec>, ChainEnd) {
    let md = &mon.md;
    let mut chain = Vec::new();
    let mut cur_entry = stub_entry;
    let mut cur_fp = trap_fp;
    for _ in 0..128 {
        let (saved, ret) = match prefetched.take() {
            Some(fr) => fr,
            None => match tracee.read_frame(cur_fp) {
                Ok(fr) => {
                    mon.cache.borrow_mut().batched_frame_reads += 1;
                    fr
                }
                Err(err) => return (chain, ChainEnd::Unreadable { fp: cur_fp, err }),
            },
        };
        if ret == 0 {
            chain.push(FrameRec {
                func_entry: cur_entry,
                callsite: None,
                fp: cur_fp,
            });
            return (chain, ChainEnd::Bottom);
        }
        let callsite = ret.wrapping_sub(CALL_SIZE);
        let Some(cs) = md.callsites.get(&callsite) else {
            chain.push(FrameRec {
                func_entry: cur_entry,
                callsite: None,
                fp: cur_fp,
            });
            return (chain, ChainEnd::UnknownCallsite { ret });
        };
        chain.push(FrameRec {
            func_entry: cur_entry,
            callsite: Some(callsite),
            fp: cur_fp,
        });
        cur_entry = cs.in_func;
        cur_fp = saved;
    }
    (chain, ChainEnd::DepthLimit)
}

/// Validates a raw chain: pairwise callee→caller checks in frame order,
/// then the terminator. A pure function of `(chain, end)` and metadata —
/// the cacheable half.
fn validate_chain(mon: &Monitor, chain: &[FrameRec], end: &ChainEnd) -> Result<(), Violation> {
    let md = &mon.md;
    let cf = mon.cfg.control_flow;
    // Pairwise callee→caller validation is *strict* until the first
    // legitimate indirect entry — the boundary of the compile-time
    // "partial stack trace" (§7.3). Past it, frames are checked for
    // structural consistency and legal indirect entries only (COOP-style
    // chains through legitimate address-taken handlers are exactly the
    // flows the paper says bypass the Control-Flow context, Table 6).
    let mut strict = true;
    for f in chain {
        // Terminal frames carry no callsite; the terminator covers them.
        let Some(callsite) = f.callsite else { continue };
        // The walker only records callsites it resolved from metadata, so
        // a miss here means the chain and the metadata disagree (e.g. a
        // cached chain outliving a rebind, or corrupted monitor state).
        // That is a verification failure, never a monitor crash.
        let Some(cs) = md.callsites.get(&callsite) else {
            return Err(cf_err(
                DenyRule::UnknownChainCallsite,
                format!("chain frame references unknown callsite {callsite:#x}"),
            ));
        };
        let kind = cs.kind;
        match kind {
            CallsiteKind::Indirect => {
                // An indirectly-entered frame is legitimate only for an
                // address-taken function inside the syscall-reaching
                // subgraph. Checking this at every such hop, not just the
                // first, is what catches the AOCR Apache hijack of
                // `ap_get_exec_line` (§10.3).
                if cf && !md.indirect_entries.contains(&f.func_entry) {
                    let name = md
                        .func_of(f.func_entry)
                        .map_or("?", |fm| fm.name.as_str())
                        .to_string();
                    return Err(cf_err(
                        DenyRule::IllegalIndirectEntry,
                        format!(
                            "`{name}` entered via indirect call but is not a permitted indirect entry"
                        ),
                    ));
                }
                strict = false;
            }
            CallsiteKind::Direct(target) => {
                if cf {
                    if target != f.func_entry {
                        return Err(cf_err(
                            DenyRule::CalleeMismatch,
                            format!(
                                "callsite {callsite:#x} calls {target:#x}, not the unwound callee {:#x}",
                                f.func_entry
                            ),
                        )
                        .vals(target, f.func_entry));
                    }
                    let valid = !strict
                        || md
                            .valid_callers
                            .get(&f.func_entry)
                            .is_some_and(|s| s.contains(&callsite));
                    if !valid {
                        return Err(cf_err(
                            DenyRule::InvalidCaller,
                            format!(
                                "callsite {callsite:#x} is not a valid caller of {:#x}",
                                f.func_entry
                            ),
                        ));
                    }
                }
            }
        }
    }
    match end {
        ChainEnd::Bottom => {
            // An empty chain with a Bottom terminator cannot happen on the
            // walker's own output, but a malformed cached chain must read
            // as a violation, not a panic inside the monitor.
            let Some(last) = chain.last() else {
                return Err(cf_err(
                    DenyRule::BottomEmptyChain,
                    "stack walk bottomed out without walking any frame".into(),
                ));
            };
            if cf && last.func_entry != md.main_entry {
                let name = md
                    .func_of(last.func_entry)
                    .map_or("?", |fm| fm.name.as_str())
                    .to_string();
                return Err(cf_err(
                    DenyRule::BottomNotMain,
                    format!("stack walk bottomed out in `{name}`, not main"),
                ));
            }
            Ok(())
        }
        ChainEnd::UnknownCallsite { ret } => {
            if cf {
                return Err(cf_err(
                    DenyRule::ReturnNotAfterCall,
                    format!("return address {ret:#x} is not preceded by a call"),
                ));
            }
            Ok(())
        }
        ChainEnd::Unreadable { fp, err } => Err(cf_err(
            DenyRule::FrameUnreadable,
            format!("frame at {fp:#x} unreadable: {err}"),
        )),
        ChainEnd::DepthLimit => Err(cf_err(
            DenyRule::DepthLimitExceeded,
            "stack walk exceeded depth limit".into(),
        )),
    }
}

/// Verifies argument integrity for the trapped syscall frame and every
/// walked frame above it.
fn verify_args(
    mon: &Monitor,
    tracee: &mut Tracee<'_>,
    regs: &Regs,
    frames: &[FrameRec],
) -> Result<(), Violation> {
    let md = &mon.md;
    let shadow = ShadowTable::new(tracee.gs_base());

    // A quarantined shadow table cannot back any argument claim: fail
    // closed rather than consult known-corrupt state.
    if mon.res.borrow().shadow_quarantined {
        return Err(ai_err(
            DenyRule::ShadowQuarantined,
            "shadow table quarantined; argument integrity unverifiable".into(),
        ));
    }

    // 1. The syscall callsite itself: trapped argument registers.
    let syscall_cs = frames.first().and_then(|f| f.callsite).ok_or_else(|| {
        ai_err(
            DenyRule::NoSyscallCallsite,
            "no callsite for trapped syscall".into(),
        )
    })?;
    let site = md.syscall_sites.get(&syscall_cs).ok_or_else(|| {
        ai_err(
            DenyRule::UnlistedSyscallSite,
            format!("sensitive syscall from unlisted site {syscall_cs:#x}"),
        )
    })?;
    if site.nr != regs.nr {
        return Err(ai_err(
            DenyRule::SysnoMismatch,
            format!(
                "callsite registered for syscall {}, trapped {}",
                site.nr, regs.nr
            ),
        )
        .vals(u64::from(site.nr), u64::from(regs.nr)));
    }
    let extended = bastion_ir::sysno::extended_positions(regs.nr);
    for (i, am) in site.args.iter().enumerate() {
        let pos = (i + 1) as u8;
        let actual = regs.args[i];
        check_arg(
            mon,
            tracee,
            &shadow,
            syscall_cs,
            pos,
            am,
            actual,
            extended.contains(&pos),
        )?;
    }

    // 2. Frames up the stack: re-validate bound sensitive variables at
    // propagation callsites (Figure 2's `flags` in `foo`). Each walked
    // frame records the call instruction that created it; prop-site
    // metadata is keyed by that same call instruction.
    for callee_f in frames {
        let Some(created_by) = callee_f.callsite else {
            continue;
        };
        let Some(specs) = md.prop_sites.get(&created_by) else {
            continue;
        };
        check_deadline(mon, tracee)?;
        for (pos, am) in specs {
            match am {
                ArgMeta::Mem => match shadow_binding(mon, tracee, &shadow, created_by, *pos)? {
                    Some(Binding::Mem(addr)) => {
                        let Some((legit, _)) = shadow_value(mon, tracee, &shadow, addr)? else {
                            return Err(ai_err(
                                DenyRule::NoShadowCopy,
                                format!("no shadow copy for bound variable {addr:#x}"),
                            ));
                        };
                        let current =
                            with_retries(mon, tracee, |t| t.read_u64(addr)).map_err(|e| {
                                ai_err(
                                    DenyRule::BoundVarUnreadable,
                                    format!("bound variable unreadable: {e}"),
                                )
                            })?;
                        if current != legit {
                            return Err(ai_err(
                                DenyRule::SensitiveVarCorrupted,
                                format!(
                                    "sensitive variable {addr:#x} corrupted: {current:#x} != shadow {legit:#x}"
                                ),
                            )
                            .vals(legit, current));
                        }
                    }
                    Some(Binding::Const(_)) | None => {
                        return Err(ai_err(
                            DenyRule::MissingMemBinding,
                            format!(
                                "missing memory binding at prop site {created_by:#x} pos {pos}"
                            ),
                        ));
                    }
                },
                ArgMeta::Const(v) => {
                    // The constant was spilled into the callee's parameter
                    // slot; verify it there using frame geometry metadata.
                    let Some(fm) = md.functions.get(&callee_f.func_entry) else {
                        continue;
                    };
                    let idx = *pos as usize - 1;
                    if idx >= fm.slot_offsets.len() {
                        continue;
                    }
                    let slot = callee_f.fp - fm.frame_size + fm.slot_offsets[idx];
                    let cur = with_retries(mon, tracee, |t| t.read_u64(slot)).map_err(|e| {
                        ai_err(
                            DenyRule::ParamSlotUnreadable,
                            format!("param slot unreadable: {e}"),
                        )
                    })?;
                    if cur != const_to_u64(*v) {
                        return Err(ai_err(
                            DenyRule::ConstParamCorrupted,
                            format!(
                                "constant argument {pos} of `{}` corrupted: {cur:#x} != {v:#x}",
                                fm.name
                            ),
                        )
                        .vals(const_to_u64(*v), cur));
                    }
                }
                ArgMeta::Global { .. } | ArgMeta::StackAddr | ArgMeta::Opaque => {}
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn check_arg(
    mon: &Monitor,
    tracee: &mut Tracee<'_>,
    shadow: &ShadowTable,
    callsite: u64,
    pos: u8,
    am: &ArgMeta,
    actual: u64,
    extended: bool,
) -> Result<(), Violation> {
    match am {
        ArgMeta::Const(v) => {
            if actual != const_to_u64(*v) {
                return Err(ai_err(
                    DenyRule::ConstArgMismatch,
                    format!("argument {pos}: {actual:#x} != expected constant {v:#x}"),
                )
                .vals(const_to_u64(*v), actual));
            }
        }
        ArgMeta::Mem => {
            let binding = shadow_binding(mon, tracee, shadow, callsite, pos)?;
            match binding {
                Some(Binding::Mem(addr)) => {
                    let Some((legit, _)) = shadow_value(mon, tracee, shadow, addr)? else {
                        return Err(ai_err(
                            DenyRule::NoShadowCopy,
                            format!("argument {pos}: no shadow copy for {addr:#x}"),
                        ));
                    };
                    if actual != legit {
                        return Err(ai_err(
                            DenyRule::ShadowValueMismatch,
                            format!("argument {pos}: {actual:#x} != shadow value {legit:#x}"),
                        )
                        .vals(legit, actual));
                    }
                    // Also verify the variable's *current* memory value —
                    // catches corruption landing between the bind and the
                    // trap (the TOCTOU window §6.3.2 cares about).
                    let current = with_retries(mon, tracee, |t| t.read_u64(addr)).map_err(|e| {
                        ai_err(
                            DenyRule::BoundVarUnreadable,
                            format!("bound variable unreadable: {e}"),
                        )
                    })?;
                    if current != legit {
                        return Err(ai_err(
                            DenyRule::CorruptedAfterBind,
                            format!(
                                "argument {pos}: variable {addr:#x} corrupted after bind ({current:#x} != {legit:#x})"
                            ),
                        )
                        .vals(legit, current));
                    }
                }
                Some(Binding::Const(c)) => {
                    if actual != const_to_u64(c) {
                        return Err(ai_err(
                            DenyRule::BoundConstMismatch,
                            format!("argument {pos}: {actual:#x} != bound constant {c:#x}"),
                        )
                        .vals(const_to_u64(c), actual));
                    }
                }
                None => {
                    return Err(ai_err(
                        DenyRule::BindingMissing,
                        format!("argument {pos}: binding missing"),
                    ));
                }
            }
            if extended {
                let seq = mon.stats.traps;
                obs::span_begin(Phase::AiExtended, seq, tracee.charged());
                let probed = verify_pointee_shadow(mon, tracee, shadow, pos, actual);
                obs::span_end(
                    Phase::AiExtended,
                    seq,
                    tracee.charged(),
                    u64::from(probed.is_err()),
                );
                probed?;
            }
        }
        ArgMeta::Global { name, expected } => {
            let Some(&sym) = mon.info.globals.get(name) else {
                return Err(ai_err(
                    DenyRule::UnknownSymbol,
                    format!("argument {pos}: unknown symbol `{name}`"),
                ));
            };
            if actual != sym {
                return Err(ai_err(
                    DenyRule::GlobalAddrMismatch,
                    format!("argument {pos}: {actual:#x} != &{name} ({sym:#x})"),
                )
                .vals(sym, actual));
            }
            if let Some(exp) = expected {
                let mut buf = vec![0u8; exp.len()];
                with_retries(mon, tracee, |t| t.read_mem(actual, &mut buf)).map_err(|e| {
                    ai_err(
                        DenyRule::PointeeUnreadable,
                        format!("argument {pos}: pointee unreadable: {e}"),
                    )
                })?;
                if &buf != exp {
                    return Err(ai_err(
                        DenyRule::GlobalPointeeCorrupted,
                        format!("argument {pos}: pointee of `{name}` corrupted"),
                    ));
                }
            }
        }
        ArgMeta::StackAddr => {
            let (lo, hi) = mon.info.stack;
            if actual != 0 && !(lo..hi).contains(&actual) {
                return Err(ai_err(
                    DenyRule::StackAddrImplausible,
                    format!("argument {pos}: {actual:#x} is not a plausible stack address"),
                ));
            }
        }
        ArgMeta::Opaque => {}
    }
    Ok(())
}

/// Extended-argument pointee verification: every pointee byte that has a
/// shadow entry must match it (bytes never legitimately written have no
/// entry and are skipped — see DESIGN.md on the missing-shadow policy).
fn verify_pointee_shadow(
    mon: &Monitor,
    tracee: &mut Tracee<'_>,
    shadow: &ShadowTable,
    pos: u8,
    ptr: u64,
) -> Result<(), Violation> {
    let mut buf = [0u8; 256];
    // One bounded prefix read of up to 256 bytes; shorter mapped prefixes
    // are fine. The buffer is scanned up to and including the first NUL.
    mon.cache.borrow_mut().batched_pointee_reads += 1;
    let mapped = with_retries(mon, tracee, |t| t.read_mem_prefix(ptr, &mut buf)).map_err(|e| {
        ai_err(
            DenyRule::PointeeUnreadable,
            format!("argument {pos}: pointee unreadable: {e}"),
        )
    })?;
    let nul = buf[..mapped].iter().position(|&b| b == 0);
    let (n, nul_found) = (nul.map_or(mapped, |z| z + 1), nul.is_some());
    for (i, &byte) in buf[..n].iter().enumerate() {
        let addr = ptr + i as u64;
        if let Some((legit, size)) = shadow_value(mon, tracee, shadow, addr)? {
            let legit_byte = (legit & 0xff) as u8;
            if size == 1 && legit_byte != byte {
                return Err(ai_err(
                    DenyRule::PointeeByteCorrupted,
                    format!(
                        "argument {pos}: pointee byte at {addr:#x} corrupted ({byte:#x} != {legit_byte:#x})"
                    ),
                )
                .vals(u64::from(legit_byte), u64::from(byte)));
            }
        }
    }
    // The scan read real bytes and then hit the end of the mapping with no
    // terminator: the pointee provably runs off its mapping (`ptr + n` is
    // the first unmapped byte). The truncated window must not pass as a
    // clean string; this is a deterministic property of the tracee's
    // memory, so it gets a deterministic deny with provenance.
    if !nul_found && n > 0 && n < buf.len() {
        return Err(ai_err(
            DenyRule::PointeeRunsOffMapping,
            format!(
                "argument {pos}: pointee at {ptr:#x} runs off its mapping at {:#x} with no terminator",
                ptr + n as u64
            ),
        )
        .vals(ptr, ptr + n as u64));
    }
    // Nothing was readable at all (`n == 0`: torn read, racing unmap, or a
    // wild pointer): bytes past the window were never compared against
    // their shadow entries. If any of them IS shadow-backed, a recorded
    // byte escaped verification — deny rather than trust the empty window.
    if !nul_found && n < buf.len() {
        for i in n..buf.len() {
            if shadow_value(mon, tracee, shadow, ptr + i as u64)?.is_some() {
                return Err(ai_err(
                    DenyRule::PointeeTailUnverifiable,
                    format!(
                        "argument {pos}: shadow-backed pointee bytes past {:#x} are unreadable",
                        ptr + n as u64
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ContextConfig, LaunchInfo, Monitor};
    use bastion_compiler::BastionCompiler;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::{sysno, Operand, Ty};
    use bastion_vm::{CostModel, Image, Machine};
    use std::sync::Arc;

    // ---- the single signed-constant comparison rule ----

    #[test]
    fn const_widening_is_twos_complement() {
        assert_eq!(const_to_u64(-1), u64::MAX);
        assert_eq!(const_to_u64(0), 0);
        assert_eq!(const_to_u64(i64::MIN), 0x8000_0000_0000_0000);
        assert_eq!(const_to_u64(0x21), 0x21);
    }

    #[test]
    fn zero_extended_forgery_does_not_match_negative_constant() {
        // The historical bug class: a narrowing cast would compare
        // Const(-1) against the low 32 bits only, letting a forged
        // 0x0000_0000_FFFF_FFFF register pass as the legitimate -1.
        assert_ne!(const_to_u64(-1), 0xFFFF_FFFFu64);
        assert_ne!(const_to_u64(-2), const_to_u64(-2) as u32 as u64);
    }

    fn fixture() -> (Arc<Image>, Monitor, Machine) {
        let mut mb = ModuleBuilder::new("fx");
        let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
        let mut f = mb.function("main", &[], Ty::I64);
        let z = Operand::Imm(0);
        let _ = f.call_direct(execve, &[z, z, z]);
        f.ret(Some(z));
        f.finish();
        let out = BastionCompiler::new().compile(mb.finish()).unwrap();
        let image = Arc::new(Image::load(out.module).unwrap());
        let info = LaunchInfo::from_image(&image, &out.metadata);
        let mon = Monitor::new(&out.metadata, ContextConfig::full(), info);
        let machine = Machine::new(image.clone(), CostModel::default());
        (image, mon, machine)
    }

    /// Satellite regression: an AI `Const(-1)` predicate accepts exactly
    /// the two's-complement widening and denies the 32-bit forgery.
    #[test]
    fn negative_constant_arg_accepts_widened_rejects_forged() {
        let (_image, mon, machine) = fixture();
        let mut charge = 0u64;
        let mut tracee = Tracee::new(&machine, 1, &mut charge);
        let shadow = ShadowTable::new(tracee.gs_base());
        let am = ArgMeta::Const(-1);
        assert!(check_arg(&mon, &mut tracee, &shadow, 0x1000, 5, &am, u64::MAX, false).is_ok());
        let err = check_arg(
            &mon,
            &mut tracee,
            &shadow,
            0x1000,
            5,
            &am,
            0xFFFF_FFFF,
            false,
        )
        .expect_err("zero-extended forgery must be denied");
        assert_eq!(err.rule, DenyRule::ConstArgMismatch);
        assert_eq!(err.expected, Some(u64::MAX));
        assert_eq!(err.observed, Some(0xFFFF_FFFF));
    }

    // ---- extended-pointee mapping-boundary probe ----

    /// A pointee that runs to the end of its mapping with no terminator is
    /// a deterministic deny with provenance.
    #[test]
    fn pointee_running_off_its_mapping_is_denied() {
        let (_image, mon, mut machine) = fixture();
        // One private page; the last 16 bytes hold 'A's and the string
        // runs straight into the unmapped page after it.
        let base = 0x6100_0000_0000u64;
        machine.mem.map_region(base, 0x1000);
        let tail = base + 0x1000 - 16;
        machine.mem.write_unchecked(tail, &[b'A'; 16]);

        let mut charge = 0u64;
        let mut tracee = Tracee::new(&machine, 1, &mut charge);
        let shadow = ShadowTable::new(tracee.gs_base());
        let err = verify_pointee_shadow(&mon, &mut tracee, &shadow, 1, tail)
            .expect_err("unterminated string at a mapping edge must be denied");
        assert_eq!(err.rule, DenyRule::PointeeRunsOffMapping);
        assert_eq!(err.expected, Some(tail));
        assert_eq!(err.observed, Some(base + 0x1000));
        assert_eq!(
            err.msg,
            format!(
                "argument 1: pointee at {tail:#x} runs off its mapping at {:#x} with no terminator",
                base + 0x1000
            )
        );
    }

    /// Control: the same placement with a NUL inside the mapping passes.
    #[test]
    fn terminated_string_at_mapping_edge_passes() {
        let (_image, mon, mut machine) = fixture();
        let base = 0x6200_0000_0000u64;
        machine.mem.map_region(base, 0x1000);
        let tail = base + 0x1000 - 16;
        let mut bytes = [b'A'; 16];
        bytes[15] = 0;
        machine.mem.write_unchecked(tail, &bytes);
        let mut charge = 0u64;
        let mut tracee = Tracee::new(&machine, 1, &mut charge);
        let shadow = ShadowTable::new(tracee.gs_base());
        assert!(verify_pointee_shadow(&mon, &mut tracee, &shadow, 1, tail).is_ok());
    }
}

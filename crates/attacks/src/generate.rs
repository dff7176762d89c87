//! Seeded adversarial MiniC program generator.
//!
//! Where [`crate::catalog`] replays the paper's 32 hand-written exploits
//! against the workload victims, this module *synthesizes* self-contained
//! attack programs: each generated source compiles under the full BASTION
//! pipeline and then attacks the monitor from the inside — computing dark
//! stub addresses arithmetically, smashing its own frame chain, or
//! corrupting shadow-bound locals through alias pointers the SensitiveOnly
//! instrumentation cannot see.
//!
//! Every program belongs to a **family** keyed by the deny-rule it is
//! engineered to trigger (`seccomp.kill`, `CT:not_indirectly_callable`,
//! `CF:return_not_after_call`, `AI:corrupted_after_bind`, ...). The
//! acceptance bar mirrors the chaos harness: a generated program must be
//! *denied* (or seccomp-killed) under full protection while its malicious
//! effect *does* land on an unprotected run — a program whose effect lands
//! under protection is a flip-to-Allow, the one outcome the corpus
//! regression must never contain.
//!
//! The generator is deterministic per seed. [`shrink`] minimizes a program
//! line-by-line while preserving its `(verdict, ground-truth)` pair, and
//! the checked-in regression corpus under `crates/attacks/corpus/` holds
//! one shrunk witness per deny-rule family (see [`corpus`]).

use crate::deploy::{Deployment, Protection};
use bastion_ir::sysno;
use bastion_kernel::{ExitReason, RunStatus, World};
use bastion_monitor::ContextConfig;

// ---- deterministic rng ----

/// xorshift64* — the same tiny generator the chaos fault injector uses;
/// good enough for parameter jitter and filler synthesis.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator (zero is remapped to a fixed odd constant).
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit draw.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

// ---- program families ----

/// One synthesized attack program.
#[derive(Debug, Clone)]
pub struct AttackProgram {
    /// Family label, e.g. `"cf-ret-junk"`.
    pub family: &'static str,
    /// The deny outcome the family is engineered to trigger
    /// (`"seccomp"`, or a `"CT:"`/`"CF:"`/`"AI:"` reason fragment).
    pub expect: &'static str,
    /// The seed the parameters were drawn from.
    pub seed: u64,
    /// MiniC source text.
    pub source: String,
}

/// A family descriptor: a name, the expected defense, and a seeded
/// source builder.
pub struct Family {
    /// Family label (also the corpus file stem).
    pub name: &'static str,
    /// Expected defense fragment (matched against [`Verdict::key`]).
    pub expect: &'static str,
    build: fn(&mut Rng) -> String,
}

impl std::fmt::Debug for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Family")
            .field("name", &self.name)
            .field("expect", &self.expect)
            .finish_non_exhaustive()
    }
}

/// The `(&i)[i]` introspection helper every frame-chain family links in:
/// `probe(1)` is the caller's frame pointer, `probe(2)` the return
/// address into the caller. MiniC spills parameters to the frame, so the
/// parameter's address anchors the frame geometry exactly.
const PROBE: &str = "long probe(long i) {\n    return (&i)[i];\n}\n";

/// Benign filler: arithmetic noise the shrinker is expected to delete.
fn filler(rng: &mut Rng, lines: &mut Vec<String>) {
    for _ in 0..rng.below(4) {
        let v = rng.below(900) + 17;
        match rng.below(3) {
            0 => lines.push(format!("    acc = acc + {v};")),
            1 => lines.push(format!("    acc = acc * 3 + {v};")),
            _ => lines.push(format!("    acc = acc - {v};")),
        }
    }
}

fn prelude(rng: &mut Rng) -> Vec<String> {
    let mut l = vec![
        "long main() {".to_string(),
        "    long acc;".to_string(),
        "    acc = 1;".to_string(),
    ];
    filler(rng, &mut l);
    l
}

/// Dark-stub dial: every syscall stub is laid out consecutively in
/// `sysno::ALL` order, so the address of a *never-referenced* stub is
/// computable from referenced neighbours: stubs of equal arity have equal
/// size, and `kill - wait4` / `nanosleep - dup` are the 4-argument and
/// 1-argument stub pitches. The target stub stays out of the call graph
/// entirely — not-callable — so the synthesized call dies in seccomp.
fn darkstub(rng: &mut Rng) -> String {
    // ptrace(4 args) is immediately followed by setuid, setgid, setreuid
    // (all 1 arg) in ALL order.
    let hops = rng.below(3); // 0 → setuid, 1 → setgid, 2 → setreuid
    let mut l = prelude(rng);
    l.push("    fnptr base;".to_string());
    l.push("    long pitch4;".to_string());
    l.push("    long pitch1;".to_string());
    l.push("    fnptr target;".to_string());
    l.push("    base = ptrace;".to_string());
    l.push("    pitch4 = kill - wait4;".to_string());
    l.push("    pitch1 = nanosleep - dup;".to_string());
    filler(rng, &mut l);
    l.push(format!("    target = base + pitch4 + {hops} * pitch1;"));
    l.push("    acc = target(0);".to_string());
    l.push("    return acc;".to_string());
    l.push("}".to_string());
    l.join("\n")
}

/// A dead, never-taken direct call classifies `execve` direct-only; the
/// live path reaches the stub through a *computed* address (the stub was
/// never address-taken, so indirect entry is illegal): CT
/// `not_indirectly_callable`.
fn ct_indirect(rng: &mut Rng) -> String {
    let mut l = vec!["long never_taken;".to_string()];
    l.extend(prelude(rng));
    l.push("    fnptr e;".to_string());
    l.push("    long fd;".to_string());
    l.push("    fd = open(\"/tmp/payload\", 0x42, 420);".to_string());
    l.push("    close(fd);".to_string());
    l.push("    acc = chmod(\"/tmp/payload\", 493);".to_string());
    l.push("    if (never_taken) { acc = execve(\"/tmp/payload\", 0, 0); }".to_string());
    filler(rng, &mut l);
    // vfork(0 args) is immediately followed by execve; getuid → ptrace is
    // the 0-argument stub pitch.
    l.push("    e = vfork + (ptrace - getuid);".to_string());
    l.push("    acc = e(\"/tmp/payload\", 0, 0);".to_string());
    l.push("    return acc;".to_string());
    l.push("}".to_string());
    l.join("\n")
}

/// Shared scaffolding for the frame-smash families: `smash` receives the
/// attacker function's own frame pointer as `q` (so `q[0]` is the saved
/// fp slot and `q[1]` the return-address slot) and corrupts it before the
/// sensitive call fires the stack walk.
fn cf_smash(rng: &mut Rng, extra_globals: &str, setup: &[String], smash: &[String]) -> String {
    let mut l = vec![extra_globals.to_string(), PROBE.to_string()];
    l.push("long attack(long mode) {".to_string());
    l.push("    long *q;".to_string());
    l.push("    long r;".to_string());
    l.push("    q = probe(1);".to_string());
    for s in smash {
        l.push(format!("    {s}"));
    }
    l.push("    r = chmod(\"/tmp/victim\", mode);".to_string());
    l.push("    return r;".to_string());
    l.push("}".to_string());
    l.extend(prelude(rng));
    l.push("    long fd;".to_string());
    l.push("    fd = open(\"/tmp/victim\", 0x42, 420);".to_string());
    l.push("    close(fd);".to_string());
    for s in setup {
        l.push(format!("    {s}"));
    }
    filler(rng, &mut l);
    l.push("    acc = attack(511);".to_string());
    l.push("    return acc;".to_string());
    l.push("}".to_string());
    l.join("\n")
}

/// Return address replaced by a non-callsite constant: CF
/// `return_not_after_call`.
fn cf_ret_junk(rng: &mut Rng) -> String {
    let junk = 0x5_0000 + rng.below(0x4000) * 8;
    cf_smash(rng, "", &[], &[format!("q[1] = {junk:#x};")])
}

/// Return address nulled: the walk bottoms out in `attack`, not `main`:
/// CF `bottom_not_main`.
fn cf_ret_null(rng: &mut Rng) -> String {
    cf_smash(rng, "", &[], &["q[1] = 0;".to_string()])
}

/// Saved frame pointer redirected to unmapped memory: the next frame
/// head is unreadable: CF `frame_unreadable`.
fn cf_fp_unmapped(rng: &mut Rng) -> String {
    let wild = 0x7f00_0000_0000u64 + rng.below(0x1000) * 0x1000;
    cf_smash(rng, "", &[], &[format!("q[0] = {wild:#x};")])
}

/// Return address replayed from a *different* direct callsite (the call
/// to `probe`): the callsite's target disagrees with the unwound callee:
/// CF `callee_mismatch`.
fn cf_callee_mismatch(rng: &mut Rng) -> String {
    cf_smash(rng, "", &[], &["q[1] = probe(2);".to_string()])
}

/// Return address replayed from an indirect callsite while `attack` was
/// never address-taken: CF `illegal_indirect_entry`. `grab` records its
/// own return address (which lands just after main's indirect call).
fn cf_indirect_entry(rng: &mut Rng) -> String {
    let globals = "long ind_ret;\nlong grab(long a) {\n    long *w;\n    w = probe(1);\n    ind_ret = w[1];\n    return a;\n}\n";
    cf_smash(
        rng,
        globals,
        &[
            "fnptr g;".to_string(),
            "g = grab;".to_string(),
            "acc = g(acc);".to_string(),
        ],
        &["q[1] = ind_ret;".to_string()],
    )
}

/// Honest recursion deeper than the monitor's 128-frame unwind budget —
/// walk exhaustion instead of corruption: CF `depth_limit_exceeded`.
fn cf_depth_limit(rng: &mut Rng) -> String {
    let depth = 132 + rng.below(48);
    let mut l = vec![
        "long dive(long n) {".to_string(),
        "    if (n <= 0) { return chmod(\"/tmp/victim\", 511); }".to_string(),
        "    return dive(n - 1);".to_string(),
        "}".to_string(),
    ];
    l.extend(prelude(rng));
    l.push("    long fd;".to_string());
    l.push("    fd = open(\"/tmp/victim\", 0x42, 420);".to_string());
    l.push("    close(fd);".to_string());
    filler(rng, &mut l);
    l.push(format!("    acc = dive({depth});"));
    l.push("    return acc;".to_string());
    l.push("}".to_string());
    l.join("\n")
}

/// The shadow-bound `mode` local is corrupted through an alias pointer
/// derived from the *neighbouring* slot (no `&mode` anywhere, so the
/// binding survives and the deref store is invisible to SensitiveOnly
/// instrumentation): the trapped register disagrees with the shadow: AI
/// `shadow_value_mismatch`.
fn ai_stale_mode(rng: &mut Rng) -> String {
    let mut l = prelude(rng);
    l.push("    long fd;".to_string());
    l.push("    long decoy;".to_string());
    l.push("    long mode;".to_string());
    l.push("    long *p;".to_string());
    l.push("    fd = open(\"/tmp/victim\", 0x42, 420);".to_string());
    l.push("    close(fd);".to_string());
    l.push("    decoy = 7;".to_string());
    l.push("    mode = 448;".to_string());
    filler(rng, &mut l);
    l.push("    p = &decoy;".to_string());
    l.push("    p[1] = 511;".to_string());
    l.push("    acc = chmod(\"/tmp/victim\", mode);".to_string());
    l.push("    return acc;".to_string());
    l.push("}".to_string());
    l.join("\n")
}

/// The corruption lands *after* the argument register is loaded but
/// before the trap: the register still matches the shadow, the variable's
/// memory does not — the §6.3.2 TOCTOU window: AI `corrupted_after_bind`.
fn ai_toctou(rng: &mut Rng) -> String {
    let big = 0x40000 + rng.below(16) * 0x1000;
    let mut l = vec![
        "long poison(long *d, long v) {".to_string(),
        "    d[1] = v;".to_string(),
        "    return 5;".to_string(),
        "}".to_string(),
    ];
    l.extend(prelude(rng));
    l.push("    long arena;".to_string());
    l.push("    long decoy;".to_string());
    l.push("    long len;".to_string());
    l.push("    arena = mmap(0, 4096, 3, 0x22, 0 - 1, 0);".to_string());
    l.push("    decoy = 0;".to_string());
    l.push("    len = 4096;".to_string());
    filler(rng, &mut l);
    // Argument order: `len` is loaded before `poison` rewrites its slot.
    l.push(format!(
        "    acc = mprotect(arena, len, poison(&decoy, {big:#x}));"
    ));
    l.push("    acc = mprotect(arena, len, 7);".to_string());
    l.push("    return acc;".to_string());
    l.push("}".to_string());
    l.join("\n")
}

/// Figure-2 shape: `main` binds the sensitive `prot` and passes it down;
/// the callee corrupts the *caller's* bound slot through an alias before
/// trapping, so the up-stack propagation-site check sees memory disagree
/// with the shadow: AI `sensitive_var_corrupted`.
fn ai_propsite(rng: &mut Rng) -> String {
    let mut l = vec![
        "long do_mp(long a, long l, long p, long *alias) {".to_string(),
        "    alias[1] = 7;".to_string(),
        "    return mprotect(a, l, p);".to_string(),
        "}".to_string(),
    ];
    l.extend(prelude(rng));
    l.push("    long arena;".to_string());
    l.push("    long decoy;".to_string());
    l.push("    long prot;".to_string());
    l.push("    arena = mmap(0, 4096, 3, 0x22, 0 - 1, 0);".to_string());
    l.push("    decoy = 0;".to_string());
    l.push("    prot = 5;".to_string());
    filler(rng, &mut l);
    l.push("    acc = do_mp(arena, 4096, prot, &decoy);".to_string());
    l.push("    acc = mprotect(arena, 4096, prot);".to_string());
    l.push("    return acc;".to_string());
    l.push("}".to_string());
    l.join("\n")
}

/// All generator families, in corpus order.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "seccomp-darkstub",
        expect: "seccomp",
        build: darkstub,
    },
    Family {
        name: "ct-indirect-execve",
        expect: "CT:not_indirectly_callable",
        build: ct_indirect,
    },
    Family {
        name: "cf-ret-junk",
        expect: "CF:return_not_after_call",
        build: cf_ret_junk,
    },
    Family {
        name: "cf-ret-null",
        expect: "CF:bottom_not_main",
        build: cf_ret_null,
    },
    Family {
        name: "cf-fp-unmapped",
        expect: "CF:frame_unreadable",
        build: cf_fp_unmapped,
    },
    Family {
        name: "cf-callee-mismatch",
        expect: "CF:callee_mismatch",
        build: cf_callee_mismatch,
    },
    Family {
        name: "cf-indirect-entry",
        expect: "CF:illegal_indirect_entry",
        build: cf_indirect_entry,
    },
    Family {
        name: "cf-depth-limit",
        expect: "CF:depth_limit_exceeded",
        build: cf_depth_limit,
    },
    Family {
        name: "ai-stale-mode",
        expect: "AI:shadow_value_mismatch",
        build: ai_stale_mode,
    },
    Family {
        name: "ai-toctou-len",
        expect: "AI:corrupted_after_bind",
        build: ai_toctou,
    },
    Family {
        name: "ai-propsite",
        expect: "AI:sensitive_var_corrupted",
        build: ai_propsite,
    },
];

/// The seeded generator: deterministically emits attack programs across
/// the family table.
#[derive(Debug)]
pub struct Generator {
    rng: Rng,
    next_family: usize,
}

impl Generator {
    /// A generator whose whole output is a pure function of `seed`.
    pub fn new(seed: u64) -> Generator {
        Generator {
            rng: Rng::new(seed),
            next_family: 0,
        }
    }

    /// Generates one program from an explicit family.
    pub fn program(&mut self, family: &Family) -> AttackProgram {
        let seed = self.rng.0;
        AttackProgram {
            family: family.name,
            expect: family.expect,
            seed,
            source: (family.build)(&mut self.rng),
        }
    }

    /// Generates `n` programs round-robin across all families.
    pub fn batch(&mut self, n: usize) -> Vec<AttackProgram> {
        (0..n)
            .map(|_| {
                let fam = &FAMILIES[self.next_family % FAMILIES.len()];
                self.next_family += 1;
                self.program(fam)
            })
            .collect()
    }
}

// ---- execution + classification ----

/// How a generated program's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every process exited cleanly and no defense fired.
    Benign,
    /// The cycle budget ran out before the run ended; no defense fired.
    Budget,
    /// The world went idle: every live process waits for input that never
    /// comes, and no defense fired.
    Idle,
    /// seccomp killed the process (dark syscall, not-callable).
    Seccomp {
        /// The killed syscall number.
        nr: u32,
    },
    /// The monitor denied a trap; `rule` is the structured deny-rule name
    /// (e.g. `"CF:return_not_after_call"`).
    Denied {
        /// `"<ctx>:<rule_name>"` from the kill reason's deny record.
        rule: String,
    },
    /// The program crashed on a hardware fault before any defense fired.
    Crashed(String),
    /// It failed to compile (generator bug, not an attack outcome).
    Rejected(String),
}

impl Verdict {
    /// Classifies a run from its decisive exit ([`World::decisive_exit`])
    /// and, when no process was killed, from how [`World::run`] stopped.
    pub fn of(world: &World, status: RunStatus) -> Verdict {
        match world.decisive_exit() {
            Some(ExitReason::SeccompKill { nr }) => Verdict::Seccomp { nr: *nr },
            Some(ExitReason::MonitorKill { reason, .. }) => Verdict::Denied {
                rule: format!("{}:{}", reason.context.label(), reason.rule.name()),
            },
            Some(ExitReason::Fault(f)) => Verdict::Crashed(f.to_string()),
            Some(ExitReason::Exited(_)) | None => match status {
                RunStatus::AllExited => Verdict::Benign,
                RunStatus::Budget => Verdict::Budget,
                RunStatus::Idle => Verdict::Idle,
            },
        }
    }

    /// Canonical comparison key: `"seccomp"`, `"CT:rule"`, `"benign"`,
    /// `"budget"`, `"idle"`, ...
    pub fn key(&self) -> String {
        match self {
            Verdict::Benign => "benign".into(),
            Verdict::Budget => "budget".into(),
            Verdict::Idle => "idle".into(),
            Verdict::Seccomp { .. } => "seccomp".into(),
            Verdict::Denied { rule } => rule.clone(),
            Verdict::Crashed(_) => "crash".into(),
            Verdict::Rejected(_) => "rejected".into(),
        }
    }

    /// Whether a defense (seccomp or monitor) stopped the program.
    pub fn stopped(&self) -> bool {
        matches!(self, Verdict::Seccomp { .. } | Verdict::Denied { .. })
    }
}

/// Outcome of one generated-program run.
#[derive(Debug, Clone)]
pub struct GenReport {
    /// Defense classification.
    pub verdict: Verdict,
    /// Whether the program's malicious effect landed in the kernel.
    pub effect: bool,
}

impl GenReport {
    /// The one unacceptable outcome: the malicious effect landed while
    /// the run was classified benign (protection flipped to Allow).
    pub fn flipped_to_allow(&self) -> bool {
        self.effect && !self.verdict.stopped()
    }
}

/// The generic malicious-effect predicate shared by all families: a
/// privilege-escalation syscall ran, an `execve` landed, a world-writable
/// chmod landed, or writable+executable memory appeared.
fn effect(world: &World) -> bool {
    let k = &world.kernel;
    k.count_of(sysno::SETUID) > 0
        || k.count_of(sysno::SETGID) > 0
        || k.count_of(sysno::SETREUID) > 0
        || !k.exec_log.is_empty()
        || k.chmod_log.iter().any(|(_, m)| *m == 511)
        || k.mprotect_log
            .iter()
            .any(|(_, _, _, prot)| prot & 0b110 == 0b110)
        || world.procs.iter().any(|p| p.has_wx_mapping())
}

/// Cycle budget of one generated-program run.
const BUDGET: u64 = 2_000_000_000;

/// First slice of a ground-truth run; each later slice doubles.
const FIRST_SLICE: u64 = 1_000_000;

/// Compiles and runs one MiniC source, protected (`Some(cfg)`) or as the
/// unprotected ground-truth run (`None`), and classifies the outcome.
///
/// A protected run is one [`Deployment::boot`] of `BUDGET` cycles. The
/// ground-truth run asks only whether the effect lands, so it runs in
/// doubling slices and stops at the first slice boundary where `effect`
/// holds; its verdict then reads [`Verdict::Budget`], since the run was
/// cut before it ended. `BUDGET` stays the bound for a run whose effect
/// never lands.
pub fn run_source(source: &str, cfg: Option<ContextConfig>) -> GenReport {
    let d = match Deployment::from_minic("generated", &[source]) {
        Ok(d) => d,
        Err(e) => {
            return GenReport {
                verdict: Verdict::Rejected(e.to_string()),
                effect: false,
            }
        }
    };
    let mut world = d.world();
    let protection = Protection {
        monitor: cfg,
        ..Protection::vanilla()
    };
    let status = if cfg.is_some() {
        d.boot(&mut world, &protection, BUDGET).1
    } else {
        d.launch(&mut world, &protection);
        let (mut spent, mut slice) = (0, FIRST_SLICE);
        loop {
            let start = world.now();
            let status = world.run(slice.min(BUDGET - spent));
            spent += world.now() - start;
            if status != RunStatus::Budget || spent >= BUDGET || effect(&world) {
                break status;
            }
            slice *= 2;
        }
    };
    GenReport {
        verdict: Verdict::of(&world, status),
        effect: effect(&world),
    }
}

/// Runs a program under full BASTION protection.
pub fn run_protected(source: &str) -> GenReport {
    run_source(source, Some(ContextConfig::full()))
}

/// Ground-truth run: no seccomp, no monitor. A real attack program must
/// land its effect here.
pub fn ground_truth(source: &str) -> GenReport {
    run_source(source, None)
}

// ---- shrinking ----

/// Greedy line-based shrinking: repeatedly try deleting each line (bottom
/// up, skipping braces) and keep any deletion that preserves both the
/// protected verdict key and the unprotected ground truth. Deterministic;
/// terminates at a 1-minimal program for this deletion grammar.
pub fn shrink(program: &AttackProgram) -> AttackProgram {
    let baseline = run_protected(&program.source).verdict.key();
    let truth = ground_truth(&program.source).effect;
    let mut lines: Vec<String> = program.source.lines().map(str::to_string).collect();
    loop {
        let mut changed = false;
        let mut i = lines.len();
        while i > 0 {
            i -= 1;
            let t = lines[i].trim();
            if t.is_empty() || t == "{" || t == "}" || t.ends_with('{') {
                continue;
            }
            let mut candidate = lines.clone();
            candidate.remove(i);
            let src = candidate.join("\n");
            let rep = run_protected(&src);
            if rep.verdict.key() == baseline && ground_truth(&src).effect == truth {
                lines = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    AttackProgram {
        source: lines.join("\n"),
        ..program.clone()
    }
}

// ---- regression corpus ----

/// The checked-in regression corpus: one shrunk witness per deny-rule
/// family, `(family-name, expected-defense, source)`. Regenerate with the
/// ignored `regenerate_corpus` test in this module.
pub fn corpus() -> Vec<(&'static str, &'static str, &'static str)> {
    macro_rules! entry {
        ($fam:literal) => {
            (
                $fam,
                FAMILIES
                    .iter()
                    .find(|f| f.name == $fam)
                    .expect("corpus family exists")
                    .expect,
                include_str!(concat!("../corpus/", $fam, ".mc")),
            )
        };
    }
    vec![
        entry!("seccomp-darkstub"),
        entry!("ct-indirect-execve"),
        entry!("cf-ret-junk"),
        entry!("cf-ret-null"),
        entry!("cf-fp-unmapped"),
        entry!("cf-callee-mismatch"),
        entry!("cf-indirect-entry"),
        entry!("cf-depth-limit"),
        entry!("ai-stale-mode"),
        entry!("ai-toctou-len"),
        entry!("ai-propsite"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = Generator::new(42).batch(FAMILIES.len());
        let b = Generator::new(42).batch(FAMILIES.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.family, y.family);
        }
    }

    #[test]
    fn every_family_is_stopped_and_really_attacks() {
        let mut g = Generator::new(7);
        for prog in g.batch(FAMILIES.len()) {
            let protected = run_protected(&prog.source);
            assert!(
                protected.verdict.stopped(),
                "{} not stopped: {:?}",
                prog.family,
                protected.verdict
            );
            assert!(
                !protected.flipped_to_allow(),
                "{} flipped to Allow",
                prog.family
            );
            assert_eq!(
                protected.verdict.key(),
                prog.expect,
                "{} fired the wrong rule",
                prog.family
            );
            let truth = ground_truth(&prog.source);
            assert!(truth.effect, "{} has no unprotected effect", prog.family);
        }
    }

    #[test]
    fn a_clean_exit_is_benign() {
        let rep = run_protected("long main() { return 0; }");
        assert_eq!(rep.verdict, Verdict::Benign);
        assert!(!rep.effect);
    }

    #[test]
    fn a_benign_loop_reads_as_unfinished_not_benign() {
        // A short budget stands in for `BUDGET`: the classification is
        // the same `Verdict::of` every run goes through.
        let src = "long main() { long i; i = 0; while (1) { i = i + 1; } return i; }";
        let d = Deployment::from_minic("loop", &[src]).expect("compiles");
        let mut world = d.world();
        let (_, status) = d.boot(&mut world, &Protection::full(), 1_000_000);
        let verdict = Verdict::of(&world, status);
        assert_eq!(verdict, Verdict::Budget);
        assert_eq!(verdict.key(), "budget");
        assert!(!verdict.stopped());
    }

    #[test]
    fn front_end_failure_is_rejected_not_allowed() {
        let src = "long main() { return nope(); }";
        for rep in [run_protected(src), ground_truth(src)] {
            assert!(
                matches!(&rep.verdict, Verdict::Rejected(msg) if msg.contains("nope")),
                "{:?}",
                rep.verdict
            );
            assert_eq!(rep.verdict.key(), "rejected");
            assert!(!rep.effect);
            assert!(!rep.flipped_to_allow());
        }
    }

    /// Regenerates `crates/attacks/corpus/*.mc`. Run manually:
    /// `cargo test -p bastion-attacks regenerate_corpus -- --ignored`
    #[test]
    #[ignore = "writes the checked-in corpus files"]
    fn regenerate_corpus() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
        std::fs::create_dir_all(dir).unwrap();
        let mut g = Generator::new(0x0BA5_710E);
        for fam in FAMILIES {
            let prog = shrink(&g.program(fam));
            let header = format!(
                "// family: {} | expect: {} | seed: {:#x}\n// generated by bastion-attacks::generate, shrunk; do not hand-edit\n",
                prog.family, prog.expect, prog.seed
            );
            std::fs::write(
                format!("{dir}/{}.mc", fam.name),
                format!("{header}{}\n", prog.source),
            )
            .unwrap();
        }
    }
}

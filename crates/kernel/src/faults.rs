//! Deterministic, seeded fault injection for the monitor's substrate.
//!
//! BASTION's security argument assumes the monitor's view of the tracee —
//! `PTRACE_GETREGS` snapshots, `process_vm_readv` frame/pointee reads, the
//! shared shadow mapping — is always intact. This module makes that
//! assumption *testable*: a [`FaultSchedule`] describes, deterministically,
//! which substrate accesses misbehave and how, and a [`FaultInjector`]
//! installed on a [`crate::World`] replays the schedule against every
//! monitor access. Because worlds are fully deterministic (same module +
//! same workload ⇒ same trap sequence), a schedule pinned by `(seed,
//! triggers)` reproduces the exact same fault pattern on every run — chaos
//! tests are ordinary regression tests.
//!
//! Fault classes (tentpole list from the robustness issue):
//!
//! * [`FaultKind::ReadError`] — the access fails outright (transient if
//!   triggered once, permanent if triggered from an index onward);
//! * [`FaultKind::TornRead`] — a partial remote read: only a prefix of the
//!   requested bytes is transferred (`process_vm_readv` short-read);
//! * [`FaultKind::FrameCorrupt`] — the saved frame pointer fetched by
//!   [`crate::Tracee::read_frame`] is bit-flipped mid-walk;
//! * [`FaultKind::ShadowBitFlip`] — a bit flips in the shared shadow
//!   mapping as the monitor reads it;
//! * [`FaultKind::Stall`] — the access takes far longer than modeled
//!   (scheduling delay / contention), charged as extra virtual cycles.
//! * [`FaultKind::AppStateFlip`] — the dual family: a bit flips in the
//!   *application's* state (a frame register, a stack word, a shadow-bound
//!   local) at trap entry, before the monitor looks at anything. SFP-style:
//!   the app is the faulty component and the monitor must either observe a
//!   benign run or deny/escalate — never approve corrupted state.

/// Which substrate access a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// `PTRACE_GETREGS` register snapshot.
    GetRegs,
    /// Plain `process_vm_readv` ([`crate::Tracee::read_mem`] / `read_u64`).
    ReadMem,
    /// Batched 16-byte frame-head fetch ([`crate::Tracee::read_frame`]).
    ReadFrame,
    /// Bounded prefix read ([`crate::Tracee::read_mem_prefix`]).
    ReadPrefix,
    /// A load from the shared shadow mapping.
    Shadow,
    /// Not a substrate access at all: a trap-entry mutation of the app's
    /// own registers/stack/shadow-bound locals (see
    /// [`FaultKind::AppStateFlip`]).
    AppState,
}

impl AccessClass {
    /// Stable snake_case name for fault-log exports and join summaries.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::GetRegs => "getregs",
            AccessClass::ReadMem => "read_mem",
            AccessClass::ReadFrame => "read_frame",
            AccessClass::ReadPrefix => "read_prefix",
            AccessClass::Shadow => "shadow",
            AccessClass::AppState => "app_state",
        }
    }
}

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The access fails (as if the remote mapping vanished / ptrace
    /// returned `ESRCH`).
    ReadError,
    /// Only a prefix of the requested bytes is transferred; the fraction
    /// kept is drawn from the schedule's seeded stream.
    TornRead,
    /// The saved frame pointer in a frame-head fetch is corrupted
    /// (seeded XOR), derailing the stack walk mid-chain.
    FrameCorrupt,
    /// One seeded bit of the bytes read from the shadow mapping flips.
    ShadowBitFlip,
    /// The access stalls for `cycles` extra virtual cycles before
    /// completing normally (drives verification past a trap deadline).
    Stall {
        /// Extra virtual cycles charged to the trap.
        cycles: u64,
    },
    /// One seeded bit flips in the *app's* state at trap entry: a live
    /// frame register, a word of the current stack frame, or a word of the
    /// shadow region. Fires through [`FaultInjector::app_state_flips`]
    /// (trap-scoped triggers only), never through the per-access path, so
    /// adding an app-state rule leaves every substrate access index
    /// untouched.
    AppStateFlip,
    /// A seeded mix: each firing picks one of the above kinds applicable
    /// to the access class from the schedule's random stream.
    Mix,
}

impl FaultKind {
    /// Whether this kind can apply to `class` at all. Shadow reads are
    /// local loads from a shared mapping — they cannot fail or stall, only
    /// return corrupted bytes; frame corruption only makes sense on the
    /// frame-head fetch.
    fn applies(self, class: AccessClass) -> bool {
        match self {
            FaultKind::ReadError | FaultKind::Stall { .. } => class != AccessClass::Shadow,
            FaultKind::TornRead => matches!(
                class,
                AccessClass::ReadMem | AccessClass::ReadFrame | AccessClass::ReadPrefix
            ),
            FaultKind::FrameCorrupt => class == AccessClass::ReadFrame,
            FaultKind::ShadowBitFlip => class == AccessClass::Shadow,
            // App-state flips are trap-entry events, not substrate-access
            // mutations; they never match on the per-access path.
            FaultKind::AppStateFlip => false,
            FaultKind::Mix => class != AccessClass::AppState,
        }
    }
}

/// When a fault fires. Access indices count every substrate access the
/// injector sees (1-based); trap indices count monitor traps (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Exactly the `n`-th matching access (a transient fault).
    OnAccess(u64),
    /// Every matching access from the `n`-th onward (a permanent fault).
    FromAccess(u64),
    /// Every `n`-th matching access (`phase` offsets the comb).
    EveryNth {
        /// Period (must be ≥ 1).
        n: u64,
        /// Offset of the first firing access.
        phase: u64,
    },
    /// Every access within the `n`-th monitor trap.
    OnTrap(u64),
    /// Every access within traps `from..=to`.
    TrapRange {
        /// First trap index (1-based, inclusive).
        from: u64,
        /// Last trap index (inclusive).
        to: u64,
    },
}

impl Trigger {
    fn matches(self, access: u64, trap: u64) -> bool {
        match self {
            Trigger::OnAccess(n) => access == n,
            Trigger::FromAccess(n) => access >= n,
            Trigger::EveryNth { n, phase } => {
                n > 0 && access >= phase && (access - phase).is_multiple_of(n)
            }
            Trigger::OnTrap(n) => trap == n,
            Trigger::TrapRange { from, to } => trap >= from && trap <= to,
        }
    }

    /// Whether this trigger could have matched anything an injector saw
    /// over `accesses` substrate accesses (indices `1..=accesses`) and
    /// `traps` traps (indices `0..=traps`). Conservative: an access
    /// trigger ignores the access class and a trap trigger ignores
    /// whether its trap made any access, so `false` proves it never fired.
    fn could_have_matched(self, accesses: u64, traps: u64) -> bool {
        match self {
            Trigger::OnAccess(n) => n >= 1 && n <= accesses,
            Trigger::FromAccess(n) => accesses >= n.max(1),
            // The first matching access index is `phase`, or `n` when the
            // comb starts at the never-seen index 0.
            Trigger::EveryNth { n, phase } => {
                n > 0 && (if phase == 0 { n } else { phase }) <= accesses
            }
            Trigger::OnTrap(n) => n <= traps,
            Trigger::TrapRange { from, to } => from <= to && from <= traps,
        }
    }
}

/// One fault rule: a kind plus the trigger that fires it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: Trigger,
}

/// A deterministic fault schedule: an ordered rule list plus the seed for
/// every random draw (torn-read lengths, corruption patterns, mix picks).
/// The first matching rule per access wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Rules, checked in order.
    pub specs: Vec<FaultSpec>,
    /// Seed for the schedule's SplitMix64 stream.
    pub seed: u64,
}

impl FaultSchedule {
    /// An empty schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            specs: Vec::new(),
            seed,
        }
    }

    /// Appends a rule (builder style).
    #[must_use]
    pub fn with(mut self, kind: FaultKind, trigger: Trigger) -> Self {
        self.specs.push(FaultSpec { kind, trigger });
        self
    }

    /// A sparse chaos mix: one seeded fault every `period` substrate
    /// accesses, kind drawn per firing. The workhorse schedule of the
    /// chaos suite.
    pub fn chaos(seed: u64, period: u64) -> Self {
        FaultSchedule::new(seed).with(
            FaultKind::Mix,
            Trigger::EveryNth {
                n: period.max(1),
                phase: 1,
            },
        )
    }
}

/// A fault that actually fired (for post-run assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Global access index (1-based) at which it fired.
    pub access: u64,
    /// Trap index since the schedule was installed (1-based; 0 = outside
    /// any trap). Trap-targeted triggers match on this counter.
    pub trap: u64,
    /// World-level trap sequence number at fire time (0 = outside any
    /// trap). Joins with the monitor's `DenyRecord::trap_seq`, which counts
    /// the same sequence.
    pub world_trap: u64,
    /// The access class it hit.
    pub class: AccessClass,
    /// The resolved kind (never [`FaultKind::Mix`]).
    pub kind: FaultKind,
}

/// The concrete mutation a faulted access must apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the access.
    Error,
    /// Transfer only the first `keep` bytes.
    Torn {
        /// Bytes actually transferred.
        keep: usize,
    },
    /// XOR the fetched saved frame pointer with this pattern (never 0).
    Corrupt {
        /// Corruption pattern.
        xor: u64,
    },
    /// Flip bit `bit` of byte `byte` (indices reduced modulo the buffer).
    FlipBit {
        /// Byte offset (mod buffer length).
        byte: usize,
        /// Bit index 0..8.
        bit: u32,
    },
    /// Charge `cycles` extra virtual cycles, then complete normally.
    Stall {
        /// Extra cycles.
        cycles: u64,
    },
}

/// Replays a [`FaultSchedule`] against a run. Deterministic: the random
/// stream advances only when a trigger matches (almost always as a fault
/// fires; a `Mix` rule also draws for a zero-length access it then
/// leaves alone), so identical runs see identical faults. `Clone` so a
/// [`crate::World`] snapshot can capture mid-schedule injector state.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    rng: u64,
    accesses: u64,
    traps: u64,
    world_trap: u64,
    log: Vec<InjectedFault>,
}

impl FaultInjector {
    /// Builds an injector for `schedule`.
    pub fn new(schedule: FaultSchedule) -> Self {
        let rng = schedule.seed ^ 0x9E37_79B9_7F4A_7C15;
        FaultInjector {
            schedule,
            rng,
            accesses: 0,
            traps: 0,
            world_trap: 0,
            log: Vec::new(),
        }
    }

    /// SplitMix64 step.
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Marks the start of a monitor trap (called by the world before the
    /// tracer runs). `world_trap` is the world's trap sequence number,
    /// recorded into every fault fired during this trap so chaos
    /// assertions can join the fault log against deny records.
    pub fn begin_trap(&mut self, world_trap: u64) {
        self.traps += 1;
        self.world_trap = world_trap;
    }

    /// The current trap index (1-based; 0 before the first trap).
    pub fn trap_index(&self) -> u64 {
        self.traps
    }

    /// Faults that fired so far.
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    /// The schedule being replayed.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// `schedule` resumed at this injector's counters: the injector a run
    /// would hold now had `schedule` been installed where this one was.
    /// That holds only when this injector never fired and no trigger of
    /// `schedule` could have matched an access or trap seen so far: an
    /// injector draws from its random stream and alters an access only
    /// when a trigger matches, so the two runs then made the same accesses
    /// with the same results. `None` otherwise.
    pub fn resumed(&self, schedule: FaultSchedule) -> Option<FaultInjector> {
        let quiet = self.log.is_empty()
            && schedule
                .specs
                .iter()
                .all(|s| !s.trigger.could_have_matched(self.accesses, self.traps));
        quiet.then(|| FaultInjector {
            accesses: self.accesses,
            traps: self.traps,
            world_trap: self.world_trap,
            ..FaultInjector::new(schedule)
        })
    }

    /// Consults the schedule for one substrate access of `class` moving
    /// `len` bytes. Returns the mutation to apply, if any.
    pub fn on_access(&mut self, class: AccessClass, len: usize) -> Option<FaultAction> {
        self.accesses += 1;
        let (access, trap) = (self.accesses, self.traps);
        let spec = *self
            .schedule
            .specs
            .iter()
            .find(|s| s.trigger.matches(access, trap) && s.kind.applies(class))?;
        let kind = self.resolve(spec.kind, class);
        let action = self.action_for(kind, len)?;
        self.log.push(InjectedFault {
            access,
            trap,
            world_trap: self.world_trap,
            class,
            kind,
        });
        Some(action)
    }

    /// Trap-entry hook for the app-state fault family. Called by the world
    /// once per monitor trap, right after [`FaultInjector::begin_trap`] and
    /// before the tracer sees the stop. Returns one `(a, b)` draw pair per
    /// `AppStateFlip` rule whose trap-scoped trigger matches this trap; the
    /// world spends the draws on [`bastion_vm::Machine::chaos_flip`].
    /// Deliberately leaves the access counter untouched, so installing an
    /// app-state rule never shifts the access indices substrate rules key
    /// on. Only [`Trigger::OnTrap`]/[`Trigger::TrapRange`] fire this family.
    pub fn app_state_flips(&mut self) -> Vec<(u64, u64)> {
        let trap = self.traps;
        let n = self
            .schedule
            .specs
            .iter()
            .filter(|s| {
                s.kind == FaultKind::AppStateFlip
                    && matches!(s.trigger, Trigger::OnTrap(_) | Trigger::TrapRange { .. })
                    && s.trigger.matches(0, trap)
            })
            .count();
        (0..n)
            .map(|_| {
                let draws = (self.next_rand(), self.next_rand());
                self.log.push(InjectedFault {
                    access: self.accesses,
                    trap,
                    world_trap: self.world_trap,
                    class: AccessClass::AppState,
                    kind: FaultKind::AppStateFlip,
                });
                draws
            })
            .collect()
    }

    /// Resolves [`FaultKind::Mix`] into a concrete kind applicable to
    /// `class` using the seeded stream.
    fn resolve(&mut self, kind: FaultKind, class: AccessClass) -> FaultKind {
        if kind != FaultKind::Mix {
            return kind;
        }
        let stall = FaultKind::Stall {
            cycles: 2_000 + (self.next_rand() % 30_000),
        };
        let pick = self.next_rand();
        match class {
            AccessClass::Shadow => FaultKind::ShadowBitFlip,
            AccessClass::GetRegs => {
                if pick.is_multiple_of(2) {
                    FaultKind::ReadError
                } else {
                    stall
                }
            }
            AccessClass::ReadMem | AccessClass::ReadPrefix => match pick % 3 {
                0 => FaultKind::ReadError,
                1 => FaultKind::TornRead,
                _ => stall,
            },
            AccessClass::ReadFrame => match pick % 4 {
                0 => FaultKind::ReadError,
                1 => FaultKind::TornRead,
                2 => FaultKind::FrameCorrupt,
                _ => stall,
            },
            // `applies` rejects Mix on AppState, so this arm is never hit;
            // it exists only for match exhaustiveness.
            AccessClass::AppState => FaultKind::AppStateFlip,
        }
    }

    /// Turns a concrete kind into the mutation for a `len`-byte access.
    /// Returns `None` when the access is too small to mutate that way
    /// (e.g. tearing a read that transfers nothing).
    fn action_for(&mut self, kind: FaultKind, len: usize) -> Option<FaultAction> {
        match kind {
            FaultKind::ReadError => Some(FaultAction::Error),
            FaultKind::TornRead => {
                if len == 0 {
                    return None;
                }
                Some(FaultAction::Torn {
                    keep: (self.next_rand() % len as u64) as usize,
                })
            }
            FaultKind::FrameCorrupt => {
                let xor = self.next_rand() | 1; // never the identity
                Some(FaultAction::Corrupt { xor })
            }
            FaultKind::ShadowBitFlip => {
                if len == 0 {
                    return None;
                }
                let r = self.next_rand();
                Some(FaultAction::FlipBit {
                    byte: (r >> 3) as usize % len,
                    bit: (r & 7) as u32,
                })
            }
            FaultKind::Stall { cycles } => Some(FaultAction::Stall { cycles }),
            // App-state flips fire through `app_state_flips`, never here.
            FaultKind::AppStateFlip => None,
            FaultKind::Mix => unreachable!("Mix resolved before action_for"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(inj: &mut FaultInjector, class: AccessClass, n: usize) -> Vec<Option<FaultAction>> {
        (0..n).map(|_| inj.on_access(class, 64)).collect()
    }

    #[test]
    fn schedules_are_deterministic() {
        let s = FaultSchedule::chaos(42, 3);
        let mut a = FaultInjector::new(s.clone());
        let mut b = FaultInjector::new(s);
        a.begin_trap(1);
        b.begin_trap(1);
        assert_eq!(
            drain(&mut a, AccessClass::ReadMem, 32),
            drain(&mut b, AccessClass::ReadMem, 32)
        );
        assert_eq!(a.log(), b.log());
        assert!(!a.log().is_empty());
    }

    #[test]
    fn on_access_transient_fires_once() {
        let s = FaultSchedule::new(1).with(FaultKind::ReadError, Trigger::OnAccess(2));
        let mut inj = FaultInjector::new(s);
        let fired: Vec<_> = drain(&mut inj, AccessClass::ReadMem, 5);
        assert_eq!(
            fired,
            vec![None, Some(FaultAction::Error), None, None, None]
        );
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.log()[0].access, 2);
    }

    #[test]
    fn from_access_is_permanent() {
        let s = FaultSchedule::new(1).with(FaultKind::ReadError, Trigger::FromAccess(3));
        let mut inj = FaultInjector::new(s);
        let fired = drain(&mut inj, AccessClass::GetRegs, 5);
        assert_eq!(fired.iter().filter(|a| a.is_some()).count(), 3);
    }

    #[test]
    fn trap_ranges_gate_by_trap_index() {
        let s =
            FaultSchedule::new(7).with(FaultKind::ReadError, Trigger::TrapRange { from: 2, to: 2 });
        let mut inj = FaultInjector::new(s);
        inj.begin_trap(41);
        assert!(inj.on_access(AccessClass::ReadFrame, 16).is_none());
        inj.begin_trap(42);
        assert!(inj.on_access(AccessClass::ReadFrame, 16).is_some());
        inj.begin_trap(43);
        assert!(inj.on_access(AccessClass::ReadFrame, 16).is_none());
        // The fired fault carries the world trap sequence for joining
        // against deny records.
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.log()[0].trap, 2);
        assert_eq!(inj.log()[0].world_trap, 42);
    }

    #[test]
    fn kinds_respect_access_classes() {
        // A frame-corruption rule never fires on plain reads or shadow
        // loads, only on frame-head fetches.
        let s = FaultSchedule::new(9).with(FaultKind::FrameCorrupt, Trigger::FromAccess(1));
        let mut inj = FaultInjector::new(s);
        assert!(inj.on_access(AccessClass::ReadMem, 8).is_none());
        assert!(inj.on_access(AccessClass::Shadow, 8).is_none());
        assert!(matches!(
            inj.on_access(AccessClass::ReadFrame, 16),
            Some(FaultAction::Corrupt { xor }) if xor != 0
        ));
    }

    #[test]
    fn shadow_flips_stay_in_bounds() {
        let s = FaultSchedule::new(3).with(FaultKind::ShadowBitFlip, Trigger::FromAccess(1));
        let mut inj = FaultInjector::new(s);
        for _ in 0..64 {
            match inj.on_access(AccessClass::Shadow, 8) {
                Some(FaultAction::FlipBit { byte, bit }) => {
                    assert!(byte < 8);
                    assert!(bit < 8);
                }
                other => panic!("expected FlipBit, got {other:?}"),
            }
        }
    }

    #[test]
    fn app_state_flips_fire_per_trap_without_touching_access_indices() {
        let s = FaultSchedule::new(11)
            .with(
                FaultKind::AppStateFlip,
                Trigger::TrapRange { from: 2, to: 3 },
            )
            .with(FaultKind::ReadError, Trigger::OnAccess(2));
        let mut inj = FaultInjector::new(s);
        inj.begin_trap(10);
        assert!(inj.app_state_flips().is_empty());
        inj.begin_trap(11);
        let flips = inj.app_state_flips();
        assert_eq!(flips.len(), 1);
        // The per-access stream is unperturbed: access #2 still errors.
        assert!(inj.on_access(AccessClass::ReadMem, 8).is_none());
        assert!(inj.on_access(AccessClass::ReadMem, 8).is_some());
        inj.begin_trap(12);
        assert_eq!(inj.app_state_flips().len(), 1);
        inj.begin_trap(13);
        assert!(inj.app_state_flips().is_empty());
        // Every firing is logged with the app_state class for provenance.
        let app = |f: &&InjectedFault| f.class == AccessClass::AppState;
        assert_eq!(inj.log().iter().filter(app).count(), 2);
        assert_eq!(inj.log().iter().find(app).unwrap().world_trap, 11);
    }

    #[test]
    fn app_state_rules_never_fire_on_substrate_accesses() {
        let s = FaultSchedule::new(13).with(FaultKind::AppStateFlip, Trigger::FromAccess(1));
        let mut inj = FaultInjector::new(s);
        inj.begin_trap(1);
        for class in [
            AccessClass::GetRegs,
            AccessClass::ReadMem,
            AccessClass::ReadFrame,
            AccessClass::ReadPrefix,
            AccessClass::Shadow,
        ] {
            assert!(inj.on_access(class, 16).is_none());
        }
        // And an access-scoped trigger never reaches the trap hook either.
        assert!(inj.app_state_flips().is_empty());
    }

    #[test]
    fn cloned_injector_replays_identically() {
        let s = FaultSchedule::chaos(21, 2).with(
            FaultKind::AppStateFlip,
            Trigger::TrapRange { from: 1, to: 8 },
        );
        let mut a = FaultInjector::new(s);
        a.begin_trap(1);
        a.app_state_flips();
        a.on_access(AccessClass::ReadMem, 32);
        let mut b = a.clone();
        a.begin_trap(2);
        b.begin_trap(2);
        assert_eq!(a.app_state_flips(), b.app_state_flips());
        assert_eq!(
            drain(&mut a, AccessClass::ReadFrame, 8),
            drain(&mut b, AccessClass::ReadFrame, 8)
        );
        assert_eq!(a.log(), b.log());
    }

    /// An injector that saw 5 accesses over 2 traps without firing.
    fn quiet_injector() -> FaultInjector {
        let mut inj = FaultInjector::new(FaultSchedule::new(0));
        inj.begin_trap(41);
        drain(&mut inj, AccessClass::ReadMem, 2);
        inj.begin_trap(42);
        drain(&mut inj, AccessClass::ReadMem, 3);
        assert_eq!((inj.accesses, inj.traps), (5, 2));
        inj
    }

    /// Each trigger variant, exactly at the counters seen (refused) and
    /// one past them (resumed).
    #[test]
    fn resume_refuses_a_trigger_that_could_have_matched() {
        let base = quiet_injector();
        let cases = [
            (Trigger::OnAccess(5), Trigger::OnAccess(6)),
            (Trigger::FromAccess(5), Trigger::FromAccess(6)),
            (
                Trigger::EveryNth { n: 3, phase: 5 },
                Trigger::EveryNth { n: 3, phase: 6 },
            ),
            (
                Trigger::EveryNth { n: 5, phase: 0 },
                Trigger::EveryNth { n: 6, phase: 0 },
            ),
            (Trigger::OnTrap(2), Trigger::OnTrap(3)),
            (
                Trigger::TrapRange { from: 2, to: 9 },
                Trigger::TrapRange { from: 3, to: 9 },
            ),
        ];
        for (at, past) in cases {
            let sched = |t| FaultSchedule::new(4).with(FaultKind::ReadError, t);
            assert!(base.resumed(sched(at)).is_none(), "{at:?} resumed");
            let r = base
                .resumed(sched(past))
                .unwrap_or_else(|| panic!("{past:?}"));
            assert_eq!((r.accesses, r.traps, r.world_trap), (5, 2, 42));
            assert_eq!(r.schedule(), &sched(past));
        }
        // Never-matching shapes stay quiet whatever the counters.
        for t in [
            Trigger::OnAccess(0),
            Trigger::EveryNth { n: 0, phase: 1 },
            Trigger::TrapRange { from: 2, to: 1 },
        ] {
            assert!(base
                .resumed(FaultSchedule::new(4).with(FaultKind::Mix, t))
                .is_some());
        }
        // An injector that fired never resumes, even an empty schedule.
        let mut fired = FaultInjector::new(FaultSchedule::chaos(1, 1));
        fired.on_access(AccessClass::ReadMem, 8);
        assert!(fired.resumed(FaultSchedule::new(0)).is_none());
    }

    /// A resumed injector replays a cold one installed at the same point:
    /// same faults, same draws, same log.
    #[test]
    fn resumed_injector_matches_one_installed_before_the_quiet_prefix() {
        let sched = FaultSchedule::new(17)
            .with(FaultKind::Mix, Trigger::TrapRange { from: 3, to: 4 })
            .with(FaultKind::AppStateFlip, Trigger::OnTrap(4));
        let mut cold = FaultInjector::new(sched.clone());
        let mut quiet = FaultInjector::new(FaultSchedule::new(0));
        for inj in [&mut cold, &mut quiet] {
            for trap in 1..=2 {
                inj.begin_trap(trap);
                drain(inj, AccessClass::ReadFrame, 4);
            }
        }
        let mut warm = quiet.resumed(sched).expect("prefix is quiet");
        for trap in 3..=5 {
            for inj in [&mut cold, &mut warm] {
                inj.begin_trap(trap);
            }
            assert_eq!(cold.app_state_flips(), warm.app_state_flips());
            assert_eq!(
                drain(&mut cold, AccessClass::ReadFrame, 4),
                drain(&mut warm, AccessClass::ReadFrame, 4)
            );
        }
        assert!(!cold.log().is_empty());
        assert_eq!(cold.log(), warm.log());
    }

    #[test]
    fn torn_reads_keep_a_strict_prefix() {
        let s = FaultSchedule::new(5).with(FaultKind::TornRead, Trigger::FromAccess(1));
        let mut inj = FaultInjector::new(s);
        for _ in 0..64 {
            match inj.on_access(AccessClass::ReadPrefix, 256) {
                Some(FaultAction::Torn { keep }) => assert!(keep < 256),
                other => panic!("expected Torn, got {other:?}"),
            }
        }
    }
}

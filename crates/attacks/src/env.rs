//! The attack environment: a protected (or unprotected) victim world plus
//! the attacker's primitives.
//!
//! Per the threat model (paper §4), the attacker has **arbitrary memory
//! read/write** in the victim process (one or more memory-corruption
//! vulnerabilities) and knows the address-space layout (an information
//! leak is assumed; we read symbols and frame pointers directly). DEP is
//! in force — code cannot be injected, only reused — and attacks are
//! evaluated with and without CET per §10.1.

use crate::deploy::{Deployment, Protection};
use crate::victim::Victim;
use bastion_compiler::{BastionCompiler, ContextMetadata};
use bastion_defenses::HardeningConfig;
use bastion_ir::sysno;
use bastion_kernel::process::{ProcState, WaitReason};
use bastion_kernel::{ExitReason, ExtConnId, FaultSchedule, Pid, World, WorldSnapshot};
use bastion_monitor::ContextConfig;
use bastion_vm::Image;
use std::sync::{Arc, Mutex};

/// How a run was stopped (or not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Defense {
    /// Monitor denied with a Call-Type violation.
    MonitorCt,
    /// Monitor denied with a Control-Flow violation.
    MonitorCf,
    /// Monitor denied with an Argument-Integrity violation.
    MonitorAi,
    /// Monitor denied fail-closed (degraded/fail-closed resilience rung).
    MonitorFailClosed,
    /// seccomp killed a not-callable syscall.
    Seccomp,
    /// CET #CP fault.
    Cet,
    /// LLVM-CFI fault.
    Cfi,
    /// Some other fault killed the victim (crash, not a targeted defense).
    Crash(String),
    /// Nothing fired.
    None,
}

/// The observable outcome of one attack run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which defense (if any) fired first on any victim process.
    pub defense: Defense,
    /// Whether the attack's success predicate held afterwards.
    pub succeeded: bool,
}

impl RunOutcome {
    /// An attack counts as blocked when a targeted defense fired and the
    /// malicious effect did not occur.
    pub fn blocked(&self) -> bool {
        !self.succeeded
            && matches!(
                self.defense,
                Defense::MonitorCt
                    | Defense::MonitorCf
                    | Defense::MonitorAi
                    | Defense::MonitorFailClosed
                    | Defense::Seccomp
                    | Defense::Cet
                    | Defense::Cfi
            )
    }
}

/// A parked victim worker: blocked in a read on our connection (or in
/// accept for listener-side vehicles), stack layout known.
#[derive(Debug, Clone, Copy)]
pub struct Parked {
    /// The victim process.
    pub pid: Pid,
    /// Our connection into it (None for accept-parked victims).
    pub conn: Option<ExtConnId>,
}

/// A warm checkpoint of a deployed [`AttackEnv`]: the world snapshot plus
/// the attacker-side bookkeeping (image, metadata, scratch cursor, notes).
/// Produced by [`AttackEnv::checkpoint`], consumed any number of times by
/// [`AttackEnv::restore`]. The image and metadata are shared by `Arc` with
/// every environment restored from it. `Send` but not `Sync` (the
/// snapshotted monitor keeps its caches in `RefCell`s): workers that
/// share one checkpoint hold a lock around [`AttackEnv::restore`].
#[derive(Debug)]
pub struct DeployCheckpoint {
    snap: WorldSnapshot,
    image: Arc<Image>,
    metadata: Arc<ContextMetadata>,
    victim: Victim,
    root_pid: Pid,
    scratch_cursor: u64,
    notes: std::collections::HashMap<&'static str, u64>,
    /// The victim parked once from `snap` ([`DeployCheckpoint::park_once`]),
    /// shared with every environment restored from this checkpoint and
    /// locked only while one of them restores it.
    parked: Option<Arc<Mutex<ParkedSnapshot>>>,
}

/// The world right after [`AttackEnv::park`] returned on a fork of a
/// [`DeployCheckpoint`] with an empty fault schedule installed, and what
/// `park` returned.
#[derive(Debug)]
struct ParkedSnapshot {
    snap: WorldSnapshot,
    parked: Parked,
}

impl DeployCheckpoint {
    /// Parks a fork of the checkpoint once, under an empty fault schedule
    /// whose injector counts the accesses and traps park makes, and keeps
    /// the parked world. An environment restored from the checkpoint then
    /// serves its first [`AttackEnv::park`] from that world instead of
    /// running, as long as it has not changed its own world since the
    /// restore and its fault schedule could not have fired during park
    /// ([`World::resume_faults`]).
    pub fn park_once(&mut self) {
        let mut env = AttackEnv::restore(self);
        env.world.install_faults(FaultSchedule::default());
        let parked = env.park();
        self.parked = Some(Arc::new(Mutex::new(ParkedSnapshot {
            snap: env.world.snapshot(),
            parked,
        })));
    }
}

/// A deployed victim plus attacker primitives.
pub struct AttackEnv {
    /// The world hosting the victim.
    pub world: World,
    /// The (instrumented, when protected) image.
    pub image: Arc<Image>,
    /// Compiler metadata (also available to the attacker: white-box).
    pub metadata: Arc<ContextMetadata>,
    /// Which application is under attack.
    pub victim: Victim,
    /// Pid of the victim's initial process.
    pub root_pid: Pid,
    scratch_cursor: u64,
    notes: std::collections::HashMap<&'static str, u64>,
    /// The checkpoint's parked snapshot, kept only until the environment
    /// changes its world: every mutating primitive clears it.
    unchanged_park: Option<Arc<Mutex<ParkedSnapshot>>>,
    /// Set once a park was served from the parked snapshot.
    parked_from_snapshot: bool,
}

impl AttackEnv {
    /// Deploys `victim` with the given monitor configuration (`None` =
    /// fully unprotected ground-truth run). `extended_set` selects the
    /// §11.2 filesystem-extended sensitive scope; `cet` enables the
    /// hardware shadow stack.
    ///
    /// # Panics
    /// Panics if the victim fails to compile or boot (shipped victims are
    /// tested to do both).
    pub fn deploy(
        victim: Victim,
        cfg: Option<ContextConfig>,
        extended_set: bool,
        cet: bool,
    ) -> AttackEnv {
        let compiler = if extended_set {
            BastionCompiler::with_sensitive(sysno::extended_sensitive_set())
        } else {
            BastionCompiler::new()
        };
        let d = Deployment::with_compiler(victim.module(), &compiler).expect("victim compiles");
        let protection = Protection {
            label: "attack victim",
            hardening: if cet {
                HardeningConfig::cet()
            } else {
                HardeningConfig::vanilla()
            },
            monitor: cfg,
        };
        let mut world = d.world();
        victim.setup(&mut world);
        let (root_pid, _) = d.boot(&mut world, &protection, 2_000_000_000);
        assert!(
            world.alive_count() > 0,
            "{victim:?} died during boot: {:?}",
            world.proc(root_pid).and_then(|p| p.exit.clone())
        );
        AttackEnv {
            world,
            image: d.image,
            metadata: Arc::new(d.metadata),
            victim,
            root_pid,
            scratch_cursor: 0,
            notes: std::collections::HashMap::new(),
            unchanged_park: None,
            parked_from_snapshot: false,
        }
    }

    /// Captures a warm checkpoint of the deployed, booted environment.
    /// Any number of attack cells can [`AttackEnv::restore`] from it, each
    /// forking the world copy-on-write instead of recompiling and
    /// rebooting the victim. Taken after `deploy`'s boot run, so the
    /// checkpoint sits at a deterministic trap index and a restored cell
    /// replays a cold deploy bit-for-bit. The checkpoint holds no parked
    /// snapshot until [`DeployCheckpoint::park_once`] adds one.
    pub fn checkpoint(&mut self) -> DeployCheckpoint {
        DeployCheckpoint {
            snap: self.world.snapshot(),
            image: self.image.clone(),
            metadata: self.metadata.clone(),
            victim: self.victim,
            root_pid: self.root_pid,
            scratch_cursor: self.scratch_cursor,
            notes: self.notes.clone(),
            parked: None,
        }
    }

    /// Forks a fresh environment from a warm checkpoint (the cell-level
    /// dual of a cold [`AttackEnv::deploy`]).
    pub fn restore(ck: &DeployCheckpoint) -> AttackEnv {
        AttackEnv {
            world: World::restore(&ck.snap),
            image: ck.image.clone(),
            metadata: ck.metadata.clone(),
            victim: ck.victim,
            root_pid: ck.root_pid,
            scratch_cursor: ck.scratch_cursor,
            notes: ck.notes.clone(),
            unchanged_park: ck.parked.clone(),
            parked_from_snapshot: false,
        }
    }

    /// Whether [`AttackEnv::park`] was served from the checkpoint's parked
    /// snapshot instead of running.
    pub fn parked_from_snapshot(&self) -> bool {
        self.parked_from_snapshot
    }

    // ---- reconnaissance (infoleak-equivalent) ----

    /// Runtime address of a function or global symbol.
    ///
    /// # Panics
    /// Panics on unknown symbols (attacker payloads are written against
    /// known victims).
    pub fn sym(&self, name: &str) -> u64 {
        self.image
            .symbol(name)
            .unwrap_or_else(|| panic!("unknown symbol `{name}`"))
    }

    /// The addresses at which stub `name` will read its parameters if
    /// entered (via `ret`) while the frame pointer is `fp`.
    pub fn stub_slots(&self, name: &str, fp: u64) -> Vec<u64> {
        let f = self
            .image
            .module
            .func_by_name(name)
            .unwrap_or_else(|| panic!("unknown stub `{name}`"));
        let fi = self.image.frame(f);
        fi.slot_offsets
            .iter()
            .map(|off| fp - fi.frame_size + off)
            .collect()
    }

    /// Address of the legitimate callsite of syscall `nr` inside function
    /// `func` — used to spoof the return address so the monitor "decodes"
    /// a legitimate call instruction (paper Table 6: ROP bypasses CT).
    ///
    /// # Panics
    /// Panics if no such site exists.
    pub fn syscall_site_in(&self, func: &str, nr: u32) -> u64 {
        let entry = self.sym(func);
        let end = self
            .metadata
            .functions
            .get(&entry)
            .map(|f| f.end)
            .unwrap_or(entry);
        *self
            .metadata
            .syscall_sites
            .iter()
            .find(|(addr, site)| site.nr == nr && **addr >= entry && **addr < end)
            .unwrap_or_else(|| panic!("no syscall {nr} site in `{func}`"))
            .0
    }

    /// Frame pointer of a (blocked) process — layout knowledge the threat
    /// model grants the attacker.
    pub fn fp_of(&self, pid: Pid) -> u64 {
        self.world.proc(pid).expect("victim pid").machine.fp
    }

    // ---- corruption primitives (the memory vulnerability) ----

    /// Arbitrary 8-byte write in the victim.
    pub fn write_u64(&mut self, pid: Pid, addr: u64, val: u64) {
        self.unchanged_park = None;
        self.world
            .proc_mut(pid)
            .expect("victim pid")
            .machine
            .mem
            .write_unchecked(addr, &val.to_le_bytes());
    }

    /// Arbitrary byte-string write in the victim.
    pub fn write_bytes(&mut self, pid: Pid, addr: u64, bytes: &[u8]) {
        self.unchanged_park = None;
        self.world
            .proc_mut(pid)
            .expect("victim pid")
            .machine
            .mem
            .write_unchecked(addr, bytes);
    }

    /// Arbitrary 8-byte read in the victim.
    pub fn read_u64(&self, pid: Pid, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.world
            .proc(pid)
            .expect("victim pid")
            .machine
            .mem
            .read_unchecked(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a NUL-terminated string and returns its address. Strings are
    /// planted deep in the victim's stack region (never reached by live
    /// frames), so later execution cannot clobber them.
    pub fn plant_string(&mut self, pid: Pid, s: &str) -> u64 {
        let addr = self.image.stack_base + 0x800 + self.scratch_cursor;
        self.scratch_cursor += (s.len() as u64 + 16) & !7;
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.write_bytes(pid, addr, &bytes);
        addr
    }

    /// Remembers a number between the attack and success closures of a
    /// scenario (e.g. a syscall-count baseline).
    pub fn note(&mut self, key: &'static str, val: u64) {
        self.notes.insert(key, val);
    }

    /// Reads a remembered number (0 if absent).
    pub fn noted(&self, key: &'static str) -> u64 {
        self.notes.get(key).copied().unwrap_or(0)
    }

    // ---- victim positioning ----

    /// Connects and primes the victim so one worker parks blocked in a
    /// `read` on our connection (keep-alive wait), returning it.
    ///
    /// On an environment restored from a checkpoint that holds a parked
    /// snapshot ([`DeployCheckpoint::park_once`]), and that has not changed
    /// its world since, the parked world is restored instead when the
    /// installed fault schedule resumes on it ([`World::resume_faults`]);
    /// the result is the world a real park would have left.
    ///
    /// # Panics
    /// Panics if no worker parks (victims are tested to serve).
    pub fn park(&mut self) -> Parked {
        if let Some(parked) = self.park_from_snapshot() {
            return parked;
        }
        let port = self.victim.port();
        let conn = self.world.net_connect(port).expect("victim listener bound");
        if let Some(priming) = self.victim.priming() {
            self.world.net_send(conn, priming);
        }
        self.world.run(2_000_000_000);
        let _ = self.world.net_recv(conn);
        let pid = self
            .world
            .procs
            .iter()
            .find(|p| {
                matches!(p.state, ProcState::Blocked(WaitReason::ConnRead { cid, .. }) if cid == conn)
            })
            .map(|p| p.pid)
            .expect("a worker parked reading our connection");
        Parked {
            pid,
            conn: Some(conn),
        }
    }

    /// Restores the checkpoint's parked world with the installed fault
    /// schedule resumed on it, if the environment's world is unchanged
    /// since the restore and the schedule is quiet over park. Clears the
    /// unchanged state either way: park changes the world.
    fn park_from_snapshot(&mut self) -> Option<Parked> {
        let ck = self.unchanged_park.take()?;
        let schedule = self.world.fault_schedule()?;
        let ck = ck.lock().expect("no cell panics mid-restore");
        let mut world = World::restore(&ck.snap);
        if !world.resume_faults(schedule) {
            return None;
        }
        self.world = world;
        self.parked_from_snapshot = true;
        Some(ck.parked)
    }

    /// The process parked in `accept` on the victim's main listener (the
    /// privileged pre-session state some attacks target).
    ///
    /// # Panics
    /// Panics if nothing is parked in accept.
    pub fn parked_acceptor(&self) -> Parked {
        let pid = self
            .world
            .procs
            .iter()
            .find(|p| matches!(p.state, ProcState::Blocked(WaitReason::Accept { .. })))
            .map(|p| p.pid)
            .expect("a process parked in accept");
        Parked { pid, conn: None }
    }

    /// Wakes a parked victim (one byte on its connection, or a fresh
    /// connection for accept-parked victims) and runs the world.
    pub fn wake(&mut self, parked: Parked) {
        match parked.conn {
            Some(c) => self.world.net_send(c, b"!"),
            None => {
                let _ = self.world.net_connect(self.victim.port());
            }
        }
        self.settle();
    }

    /// Sends a full request on a parked connection and runs the world.
    pub fn send_request(&mut self, parked: Parked, bytes: &[u8]) {
        if let Some(c) = parked.conn {
            self.world.net_send(c, bytes);
        }
        self.settle();
    }

    /// Runs the world until quiescence. [`AttackEnv::wake`] and
    /// [`AttackEnv::send_request`] end here, so they too clear the
    /// unchanged state that lets [`AttackEnv::park`] use a parked snapshot.
    pub fn settle(&mut self) {
        self.unchanged_park = None;
        self.world.run(2_000_000_000);
    }

    // ---- judgement ----

    /// Classifies the first targeted defense that fired on any process.
    pub fn defense_fired(&self) -> Defense {
        for p in &self.world.procs {
            match &p.exit {
                Some(ExitReason::MonitorKill { reason, .. }) => {
                    return if reason.starts_with("CT") {
                        Defense::MonitorCt
                    } else if reason.starts_with("CF") {
                        Defense::MonitorCf
                    } else if reason.starts_with("AI") {
                        Defense::MonitorAi
                    } else if reason.starts_with("FC") {
                        Defense::MonitorFailClosed
                    } else {
                        Defense::Crash(reason.clone())
                    };
                }
                Some(ExitReason::SeccompKill { .. }) => return Defense::Seccomp,
                Some(ExitReason::Fault(f)) => {
                    return match f {
                        bastion_vm::Fault::ControlProtection { .. } => Defense::Cet,
                        bastion_vm::Fault::CfiViolation { .. } => Defense::Cfi,
                        other => Defense::Crash(other.to_string()),
                    };
                }
                _ => {}
            }
        }
        Defense::None
    }

    /// Ground truth: an `execve` of `path_contains` happened.
    pub fn execve_happened(&self, path_contains: &str) -> bool {
        self.world
            .kernel
            .exec_log
            .iter()
            .any(|(_, p, _)| p.contains(path_contains))
    }

    /// Ground truth: an `execve` happened with euid 0.
    pub fn root_execve_happened(&self, path_contains: &str) -> bool {
        self.world
            .kernel
            .exec_log
            .iter()
            .any(|(_, p, euid)| p.contains(path_contains) && *euid == 0)
    }

    /// Ground truth: some region became writable+executable via mprotect
    /// or mmap during the attack.
    pub fn wx_happened(&self) -> bool {
        self.world
            .kernel
            .mprotect_log
            .iter()
            .any(|(_, _, _, prot)| prot & 0b110 == 0b110)
            || self.world.procs.iter().any(|p| p.has_wx_mapping())
    }

    /// Ground truth: syscall `nr` executed at least `n` more times than
    /// `baseline`.
    pub fn syscall_ran_since(&self, nr: u32, baseline: u64) -> bool {
        self.world.kernel.count_of(nr) > baseline
    }

    /// Ground truth: a chmod of `path` to `mode` happened.
    pub fn chmod_happened(&self, path_contains: &str) -> bool {
        self.world
            .kernel
            .chmod_log
            .iter()
            .any(|(p, _)| p.contains(path_contains))
    }
}

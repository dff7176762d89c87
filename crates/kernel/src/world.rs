//! The world: processes + kernel + scheduler + tracer glue.
//!
//! A deterministic round-robin scheduler steps each runnable process for a
//! fixed quantum. Syscall events flow through seccomp (kill / trace /
//! allow), then the attached [`Tracer`] (the BASTION monitor) for traced
//! numbers, then the dispatcher. Blocking syscalls park the process until
//! the wake-up scan observes the awaited condition (data on a connection, a
//! pending accept, elapsed virtual time, a zombie child).
//!
//! Virtual time ([`World::now`]) is the sum of all machine cycles, all
//! kernel-side work, and all monitor-side work — the quantity every
//! benchmark reports, since the application is synchronously stopped while
//! the monitor verifies a trapped syscall.

use crate::errno::{err, EFAULT, ENOSYS};
use crate::faults::{FaultInjector, FaultSchedule, InjectedFault};
use crate::net::{ConnId, ReadOutcome};
use crate::process::{ExitReason, FdTable, Pid, ProcState, Process, WaitReason};
use crate::seccomp::SeccompFilter;
use crate::syscall::{Kernel, SysOutcome};
use crate::trace::Tracer;
use crate::trap::{Flight, Gate, TrapRecord};
use bastion_obs::{self as obs, FlightDump, FlightEntry};
use bastion_vm::{interp, CostModel, Event, Machine};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Handle to an externally-driven (workload generator) connection.
pub type ExtConnId = ConnId;

thread_local! {
    /// Default interpreter selection for newly built worlds on this thread.
    static LEGACY_INTERP_DEFAULT: Cell<bool> = const { Cell::new(false) };
}

/// Makes every [`World`] subsequently constructed on this thread drive its
/// processes with the legacy tree-walking interpreter instead of the
/// predecoded fast path. The differential suite uses this to ablate the
/// whole stack (harness, attack scenarios) without threading a flag through
/// every constructor; results must be bit-identical either way.
pub fn set_thread_legacy_interp(on: bool) {
    LEGACY_INTERP_DEFAULT.with(|c| c.set(on));
}

/// The current thread-local default for [`set_thread_legacy_interp`].
pub fn thread_legacy_interp() -> bool {
    LEGACY_INTERP_DEFAULT.with(Cell::get)
}

/// RAII scope for [`set_thread_legacy_interp`]: sets the thread-local
/// interpreter default and restores the **previous** value on drop
/// (including on panic), so engine selection cannot leak into later tests
/// or into fleet workers that reuse the same OS thread.
#[derive(Debug)]
pub struct LegacyInterpGuard {
    prev: bool,
}

impl LegacyInterpGuard {
    /// Sets the thread-local default to `on` for the guard's lifetime.
    #[must_use = "dropping the guard immediately restores the previous value"]
    pub fn set(on: bool) -> Self {
        let prev = thread_legacy_interp();
        set_thread_legacy_interp(on);
        LegacyInterpGuard { prev }
    }
}

impl Drop for LegacyInterpGuard {
    fn drop(&mut self) {
        set_thread_legacy_interp(self.prev);
    }
}

/// Why [`World::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every process is a zombie.
    AllExited,
    /// All live processes are blocked and nothing can wake them without
    /// external input.
    Idle,
    /// The cycle budget was exhausted.
    Budget,
}

/// The simulation world.
pub struct World {
    /// Kernel state.
    pub kernel: Kernel,
    /// All processes ever spawned (zombies retained for inspection).
    pub procs: Vec<Process>,
    pub(crate) tracer: Option<Box<dyn Tracer>>,
    /// Cycles spent in the monitor (tracer) on behalf of stopped processes.
    pub trace_cycles: u64,
    /// Number of tracer stops delivered (the "monitor hook" count).
    pub trap_count: u64,
    /// Total instructions executed across all processes (wall-clock
    /// throughput denominators in the bench crate).
    pub steps: u64,
    clock: u64,
    next_pid: Pid,
    quantum: u64,
    /// Round-robin resume point: the index the next scheduling pass starts
    /// scanning from (one past the process scheduled last), so budget
    /// expiry mid-round cannot starve high-index processes.
    cursor: usize,
    /// Drive processes with the legacy tree-walking interpreter instead of
    /// the predecoded fast path (differential testing / ablation).
    legacy_interp: bool,
    /// Fault injector replayed against every monitor substrate access
    /// (chaos testing); `None` on the clean path.
    pub(crate) faults: Option<RefCell<FaultInjector>>,
    /// The trap pipeline's flight recorder and dump triggers.
    pub(crate) flight: Flight,
}

impl World {
    /// An empty world with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        World {
            kernel: Kernel::new(cost),
            procs: Vec::new(),
            tracer: None,
            trace_cycles: 0,
            trap_count: 0,
            steps: 0,
            clock: 0,
            next_pid: 1,
            quantum: 512,
            cursor: 0,
            legacy_interp: thread_legacy_interp(),
            faults: None,
            flight: Flight::default(),
        }
    }

    /// Installs a fault schedule: every subsequent monitor substrate
    /// access (register fetches, remote reads, shadow loads) consults it.
    pub fn install_faults(&mut self, schedule: FaultSchedule) {
        self.faults = Some(RefCell::new(FaultInjector::new(schedule)));
    }

    /// The installed fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<FaultSchedule> {
        self.faults.as_ref().map(|f| f.borrow().schedule().clone())
    }

    /// Monitor traps seen since the current schedule was installed (the
    /// injector's trap counter). Used to calibrate trap-targeted schedules
    /// against a clean reference run.
    pub fn fault_trap_count(&self) -> u64 {
        self.faults
            .as_ref()
            .map(|f| f.borrow().trap_index())
            .unwrap_or(0)
    }

    /// Faults that fired so far under the installed schedule.
    pub fn fault_log(&self) -> Vec<InjectedFault> {
        self.faults
            .as_ref()
            .map(|f| f.borrow().log().to_vec())
            .unwrap_or_default()
    }

    /// Selects the interpreter driving this world's processes: `true` for
    /// the legacy tree-walking reference path, `false` (the default) for
    /// the predecoded fast path. Both are observably identical.
    pub fn set_legacy_interp(&mut self, on: bool) {
        self.legacy_interp = on;
    }

    /// Whether this world runs on the legacy interpreter.
    pub fn legacy_interp(&self) -> bool {
        self.legacy_interp
    }

    /// Spawns a process running `machine`; returns its pid.
    pub fn spawn(&mut self, machine: Machine) -> Pid {
        let (i, o, e) = self.kernel.stdio();
        let pid = self.next_pid;
        self.next_pid += 1;
        self.procs
            .push(Process::new(pid, machine, FdTable::with_stdio(i, o, e)));
        pid
    }

    /// Attaches the (single) tracer — the BASTION monitor.
    pub fn attach_tracer(&mut self, t: Box<dyn Tracer>) {
        self.tracer = Some(t);
    }

    /// Detaches and returns the tracer (to read its statistics).
    pub fn take_tracer(&mut self) -> Option<Box<dyn Tracer>> {
        self.tracer.take()
    }

    /// Read-only view of the attached tracer without detaching it — live
    /// dashboards (`bastion top`) peek monitor stats mid-run through
    /// [`Tracer::as_any`] downcasts.
    pub fn tracer_ref(&self) -> Option<&dyn Tracer> {
        self.tracer.as_deref()
    }

    /// Current flight-recorder ring contents, oldest first (the always-on
    /// run-up to the most recent trap).
    pub fn flight_dump(&self) -> Vec<FlightEntry> {
        self.flight.ring.borrow().dump()
    }

    /// Flight dumps captured on ladder-rung transitions and escalation
    /// bursts so far, oldest first.
    pub fn flight_dumps(&self) -> &[FlightDump] {
        &self.flight.dumps
    }

    /// Total flight entries ever recorded — equals [`World::trap_count`]
    /// by construction (every trap records exactly one entry).
    pub fn flight_total(&self) -> u64 {
        self.flight.ring.borrow().total_recorded()
    }

    /// Installs a seccomp filter on `pid` and marks it traced.
    pub fn install_seccomp(&mut self, pid: Pid, filter: Arc<SeccompFilter>, traced: bool) {
        if let Some(p) = self.proc_mut(pid) {
            p.seccomp = Some(filter);
            p.traced = traced;
        }
    }

    /// Looks a process up by pid.
    pub fn proc(&self, pid: Pid) -> Option<&Process> {
        self.procs.iter().find(|p| p.pid == pid)
    }

    /// Mutable process lookup.
    pub fn proc_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.iter_mut().find(|p| p.pid == pid)
    }

    /// Total virtual time: app + kernel + monitor cycles.
    pub fn now(&self) -> u64 {
        self.clock + self.kernel.cycles + self.trace_cycles
    }

    /// Number of live (non-zombie) processes.
    pub fn alive_count(&self) -> usize {
        self.procs.iter().filter(|p| p.alive()).count()
    }

    /// Earliest virtual time at which a sleeping process wakes, if any
    /// live process is blocked on a deadline. `None` means every blocked
    /// process waits on external input (net bytes, a pending accept, a
    /// child exit) — the caller must deliver something before another
    /// [`World::run`] can make progress. Supervisors use this to park an
    /// [`RunStatus::Idle`] tenant until its wake instead of spinning.
    pub fn next_wake(&self) -> Option<u64> {
        self.procs
            .iter()
            .filter_map(|p| match p.state {
                ProcState::Blocked(WaitReason::Sleep { until }) => Some(until),
                _ => None,
            })
            .min()
    }

    /// Advances the idle clock to absolute virtual time `t` (no-op if `t`
    /// is in the past). Models the CPU sitting idle until a timer fires.
    fn advance_clock_to(&mut self, t: u64) {
        let now = self.now();
        if t > now {
            self.clock += t - now;
        }
    }

    /// Runs until everything exits, everything blocks on external input,
    /// or `max_cycles` elapse.
    ///
    /// Scheduling is round-robin with a persistent cursor: each pass picks
    /// the next runnable process *after* the last one scheduled, so a
    /// budget expiring mid-round does not systematically favor low-index
    /// processes across calls. The final quantum is clamped to the
    /// remaining budget (exact for unit-cost instructions; a trapping
    /// syscall still completes verification atomically), and a world whose
    /// every live process sleeps on a future deadline advances the clock
    /// to the earliest wake instead of reporting a spurious
    /// [`RunStatus::Idle`].
    ///
    /// Adds the guest steps it ran to the `vm.steps` telemetry counter, so
    /// the counter equals [`World::steps`] on either interpreter.
    pub fn run(&mut self, max_cycles: u64) -> RunStatus {
        let steps = self.steps;
        let status = self.schedule(max_cycles);
        obs::counter_add("vm.steps", self.steps - steps);
        status
    }

    /// The scheduling loop of [`World::run`].
    fn schedule(&mut self, max_cycles: u64) -> RunStatus {
        let deadline = self.now().saturating_add(max_cycles);
        loop {
            self.wake_blocked();
            if self.alive_count() == 0 {
                return RunStatus::AllExited;
            }
            if self.now() >= deadline {
                return RunStatus::Budget;
            }
            let n = self.procs.len();
            let first = self.cursor % n;
            let mut picked = None;
            for k in 0..n {
                let idx = (first + k) % n;
                if self.procs[idx].state == ProcState::Runnable {
                    picked = Some(idx);
                    break;
                }
            }
            let Some(idx) = picked else {
                // Nothing runnable. Sleeping processes make progress by
                // letting virtual time pass; anything else needs external
                // input and the world is genuinely idle.
                match self.next_wake() {
                    Some(until) if until <= deadline => {
                        self.advance_clock_to(until);
                        continue; // the next wake_blocked pass unparks it
                    }
                    Some(_) => {
                        self.advance_clock_to(deadline);
                        return RunStatus::Budget;
                    }
                    None => return RunStatus::Idle,
                }
            };
            self.cursor = idx + 1;
            self.run_quantum(idx, deadline);
        }
    }

    /// Runs `idx` for up to one quantum, never scheduling a burst past
    /// `deadline`. Burst boundaries are computed identically for both
    /// interpreter engines (a step cap fixed at burst entry), so the fast
    /// and legacy paths execute byte-identical instruction sequences.
    fn run_quantum(&mut self, idx: usize, deadline: u64) {
        let start = self.procs[idx].machine.cycles;
        let mut left = self.quantum;
        while left > 0 && self.procs[idx].state == ProcState::Runnable {
            // Clamp the burst to the cycles left in the budget. Machine
            // cycles accrued this quantum are not yet folded into `clock`,
            // so add them to `now()` by hand. Each step costs at least one
            // cycle, so a step cap of `cycles_left` can never overshoot a
            // unit-cost stretch.
            let live_now = self.now() + (self.procs[idx].machine.cycles - start);
            if live_now >= deadline {
                break;
            }
            let cap = left.min(deadline - live_now);
            // The fast path runs whole bursts inside the fused interpreter
            // loop; `None` means the burst cap ran out mid-burst. The
            // legacy path emulates the same burst by stepping one
            // instruction at a time up to the same cap.
            let (n, ev) = if self.legacy_interp {
                let mut taken = 0u64;
                let mut ev = None;
                while taken < cap {
                    taken += 1;
                    match interp::step(&mut self.procs[idx].machine) {
                        Event::Continue => {}
                        e => {
                            ev = Some(e);
                            break;
                        }
                    }
                }
                (taken, ev)
            } else {
                interp::run_bounded(&mut self.procs[idx].machine, cap)
            };
            left -= n;
            self.steps += n;
            match ev {
                None | Some(Event::Continue) => {}
                Some(Event::Syscall { nr, args }) => {
                    self.handle_syscall(idx, nr, args);
                }
                Some(Event::Exited(code)) => {
                    self.procs[idx].kill(ExitReason::Exited(code));
                }
                Some(Event::Fault(f)) => {
                    self.procs[idx].kill(ExitReason::Fault(f));
                }
            }
        }
        let delta = self.procs[idx].machine.cycles - start;
        self.clock += delta;
    }

    fn handle_syscall(&mut self, idx: usize, nr: u32, args: [u64; 6]) {
        let gate = self.trap(idx, nr);
        let p = &mut self.procs[idx];
        match gate {
            Gate::Allow | Gate::Trapped(TrapRecord { deny: None, .. }) => {}
            Gate::Kill => return p.kill(ExitReason::SeccompKill { nr }),
            Gate::Trapped(TrapRecord {
                deny: Some(reason), ..
            }) => return p.kill(ExitReason::MonitorKill { nr, reason }),
            // SECCOMP_RET_TRACE with no tracer attached: Linux returns
            // ENOSYS to the caller.
            Gate::NoTracer => return p.machine.complete_syscall(err(ENOSYS)),
        }
        let now = self.now();
        let p = &mut self.procs[idx];
        match self.kernel.dispatch(p, nr, args, now) {
            SysOutcome::Done(ret) => p.machine.complete_syscall(ret),
            SysOutcome::Block(reason) => p.state = ProcState::Blocked(reason),
            SysOutcome::Exit(code) => p.kill(ExitReason::Exited(code)),
            SysOutcome::Fork => self.do_fork(idx),
        }
    }

    fn do_fork(&mut self, idx: usize) {
        let child_pid = self.next_pid;
        self.next_pid += 1;
        let parent = &mut self.procs[idx];
        parent.machine.mem.share_pages();
        let mut child_machine = parent.machine.clone();
        parent.machine.complete_syscall(u64::from(child_pid));
        child_machine.complete_syscall(0);
        let mut child = Process::new(child_pid, child_machine, parent.fds.clone());
        child.parent = Some(parent.pid);
        child.creds = parent.creds;
        child.vmas = parent.vmas.clone();
        child.brk = parent.brk;
        child.mmap_cursor = parent.mmap_cursor + 0x1000_0000; // disjoint arenas
        child.seccomp = parent.seccomp.clone();
        child.traced = parent.traced;
        let fds = child.fds.clone();
        let parent_pid = self.procs[idx].pid;
        self.procs.push(child);
        self.kernel.ref_table(&fds);
        // Let the tracer seed per-pid state for the new process (the
        // prefilter inherits the parent's flow position).
        if let Some(t) = self.tracer.as_mut() {
            t.on_fork(parent_pid, child_pid);
        }
    }

    fn wake_blocked(&mut self) {
        let now = self.now();
        for idx in 0..self.procs.len() {
            let ProcState::Blocked(reason) = self.procs[idx].state else {
                continue;
            };
            match reason {
                WaitReason::Accept { lid, addr_out, .. } => {
                    if self.kernel.net.has_pending(lid) {
                        let ret = {
                            let p = &mut self.procs[idx];
                            self.kernel.complete_accept(p, lid, addr_out)
                        };
                        self.procs[idx].machine.complete_syscall(ret);
                        self.procs[idx].state = ProcState::Runnable;
                    }
                }
                WaitReason::ConnRead { cid, buf, len } => {
                    let mem = &mut self.procs[idx].machine.mem;
                    let ret = match self.kernel.conn_read(mem, cid, buf, len) {
                        Ok(ReadOutcome::Data(n)) => n as u64,
                        Ok(ReadOutcome::Eof) => 0,
                        Ok(ReadOutcome::WouldBlock) => continue,
                        Err(_) => err(EFAULT),
                    };
                    self.procs[idx].machine.complete_syscall(ret);
                    self.procs[idx].state = ProcState::Runnable;
                }
                WaitReason::Sleep { until } => {
                    if now >= until {
                        self.procs[idx].machine.complete_syscall(0);
                        self.procs[idx].state = ProcState::Runnable;
                    }
                }
                WaitReason::Wait4 { status_out } => {
                    let me = self.procs[idx].pid;
                    let zombie = self
                        .procs
                        .iter()
                        .position(|c| c.parent == Some(me) && !c.alive() && !c.reaped);
                    if let Some(z) = zombie {
                        self.procs[z].reaped = true;
                        let zpid = self.procs[z].pid;
                        let status = match &self.procs[z].exit {
                            Some(ExitReason::Exited(c)) => (*c as u64) << 8,
                            _ => 0x7f,
                        };
                        if status_out != 0 {
                            use bastion_vm::MemIo;
                            let _ = self.procs[idx].machine.mem.write_u64(status_out, status);
                        }
                        self.procs[idx].machine.complete_syscall(u64::from(zpid));
                        self.procs[idx].state = ProcState::Runnable;
                    }
                }
            }
        }
    }

    // ---- external (workload generator) network API ----

    /// An external client connects to `port`; `None` if nothing listens or
    /// the backlog is full.
    pub fn net_connect(&mut self, port: u16) -> Option<ExtConnId> {
        self.kernel.net.external_connect(port)
    }

    /// [`World::net_connect`] for a client that only counts what the
    /// server sends back: server writes on the connection are counted, not
    /// copied, and [`World::net_recv_len`] takes the count
    /// ([`crate::net::Net::external_connect_counting`]).
    pub fn net_connect_counting(&mut self, port: u16) -> Option<ExtConnId> {
        self.kernel.net.external_connect_counting(port)
    }

    /// Sends client bytes on an external connection.
    pub fn net_send(&mut self, c: ExtConnId, bytes: &[u8]) {
        self.kernel.net.client_send(c, bytes);
    }

    /// Drains server→client bytes from an external connection (nothing on
    /// a count-only one, whose bytes were never kept).
    pub fn net_recv(&mut self, c: ExtConnId) -> Vec<u8> {
        self.kernel.net.client_recv(c)
    }

    /// Drains server→client bytes from an external connection and returns
    /// only how many there were (a client that never reads them; on a
    /// count-only connection, takes the count).
    pub fn net_recv_len(&mut self, c: ExtConnId) -> usize {
        self.kernel.net.client_recv_len(c)
    }

    /// Closes the client side of an external connection.
    pub fn net_close(&mut self, c: ExtConnId) {
        self.kernel.net.client_close(c);
    }

    /// Whether the server has closed its side of an external connection
    /// (HTTP/1.0-style end-of-response signal for load generators).
    pub fn net_server_closed(&self, c: ExtConnId) -> bool {
        self.kernel.net.server_closed(c)
    }
}

/// A copy-on-write checkpoint of a whole [`World`]: kernel (VFS, network,
/// open files, logs, RNG), every process (machine registers, frames, CoW
/// page table, fd table, seccomp), the attached tracer (monitor stats, deny
/// log, caches, prefilter per-pid flow state), the scheduler words, and any
/// installed fault injector. Because worlds are deterministic, restoring a
/// snapshot and resuming reproduces a cold run bit-for-bit from the capture
/// point — the basis of warm-forked chaos cells (DESIGN.md §6i).
///
/// The large state is shared, not copied: memory pages and VFS file
/// contents are both `Arc`s, so a snapshot costs one page-table clone plus
/// one refcount per file, and each restored world copies only the pages and
/// files it subsequently writes.
#[derive(Debug)]
pub struct WorldSnapshot {
    world: World,
    shared_pages: u64,
}

impl WorldSnapshot {
    /// Pages shared between the snapshot and the live world at capture
    /// time (all resident pages, by construction).
    pub fn shared_pages(&self) -> u64 {
        self.shared_pages
    }

    /// World trap count at capture time (the deterministic checkpoint
    /// index).
    pub fn trap_count(&self) -> u64 {
        self.world.trap_count
    }
}

impl World {
    /// Captures a copy-on-write checkpoint of the world. All-zero pages are
    /// pruned from the *live* page tables first (snapshot hygiene: a page
    /// dirtied and later zeroed reads identically to one never touched), so
    /// the checkpoint and the original agree on resident pages and the
    /// snapshot pins no dead memory. The live pages are then made shared
    /// ([`Memory::share_pages`](bastion_vm::Memory::share_pages)), so the
    /// checkpoint shares every page with the world copy-on-write.
    ///
    /// # Panics
    /// Panics if an attached tracer does not implement
    /// [`Tracer::snapshot_box`] — checkpointing a world mid-verification
    /// with a tracer that cannot be cloned would silently drop monitor
    /// state.
    pub fn snapshot(&mut self) -> WorldSnapshot {
        for p in &mut self.procs {
            p.machine.mem.prune_zero_pages();
            p.machine.mem.share_pages();
        }
        let world = self.clone_world();
        let shared_pages = world
            .procs
            .iter()
            .map(|p| p.machine.mem.shared_pages())
            .sum();
        WorldSnapshot {
            world,
            shared_pages,
        }
    }

    /// Builds a fresh world from a checkpoint. The snapshot is not
    /// consumed: any number of worlds can fork from one checkpoint, each
    /// sharing its pages copy-on-write. The restored world keeps the
    /// snapshot's interpreter selection (not the thread-local default), so
    /// a checkpoint taken under the legacy interpreter replays on it.
    pub fn restore(snap: &WorldSnapshot) -> World {
        snap.world.clone_world()
    }

    /// [`World::restore`] with `schedule` put onto the snapshot injector's
    /// counters, as if it had been installed where that injector was (see
    /// [`FaultInjector::resumed`]). Decides on the snapshot's injector
    /// first: `None`, having restored nothing, when the snapshot carries no
    /// injector, it already fired, or a trigger of `schedule` could have
    /// matched an access or trap it saw.
    pub fn restore_resuming(snap: &WorldSnapshot, schedule: FaultSchedule) -> Option<World> {
        let resumed = snap.world.faults.as_ref()?.borrow().resumed(schedule)?;
        let mut world = snap.world.clone_world();
        world.faults = Some(RefCell::new(resumed));
        Some(world)
    }

    /// A copy of the whole world that shares its pages with this one
    /// wherever they are already shared ([`World::snapshot`] shares them
    /// first), with a deep copy of the tracer.
    ///
    /// # Panics
    /// Panics if an attached tracer does not implement
    /// [`Tracer::snapshot_box`].
    fn clone_world(&self) -> World {
        World {
            kernel: self.kernel.clone(),
            procs: self.procs.clone(),
            tracer: self.tracer.as_ref().map(|t| {
                t.snapshot_box()
                    .expect("attached tracer does not support world snapshots")
            }),
            faults: self.faults.clone(),
            flight: self.flight.clone(),
            ..*self
        }
    }

    /// Runs until at least `traps` tracer stops have been delivered (or
    /// exit/idle/budget). Places checkpoints at a deterministic trap index
    /// instead of an arbitrary cycle count.
    pub fn run_until_traps(&mut self, traps: u64, max_cycles: u64) -> RunStatus {
        let deadline = self.now().saturating_add(max_cycles);
        let mut status = RunStatus::Budget;
        while self.trap_count < traps && self.now() < deadline {
            status = self.run((deadline - self.now()).min(100_000));
            if status != RunStatus::Budget {
                break;
            }
        }
        status
    }

    /// Page-table totals across all processes, as
    /// `(resident_pages, shared_pages)`: how many backing pages exist and
    /// how many are shared with a live snapshot or fork sibling.
    pub fn page_stats(&self) -> (u64, u64) {
        self.procs.iter().fold((0, 0), |(r, s), p| {
            (
                r + p.machine.mem.resident_pages(),
                s + p.machine.mem.shared_pages(),
            )
        })
    }
}

impl World {
    /// Compact diagnostic summary for assertion messages: one line of
    /// world totals plus one line per process with its scheduler state,
    /// blocked-on reason, and exit status. Bounded output by design —
    /// formatting a whole `World` into a CI failure message is unreadable.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "cycles={} steps={} traps={} procs={} alive={}",
            self.now(),
            self.steps,
            self.trap_count,
            self.procs.len(),
            self.alive_count()
        );
        for p in &self.procs {
            let state = match p.state {
                ProcState::Runnable => "runnable".to_string(),
                ProcState::Blocked(reason) => format!("blocked on {reason:?}"),
                ProcState::Zombie => match &p.exit {
                    Some(reason) => format!("zombie ({reason:?})"),
                    None => "zombie".to_string(),
                },
            };
            let _ = write!(s, "\n  pid {:<3} {state}", p.pid);
        }
        s
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("procs", &self.procs.len())
            .field("now", &self.now())
            .field("traps", &self.trap_count)
            .finish()
    }
}

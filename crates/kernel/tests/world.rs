//! End-to-end world tests: programs written against the syscall ABI,
//! driven through the scheduler, blocking syscalls, fork, and seccomp.

use bastion_ir::build::ModuleBuilder;
use bastion_ir::{sysno, Operand, Ty};
use bastion_kernel::process::ProcState;
use bastion_kernel::{ExitReason, RunStatus, SeccompAction, SeccompFilter, World};
use bastion_obs::{DenyContext, DenyRecord, DenyRule, FaultCtx};
use bastion_vm::{CostModel, Image, Machine};
use std::sync::Arc;

fn spawn(world: &mut World, mb: ModuleBuilder) -> bastion_kernel::Pid {
    let img = Image::load(mb.finish()).unwrap();
    let machine = Machine::new(Arc::new(img), CostModel::default());
    world.spawn(machine)
}

/// Builds a sockaddr{family=2, port} on the stack and returns its address reg.
fn make_sockaddr(
    f: &mut bastion_ir::build::FunctionBuilder<'_>,
    slot: bastion_ir::SlotId,
    port: u16,
) -> bastion_ir::Reg {
    let a = f.frame_addr(slot);
    // family=2 in the low u16, port at byte offset 2: 2 | port << 16.
    let word = 2i64 | (i64::from(port) << 16);
    f.store(a, word);
    f.frame_addr(slot)
}

#[test]
fn echo_server_serves_external_client() {
    // main: socket; bind :8080; listen; accept; read; write back; exit.
    let mut mb = ModuleBuilder::new("echo");
    let socket = mb.declare_syscall_stub("socket", sysno::SOCKET, 3);
    let bind = mb.declare_syscall_stub("bind", sysno::BIND, 3);
    let listen = mb.declare_syscall_stub("listen", sysno::LISTEN, 2);
    let accept = mb.declare_syscall_stub("accept", sysno::ACCEPT, 3);
    let read = mb.declare_syscall_stub("read", sysno::READ, 3);
    let write = mb.declare_syscall_stub("write", sysno::WRITE, 3);

    let mut f = mb.function("main", &[], Ty::I64);
    let sa_slot = f.local("sa", Ty::Array(Box::new(Ty::I8), 16));
    let buf = f.local("buf", Ty::Array(Box::new(Ty::I8), 64));
    let sfd = f.call_direct(socket, &[2i64.into(), 1i64.into(), 0i64.into()]);
    let sa = make_sockaddr(&mut f, sa_slot, 8080);
    let _ = f.call_direct(bind, &[sfd.into(), sa.into(), 16i64.into()]);
    let _ = f.call_direct(listen, &[sfd.into(), 8i64.into()]);
    let cfd = f.call_direct(accept, &[sfd.into(), 0i64.into(), 0i64.into()]);
    let ba = f.frame_addr(buf);
    let n = f.call_direct(read, &[cfd.into(), ba.into(), 64i64.into()]);
    let ba2 = f.frame_addr(buf);
    let _ = f.call_direct(write, &[cfd.into(), ba2.into(), n.into()]);
    f.ret(Some(Operand::Imm(0)));
    f.finish();

    let mut world = World::new(CostModel::default());
    let pid = spawn(&mut world, mb);

    // Server runs until it blocks in accept.
    assert_eq!(world.run(10_000_000), RunStatus::Idle);
    assert!(matches!(
        world.proc(pid).unwrap().state,
        ProcState::Blocked(_)
    ));

    // Client connects and sends a request.
    let c = world.net_connect(8080).expect("listener bound");
    world.net_send(c, b"ping!");
    assert_eq!(world.run(10_000_000), RunStatus::AllExited);
    assert_eq!(world.net_recv(c), b"ping!");
    assert_eq!(world.proc(pid).unwrap().exit, Some(ExitReason::Exited(0)));
    // Syscall counters recorded everything.
    assert_eq!(world.kernel.count_of(sysno::ACCEPT), 1);
    assert_eq!(world.kernel.count_of(sysno::BIND), 1);
}

#[test]
fn fork_runs_parent_and_child() {
    // main: fork; child (ret 0) writes "c" to stdout and exits 7;
    // parent waits and exits with child's pid != 0.
    let mut mb = ModuleBuilder::new("forker");
    let fork = mb.declare_syscall_stub("fork", sysno::FORK, 0);
    let exit = mb.declare_syscall_stub("exit", sysno::EXIT, 1);
    let wait4 = mb.declare_syscall_stub("wait4", sysno::WAIT4, 4);
    let write = mb.declare_syscall_stub("write", sysno::WRITE, 3);
    let msg = mb.global_str("msg", "child!");

    let mut f = mb.function("main", &[], Ty::I64);
    let pid = f.call_direct(fork, &[]);
    let is_child = f.cmp(bastion_ir::CmpOp::Eq, pid, 0i64);
    let child_b = f.new_block();
    let parent_b = f.new_block();
    f.br(is_child, child_b, parent_b);
    f.switch_to(child_b);
    let m = f.global_addr(msg);
    let _ = f.call_direct(write, &[1i64.into(), m.into(), 6i64.into()]);
    let _ = f.call_direct(exit, &[7i64.into()]);
    f.ret(Some(Operand::Imm(0)));
    f.switch_to(parent_b);
    let st = f.local("status", Ty::I64);
    let sta = f.frame_addr(st);
    let reaped = f.call_direct(
        wait4,
        &[(-1i64).into(), sta.into(), 0i64.into(), 0i64.into()],
    );
    f.ret(Some(reaped.into()));
    f.finish();

    let mut world = World::new(CostModel::default());
    let parent = spawn(&mut world, mb);
    assert_eq!(world.run(10_000_000), RunStatus::AllExited);
    assert_eq!(world.kernel.console, b"child!");
    // Parent exited with the child's pid.
    let Some(ExitReason::Exited(code)) = &world.proc(parent).unwrap().exit else {
        panic!("parent did not exit cleanly");
    };
    assert!(*code > 1);
    // Child exit status visible.
    let child = world
        .procs
        .iter()
        .find(|p| p.parent == Some(parent))
        .unwrap();
    assert_eq!(child.exit, Some(ExitReason::Exited(7)));
}

#[test]
fn seccomp_kill_terminates_on_not_callable_syscall() {
    let mut mb = ModuleBuilder::new("killer");
    let ptrace = mb.declare_syscall_stub("ptrace", sysno::PTRACE, 4);
    let mut f = mb.function("main", &[], Ty::I64);
    let z = Operand::Imm(0);
    let _ = f.call_direct(ptrace, &[z, z, z, z]);
    f.ret(Some(Operand::Imm(0)));
    f.finish();

    let mut world = World::new(CostModel::default());
    let pid = spawn(&mut world, mb);
    let mut filter = SeccompFilter::new(SeccompAction::Allow);
    filter.set(sysno::PTRACE, SeccompAction::Kill);
    world.install_seccomp(pid, filter.shared(), false);
    assert_eq!(world.run(10_000_000), RunStatus::AllExited);
    assert_eq!(
        world.proc(pid).unwrap().exit,
        Some(ExitReason::SeccompKill { nr: sysno::PTRACE })
    );
    // The killed syscall never executed.
    assert_eq!(world.kernel.count_of(sysno::PTRACE), 0);
}

#[test]
fn seccomp_filters_are_inherited_by_children() {
    // parent forks; the child calls mprotect and must be seccomp-killed.
    let mut mb = ModuleBuilder::new("inherit");
    let fork = mb.declare_syscall_stub("fork", sysno::FORK, 0);
    let mprotect = mb.declare_syscall_stub("mprotect", sysno::MPROTECT, 3);
    let mut f = mb.function("main", &[], Ty::I64);
    let pid = f.call_direct(fork, &[]);
    let is_child = f.cmp(bastion_ir::CmpOp::Eq, pid, 0i64);
    let child_b = f.new_block();
    let done = f.new_block();
    f.br(is_child, child_b, done);
    f.switch_to(child_b);
    let z = Operand::Imm(0);
    let _ = f.call_direct(mprotect, &[z, z, Operand::Imm(7)]);
    f.jmp(done);
    f.switch_to(done);
    f.ret(Some(Operand::Imm(0)));
    f.finish();

    let mut world = World::new(CostModel::default());
    let parent = spawn(&mut world, mb);
    let mut filter = SeccompFilter::new(SeccompAction::Allow);
    filter.set(sysno::MPROTECT, SeccompAction::Kill);
    world.install_seccomp(parent, filter.shared(), false);
    assert_eq!(world.run(10_000_000), RunStatus::AllExited);
    let child = world
        .procs
        .iter()
        .find(|p| p.parent == Some(parent))
        .expect("child spawned");
    assert_eq!(
        child.exit,
        Some(ExitReason::SeccompKill {
            nr: sysno::MPROTECT
        })
    );
    assert_eq!(
        world.proc(parent).unwrap().exit,
        Some(ExitReason::Exited(0))
    );
    // The parent's clean exit comes first in pid order; the child's kill
    // still decides the run.
    assert_eq!(world.decisive_exit(), child.exit.as_ref());
}

#[test]
fn tracer_allow_and_deny_paths() {
    struct DenyExecve;
    impl bastion_kernel::Tracer for DenyExecve {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn on_trap(&mut self, t: &mut bastion_kernel::Tracee<'_>) -> bastion_kernel::TraceVerdict {
            let regs = t.getregs();
            if regs.nr == sysno::EXECVE {
                bastion_kernel::TraceVerdict::Deny(Box::new(DenyRecord {
                    trap_seq: 2,
                    sysno: regs.nr,
                    context: DenyContext::CallType,
                    rule: DenyRule::NotDirectlyCallable,
                    expected: None,
                    observed: None,
                    fault_ctx: FaultCtx::default(),
                    ladder_rung: "full",
                    message: "execve denied".into(),
                    flight: Vec::new(),
                }))
            } else {
                bastion_kernel::TraceVerdict::Allow
            }
        }
    }

    let mut mb = ModuleBuilder::new("traced");
    let getpid = mb.declare_syscall_stub("getpid", sysno::GETPID, 0);
    let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
    let mut f = mb.function("main", &[], Ty::I64);
    let _ = f.call_direct(getpid, &[]);
    let z = Operand::Imm(0);
    let _ = f.call_direct(execve, &[z, z, z]);
    f.ret(Some(Operand::Imm(0)));
    f.finish();

    let mut world = World::new(CostModel::default());
    let pid = spawn(&mut world, mb);
    let mut filter = SeccompFilter::new(SeccompAction::Allow);
    filter.set(sysno::GETPID, SeccompAction::Trace);
    filter.set(sysno::EXECVE, SeccompAction::Trace);
    world.install_seccomp(pid, filter.shared(), true);
    world.attach_tracer(Box::new(DenyExecve));
    assert_eq!(world.run(10_000_000), RunStatus::AllExited);
    let exit = world.proc(pid).unwrap().exit.clone().unwrap();
    match &exit {
        ExitReason::MonitorKill { nr, reason } => {
            assert_eq!(*nr, sysno::EXECVE);
            assert_eq!(reason.to_string(), "CT: execve denied");
        }
        other => panic!("execve was not denied: {other:?}"),
    }
    assert_eq!(world.decisive_exit(), Some(&exit));
    // getpid was traced, allowed, and executed; monitoring cost accrued.
    assert_eq!(world.kernel.count_of(sysno::GETPID), 1);
    assert_eq!(world.kernel.count_of(sysno::EXECVE), 0);
    assert_eq!(world.trap_count, 2);
    assert!(world.trace_cycles > 0);
}

#[test]
fn nanosleep_advances_virtual_time() {
    let mut mb = ModuleBuilder::new("sleeper");
    let nanosleep = mb.declare_syscall_stub("nanosleep", sysno::NANOSLEEP, 2);
    let mut f = mb.function("main", &[], Ty::I64);
    let _ = f.call_direct(nanosleep, &[100_000i64.into(), 0i64.into()]);
    f.ret(Some(Operand::Imm(0)));
    f.finish();

    let mut world = World::new(CostModel::default());
    spawn(&mut world, mb);
    // A world whose only live process sleeps advances the clock to the
    // wake deadline by itself: one run call carries it over the sleep and
    // to exit, and virtual time reflects the full sleep duration.
    assert_eq!(world.run(50_000_000), RunStatus::AllExited);
    assert!(
        world.now() >= 100_000,
        "sleep must advance virtual time: now={}",
        world.now()
    );
}

#[test]
fn file_io_through_syscalls() {
    let mut mb = ModuleBuilder::new("files");
    let open = mb.declare_syscall_stub("open", sysno::OPEN, 3);
    let read = mb.declare_syscall_stub("read", sysno::READ, 3);
    let write = mb.declare_syscall_stub("write", sysno::WRITE, 3);
    let close = mb.declare_syscall_stub("close", sysno::CLOSE, 1);
    let path = mb.global_str("path", "/etc/motd");

    let mut f = mb.function("main", &[], Ty::I64);
    let buf = f.local("buf", Ty::Array(Box::new(Ty::I8), 32));
    let pa = f.global_addr(path);
    let fd = f.call_direct(open, &[pa.into(), 0i64.into(), 0i64.into()]);
    let ba = f.frame_addr(buf);
    let n = f.call_direct(read, &[fd.into(), ba.into(), 32i64.into()]);
    let ba2 = f.frame_addr(buf);
    let _ = f.call_direct(write, &[1i64.into(), ba2.into(), n.into()]);
    let _ = f.call_direct(close, &[fd.into()]);
    f.ret(Some(n.into()));
    f.finish();

    let mut world = World::new(CostModel::default());
    world
        .kernel
        .vfs
        .put_file("/etc/motd", b"hello world".to_vec(), 0o644);
    let pid = spawn(&mut world, mb);
    assert_eq!(world.run(10_000_000), RunStatus::AllExited);
    assert_eq!(world.kernel.console, b"hello world");
    assert_eq!(world.proc(pid).unwrap().exit, Some(ExitReason::Exited(11)));
}

#[test]
fn run_budget_is_respected() {
    // An infinite loop: run() must come back with Budget, repeatedly, and
    // the clock must advance monotonically.
    let mut mb = ModuleBuilder::new("spin");
    let mut f = mb.function("main", &[], Ty::I64);
    let header = f.new_block();
    f.jmp(header);
    f.switch_to(header);
    f.jmp(header);
    f.finish();
    let mut world = World::new(CostModel::default());
    spawn(&mut world, mb);
    let t0 = world.now();
    assert_eq!(world.run(10_000), RunStatus::Budget);
    let t1 = world.now();
    assert!(t1 > t0);
    assert_eq!(world.run(10_000), RunStatus::Budget);
    assert!(world.now() > t1);
    assert_eq!(world.alive_count(), 1);
}

/// Allows every trap after one register fetch (one substrate access).
struct FetchAndAllow;

impl bastion_kernel::Tracer for FetchAndAllow {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_trap(&mut self, t: &mut bastion_kernel::Tracee<'_>) -> bastion_kernel::TraceVerdict {
        let _ = t.try_getregs();
        bastion_kernel::TraceVerdict::Allow
    }

    fn snapshot_box(&self) -> Option<Box<dyn bastion_kernel::Tracer>> {
        Some(Box::new(FetchAndAllow))
    }
}

/// A traced guest making five `getpid` calls, with `schedule` installed.
fn five_traced_getpids(schedule: bastion_kernel::FaultSchedule) -> World {
    let mut mb = ModuleBuilder::new("resume");
    let getpid = mb.declare_syscall_stub("getpid", sysno::GETPID, 0);
    let mut f = mb.function("main", &[], Ty::I64);
    for _ in 0..5 {
        let _ = f.call_direct(getpid, &[]);
    }
    f.ret(Some(Operand::Imm(0)));
    f.finish();
    let mut world = World::new(CostModel::default());
    let pid = spawn(&mut world, mb);
    let mut filter = SeccompFilter::new(SeccompAction::Allow);
    filter.set(sysno::GETPID, SeccompAction::Trace);
    world.install_seccomp(pid, filter.shared(), true);
    world.attach_tracer(Box::new(FetchAndAllow));
    world.install_faults(schedule);
    world
}

#[test]
fn restore_resuming_decides_on_the_snapshot_injector() {
    use bastion_kernel::{FaultKind, FaultSchedule, Trigger};

    // Park a quiet world right after its second trap (two accesses).
    let mut parked = five_traced_getpids(FaultSchedule::default());
    while parked.trap_count < 2 {
        assert_eq!(parked.run(10), RunStatus::Budget);
    }
    assert_eq!(parked.trap_count, 2);
    let snap = parked.snapshot();

    let stall = |t| FaultSchedule::new(9).with(FaultKind::Stall { cycles: 777 }, t);
    // Triggers the two parked traps could have matched are refused.
    for t in [
        Trigger::OnTrap(2),
        Trigger::OnAccess(1),
        Trigger::FromAccess(2),
    ] {
        assert!(World::restore_resuming(&snap, stall(t)).is_none(), "{t:?}");
    }
    // A world without an injector never resumes.
    let bare = World::new(CostModel::default()).snapshot();
    assert!(World::restore_resuming(&bare, FaultSchedule::default()).is_none());

    // Past the prefix: the resumed world runs on exactly as one that had
    // the schedule installed from the start.
    let late = stall(Trigger::FromAccess(3));
    let mut warm = World::restore_resuming(&snap, late.clone()).expect("prefix is quiet");
    assert_eq!(warm.fault_schedule(), Some(late.clone()));
    assert_eq!(warm.fault_trap_count(), 2);
    let mut cold = five_traced_getpids(late);
    for w in [&mut warm, &mut cold] {
        assert_eq!(w.run(10_000_000), RunStatus::AllExited);
    }
    assert_eq!(warm.fault_log().len(), 3, "traps 3-5 each stalled once");
    assert_eq!(warm.fault_log(), cold.fault_log());
    assert_eq!(warm.trap_count, cold.trap_count);
    assert_eq!(warm.trace_cycles, cold.trace_cycles);
    assert_eq!(warm.now(), cold.now());
    assert_eq!(warm.steps, cold.steps);
}

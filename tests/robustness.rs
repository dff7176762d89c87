//! Robustness properties beyond the headline experiments:
//! §11.1 (static constraints under arbitrary read/write), §10.1 (CET vs
//! ROP), §11.3 (not-callable covers non-sensitive syscalls), and shadow
//! placement diversity.

use bastion::attacks::env::Defense;
use bastion::attacks::scenario::{ret2stub_parked, StubArgs};
use bastion::attacks::{AttackEnv, Victim};
use bastion::ir::sysno;
use bastion::kernel::{DenyRule, ExitReason};
use bastion::monitor::ContextConfig;

fn ai_only() -> ContextConfig {
    ContextConfig {
        call_type: false,
        control_flow: false,
        arg_integrity: true,
        fetch_state: false,
        resilience: bastion_monitor::Resilience::default(),
        prefilter: false,
    }
}

/// §11.1's own example: "if mprotect() is used only with a constant
/// value, PROT_READ, then it is impossible to call mprotect() with
/// PROT_EXEC because such static constraints are maintained by the
/// monitor ... never available to the protected application."
///
/// The attacker spoofs dbkv's legitimate `mprotect(page_cache, 4096,
/// PROT_READ)` callsite and matches the first two arguments against their
/// shadow copies exactly (arbitrary read gives them the values) — only
/// the RWX protection differs, and the constant constraint catches it.
#[test]
fn spoofed_callsite_cannot_beat_constant_constraints() {
    let mut env = AttackEnv::deploy(Victim::Dbkv, Some(ai_only()), false, false);
    let parked = env.park();
    // Drive enough transactions that protect_cycle has legitimately run,
    // populating the callsite's argument bindings.
    for i in 0..110 {
        env.send_request(
            parked,
            format!(
                "NEWORDER 1 {i} 2
"
            )
            .as_bytes(),
        );
    }
    assert!(env.world.kernel.count_of(sysno::MPROTECT) >= 2);
    let cache = env.read_u64(parked.pid, env.sym("page_cache"));
    ret2stub_parked(
        &mut env,
        parked,
        "mprotect",
        &StubArgs::Words(vec![cache, 4096, 7]), // args 1,2 match; prot is RWX
        Some(("protect_cycle", sysno::MPROTECT)),
    );
    env.wake(parked);
    assert_eq!(env.defense_fired(), Defense::MonitorAi);
    assert!(!env.wx_happened());
    // The kill reason names the violated constant.
    let Some(ExitReason::MonitorKill { reason, .. }) = env.world.decisive_exit() else {
        panic!("no monitor kill: {:?}", env.world.decisive_exit());
    };
    assert_eq!(reason.rule, DenyRule::ConstArgMismatch, "reason: {reason}");
}

/// §10.1: on CET-capable hardware the ROP vehicle itself dies with a #CP
/// fault before any syscall fires — BASTION's ROP rows exist for the
/// pre-CET world.
#[test]
fn cet_kills_the_rop_vehicle_outright() {
    let mut env = AttackEnv::deploy(Victim::Webserve, None, false, true);
    let parked = env.park();
    ret2stub_parked(
        &mut env,
        parked,
        "execve",
        &StubArgs::ExecvePath("/bin/sh"),
        None,
    );
    env.wake(parked);
    assert_eq!(env.defense_fired(), Defense::Cet);
    assert!(!env.execve_happened("/bin/sh"));
}

/// §11.3: the Call-Type context's not-callable class covers *every*
/// syscall, sensitive or not — nanosleep is harmless but unused by dbkv,
/// so reaching its stub is killed by the seccomp filter.
#[test]
fn not_callable_covers_non_sensitive_syscalls() {
    let mut env = AttackEnv::deploy(Victim::Dbkv, Some(ContextConfig::full()), false, false);
    let parked = env.park();
    ret2stub_parked(
        &mut env,
        parked,
        "nanosleep",
        &StubArgs::Words(vec![1000, 0]),
        None,
    );
    env.wake(parked);
    assert_eq!(env.defense_fired(), Defense::Seccomp);
    assert_eq!(env.world.kernel.count_of(sysno::NANOSLEEP), 0);
}

/// The shadow region's base moves with the ASLR seed, so an attacker who
/// wants to forge shadow entries must first break its randomization
/// (threat-model boundary discussed in §11.1).
#[test]
fn shadow_base_is_randomized_with_aslr() {
    use bastion::vm::ImageBuilder;
    let module = Victim::Webserve.module();
    let bases: Vec<u64> = [1u64, 2, 3]
        .iter()
        .map(|&seed| {
            ImageBuilder::new()
                .aslr_seed(seed)
                .build(module.clone())
                .expect("image")
                .shadow
                .base
        })
        .collect();
    assert_ne!(bases[0], bases[1]);
    assert_ne!(bases[1], bases[2]);
}

/// Under full protection, a worker that survives an *attempted* (blocked)
/// attack leaves the rest of the service functional: the master and the
/// other workers keep serving.
#[test]
fn service_survives_a_blocked_attack() {
    let mut env = AttackEnv::deploy(Victim::Webserve, Some(ContextConfig::full()), false, false);
    let parked = env.park();
    ret2stub_parked(
        &mut env,
        parked,
        "execve",
        &StubArgs::ExecvePath("/bin/sh"),
        None,
    );
    env.wake(parked);
    assert_eq!(env.defense_fired(), Defense::MonitorCf);
    // One worker died; the listener and remaining workers still serve.
    assert!(env.world.alive_count() >= 2);
    let c = env.world.net_connect(Victim::Webserve.port()).unwrap();
    env.world.net_send(c, b"GET /index.html HTTP/1.1\r\n\r\n");
    env.settle();
    let resp = env.world.net_recv(c);
    assert!(
        resp.starts_with(b"HTTP/1.0 200 OK"),
        "service dead after blocked attack: {:?}",
        String::from_utf8_lossy(&resp[..resp.len().min(40)])
    );
}

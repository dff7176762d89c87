//! Cross-crate integration: the full public pipeline from MiniC source to
//! a protected, monitored process.

use bastion::kernel::ExitReason;
use bastion::{Deployment, Protection};

const DAEMON: &str = r#"
struct cfg { char *socket_path; long backlog; };
struct cfg g_cfg;
char sock_path[32];

long setup(long port) {
    long fd;
    long sa[2];
    fd = socket(2, 1, 0);
    sa[0] = 2 | port * 65536;
    bind(fd, sa, 16);
    listen(fd, g_cfg.backlog);
    return fd;
}

long main() {
    strcpy(sock_path, "/run/daemon.sock");
    g_cfg.socket_path = sock_path;
    g_cfg.backlog = 16;
    long fd = setup(7070);
    if (fd < 0) { return 1; }
    setgid(50);
    setuid(50);
    puts("daemon ready\n");
    return 0;
}
"#;

#[test]
fn full_pipeline_legitimate_run() {
    let d = Deployment::from_minic("daemon", &[DAEMON]).expect("compiles");
    // The pass produced sensible metadata.
    assert!(d.metadata.stats.sensitive_callsites >= 5); // socket,bind,listen,setgid,setuid
    assert_eq!(d.metadata.stats.sensitive_indirect, 0);
    assert!(d.metadata.stats.total_instrumentation() > 0);

    let mut world = d.world();
    let pid = d.launch(&mut world, &Protection::full());
    world.run(50_000_000);
    let p = world.proc(pid).unwrap();
    assert_eq!(
        p.exit,
        Some(ExitReason::Exited(0)),
        "console: {:?}",
        String::from_utf8_lossy(&world.kernel.console)
    );
    // All five sensitive syscalls trapped and were allowed.
    assert!(world.trap_count >= 5);
    // Privileges actually dropped.
    assert_eq!(p.creds.uid, 50);
    assert_eq!(world.kernel.console, b"daemon ready\n");
}

#[test]
fn every_protection_level_allows_legitimate_code() {
    for prot in [
        Protection::vanilla(),
        Protection::llvm_cfi(),
        Protection::cet(),
        Protection::cet_ct(),
        Protection::cet_ct_cf(),
        Protection::full(),
        Protection::bastion_no_cet(),
        Protection::hook_only(),
        Protection::fetch_state(),
    ] {
        let d = Deployment::from_minic("daemon", &[DAEMON]).expect("compiles");
        let mut world = d.world();
        let pid = d.launch(&mut world, &prot);
        world.run(50_000_000);
        assert_eq!(
            world.proc(pid).unwrap().exit,
            Some(ExitReason::Exited(0)),
            "under {}",
            prot.label
        );
    }
}

#[test]
fn metadata_survives_serialization_and_rebase() {
    let d = Deployment::from_minic("daemon", &[DAEMON]).expect("compiles");
    let json = d.metadata.to_json().expect("serializes");
    let back = bastion::compiler::ContextMetadata::from_json(&json).expect("parses");
    assert_eq!(back, d.metadata);
    let shifted = back.rebased(0x10_0000);
    assert_eq!(shifted.main_entry, d.metadata.main_entry + 0x10_0000);
    assert_eq!(shifted.callsites.len(), d.metadata.callsites.len());
}

#[test]
fn aslr_does_not_break_protection() {
    use bastion::compiler::BastionCompiler;
    use bastion::vm::{CostModel, ImageBuilder};
    use std::sync::Arc;

    let module = bastion::minic::compile_program("daemon", &[DAEMON]).expect("compiles");
    let out = BastionCompiler::new().compile(module).expect("instruments");
    for seed in [3u64, 1234] {
        let image = ImageBuilder::new()
            .aslr_seed(seed)
            .build(out.module.clone())
            .expect("loads");
        assert_ne!(image.slide, 0);
        let d = Deployment {
            image: Arc::new(image),
            metadata: out.metadata.clone(),
            cost: CostModel::default(),
        };
        let mut world = d.world();
        let (pid, _) = d.boot(&mut world, &Protection::bastion_no_cet(), 50_000_000);
        assert_eq!(
            world.proc(pid).unwrap().exit,
            Some(ExitReason::Exited(0)),
            "seed {seed}"
        );
    }
}

#[test]
fn cli_style_violation_reporting() {
    // A program that calls a never-used-elsewhere sensitive syscall through
    // a corrupted-looking indirect pointer is killed with a CT reason.
    let src = r#"
        fnptr handler;
        long main() {
            handler = mprotect;        // address taken, but class is
            handler(4096, 4096, 7);    // indirectly-callable => allowed!
            return 0;
        }
    "#;
    // Here mprotect IS legitimately indirectly-callable (address taken,
    // called through the pointer) — protection must allow it.
    let d = Deployment::from_minic("ptr", &[src]).expect("compiles");
    assert!(d
        .metadata
        .syscall_classes
        .get(&bastion::ir::sysno::MPROTECT)
        .unwrap()
        .allows_indirect());
    let mut world = d.world();
    let pid = d.launch(&mut world, &Protection::cet_ct());
    world.run(10_000_000);
    assert_eq!(world.proc(pid).unwrap().exit, Some(ExitReason::Exited(0)));
}

//! Quickstart: compile a small MiniC daemon under BASTION, serve it a
//! request while protected, then corrupt its memory like an attacker and
//! watch the monitor kill it at the syscall boundary.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bastion::kernel::ExitReason;
use bastion::{Deployment, Protection};

/// A tiny daemon: maps an arena, then re-applies page protection for every
/// admin command it receives on its control socket.
const APP: &str = r#"
long arena;

void lock_pages(long prots) {
    mprotect(arena, 4096, prots);
}

long main() {
    long listener;
    long sa[2];
    long conn;
    char buf[16];

    arena = mmap(0, 65536, 3, 0x21, 0 - 1, 0);
    lock_pages(1);                      // PROT_READ — the legitimate value
    listener = socket(2, 1, 0);
    sa[0] = 2 | 9000 * 65536;
    bind(listener, sa, 16);
    listen(listener, 4);
    puts("daemon ready\n");
    while (1) {
        conn = accept(listener, 0, 0);
        if (read(conn, buf, 15) <= 0) { return 0; }
        lock_pages(1);                  // re-lock on every admin command
        write(conn, "locked\n", 7);
        close(conn);
    }
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile: analysis + instrumentation + context metadata.
    let deployment = Deployment::from_minic("quickstart", &[APP])?;
    let stats = &deployment.metadata.stats;
    println!(
        "compiled: {} callsites, {} sensitive, {} instrumentation points",
        stats.total_callsites,
        stats.sensitive_callsites,
        stats.total_instrumentation()
    );

    // 2. Serve a legitimate admin command under full protection.
    let mut world = deployment.world();
    // Boots, then parks in accept.
    let (pid, _) = deployment.boot(&mut world, &Protection::full(), 10_000_000);
    let c = world.net_connect(9000).expect("daemon listening");
    world.net_send(c, b"relock\n");
    world.run(10_000_000);
    println!(
        "legitimate command: reply {:?}, {} sensitive-syscall traps, daemon alive: {}",
        String::from_utf8_lossy(&world.net_recv(c)),
        world.trap_count,
        world.proc(pid).unwrap().alive()
    );
    assert!(world.proc(pid).unwrap().alive());

    // 3. The attack: with the daemon parked in accept, use the memory
    //    vulnerability to overwrite `arena` — the pointer the next
    //    mprotect will receive — then send another command.
    let arena_sym = deployment.image.symbol("arena").expect("arena symbol");
    {
        let p = world.proc_mut(pid).unwrap();
        p.machine
            .mem
            .write_unchecked(arena_sym, &0x1337_0000u64.to_le_bytes());
    }
    let c = world.net_connect(9000).expect("daemon listening");
    world.net_send(c, b"relock\n");
    world.run(10_000_000);
    match world.proc(pid).unwrap().exit.clone() {
        Some(ExitReason::MonitorKill { nr, reason }) => {
            // The kill reason is the monitor's deny record; print its text.
            let text = reason.to_string();
            println!("after corruption: Some(MonitorKill {{ nr: {nr}, reason: {text:?} }})");
            println!("BASTION blocked the attack: {reason}");
            Ok(())
        }
        other => Err(format!("attack was not blocked: {other:?}").into()),
    }
}

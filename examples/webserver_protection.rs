//! Boot the NGINX-analogue web server under full BASTION protection, serve
//! real HTTP traffic through the wrk-style load generator, and print the
//! paper's per-app statistics (Table 4 flavor).
//!
//! ```sh
//! cargo run --release --example webserver_protection
//! ```

use bastion::apps::{loadgen, App};
use bastion::ir::sysno;
use bastion::{Deployment, Protection};

fn main() {
    let app = App::Webserve;
    let protection = Protection::full();
    println!("booting {} under {} ...", app.label(), protection.label);

    let d = Deployment::from_module(app.module().expect("webserve compiles"))
        .expect("instrumentation succeeds");
    let mut world = d.world();
    app.setup_vfs(&mut world);
    d.boot(&mut world, &protection, 1_000_000_000);
    println!(
        "boot complete: {} processes (1 master + 32 workers), {} init-phase traps",
        world.alive_count(),
        world.trap_count
    );

    let boot_traps = world.trap_count;
    let stats = loadgen::http_load(&mut world, app.port(), 16, 600);
    println!(
        "served {} requests / {:.1} MB in {:.1} virtual ms ({:.1} MB/s); {} in-window traps",
        stats.requests,
        stats.bytes as f64 / 1e6,
        stats.cycles as f64 / 2e6,
        stats.throughput_mb_s(2_000_000_000),
        world.trap_count - boot_traps,
    );

    println!();
    println!("sensitive syscall usage (Table 4 flavor):");
    for &(nr, _) in sysno::SENSITIVE {
        let n = world.kernel.count_of(nr);
        if n > 0 {
            println!("  {:<18} {n}", sysno::name(nr).expect("named"));
        }
    }
    if let Some(stats) = bastion::chaos::monitor_stats(&mut world) {
        println!();
        println!(
            "monitor: {} traps, 0 violations = {}, stack depth avg {:.1} (min {}, max {})",
            stats.traps,
            stats.violations() == 0,
            stats.avg_depth(),
            stats.min_depth,
            stats.max_depth
        );
    }
}

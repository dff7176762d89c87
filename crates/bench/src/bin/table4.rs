//! Table 4: sensitive system call usage observed while benchmarking each
//! application under full BASTION protection, plus the §9.2 stack-depth
//! statistics.
//!
//! The syscall table comes from the shipped two-tier configuration. The
//! depth statistics come from a tier-2-only run of the same protection:
//! under two tiers the prefilter settles every clean trap without a stack
//! walk, so only the tier-2 monitor, the one the paper measures, walks.

use bastion::apps::ALL_APPS;
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, WorkloadSize};
use bastion::ir::sysno;
use bastion::monitor::ContextConfig;
use bastion::vm::CostModel;
use bastion::Protection;

fn main() {
    let size = WorkloadSize::standard();
    let compiler = BastionCompiler::new();
    let cost = CostModel::default();
    let mut tier2_only = Protection::full();
    tier2_only.monitor = Some(ContextConfig::full().with_prefilter(false));
    let run = |protection: &Protection| -> Vec<_> {
        ALL_APPS
            .iter()
            .map(|&app| {
                eprintln!("running {} ({}) ...", app.label(), protection.label);
                run_app_benchmark(app, protection, &size, &compiler, cost)
            })
            .collect()
    };
    let runs = run(&Protection::full());
    let walks = run(&tier2_only);

    println!("Table 4: Sensitive system call usage from benchmarking");
    println!();
    print!("{:<20}", "System call");
    for app in ALL_APPS {
        print!(" {:>18}", app.id());
    }
    println!();
    let mut totals = [0u64; 3];
    for &(nr, _) in sysno::SENSITIVE {
        print!("{:<20}", sysno::name(nr).expect("named"));
        for (i, r) in runs.iter().enumerate() {
            let n = r.syscall_counts.get(&nr).copied().unwrap_or(0);
            totals[i] += n;
            print!(" {n:>18}");
        }
        println!();
    }
    print!("{:<20}", "Total monitor hooks");
    for r in &runs {
        print!(" {:>18}", r.traps);
    }
    println!();

    println!();
    println!(
        "Stack-walk depth statistics (paper §9.2; tier 2 only, \
         ContextConfig::full().with_prefilter(false)):"
    );
    for (app, r) in ALL_APPS.iter().zip(&walks) {
        if let Some(m) = &r.monitor {
            println!(
                "  {:<18} avg {:.1}  min {}  max {}   (init {} cycles ≈ {:.2} ms)",
                app.id(),
                m.avg_depth(),
                m.min_depth,
                m.max_depth,
                m.init_cycles,
                m.init_cycles as f64 / cost.cpu_hz as f64 * 1000.0,
            );
        }
        let _ = app;
    }
}

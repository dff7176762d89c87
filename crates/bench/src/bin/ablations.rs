//! Ablation studies for the design decisions DESIGN.md calls out:
//!
//! 1. **In-kernel monitor** (§11.2): replacing ptrace with in-kernel
//!    execution removes the context-switch cost that dominates Table 7.
//! 2. **ASLR compatibility** (§9.2): BASTION is relative-addressing based;
//!    protection behaves identically under different load slides.
//! 3. **Monitor initialization cost** (§9.2: ≈21 ms for NGINX).
//! 4. **Stack-walk termination** at `main`/indirect entries vs. walk depth.
//! 5. **Tier-1 prefilter**: cycles per trap with every trap verified by
//!    the ptrace monitor vs. the seccomp-time prefilter on top (DESIGN.md
//!    §6g).
//! 6. **Phase attribution**: span-traced breakdown of where the monitor's
//!    trap cycles actually go, tier 2 only vs two tiers.

use bastion::apps::{App, ALL_APPS};
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, WorkloadSize};
use bastion::ir::sysno;
use bastion::vm::CostModel;
use bastion::{Deployment, Protection};

fn main() {
    let size = WorkloadSize::standard();

    println!("Ablation 1: in-kernel monitor vs ptrace-based monitor (§11.2)");
    println!("(full context checking with the extended filesystem-syscall scope)");
    println!();
    let compiler = BastionCompiler::with_sensitive(sysno::extended_sensitive_set());
    for app in ALL_APPS {
        eprintln!("running {} (ptrace vs in-kernel)...", app.label());
        let base = run_app_benchmark(
            app,
            &Protection::vanilla(),
            &size,
            &compiler,
            CostModel::default(),
        );
        let ptrace = run_app_benchmark(
            app,
            &Protection::full(),
            &size,
            &compiler,
            CostModel::default(),
        );
        let inkernel = run_app_benchmark(
            app,
            &Protection::full(),
            &size,
            &compiler,
            CostModel::in_kernel_monitor(),
        );
        // The in-kernel run has its own baseline under the same cost model.
        let base_ik = run_app_benchmark(
            app,
            &Protection::vanilla(),
            &size,
            &compiler,
            CostModel::in_kernel_monitor(),
        );
        println!(
            "  {:<18} ptrace {:+8.2}%   in-kernel {:+8.2}%",
            app.id(),
            ptrace.overhead_vs(&base),
            inkernel.overhead_vs(&base_ik),
        );
    }

    println!();
    println!("Ablation 2: ASLR compatibility (§9.2)");
    let quick = WorkloadSize::quick();
    let compiler = BastionCompiler::new();
    for seed in [0u64, 7, 99] {
        let out = compiler
            .compile(App::Webserve.module().expect("compiles"))
            .expect("instrumentation");
        let image = bastion::vm::ImageBuilder::new()
            .aslr_seed(seed)
            .build(out.module)
            .expect("image");
        let d = Deployment {
            image: std::sync::Arc::new(image),
            metadata: out.metadata,
            cost: CostModel::default(),
        };
        let mut world = d.world();
        App::Webserve.setup_vfs(&mut world);
        d.boot(&mut world, &Protection::bastion_no_cet(), 2_000_000_000);
        let stats = bastion::apps::loadgen::http_load(
            &mut world,
            App::Webserve.port(),
            quick.http_concurrency,
            quick.http_requests,
        );
        let traps = world.trap_count;
        let clean = bastion::chaos::monitor_stats(&mut world).is_some_and(|m| m.violations() == 0);
        println!(
            "  slide seed {seed:>3}: code base {:#x}, {} requests served, {traps} traps, 0 violations = {clean}",
            d.image.layout.code_base().raw(),
            stats.requests,
        );
    }

    println!();
    println!("Ablation 3: BASTION's AI scope vs DFI-style all-store shadowing (§3.3)");
    println!("(instrumentation counts + dbkv overhead vs unprotected baseline)");
    {
        use bastion::compiler::InstrumentationBreadth;
        let quick = WorkloadSize::quick();
        let cost = CostModel::default();
        for (label, breadth) in [
            (
                "BASTION (sensitive only)",
                InstrumentationBreadth::SensitiveOnly,
            ),
            ("DFI-style (every store)", InstrumentationBreadth::AllStores),
        ] {
            let compiler = BastionCompiler::new().with_breadth(breadth);
            let out = compiler
                .compile(App::Dbkv.module().expect("compiles"))
                .expect("instrumentation");
            let base =
                run_app_benchmark(App::Dbkv, &Protection::vanilla(), &quick, &compiler, cost);
            let full = run_app_benchmark(App::Dbkv, &Protection::full(), &quick, &compiler, cost);
            println!(
                "  {:<26} {:>6} ctx_write_mem sites   overhead {:+7.2}%",
                label,
                out.metadata.stats.ctx_write_mem,
                full.overhead_vs(&base),
            );
        }
    }

    println!();
    println!("Ablation 4: monitor initialization cost (§9.2, paper: ≈21 ms for NGINX)");
    for app in ALL_APPS {
        let d = Deployment::with_compiler(app.module().expect("compiles"), &compiler)
            .expect("instrumentation");
        let info = bastion::monitor::LaunchInfo::from_image(&d.image, &d.metadata);
        let m = bastion::monitor::Monitor::new(
            &d.metadata,
            bastion::monitor::ContextConfig::full(),
            info,
        );
        println!(
            "  {:<18} {:>8} cycles  ≈ {:.3} ms   ({} callsites, {} functions)",
            app.id(),
            m.stats.init_cycles,
            m.stats.init_cycles as f64 / 2e9 * 1000.0,
            d.metadata.callsites.len(),
            d.metadata.functions.len(),
        );
    }

    println!();
    println!("Ablation 5: tier-1 prefilter — cycles per trap, tier 2 only vs two tiers");
    println!("(full contexts; trace cycles per trap, monitor init excluded)");
    {
        use bastion::monitor::ContextConfig;
        let quick = WorkloadSize::quick();
        let compiler = BastionCompiler::new();
        for (label, cfg) in [
            (
                "tier-2 monitor only",
                ContextConfig::full().with_prefilter(false),
            ),
            ("tier-1 prefilter (DESIGN §6g)", ContextConfig::full()),
        ] {
            let mut prot = Protection::full();
            prot.monitor = Some(cfg);
            let r = run_app_benchmark(
                App::Webserve,
                &prot,
                &quick,
                &compiler,
                CostModel::default(),
            );
            let stats = r.monitor.as_ref().expect("monitor attached");
            println!(
                "  {:<29} {:>9.0} cycles/trap over {} traps  (ct hits {}, walk hits {}, batched frame reads {}, batched pointee reads {}, prefilter hits {}/{})",
                label,
                r.steady_cycles_per_trap(),
                r.traps,
                stats.ct_cache_hits,
                stats.walk_cache_hits,
                stats.batched_frame_reads,
                stats.batched_pointee_reads,
                stats.prefilter_hits,
                stats.prefilter_checks,
            );
        }
    }

    println!();
    println!("Ablation 6: phase attribution — span-traced monitor time per trap phase");
    println!("(webserve/quick; self cycles exclude child phases; tracing charges nothing)");
    {
        use bastion::monitor::ContextConfig;
        use bastion::obs;
        let quick = WorkloadSize::quick();
        let compiler = BastionCompiler::new();
        for (label, cfg) in [
            (
                "tier-2 monitor only",
                ContextConfig::full().with_prefilter(false),
            ),
            ("tier-1 prefilter (DESIGN §6g)", ContextConfig::full()),
        ] {
            let mut prot = Protection::full();
            prot.monitor = Some(cfg);
            let guard = obs::TelemetryGuard::enable(1 << 17);
            let r = run_app_benchmark(
                App::Webserve,
                &prot,
                &quick,
                &compiler,
                CostModel::default(),
            );
            let (events, _) = guard.finish();
            let totals = obs::phase_totals(&events);
            let trap_time = totals
                .iter()
                .find(|t| t.phase == obs::Phase::Trap)
                .map_or(1, |t| t.cycles.max(1));
            println!("  {label} ({} traps):", r.traps);
            for t in totals.iter().filter(|t| t.spans > 0) {
                println!(
                    "    {:<18} spans={:<6} self={:<10} ({:5.1}% of trap time)",
                    t.phase.name(),
                    t.spans,
                    t.self_cycles,
                    t.self_cycles as f64 * 100.0 / trap_time as f64,
                );
            }
        }
    }
}

//! The paper's evaluation artifacts (§9, §10, §11.2) as text, and the
//! monitor's denies per deny rule (§7.2–§7.4).
//!
//! Each [`Artifact`] renders the paper-style table from a deterministic
//! virtual-time run, so the text is the same on every host and for any
//! worker count. `bastion paper <name>` prints it, and
//! `tests/paper_artifacts.rs` holds every block in `EXPERIMENTS.md` to it.

use crate::harness::{
    run_app_benchmark, run_figure3_row, run_table7_row, AppBenchmark, WorkloadSize,
};
use crate::{fleet, Deployment, Protection};
use bastion_apps::{App, ALL_APPS};
use bastion_attacks::generate::{self, Generator};
use bastion_attacks::{catalog, AttackEnv};
use bastion_compiler::{BastionCompiler, InstrStats, InstrumentationBreadth};
use bastion_ir::sysno::{self, AttackVector};
use bastion_kernel::World;
use bastion_monitor::ContextConfig;
use bastion_obs::{self as obs, deny::RULES, DenyRule};
use bastion_vm::CostModel;
use std::fmt::{self, Write as _};

/// One evaluation artifact of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Table 1: sensitive system call classification.
    Table1,
    /// Figure 3 with Table 3: overhead and raw metrics per defense.
    Fig3,
    /// Table 4: sensitive syscall usage and §9.2 stack-walk depths.
    Table4,
    /// Table 5: instrumentation statistics.
    Table5,
    /// Table 6: the 32-attack security evaluation.
    Table6,
    /// Table 7: overhead with filesystem syscalls protected (§11.2).
    Table7,
    /// The design ablations (§9.2, §11.2, DESIGN.md §6e–§6g).
    Ablations,
    /// Monitor denies per deny rule over four harnesses (§7.2–§7.4).
    DenyRules,
}

impl Artifact {
    /// Every artifact, in paper order.
    pub const ALL: [Artifact; 8] = [
        Artifact::Table1,
        Artifact::Fig3,
        Artifact::Table4,
        Artifact::Table5,
        Artifact::Table6,
        Artifact::Table7,
        Artifact::Ablations,
        Artifact::DenyRules,
    ];

    /// The artifact's name on the command line (`bastion paper <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Table1 => "table1",
            Artifact::Fig3 => "fig3",
            Artifact::Table4 => "table4",
            Artifact::Table5 => "table5",
            Artifact::Table6 => "table6",
            Artifact::Table7 => "table7",
            Artifact::Ablations => "ablations",
            Artifact::DenyRules => "deny-rules",
        }
    }
}

/// Renders `artifact` as the text `bastion paper <name>` prints, and a
/// failure when a row diverges from the paper (Table 6) or a deny rule is
/// left unsettled (deny-rules). Those two run on [`fleet::default_jobs`]
/// workers; their text does not depend on the count.
pub fn render(artifact: Artifact) -> (String, Option<String>) {
    let write: fn(&mut String) -> fmt::Result = match artifact {
        Artifact::Table1 => table1,
        Artifact::Fig3 => fig3,
        Artifact::Table4 => table4,
        Artifact::Table5 => table5,
        Artifact::Table6 => return table6(fleet::default_jobs()),
        Artifact::DenyRules => return deny_rules(fleet::default_jobs()),
        Artifact::Table7 => table7,
        Artifact::Ablations => ablations,
    };
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write(&mut out);
    (out, None)
}

/// Table 6 evaluated on `jobs` workers: the rendered table, and a failure
/// that names every scenario whose verdicts diverge from the paper's
/// matrix (`None` when all 32 match).
pub fn table6(jobs: usize) -> (String, Option<String>) {
    let results = fleet::table6_matrix(jobs);
    let mismatched: Vec<String> = results
        .iter()
        .filter(|r| !r.matches_paper())
        .map(|r| format!("#{}", r.id))
        .collect();
    let failure = (!mismatched.is_empty()).then(|| {
        format!(
            "{} scenario(s) diverged from Table 6 ({}; `bastion attack ID` shows why)",
            mismatched.len(),
            mismatched.join(", ")
        )
    });
    (bastion_attacks::render(&results), failure)
}

/// Tests that reach several rules each.
const FORGED: &str =
    "test monitor/src/prefilter.rs::each_check_alone_escalates_what_the_monitor_denies";
const RETURNED: &str = "test tests/generated.rs::returns_into_an_uncalled_stub_are_denied";
const TABLE6_AI: &str = "test tests/fleet.rs::fleet_table6_matches_serial_render (AI-only runs)";

/// How each rule that no harness below fires is settled: the workspace
/// test that reaches it, or why it stays as a substrate defence.
const SETTLED: &[(DenyRule, &str)] = &[
    (DenyRule::NotDirectlyCallable, RETURNED),
    (DenyRule::InvalidCaller, "test monitor/tests/enforcement.rs::direct_call_into_main_is_an_invalid_caller"),
    (DenyRule::ShadowReadFault, FORGED),
    (DenyRule::NoSyscallCallsite, RETURNED),
    (DenyRule::UnlistedSyscallSite, TABLE6_AI),
    (DenyRule::SysnoMismatch, RETURNED),
    (DenyRule::ConstArgMismatch, FORGED),
    (DenyRule::NoShadowCopy, FORGED),
    (DenyRule::BoundConstMismatch, FORGED),
    (DenyRule::BindingMissing, "substrate: a one-bit flip of the binding's slot trips its checksum first"),
    (DenyRule::PointeeUnreadable, FORGED),
    (DenyRule::PointeeTailUnverifiable, "substrate: needs an empty pointee read; trap-scoped read faults fail the trap's first read"),
    (DenyRule::PointeeRunsOffMapping, "test monitor/src/verify.rs::pointee_running_off_its_mapping_is_denied"),
    (DenyRule::BoundVarUnreadable, FORGED),
    (DenyRule::MissingMemBinding, "substrate: a one-bit flip of the binding's slot trips its checksum first"),
    (DenyRule::ParamSlotUnreadable, "substrate: needs one failed slot read; trap-scoped read faults fail the trap's first read"),
    (DenyRule::ConstParamCorrupted, FORGED),
    (DenyRule::GlobalAddrMismatch, TABLE6_AI),
    (DenyRule::GlobalPointeeCorrupted, FORGED),
    (DenyRule::StackAddrImplausible, FORGED),
    (DenyRule::WatchdogDeadline, "test tests/chaos.rs::watchdog_deadline_denies_slow_verification"),
    (DenyRule::DegradedMode, "test tests/chaos.rs::ladder_degraded_rung_after_retry_exhaustion"),
    (DenyRule::FailClosedMode, "test tests/chaos.rs::ladder_fail_closed_rung_after_repeated_failures"),
];

/// Monitor denies per deny rule, counted from the worlds' `MonitorKill`
/// exits over four harnesses, each row settled as fired, reached by a
/// named test or kept as a substrate defence ([`SETTLED`]). A rule with
/// no count and no note, or with both, is a failure.
pub fn deny_rules(jobs: usize) -> (String, Option<String>) {
    let full = Some(ContextConfig::full());
    let rules_of = |world: &mut World| -> Vec<DenyRule> {
        let denies = crate::chaos::monitor_report(world).map(|(_, d)| d);
        denies.iter().flatten().map(|d| d.rule).collect()
    };
    let programs = |sources: Vec<String>| {
        let runs = fleet::run_ordered(jobs, sources, |_, src| {
            rules_of(&mut generate::run_world(src, full).expect("compiles").0)
        });
        runs.concat()
    };
    let table6 = fleet::run_ordered(jobs, catalog(), |_, s| {
        let mut env = AttackEnv::deploy(s.victim, full, s.extended_set, false);
        (s.attack)(&mut env);
        env.settle();
        rules_of(&mut env.world)
    });
    let generated = (0..40).flat_map(|seed| Generator::new(seed).batch(generate::FAMILIES.len()));
    let harnesses = [
        fleet::chaos_matrix(jobs, fleet::ATTACK_SEEDS, None).deny_rules,
        table6.concat(),
        programs(generate::corpus().iter().map(|c| c.2.to_string()).collect()),
        programs(generated.map(|p| p.source).collect()),
    ];

    let mut out = String::from(
        "Deny rules: monitor denies per rule under full protection, counted from the\n\
         worlds' MonitorKill exits (rules in CT, CF, AI, fail-closed order)\n\
         \x20 chaos      the chaos matrix's benign and attack cells (2 seeds x 7 fault classes)\n\
         \x20 table6     the 32 Table 6 catalog attacks\n\
         \x20 corpus     the 11 corpus programs\n\
         \x20 generated  11 generator families x seeds 0-39\n\n\
         rule                        chaos table6 corpus generated  settled\n",
    );
    let mut unsettled = Vec::new();
    for (rule, name) in RULES {
        let count = |h: &Vec<DenyRule>| h.iter().filter(|&&r| r == rule).count();
        let n = harnesses.each_ref().map(count);
        let note = SETTLED.iter().find(|s| s.0 == rule).map(|s| s.1);
        let settled = match (n.iter().sum::<usize>() > 0, note) {
            (true, None) => "fired",
            (false, Some(note)) => note,
            _ => {
                unsettled.push(name);
                "UNSETTLED"
            }
        };
        let [a, b, c, d] = n;
        let _ = writeln!(out, "{name:<26} {a:>6} {b:>6} {c:>6} {d:>9}  {settled}");
    }
    let failure = (!unsettled.is_empty()).then(|| format!("unsettled deny rules: {unsettled:?}"));
    (out, failure)
}

/// Formats a metric the way Table 3 prints it.
fn fmt_metric(app: App, metric: f64) -> String {
    match app {
        App::Webserve => format!("{metric:9.2} MB/s"),
        App::Dbkv => format!("{metric:11.2} NOTPM"),
        App::Ftpd => format!("{metric:10.6} sec"),
    }
}

/// Formats an overhead percentage ("+1.25%").
fn fmt_overhead(col: &AppBenchmark, base: &AppBenchmark) -> String {
    format!("{:+.2}%", col.overhead_vs(base))
}

/// Left-pads a labelled row for the table printers.
fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<34}");
    for c in cells {
        s.push_str(&format!(" {c:>18}"));
    }
    s
}

/// Table 1: classification of sensitive system calls commonly leveraged
/// by attackers.
fn table1(out: &mut String) -> fmt::Result {
    out.push_str("Table 1: Classification of sensitive system calls\n\n");
    writeln!(out, "{:<26} Applicable System Calls", "Classification")?;
    for vector in [
        AttackVector::ArbitraryCodeExecution,
        AttackVector::MemoryPermissions,
        AttackVector::PrivilegeEscalation,
        AttackVector::Networking,
    ] {
        let names: Vec<&str> = sysno::SENSITIVE
            .iter()
            .filter(|&&(_, v)| v == vector)
            .map(|&(nr, _)| sysno::name(nr).expect("named"))
            .collect();
        writeln!(out, "{:<26} {}", vector.label(), names.join(", "))?;
    }
    writeln!(
        out,
        "\n{} sensitive system calls protected by default; seccomp KILLs every\n\
         not-callable syscall and TRACEs the callable sensitive ones.",
        sysno::SENSITIVE.len()
    )
}

/// Figure 3 + Table 3: performance overhead of LLVM CFI, CET, and the
/// three BASTION context configurations for all three applications,
/// against the unprotected vanilla baseline.
fn fig3(out: &mut String) -> fmt::Result {
    let size = WorkloadSize::standard();
    let cost = CostModel::default();
    let rows: Vec<_> = ALL_APPS
        .iter()
        .map(|&app| (app, run_figure3_row(app, &size, cost)))
        .collect();

    out.push_str("Figure 3: Performance overhead vs. unprotected vanilla (virtual time)\n\n");
    let headers = ["LLVM CFI", "CET", "CET+CT", "CET+CT+CF", "CET+CT+CF+AI"].map(String::from);
    writeln!(out, "{}", row("Application", &headers))?;
    for (app, (base, cols)) in &rows {
        let cells: Vec<String> = cols.iter().map(|c| fmt_overhead(c, base)).collect();
        writeln!(out, "{}", row(app.label(), &cells))?;
    }

    out.push_str("\nTable 3: Raw benchmark numbers behind Figure 3\n\n");
    let headers3 = [&["Vanilla".to_string()][..], &headers].concat();
    writeln!(out, "{}", row("Application (metric)", &headers3))?;
    for (app, (base, cols)) in &rows {
        let mut cells = vec![fmt_metric(*app, base.metric)];
        cells.extend(cols.iter().map(|c| fmt_metric(*app, c.metric)));
        writeln!(out, "{}", row(app.label(), &cells))?;
    }
    writeln!(
        out,
        "\n(NGINX: throughput MB/s; SQLite: new-order transactions/min; vsftpd: \
         seconds to download 100 MB — all in deterministic virtual time at {} GHz)",
        cost.cpu_hz / 1_000_000_000
    )
}

/// Table 4: sensitive system call usage observed while benchmarking each
/// application under full BASTION protection, plus the §9.2 stack-depth
/// statistics.
///
/// The syscall table comes from the shipped two-tier configuration. The
/// depth statistics come from a tier-2-only run of the same protection:
/// under two tiers the prefilter settles every clean trap without a stack
/// walk, so only the tier-2 monitor, the one the paper measures, walks.
fn table4(out: &mut String) -> fmt::Result {
    let size = WorkloadSize::standard();
    let compiler = BastionCompiler::new();
    let cost = CostModel::default();
    let mut tier2_only = Protection::full();
    tier2_only.monitor = Some(ContextConfig::full().with_prefilter(false));
    let run = |protection: &Protection| -> Vec<_> {
        ALL_APPS
            .iter()
            .map(|&app| run_app_benchmark(app, protection, &size, &compiler, cost))
            .collect()
    };
    let runs = run(&Protection::full());
    let walks = run(&tier2_only);

    out.push_str("Table 4: Sensitive system call usage from benchmarking\n\n");
    write!(out, "{:<20}", "System call")?;
    for app in ALL_APPS {
        write!(out, " {:>18}", app.id())?;
    }
    writeln!(out)?;
    for &(nr, _) in sysno::SENSITIVE {
        write!(out, "{:<20}", sysno::name(nr).expect("named"))?;
        for r in &runs {
            let n = r.syscall_counts.get(&nr).copied().unwrap_or(0);
            write!(out, " {n:>18}")?;
        }
        writeln!(out)?;
    }
    write!(out, "{:<20}", "Total monitor hooks")?;
    for r in &runs {
        write!(out, " {:>18}", r.traps)?;
    }
    out.push_str(
        "\n\nStack-walk depth statistics (paper §9.2; tier 2 only, \
         ContextConfig::full().with_prefilter(false)):\n",
    );
    for (app, r) in ALL_APPS.iter().zip(&walks) {
        if let Some(m) = &r.monitor {
            writeln!(
                out,
                "  {:<18} avg {:.1}  min {}  max {}   (init {} cycles ≈ {:.2} ms)",
                app.id(),
                m.avg_depth(),
                m.min_depth,
                m.max_depth,
                m.init_cycles,
                cost.cycles_to_secs(m.init_cycles) * 1000.0,
            )?;
        }
    }
    Ok(())
}

/// Table 5: instrumentation statistics for all three applications.
fn table5(out: &mut String) -> fmt::Result {
    let compiler = BastionCompiler::new();
    let stats: Vec<_> = ALL_APPS
        .iter()
        .map(|app| {
            let compiled = compiler
                .compile(app.module().expect("app compiles"))
                .expect("instrumentation succeeds");
            compiled.metadata.stats
        })
        .collect();

    out.push_str("Table 5: Instrumentation statistics for BASTION\n\n");
    write!(out, "{:<46}", "")?;
    for app in ALL_APPS {
        write!(out, " {:>10}", app.id())?;
    }
    writeln!(out)?;
    type StatFn = fn(&InstrStats) -> usize;
    let rows: [(&str, StatFn); 9] = [
        ("Total # application callsites", |s| s.total_callsites),
        ("Total # arbitrary direct callsites", |s| s.direct_callsites),
        ("Total # arbitrary in-direct callsites", |s| {
            s.indirect_callsites
        }),
        ("Total # sensitive callsites", |s| s.sensitive_callsites),
        ("Total # sensitive syscalls called indirectly", |s| {
            s.sensitive_indirect
        }),
        ("ctx_write_mem()", |s| s.ctx_write_mem),
        ("ctx_bind_mem()", |s| s.ctx_bind_mem),
        ("ctx_bind_const()", |s| s.ctx_bind_const),
        ("Total instrumentation sites", |s| s.total_instrumentation()),
    ];
    for (label, f) in rows {
        write!(out, "{label:<46}")?;
        for s in &stats {
            write!(out, " {:>10}", f(s))?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\nKey finding (paper): sensitive system calls are never legitimately \
         called indirectly in any of the three applications."
    )
}

/// Table 7: overhead when filesystem-related syscalls (open/read/write/
/// send/recv and variants) are protected too (§11.2), broken into the
/// paper's three checkpoints: seccomp hook only, + fetching process state
/// via ptrace, + full context checking.
fn table7(out: &mut String) -> fmt::Result {
    let size = WorkloadSize::standard();
    let cost = CostModel::default();

    out.push_str("Table 7: Overhead with file-system syscalls protected (§11.2)\n\n");
    let labels = [
        "seccomp hook only",
        "fetch process state",
        "full context checking",
    ];
    let ids = ALL_APPS.map(|a| a.id().to_string());
    writeln!(out, "{}", row("Configuration", &ids))?;
    let grids: Vec<_> = ALL_APPS
        .iter()
        .map(|&app| run_table7_row(app, &size, cost))
        .collect();
    // Baseline row for reference.
    let base_cells: Vec<String> = ALL_APPS
        .iter()
        .zip(&grids)
        .map(|(app, (base, _))| fmt_metric(*app, base.metric))
        .collect();
    writeln!(out, "{}", row("Unprotected baseline", &base_cells))?;
    for (i, label) in labels.iter().enumerate() {
        let cells: Vec<String> = ALL_APPS
            .iter()
            .zip(&grids)
            .map(|(app, (base, rows))| {
                format!(
                    "{} ({:+.2}%)",
                    fmt_metric(*app, rows[i].metric).trim(),
                    rows[i].overhead_vs(base)
                )
            })
            .collect();
        writeln!(out, "{}", row(label, &cells))?;
    }
    writeln!(
        out,
        "\nExpected shape (paper): fetching process state dominates — the jump \
         between rows 1 and 2 dwarfs both the hook cost and the row-2→3 delta."
    )
}

/// Ablation studies for the design decisions DESIGN.md calls out:
///
/// 1. **In-kernel monitor** (§11.2): replacing ptrace with in-kernel
///    execution removes the context-switch cost that dominates Table 7.
/// 2. **ASLR compatibility** (§9.2): BASTION is relative-addressing based;
///    protection behaves identically under different load slides.
/// 3. **AI scope vs DFI-style all-store shadowing** (§3.3).
/// 4. **Monitor initialization cost** (§9.2: ≈21 ms for NGINX).
/// 5. **Tier-1 prefilter**: cycles per trap with every trap verified by
///    the ptrace monitor vs. the seccomp-time prefilter on top (DESIGN.md
///    §6g).
/// 6. **Phase attribution**: span-traced breakdown of where the monitor's
///    trap cycles actually go, tier 2 only vs two tiers.
fn ablations(out: &mut String) -> fmt::Result {
    let size = WorkloadSize::standard();
    let quick = WorkloadSize::quick();
    let cost = CostModel::default();
    // Ablations 5 and 6 run the same pair of monitor configurations.
    let tiers = [
        (
            "tier-2 monitor only",
            ContextConfig::full().with_prefilter(false),
        ),
        ("tier-1 prefilter (DESIGN §6g)", ContextConfig::full()),
    ];

    out.push_str(
        "Ablation 1: in-kernel monitor vs ptrace-based monitor (§11.2)\n\
         (full context checking with the extended filesystem-syscall scope)\n\n",
    );
    let compiler = BastionCompiler::with_sensitive(sysno::extended_sensitive_set());
    for app in ALL_APPS {
        let run = |protection: &Protection, cost: CostModel| {
            run_app_benchmark(app, protection, &size, &compiler, cost)
        };
        let base = run(&Protection::vanilla(), cost);
        let ptrace = run(&Protection::full(), cost);
        let inkernel = run(&Protection::full(), CostModel::in_kernel_monitor());
        // The in-kernel run has its own baseline under the same cost model.
        let base_ik = run(&Protection::vanilla(), CostModel::in_kernel_monitor());
        writeln!(
            out,
            "  {:<18} ptrace {:+8.2}%   in-kernel {:+8.2}%",
            app.id(),
            ptrace.overhead_vs(&base),
            inkernel.overhead_vs(&base_ik),
        )?;
    }

    out.push_str("\nAblation 2: ASLR compatibility (§9.2)\n");
    let compiler = BastionCompiler::new();
    for seed in [0u64, 7, 99] {
        let compiled = compiler
            .compile(App::Webserve.module().expect("compiles"))
            .expect("instrumentation");
        let image = bastion_vm::ImageBuilder::new()
            .aslr_seed(seed)
            .build(compiled.module)
            .expect("image");
        let d = Deployment {
            image: std::sync::Arc::new(image),
            metadata: compiled.metadata,
            cost,
        };
        let mut world = d.world();
        App::Webserve.setup_vfs(&mut world);
        d.boot(&mut world, &Protection::bastion_no_cet(), 2_000_000_000);
        let stats = bastion_apps::loadgen::http_load(
            &mut world,
            App::Webserve.port(),
            quick.http_concurrency,
            quick.http_requests,
        );
        let traps = world.trap_count;
        let clean = crate::chaos::monitor_stats(&mut world).is_some_and(|m| m.violations() == 0);
        writeln!(
            out,
            "  slide seed {seed:>3}: code base {:#x}, {} requests served, {traps} traps, 0 violations = {clean}",
            d.image.layout.code_base().raw(),
            stats.requests,
        )?;
    }

    out.push_str(
        "\nAblation 3: BASTION's AI scope vs DFI-style all-store shadowing (§3.3)\n\
         (instrumentation counts + dbkv overhead vs unprotected baseline)\n",
    );
    for (label, breadth) in [
        (
            "BASTION (sensitive only)",
            InstrumentationBreadth::SensitiveOnly,
        ),
        ("DFI-style (every store)", InstrumentationBreadth::AllStores),
    ] {
        let compiler = BastionCompiler::new().with_breadth(breadth);
        let compiled = compiler
            .compile(App::Dbkv.module().expect("compiles"))
            .expect("instrumentation");
        let base = run_app_benchmark(App::Dbkv, &Protection::vanilla(), &quick, &compiler, cost);
        let full = run_app_benchmark(App::Dbkv, &Protection::full(), &quick, &compiler, cost);
        writeln!(
            out,
            "  {:<26} {:>6} ctx_write_mem sites   overhead {:+7.2}%",
            label,
            compiled.metadata.stats.ctx_write_mem,
            full.overhead_vs(&base),
        )?;
    }

    out.push_str("\nAblation 4: monitor initialization cost (§9.2, paper: ≈21 ms for NGINX)\n");
    for app in ALL_APPS {
        let d = Deployment::with_compiler(app.module().expect("compiles"), &compiler)
            .expect("instrumentation");
        let info = bastion_monitor::LaunchInfo::from_image(&d.image, &d.metadata);
        let m = bastion_monitor::Monitor::new(&d.metadata, ContextConfig::full(), info);
        writeln!(
            out,
            "  {:<18} {:>8} cycles  ≈ {:.3} ms   ({} callsites, {} functions)",
            app.id(),
            m.stats.init_cycles,
            cost.cycles_to_secs(m.stats.init_cycles) * 1000.0,
            d.metadata.callsites.len(),
            d.metadata.functions.len(),
        )?;
    }

    out.push_str(
        "\nAblation 5: tier-1 prefilter — cycles per trap, tier 2 only vs two tiers\n\
         (full contexts; trace cycles per trap, monitor init excluded)\n",
    );
    for (label, cfg) in tiers {
        let mut prot = Protection::full();
        prot.monitor = Some(cfg);
        let r = run_app_benchmark(App::Webserve, &prot, &quick, &compiler, cost);
        let stats = r.monitor.as_ref().expect("monitor attached");
        writeln!(
            out,
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
        )?;
    }

    out.push_str(
        "\nAblation 6: phase attribution — span-traced monitor time per trap phase\n\
         (webserve/quick; self cycles exclude child phases; tracing charges nothing)\n",
    );
    for (label, cfg) in tiers {
        let mut prot = Protection::full();
        prot.monitor = Some(cfg);
        let guard = obs::TelemetryGuard::enable(1 << 17);
        let r = run_app_benchmark(App::Webserve, &prot, &quick, &compiler, cost);
        let (events, _) = guard.finish();
        let totals = obs::phase_totals(&events);
        let trap_time = totals
            .iter()
            .find(|t| t.phase == obs::Phase::Trap)
            .map_or(1, |t| t.cycles.max(1));
        writeln!(out, "  {label} ({} traps):", r.traps)?;
        for t in totals.iter().filter(|t| t.spans > 0) {
            writeln!(
                out,
                "    {:<18} spans={:<6} self={:<10} ({:5.1}% of trap time)",
                t.phase.name(),
                t.spans,
                t.self_cycles,
                t.self_cycles as f64 * 100.0 / trap_time as f64,
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_formats_match_table3_units() {
        assert!(fmt_metric(App::Webserve, 110.61).contains("MB/s"));
        assert!(fmt_metric(App::Dbkv, 37107.41).contains("NOTPM"));
        assert!(fmt_metric(App::Ftpd, 10.75).contains("sec"));
    }

    #[test]
    fn rows_align() {
        let r = row("x", &["a".into(), "b".into()]);
        assert!(r.len() > 34);
        assert!(r.contains('a') && r.contains('b'));
    }
}

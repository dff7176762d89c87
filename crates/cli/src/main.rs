//! `bastion` — the reproduction's command-line front door.
//!
//! ```text
//! bastion compile <file.mc>...  [--metadata out.json] [--ir] [--stats]
//! bastion run     <file.mc>...  [--protect full|ct|ct-cf|hook|none] [--cet] [--verbose] [--stats]
//! bastion trace   <file.mc>...  [--protect MODE] [--cet] [--out=trace.json] [--capacity=N]
//! bastion stats   <file.mc>...  [--protect MODE] [--cet] [--json]
//! bastion attack  [id]
//! bastion inspect <file.mc>...  (call-type classes + control-flow edges)
//! ```

use bastion::compiler::BastionCompiler;
use bastion::kernel::{ExitReason, World};
use bastion::minic;
use bastion::monitor::ContextConfig;
use bastion::vm::{CostModel, Image, Machine};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "compile" => cmd_compile(rest),
        "run" => cmd_run(rest),
        "trace" => cmd_trace(rest),
        "stats" => cmd_stats(rest),
        "top" => cmd_top(rest),
        "serve" => cmd_serve(rest),
        "attack" => cmd_attack(rest),
        "chaos" => cmd_chaos(rest),
        "fleet" => cmd_fleet(rest),
        "inspect" => cmd_inspect(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bastion: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
bastion — System Call Integrity (BASTION reproduction)

USAGE:
    bastion compile <file.mc>... [--metadata OUT.json] [--ir] [--stats]
        Compile MiniC sources under the BASTION pass; optionally dump the
        context metadata, the instrumented IR, or Table 5-style statistics.

    bastion run <file.mc>... [--protect MODE] [--cet] [--verbose] [--stats]
        Compile and execute in the simulated world. MODE is one of
        full (default), ct, ct-cf, hook, none. --stats prints the full
        monitor statistics; --verbose streams structured deny records as
        they occur and dumps trap/syscall counts at exit.
        --no-prefilter forces every trap through the full ptrace monitor
        (disables the tier-1 seccomp-time check program) — the
        differential oracle for prefilter parity.

    bastion trace <file.mc>... [--protect MODE] [--cet] [--out=trace.json] [--capacity=N]
        Run with span tracing enabled and export a Chrome trace_event
        JSON document (open at chrome://tracing or in Perfetto).

    bastion stats <file.mc>... [--protect MODE] [--cet] [--json] [--prom]
        Run with telemetry enabled and print the monitor statistics and
        the metrics registry (--json dumps the metrics as JSON, --prom as
        Prometheus text exposition).

    bastion top [--rounds=N] [--batch=N] [--jsonl=OUT.jsonl]
        Live serving view: boots the three workload apps under full
        protection and drives load in rounds, refreshing a per-app table
        of trap rate, tier-1 hit rate, ladder rung, and p50/p95/p99/p999
        verify + request latency. --jsonl appends one labelled metrics
        line per app per round (the periodic snapshot surface).

    bastion serve [--tenants=N] [--seed=S] [--requests=R] [--quantum=C]
                  [--capacity=N] [--jobs=N] [--json=OUT.json]
                  [--jsonl=OUT.jsonl] [--prom]
        bastiond: the persistent multi-tenant supervisor. Admits N
        tenants (seeded http/tpcc/ftp mix) through a bounded queue and
        drives their protected worlds round-robin, one C-cycle quantum at
        a time, merging per-tenant telemetry into a live fleet view.
        Prints the per-tenant table; --json writes the full report (fleet
        aggregates, per-app lanes and per-tenant rows), --jsonl appends one
        fleet metrics line, --prom prints the (validated) Prometheus
        exposition. Byte-identical for any --jobs.

    bastion attack [ID]
        Run the Table 6 security evaluation (one scenario or all 32).

    bastion chaos [--jobs=N] [--cold]
        Run the chaos matrix alone. Cells fork warm from a copy-on-write
        world checkpoint by default; --cold forces a full re-deploy per
        cell. The rendered report is byte-identical either way.

    bastion fleet [--jobs=N] [--only=chaos|table6|bench] [--cold]
        Run the evaluation surfaces — chaos matrix, Table 6, app
        benchmarks — sharded over N worker threads (default: one per
        core). The report is byte-identical for any N.

    bastion inspect <file.mc>...
        Print call-type classes and control-flow edges for sensitive
        system calls.
";

fn read_sources(paths: &[&str]) -> Result<Vec<String>, String> {
    if paths.is_empty() {
        return Err("no source files given".into());
    }
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
        .collect()
}

fn split_flags(args: &[String]) -> (Vec<&str>, Vec<&str>) {
    let mut files = Vec::new();
    let mut flags = Vec::new();
    for a in args {
        if a.starts_with("--") {
            flags.push(a.as_str());
        } else {
            files.push(a.as_str());
        }
    }
    (files, flags)
}

fn flag_value<'a>(flags: &[&'a str], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find_map(|f| f.strip_prefix(&format!("--{name}=")))
}

fn compile(paths: &[&str]) -> Result<bastion::compiler::CompileOutput, String> {
    let sources = read_sources(paths)?;
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let module = minic::compile_program("cli", &refs).map_err(|e| format!("compile error: {e}"))?;
    BastionCompiler::new()
        .compile(module)
        .map_err(|e| format!("instrumentation error: {e}"))
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let (files, flags) = split_flags(args);
    let out = compile(&files)?;
    if flags.contains(&"--ir") {
        println!("{}", bastion::ir::printer::print_module(&out.module));
    }
    if let Some(path) = flag_value(&flags, "metadata") {
        let json = out
            .metadata
            .to_json()
            .map_err(|e| format!("metadata serialization: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        println!("metadata written to {path}");
    }
    if flags.contains(&"--stats")
        || flags.len() == usize::from(flag_value(&flags, "metadata").is_some())
    {
        let s = &out.metadata.stats;
        println!(
            "callsites: {} total ({} direct, {} indirect)",
            s.total_callsites, s.direct_callsites, s.indirect_callsites
        );
        println!(
            "sensitive callsites: {} ({} indirectly-callable sensitive syscalls)",
            s.sensitive_callsites, s.sensitive_indirect
        );
        println!(
            "instrumentation: {} ctx_write_mem, {} ctx_bind_mem, {} ctx_bind_const ({} total)",
            s.ctx_write_mem,
            s.ctx_bind_mem,
            s.ctx_bind_const,
            s.total_instrumentation()
        );
    }
    Ok(())
}

/// Parses `--protect MODE` into a monitor configuration.
fn parse_protect(flags: &[&str]) -> Result<Option<ContextConfig>, String> {
    match flag_value(flags, "protect").unwrap_or("full") {
        "full" => Ok(Some(ContextConfig::full())),
        "ct" => Ok(Some(ContextConfig::ct())),
        "ct-cf" => Ok(Some(ContextConfig::ct_cf())),
        "hook" => Ok(Some(ContextConfig::hook_only())),
        "none" => Ok(None),
        other => Err(format!("unknown --protect mode `{other}`")),
    }
}

/// Compiles `files` and runs them in a fresh world under the flags'
/// protection. Returns the finished world and the victim pid.
fn execute(files: &[&str], flags: &[&str]) -> Result<(World, bastion::kernel::Pid), String> {
    // `--no-prefilter` pins tier-2-only verification for this run; the
    // flag is read at `protect()` time, when the filter is built.
    let _tier2_only = bastion::monitor::NoPrefilterGuard::new(flags.contains(&"--no-prefilter"));
    let monitor_cfg = parse_protect(flags)?;
    let out = compile(files)?;
    let image = Arc::new(Image::load(out.module).map_err(|e| format!("load: {e}"))?);
    let mut world = World::new(CostModel::default());
    let mut machine = Machine::new(image.clone(), CostModel::default());
    if flags.contains(&"--cet") {
        machine.enable_cet();
    }
    let pid = world.spawn(machine);
    if let Some(cfg) = monitor_cfg {
        bastion::monitor::protect(&mut world, pid, &image, &out.metadata, cfg);
    }
    let status = world.run(10_000_000_000);
    let console = String::from_utf8_lossy(&world.kernel.console).into_owned();
    if !console.is_empty() {
        print!("{console}");
    }
    match world.proc(pid).and_then(|p| p.exit.clone()) {
        Some(ExitReason::Exited(code)) => {
            println!(
                "[exited with status {code}; {} virtual cycles]",
                world.now()
            );
        }
        Some(ExitReason::MonitorKill { nr, reason }) => {
            println!(
                "[KILLED by BASTION monitor at syscall {} ({}): {reason}]",
                nr,
                bastion::ir::sysno::name(nr).unwrap_or("?")
            );
        }
        Some(ExitReason::SeccompKill { nr }) => {
            println!(
                "[KILLED by seccomp: not-callable syscall {} ({})]",
                nr,
                bastion::ir::sysno::name(nr).unwrap_or("?")
            );
        }
        Some(ExitReason::Fault(f)) => println!("[crashed: {f}]"),
        None => println!("[still running after budget; status {status:?}]"),
    }
    Ok((world, pid))
}

/// Renders one structured deny record the way `--verbose` streams it.
fn render_deny(rec: &bastion::obs::DenyRecord) -> String {
    let vals = match (rec.expected, rec.observed) {
        (Some(e), Some(o)) => format!(" expected={e:#x} observed={o:#x}"),
        _ => String::new(),
    };
    format!(
        "[deny #{seq}] syscall {nr} ({name}) {ctx}/{rule}{vals} ladder={rung} \
         retries={r} strikes={s}: {msg}",
        seq = rec.trap_seq,
        nr = rec.sysno,
        name = bastion::ir::sysno::name(rec.sysno).unwrap_or("?"),
        ctx = rec.context.label(),
        rule = rec.rule.name(),
        rung = rec.ladder_rung,
        r = rec.fault_ctx.retries,
        s = rec.fault_ctx.strikes,
        msg = rec.message,
    )
}

/// Prints the full monitor statistics block shared by `run --stats` and
/// the `stats` subcommand.
fn print_monitor_stats(stats: &bastion::monitor::MonitorStats) {
    println!("monitor statistics:");
    println!("  traps:                {}", stats.traps);
    println!(
        "  violations:           ct={} cf={} ai={} fc={} watchdog={}",
        stats.ct_violations,
        stats.cf_violations,
        stats.ai_violations,
        stats.fc_violations,
        stats.watchdog_denies
    );
    println!(
        "  stack walks:          {} frames (depth min={} max={} avg={:.2})",
        stats.frames_walked,
        stats.min_depth,
        stats.max_depth,
        stats.avg_depth()
    );
    println!(
        "  verification cache:   ct_hits={} walk_hits={} walk_collisions={}",
        stats.ct_cache_hits, stats.walk_cache_hits, stats.walk_cache_collisions
    );
    println!(
        "  batched reads:        frames={} pointees={}",
        stats.batched_frame_reads, stats.batched_pointee_reads
    );
    println!(
        "  substrate resilience: retries={} (recovered {}) strikes={} \
         watchdog_overruns={} shadow_quarantines={}",
        stats.retries,
        stats.retry_successes,
        stats.substrate_strikes,
        stats.watchdog_overruns,
        stats.shadow_quarantines
    );
    println!(
        "  degradation ladder:   rung={} transitions={}",
        stats.mode.label(),
        stats.mode_transitions
    );
    println!(
        "  memory:               resident_pages={} snapshot_shared_pages={}",
        stats.resident_pages, stats.snapshot_shared_pages
    );
    println!(
        "  prefilter:            checks={} hits={} escalations={} hit_rate={:.1}%",
        stats.prefilter_checks,
        stats.prefilter_hits,
        stats.prefilter_escalations,
        stats.prefilter_hit_rate() * 100.0
    );
    for (label, n) in stats.escalations_by_reason() {
        println!("    escalate[{label}]: {n}");
    }
    println!(
        "  init cycles:          {} (prefilter compile: {})",
        stats.init_cycles, stats.prefilter_compile_cycles
    );
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (files, flags) = split_flags(args);
    let verbose = flags.contains(&"--verbose");
    let want_stats = flags.contains(&"--stats");
    if verbose {
        // Stream structured deny provenance as it happens; denies are
        // captured regardless of the tracer enable flag.
        bastion::obs::set_deny_sink(Box::new(|rec| eprintln!("{}", render_deny(rec))));
    }
    let result = execute(&files, &flags);
    if verbose {
        bastion::obs::clear_deny_sink();
    }
    let (mut world, _pid) = result?;
    if verbose {
        println!("traps: {}", world.trap_count);
        for (nr, n) in &world.kernel.counts {
            println!(
                "  syscall {:<18} x{}",
                bastion::ir::sysno::name(*nr).unwrap_or("?"),
                n
            );
        }
    }
    if want_stats {
        match bastion::chaos::monitor_report(&mut world) {
            Some((stats, denies)) => {
                print_monitor_stats(&stats);
                if !denies.is_empty() {
                    println!("deny records: {}", denies.len());
                    for rec in &denies {
                        println!("  {}", render_deny(rec));
                    }
                }
            }
            None => println!("monitor statistics: no monitor attached (--protect none?)"),
        }
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (files, flags) = split_flags(args);
    let capacity = match flag_value(&flags, "capacity") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--capacity={v}: not a number"))?,
        None => 1 << 16,
    };
    let out_path = flag_value(&flags, "out").unwrap_or("trace.json");
    bastion::obs::enable(capacity);
    let result = execute(&files, &flags);
    let events = bastion::obs::take_events();
    bastion::obs::disable();
    result?;
    let json = bastion::obs::chrome_trace_json(&events);
    let shape = bastion::obs::validate_chrome_trace(&json)
        .map_err(|e| format!("exported trace failed validation: {e}"))?;
    std::fs::write(out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "trace written to {out_path}: {} events ({} trap spans, {} instants, depth {})",
        shape.events, shape.trap_spans, shape.instants, shape.max_depth
    );
    println!("phase breakdown (virtual cycles):");
    for t in bastion::obs::phase_totals(&events) {
        println!(
            "  {:<18} spans={:<6} instants={:<6} incl={:<10} self={}",
            t.phase.name(),
            t.spans,
            t.instants,
            t.cycles,
            t.self_cycles
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (files, flags) = split_flags(args);
    bastion::obs::enable(1 << 16);
    let result = execute(&files, &flags);
    let metrics = bastion::obs::metrics_snapshot();
    bastion::obs::disable();
    let (mut world, _pid) = result?;
    match bastion::chaos::monitor_report(&mut world) {
        Some((stats, _)) => print_monitor_stats(&stats),
        None => println!("monitor statistics: no monitor attached (--protect none?)"),
    }
    if flags.contains(&"--json") {
        println!("{}", bastion::obs::metrics_json(&metrics));
    } else if flags.contains(&"--prom") {
        let text = bastion::obs::prometheus_text(&metrics, &[]);
        bastion::obs::validate_prometheus(&text)
            .map_err(|e| format!("generated Prometheus exposition is malformed: {e}"))?;
        print!("{text}");
    } else {
        println!("metrics:");
        for c in &metrics.counters {
            println!("  {:<28} {}", c.name, c.value);
        }
        for s in &metrics.sketches {
            println!(
                "  {:<28} count={} min={} max={} mean={:.2} p50={} p95={} p99={} p999={}",
                s.name,
                s.count,
                s.min,
                s.max,
                s.mean(),
                s.p50,
                s.p95,
                s.p99,
                s.p999
            );
        }
    }
    Ok(())
}

/// One serving lane of `bastion top`: an app world under full protection
/// plus its accumulated metrics across rounds.
struct TopLane {
    app: bastion::apps::App,
    world: World,
    acc: bastion::obs::MetricsRegistry,
    served: u64,
}

fn boot_lane(app: bastion::apps::App) -> TopLane {
    let d = bastion::Deployment::from_module(app.module().expect("app compiles"))
        .expect("instrumentation succeeds");
    let mut world = d.world();
    app.setup_vfs(&mut world);
    d.launch(&mut world, &bastion::Protection::full());
    world.run(1_000_000_000);
    assert!(world.alive_count() > 0, "{} died during boot", app.id());
    TopLane {
        app,
        world,
        acc: bastion::obs::MetricsRegistry::new(),
        served: 0,
    }
}

/// Drives one load batch against a lane under a fresh telemetry scope and
/// folds the scope's metrics into the lane accumulator.
fn drive_lane(lane: &mut TopLane, batch: u64) {
    use bastion::apps::{loadgen, App};
    let guard = bastion::obs::TelemetryGuard::enable(1 << 12);
    let port = lane.app.port();
    lane.served += match lane.app {
        App::Webserve => loadgen::http_load(&mut lane.world, port, 4, batch).requests,
        App::Dbkv => loadgen::tpcc_load(&mut lane.world, port, 4, batch.max(1)).transactions,
        App::Ftpd => {
            loadgen::ftp_load(
                &mut lane.world,
                port,
                (batch / 8).max(1),
                bastion::apps::ftpd::FILE_PATH,
            )
            .files
        }
    };
    let (_events, registry) = guard.finish();
    lane.acc.merge(registry);
}

/// Renders one refresh of the `bastion top` table.
fn render_top(lanes: &[TopLane], round: u64, rounds: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bastion top — round {}/{rounds} (virtual-time serving view)",
        round + 1
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>8} {:>7} {:>5}  {:>33}  {:>33}",
        "app",
        "served",
        "traps",
        "tier1%",
        "rung",
        "verify cycles p50/p95/p99/p999",
        "request cycles p50/p95/p99/p999"
    );
    for lane in lanes {
        let snap = lane.acc.snapshot();
        let quants = |name: &str| -> String {
            snap.sketch(name).map_or_else(
                || "-".into(),
                |s| format!("{}/{}/{}/{}", s.p50, s.p95, s.p99, s.p999),
            )
        };
        let (hit_pct, rung) = lane.world.tracer_ref().map_or((0.0, 0), |t| {
            let rung = t.ladder_rung();
            let hits = t
                .as_any()
                .downcast_ref::<bastion::monitor::Monitor>()
                .map_or(0.0, |m| {
                    if m.stats.prefilter_checks == 0 {
                        0.0
                    } else {
                        100.0 * m.stats.prefilter_hits as f64 / m.stats.prefilter_checks as f64
                    }
                });
            (hits, rung)
        });
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>8} {:>6.1}% {:>5}  {:>33}  {:>33}",
            lane.app.id(),
            lane.served,
            lane.world.trap_count,
            hit_pct,
            rung,
            quants("trap.verify_cycles"),
            quants(bastion::apps::loadgen::REQUEST_CYCLES_SKETCH),
        );
    }
    out
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    use bastion::apps::App;
    use std::io::IsTerminal as _;
    let (_files, flags) = split_flags(args);
    let rounds: u64 = flag_value(&flags, "rounds")
        .map_or(Ok(6), str::parse)
        .map_err(|e| format!("--rounds: {e}"))?;
    let batch: u64 = flag_value(&flags, "batch")
        .map_or(Ok(32), str::parse)
        .map_err(|e| format!("--batch: {e}"))?;
    let jsonl_path = flag_value(&flags, "jsonl");
    let mut jsonl = match jsonl_path {
        Some(p) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .map_err(|e| format!("{p}: {e}"))?,
        ),
        None => None,
    };

    eprintln!("booting webserve, dbkv, ftpd under full protection...");
    let mut lanes: Vec<TopLane> = [App::Webserve, App::Dbkv, App::Ftpd]
        .into_iter()
        .map(boot_lane)
        .collect();

    let live = std::io::stdout().is_terminal();
    for round in 0..rounds {
        for lane in &mut lanes {
            drive_lane(lane, batch);
            if let Some(f) = jsonl.as_mut() {
                use std::io::Write as _;
                let line = bastion::obs::metrics_jsonl_line(
                    &lane.acc.snapshot(),
                    &[("app", lane.app.id()), ("round", &round.to_string())],
                );
                writeln!(f, "{line}").map_err(|e| format!("jsonl write: {e}"))?;
            }
        }
        if live {
            // Clear and redraw in place, like top(1).
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(&lanes, round, rounds));
        if !live && round + 1 < rounds {
            println!();
        }
    }
    Ok(())
}

fn cmd_attack(args: &[String]) -> Result<(), String> {
    let id: Option<u32> = args.first().and_then(|a| a.parse().ok());
    let catalog = bastion::attacks::catalog();
    let mut all_ok = true;
    for s in &catalog {
        if let Some(id) = id {
            if s.id != id {
                continue;
            }
        }
        let r = bastion::attacks::evaluate(s);
        println!(
            "#{:2} [{}] {}",
            r.id,
            if r.matches_paper() {
                "matches paper"
            } else {
                "MISMATCH"
            },
            r.name
        );
        for d in &r.details {
            println!("     {d}");
        }
        all_ok &= r.matches_paper();
    }
    if all_ok {
        Ok(())
    } else {
        Err("some scenarios diverged from the paper's Table 6".into())
    }
}

/// `bastion serve` — run the bastiond supervisor over a seeded tenant
/// mix and print the per-tenant table plus the requested export surfaces.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::io::Write as _;

    let (_, flags) = split_flags(args);
    let num = |name: &str, default: u64| -> Result<u64, String> {
        match flag_value(&flags, name) {
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("--{name}={v}: not a non-negative integer")),
            None => Ok(default),
        }
    };
    let tenants = num("tenants", 256)? as usize;
    let seed = num("seed", 0)?;
    let mut cfg = bastion::serve::ServeConfig::new(tenants, seed);
    cfg.requests_per_tenant = num("requests", cfg.requests_per_tenant)?;
    cfg.quantum = num("quantum", cfg.quantum)?.max(1);
    cfg.admission_capacity = num("capacity", cfg.admission_capacity as u64)? as usize;
    cfg.jobs = match flag_value(&flags, "jobs") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--jobs={v}: not a positive integer"))?,
        None => bastion::fleet::default_jobs(),
    };

    let run = bastion::serve::run_serve(&cfg);
    print!("{}", run.report.render());

    if let Some(path) = flag_value(&flags, "json") {
        let json = serde_json::to_string_pretty(&run.report)
            .map_err(|e| format!("report serialization: {e:?}"))?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        println!("report written to {path}");
    }
    if let Some(path) = flag_value(&flags, "jsonl") {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        let line = bastion::obs::metrics_jsonl_line(&run.fleet, &[("surface", "serve")]);
        writeln!(f, "{line}").map_err(|e| format!("jsonl write: {e}"))?;
        println!("fleet metrics line appended to {path}");
    }
    if flags.contains(&"--prom") {
        let text = bastion::obs::prometheus_text(&run.fleet, &[("surface", "serve")]);
        bastion::obs::validate_prometheus(&text)
            .map_err(|e| format!("prometheus self-check: {e}"))?;
        print!("{text}");
    }
    Ok(())
}

/// Shared chaos-matrix driver for `bastion chaos` and the fleet's chaos
/// section: runs the matrix, prints the report, and collects gate
/// failures.
fn run_chaos_section(jobs: usize, cold: bool, failures: &mut Vec<String>) {
    use bastion::fleet;
    let outcome = fleet::chaos_matrix_mode(jobs, fleet::ATTACK_SEEDS, None, cold);
    print!("{}", outcome.report);
    if outcome.faults_fired == 0 {
        failures.push("chaos matrix never injected a fault".into());
    }
    if outcome.flipped > 0 {
        failures.push(format!(
            "{} attack(s) flipped to Allow under faults",
            outcome.flipped
        ));
    }
}

fn cmd_chaos(args: &[String]) -> Result<(), String> {
    use bastion::fleet;
    let (_, flags) = split_flags(args);
    let jobs = match flag_value(&flags, "jobs") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--jobs={v}: not a positive integer"))?,
        None => fleet::default_jobs(),
    };
    let cold = flags.contains(&"--cold");
    let mut failures: Vec<String> = Vec::new();
    run_chaos_section(jobs, cold, &mut failures);
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    use bastion::fleet;
    let (_, flags) = split_flags(args);
    let jobs = match flag_value(&flags, "jobs") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--jobs={v}: not a positive integer"))?,
        None => fleet::default_jobs(),
    };
    let cold = flags.contains(&"--cold");
    let only = flag_value(&flags, "only");
    let want = |section: &str| only.is_none_or(|o| o == section);
    let mut failures: Vec<String> = Vec::new();

    if want("chaos") {
        println!("== chaos matrix ==");
        run_chaos_section(jobs, cold, &mut failures);
        println!();
    }
    if want("table6") {
        println!("== table 6 ==");
        let results = fleet::table6_matrix(jobs);
        print!("{}", bastion::attacks::render(&results));
        let mismatched = results.iter().filter(|r| !r.matches_paper()).count();
        if mismatched > 0 {
            failures.push(format!("{mismatched} scenario(s) diverged from Table 6"));
        }
        println!();
    }
    if want("bench") {
        println!("== app benchmarks (quick workload) ==");
        let rows = fleet::bench_matrix(jobs, &bastion::harness::WorkloadSize::quick());
        print!("{}", fleet::render_bench(&rows));
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let (files, _) = split_flags(args);
    let out = compile(&files)?;
    let md = &out.metadata;
    println!("call-type classes:");
    for (nr, class) in &md.syscall_classes {
        let sensitive = if md.sensitive_nrs.contains(nr) {
            " [sensitive]"
        } else {
            ""
        };
        println!(
            "  {:<18} {:?}{sensitive}",
            bastion::ir::sysno::name(*nr).unwrap_or("?"),
            class
        );
    }
    println!();
    println!(
        "control-flow context ({} callee→caller edge sets):",
        md.valid_callers.len()
    );
    for (callee, sites) in &md.valid_callers {
        let name = md
            .functions
            .get(callee)
            .map(|f| f.name.as_str())
            .unwrap_or("?");
        println!("  {name:<28} {} valid caller callsite(s)", sites.len());
    }
    println!();
    println!(
        "sensitive syscall callsites: {} | indirect entries: {}",
        md.syscall_sites.len(),
        md.indirect_entries.len()
    );
    Ok(())
}

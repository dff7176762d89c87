//! The experiment harness: boots an application under a protection
//! configuration, drives its workload, and reports the paper's metrics.
//!
//! Everything is measured in deterministic virtual time, so a single run
//! per configuration regenerates each table bit-for-bit.

use crate::{Deployment, Protection};
use bastion_apps::{loadgen, App};
use bastion_compiler::{BastionCompiler, ContextMetadata, InstrStats};
use bastion_monitor::MonitorStats;
use bastion_vm::{CostModel, Image};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Workload sizes (requests / transactions / downloads).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSize {
    /// HTTP requests for webserve.
    pub http_requests: u64,
    /// Concurrent HTTP connections.
    pub http_concurrency: usize,
    /// New-order transactions for dbkv.
    pub tpcc_tx: u64,
    /// Concurrent DBT2 sessions.
    pub tpcc_sessions: usize,
    /// Sequential FTP downloads.
    pub ftp_downloads: u64,
}

impl WorkloadSize {
    /// Small sizes for unit/integration tests.
    pub fn quick() -> Self {
        WorkloadSize {
            http_requests: 60,
            http_concurrency: 8,
            tpcc_tx: 80,
            tpcc_sessions: 4,
            ftp_downloads: 2,
        }
    }

    /// The sizes used to regenerate the paper tables.
    pub fn standard() -> Self {
        WorkloadSize {
            http_requests: 1200,
            http_concurrency: 16,
            tpcc_tx: 1500,
            tpcc_sessions: 8,
            ftp_downloads: 8,
        }
    }
}

/// The result of one application × protection run.
#[derive(Debug, Clone)]
pub struct AppBenchmark {
    /// Application measured.
    pub app: App,
    /// Protection label (Figure 3 column / Table 7 row).
    pub protection: &'static str,
    /// The paper's metric: MB/s (webserve), NOTPM (dbkv), seconds for a
    /// 100 MB download (ftpd).
    pub metric: f64,
    /// Virtual cycles the measurement took.
    pub cycles: u64,
    /// VM instructions retired over the whole run (boot + workload).
    pub steps: u64,
    /// Virtual cycles spent in monitor tracing (ptrace stops + remote
    /// reads + monitor init) — the numerator of the per-trap cost.
    pub trace_cycles: u64,
    /// Monitor traps delivered during the whole run.
    pub traps: u64,
    /// Executed-syscall counters at the end of the run.
    pub syscall_counts: BTreeMap<u32, u64>,
    /// Monitor statistics (when a monitor was attached).
    pub monitor: Option<MonitorStats>,
    /// Compiler instrumentation statistics (when instrumented).
    pub instr: Option<InstrStats>,
}

impl AppBenchmark {
    /// Whether higher metric values are better for this app (throughput)
    /// or worse (download time).
    pub fn higher_is_better(&self) -> bool {
        !matches!(self.app, App::Ftpd)
    }

    /// Overhead percentage relative to a baseline run of the same app.
    pub fn overhead_vs(&self, baseline: &AppBenchmark) -> f64 {
        if self.higher_is_better() {
            (baseline.metric - self.metric) / baseline.metric * 100.0
        } else {
            (self.metric - baseline.metric) / baseline.metric * 100.0
        }
    }

    /// Monitor trace cycles per trap with the one-time monitor init (and
    /// tier-1 compile) charge excluded: the steady-state per-trap cost a
    /// long-running server converges to.
    #[must_use]
    pub fn steady_cycles_per_trap(&self) -> f64 {
        let init = self.monitor.as_ref().map_or(0, |m| m.init_cycles);
        self.trace_cycles.saturating_sub(init) as f64 / self.traps.max(1) as f64
    }
}

/// Runs one application under one protection configuration.
///
/// The `compiler` argument selects the sensitive-syscall scope (default
/// Table 1 set, or the extended §11.2 set for Table 7); it is only used
/// when the protection attaches a monitor — baseline columns run the
/// uninstrumented binary, exactly as the paper's baselines do.
///
/// # Panics
/// Panics if the application fails to compile or serve (all shipped apps
/// are tested to do both).
pub fn run_app_benchmark(
    app: App,
    protection: &Protection,
    size: &WorkloadSize,
    compiler: &BastionCompiler,
    cost: CostModel,
) -> AppBenchmark {
    let module = app.module().expect("app compiles");
    let d = if protection.has_monitor() {
        Deployment::with_compiler(module, compiler)
            .expect("instrumentation succeeds")
            .with_cost(cost)
    } else {
        // Baselines run the uninstrumented binary; no monitor reads metadata.
        Deployment {
            image: Arc::new(Image::load(module).expect("image loads")),
            metadata: ContextMetadata::default(),
            cost,
        }
    };
    let instr = protection.has_monitor().then(|| d.metadata.stats.clone());

    let mut world = d.world();
    app.setup_vfs(&mut world);
    // Boot until every process parks (workers blocked in accept).
    let (pid, _) = d.boot(&mut world, protection, 1_000_000_000);
    assert!(
        world.alive_count() > 0,
        "{} died during boot under {}: {:?}",
        app.id(),
        protection.label,
        world.proc(pid).and_then(|p| p.exit.clone())
    );

    let metric = match app {
        App::Webserve => {
            let s = loadgen::http_load(
                &mut world,
                app.port(),
                size.http_concurrency,
                size.http_requests,
            );
            s.throughput_mb_s(cost.cpu_hz)
        }
        App::Dbkv => {
            let s = loadgen::tpcc_load(&mut world, app.port(), size.tpcc_sessions, size.tpcc_tx);
            s.notpm(cost.cpu_hz)
        }
        App::Ftpd => {
            let s = loadgen::ftp_load(
                &mut world,
                app.port(),
                size.ftp_downloads,
                bastion_apps::ftpd::FILE_PATH,
            );
            s.seconds_for(100_000_000, cost.cpu_hz)
        }
    };

    let monitor = world.take_tracer().and_then(|t| {
        t.as_any()
            .downcast_ref::<bastion_monitor::Monitor>()
            .map(|m| m.stats.clone())
    });

    AppBenchmark {
        app,
        protection: protection.label,
        metric,
        cycles: world.now(),
        steps: world.steps,
        trace_cycles: world.trace_cycles,
        traps: world.trap_count,
        syscall_counts: world.kernel.counts.clone(),
        monitor,
        instr,
    }
}

/// Runs the full Figure 3 / Table 3 grid for one app: the vanilla baseline
/// followed by every protection column. Returns `(baseline, columns)`.
pub fn run_figure3_row(
    app: App,
    size: &WorkloadSize,
    cost: CostModel,
) -> (AppBenchmark, Vec<AppBenchmark>) {
    let compiler = BastionCompiler::new();
    let baseline = run_app_benchmark(app, &Protection::vanilla(), size, &compiler, cost);
    let columns = Protection::figure3()
        .iter()
        .map(|p| run_app_benchmark(app, p, size, &compiler, cost))
        .collect();
    (baseline, columns)
}

/// Runs the Table 7 grid for one app: vanilla baseline + the three
/// extended-scope rows (filesystem syscalls protected).
pub fn run_table7_row(
    app: App,
    size: &WorkloadSize,
    cost: CostModel,
) -> (AppBenchmark, Vec<AppBenchmark>) {
    let compiler = BastionCompiler::with_sensitive(bastion_ir::sysno::extended_sensitive_set());
    let baseline = run_app_benchmark(app, &Protection::vanilla(), size, &compiler, cost);
    let rows = Protection::table7()
        .iter()
        .map(|p| run_app_benchmark(app, p, size, &compiler, cost))
        .collect();
    (baseline, rows)
}

/// Runs one app under the extended filesystem scope (§11.2) twice — the
/// two-tier split on and off — and returns `(two_tier, tier2_only)`. The
/// pair shares one compiler so both runs verify the identical sensitive
/// surface; only the tier-1 prefilter differs.
pub fn run_extended_scope_pair(
    app: App,
    size: &WorkloadSize,
    cost: CostModel,
) -> (AppBenchmark, AppBenchmark) {
    let compiler = BastionCompiler::with_sensitive(bastion_ir::sysno::extended_sensitive_set());
    let two_tier = run_app_benchmark(app, &Protection::extended_two_tier(), size, &compiler, cost);
    let tier2_only = run_app_benchmark(
        app,
        &Protection::extended_tier2_only(),
        size,
        &compiler,
        cost,
    );
    (two_tier, tier2_only)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn webserve_benchmark_under_full_protection() {
        let size = WorkloadSize::quick();
        let compiler = BastionCompiler::new();
        let cost = CostModel::default();
        let base = run_app_benchmark(
            App::Webserve,
            &Protection::vanilla(),
            &size,
            &compiler,
            cost,
        );
        let full = run_app_benchmark(App::Webserve, &Protection::full(), &size, &compiler, cost);
        assert!(base.metric > 0.0);
        assert!(full.metric > 0.0);
        assert!(full.traps > 0, "sensitive syscalls must trap");
        // Protection costs something but not everything.
        let overhead = full.overhead_vs(&base);
        assert!(overhead > 0.0, "overhead {overhead}");
        assert!(overhead < 50.0, "overhead {overhead}");
        assert!(full.monitor.is_some());
        assert!(full.instr.is_some());
    }

    #[test]
    fn ftpd_overhead_uses_inverted_metric() {
        let size = WorkloadSize::quick();
        let compiler = BastionCompiler::new();
        let cost = CostModel::default();
        let base = run_app_benchmark(App::Ftpd, &Protection::vanilla(), &size, &compiler, cost);
        let cet = run_app_benchmark(App::Ftpd, &Protection::cet(), &size, &compiler, cost);
        assert!(!base.higher_is_better());
        // CET alone should be near-free.
        let overhead = cet.overhead_vs(&base);
        assert!(overhead.abs() < 5.0, "CET overhead {overhead}");
    }
}

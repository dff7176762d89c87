//! Shape assertions for the performance experiments (quick workload
//! sizes): the claims the paper's Figure 3 / Table 7 make must hold
//! qualitatively in every build.

use bastion::apps::{App, ALL_APPS};
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, run_table7_row, WorkloadSize};
use bastion::monitor::ContextConfig;
use bastion::vm::CostModel;
use bastion::Protection;

#[test]
fn figure3_overheads_are_small_and_monotone_dbkv() {
    let size = WorkloadSize::quick();
    let compiler = BastionCompiler::new();
    let cost = CostModel::default();
    let base = run_app_benchmark(App::Dbkv, &Protection::vanilla(), &size, &compiler, cost);
    let cet = run_app_benchmark(App::Dbkv, &Protection::cet(), &size, &compiler, cost);
    let ct = run_app_benchmark(App::Dbkv, &Protection::cet_ct(), &size, &compiler, cost);
    let cf = run_app_benchmark(App::Dbkv, &Protection::cet_ct_cf(), &size, &compiler, cost);
    let ai = run_app_benchmark(App::Dbkv, &Protection::full(), &size, &compiler, cost);

    let (o_cet, o_ct, o_cf, o_ai) = (
        cet.overhead_vs(&base),
        ct.overhead_vs(&base),
        cf.overhead_vs(&base),
        ai.overhead_vs(&base),
    );
    // CET is nearly free; contexts stack monotonically; the full stack
    // stays within the paper's "low overhead" claim (generously bounded
    // for the quick workload).
    assert!(o_cet < 2.0, "CET {o_cet}");
    assert!(o_ct >= o_cet - 0.5, "CT {o_ct} vs CET {o_cet}");
    assert!(o_cf >= o_ct - 0.1, "CF {o_cf} vs CT {o_ct}");
    assert!(o_ai >= o_cf - 0.1, "AI {o_ai} vs CF {o_cf}");
    assert!(o_ai < 15.0, "full overhead {o_ai}");
}

#[test]
fn ftpd_full_protection_overhead_is_low() {
    let size = WorkloadSize::quick();
    let compiler = BastionCompiler::new();
    let cost = CostModel::default();
    let base = run_app_benchmark(App::Ftpd, &Protection::vanilla(), &size, &compiler, cost);
    let full = run_app_benchmark(App::Ftpd, &Protection::full(), &size, &compiler, cost);
    let o = full.overhead_vs(&base);
    assert!(o > 0.0 && o < 15.0, "ftpd overhead {o}");
    assert!(full.traps > 0);
}

/// §9.2's stack-walk depths, measured as Table 4 measures them: on the
/// tier-2-only run, since under two tiers no clean trap walks. A zero
/// reading means nothing walked. The paper's NGINX reading is avg 5.2,
/// min 4, max 9.
#[test]
fn walk_depths_are_nonzero_and_paper_shaped() {
    let mut tier2_only = Protection::full();
    tier2_only.monitor = Some(ContextConfig::full().with_prefilter(false));
    for app in ALL_APPS {
        let run = run_app_benchmark(
            app,
            &tier2_only,
            &WorkloadSize::quick(),
            &BastionCompiler::new(),
            CostModel::default(),
        );
        let m = run.monitor.expect("monitor attached");
        let avg = m.avg_depth();
        let (min, max) = (m.min_depth as f64, m.max_depth as f64);
        assert!(
            m.min_depth > 0 && min <= avg && avg <= max && (2.0..=9.0).contains(&avg),
            "{app:?}: avg {avg:.1} min {min} max {max}"
        );
    }
}

#[test]
fn table7_fetch_state_dominates() {
    // The paper's §11.2 finding: with filesystem syscalls protected, the
    // ptrace state fetch dominates; hooking alone is comparatively cheap.
    let size = WorkloadSize::quick();
    let (base, rows) = run_table7_row(App::Dbkv, &size, CostModel::default());
    let hook = rows[0].overhead_vs(&base);
    let fetch = rows[1].overhead_vs(&base);
    let full = rows[2].overhead_vs(&base);
    assert!(hook > 0.0, "hook {hook}");
    assert!(fetch > hook, "fetch {fetch} vs hook {hook}");
    assert!(full >= fetch, "full {full} vs fetch {fetch}");
    // The fetch jump is the dominant increment.
    assert!(
        fetch - hook > (full - fetch),
        "state fetch must dominate: hook {hook} fetch {fetch} full {full}"
    );
}

#[test]
fn in_kernel_monitor_removes_most_of_the_cost() {
    // §11.2's proposed optimization, modelled by the in-kernel cost model.
    let size = WorkloadSize::quick();
    let (base_p, rows_p) = run_table7_row(App::Dbkv, &size, CostModel::default());
    let (base_k, rows_k) = run_table7_row(App::Dbkv, &size, CostModel::in_kernel_monitor());
    let ptrace_full = rows_p[2].overhead_vs(&base_p);
    let inkernel_full = rows_k[2].overhead_vs(&base_k);
    assert!(
        inkernel_full < ptrace_full / 3.0,
        "in-kernel {inkernel_full}% should be far below ptrace {ptrace_full}%"
    );
}

/// The committed `BENCH_*.json` files are the baselines the gates read.
/// Each must parse as a record list, keep every virtual value exact in
/// an `f64`, carry gate tolerances only where the gate policy allows
/// them (so no one loosens a gate by editing data), and hold the nine
/// Table-1 records `perf_gate` checks.
#[test]
fn committed_bench_files_are_exact_record_lists() {
    use bastion::gate::{self, Clock};
    let files = [
        ("BENCH_interp.json", include_str!("../BENCH_interp.json")),
        ("BENCH_fleet.json", include_str!("../BENCH_fleet.json")),
        ("BENCH_serve.json", include_str!("../BENCH_serve.json")),
        ("BENCH_obs.json", include_str!("../BENCH_obs.json")),
    ];
    for (file, text) in files {
        let records = gate::parse_records(text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!records.is_empty(), "{file}: no records");
        for r in &records {
            if r.clock == Clock::Virtual {
                assert!(
                    r.value.is_finite() && r.value.abs() < 2f64.powi(53),
                    "{file}: {} = {} is not an exact virtual value",
                    r.name,
                    r.value
                );
            }
            let tolerance = if r.name.ends_with(".steady_cycles_per_trap") {
                2.0
            } else {
                0.0
            };
            assert_eq!(r.tolerance_pct, tolerance, "{file}: {} tolerance", r.name);
        }
    }
    let interp = gate::parse_records(files[0].1).unwrap();
    for app in ["webserve", "dbkv", "ftpd"] {
        for field in ["virtual_cycles", "traps", "steady_cycles_per_trap"] {
            let name = format!("{app}.{field}");
            let r = interp.iter().find(|r| r.name == name);
            assert!(
                r.is_some_and(|r| r.clock == Clock::Virtual),
                "BENCH_interp.json lacks the gated virtual record {name}"
            );
        }
    }
}

//! # bastion-bench
//!
//! The reproduction harness for every table and figure in the paper's
//! evaluation (§9, §10, §11.2). Each artifact has a dedicated binary that
//! prints the paper-style table from a deterministic virtual-time run:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table 1 — sensitive syscall classification |
//! | `fig3_table3` | Figure 3 (% overhead) + Table 3 (raw metrics) |
//! | `table4` | Table 4 — sensitive syscall usage + §9.2 depth stats |
//! | `table5` | Table 5 — instrumentation statistics |
//! | `bastion fleet --only=table6` (CLI) | Table 6 — the 32-attack security evaluation |
//! | `table7` | Table 7 — filesystem-extended protection overhead |
//! | `ablations` | §11.2 in-kernel monitor model, ASLR, init cost |
//!
//! `cargo bench` additionally runs criterion wall-clock benchmarks of the
//! simulator itself (`overhead`, `monitor_micro`).
//!
//! Results are recorded in the repository's `EXPERIMENTS.md`.

use bastion::apps::App;
use bastion::harness::AppBenchmark;

/// Default cycles→wall conversion used when printing "seconds".
pub const CPU_HZ: u64 = 2_000_000_000;

/// Formats a metric the way Table 3 prints it.
pub fn fmt_metric(app: App, metric: f64) -> String {
    match app {
        App::Webserve => format!("{metric:9.2} MB/s"),
        App::Dbkv => format!("{metric:11.2} NOTPM"),
        App::Ftpd => format!("{metric:8.3} sec"),
    }
}

/// Formats an overhead percentage ("+1.25%").
pub fn fmt_overhead(col: &AppBenchmark, base: &AppBenchmark) -> String {
    format!("{:+.2}%", col.overhead_vs(base))
}

/// Left-pads a labelled row for the table printers.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<34}");
    for c in cells {
        s.push_str(&format!(" {c:>18}"));
    }
    s
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

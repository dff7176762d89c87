//! Perf-regression gate and the one BENCH record shape.
//!
//! Every bench bin writes `{"bench": "<id>", "records": [Record, …]}`:
//! a flat list of named numbers, each tagged with its unit, the clock it
//! was measured on, and the regression band it allows when it serves as a
//! baseline. [`check`] diffs a re-measured record list against a
//! checked-in one (`BENCH_interp.json` for `perf_gate`,
//! `BENCH_serve.json` for `serve_bench --check`).
//!
//! The policy mirrors the repo's determinism contract. Quantities the
//! simulator fully controls — virtual cycles, trap counts — are
//! **exact**: any drift means a code change silently altered the modeled
//! cost of a hot path, which is precisely what the gate exists to catch.
//! Derived per-trap ratios get a small one-sided band, and the band lives
//! in the baseline record, not in the code. Nothing on the host clock is
//! gated — wall time on shared CI is noise — so host records are written
//! for reading only.
//!
//! The comparison logic is pure (`GateCheck`/`GateReport` over parsed
//! records), so the injected-regression test can prove the gate actually
//! fails when a baseline and a measurement disagree — a gate that cannot
//! fail is decoration. `check_exact`, `check_within` and `check_flag`
//! cover measured-vs-measured checks (telemetry on vs off, sketch vs
//! exact percentile, 1 vs 2 workers) in the same table.

use serde::{Deserialize, Serialize};

/// One gated comparison: a named measurement against its baseline.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// What is being compared (e.g. `webserve.virtual_cycles`).
    pub name: String,
    /// The checked-in baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub measured: f64,
    /// Allowed relative regression in percent; `0` means byte-exact.
    pub tolerance_pct: f64,
    /// Whether the measurement is within the band.
    pub ok: bool,
}

/// Exact check for deterministic virtual quantities: any difference —
/// faster or slower — fails, because deterministic counts never drift.
pub fn check_exact(name: impl Into<String>, baseline: u64, measured: u64) -> GateCheck {
    GateCheck {
        name: name.into(),
        baseline: baseline as f64,
        measured: measured as f64,
        tolerance_pct: 0.0,
        ok: baseline == measured,
    }
}

/// One-sided regression band: the measurement may improve freely but may
/// not exceed `baseline * (1 + tolerance_pct/100)`.
pub fn check_max_regression(
    name: impl Into<String>,
    baseline: f64,
    measured: f64,
    tolerance_pct: f64,
) -> GateCheck {
    let limit = baseline * (1.0 + tolerance_pct / 100.0);
    GateCheck {
        name: name.into(),
        baseline,
        measured,
        tolerance_pct,
        ok: baseline.is_finite() && measured.is_finite() && measured <= limit,
    }
}

/// Two-sided band for quantities that must stay *near* the baseline in
/// either direction (e.g. sketch-vs-exact percentile error).
pub fn check_within(
    name: impl Into<String>,
    baseline: f64,
    measured: f64,
    tolerance_pct: f64,
) -> GateCheck {
    let band = baseline.abs() * tolerance_pct / 100.0;
    GateCheck {
        name: name.into(),
        baseline,
        measured,
        tolerance_pct,
        ok: baseline.is_finite() && measured.is_finite() && (measured - baseline).abs() <= band,
    }
}

/// Boolean invariant rendered in the same table (1 = holds).
pub fn check_flag(name: impl Into<String>, expected: bool, observed: bool) -> GateCheck {
    GateCheck {
        name: name.into(),
        baseline: f64::from(u8::from(expected)),
        measured: f64::from(u8::from(observed)),
        tolerance_pct: 0.0,
        ok: expected == observed,
    }
}

/// The gate's verdict: every check, pass or fail, in evaluation order.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// All comparisons made.
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    /// Appends one check.
    pub fn push(&mut self, check: GateCheck) {
        self.checks.push(check);
    }

    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The failing checks, in order.
    #[must_use]
    pub fn failures(&self) -> Vec<&GateCheck> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }

    /// Fixed-width table for CI logs: one line per check plus a verdict.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>16} {:>16} {:>7}  verdict",
            "check", "baseline", "measured", "tol%"
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{:<44} {:>16} {:>16} {:>7}  {}",
                c.name,
                trim_float(c.baseline),
                trim_float(c.measured),
                trim_float(c.tolerance_pct),
                if c.ok { "pass" } else { "FAIL" }
            );
        }
        let fails = self.failures().len();
        let _ = writeln!(
            out,
            "{} checks, {} failed{}",
            self.checks.len(),
            fails,
            if fails == 0 { " — gate passes" } else { "" }
        );
        out
    }
}

/// Renders integral floats without a trailing `.0`, others to 4 places,
/// and the NaN of a missing baseline as `missing`.
fn trim_float(v: f64) -> String {
    if v.is_nan() {
        "missing".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

// ---- the one BENCH record shape ----

/// Which clock a [`Record`] was measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Deterministic simulator output (virtual cycles, counts, ratios of
    /// them): identical on every host, so it is gated.
    Virtual,
    /// Host wall-clock or host-dependent: reported, never gated.
    Host,
}

impl Serialize for Clock {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                Clock::Virtual => "virtual",
                Clock::Host => "host",
            }
            .to_string(),
        )
    }
}

impl Deserialize for Clock {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) if s == "virtual" => Ok(Clock::Virtual),
            serde::Value::Str(s) if s == "host" => Ok(Clock::Host),
            other => Err(serde::DeError::new(format!(
                "expected clock \"virtual\" or \"host\", got {other:?}"
            ))),
        }
    }
}

/// One named number of a bench bin's output file. Every `BENCH_*.json`
/// is `{"bench": "<id>", "records": [Record, …]}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Dotted name, unique within a file (e.g. `webserve.virtual_cycles`).
    pub name: String,
    /// The value; virtual counts stay below 2^53, so they are exact.
    pub value: f64,
    /// Unit of `value` (`cycles`, `count`, `s`, …).
    pub unit: String,
    /// Which clock produced the value.
    pub clock: Clock,
    /// Allowed relative regression in percent when this record is a
    /// baseline; `0` means exact. Only virtual records are gated.
    pub tolerance_pct: f64,
}

impl Record {
    /// A virtual-clock record, gated exactly.
    pub fn virt(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Record {
            name: name.into(),
            value,
            unit: unit.to_string(),
            clock: Clock::Virtual,
            tolerance_pct: 0.0,
        }
    }

    /// A host-clock record, never gated.
    pub fn host(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Record {
            clock: Clock::Host,
            ..Record::virt(name, value, unit)
        }
    }

    /// Sets the one-sided regression band this record allows as a baseline.
    #[must_use]
    pub fn with_tolerance(self, tolerance_pct: f64) -> Self {
        Record {
            tolerance_pct,
            ..self
        }
    }
}

#[derive(Deserialize)]
struct BenchFile {
    bench: String,
    records: Vec<Record>,
}

/// The value of the record called `name`, if present.
#[must_use]
pub fn value(records: &[Record], name: &str) -> Option<f64> {
    records.iter().find(|r| r.name == name).map(|r| r.value)
}

/// Renders one bench bin's output file, one record per line so the
/// checked-in files diff and grep by record.
#[must_use]
pub fn records_json(bench: &str, records: &[Record]) -> String {
    let line = |r: &Record| serde_json::to_string(r).expect("finite records serialize");
    let lines: Vec<String> = records.iter().map(line).collect();
    format!(
        "{{\"bench\": {},\n \"records\": [\n  {}\n]}}\n",
        serde_json::to_string(&bench).expect("a string serializes"),
        lines.join(",\n  ")
    )
}

/// Parses a `BENCH_*.json` file into its records.
///
/// # Errors
/// Fails on malformed JSON, a record of the wrong shape, or two records
/// with the same name (lookups go by name, and the file is outside data).
pub fn parse_records(json: &str) -> Result<Vec<Record>, String> {
    let file: BenchFile = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let mut seen = std::collections::BTreeSet::new();
    for r in &file.records {
        if !seen.insert(r.name.as_str()) {
            return Err(format!("{}: duplicate record `{}`", file.bench, r.name));
        }
    }
    Ok(file.records)
}

/// Gates every measured virtual record against the baseline record of the
/// same name: exact when the baseline's `tolerance_pct` is 0, otherwise a
/// one-sided band of that width. A measured record with no baseline fails;
/// baseline records nothing measured are ignored; host records are never
/// gated.
#[must_use]
pub fn check(baseline: &[Record], measured: &[Record]) -> GateReport {
    let mut report = GateReport::default();
    for m in measured.iter().filter(|m| m.clock == Clock::Virtual) {
        report.push(match baseline.iter().find(|b| b.name == m.name) {
            Some(b) if b.tolerance_pct > 0.0 => {
                check_max_regression(&m.name, b.value, m.value, b.tolerance_pct)
            }
            base => GateCheck {
                name: m.name.clone(),
                baseline: base.map_or(f64::NAN, |b| b.value),
                measured: m.value,
                tolerance_pct: 0.0,
                ok: base.is_some_and(|b| b.value == m.value),
            },
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
        "bench": "interp",
        "records": [
            {"name": "webserve.virtual_cycles", "value": 4747561.0,
             "unit": "cycles", "clock": "virtual", "tolerance_pct": 0.0},
            {"name": "webserve.traps", "value": 1066.0,
             "unit": "count", "clock": "virtual", "tolerance_pct": 0.0},
            {"name": "webserve.steady_cycles_per_trap", "value": 124.42,
             "unit": "cycles", "clock": "virtual", "tolerance_pct": 2.0},
            {"name": "webserve.fast.wall_secs", "value": 0.02,
             "unit": "s", "clock": "host", "tolerance_pct": 0.0}
        ]
    }"#;

    fn measured(cycles: f64, steady: f64) -> Vec<Record> {
        vec![
            Record::virt("webserve.virtual_cycles", cycles, "cycles"),
            Record::virt("webserve.traps", 1066.0, "count"),
            Record::virt("webserve.steady_cycles_per_trap", steady, "cycles"),
        ]
    }

    #[test]
    fn records_round_trip_and_parse() {
        let b = parse_records(BASELINE).unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(value(&b, "webserve.traps"), Some(1066.0));
        assert_eq!(b[3].clock, Clock::Host);
        assert!(value(&b, "nosuch").is_none());
        assert_eq!(parse_records(&records_json("interp", &b)).unwrap(), b);
        assert!(parse_records("{").is_err());
        assert!(parse_records(r#"{"bench":"x","records":[{"name":"a"}]}"#).is_err());
        let bad_clock = records_json("x", &[Record::virt("a", 1.0, "count")])
            .replace("\"virtual\"", "\"wall\"");
        assert!(parse_records(&bad_clock).is_err());
    }

    #[test]
    fn duplicate_record_name_is_rejected() {
        let dup = [
            Record::virt("serve.fleet_cycles", 1.0, "cycles"),
            Record::host("serve.fleet_cycles", 2.0, "s"),
        ];
        let err = parse_records(&records_json("serve", &dup)).unwrap_err();
        assert!(
            err.contains("duplicate record `serve.fleet_cycles`"),
            "{err}"
        );
    }

    #[test]
    fn gate_fails_on_injected_regression() {
        let b = parse_records(BASELINE).unwrap();
        // Clean re-measurement: every check passes.
        let clean = check(&b, &measured(4_747_561.0, 124.42));
        assert_eq!(clean.checks.len(), 3);
        assert!(clean.passed(), "{}", clean.render());

        // Injected regression: one extra virtual cycle must fail the gate.
        let tampered = check(&b, &measured(4_747_562.0, 124.42));
        assert!(!tampered.passed());
        assert_eq!(tampered.failures().len(), 1);
        assert_eq!(tampered.failures()[0].name, "webserve.virtual_cycles");
        assert!(tampered.render().contains("FAIL"));
        // Exact means exact in both directions.
        assert!(!check(&b, &measured(4_747_560.0, 124.42)).passed());
    }

    #[test]
    fn one_sided_band_takes_the_baseline_tolerance() {
        let b = parse_records(BASELINE).unwrap();
        let base = 124.42;
        // A hot path 2.1% slower than baseline breaches the 2% band; 1.9%
        // does not; a free improvement always passes.
        for (steady, ok) in [
            (base * 1.021, false),
            (base * 1.019, true),
            (base * 0.5, true),
        ] {
            let r = check(&b, &measured(4_747_561.0, steady));
            assert_eq!(r.passed(), ok, "{}", r.render());
            assert_eq!(r.checks[2].tolerance_pct, 2.0);
        }
        // The measured record's own tolerance is not consulted.
        let loose = measured(4_747_561.0, base * 1.5)
            .into_iter()
            .map(|r| r.with_tolerance(100.0))
            .collect::<Vec<_>>();
        assert!(!check(&b, &loose).passed());
    }

    #[test]
    fn missing_baseline_fails_and_host_records_are_never_gated() {
        let b = parse_records(BASELINE).unwrap();
        let r = check(&b, &[Record::virt("webserve.new_counter", 1.0, "count")]);
        assert!(!r.passed());
        assert!(r.checks[0].baseline.is_nan());
        assert!(r.render().contains("missing"), "{}", r.render());

        // Host records are skipped, matching baseline or not.
        let host = [
            Record::host("webserve.fast.wall_secs", 99.0, "s"),
            Record::host("nosuch.wall_secs", 1.0, "s"),
        ];
        assert!(check(&b, &host).checks.is_empty());
        // Unmeasured baseline records are ignored.
        assert!(check(&b, &[]).passed());
    }

    #[test]
    fn two_sided_band_and_flags() {
        assert!(check_within("err", 100.0, 101.9, 2.0).ok);
        assert!(!check_within("err", 100.0, 102.1, 2.0).ok);
        assert!(!check_within("err", 100.0, 97.0, 2.0).ok);
        assert!(check_flag("byte_identical", true, true).ok);
        assert!(!check_flag("byte_identical", true, false).ok);
    }
}

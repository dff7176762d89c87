//! Host-timed benchmark of the BASTION reproduction: four closed-loop
//! workloads, end-to-end metrics from untraced runs, per-layer metrics
//! from a traced replica. See README.md beside this package.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <out.jsonl>]
//! benchmark --compare <setA.jsonl> <setB.jsonl>
//! ```
//!
//! Every metric prints as `name value unit`, then one detail line
//! (`workload`, `seed`, `host`, op counts, and each metric's median and
//! quartiles over the run's repetitions), then the result line
//! `{correct, attempted, failed, metrics}`. The exit code is non-zero when
//! any correctness check fails.

mod compare;
mod heap;
mod json;
mod metrics;
mod reference;
mod replica;
mod stats;
mod trace;
mod workloads;

use json::{line, num, obj, text, uint};
use metrics::{TracedRep, END_TO_END, PER_LAYER};
use reference::RefClock;
use serde::Value;
use stats::Quartiles;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_rep, run_setup, Inputs, Rep, Workload};

#[cfg(not(test))]
#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Largest share of the traced wall time the per-layer self times may
/// leave unattributed.
const MAX_RESIDUAL_PCT: f64 = 5.0;

const USAGE: &str = "usage: benchmark --workload <serve-web|serve-ftp|paper-grid|chaos> \
--seed <n> --seconds <s> --trace <0|1> [--spans <out.jsonl>]\n       \
benchmark --compare <setA.jsonl> <setB.jsonl>";

#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(RunArgs),
    Compare(String, String),
}

/// Accepts `--key value` and `--key=value`.
fn parse(args: &[String]) -> Result<Command, String> {
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(flag) = a.strip_prefix("--") else {
            rest.push(a.clone());
            continue;
        };
        match flag.split_once('=') {
            Some((k, v)) => flags.push((k.to_string(), v.to_string())),
            None => {
                let v = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                flags.push((flag.to_string(), v.clone()));
            }
        }
    }
    let get = |k: &str| {
        flags
            .iter()
            .rev()
            .find(|(f, _)| f == k)
            .map(|(_, v)| v.as_str())
    };
    if let Some(a) = get("compare") {
        let [b] = rest.as_slice() else {
            return Err("--compare takes two files".to_string());
        };
        return Ok(Command::Compare(a.to_string(), b.clone()));
    }
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    if let Some((k, _)) = flags.iter().find(|(k, _)| {
        !matches!(
            k.as_str(),
            "workload" | "seed" | "seconds" | "trace" | "spans"
        )
    }) {
        return Err(format!("unknown flag --{k}"));
    }
    let workload = get("workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Command::Run(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        spans: get("spans").map(str::to_string),
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Ok(Command::Compare(a, b)) => compare::run(&a, &b),
        Ok(Command::Run(r)) => run(&r),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A reported metric: its quartiles over the run's repetitions.
struct Reported {
    name: &'static str,
    unit: &'static str,
    q: Quartiles,
    virtual_clock: bool,
    /// Whether the result line carries it: the mode's catalogue metrics.
    /// Virtual metrics and raw host times appear in the detail line only.
    in_result: bool,
}

impl Reported {
    fn host(name: &'static str, unit: &'static str, q: Quartiles, in_result: bool) -> Reported {
        Reported {
            name,
            unit,
            q,
            virtual_clock: false,
            in_result,
        }
    }
}

fn run(a: &RunArgs) -> Result<bool, String> {
    let w = a.workload;
    let inputs = Inputs::from_seed(w, a.seed);
    eprintln!(
        "{} seed={} seconds={} trace={} (one op = one {})",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        w.op()
    );
    let mut clock = RefClock::new();
    let mut checks: Vec<(&'static str, bool)> = Vec::new();
    let (reps, mut reported) = if a.trace {
        traced(a, &inputs, &mut clock, &mut checks)?
    } else {
        untraced(a, &inputs, &mut clock, &mut checks)?
    };
    reported.extend(virtual_metrics(&reps));

    let first = &reps[0];
    checks.extend(first.checks.iter().copied());
    checks.push((
        "virtual metrics are byte-identical across repetitions",
        reps.iter().all(|r| {
            r.fingerprint == first.fingerprint
                && r.virt.len() == first.virt.len()
                && r.virt
                    .iter()
                    .zip(&first.virt)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
                && r.checks.iter().all(|c| c.1)
        }),
    ));
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    checks.push(("no operation failed", failed == 0));
    for (name, ok) in &checks {
        if !ok {
            eprintln!("CHECK FAILED: {name}");
        }
    }
    let correct = checks.iter().all(|c| c.1);

    for m in &reported {
        println!("{} {} {}", m.name, m.q.median, m.unit);
    }
    let (nproc, cpu) = host();
    let detail = obj(vec![
        ("workload", text(w.name())),
        ("seed", uint(a.seed)),
        ("trace", Value::Bool(a.trace)),
        (
            "host",
            obj(vec![("nproc", uint(nproc as u64)), ("cpu", text(&cpu))]),
        ),
        ("ops_attempted", uint(attempted)),
        ("ops_ok", uint(attempted - failed)),
        ("ops_failed", uint(failed)),
        (
            "metrics",
            obj(reported
                .iter()
                .map(|m| {
                    (
                        m.name,
                        obj(vec![
                            ("median", num(m.q.median)),
                            ("q1", num(m.q.q1)),
                            ("q3", num(m.q.q3)),
                            ("unit", text(m.unit)),
                            (
                                "clock",
                                text(if m.virtual_clock { "virtual" } else { "host" }),
                            ),
                        ]),
                    )
                })
                .collect()),
        ),
    ]);
    println!("{}", line(detail));
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", uint(attempted.max(1))),
        ("failed", uint(failed)),
        (
            "metrics",
            obj(reported
                .iter()
                .filter(|m| m.in_result)
                .map(|m| {
                    (
                        m.name,
                        obj(vec![("value", num(m.q.median)), ("unit", text(m.unit))]),
                    )
                })
                .collect()),
        ),
    ]);
    println!("{}", line(result));
    Ok(correct)
}

/// The virtual-clock metrics every repetition reported (identical across
/// repetitions when the checks pass).
fn virtual_metrics(reps: &[Rep]) -> Vec<Reported> {
    reps[0]
        .virt
        .iter()
        .map(|&(name, _, unit)| {
            let values: Vec<f64> = reps
                .iter()
                .flat_map(|r| r.virt.iter().filter(|v| v.0 == name).map(|v| v.1))
                .collect();
            Reported {
                name,
                unit,
                q: Quartiles::of(&values),
                virtual_clock: true,
                in_result: false,
            }
        })
        .collect()
}

/// End-to-end run: after a warm-up, a set-up and a whole repetition, in
/// turn, each timed against the reference clock, until `--seconds` have
/// passed.
/// Interleaving spreads the set-up samples over the run like the
/// repetitions, so a burst of host load lands on a few samples of each
/// rather than on every set-up.
fn untraced(
    a: &RunArgs,
    inputs: &Inputs,
    clock: &mut RefClock,
    checks: &mut Vec<(&'static str, bool)>,
) -> Result<(Vec<Rep>, Vec<Reported>), String> {
    // One untimed set-up and repetition first: allocator growth and
    // first-touch page faults land there, not on a measured sample. Its
    // outputs are still checked.
    let mut booted = run_setup(inputs);
    let warm = run_rep(inputs);
    let t0 = Instant::now();
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    let mut heap_peaks = Vec::new();
    while reps.is_empty() || t0.elapsed().as_secs_f64() < a.seconds {
        let (ok, setup) = clock.time(|| run_setup(inputs));
        booted &= ok;
        setups.push(setup);
        let ((r, peak), t) = clock.time(|| {
            heap::reset_peak();
            let r = run_rep(inputs);
            (r, heap::peak_mib())
        });
        eprintln!(
            "  set-up {:.3} s, rep {}: {:.3} s, {} ops, peak heap {:.3} MiB, host slowdown {:.3}",
            setup.wall_s,
            reps.len(),
            t.wall_s,
            r.ops,
            peak,
            t.slowdown
        );
        reps.push((r, t));
        heap_peaks.push(peak);
    }
    checks.push(("set-up boots every world", booted));
    let e2e = metrics::end_to_end(&setups, &reps, &heap_peaks);
    let mut reported: Vec<Reported> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(m, q)| Reported::host(m.name, m.unit, q, true))
        .collect();
    reported.extend(
        metrics::raw_host(&setups, &reps)
            .into_iter()
            .map(|(name, unit, q)| Reported::host(name, unit, q, false)),
    );
    reported.push(Reported::host(
        "peak_rss_mb",
        "MiB",
        Quartiles::of(&[peak_rss_mb()?]),
        false,
    ));
    let checked = std::iter::once(warm).chain(reps.into_iter().map(|(r, _)| r));
    Ok((checked.collect(), reported))
}

/// Per-layer run: a snapshot/restore probe, then pairs of an untraced
/// repetition and a traced replica of the same inputs until `--seconds`
/// have passed.
fn traced(
    a: &RunArgs,
    inputs: &Inputs,
    clock: &mut RefClock,
    checks: &mut Vec<(&'static str, bool)>,
) -> Result<(Vec<Rep>, Vec<Reported>), String> {
    let residual_at = PER_LAYER
        .iter()
        .position(|m| m.name == "trace.residual_pct")
        .expect("the catalogue lists the residual");
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut rows: Vec<[f64; PER_LAYER.len()]> = Vec::new();
    let mut last_spans = Vec::new();
    let (mut identical, mut attributed) = (true, true);
    let ((), probe_spans) = trace::record(|| replica::probe_snapshots(inputs));
    let probe = trace::Profile::of(&probe_spans);
    while reps.is_empty() || t0.elapsed().as_secs_f64() < a.seconds {
        let (rep, untraced) = clock.time(|| run_rep(inputs));
        let ((replica, spans), traced) = clock.time(|| trace::record(|| replica::run(inputs)));
        eprintln!(
            "  pair {}: untraced {:.3} s, traced {:.3} s, {} spans",
            reps.len(),
            untraced.wall_s,
            traced.wall_s,
            spans.len()
        );
        let same = replica.fingerprint == rep.fingerprint;
        identical &= same;
        if !same {
            let diff = replica
                .fingerprint
                .iter()
                .zip(&rep.fingerprint)
                .find(|(x, y)| x != y);
            eprintln!("  replica diverged: {diff:?}");
        }
        let row = metrics::per_layer(&TracedRep {
            profile: &trace::Profile::of(&spans),
            probe: &probe,
            totals: replica.totals,
            traced,
            untraced,
        });
        attributed &= row[residual_at].abs() <= MAX_RESIDUAL_PCT;
        rows.push(row);
        reps.push(rep);
        last_spans = spans;
    }
    checks.push((
        "traced replica reproduces the untraced virtual totals",
        identical,
    ));
    checks.push((
        "per-layer self times sum to the traced wall within the residual",
        attributed,
    ));
    if let Some(path) = &a.spans {
        std::fs::write(path, trace::to_jsonl(&last_spans)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("  wrote {} spans to {path}", last_spans.len());
    }
    let reported = PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let q = Quartiles::of(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
            Reported::host(m.name, m.unit, q, true)
        })
        .collect();
    Ok((reps, reported))
}

/// Worker threads available and the CPU model, for the detail line.
fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, cpu)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_both_flag_spellings() {
        let want = Command::Run(RunArgs {
            workload: Workload::Chaos,
            seed: 7,
            seconds: 12.0,
            trace: true,
            spans: None,
        });
        assert_eq!(
            parse(&args("--workload chaos --seed 7 --seconds 12 --trace 1")),
            Ok(want)
        );
        let want = Command::Run(RunArgs {
            workload: Workload::ServeWeb,
            seed: 0,
            seconds: 10.0,
            trace: false,
            spans: Some("s.jsonl".to_string()),
        });
        assert_eq!(
            parse(&args("--workload=serve-web --spans=s.jsonl")),
            Ok(want)
        );
        assert_eq!(
            parse(&args("--compare a.jsonl b.jsonl")),
            Ok(Command::Compare(
                "a.jsonl".to_string(),
                "b.jsonl".to_string()
            ))
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload chaos --trace 2")).is_err());
        assert!(parse(&args("--workload chaos --reps 3")).is_err());
        assert!(parse(&args("--workload chaos --seconds 0")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--compare a.jsonl")).is_err());
    }
}

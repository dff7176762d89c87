//! `--compare <setA.jsonl> <setB.jsonl>`: a verdict per (workload,
//! metric) between two sets of runs.
//!
//! A set is the standard output of several runs appended to one file;
//! only the detail lines (JSON objects with a `workload` key) are read.
//! Each run contributes its median. A host metric with a bound reads
//! `within`, `worse` or `better` by comparing the two sides' medians
//! against the bound, or `unresolved` when either side's own spread
//! between runs exceeds the bound. A virtual metric must be identical
//! seed for seed: `identical` or `differs`. Per-layer host metrics carry
//! no bound and are not judged.

use crate::json::{f64_of, str_of, Json};
use crate::metrics::{bound_of, Better};
use crate::stats::Quartiles;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};

/// One run's medians: metric → (median, unit, clock).
type RunMetrics = BTreeMap<String, (f64, String, String)>;

/// Runs grouped by workload, each run keyed by its seed.
type Set = BTreeMap<String, Vec<(u64, RunMetrics)>>;

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    for l in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(Json(v)) = serde_json::from_str::<Json>(l) else {
            continue;
        };
        let Some(workload) = str_of(&v, "workload") else {
            continue;
        };
        let seed =
            f64_of(&v, "seed").ok_or_else(|| format!("{path}: detail line without a seed"))? as u64;
        let Ok(Value::Object(fields)) = v.field("metrics") else {
            return Err(format!("{path}: detail line without metrics"));
        };
        let mut run = RunMetrics::new();
        for (name, m) in fields {
            let median =
                f64_of(m, "median").ok_or_else(|| format!("{path}: {name} has no median"))?;
            let unit = str_of(m, "unit").unwrap_or("").to_string();
            let clock = str_of(m, "clock").unwrap_or("host").to_string();
            run.insert(name.clone(), (median, unit, clock));
        }
        set.entry(workload.to_string())
            .or_default()
            .push((seed, run));
    }
    if set.is_empty() {
        return Err(format!("{path}: no detail lines"));
    }
    Ok(set)
}

/// The verdict for one bounded host metric.
pub fn verdict(a: &Quartiles, b: &Quartiles, bound: f64, better: Better) -> &'static str {
    if a.spread() > bound || b.spread() > bound {
        return "unresolved";
    }
    let change = (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE);
    let gain = match better {
        Better::Higher => change,
        Better::Lower => -change,
    };
    if gain < -bound {
        "worse"
    } else if gain > bound {
        "better"
    } else {
        "within"
    }
}

/// Prints the comparison; returns whether nothing got worse and every
/// virtual metric stayed identical.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<11} {:<16} {:>42} {:>42}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload:<11} (missing from {path_b})");
            ok = false;
            continue;
        };
        let names: BTreeSet<&String> = runs_a.iter().flat_map(|(_, m)| m.keys()).collect();
        for name in names {
            let side = |runs: &Vec<(u64, RunMetrics)>| -> Vec<(u64, f64, String, String)> {
                runs.iter()
                    .filter_map(|(seed, m)| {
                        m.get(name)
                            .map(|(v, u, c)| (*seed, *v, u.clone(), c.clone()))
                    })
                    .collect()
            };
            let (sa, sb) = (side(runs_a), side(runs_b));
            if sb.is_empty() {
                continue;
            }
            let unit = &sa[0].2;
            let values =
                |s: &[(u64, f64, String, String)]| s.iter().map(|x| x.1).collect::<Vec<_>>();
            let (qa, qb) = (Quartiles::of(&values(&sa)), Quartiles::of(&values(&sb)));
            let verdict = if sa[0].3 == "virtual" {
                let by_seed = |s: &[(u64, f64, String, String)]| {
                    s.iter()
                        .map(|x| (x.0, x.1.to_bits()))
                        .collect::<BTreeMap<_, _>>()
                };
                if by_seed(&sa) == by_seed(&sb) {
                    "identical"
                } else {
                    "differs"
                }
            } else if let Some((bound, better)) = bound_of(name) {
                verdict(&qa, &qb, bound, better)
            } else {
                continue;
            };
            ok &= !matches!(verdict, "worse" | "differs");
            let show = |q: &Quartiles| format!("{:.4} [{:.4}, {:.4}]", q.median, q.q1, q.q3);
            println!(
                "{workload:<11} {:<16} {:>42} {:>42}  {verdict} ({unit})",
                name,
                show(&qa),
                show(&qb)
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(q1: f64, median: f64, q3: f64) -> Quartiles {
        Quartiles { q1, median, q3 }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = q(99.0, 100.0, 101.0);
        assert_eq!(
            verdict(&base, &q(104.0, 105.0, 106.0), 0.10, Better::Higher),
            "within"
        );
        assert_eq!(
            verdict(&base, &q(79.0, 80.0, 81.0), 0.10, Better::Higher),
            "worse"
        );
        assert_eq!(
            verdict(&base, &q(119.0, 120.0, 121.0), 0.10, Better::Higher),
            "better"
        );
        assert_eq!(
            verdict(&base, &q(119.0, 120.0, 121.0), 0.10, Better::Lower),
            "worse"
        );
        // Either side spreading wider than the bound leaves it unresolved.
        assert_eq!(
            verdict(&base, &q(60.0, 100.0, 140.0), 0.10, Better::Lower),
            "unresolved"
        );
    }
}

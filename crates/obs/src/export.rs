//! Exporters: Chrome `trace_event` JSON for the span ring, plus phase
//! aggregation shared by the CLI and the bench bins.
//!
//! The exporter re-balances the event stream before emitting it: a ring
//! that wrapped mid-span leaves orphaned `End` events at the front (their
//! `Begin` was overwritten) and unclosed `Begin` events at the back.
//! Orphaned ends are dropped and dangling begins are closed at the final
//! timestamp, so the exported JSON always contains balanced B/E pairs with
//! monotone timestamps — the shape [`validate_chrome_trace`] checks.

use crate::metrics::MetricsSnapshot;
use crate::span::{EventKind, Phase, TraceEvent};
use serde::{DeError, Deserialize, Serialize, Value};

/// Pass-through wrapper so a hand-built [`Value`] tree can flow through
/// the serde_json shim in both directions.
struct RawValue(Value);

impl Serialize for RawValue {
    fn serialize_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for RawValue {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        Ok(RawValue(v.clone()))
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders events as a Chrome `trace_event` JSON document (load it at
/// `chrome://tracing` or in Perfetto). Timestamps are the deterministic
/// virtual-cycle clock, one microsecond per cycle.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out: Vec<Value> = Vec::new();
    let mut stack: Vec<Phase> = Vec::new();
    let mut last_ts = 0u64;
    for ev in events {
        last_ts = ev.vcycles;
        match ev.kind {
            EventKind::Begin => {
                stack.push(ev.phase);
                out.push(trace_obj(ev, "B"));
            }
            EventKind::End => {
                // Only a LIFO match closes a span; anything else is an
                // orphan from ring wraparound and is dropped.
                if stack.last() == Some(&ev.phase) {
                    stack.pop();
                    out.push(trace_obj(ev, "E"));
                }
            }
            EventKind::Instant => out.push(trace_obj(ev, "i")),
        }
    }
    // Close dangling spans (innermost first) at the final timestamp.
    while let Some(phase) = stack.pop() {
        let synth = TraceEvent {
            kind: EventKind::End,
            phase,
            trap: 0,
            vcycles: last_ts,
            wall_ns: 0,
            arg: 0,
        };
        out.push(trace_obj(&synth, "E"));
    }
    let doc = obj(vec![
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&RawValue(doc)).expect("trace document serializes")
}

fn trace_obj(ev: &TraceEvent, ph: &str) -> Value {
    let mut fields = vec![
        ("name", Value::Str(ev.phase.name().to_string())),
        ("cat", Value::Str(ev.phase.category().to_string())),
        ("ph", Value::Str(ph.to_string())),
        ("ts", Value::UInt(ev.vcycles)),
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(1)),
    ];
    if ph == "i" {
        fields.push(("s", Value::Str("t".to_string())));
    }
    fields.push((
        "args",
        obj(vec![
            ("trap", Value::UInt(ev.trap)),
            ("arg", Value::UInt(ev.arg)),
            ("wall_ns", Value::UInt(ev.wall_ns)),
        ]),
    ));
    obj(fields)
}

/// Shape summary of a validated Chrome trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceShape {
    /// Total `traceEvents` entries.
    pub events: u64,
    /// `"B"` events (equals `ends` in a valid trace).
    pub begins: u64,
    /// `"E"` events.
    pub ends: u64,
    /// `"i"` events.
    pub instants: u64,
    /// Matched begin/end pairs named `trap` (root spans).
    pub trap_spans: u64,
    /// Deepest span nesting observed.
    pub max_depth: u64,
}

/// Validates Chrome-trace JSON shape: parseable, non-decreasing
/// timestamps, and balanced B/E events with LIFO name nesting and no span
/// left open. The trace is one lane ([`chrome_trace_json`] writes every
/// event on `tid` 1), so `pid`/`tid` are not read. Returns the shape
/// summary on success.
pub fn validate_chrome_trace(json: &str) -> Result<TraceShape, String> {
    let raw: RawValue = serde_json::from_str(json).map_err(|e| format!("parse: {e}"))?;
    let events = match raw.0.field("traceEvents") {
        Ok(Value::Array(items)) => items.clone(),
        Ok(other) => return Err(format!("traceEvents is {}, not array", other.kind())),
        Err(e) => return Err(e.to_string()),
    };
    let mut shape = TraceShape::default();
    let mut stack: Vec<String> = Vec::new();
    let mut last_ts: Option<u64> = None;
    for (i, ev) in events.iter().enumerate() {
        let name = match ev.field("name") {
            Ok(Value::Str(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing string `name`")),
        };
        let ph = match ev.field("ph") {
            Ok(Value::Str(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing string `ph`")),
        };
        let ts = match ev.field("ts") {
            Ok(Value::UInt(v)) => *v,
            Ok(Value::Int(v)) if *v >= 0 => *v as u64,
            _ => return Err(format!("event {i}: missing integer `ts`")),
        };
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!("event {i}: timestamp {ts} < predecessor {prev}"));
            }
        }
        last_ts = Some(ts);
        shape.events += 1;
        match ph.as_str() {
            "B" => {
                stack.push(name);
                shape.begins += 1;
                shape.max_depth = shape.max_depth.max(stack.len() as u64);
            }
            "E" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: `E` with no open span"))?;
                if open != name {
                    return Err(format!("event {i}: `E` for `{name}` but `{open}` is open"));
                }
                shape.ends += 1;
                if name == "trap" {
                    shape.trap_spans += 1;
                }
            }
            "i" => shape.instants += 1,
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    if !stack.is_empty() {
        return Err(format!("{} span(s) never closed: {stack:?}", stack.len()));
    }
    Ok(shape)
}

/// Renders a metrics snapshot as pretty-printed JSON — the dump format of
/// `bastion stats --json` and the bench bins.
pub fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    serde_json::to_string_pretty(snapshot).expect("metrics snapshot serializes")
}

/// Renders a metrics snapshot as one compact JSON line for the periodic
/// JSONL snapshot stream (`bastion top --jsonl`, and the `bastiond`
/// per-tenant lanes to come). `labels` become top-level string fields
/// (e.g. `world`/`tenant`), so a line is self-describing without a header.
pub fn metrics_jsonl_line(snapshot: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    let mut fields: Vec<(&str, Value)> = labels
        .iter()
        .map(|&(k, v)| (k, Value::Str(v.to_string())))
        .collect();
    let counters: Vec<Value> = snapshot
        .counters
        .iter()
        .map(|c| {
            obj(vec![
                ("name", Value::Str(c.name.clone())),
                ("value", Value::UInt(c.value)),
            ])
        })
        .collect();
    fields.push(("counters", Value::Array(counters)));
    let sketches: Vec<Value> = snapshot
        .sketches
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::Str(s.name.clone())),
                ("count", Value::UInt(s.count)),
                ("sum", Value::UInt(s.sum)),
                ("p50", Value::UInt(s.p50)),
                ("p95", Value::UInt(s.p95)),
                ("p99", Value::UInt(s.p99)),
                ("p999", Value::UInt(s.p999)),
            ])
        })
        .collect();
    fields.push(("sketches", Value::Array(sketches)));
    serde_json::to_string(&RawValue(obj(fields))).expect("jsonl line serializes")
}

/// Sanitizes a dotted metric name into a Prometheus metric name:
/// `trap.verify_cycles` → `bastion_trap_verify_cycles`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("bastion_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a label set (plus an optional extra pair) as `{k="v",...}`,
/// empty string when there are no labels.
fn prom_labels(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|&(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders a metrics snapshot in the Prometheus text exposition format
/// (version 0.0.4): counters as `counter` and quantile sketches as
/// `summary` families (p50/p95/p99/p999 `quantile` series plus
/// `_sum`/`_count`). `labels` are attached to
/// every sample — the per-World/tenant lane mechanism `bastiond` reuses.
pub fn prometheus_text(snapshot: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let name = prom_name(&c.name);
        out.push_str(&format!("# TYPE {name} counter\n"));
        out.push_str(&format!(
            "{name}{} {}\n",
            prom_labels(labels, None),
            c.value
        ));
    }
    for s in &snapshot.sketches {
        let name = prom_name(&s.name);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, v) in s.lanes() {
            out.push_str(&format!(
                "{name}{} {v}\n",
                prom_labels(labels, Some(("quantile", q)))
            ));
        }
        out.push_str(&format!(
            "{name}_sum{} {}\n",
            prom_labels(labels, None),
            s.sum
        ));
        out.push_str(&format!(
            "{name}_count{} {}\n",
            prom_labels(labels, None),
            s.count
        ));
    }
    out
}

/// Shape summary of a validated Prometheus exposition document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromShape {
    /// Total samples (non-comment lines).
    pub samples: usize,
    /// `# TYPE` families declared.
    pub families: usize,
    /// Summary families (checked for quantile series and `_sum`/`_count`).
    pub summaries: usize,
}

/// Validates Prometheus text exposition shape: every sample line parses
/// as `name[{labels}] value`, every sample's family was declared by a
/// preceding `# TYPE`, and summary families carry quantile series plus
/// `_sum` and `_count`.
///
/// # Errors
/// Returns a description of the first malformed line or family.
pub fn validate_prometheus(text: &str) -> Result<PromShape, String> {
    let mut shape = PromShape::default();
    let mut families: Vec<(String, String)> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or(format!("line {ln}: TYPE without name"))?;
            let kind = it.next().ok_or(format!("line {ln}: TYPE without kind"))?;
            if !matches!(kind, "counter" | "gauge" | "summary") {
                return Err(format!("line {ln}: unknown TYPE kind `{kind}`"));
            }
            families.push((name.to_string(), kind.to_string()));
            shape.families += 1;
            if kind == "summary" {
                shape.summaries += 1;
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {ln}: no value: `{line}`"))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("line {ln}: non-numeric value `{value}`"));
        }
        let name_part = series.split('{').next().unwrap_or(series);
        if name_part.is_empty()
            || !name_part
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {ln}: bad metric name `{name_part}`"));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("line {ln}: unterminated label set"));
        }
        let family = families.iter().find(|(f, _)| {
            name_part == f
                || name_part
                    .strip_prefix(f.as_str())
                    .is_some_and(|sfx| matches!(sfx, "_sum" | "_count"))
        });
        if family.is_none() {
            return Err(format!("line {ln}: sample `{name_part}` has no # TYPE"));
        }
        shape.samples += 1;
        seen.push(series.to_string());
    }
    // Family completeness: summaries need quantile series, _sum and _count.
    for (name, kind) in &families {
        if kind == "summary" {
            for sfx in ["_sum", "_count"] {
                if !seen
                    .iter()
                    .any(|s| s.split('{').next().unwrap_or(s) == format!("{name}{sfx}").as_str())
                {
                    return Err(format!("family `{name}` missing {name}{sfx}"));
                }
            }
            let q = seen
                .iter()
                .any(|s| s.starts_with(name.as_str()) && s.contains("quantile=\""));
            if !q {
                return Err(format!("summary `{name}` has no quantile series"));
            }
        }
    }
    Ok(shape)
}

/// Per-phase aggregation of an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotal {
    /// The phase.
    pub phase: Phase,
    /// Completed spans.
    pub spans: u64,
    /// Instant events.
    pub instants: u64,
    /// Inclusive virtual cycles (children counted).
    pub cycles: u64,
    /// Exclusive virtual cycles (children subtracted).
    pub self_cycles: u64,
}

/// Aggregates per-phase span counts and cycle totals (inclusive and
/// exclusive). Orphaned ends and unclosed begins are ignored, mirroring
/// the exporter's balancing policy.
pub fn phase_totals(events: &[TraceEvent]) -> Vec<PhaseTotal> {
    use std::collections::BTreeMap;
    fn slot(acc: &mut BTreeMap<Phase, PhaseTotal>, phase: Phase) -> &mut PhaseTotal {
        acc.entry(phase).or_insert(PhaseTotal {
            phase,
            spans: 0,
            instants: 0,
            cycles: 0,
            self_cycles: 0,
        })
    }
    let mut acc: BTreeMap<Phase, PhaseTotal> = BTreeMap::new();
    let mut stack: Vec<(Phase, u64, u64)> = Vec::new(); // (phase, begin_ts, child cycles)
    for ev in events {
        match ev.kind {
            EventKind::Begin => stack.push((ev.phase, ev.vcycles, 0)),
            EventKind::End => {
                if stack.last().map(|f| f.0) == Some(ev.phase) {
                    let (phase, begin, child) = stack.pop().expect("non-empty");
                    let incl = ev.vcycles.saturating_sub(begin);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += incl;
                    }
                    let t = slot(&mut acc, phase);
                    t.spans += 1;
                    t.cycles += incl;
                    t.self_cycles += incl.saturating_sub(child);
                }
            }
            EventKind::Instant => slot(&mut acc, ev.phase).instants += 1,
        }
    }
    acc.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::EventKind as K;

    fn ev(kind: K, phase: Phase, vcycles: u64) -> TraceEvent {
        TraceEvent {
            kind,
            phase,
            trap: 1,
            vcycles,
            wall_ns: vcycles * 10,
            arg: 0,
        }
    }

    #[test]
    fn export_and_validate_roundtrip() {
        let events = vec![
            ev(K::Begin, Phase::Trap, 100),
            ev(K::Begin, Phase::CtCheck, 110),
            ev(K::Instant, Phase::CtCacheHit, 115),
            ev(K::End, Phase::CtCheck, 150),
            ev(K::End, Phase::Trap, 200),
        ];
        let json = chrome_trace_json(&events);
        let shape = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(shape.begins, 2);
        assert_eq!(shape.ends, 2);
        assert_eq!(shape.instants, 1);
        assert_eq!(shape.trap_spans, 1);
        assert_eq!(shape.max_depth, 2);
    }

    #[test]
    fn wrapped_stream_is_rebalanced() {
        // A ring that wrapped mid-span: orphan ends up front, a dangling
        // begin at the back.
        let events = vec![
            ev(K::End, Phase::CtCheck, 90),
            ev(K::End, Phase::Trap, 95),
            ev(K::Begin, Phase::Trap, 100),
            ev(K::Begin, Phase::CfWalk, 110),
            ev(K::End, Phase::CfWalk, 150),
        ];
        let json = chrome_trace_json(&events);
        let shape = validate_chrome_trace(&json).expect("rebalanced trace validates");
        assert_eq!(shape.begins, shape.ends);
        assert_eq!(shape.trap_spans, 1, "dangling trap begin closed");
    }

    #[test]
    fn validator_rejects_non_monotone() {
        let json = r#"{"traceEvents":[
            {"name":"trap","ph":"B","ts":100,"pid":1,"tid":1},
            {"name":"trap","ph":"E","ts":50,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(json).is_err());
    }

    #[test]
    fn validator_rejects_unbalanced() {
        let json = r#"{"traceEvents":[
            {"name":"trap","ph":"B","ts":100,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(json).is_err());
        let json = r#"{"traceEvents":[
            {"name":"trap","ph":"E","ts":100,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(json).is_err());
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut r = crate::metrics::MetricsRegistry::new();
        r.counter_add("monitor.denies", 3);
        r.sketch_observe("monitor.walk_depth", 3);
        r.sketch_observe("monitor.walk_depth", 9);
        for v in [100u64, 200, 300, 5000] {
            r.sketch_observe("trap.verify_cycles", v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_exposition_validates() {
        let snap = sample_snapshot();
        let text = prometheus_text(&snap, &[("world", "webserve")]);
        let shape = validate_prometheus(&text).expect("valid exposition");
        assert_eq!(shape.families, 3);
        assert_eq!(shape.summaries, 2);
        assert!(text.contains("bastion_monitor_denies{world=\"webserve\"} 3"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("bastion_trap_verify_cycles_count{world=\"webserve\"} 4"));
        assert!(text.contains("bastion_monitor_walk_depth_sum{world=\"webserve\"} 12"));
        assert!(
            !text.contains(" histogram"),
            "no histogram family is emitted"
        );
        // Unlabelled exposition also validates.
        validate_prometheus(&prometheus_text(&snap, &[])).expect("unlabelled validates");
    }

    #[test]
    fn prometheus_validator_rejects_malformed() {
        assert!(validate_prometheus("bastion_x 1\n").is_err(), "no # TYPE");
        assert!(validate_prometheus("# TYPE bastion_x counter\nbastion_x notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE bastion_x widget\n").is_err());
        assert!(
            validate_prometheus("# TYPE bastion_x summary\nbastion_x{quantile=\"0.5\"} 1\n")
                .is_err(),
            "summary without _sum/_count must fail"
        );
        assert!(
            validate_prometheus("# TYPE bastion_x histogram\n").is_err(),
            "the exporter emits no histogram family, so none is accepted"
        );
        assert!(
            validate_prometheus("# TYPE bastion_x counter\nbastion_x{world=\"w\" 1\n").is_err(),
            "unterminated label set must fail"
        );
    }

    #[test]
    fn jsonl_line_is_single_line_with_labels() {
        let snap = sample_snapshot();
        let line = metrics_jsonl_line(&snap, &[("world", "dbkv"), ("tenant", "7")]);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"world\":\"dbkv\",\"tenant\":\"7\""));
        assert!(line.contains("\"sketches\""));
        assert!(line.contains("\"p999\""));
        assert!(line.contains("\"sum\""));
        // And it parses back as JSON.
        let v: super::RawValue = serde_json::from_str(&line).expect("parses");
        assert!(matches!(v.0, Value::Object(_)));
    }

    #[test]
    fn phase_totals_inclusive_and_exclusive() {
        let events = vec![
            ev(K::Begin, Phase::Trap, 0),
            ev(K::Begin, Phase::CfWalk, 10),
            ev(K::End, Phase::CfWalk, 40),
            ev(K::End, Phase::Trap, 100),
            ev(K::Instant, Phase::Retry, 100),
        ];
        let totals = phase_totals(&events);
        let get = |p: Phase| totals.iter().find(|t| t.phase == p).copied().unwrap();
        assert_eq!(get(Phase::Trap).cycles, 100);
        assert_eq!(get(Phase::Trap).self_cycles, 70);
        assert_eq!(get(Phase::CfWalk).cycles, 30);
        assert_eq!(get(Phase::CfWalk).self_cycles, 30);
        assert_eq!(get(Phase::Retry).instants, 1);
    }
}

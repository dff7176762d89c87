//! A [`serde::Value`] that the repository's `serde_json` facade can print
//! and parse as-is, plus helpers that assemble the benchmark's output lines.

use serde::{DeError, Deserialize, Serialize, Value};

/// Any JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn serialize_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

/// An object with fields in the given order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(x: f64) -> Value {
    Value::Float(x)
}

pub fn uint(x: u64) -> Value {
    Value::UInt(x)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// One line of compact JSON.
///
/// # Panics
/// Panics on a non-finite number, which JSON cannot carry; every metric
/// guards its divisions, so one would be a bug here.
pub fn line(v: Value) -> String {
    serde_json::to_string(&Json(v)).expect("metrics are finite")
}

/// Field `key` as a number, if present and numeric.
pub fn f64_of(v: &Value, key: &str) -> Option<f64> {
    match v.field(key).ok()? {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Field `key` as a string, if present.
pub fn str_of<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.field(key).ok()? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

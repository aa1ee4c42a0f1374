//! Result assembly: order statistics, a small JSON writer and the
//! metric list a run prints.

use std::fmt::Write as _;

/// Median of `values` (sorts in place); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (sorts in place); NaN
/// when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a finite number with every digit Rust's shortest round-trip
/// representation gives; non-finite values become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// An insertion-ordered JSON object.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a number field.
    pub fn num(&mut self, key: &str, v: f64) {
        self.fields.push((key.into(), number(v)));
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, v: &str) {
        self.fields.push((key.into(), format!("\"{}\"", escape(v))));
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.fields.push((key.into(), v.to_string()));
    }

    /// Adds an array of numbers.
    pub fn arr(&mut self, key: &str, v: impl IntoIterator<Item = f64>) {
        let items: Vec<String> = v.into_iter().map(number).collect();
        self.fields
            .push((key.into(), format!("[{}]", items.join(", "))));
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, v: &JsonObject) {
        self.fields.push((key.into(), v.render()));
    }

    /// Serializes on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Named metrics with units, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> JsonObject {
        let mut m = JsonObject::new();
        for (name, value, unit) in &self.entries {
            let mut e = JsonObject::new();
            e.num("value", *value);
            e.str("unit", unit);
            m.obj(name, &e);
        }
        m
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<36} {value:>14.4} {unit}");
        }
        out
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut r = JsonObject::new();
    r.bool("correct", correct);
    r.num("attempted", attempted as f64);
    r.num("failed", failed as f64);
    r.obj("metrics", &metrics.to_json());
    r.render()
}

//! The workspace's single bench-artifact JSON emitter.
//!
//! Every persisted bench artifact (`BENCH_kernels.json`,
//! `BENCH_assign.json`) is an array of [`Record`]s under one schema:
//!
//! ```json
//! {"group": "...", "bench": "...", "median_ns": 0.0, "shape": "...",
//!  "extra": {...}}
//! ```
//!
//! `group`/`bench` mirror the printed labels, `median_ns` is the median
//! per-iteration (or per-event) time, `shape` describes the problem
//! size, and `extra` is a flat object of harness-specific fields
//! (kernel mode, pruning counters, acceptance floors, …). The schema is
//! deliberately identical across harnesses so downstream tooling parses
//! one shape, and [`records_from_obs`] lets a captured `kr-obs`
//! [`kr_obs::Snapshot`] serialize through the same writer.

use std::collections::BTreeMap;

/// A JSON scalar for the `extra` object.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string field (escaped on write).
    Str(String),
    /// An integer field (written without a decimal point).
    Int(u64),
    /// A float field (written with two decimals, the artifact precision).
    Num(f64),
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

/// One bench measurement in the shared artifact schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Top-level grouping (criterion group, harness name, trace group).
    pub group: String,
    /// The measured leg within the group.
    pub bench: String,
    /// Median per-iteration (or per-event) time in nanoseconds.
    pub median_ns: f64,
    /// Problem size, human-readable (`""` when not applicable).
    pub shape: String,
    /// Harness-specific fields, written as a flat `extra` JSON object
    /// in insertion order.
    pub extra: Vec<(String, Value)>,
}

impl Record {
    /// Creates a record with an empty shape and no extra fields.
    pub fn new(group: impl Into<String>, bench: impl Into<String>, median_ns: f64) -> Record {
        Record {
            group: group.into(),
            bench: bench.into(),
            median_ns,
            shape: String::new(),
            extra: Vec::new(),
        }
    }

    /// Sets the problem-size string.
    pub fn with_shape(mut self, shape: impl Into<String>) -> Record {
        self.shape = shape.into();
        self
    }

    /// Appends one `extra` field (insertion order is write order).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Record {
        self.extra.push((key.into(), value.into()));
        self
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => push_escaped(out, s),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Num(f) if f.is_finite() => out.push_str(&format!("{f:.2}")),
        Value::Num(_) => out.push_str("null"),
    }
}

/// Serializes the records as a JSON array, one record per line.
pub fn to_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  {\"group\": ");
        push_escaped(&mut out, &r.group);
        out.push_str(", \"bench\": ");
        push_escaped(&mut out, &r.bench);
        out.push_str(&format!(", \"median_ns\": {:.1}, \"shape\": ", r.median_ns));
        push_escaped(&mut out, &r.shape);
        out.push_str(", \"extra\": {");
        for (j, (k, v)) in r.extra.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_escaped(&mut out, k);
            out.push_str(": ");
            push_value(&mut out, v);
        }
        out.push_str("}}");
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Writes the records to `path` (see [`to_json`]) and logs one line.
pub fn write(path: &str, records: &[Record]) -> std::io::Result<()> {
    std::fs::write(path, to_json(records))?;
    println!("wrote {path} ({} records)", records.len());
    Ok(())
}

/// Converts a drained observability snapshot into artifact records, so
/// captured traces land in the same schema as the bench harnesses.
///
/// Spans become one record per name with the median exit duration
/// (`extra.count` = completed spans); counters aggregate to their total
/// (`extra.total`); gauges report their last reading (`extra.last`).
/// Histogram samples are summarized by count and maximum occupied
/// power-of-two bucket.
pub fn records_from_obs(snapshot: &kr_obs::Snapshot, group: &str) -> Vec<Record> {
    let mut records = Vec::new();
    let mut spans: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut hists: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &snapshot.events {
        match e.kind {
            kr_obs::EventKind::SpanExit => {
                spans.entry(&e.name).or_default().push(e.value.as_u64());
            }
            kr_obs::EventKind::Counter => {
                *counters.entry(&e.name).or_default() += e.value.as_u64();
            }
            kr_obs::EventKind::Gauge => {
                let slot = gauges.entry(&e.name).or_insert((f64::NAN, 0));
                slot.0 = e.value.as_f64();
                slot.1 += 1;
            }
            kr_obs::EventKind::Hist => {
                *hists.entry(&e.name).or_default() += 1;
            }
            kr_obs::EventKind::SpanEnter => {}
        }
    }
    for (name, mut durations) in spans {
        durations.sort_unstable();
        let median = durations[durations.len() / 2] as f64;
        records.push(
            Record::new(group, name, median)
                .with("kind", "span")
                .with("count", durations.len()),
        );
    }
    for (name, total) in counters {
        records.push(
            Record::new(group, name, 0.0)
                .with("kind", "counter")
                .with("total", total),
        );
    }
    for (name, (last, count)) in gauges {
        records.push(
            Record::new(group, name, 0.0)
                .with("kind", "gauge")
                .with("last", last)
                .with("count", count),
        );
    }
    for (name, count) in hists {
        let max_bucket = snapshot.histogram(name).max_bucket().unwrap_or(0) as u64;
        records.push(
            Record::new(group, name, 0.0)
                .with("kind", "hist")
                .with("count", count)
                .with("max_bucket", max_bucket),
        );
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_the_unified_schema() {
        let records = vec![
            Record::new("g", "b", 1234.56)
                .with_shape("10x2")
                .with("kernel", "simd")
                .with("total", 7usize)
                .with("ratio", 2.5),
            Record::new("g", "esc\"ape", 0.0),
        ];
        let text = to_json(&records);
        assert_eq!(
            text,
            "[\n  {\"group\": \"g\", \"bench\": \"b\", \"median_ns\": 1234.6, \
             \"shape\": \"10x2\", \"extra\": {\"kernel\": \"simd\", \"total\": 7, \
             \"ratio\": 2.50}},\n  {\"group\": \"g\", \"bench\": \"esc\\\"ape\", \
             \"median_ns\": 0.0, \"shape\": \"\", \"extra\": {}}\n]\n"
        );
    }

    #[test]
    fn obs_snapshots_serialize_through_the_same_writer() {
        let text = concat!(
            r#"{"ts":1,"span":9,"kind":"span_enter","name":"s","value":0,"worker":0,"labels":{}}"#,
            "\n",
            r#"{"ts":4,"span":9,"kind":"span_exit","name":"s","value":3,"worker":0,"labels":{}}"#,
            "\n",
            r#"{"ts":5,"span":0,"kind":"counter","name":"c","value":2,"worker":0,"labels":{}}"#,
            "\n",
            r#"{"ts":6,"span":0,"kind":"counter","name":"c","value":5,"worker":1,"labels":{}}"#,
            "\n",
            r#"{"ts":7,"span":0,"kind":"gauge","name":"i","value":0.5,"worker":0,"labels":{}}"#,
            "\n",
            r#"{"ts":8,"span":0,"kind":"hist","name":"h","value":9,"worker":0,"labels":{}}"#,
            "\n",
            r#"{"dropped":0}"#,
            "\n",
        );
        let snapshot = kr_obs::Snapshot::parse_jsonl(text).unwrap();
        let records = records_from_obs(&snapshot, "trace");
        let find = |bench: &str| records.iter().find(|r| r.bench == bench).unwrap();
        assert_eq!(find("s").median_ns, 3.0);
        assert_eq!(
            find("c").extra,
            vec![
                ("kind".to_string(), Value::from("counter")),
                ("total".to_string(), Value::Int(7)),
            ]
        );
        assert_eq!(find("i").extra[1], ("last".to_string(), Value::Num(0.5)));
        assert_eq!(
            find("h").extra[2],
            // 9 has four significant bits -> bucket 3.
            ("max_bucket".to_string(), Value::Int(3))
        );
        // And the records pass back through the emitter.
        assert!(to_json(&records).contains("\"bench\": \"s\""));
    }
}

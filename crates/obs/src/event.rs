//! The resolved event model, snapshot aggregation, and the JSONL codec.
//!
//! A drained trace is a sequence of [`Event`]s. On disk each event is
//! one JSON object per line with exactly the schema
//!
//! ```json
//! {"ts":12,"span":3,"kind":"counter","name":"pool.steal","value":1,"worker":2,"labels":{"round":4}}
//! ```
//!
//! `labels` is `{}` when the event carries no label. [`parse_line`] is
//! the inverse of [`write_line`]: every line the writer emits parses
//! back to an equal [`Event`] (floats use Rust's shortest round-trip
//! formatting; non-finite gauge values serialize as `null` and parse
//! back as NaN, compared by bit pattern).
//!
//! A document ([`Snapshot::to_jsonl`]) ends with the trailer line
//! `{"dropped":N}`, the events the rings lost to overflow; a document
//! without it was cut short, and [`Snapshot::parse_jsonl`] rejects it.

use std::fmt;

/// Number of fixed histogram buckets (power-of-two value ranges).
pub const HIST_BUCKETS: usize = 64;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`value` is 0).
    SpanEnter,
    /// A span closed (`value` is the duration in clock units).
    SpanExit,
    /// A monotone counter increment.
    Counter,
    /// One sample of a fixed-bucket histogram series.
    Hist,
    /// A point-in-time float reading (inertia, objective values).
    Gauge,
}

impl EventKind {
    /// The wire name used in the JSONL `kind` field.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::Counter => "counter",
            EventKind::Hist => "hist",
            EventKind::Gauge => "gauge",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "span_enter" => EventKind::SpanEnter,
            "span_exit" => EventKind::SpanExit,
            "counter" => EventKind::Counter,
            "hist" => EventKind::Hist,
            "gauge" => EventKind::Gauge,
            _ => return None,
        })
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            EventKind::SpanEnter => 0,
            EventKind::SpanExit => 1,
            EventKind::Counter => 2,
            EventKind::Hist => 3,
            EventKind::Gauge => 4,
        }
    }

    pub(crate) fn from_code(c: u8) -> EventKind {
        match c {
            0 => EventKind::SpanEnter,
            1 => EventKind::SpanExit,
            3 => EventKind::Hist,
            4 => EventKind::Gauge,
            _ => EventKind::Counter,
        }
    }
}

/// An event payload: integral for spans/counters/histograms, float for
/// gauges.
#[derive(Debug, Clone, Copy)]
pub enum EventValue {
    /// Counter increments, histogram samples, span durations.
    Int(u64),
    /// Gauge readings.
    Float(f64),
}

impl EventValue {
    /// The payload as an integer (floats truncate toward zero).
    pub fn as_u64(self) -> u64 {
        match self {
            EventValue::Int(v) => v,
            EventValue::Float(v) => v as u64,
        }
    }

    /// The payload as a float (integers may round above 2^53).
    pub fn as_f64(self) -> f64 {
        match self {
            EventValue::Int(v) => v as f64,
            EventValue::Float(v) => v,
        }
    }
}

impl PartialEq for EventValue {
    fn eq(&self, other: &EventValue) -> bool {
        match (self, other) {
            (EventValue::Int(a), EventValue::Int(b)) => a == b,
            // Bit comparison so traces round-trip exactly (and NaN == NaN).
            (EventValue::Float(a), EventValue::Float(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

/// One resolved trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Clock reading (nanoseconds from [`crate::MonotonicClock`], ticks
    /// from [`crate::VirtualClock`]).
    pub ts: u64,
    /// Span correlation id; 0 when not part of a span.
    pub span: u64,
    /// What the event records.
    pub kind: EventKind,
    /// Dotted event name (`pool.steal`, `fed.round`, ...).
    pub name: String,
    /// Payload.
    pub value: EventValue,
    /// Registration index of the thread that recorded the event.
    pub worker: u32,
    /// Optional numeric label (`("round", 4)`).
    pub label: Option<(String, u64)>,
}

/// A fixed-bucket (power-of-two) histogram aggregated from
/// [`EventKind::Hist`] samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[b]` counts samples with [`bucket_index`] `b`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
        }
    }
}

impl Histogram {
    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

/// The fixed bucket a sample falls into: bucket 0 holds `{0, 1}`, and
/// bucket `b >= 1` holds `2^(b-1) < v <= 2^b - 1`-style power-of-two
/// ranges (precisely: the number of significant bits, clamped to
/// [`HIST_BUCKETS`]` - 1`).
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros() as usize) - 1).min(HIST_BUCKETS - 1)
    }
}

/// Everything a [`crate::Recorder`] drained: resolved events (sorted by
/// timestamp, stable on ties) plus the overflow drop count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Drained events, timestamp order.
    pub events: Vec<Event>,
    /// Events lost to ring overflow since the previous snapshot.
    pub dropped: u64,
}

impl Snapshot {
    /// Number of drained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the snapshot holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of every [`EventKind::Counter`] increment named `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == name)
            .map(|e| e.value.as_u64())
            .sum()
    }

    /// Fixed-bucket histogram over every [`EventKind::Hist`] sample
    /// named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut h = Histogram::default();
        for e in &self.events {
            if e.kind == EventKind::Hist && e.name == name {
                h.record(e.value.as_u64());
            }
        }
        h
    }

    /// Durations (clock units) of every closed span named `name`.
    pub fn span_durations(&self, name: &str) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::SpanExit && e.name == name)
            .map(|e| e.value.as_u64())
            .collect()
    }

    /// Readings of every [`EventKind::Gauge`] named `name`, in order.
    pub fn gauge_values(&self, name: &str) -> Vec<f64> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Gauge && e.name == name)
            .map(|e| e.value.as_f64())
            .collect()
    }

    /// Distinct event names, sorted.
    pub fn names(&self) -> Vec<String> {
        let set: std::collections::BTreeSet<&str> =
            self.events.iter().map(|e| e.name.as_str()).collect();
        set.into_iter().map(str::to_string).collect()
    }

    /// Serializes every event as one JSONL line (see [`write_line`]),
    /// then the trailer line `{"dropped":N}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            write_line(e, &mut out);
            out.push('\n');
        }
        out.push_str(&format!("{{\"dropped\":{}}}\n", self.dropped));
        out
    }

    /// Parses a JSONL document back into a snapshot: event lines, then
    /// the `{"dropped":N}` trailer, whose count becomes
    /// [`Snapshot::dropped`]. Empty lines are skipped. A missing trailer,
    /// or a line after it, is an error, so a trace cut at a line
    /// boundary never parses as a shorter complete one.
    pub fn parse_jsonl(text: &str) -> Result<Snapshot, ParseError> {
        let (mut events, mut dropped) = (Vec::new(), None);
        for (i, line) in text.lines().map(str::trim).enumerate() {
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| ParseError {
                msg: format!("line {}: {msg}", i + 1),
            };
            if dropped.is_some() {
                return Err(err("line after the `dropped` trailer"));
            }
            match line.strip_prefix("{\"dropped\":") {
                Some(rest) => {
                    let count = rest.strip_suffix('}').and_then(|n| n.parse().ok());
                    dropped = Some(count.ok_or_else(|| err("bad `dropped` trailer"))?);
                }
                None => events.push(parse_line(line).map_err(|e| err(&e.msg))?),
            }
        }
        let dropped = dropped.ok_or_else(|| ParseError {
            msg: "missing the `dropped` trailer line (truncated trace?)".into(),
        })?;
        Ok(Snapshot { events, dropped })
    }
}

/// A malformed JSONL line or document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong, with a line number when parsing documents.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

fn push_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends one event as a JSON object (no trailing newline) in the
/// fixed field order `ts, span, kind, name, value, worker, labels`.
pub fn write_line(e: &Event, out: &mut String) {
    out.push_str("{\"ts\":");
    out.push_str(&e.ts.to_string());
    out.push_str(",\"span\":");
    out.push_str(&e.span.to_string());
    out.push_str(",\"kind\":\"");
    out.push_str(e.kind.as_str());
    out.push_str("\",\"name\":");
    push_json_string(&e.name, out);
    out.push_str(",\"value\":");
    match e.value {
        EventValue::Int(v) => out.push_str(&v.to_string()),
        // {:?} is Rust's shortest round-trip float formatting, so the
        // parser recovers the exact bits. Non-finite readings have no
        // JSON number form; they serialize as null (parsed as NaN).
        EventValue::Float(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
        EventValue::Float(_) => out.push_str("null"),
    }
    out.push_str(",\"worker\":");
    out.push_str(&e.worker.to_string());
    out.push_str(",\"labels\":{");
    if let Some((k, v)) = &e.label {
        push_json_string(k, out);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push_str("}}");
}

struct Cursor<'a> {
    bytes: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: format!("{msg} at byte {}", self.i),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.i), Some(b' ' | b'\t')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            s.push(hex);
                            self.i += 4;
                        }
                        _ => return Err(self.err("unsupported escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.i..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    s.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<EventValue, ParseError> {
        self.skip_ws();
        if self.bytes[self.i..].starts_with(b"null") {
            self.i += 4;
            return Ok(EventValue::Float(f64::NAN));
        }
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.i])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() {
            return Err(self.err("expected a number"));
        }
        if text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse::<u64>()
                .map(EventValue::Int)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<f64>()
                .map(EventValue::Float)
                .map_err(|_| self.err("malformed float"))
        }
    }

    fn integer(&mut self, what: &str) -> Result<u64, ParseError> {
        match self.number()? {
            EventValue::Int(v) => Ok(v),
            EventValue::Float(_) => Err(self.err(&format!("{what} must be an integer"))),
        }
    }
}

/// Parses one JSONL line (the inverse of [`write_line`]; field order is
/// not significant, unknown fields are rejected).
pub fn parse_line(line: &str) -> Result<Event, ParseError> {
    let mut c = Cursor {
        bytes: line.trim().as_bytes(),
        i: 0,
    };
    c.expect(b'{')?;
    let (mut ts, mut span, mut worker) = (None, None, None);
    let (mut kind, mut name, mut value, mut label) = (None, None, None, None);
    let mut saw_labels = false;
    loop {
        c.skip_ws();
        if c.peek() == Some(b'}') {
            c.i += 1;
            break;
        }
        let key = c.string()?;
        c.expect(b':')?;
        match key.as_str() {
            "ts" => ts = Some(c.integer("ts")?),
            "span" => span = Some(c.integer("span")?),
            "worker" => worker = Some(c.integer("worker")?),
            "kind" => {
                let k = c.string()?;
                kind = Some(
                    EventKind::parse(&k).ok_or_else(|| c.err(&format!("unknown kind `{k}`")))?,
                );
            }
            "name" => name = Some(c.string()?),
            "value" => value = Some(c.number()?),
            "labels" => {
                saw_labels = true;
                c.expect(b'{')?;
                c.skip_ws();
                if c.peek() != Some(b'}') {
                    let k = c.string()?;
                    c.expect(b':')?;
                    let v = c.integer("label value")?;
                    label = Some((k, v));
                }
                c.expect(b'}')?;
            }
            other => return Err(c.err(&format!("unknown field `{other}`"))),
        }
        c.skip_ws();
        if c.peek() == Some(b',') {
            c.i += 1;
        }
    }
    c.skip_ws();
    if c.i != c.bytes.len() {
        return Err(c.err("trailing garbage"));
    }
    let kind = kind.ok_or_else(|| c.err("missing `kind`"))?;
    let name = name.ok_or_else(|| c.err("missing `name`"))?;
    if name.is_empty() {
        return Err(c.err("empty `name`"));
    }
    if !saw_labels {
        return Err(c.err("missing `labels`"));
    }
    let worker = worker.ok_or_else(|| c.err("missing `worker`"))?;
    let value = value.ok_or_else(|| c.err("missing `value`"))?;
    // Gauges are floats on the wire even when their reading happens to
    // be integral; re-tag so round-trips compare cleanly.
    let value = match (kind, value) {
        (EventKind::Gauge, EventValue::Int(v)) => EventValue::Float(v as f64),
        (EventKind::Gauge, v) => v,
        (_, EventValue::Float(_)) => return Err(c.err("non-gauge value must be an integer")),
        (_, v) => v,
    };
    Ok(Event {
        ts: ts.ok_or_else(|| c.err("missing `ts`"))?,
        span: span.unwrap_or(0),
        kind,
        name,
        value,
        worker: u32::try_from(worker).map_err(|_| c.err("worker out of range"))?,
        label,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: EventKind, value: EventValue) -> Event {
        Event {
            ts: 42,
            span: 7,
            kind,
            name: "pool.steal".to_string(),
            value,
            worker: 3,
            label: Some(("round".to_string(), 9)),
        }
    }

    #[test]
    fn writer_emits_the_documented_schema() {
        let mut out = String::new();
        write_line(&sample(EventKind::Counter, EventValue::Int(5)), &mut out);
        assert_eq!(
            out,
            "{\"ts\":42,\"span\":7,\"kind\":\"counter\",\"name\":\"pool.steal\",\
             \"value\":5,\"worker\":3,\"labels\":{\"round\":9}}"
        );
    }

    #[test]
    fn round_trips_every_kind() {
        for (kind, value) in [
            (EventKind::SpanEnter, EventValue::Int(0)),
            (EventKind::SpanExit, EventValue::Int(123_456)),
            (EventKind::Counter, EventValue::Int(u64::MAX)),
            (EventKind::Hist, EventValue::Int(1)),
            (EventKind::Gauge, EventValue::Float(1234.5678e-9)),
            (EventKind::Gauge, EventValue::Float(f64::NAN)),
        ] {
            let e = sample(kind, value);
            let mut line = String::new();
            write_line(&e, &mut line);
            assert_eq!(parse_line(&line).unwrap(), e, "{line}");
        }
    }

    #[test]
    fn no_label_round_trips_as_empty_object() {
        let mut e = sample(EventKind::Hist, EventValue::Int(8));
        e.label = None;
        let mut line = String::new();
        write_line(&e, &mut line);
        assert!(line.contains("\"labels\":{}"), "{line}");
        assert_eq!(parse_line(&line).unwrap(), e);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{}",
            "{\"ts\":1}",
            "{\"ts\":1,\"span\":0,\"kind\":\"nope\",\"name\":\"x\",\"value\":1,\"worker\":0,\"labels\":{}}",
            "{\"ts\":1,\"span\":0,\"kind\":\"counter\",\"name\":\"\",\"value\":1,\"worker\":0,\"labels\":{}}",
            "{\"ts\":1,\"span\":0,\"kind\":\"counter\",\"name\":\"x\",\"value\":1.5,\"worker\":0,\"labels\":{}}",
            "{\"ts\":1,\"span\":0,\"kind\":\"counter\",\"name\":\"x\",\"value\":1,\"worker\":0,\"labels\":{}}x",
            "{\"ts\":1,\"span\":0,\"kind\":\"counter\",\"name\":\"x\",\"value\":1,\"worker\":0,\"labels\":{},\"zz\":1}",
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let mut e = sample(EventKind::Counter, EventValue::Int(1));
        e.name = "weird \"name\"\\with\u{1}controls".to_string();
        let mut line = String::new();
        write_line(&e, &mut line);
        assert_eq!(parse_line(&line).unwrap(), e);
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        let mut h = Histogram::default();
        for v in [0, 1, 2, 900, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.max_bucket(), Some(10));
    }

    #[test]
    fn snapshot_aggregations() {
        let mk = |kind, name: &str, v| Event {
            ts: 0,
            span: 0,
            kind,
            name: name.to_string(),
            value: v,
            worker: 0,
            label: None,
        };
        let snap = Snapshot {
            events: vec![
                mk(EventKind::Counter, "a", EventValue::Int(2)),
                mk(EventKind::Counter, "a", EventValue::Int(3)),
                mk(EventKind::Counter, "b", EventValue::Int(10)),
                mk(EventKind::Hist, "h", EventValue::Int(7)),
                mk(EventKind::SpanExit, "s", EventValue::Int(99)),
                mk(EventKind::Gauge, "g", EventValue::Float(0.5)),
            ],
            dropped: 3,
        };
        assert_eq!(snap.counter_total("a"), 5);
        assert_eq!(snap.counter_total("b"), 10);
        assert_eq!(snap.counter_total("missing"), 0);
        assert_eq!(snap.histogram("h").count, 1);
        assert_eq!(snap.span_durations("s"), vec![99]);
        assert_eq!(snap.gauge_values("g"), vec![0.5]);
        assert_eq!(snap.names(), vec!["a", "b", "g", "h", "s"]);
        let parsed = Snapshot::parse_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn documents_need_exactly_one_final_trailer() {
        let line =
            r#"{"ts":1,"span":0,"kind":"counter","name":"c","value":1,"worker":0,"labels":{}}"#;
        let parsed = Snapshot::parse_jsonl(&format!("{line}\n{{\"dropped\":7}}\n")).unwrap();
        assert_eq!((parsed.len(), parsed.dropped), (1, 7));
        for bad in [
            format!("{line}\n"),
            format!("{{\"dropped\":7}}\n{line}\n"),
            format!("{line}\n{{\"dropped\":7}}\n{{\"dropped\":7}}\n"),
            format!("{line}\n{{\"dropped\":-1}}\n"),
        ] {
            assert!(Snapshot::parse_jsonl(&bad).is_err(), "accepted: {bad}");
        }
    }
}

//! Property test: every snapshot the recorder can produce survives a
//! JSONL round-trip bit-for-bit.
//!
//! Events are generated directly (names with quotes, backslashes,
//! control characters, and non-ASCII; canonical-NaN and negative-zero
//! gauges; labelled and unlabelled), serialized with
//! [`Snapshot::to_jsonl`], and re-parsed with [`Snapshot::parse_jsonl`].
//! Equality is structural and, for gauge floats, bitwise
//! (`EventValue::Float` compares by `to_bits`).
//!
//! Deliberately excluded: infinite gauges. The wire format maps every
//! non-finite float to `null` and `null` back to the canonical NaN, so
//! infinity does not round-trip by design — `writes_non_finite_as_null`
//! in `event.rs` pins that collapse instead.

use kr_obs::{Event, EventKind, EventValue, Snapshot};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Union;

/// Characters exercising every escaping path in the writer: plain
/// ASCII, the two JSON must-escapes, control characters (`\u00xx`
/// form), and multi-byte UTF-8.
const NAME_CHARS: &[char] = &[
    'a', 'b', 'z', '0', '9', '.', '_', '-', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}',
    'λ', '¬', '…',
];

fn name_strategy() -> impl Strategy<Value = String> {
    vec(0..NAME_CHARS.len(), 1..12)
        .prop_map(|idxs| idxs.into_iter().map(|i| NAME_CHARS[i]).collect())
}

fn kind_strategy() -> Union<EventKind> {
    prop_oneof![
        Just(EventKind::SpanEnter),
        Just(EventKind::SpanExit),
        Just(EventKind::Counter),
        Just(EventKind::Hist),
        Just(EventKind::Gauge),
    ]
}

/// Finite floats across magnitudes, the signed zeros, and the canonical
/// NaN (the one non-finite value the codec round-trips, via `null`).
fn gauge_strategy() -> Union<f64> {
    prop_oneof![
        (-1.0e300..1.0e300).prop_map(|v: f64| v),
        (-1.0..1.0).prop_map(|v: f64| v),
        Just(0.0),
        Just(-0.0),
        Just(1.0e-308),
        Just(f64::MAX),
        Just(f64::NAN),
    ]
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (
        kind_strategy(),
        name_strategy(),
        (0..u64::MAX, 0..u64::MAX, 0..64u32),
        gauge_strategy(),
        (0..4usize, name_strategy(), 0..u64::MAX),
    )
        .prop_map(
            |(kind, name, (ts, value, worker), gauge, (has_label, key, label_val))| Event {
                ts,
                span: match kind {
                    EventKind::SpanEnter | EventKind::SpanExit => value | 1,
                    _ => 0,
                },
                kind,
                name,
                value: match kind {
                    EventKind::Gauge => EventValue::Float(gauge),
                    _ => EventValue::Int(value),
                },
                worker,
                // 3-in-4 unlabelled, matching real traces.
                label: (has_label == 0).then_some((key, label_val)),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn snapshot_round_trips_through_jsonl(
        events in vec(event_strategy(), 0..40),
        dropped in 0..u64::MAX,
    ) {
        let snapshot = Snapshot { events, dropped };
        let text = snapshot.to_jsonl();
        let parsed = Snapshot::parse_jsonl(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}\n{text}")))?;
        prop_assert_eq!(&parsed.events, &snapshot.events);
        // The drop count rides in the trailer line and round-trips.
        prop_assert_eq!(parsed.dropped, snapshot.dropped);
        // Serialization is canonical: one line per event plus the
        // trailer, and re-serializing the parse reproduces the text
        // exactly.
        prop_assert_eq!(text.lines().count(), snapshot.events.len() + 1);
        prop_assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn torn_lines_never_parse_as_different_events(
        events in vec(event_strategy(), 1..2),
        flip in 0..997usize,
    ) {
        // Tearing a document mid-write must yield a parse error, never a
        // silently different trace. The cut lands anywhere strictly
        // inside the text, line boundaries included: there the trailer
        // is missing or torn.
        let snapshot = Snapshot { events, dropped: 0 };
        let text = snapshot.to_jsonl();
        let line = text.trim_end();
        let cut = 1 + flip % (line.len() - 1);
        if !line.is_char_boundary(cut) {
            return Ok(());
        }
        let torn = &line[..cut];
        prop_assert!(
            Snapshot::parse_jsonl(torn).is_err(),
            "torn line parsed cleanly:\n{}",
            torn
        );
    }
}

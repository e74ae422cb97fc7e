//! Validates a captured JSONL trace against the kr-obs event schema.
//!
//! ```text
//! cargo run -p kr-obs --bin schema_check -- trace.jsonl
//! ```
//!
//! Exits non-zero (with the offending line) if any line fails to parse,
//! if the `{"dropped":N}` trailer is missing (the trace was cut short),
//! if the trace is empty, or if a span id is reused or exits under
//! another name. It prints the drop count; drops do not fail the check.
//! CI runs this over a trace captured from the `streaming` example.

use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: schema_check <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("schema_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snapshot = match kr_obs::Snapshot::parse_jsonl(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("schema_check: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if snapshot.is_empty() {
        eprintln!("schema_check: {path}: trace contains no events");
        return ExitCode::FAILURE;
    }

    // Span consistency. Ring overflow may legitimately drop one half of
    // a pair, so orphaned enters/exits are reported, not fatal — but a
    // reused span id or an exit under a different name than its enter
    // can only come from a recording bug.
    let mut open: BTreeMap<u64, &str> = BTreeMap::new();
    let mut closed = 0usize;
    let mut orphan_exits = 0usize;
    for e in &snapshot.events {
        match e.kind {
            kr_obs::EventKind::SpanEnter
                if e.span == 0 || open.insert(e.span, &e.name).is_some() =>
            {
                eprintln!("schema_check: {path}: duplicate or zero span id {}", e.span);
                return ExitCode::FAILURE;
            }
            kr_obs::EventKind::SpanExit => match open.remove(&e.span) {
                Some(name) if name == e.name => closed += 1,
                Some(name) => {
                    eprintln!(
                        "schema_check: {path}: span {} entered as {name:?} but exited as {:?}",
                        e.span, e.name
                    );
                    return ExitCode::FAILURE;
                }
                None => orphan_exits += 1,
            },
            _ => {}
        }
    }

    println!(
        "schema_check: {path}: OK — {} events, {} names, {closed} closed spans \
         ({} unclosed, {orphan_exits} orphan exits), {} dropped",
        snapshot.len(),
        snapshot.names().len(),
        open.len(),
        snapshot.dropped,
    );
    ExitCode::SUCCESS
}

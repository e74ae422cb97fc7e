//! Smoke mode: every workload at a tiny size, untraced and traced.
//! Every metric `BENCHMARK.json` lists must be emitted with its unit
//! and a finite value, and every correctness check must pass.

use kr_perfbench::{run, Size, Workload};

kr_bench::install_counting_allocator!();

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    // Each entry lists `name` before `unit`.
    let value = |key: &str, from: usize| -> (String, usize) {
        let at = from + body[from..].find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
        let open = at + body[at..].find('"').expect("value") + 1;
        let close = open + body[open..].find('"').expect("value end");
        (body[open..close].to_string(), close)
    };
    let mut out = Vec::new();
    let mut pos = 0;
    while body[pos..].contains("\"name\"") {
        let (name, after) = value("name", pos);
        let (unit, after) = value("unit", after);
        out.push((name, unit));
        pos = after;
    }
    out
}

fn check(workload: Workload, traced: bool, section: &str) {
    let report = run(workload, 7, 0.01, traced, Size::Smoke);
    assert!(
        report.failures.is_empty(),
        "{} trace={traced}: {:?}",
        workload.name(),
        report.failures
    );
    assert!(report.attempted > 0);
    let mut got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
            (m.name.to_string(), m.unit.to_string())
        })
        .collect();
    let mut want = listed(section);
    got.sort();
    want.sort();
    assert_eq!(got, want, "{} trace={traced}", workload.name());
    assert_eq!(report.digests.len(), 3);
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        check(w, false, "end_to_end");
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for w in Workload::ALL {
        check(w, true, "per_layer");
    }
}

#[test]
fn same_seed_same_digests() {
    let a = run(Workload::StreamIngest, 3, 0.01, false, Size::Smoke);
    let b = run(Workload::StreamIngest, 3, 0.01, false, Size::Smoke);
    assert_eq!(a.digests, b.digests);
    let c = run(Workload::StreamIngest, 4, 0.01, false, Size::Smoke);
    assert_ne!(a.digests, c.digests);
}

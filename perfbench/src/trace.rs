//! The benchmark's own spans: wall time around public calls into each
//! library module, kept in memory and summed per layer name.
//!
//! Spans never nest, so the layers of one job add up to at most its
//! wall time; the rest is reported as `unattributed_s`. With tracing
//! off, [`Trace::span`] only calls through, so untraced runs pay no
//! clock reads.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer busy time (seconds) and event counts.
#[derive(Debug, Default)]
pub struct Trace {
    on: bool,
    busy: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A recorder that times spans.
    pub fn on() -> Self {
        Trace {
            on: true,
            ..Trace::default()
        }
    }

    /// A recorder that only calls through.
    pub fn off() -> Self {
        Trace::default()
    }

    /// Whether spans are being timed.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its wall time to `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add_busy(layer, start.elapsed().as_secs_f64());
        out
    }

    /// Charges `secs` to `layer`.
    pub fn add_busy(&mut self, layer: &'static str, secs: f64) {
        *self.busy.entry(layer).or_default() += secs;
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Busy seconds charged to `layer` (0 when it never ran).
    pub fn busy(&self, layer: &str) -> f64 {
        self.busy.get(layer).copied().unwrap_or(0.0)
    }

    /// The counter `name` (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Busy seconds over every layer.
    pub fn total_busy(&self) -> f64 {
        self.busy.values().sum()
    }
}

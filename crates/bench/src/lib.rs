//! # kr-bench
//!
//! Shared infrastructure for the table/figure regeneration harnesses.
//! Each bench target under `benches/` is a `harness = false` binary that
//! re-runs one experiment of the paper's Section 9 and prints the same
//! rows/series the paper reports, alongside the paper's own numbers
//! where applicable (EXPERIMENTS.md records the comparison).
//!
//! The [`alloc_counter`] module provides a counting global allocator so
//! the Figure 8 harness can report *peak memory* per algorithm run, the
//! quantity the paper plots. Each bench binary registers it with
//! `kr_bench::install_counting_allocator!()`; without that, [`measure`]
//! has no way to observe the heap and reports 0 peak bytes (with a
//! one-time warning on stderr).

#![warn(missing_docs)]

pub mod alloc_counter;
pub mod bench_json;

use std::sync::Once;
use std::time::Instant;

/// Runs `f`, returning `(result, seconds, peak_bytes_during_f)`.
///
/// Peak bytes are relative to the heap level at entry and require the
/// calling binary to have run `kr_bench::install_counting_allocator!()`.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, usize) {
    warn_if_not_installed();
    alloc_counter::reset_peak();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    let peak = alloc_counter::peak_since_reset();
    (out, secs, peak)
}

// Non-generic so the state is truly process-wide; inside the generic
// `measure` it would be duplicated per monomorphization. Installation
// status cannot change at runtime, so the probe runs exactly once.
fn warn_if_not_installed() {
    static CHECK: Once = Once::new();
    CHECK.call_once(|| {
        if !alloc_counter::is_installed() {
            eprintln!(
                "kr_bench::measure: counting allocator not installed; peak-memory \
                 figures will read 0. Add `kr_bench::install_counting_allocator!();` \
                 to this binary."
            );
        }
    });
}

/// Scale factor for experiments: `KR_BENCH_SCALE=0.2` shrinks sample
/// counts to 20%. Defaults to 1.0 (the reduced-but-complete defaults
/// documented in DESIGN.md §7).
pub fn scale() -> f64 {
    std::env::var("KR_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v: &f64| v > 0.0)
        .unwrap_or(1.0)
}

/// Applies the scale factor to a sample count with a floor.
pub fn scaled(n: usize, floor: usize) -> usize {
    ((n as f64 * scale()) as usize).max(floor)
}

/// Prints a rule line for the tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats bytes as mebibytes.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_time_and_peak() {
        let _guard = alloc_counter::COUNTER_TEST_LOCK.lock().unwrap();
        let (sum, secs, peak) = measure(|| {
            let v: Vec<u64> = (0..200_000).collect();
            v.iter().sum::<u64>()
        });
        assert_eq!(sum, 199_999u64 * 200_000 / 2);
        assert!(secs >= 0.0);
        assert!(peak >= 200_000 * 8, "peak {peak}");
    }

    #[test]
    fn scaled_floors() {
        assert!(scaled(1000, 10) >= 10);
    }

    #[test]
    fn lloyd_iterations_allocate_o1_after_warmup() {
        use kr_core::kr_kmeans::{KrKMeans, KrVariant};

        // The Scratch arena must recycle per-iteration temporaries:
        // after the first iteration warms the pools, extra Lloyd
        // iterations should cost O(1) allocator calls — not O(k) (the
        // old per-cluster buckets) or O(n) (fresh label/distance
        // buffers). Two fits differing only in max_iter isolate the
        // steady-state rate: tol = 0 disables early convergence and the
        // shared seed makes the common prefix identical.
        let _guard = alloc_counter::COUNTER_TEST_LOCK.lock().unwrap();
        let ds = kr_datasets::synthetic::blobs(600, 8, 16, 1.0, 74);
        // Both variants: the on-the-fly sweep and the materialized grid
        // (warm start off in both, so only the Lloyd loop is counted).
        for variant in [KrVariant::MemoryEfficient, KrVariant::TimeEfficient] {
            let allocs_for = |iters: usize| {
                let before = alloc_counter::alloc_calls();
                let model = KrKMeans::new(vec![8, 8])
                    .with_variant(variant)
                    .with_warm_start(false)
                    .with_n_init(1)
                    .with_tol(0.0)
                    .with_max_iter(iters)
                    .fit(&ds.data)
                    .unwrap();
                std::hint::black_box(&model);
                alloc_counter::alloc_calls() - before
            };
            let (short, long) = (4usize, 12usize);
            let (a_short, a_long) = (allocs_for(short), allocs_for(long));
            let extra = a_long.saturating_sub(a_short);
            let per_iter = extra as f64 / (long - short) as f64;
            // O(1) bound: independent of n = 600 and k = 64. A small
            // constant headroom absorbs incidental fixed-size allocations
            // (e.g. Vec growth inside pooled buffers on rare resize).
            // Tightened from 40 when the bounds-gated AssignEngine landed:
            // its point caches and bound state persist across iterations
            // (and across restarts) in the Scratch arena, so pruned
            // assignment costs the same ~16 calls/iter as the exhaustive
            // path (dominated by the update step's per-set temporaries).
            // The factored filter's per-chunk buffers come from the same
            // arena.
            assert!(
                per_iter <= 20.0,
                "{variant:?}: expected O(1) allocs per Lloyd iteration, got {per_iter:.1} \
                 ({a_short} allocs at max_iter={short}, {a_long} at max_iter={long})"
            );
        }
    }
}

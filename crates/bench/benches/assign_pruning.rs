//! Assignment-pruning acceptance bench: the fig8 Lloyd loop with the
//! bounds-gated `AssignEngine` against the exhaustive scan.
//!
//! Two passes over the *same* centroid trajectory (the engine's bitwise
//! contract makes them identical by construction — asserted here):
//! one with pruning off, one with pruning on.
//! Only post-warmup iterations count (`WARMUP` = 2): the paper-relevant
//! regime is the long tail of near-converged iterations where drift is
//! small and bounds certify almost every point.
//!
//! The `kr_otf_sum_8x8` leg runs the same comparison for the on-the-fly
//! KR-+ assignment (8+8, `Aggregator::Sum`, so the factored filter
//! applies), with the Proposition 6.1 pass as the update.
//!
//! Persists `BENCH_assign.json`: one record per leg with the measured
//! distance-evaluation reduction and wall-clock speedup next to the
//! committed floors (≥ 3x fewer distance evals, ≥ 2x wall-clock at
//! k >= 64).

use kr_core::aggregator::Aggregator;
use kr_core::assign::{AssignEngine, PruneStats};
use kr_core::kmeans::KMeans;
use kr_core::kr_kmeans::prop61_update_pass_with;
use kr_core::operator::CentroidIndexer;
use kr_linalg::{ops, ExecCtx, Matrix, PruneMode};
use std::time::Instant;

const WARMUP: usize = 2;
const MEASURED: usize = 10;
const FLOOR_DIST_REDUCTION: f64 = 3.0;
const FLOOR_WALLCLOCK: f64 = 2.0;

/// Plain Lloyd update: cluster means, empty clusters keep their row
/// (no RNG — both passes must see the exact same trajectory).
fn update(data: &Matrix, labels: &[usize], centroids: &mut Matrix) {
    let (k, m) = centroids.shape();
    let mut sums = vec![0.0f64; k * m];
    let mut counts = vec![0usize; k];
    for (i, &l) in labels.iter().enumerate() {
        ops::add_assign(&mut sums[l * m..(l + 1) * m], data.row(i));
        counts[l] += 1;
    }
    for (c, &cnt) in counts.iter().enumerate() {
        if cnt == 0 {
            continue;
        }
        let inv = 1.0 / cnt as f64;
        for (cv, &sv) in centroids
            .row_mut(c)
            .iter_mut()
            .zip(&sums[c * m..(c + 1) * m])
        {
            *cv = sv * inv;
        }
    }
}

struct LegResult {
    leg: String,
    n: usize,
    m: usize,
    k: usize,
    dists_exhaustive: u64,
    dists_computed: u64,
    dists_skipped: u64,
    dist_reduction: f64,
    wall_speedup: f64,
    /// Mean post-warmup assignment time per iteration, pruned pass.
    assign_ns_on: f64,
}

/// One Lloyd trajectory in the given mode; returns the post-warmup
/// assignment seconds, the post-warmup `PruneStats`, and the final
/// labels (for the cross-pass bitwise assertion).
fn run_pass(
    data: &Matrix,
    init: &Matrix,
    mode: PruneMode,
) -> (f64, PruneStats, Vec<usize>, Vec<u64>) {
    let n = data.nrows();
    let exec = ExecCtx::serial().with_prune_mode(mode);
    let mut engine = AssignEngine::new(&exec);
    engine.begin_fit(data);
    engine.begin_restart();
    let mut centroids = init.clone();
    let mut labels = vec![0usize; n];
    let mut dmin = vec![0.0f64; n];
    let mut assign_secs = 0.0;
    for it in 0..(WARMUP + MEASURED) {
        let t0 = Instant::now();
        engine.assign_dense(data, &centroids, &mut labels, &mut dmin);
        let dt = t0.elapsed().as_secs_f64();
        if it == WARMUP - 1 {
            // Reset the counters: only post-warmup iterations count.
            let _ = engine.take_stats();
        }
        if it >= WARMUP {
            assign_secs += dt;
        }
        update(data, &labels, &mut centroids);
    }
    let stats = engine.take_stats();
    let dmin_bits: Vec<u64> = dmin.iter().map(|d| d.to_bits()).collect();
    (assign_secs, stats, labels, dmin_bits)
}

fn run_leg(leg: &str, n: usize, m: usize, k: usize, seed: u64) -> LegResult {
    let ds = kr_datasets::synthetic::blobs(n, m, k, 1.0, seed);
    // Deterministic spread seeding (every n/k-th point), shared by both
    // passes; KMeans++ would draw RNG and is irrelevant to the loop.
    let init = Matrix::from_fn(k, m, |c, j| ds.data.get(c * (n / k), j));
    let (t_off, _, labels_off, bits_off) = run_pass(&ds.data, &init, PruneMode::Off);
    let (t_on, stats, labels_on, bits_on) = run_pass(&ds.data, &init, PruneMode::On);
    assert_eq!(labels_off, labels_on, "{leg}: pruning changed labels");
    assert_eq!(bits_off, bits_on, "{leg}: pruning changed distance bits");
    let dists_exhaustive = (n as u64) * (k as u64) * (MEASURED as u64);
    LegResult {
        leg: leg.to_string(),
        n,
        m,
        k,
        dists_exhaustive,
        dists_computed: stats.dists_computed,
        dists_skipped: stats.dists_skipped,
        dist_reduction: dists_exhaustive as f64 / stats.dists_computed.max(1) as f64,
        wall_speedup: t_off / t_on,
        assign_ns_on: t_on / MEASURED as f64 * 1e9,
    }
}

/// [`run_pass`] for on-the-fly KR-+ assignment: `assign_otf` over the
/// factor sets, then one Proposition 6.1 pass (its empty-set reseeding
/// draws from a fixed seed, so both modes see the same trajectory).
fn run_otf_pass(
    data: &Matrix,
    init: &[Matrix],
    mode: PruneMode,
) -> (f64, PruneStats, Vec<usize>, Vec<u64>) {
    let n = data.nrows();
    let exec = ExecCtx::serial().with_prune_mode(mode);
    let indexer = CentroidIndexer::new(init.iter().map(Matrix::nrows).collect());
    let mut engine = AssignEngine::new(&exec);
    engine.begin_fit(data);
    engine.begin_restart();
    let mut sets = init.to_vec();
    let mut labels = vec![0usize; n];
    let mut dmin = vec![0.0f64; n];
    let mut assign_secs = 0.0;
    for it in 0..(WARMUP + MEASURED) {
        let t0 = Instant::now();
        engine.assign_otf(
            data,
            &sets,
            &indexer,
            Aggregator::Sum,
            &mut labels,
            &mut dmin,
        );
        let dt = t0.elapsed().as_secs_f64();
        if it == WARMUP - 1 {
            let _ = engine.take_stats();
        }
        if it >= WARMUP {
            assign_secs += dt;
        }
        prop61_update_pass_with(data, &labels, &mut sets, Aggregator::Sum, 75, &exec);
    }
    let stats = engine.take_stats();
    let dmin_bits: Vec<u64> = dmin.iter().map(|d| d.to_bits()).collect();
    (assign_secs, stats, labels, dmin_bits)
}

/// The on-the-fly KR-+ leg: `h + h` protocentroids seeded from spread
/// data points (set 0) and their deviations from the data mean (set 1),
/// so the initial aggregations sit on the data.
fn run_otf_leg(leg: &str, n: usize, m: usize, h: usize, seed: u64) -> LegResult {
    let ds = kr_datasets::synthetic::blobs(n, m, h * h, 1.0, seed);
    let mean = ds.data.col_means();
    let step = n / (2 * h);
    let anchors = Matrix::from_fn(h, m, |r, j| ds.data.get(2 * r * step, j));
    let deviations = Matrix::from_fn(h, m, |r, j| ds.data.get((2 * r + 1) * step, j) - mean[j]);
    let init = [anchors, deviations];
    let (t_off, _, labels_off, bits_off) = run_otf_pass(&ds.data, &init, PruneMode::Off);
    let (t_on, stats, labels_on, bits_on) = run_otf_pass(&ds.data, &init, PruneMode::On);
    assert_eq!(labels_off, labels_on, "{leg}: pruning changed labels");
    assert_eq!(bits_off, bits_on, "{leg}: pruning changed distance bits");
    let k = h * h;
    let dists_exhaustive = (n as u64) * (k as u64) * (MEASURED as u64);
    LegResult {
        leg: leg.to_string(),
        n,
        m,
        k,
        dists_exhaustive,
        dists_computed: stats.dists_computed,
        dists_skipped: stats.dists_skipped,
        dist_reduction: dists_exhaustive as f64 / stats.dists_computed.max(1) as f64,
        wall_speedup: t_off / t_on,
        assign_ns_on: t_on / MEASURED as f64 * 1e9,
    }
}

fn main() {
    println!("=== Assignment pruning: fig8 Lloyd loop, post-warmup iterations ===");
    println!(
        "{:<22}{:>8}{:>6}{:>6}{:>14}{:>14}{:>12}{:>10}",
        "leg", "n", "m", "k", "dists(off)", "dists(on)", "dist-redux", "wall-x"
    );
    let legs = [
        // Small k, large n: the batch_fit shape.
        run_leg("hamerly_k64", kr_bench::scaled(6000, 1200), 32, 64, 70),
        // The fig8 kM(h1h2) shape.
        run_leg("hamerly_k100", kr_bench::scaled(8000, 1600), 20, 100, 71),
        // Larger k: the O(n) bound state must scale.
        run_leg("hamerly_k128", kr_bench::scaled(8000, 1600), 20, 128, 72),
        // The batch_fit KR-x shape: on-the-fly Sum grid, factored filter.
        run_otf_leg("kr_otf_sum_8x8", kr_bench::scaled(6000, 1200), 32, 8, 76),
    ];
    let mut records = Vec::new();
    for r in legs.iter() {
        println!(
            "{:<22}{:>8}{:>6}{:>6}{:>14}{:>14}{:>12.1}{:>10.2}",
            r.leg,
            r.n,
            r.m,
            r.k,
            r.dists_exhaustive,
            r.dists_computed,
            r.dist_reduction,
            r.wall_speedup
        );
        assert!(
            r.dist_reduction >= FLOOR_DIST_REDUCTION,
            "{}: distance-eval reduction {:.2}x below the {FLOOR_DIST_REDUCTION}x floor",
            r.leg,
            r.dist_reduction
        );
        assert!(
            r.wall_speedup >= FLOOR_WALLCLOCK,
            "{}: wall-clock speedup {:.2}x below the {FLOOR_WALLCLOCK}x floor",
            r.leg,
            r.wall_speedup
        );
        records.push(
            kr_bench::bench_json::Record::new("assign_pruning", &r.leg, r.assign_ns_on)
                .with_shape(format!("{}x{}, k={}", r.n, r.m, r.k))
                .with("n", r.n)
                .with("m", r.m)
                .with("k", r.k)
                .with("iters_measured", MEASURED)
                .with("dists_exhaustive", r.dists_exhaustive)
                .with("dists_computed", r.dists_computed)
                .with("dists_skipped", r.dists_skipped)
                .with("dist_eval_reduction", r.dist_reduction)
                .with("wallclock_speedup", r.wall_speedup)
                .with("floor_dist_reduction", FLOOR_DIST_REDUCTION)
                .with("floor_wallclock", FLOOR_WALLCLOCK),
        );
    }
    kr_bench::bench_json::write("BENCH_assign.json", &records).expect("write BENCH_assign.json");
    println!("all floors met across {} legs", legs.len());

    // Sanity context: a whole KMeans fit with pruning on vs. off (not
    // part of the floors — restart seeding and update time dilute the
    // assignment win, but the skip ratio should stay visible).
    let ds = kr_datasets::synthetic::blobs(kr_bench::scaled(4000, 800), 16, 64, 1.0, 73);
    let fit = |mode: PruneMode| {
        let t0 = Instant::now();
        let model = KMeans::new(64)
            .with_n_init(1)
            .with_max_iter(WARMUP + MEASURED)
            .with_exec(ExecCtx::serial().with_prune_mode(mode))
            .fit(&ds.data)
            .unwrap();
        (model, t0.elapsed().as_secs_f64())
    };
    let (off, t_off) = fit(PruneMode::Off);
    let (on, t_on) = fit(PruneMode::On);
    assert_eq!(off.labels, on.labels, "full-fit labels must not change");
    assert_eq!(off.inertia.to_bits(), on.inertia.to_bits());
    println!(
        "full fit k=64: {:.3}s off vs {:.3}s on ({:.2}x), skip ratio {:.1}%",
        t_off,
        t_on,
        t_off / t_on,
        100.0 * on.prune_stats.skip_ratio()
    );
}

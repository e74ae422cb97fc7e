//! Property-based tests pinning the bounds-gated assignment engine
//! bitwise to the exhaustive scans.
//!
//! The engine's contract (see `kr_core::assign`) is that pruning is
//! *invisible* in the output: labels, per-point distances, centroids,
//! and inertia must carry the same bits as the exhaustive path
//! (`PruneMode::Off`), in both `KernelMode`s, at any worker count.
//! These properties sweep ragged shapes and the degenerate corners —
//! k = 1, duplicate centroids, zero-drift iterations — plus plain
//! end-to-end fits at 1/2/8 pool workers, one larger fit in the
//! small-k, large-n regime, the factored filter of Sum grids under
//! cancellation and ties, and the k-means++ seeder's hand-off of its
//! assignment to the first pass of every restart, weighted and at the
//! coreset tree's leaf shape.

use kr_core::aggregator::Aggregator;
use kr_core::assign::AssignEngine;
use kr_core::baselines::WeightedKMeans;
use kr_core::kmeans::{nearest_assignments_with, KMeans};
use kr_core::kr_kmeans::{KrKMeans, KrVariant};
use kr_core::operator::{khatri_rao, CentroidIndexer};
use kr_linalg::{ExecCtx, KernelMode, Matrix, PruneMode, ThreadPool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Exhaustive reference through the public one-shot entry point (the
/// pruned engine is pinned to this, not the other way around).
fn exhaustive(data: &Matrix, centroids: &Matrix, exec: &ExecCtx) -> (Vec<usize>, Vec<f64>) {
    let off = exec.clone().with_prune_mode(PruneMode::Off);
    nearest_assignments_with(data, centroids, &off)
}

fn assert_bitwise(
    (labels, dmin): (&[usize], &[f64]),
    (ref_labels, ref_dmin): (&[usize], &[f64]),
    ctx: &str,
) {
    assert_eq!(labels, ref_labels, "{ctx}: labels diverged");
    for (i, (a, b)) in dmin.iter().zip(ref_dmin.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: dmin bits diverged at point {i}: {a} vs {b}"
        );
    }
}

fn ragged_case() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=40, 1usize..=9, 1usize..=5).prop_flat_map(|(n, k, m)| {
        let dvals = proptest::collection::vec(-8.0..8.0f64, n * m);
        let cvals = proptest::collection::vec(-8.0..8.0f64, k * m);
        (dvals, cvals).prop_map(move |(d, c)| {
            (
                Matrix::from_vec(n, m, d).unwrap(),
                Matrix::from_vec(k, m, c).unwrap(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ragged shapes, several drifting iterations, both kernel modes:
    /// the engine never departs from the exhaustive scan by a single
    /// bit.
    #[test]
    fn dense_pruned_is_bitwise_exhaustive((data, mut centroids) in ragged_case()) {
        let n = data.nrows();
        for kernel in [KernelMode::Scalar, KernelMode::Simd] {
            let exec = ExecCtx::serial()
                .with_kernel_mode(kernel)
                .with_prune_mode(PruneMode::On);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut centroids = centroids.clone();
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            for it in 0..4 {
                engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
                let (rl, rd) = exhaustive(&data, &centroids, &exec);
                assert_bitwise(
                    (&labels, &dmin),
                    (&rl, &rd),
                    &format!("{kernel:?} iter {it}"),
                );
                // Drift every centroid a little; iteration 2 is a
                // zero-drift round (stale-bound certification path).
                if it != 2 {
                    for c in 0..centroids.nrows() {
                        for (j, v) in centroids.row_mut(c).iter_mut().enumerate() {
                            *v += 0.03 * ((c + j + it) % 3) as f64;
                        }
                    }
                }
            }
        }
        // Silence the unused-mut lint without changing the strategy.
        centroids.row_mut(0)[0] += 0.0;
    }

    /// Duplicate centroids: pruned tie-breaks resolve to the lowest
    /// index exactly like the ascending exhaustive scan.
    #[test]
    fn duplicate_centroids_tie_break_bitwise(
        (data, mut centroids) in ragged_case(),
        dup in 0usize..64,
    ) {
        if centroids.nrows() > 1 {
            let src = dup % centroids.nrows();
            let dst = (dup / 7) % centroids.nrows();
            let row = centroids.row(src).to_vec();
            centroids.row_mut(dst).copy_from_slice(&row);
        }
        let n = data.nrows();
        let exec = ExecCtx::serial().with_prune_mode(PruneMode::On);
        let mut engine = AssignEngine::new(&exec);
        engine.begin_fit(&data);
        let mut labels = vec![0usize; n];
        let mut dmin = vec![0.0f64; n];
        for it in 0..3 {
            engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
            let (rl, rd) = exhaustive(&data, &centroids, &exec);
            assert_bitwise((&labels, &dmin), (&rl, &rd), &format!("iter {it}"));
        }
    }

    /// End-to-end fits: pruning on vs. off produces bit-identical
    /// models (labels, centroids, inertia) through the whole Lloyd
    /// loop, restarts and empty-cluster reseeds included.
    #[test]
    fn kmeans_fit_pruned_equals_exhaustive(
        n in 6usize..30,
        m in 1usize..4,
        k in 1usize..5,
        seed in 0u64..1000,
    ) {
        let k = k.min(n);
        let data = Matrix::from_fn(n, m, |i, j| {
            ((i * 31 + j * 17 + seed as usize) % 29) as f64 * 0.37
        });
        let fit = |mode: PruneMode| {
            KMeans::new(k)
                .with_seed(seed)
                .with_n_init(2)
                .with_max_iter(30)
                .with_exec(ExecCtx::serial().with_prune_mode(mode))
                .fit(&data)
                .unwrap()
        };
        let reference = fit(PruneMode::Off);
        let model = fit(PruneMode::On);
        assert_eq!(model.labels, reference.labels);
        assert_eq!(model.inertia.to_bits(), reference.inertia.to_bits());
        assert_eq!(model.centroids, reference.centroids);
    }

    /// The KR on-the-fly engine across both aggregators: bitwise equal
    /// to the exhaustive tuple sweep on ragged factor shapes.
    #[test]
    fn kr_otf_pruned_is_bitwise_exhaustive(
        n in 4usize..24,
        m in 1usize..4,
        h1 in 1usize..4,
        h2 in 1usize..4,
        seed in 0u64..500,
    ) {
        let data = Matrix::from_fn(n, m, |i, j| {
            ((i * 13 + j * 7 + seed as usize) % 23) as f64 * 0.4 - 2.0
        });
        let indexer = CentroidIndexer::new(vec![h1, h2]);
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let mut sets = vec![
                Matrix::from_fn(h1, m, |i, j| ((i * 5 + j + 1) % 7) as f64 * 0.5 - 1.0),
                Matrix::from_fn(h2, m, |i, j| ((i * 3 + j + 2) % 5) as f64 * 0.6 - 1.0),
            ];
            let exec = ExecCtx::serial();
            let exec_off = exec.clone().with_prune_mode(PruneMode::Off);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut eng_off = AssignEngine::new(&exec_off);
            eng_off.begin_fit(&data);
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            let mut rl = vec![0usize; n];
            let mut rd = vec![0.0f64; n];
            for it in 0..4 {
                engine.assign_otf(&data, &sets, &indexer, agg, &mut labels, &mut dmin);
                eng_off.assign_otf(&data, &sets, &indexer, agg, &mut rl, &mut rd);
                assert_bitwise((&labels, &dmin), (&rl, &rd), &format!("{agg:?} iter {it}"));
                if it != 2 {
                    for s in sets.iter_mut() {
                        for r in 0..s.nrows() {
                            for v in s.row_mut(r).iter_mut() {
                                *v += 0.04;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A Sum-grid case for the factored filter: `n × m` data and `p` factor
/// sets of sizes `hs[..p]`, all within `spread` of a common `offset`
/// that the sets share out (the `split` of it in set 0, the rest in set
/// 1), and one protocentroid duplicated when `dup` picks a set with two
/// or more rows.
#[allow(clippy::too_many_arguments)]
fn factored_case(
    n: usize,
    m: usize,
    hs: &[usize],
    offset: f64,
    spread: f64,
    split: f64,
    dup: usize,
    seed: u64,
) -> (Matrix, Vec<Matrix>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = Matrix::from_fn(n, m, |_, _| offset + spread * rng.gen_range(-1.0..1.0));
    let mut sets: Vec<Matrix> = hs
        .iter()
        .enumerate()
        .map(|(l, &h)| {
            let share = match l {
                0 => split * offset,
                1 => (1.0 - split) * offset,
                _ => 0.0,
            };
            Matrix::from_fn(h, m, |_, _| share + spread * rng.gen_range(-1.0..1.0))
        })
        .collect();
    let s = &mut sets[dup % hs.len()];
    if s.nrows() > 1 {
        let (src, dst) = (dup % s.nrows(), (dup / 5 + 1) % s.nrows());
        let row = s.row(src).to_vec();
        s.row_mut(dst).copy_from_slice(&row);
    }
    (data, sets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The factored filter of Sum grids, on both KR paths: `assign_grid`
    /// and `assign_otf` with pruning on equal `PruneMode::Off` bitwise
    /// over 4 drifting iterations (iteration 2 keeps the sets still).
    /// Shapes fall on both sides of the `Σ h < ∏ h` rule; offsets up to
    /// 1e6 with spreads from 1e-6 to 1e6 make the expanded kernel cancel
    /// catastrophically, and duplicated protocentroids make exact ties.
    #[test]
    fn kr_sum_filter_is_bitwise_exhaustive(
        (p, m, n) in (2usize..=3, 1usize..=8, 2usize..=30),
        hs in proptest::collection::vec(1usize..=5, 3),
        (offset_exp, spread_exp, split) in (-1i32..=6, -6i32..=6, 0.0..1.0f64),
        dup in 0usize..64,
        seed in 0u64..1_000_000,
    ) {
        let hs = &hs[..p];
        let offset = if offset_exp < 0 { 0.0 } else { 10f64.powi(offset_exp) };
        let spread = 10f64.powi(spread_exp);
        let (data, mut sets) = factored_case(n, m, hs, offset, spread, split, dup, seed);
        let indexer = CentroidIndexer::new(hs.to_vec());
        let agg = Aggregator::Sum;
        let on = ExecCtx::serial().with_prune_mode(PruneMode::On);
        let off = on.clone().with_prune_mode(PruneMode::Off);
        let engine = |exec: &ExecCtx| {
            let mut e = AssignEngine::new(exec);
            e.begin_fit(&data);
            e
        };
        let (mut grid_on, mut grid_off) = (engine(&on), engine(&off));
        let (mut otf_on, mut otf_off) = (engine(&on), engine(&off));
        let (mut labels, mut dmin) = (vec![0usize; n], vec![0.0f64; n]);
        let (mut rl, mut rd) = (vec![0usize; n], vec![0.0f64; n]);
        for it in 0..4 {
            let ctx = format!("hs {hs:?} m {m} offset {offset:e} spread {spread:e} iter {it}");
            let grid = khatri_rao(&sets, agg).unwrap();
            grid_on.assign_grid(&data, &grid, &sets, agg, &mut labels, &mut dmin);
            grid_off.assign_grid(&data, &grid, &sets, agg, &mut rl, &mut rd);
            assert_bitwise((&labels, &dmin), (&rl, &rd), &format!("grid {ctx}"));
            otf_on.assign_otf(&data, &sets, &indexer, agg, &mut labels, &mut dmin);
            otf_off.assign_otf(&data, &sets, &indexer, agg, &mut rl, &mut rd);
            assert_bitwise((&labels, &dmin), (&rl, &rd), &format!("otf {ctx}"));
            if it != 2 {
                for (l, s) in sets.iter_mut().enumerate() {
                    for r in 0..s.nrows() {
                        for (j, v) in s.row_mut(r).iter_mut().enumerate() {
                            *v += spread * 0.05 * ((r + j + l + it) % 3) as f64;
                        }
                    }
                }
            }
        }
    }
}

/// The bits of a fit's labels, centroids and inertia.
fn fit_bits(model: &kr_core::KMeansModel) -> (Vec<usize>, Vec<u64>, u64) {
    let centroids = model.centroids.as_slice().iter().map(|v| v.to_bits());
    (
        model.labels.clone(),
        centroids.collect(),
        model.inertia.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// k-means++ restarts hand the seeder's assignment to their first
    /// pass: `WeightedKMeans` and `KMeans` fits with pruning on equal
    /// `PruneMode::Off` bitwise at every k from 1 to n. Weights include
    /// 0, 2^-64 and 2^64; duplicated rows make ties and all-zero D²
    /// masses in the seeder; the data is also scaled by 1e-150 and by
    /// 1e150, where weighted masses overflow, and offset by 1e8.
    #[test]
    fn plus_plus_fits_pruned_equal_exhaustive(
        (n, m) in (1usize..=16, 1usize..=4),
        dup_rate in 0.0..0.6f64,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut base = Matrix::from_fn(n, m, |_, _| rng.gen_range(-8.0..8.0));
        for i in 1..n {
            if rng.gen_bool(dup_rate) {
                let row = base.row(rng.gen_range(0..i)).to_vec();
                base.row_mut(i).copy_from_slice(&row);
            }
        }
        let choices = [0.0, 2f64.powi(-64), 1.0, 2f64.powi(64), 0.3, 7.0];
        let mut weights: Vec<f64> = (0..n).map(|_| choices[rng.gen_range(0..6)]).collect();
        if weights.iter().all(|&w| w == 0.0) {
            weights[rng.gen_range(0..n)] = 2f64.powi(64);
        }
        let transforms = [
            ("plain", 1.0, 0.0),
            ("x1e-150", 1e-150, 0.0),
            ("x1e150", 1e150, 0.0),
            ("+1e8", 1.0, 1e8),
        ];
        for (name, scale, offset) in transforms {
            let data = Matrix::from_fn(n, m, |i, j| base.get(i, j) * scale + offset);
            for k in 1..=n {
                let fit = |mode: PruneMode, weighted: bool| {
                    let exec = ExecCtx::serial().with_prune_mode(mode);
                    let model = if weighted {
                        WeightedKMeans::new(k)
                            .with_seed(seed)
                            .with_n_init(2)
                            .with_max_iter(30)
                            .with_exec(exec)
                            .fit(&data, &weights)
                    } else {
                        KMeans::new(k)
                            .with_seed(seed)
                            .with_n_init(2)
                            .with_max_iter(30)
                            .with_exec(exec)
                            .fit(&data)
                    };
                    fit_bits(&model.unwrap())
                };
                for weighted in [true, false] {
                    assert_eq!(
                        fit(PruneMode::On, weighted),
                        fit(PruneMode::Off, weighted),
                        "{name} n {n} m {m} k {k} weighted {weighted}"
                    );
                }
            }
        }
    }
}

/// The coreset tree's leaf compression: 400×8 blobs into 100 centroids,
/// `n_init` 4, `max_iter` 50, where every restart's first pass is the
/// seeder's hand-off. `WeightedKMeans` (weights 1 to 7) and `KMeans`
/// fits at 1, 2 and 8 pool workers equal the serial exhaustive fit
/// bitwise. The kernel and pruning modes come from the environment, so
/// CI's `KR_KERNEL=simd` and `KR_PRUNE=off` legs run them in those modes.
#[test]
fn exec_determinism_coreset_leaf_plus_plus_fits() {
    let data = kr_datasets::synthetic::blobs(400, 8, 100, 1.0, 29).data;
    let weights: Vec<f64> = (0..400).map(|i| (1 + i % 7) as f64).collect();
    let fit = |exec: ExecCtx, weighted: bool| {
        let model = if weighted {
            WeightedKMeans::new(100)
                .with_seed(31)
                .with_n_init(4)
                .with_max_iter(50)
                .with_exec(exec)
                .fit(&data, &weights)
        } else {
            KMeans::new(100)
                .with_seed(31)
                .with_n_init(4)
                .with_max_iter(50)
                .with_exec(exec)
                .fit(&data)
        };
        model.unwrap()
    };
    for weighted in [true, false] {
        let reference = fit_bits(&fit(
            ExecCtx::serial().with_prune_mode(PruneMode::Off),
            weighted,
        ));
        for workers in [1usize, 2, 8] {
            let exec = ExecCtx::threaded(workers + 1).with_pool(Arc::new(ThreadPool::new(workers)));
            let model = fit(exec, weighted);
            assert_eq!(
                fit_bits(&model),
                reference,
                "weighted {weighted} workers {workers}"
            );
        }
    }
}

/// Full fits at 1, 2, and 8 pool workers with pruning on: the pruned
/// model matches the exhaustive serial reference bitwise.
#[test]
fn pruned_fits_bitwise_across_1_2_8_workers() {
    let data = kr_datasets::synthetic::blobs(300, 6, 8, 0.4, 7).data;
    let reference = KMeans::new(8)
        .with_seed(11)
        .with_n_init(2)
        .with_exec(ExecCtx::serial().with_prune_mode(PruneMode::Off))
        .fit(&data)
        .unwrap();
    for workers in [1usize, 2, 8] {
        let model = KMeans::new(8)
            .with_seed(11)
            .with_n_init(2)
            .with_exec(pooled(workers, KernelMode::from_env()))
            .fit(&data)
            .unwrap();
        assert_eq!(model.labels, reference.labels, "workers {workers}");
        assert_eq!(
            model.inertia.to_bits(),
            reference.inertia.to_bits(),
            "workers {workers}"
        );
        assert_eq!(model.centroids, reference.centroids);
        assert!(
            model.prune_stats.dists_skipped > 0,
            "pruning never engaged at workers {workers}"
        );
    }
}

/// Both KrKMeans variants with pruning on vs. off: identical models.
#[test]
fn kr_fits_pruned_equal_exhaustive_both_variants() {
    let data = kr_datasets::synthetic::blobs(120, 4, 6, 0.5, 3).data;
    for variant in [KrVariant::TimeEfficient, KrVariant::MemoryEfficient] {
        let fit = |mode: PruneMode| {
            KrKMeans::new(vec![2, 3])
                .with_variant(variant)
                .with_seed(5)
                .with_n_init(2)
                .with_max_iter(40)
                .with_exec(ExecCtx::serial().with_prune_mode(mode))
                .fit(&data)
                .unwrap()
        };
        let reference = fit(PruneMode::Off);
        let model = fit(PruneMode::On);
        assert_eq!(model.labels, reference.labels, "{variant:?}");
        assert_eq!(
            model.inertia.to_bits(),
            reference.inertia.to_bits(),
            "{variant:?}"
        );
        assert_eq!(
            model.protocentroids, reference.protocentroids,
            "{variant:?}"
        );
    }
}

/// A pruning-on context on an explicit pool of `workers` threads.
fn pooled(workers: usize, kernel: KernelMode) -> ExecCtx {
    ExecCtx::threaded(workers + 1)
        .with_pool(Arc::new(ThreadPool::new(workers)))
        .with_kernel_mode(kernel)
        .with_prune_mode(PruneMode::On)
}

/// The small-k, large-n regime (k = 16 on 1200×16 blobs, so k² ≤ n and
/// k ≤ 4m), which no ragged case reaches: `KMeans(16)`, a warm-started
/// KR-+ 4+4 grid fit, and two on-the-fly fits that take the tuple sweep
/// (KR-x 4+4 on the blobs mapped to |x| + 1, and KR-+ 2+2) with pruning on
/// equal the exhaustive fit bitwise at 1/2/8 workers in both kernel
/// modes, and the bounds do skip work. 1200 points span several sweep
/// blocks and cross the chunk boundaries.
#[test]
fn small_k_large_n_fits_pruned_equal_exhaustive() {
    let data = kr_datasets::synthetic::blobs(1200, 16, 16, 1.0, 19).data;
    let positive = Matrix::from_fn(1200, 16, |i, j| data.get(i, j).abs() + 1.0);
    let otf = |hs: Vec<usize>, agg: Aggregator, data: &Matrix, exec: ExecCtx| {
        KrKMeans::new(hs)
            .with_aggregator(agg)
            .with_variant(KrVariant::MemoryEfficient)
            .with_warm_start(false)
            .with_seed(23)
            .with_n_init(2)
            .with_exec(exec)
            .fit(data)
            .unwrap()
    };
    let sweeps = [
        (
            "KR-x 4+4 on the fly",
            vec![4, 4],
            Aggregator::Product,
            &positive,
        ),
        ("KR-+ 2+2 on the fly", vec![2, 2], Aggregator::Sum, &data),
    ];
    let kmeans = |exec: ExecCtx| {
        KMeans::new(16)
            .with_seed(23)
            .with_n_init(2)
            .with_exec(exec)
            .fit(&data)
            .unwrap()
    };
    let kr = |exec: ExecCtx| {
        KrKMeans::new(vec![4, 4])
            .with_variant(KrVariant::TimeEfficient)
            .with_warm_start(true)
            .with_seed(23)
            .with_n_init(2)
            .with_exec(exec)
            .fit(&data)
            .unwrap()
    };
    for kernel in [KernelMode::Scalar, KernelMode::Simd] {
        let off = ExecCtx::serial()
            .with_kernel_mode(kernel)
            .with_prune_mode(PruneMode::Off);
        let km_ref = kmeans(off.clone());
        let kr_ref = kr(off.clone());
        let sweep_refs: Vec<_> = sweeps
            .iter()
            .map(|(_, hs, agg, data)| otf(hs.clone(), *agg, data, off.clone()))
            .collect();
        for workers in [1usize, 2, 8] {
            let ctx = format!("{kernel:?} workers {workers}");
            let km = kmeans(pooled(workers, kernel));
            assert_eq!(km.labels, km_ref.labels, "KMeans {ctx}");
            assert_eq!(km.centroids, km_ref.centroids, "KMeans {ctx}");
            assert_eq!(
                km.inertia.to_bits(),
                km_ref.inertia.to_bits(),
                "KMeans {ctx}"
            );
            assert!(km.prune_stats.dists_skipped > 0, "KMeans {ctx}: no skips");
            let grid = kr(pooled(workers, kernel));
            assert_eq!(grid.labels, kr_ref.labels, "KR-+ {ctx}");
            assert_eq!(grid.protocentroids, kr_ref.protocentroids, "KR-+ {ctx}");
            assert_eq!(
                grid.inertia.to_bits(),
                kr_ref.inertia.to_bits(),
                "KR-+ {ctx}"
            );
            assert!(grid.prune_stats.dists_skipped > 0, "KR-+ {ctx}: no skips");
            for ((name, hs, agg, data), reference) in sweeps.iter().zip(&sweep_refs) {
                let model = otf(hs.clone(), *agg, data, pooled(workers, kernel));
                assert_eq!(model.labels, reference.labels, "{name} {ctx}");
                assert_eq!(
                    model.protocentroids, reference.protocentroids,
                    "{name} {ctx}"
                );
                assert_eq!(
                    model.inertia.to_bits(),
                    reference.inertia.to_bits(),
                    "{name} {ctx}"
                );
                assert!(
                    model.prune_stats.dists_skipped > 0,
                    "{name} {ctx}: no skips"
                );
            }
        }
    }
}

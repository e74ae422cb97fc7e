//! Property-based tests for the Khatri-Rao clustering core.

use kr_core::aggregator::Aggregator;
use kr_core::baselines::{NnkMeans, RkMeans, WeightedKMeans};
use kr_core::design;
use kr_core::kmeans::KMeans;
use kr_core::kr_kmeans::{KrKMeans, KrVariant};
use kr_core::operator::{khatri_rao, CentroidIndexer};
use kr_linalg::{ops, Matrix};
use proptest::prelude::*;

fn small_sets() -> impl Strategy<Value = Vec<Matrix>> {
    // 2-3 sets, each 1-3 rows, shared dim 1-4.
    (1usize..=4, 2usize..=3).prop_flat_map(|(m, p)| {
        proptest::collection::vec(1usize..=3, p).prop_flat_map(move |hs| {
            let total: usize = hs.iter().sum::<usize>() * m;
            proptest::collection::vec(-4.0..4.0f64, total).prop_map(move |flat| {
                let mut sets = Vec::new();
                let mut off = 0;
                for &h in &hs {
                    let take = h * m;
                    sets.push(Matrix::from_vec(h, m, flat[off..off + take].to_vec()).unwrap());
                    off += take;
                }
                sets
            })
        })
    })
}

fn small_data() -> impl Strategy<Value = Matrix> {
    (4usize..=24, 1usize..=3).prop_flat_map(|(n, m)| {
        proptest::collection::vec(-10.0..10.0f64, n * m)
            .prop_map(move |d| Matrix::from_vec(n, m, d).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn khatri_rao_row_count_is_product(sets in small_sets()) {
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let grid = khatri_rao(&sets, agg).unwrap();
            let expect: usize = sets.iter().map(|s| s.nrows()).product();
            prop_assert_eq!(grid.nrows(), expect);
        }
    }

    #[test]
    fn khatri_rao_rows_match_manual_aggregation(sets in small_sets()) {
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let grid = khatri_rao(&sets, agg).unwrap();
            let ix = CentroidIndexer::new(sets.iter().map(|s| s.nrows()).collect());
            for flat in 0..grid.nrows() {
                let tuple = ix.to_tuple(flat);
                for d in 0..grid.ncols() {
                    let mut acc = agg.identity();
                    for (l, &j) in tuple.iter().enumerate() {
                        acc = agg.apply(acc, sets[l].get(j, d));
                    }
                    prop_assert!((grid.get(flat, d) - acc).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn indexer_bijection(hs in proptest::collection::vec(1usize..5, 1..4)) {
        let ix = CentroidIndexer::new(hs);
        let mut seen = std::collections::HashSet::new();
        for flat in 0..ix.n_centroids() {
            let t = ix.to_tuple(flat);
            prop_assert_eq!(ix.to_flat(&t), flat);
            prop_assert!(seen.insert(t));
        }
        prop_assert_eq!(seen.len(), ix.n_centroids());
    }

    #[test]
    fn unconstrained_refinement_never_loses(data in small_data(), seed in 0u64..50) {
        // Dropping the Khatri-Rao constraint and running Lloyd from the
        // KR solution can only improve the objective (KR-k-Means solves
        // a *constrained* version of the same problem).
        if data.nrows() >= 6 {
            let kr = KrKMeans::new(vec![2, 2]).with_n_init(5).with_seed(seed).fit(&data).unwrap();
            let refined = KMeans::new(4)
                .with_init(kr_core::kmeans::KMeansInit::FromCentroids(kr.centroids()))
                .with_n_init(1)
                .with_seed(seed)
                .fit(&data)
                .unwrap();
            prop_assert!(refined.inertia <= kr.inertia + 1e-6,
                "refined {} > kr {}", refined.inertia, kr.inertia);
        }
    }

    #[test]
    fn kr_labels_consistent_with_nearest_centroid(data in small_data(), seed in 0u64..20) {
        if data.nrows() >= 4 {
            let model = KrKMeans::new(vec![2, 2]).with_n_init(3).with_seed(seed).fit(&data).unwrap();
            let centroids = model.centroids();
            for (i, x) in data.rows_iter().enumerate() {
                let assigned = ops::sqdist(x, centroids.row(model.labels[i]));
                for c in centroids.rows_iter() {
                    prop_assert!(assigned <= ops::sqdist(x, c) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn variants_agree(data in small_data(), seed in 0u64..20) {
        if data.nrows() >= 4 {
            // Warm start pinned on for both variants so they search the
            // same candidate set (it defaults off for MemoryEfficient).
            let t = KrKMeans::new(vec![2, 2]).with_n_init(2).with_seed(seed)
                .with_warm_start(true)
                .with_variant(KrVariant::TimeEfficient).fit(&data).unwrap();
            let m = KrKMeans::new(vec![2, 2]).with_n_init(2).with_seed(seed)
                .with_warm_start(true)
                .with_variant(KrVariant::MemoryEfficient).fit(&data).unwrap();
            prop_assert_eq!(&t.labels, &m.labels);
            prop_assert!((t.inertia - m.inertia).abs() < 1e-6);
        }
    }

    #[test]
    fn prop61_updates_are_stationary(sets in small_sets(), seed in 0u64..10) {
        // Proposition 6.1: iterating the closed-form block updates on a
        // *fixed* assignment converges to a point where perturbing any
        // protocentroid coordinate does not decrease the objective.
        use kr_core::kr_kmeans::{fixed_assignment_objective, prop61_update_pass_with};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = sets[0].ncols();
        let n = 16;
        let data = Matrix::from_fn(n, m, |_, _| rng.gen_range(-5.0..5.0));
        let k: usize = sets.iter().map(|s| s.nrows()).product();
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let mut work = sets.clone();
            let mut last = f64::INFINITY;
            let mut converged = false;
            let serial = kr_linalg::ExecCtx::serial();
            for _ in 0..1000 {
                prop61_update_pass_with(&data, &labels, &mut work, agg, seed, &serial);
                let obj = fixed_assignment_objective(&data, &labels, &work, agg);
                // Block coordinate descent must be monotone (always).
                prop_assert!(obj <= last + 1e-7, "{agg:?}: {obj} > {last}");
                let plateau = (last - obj).abs() < 1e-13;
                last = obj;
                if plateau {
                    converged = true;
                    break;
                }
            }
            // Stationarity is only guaranteed at the ALS fixed point;
            // product-aggregator ALS occasionally needs more passes than
            // the cap, in which case only monotonicity is asserted.
            if !converged {
                continue;
            }
            let base = fixed_assignment_objective(&data, &labels, &work, agg);
            for delta in [1e-5, -1e-5] {
                let mut perturbed = work.clone();
                let v = perturbed[0].get(0, 0) + delta;
                perturbed[0].set(0, 0, v);
                let obj = fixed_assignment_objective(&data, &labels, &perturbed, agg);
                prop_assert!(
                    obj >= base - 1e-8 * (1.0 + base),
                    "{agg:?}: perturbed {obj} < base {base}"
                );
            }
        }
    }

    #[test]
    fn balanced_split_maximizes_product(b in 2usize..30, p in 1usize..6) {
        if b >= p {
            let split = design::balanced_budget_split(b, p);
            let best: usize = design::max_representable(&split);
            // Any random alternative allocation of the same budget into p
            // non-empty sets cannot represent more centroids.
            let mut alt = vec![1usize; p];
            let mut rest = b - p;
            let mut i = 0;
            while rest > 0 {
                alt[i % p] += rest.min(2);
                rest = rest.saturating_sub(2);
                i += 1;
            }
            prop_assert!(design::max_representable(&alt) <= best);
        }
    }

    #[test]
    fn rkmeans_on_uncompressed_grid_matches_weighted_kmeans(data in small_data(), seed in 0u64..20) {
        // Spread the first coordinate so every point owns its own grid
        // cell: with bins >= n - 1, `floor(i * bins / (n - 1))` is
        // strictly increasing in i, so the compression is lossless and
        // Rk-means degenerates to weighted k-Means with unit weights —
        // bitwise, not just approximately.
        let mut data = data;
        let n = data.nrows();
        if n >= 4 {
            for i in 0..n {
                data.set(i, 0, i as f64);
            }
            let rk = RkMeans::new(2)
                .with_bins(2048)
                .with_n_init(3)
                .with_max_iter(50)
                .with_seed(seed)
                .fit(&data)
                .unwrap();
            // The grid must be lossless for the equivalence to hold.
            prop_assert_eq!(rk.n_representatives, n);
            let weighted = WeightedKMeans::new(2)
                .with_n_init(3)
                .with_max_iter(50)
                .with_seed(seed)
                .fit(&data, &vec![1.0; n])
                .unwrap();
            prop_assert_eq!(&rk.centroids, &weighted.centroids);
            prop_assert_eq!(&rk.labels, &weighted.labels);
            prop_assert_eq!(rk.inertia.to_bits(), weighted.inertia.to_bits());
            prop_assert_eq!(rk.compressed_inertia.to_bits(), weighted.inertia.to_bits());
        }
    }

    #[test]
    fn nnk_codes_nonnegative_and_reconstruction_bounded(data in small_data(), seed in 0u64..20) {
        if data.nrows() >= 4 {
            let model = NnkMeans::new(3)
                .with_neighbors(2)
                .with_max_iter(10)
                .with_seed(seed)
                .fit(&data)
                .unwrap();
            // Coordinate descent starts at w = 0 and first updates the
            // nearest atom, so the final NNK reconstruction is never
            // worse than snapping each point to its assigned atom.
            prop_assert!(
                model.reconstruction_error <= model.inertia + 1e-6 * (1.0 + model.inertia),
                "recon {} > inertia {}", model.reconstruction_error, model.inertia
            );
            prop_assert!(model.avg_support <= 2.0 + 1e-12);
            prop_assert!(model.labels.iter().all(|&l| l < 3));
        }
    }

    #[test]
    fn kmeans_inertia_decreases_with_k(data in small_data(), seed in 0u64..10) {
        if data.nrows() >= 4 {
            let i1 = KMeans::new(1).with_seed(seed).fit(&data).unwrap().inertia;
            let i2 = KMeans::new(2).with_n_init(5).with_seed(seed).fit(&data).unwrap().inertia;
            let i4 = KMeans::new(4).with_n_init(5).with_seed(seed).fit(&data).unwrap().inertia;
            prop_assert!(i2 <= i1 + 1e-9);
            prop_assert!(i4 <= i2 + 1e-9);
        }
    }
}

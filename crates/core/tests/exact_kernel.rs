//! The exact distance kernel, pinned end to end.
//!
//! Every nearest-centroid decision computes the direct sum of squares
//! `ops::sqdist(x, c)` (`kr_core::kmeans::nearest_centroid`), the kernel
//! `kr_metrics::inertia` scores with. Two consequences are checked here:
//! a fit is unchanged by translating the data, where the expanded form
//! `‖x‖² + ‖c‖² − 2⟨x,c⟩` cancels away the distances; and a fitted
//! model's inertia equals the scorer's bitwise.

use kr_core::aggregator::Aggregator;
use kr_core::baselines::{RkMeans, WeightedKMeans};
use kr_core::kmeans::{nearest_centroid, KMeans};
use kr_core::kr_kmeans::{KrKMeans, KrVariant};
use kr_datasets::synthetic::blobs;
use kr_linalg::Matrix;

/// `KMeans(16)` on 4000×8 blobs reads the same labels, and inertia within
/// 1e-9 relative, with every coordinate shifted by up to 1e8. At 1e8,
/// ‖x‖² ≈ 8e16 and the expanded form's rounding is as large as the
/// distances themselves.
#[test]
fn kmeans_fit_is_translation_invariant() {
    let base = blobs(4000, 8, 16, 1.0, 7).data;
    let fit = |data: &Matrix| {
        KMeans::new(16)
            .with_n_init(3)
            .with_seed(7)
            .fit(data)
            .unwrap()
    };
    let reference = fit(&base);
    for offset in [1e4, 1e6, 1e8] {
        let shifted = Matrix::from_fn(base.nrows(), base.ncols(), |i, j| base.get(i, j) + offset);
        let model = fit(&shifted);
        assert_eq!(model.labels, reference.labels, "offset {offset:e}");
        let rel = (model.inertia - reference.inertia).abs() / reference.inertia;
        assert!(
            rel <= 1e-9,
            "offset {offset:e}: relative inertia error {rel:e}"
        );
    }
}

/// `model.inertia` of a `KMeans(9)` fit, a KR-+ 3+3 grid fit (through
/// the factored filter), a KR-x 3+3 on-the-fly fit (through the tuple
/// sweep) and an `RkMeans(9)` fit equals `kr_metrics::inertia` of its
/// centroids bitwise, and a `WeightedKMeans(9)` fit's equals
/// `Σ wᵢ · nearest_centroid` distance summed in point order: every fit
/// reports the objective of the model it returns.
#[test]
fn fitted_inertia_equals_the_scorer_bitwise() {
    for seed in 0..10 {
        let data = blobs(600, 6, 9, 0.7, seed).data;
        let weights: Vec<f64> = (0..data.nrows()).map(|i| 0.25 + (i % 7) as f64).collect();
        let weighted = WeightedKMeans::new(9)
            .with_n_init(3)
            .with_seed(seed)
            .fit(&data, &weights)
            .unwrap();
        let scored: f64 = data
            .rows_iter()
            .zip(&weights)
            .map(|(x, &w)| w * nearest_centroid(x, &weighted.centroids).1)
            .sum();
        assert_eq!(
            weighted.inertia.to_bits(),
            scored.to_bits(),
            "seed {seed} WeightedKMeans: inertia {} but scores {scored}",
            weighted.inertia
        );
        let rk = RkMeans::new(9)
            .with_bins(16)
            .with_n_init(3)
            .with_seed(seed)
            .fit(&data)
            .unwrap();
        let km = KMeans::new(9)
            .with_n_init(3)
            .with_seed(seed)
            .fit(&data)
            .unwrap();
        let grid = KrKMeans::new(vec![3, 3])
            .with_aggregator(Aggregator::Sum)
            .with_variant(KrVariant::TimeEfficient)
            .with_n_init(3)
            .with_seed(seed)
            .fit(&data)
            .unwrap();
        let otf = KrKMeans::new(vec![3, 3])
            .with_aggregator(Aggregator::Product)
            .with_variant(KrVariant::MemoryEfficient)
            .with_n_init(3)
            .with_seed(seed)
            .fit(&data)
            .unwrap();
        for (name, inertia, centroids) in [
            ("KMeans", km.inertia, km.centroids),
            ("KR-+ grid", grid.inertia, grid.centroids()),
            ("KR-x on the fly", otf.inertia, otf.centroids()),
            ("RkMeans", rk.inertia, rk.centroids),
        ] {
            let scored = kr_metrics::inertia(&data, &centroids);
            assert_eq!(
                inertia.to_bits(),
                scored.to_bits(),
                "seed {seed} {name}: inertia {inertia} but scores {scored}"
            );
        }
    }
}

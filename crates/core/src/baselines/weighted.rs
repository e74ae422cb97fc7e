//! Weighted k-Means: Lloyd iterations over points carrying non-negative
//! weights.
//!
//! This is the inner solver of [`RkMeans`](super::RkMeans) — after grid
//! compression every representative carries the number of original
//! points it stands for — and the compressor of `kr-stream`'s coreset
//! tree, and it serves any pre-aggregated data (weighted coresets,
//! histogram bins, relational aggregates). [`WeightedKMeans`] checks the
//! weights and runs [`KMeans`]'s Lloyd core (see [`crate::kmeans`]) with
//! them, so every weight vector takes the same code path, RNG
//! consumption and chunked reduction geometry, and unit-weight fits are
//! bitwise references for the compressed fits (property-tested in
//! `tests/proptests.rs`).
//!
//! Each weight must be 0 or lie in [2^-64, 2^64], and one must be
//! positive; anything else is an [`InvalidConfig`](CoreError::InvalidConfig)
//! error. Scaling every weight by one factor leaves the fit unchanged,
//! so weights that fit the window after scaling lose nothing. Inside it
//! no cluster total or its inverse overflows or turns subnormal, and a
//! weighted product stays within 2^64 of the unweighted one. Outside it,
//! weights of 1e308 would overflow the objective, and subnormal ones a
//! cluster's inverse total, into infinite centroids.

use crate::kmeans::{validate_input, KMeans, KMeansModel};
use crate::{CoreError, Result};
use kr_linalg::{ExecCtx, Matrix};

/// 2^64, the largest accepted weight (the smallest positive one is its
/// inverse).
const WEIGHT_BOUND: f64 = 18_446_744_073_709_551_616.0;

/// Weighted k-Means runner (builder style), with [`KMeans`]'s defaults:
/// k-means++ seeding (D²-weighted by point weight), 20 restarts, 200
/// iterations, tolerance `1e-4`.
///
/// ```
/// use kr_core::baselines::WeightedKMeans;
/// use kr_linalg::Matrix;
/// // Two weighted super-points per blob stand in for many raw points.
/// let pts = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.2, 0.0], vec![9.0, 9.0], vec![9.2, 9.0],
/// ]).unwrap();
/// let model = WeightedKMeans::new(2)
///     .with_seed(1)
///     .fit(&pts, &[10.0, 5.0, 8.0, 4.0])
///     .unwrap();
/// assert_eq!(model.centroids.nrows(), 2);
/// assert_ne!(model.labels[0], model.labels[2]);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedKMeans(KMeans);

/// A fitted [`WeightedKMeans`] model; its `inertia` is the weighted
/// objective `Σ wᵢ ‖xᵢ − c(xᵢ)‖²`.
pub type WeightedKMeansModel = KMeansModel;

impl WeightedKMeans {
    /// Creates a runner for `k` clusters.
    pub fn new(k: usize) -> Self {
        WeightedKMeans(KMeans::new(k))
    }

    /// Sets the number of random restarts (best weighted inertia wins).
    pub fn with_n_init(self, n_init: usize) -> Self {
        WeightedKMeans(self.0.with_n_init(n_init))
    }

    /// Sets the maximum Lloyd iterations per restart.
    pub fn with_max_iter(self, max_iter: usize) -> Self {
        WeightedKMeans(self.0.with_max_iter(max_iter))
    }

    /// Sets the convergence tolerance on total squared centroid movement.
    pub fn with_tol(self, tol: f64) -> Self {
        WeightedKMeans(self.0.with_tol(tol))
    }

    /// Sets the RNG seed (fits are deterministic given the seed).
    pub fn with_seed(self, seed: u64) -> Self {
        WeightedKMeans(self.0.with_seed(seed))
    }

    /// Sets the execution context used by the assignment and update
    /// steps.
    pub fn with_exec(self, exec: ExecCtx) -> Self {
        WeightedKMeans(self.0.with_exec(exec))
    }

    /// Runs weighted k-Means over `points` (one row per weighted point)
    /// with the given `weights` (each 0 or in [2^-64, 2^64], not all 0),
    /// returning the best model over all restarts.
    pub fn fit(&self, points: &Matrix, weights: &[f64]) -> Result<WeightedKMeansModel> {
        validate_input(points, self.0.k)?;
        validate_weights(points, weights)?;
        Ok(self.0.lloyd(points, Some(weights)))
    }
}

fn validate_weights(points: &Matrix, weights: &[f64]) -> Result<()> {
    if weights.len() != points.nrows() {
        return Err(CoreError::InvalidConfig(format!(
            "need one weight per point: {} weights for {} points",
            weights.len(),
            points.nrows()
        )));
    }
    let accepted = 1.0 / WEIGHT_BOUND..=WEIGHT_BOUND;
    if let Some(w) = weights.iter().find(|&w| *w != 0.0 && !accepted.contains(w)) {
        return Err(CoreError::InvalidConfig(format!(
            "weight {w:e} is neither 0 nor in [2^-64, 2^64]; \
             scaling every weight by one factor leaves the fit unchanged"
        )));
    }
    if weights.iter().all(|&w| w == 0.0) {
        return Err(CoreError::InvalidConfig(
            "total weight must be positive".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_weighted_blobs() -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut weights = Vec::new();
        for i in 0..10 {
            let j = (i % 5) as f64 * 0.01;
            rows.push(vec![0.0 + j, 0.0 - j]);
            weights.push(1.0 + (i % 3) as f64);
            rows.push(vec![10.0 + j, 10.0 - j]);
            weights.push(2.0 + (i % 2) as f64);
        }
        (Matrix::from_rows(&rows).unwrap(), weights)
    }

    #[test]
    fn separates_two_weighted_blobs() {
        let (pts, w) = two_weighted_blobs();
        let model = WeightedKMeans::new(2).with_seed(3).fit(&pts, &w).unwrap();
        assert!(model.inertia < 0.5, "inertia {}", model.inertia);
        for pair in model.labels.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn unit_weights_match_weighted_centroid_mean() {
        let (pts, _) = two_weighted_blobs();
        let w = vec![1.0; pts.nrows()];
        let model = WeightedKMeans::new(1).with_seed(0).fit(&pts, &w).unwrap();
        let means = pts.col_means();
        for (a, b) in model.centroids.row(0).iter().zip(means.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn heavy_point_pulls_centroid() {
        let pts = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let model = WeightedKMeans::new(1)
            .with_seed(0)
            .fit(&pts, &[3.0, 1.0])
            .unwrap();
        // Weighted mean (3*0 + 1*1) / 4 = 0.25.
        assert!((model.centroids.get(0, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_points_do_not_move_centroids() {
        let pts = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![100.0]]).unwrap();
        let model = WeightedKMeans::new(1)
            .with_seed(1)
            .fit(&pts, &[1.0, 1.0, 0.0])
            .unwrap();
        assert!((model.centroids.get(0, 0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_weights() {
        let pts = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let fit = |w: &[f64]| WeightedKMeans::new(1).fit(&pts, w);
        assert!(matches!(fit(&[1.0]), Err(CoreError::InvalidConfig(_))));
        assert!(matches!(
            fit(&[1.0, -0.5]),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            fit(&[f64::NAN, 1.0]),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(fit(&[0.0, 0.0]), Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn extreme_weights_are_typed_errors_and_in_range_ones_fit_finite() {
        // The doc example's four points.
        let pts = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.0],
            vec![9.0, 9.0],
            vec![9.2, 9.0],
        ])
        .unwrap();
        let fit = |w: &[f64]| WeightedKMeans::new(2).with_seed(1).fit(&pts, w);
        // Unchecked, the first two overflow the centroids and the
        // inertia, and the last two give a centroid [inf, inf].
        for w in [1e308, f64::MAX, 1e-310, 5e-324] {
            assert!(
                matches!(fit(&[w; 4]), Err(CoreError::InvalidConfig(_))),
                "weight {w:e}"
            );
        }
        // A subnormal weight beside a unit one: alone in its cluster
        // after one iteration, its inverse total overflows to a centroid
        // [inf, inf].
        let two = Matrix::from_rows(&[vec![0.0, 0.0], vec![9.2, 9.0]]).unwrap();
        let one_iter = WeightedKMeans::new(2).with_seed(1).with_max_iter(1);
        assert!(matches!(
            one_iter.fit(&two, &[1.0, 5e-324]),
            Err(CoreError::InvalidConfig(_))
        ));
        // The ends of the window fit the unit-weight model: scaling every
        // weight by a power of two scales only the inertia, exactly.
        let unit = fit(&[1.0; 4]).unwrap();
        for scale in [1.0 / WEIGHT_BOUND, WEIGHT_BOUND] {
            let model = fit(&[scale; 4]).unwrap();
            assert_eq!(model.centroids, unit.centroids, "scale {scale:e}");
            assert_eq!(model.labels, unit.labels);
            assert_eq!(model.inertia.to_bits(), (unit.inertia * scale).to_bits());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (pts, w) = two_weighted_blobs();
        let a = WeightedKMeans::new(2).with_seed(42).fit(&pts, &w).unwrap();
        let b = WeightedKMeans::new(2).with_seed(42).fit(&pts, &w).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    }

    #[test]
    fn threads_do_not_change_result() {
        let (pts, w) = two_weighted_blobs();
        let a = WeightedKMeans::new(2)
            .with_seed(7)
            .with_exec(ExecCtx::threaded(1))
            .fit(&pts, &w)
            .unwrap();
        let b = WeightedKMeans::new(2)
            .with_seed(7)
            .with_exec(ExecCtx::threaded(4))
            .fit(&pts, &w)
            .unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    }
}

//! Weighted Lloyd iterations: k-Means over points carrying non-negative
//! weights.
//!
//! This is the inner solver of [`RkMeans`](super::RkMeans) — after grid
//! compression every representative carries the number of original
//! points it stands for — but it is useful on its own whenever data
//! arrives pre-aggregated (weighted coresets, histogram bins, relational
//! aggregates). With all weights equal to `1.0` it follows exactly the
//! same code path, RNG consumption, and chunked reduction geometry on
//! every input, so unit-weight fits are bitwise reproducible references
//! for the compressed fits (property-tested in `tests/proptests.rs`).

use crate::assign::{AssignEngine, PruneStats};
use crate::kmeans::{validate_input, UPDATE_CHUNK};
use crate::{CoreError, Result};
use kr_linalg::{ops, parallel, ExecCtx, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Weighted k-Means runner (builder style), mirroring
/// [`KMeans`](crate::KMeans)'s defaults: k-means++ seeding (D²-weighted
/// by point weight), 20 restarts, 200 iterations, tolerance `1e-4`.
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
pub struct WeightedKMeans {
    k: usize,
    n_init: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
    exec: ExecCtx,
}

/// A fitted [`WeightedKMeans`] model.
#[derive(Debug, Clone)]
pub struct WeightedKMeansModel {
    /// Final centroids, `k x m`.
    pub centroids: Matrix,
    /// Per-point cluster assignments.
    pub labels: Vec<usize>,
    /// Final **weighted** inertia: `Σ wᵢ ‖xᵢ − c(xᵢ)‖²`.
    pub inertia: f64,
    /// Iterations executed by the best restart.
    pub n_iter: usize,
    /// Distance-evaluation pruning counters accumulated over the whole
    /// fit (all restarts). Telemetry only — never part of the bitwise
    /// determinism contract. Point weights scale the *update* step, not
    /// the geometry, so assignment pruning applies unchanged.
    pub prune_stats: PruneStats,
}

impl WeightedKMeans {
    /// Creates a runner for `k` clusters.
    pub fn new(k: usize) -> Self {
        WeightedKMeans {
            k,
            n_init: 20,
            max_iter: 200,
            tol: 1e-4,
            seed: 0,
            exec: ExecCtx::serial(),
        }
    }

    /// Sets the number of random restarts (best weighted inertia wins).
    pub fn with_n_init(mut self, n_init: usize) -> Self {
        self.n_init = n_init.max(1);
        self
    }

    /// Sets the maximum Lloyd iterations per restart.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// Sets the convergence tolerance on total squared centroid movement.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the RNG seed (fits are deterministic given the seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution context used by the assignment and update
    /// steps.
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// Runs weighted k-Means over `points` (one row per weighted point)
    /// with the given non-negative `weights`, returning the best model
    /// over all restarts.
    pub fn fit(&self, points: &Matrix, weights: &[f64]) -> Result<WeightedKMeansModel> {
        validate_input(points, self.k)?;
        validate_weights(points, weights)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        // One bounds-gated engine across all restarts (same reuse story
        // as `KMeans::fit`): weights never enter the distance geometry.
        let mut engine = AssignEngine::new(&self.exec);
        engine.begin_fit(points);
        let mut best: Option<WeightedKMeansModel> = None;
        for _ in 0..self.n_init {
            let model = self.fit_once(points, weights, &mut rng, &mut engine)?;
            if best.as_ref().is_none_or(|b| model.inertia < b.inertia) {
                best = Some(model);
            }
        }
        let mut best = best.expect("n_init >= 1");
        best.prune_stats = engine.take_stats();
        Ok(best)
    }

    fn fit_once(
        &self,
        points: &Matrix,
        weights: &[f64],
        rng: &mut StdRng,
        engine: &mut AssignEngine,
    ) -> Result<WeightedKMeansModel> {
        let n = points.nrows();
        let mut centroids = weighted_plus_plus_init(points, weights, self.k, rng);
        let mut labels = vec![0usize; n];
        let mut dmin = vec![0.0f64; n];
        let mut n_iter = 0;
        let mut inertia = f64::INFINITY;
        // Same freshness bookkeeping as `KMeans::fit_once`: skip the
        // post-loop re-assignment when the last update moved nothing.
        let mut assignments_fresh = false;
        engine.begin_restart();
        for it in 0..self.max_iter {
            n_iter = it + 1;
            engine.assign_dense(points, &centroids, &mut labels, &mut dmin);
            inertia = weighted_sum(&dmin, weights);

            let (sums, wsums) = weighted_cluster_sums(points, weights, &labels, self.k, &self.exec);
            let mut movement = 0.0;
            for (c, &wsum) in wsums.iter().enumerate() {
                if wsum <= 0.0 {
                    // Empty (or zero-weight) cluster: reseed to a random
                    // data point, the same policy as plain k-Means.
                    let pick = rng.gen_range(0..n);
                    let new_row = points.row(pick).to_vec();
                    movement += ops::sqdist(centroids.row(c), &new_row);
                    centroids.row_mut(c).copy_from_slice(&new_row);
                    continue;
                }
                let inv = 1.0 / wsum;
                let sum_row = sums.row(c);
                let cen_row = centroids.row_mut(c);
                let mut delta = 0.0;
                for (cv, &sv) in cen_row.iter_mut().zip(sum_row.iter()) {
                    let nv = sv * inv;
                    let d = nv - *cv;
                    delta += d * d;
                    *cv = nv;
                }
                movement += delta;
            }
            assignments_fresh = movement == 0.0;
            if movement < self.tol {
                break;
            }
        }
        if !assignments_fresh {
            engine.assign_dense(points, &centroids, &mut labels, &mut dmin);
            // Unlike `KMeans::fit_once` there is no `.min()` against the
            // loop's running value: the reported inertia must equal the
            // objective of the *returned* labels/centroids exactly (the
            // Rk-means lossless-grid equivalence is asserted bitwise),
            // even when a final-iteration reseed made things worse.
            inertia = weighted_sum(&dmin, weights);
        }
        Ok(WeightedKMeansModel {
            centroids,
            labels,
            inertia,
            n_iter,
            prune_stats: PruneStats::default(),
        })
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
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(CoreError::InvalidConfig(
            "weights must be finite and non-negative".into(),
        ));
    }
    if weights.iter().sum::<f64>() <= 0.0 {
        return Err(CoreError::InvalidConfig(
            "total weight must be positive".into(),
        ));
    }
    Ok(())
}

/// `Σ wᵢ dᵢ`, accumulated serially in point order (bitwise reproducible
/// at any thread count because it never runs on the pool).
fn weighted_sum(d: &[f64], w: &[f64]) -> f64 {
    d.iter().zip(w).map(|(&d, &w)| w * d).sum()
}

/// Per-cluster **weighted** coordinate sums (`k x m`) and weight totals,
/// accumulated exactly like [`cluster_sums`](crate::kmeans::cluster_sums):
/// fixed [`UPDATE_CHUNK`]-sized chunk partials merged in ascending chunk
/// order, so the result is bitwise identical for every `ExecCtx`.
pub(crate) fn weighted_cluster_sums(
    points: &Matrix,
    weights: &[f64],
    labels: &[usize],
    k: usize,
    exec: &ExecCtx,
) -> (Matrix, Vec<f64>) {
    let m = points.ncols();
    let n = points.nrows();
    let partials = parallel::reduce_chunks(
        exec,
        n,
        UPDATE_CHUNK,
        || (Matrix::zeros(k, m), vec![0.0f64; k]),
        |(sums, wsums), start, end| {
            for (off, &l) in labels[start..end].iter().enumerate() {
                let w = weights[start + off];
                ops::axpy(sums.row_mut(l), w, points.row(start + off));
                wsums[l] += w;
            }
        },
    );
    let mut iter = partials.into_iter();
    let (mut sums, mut wsums) = iter
        .next()
        .unwrap_or_else(|| (Matrix::zeros(k, m), vec![0.0f64; k]));
    for (psums, pwsums) in iter {
        ops::add_assign(sums.as_mut_slice(), psums.as_slice());
        for (c, p) in wsums.iter_mut().zip(pwsums) {
            *c += p;
        }
    }
    (sums, wsums)
}

/// k-means++ seeding where sampling probabilities carry the point
/// weights: the first centroid is drawn with probability ∝ `wᵢ`,
/// subsequent ones with probability ∝ `wᵢ · D²(xᵢ)`.
fn weighted_plus_plus_init(points: &Matrix, weights: &[f64], k: usize, rng: &mut StdRng) -> Matrix {
    let n = points.nrows();
    let mut centroids = Matrix::zeros(k, points.ncols());
    let first = sample_weighted_index(weights, rng);
    centroids.row_mut(0).copy_from_slice(points.row(first));
    let mut d2: Vec<f64> = points
        .rows_iter()
        .map(|x| ops::sqdist(x, centroids.row(0)))
        .collect();
    let mut masses: Vec<f64> = vec![0.0; n];
    for c in 1..k {
        for ((mass, &d), &w) in masses.iter_mut().zip(&d2).zip(weights) {
            *mass = w * d;
        }
        let pick = sample_weighted_index(&masses, rng);
        centroids.row_mut(c).copy_from_slice(points.row(pick));
        for (i, x) in points.rows_iter().enumerate() {
            let d = ops::sqdist(x, centroids.row(c));
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

/// Draws an index with probability proportional to `masses` (uniform
/// fallback when the total mass is zero).
fn sample_weighted_index(masses: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = masses.iter().sum();
    if total > 0.0 {
        let mut target = rng.gen_range(0.0..total);
        for (i, &w) in masses.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        masses.len() - 1
    } else {
        rng.gen_range(0..masses.len())
    }
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

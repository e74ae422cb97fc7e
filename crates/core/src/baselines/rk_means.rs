//! Rk-means-style fast clustering: grid pre-aggregation + weighted Lloyd.
//!
//! After Curtin et al., "Rk-means: Fast Clustering for Relational Data"
//! (AISTATS 2020). The original algorithm clusters relational data
//! without materializing the design matrix by first *compressing* the
//! points into a small set of weighted representatives and then running
//! weighted k-Means on the compressed set, with a constant-factor
//! approximation guarantee. This reproduction keeps the two-phase
//! structure on materialized matrices:
//!
//! 1. **Quantize** — every point is snapped to a cell of a per-dimension
//!    uniform grid ([`RkMeans::with_bins`] cells per dimension); each
//!    occupied cell becomes one representative at the *mean* of its
//!    points, weighted by its point count. Too-coarse grids (fewer
//!    occupied cells than `k`) auto-refine by doubling the resolution.
//! 2. **Cluster** — [`WeightedKMeans`], the k-Means core with cell counts
//!    as weights, runs on the representatives, then the original points
//!    are assigned to the final centroids for the reported labels/inertia.
//!
//! With a grid fine enough that every point owns its own cell the
//! compression is lossless and the fit is **bitwise identical** to
//! [`WeightedKMeans`] with unit weights (property-tested).

use super::weighted::{WeightedKMeans, WeightedKMeansModel};
use crate::kmeans::{nearest_assignments_with, validate_input};
use crate::{CoreError, Result};
use kr_linalg::{ops, ExecCtx, Matrix};
use std::collections::HashMap;

/// Hard ceiling for the auto-refinement of the grid resolution.
const MAX_BINS: usize = 1 << 20;

/// Rk-means runner (builder style): grid compression followed by
/// weighted Lloyd iterations on the compressed set.
///
/// ```
/// use kr_core::baselines::RkMeans;
/// let data = kr_datasets::synthetic::blobs(400, 2, 4, 0.3, 7).data;
/// let model = RkMeans::new(4).with_bins(32).with_seed(1).fit(&data).unwrap();
/// assert!(model.n_representatives < 400); // the grid actually compressed
/// assert_eq!(model.labels.len(), 400);
/// ```
#[derive(Debug, Clone)]
pub struct RkMeans {
    k: usize,
    bins: usize,
    n_init: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
    exec: ExecCtx,
}

/// A fitted [`RkMeans`] model.
#[derive(Debug, Clone)]
pub struct RkMeansModel {
    /// Final centroids, `k x m`.
    pub centroids: Matrix,
    /// Per-**original-point** cluster assignments.
    pub labels: Vec<usize>,
    /// Unweighted inertia over the original points.
    pub inertia: f64,
    /// Weighted inertia of the compressed fit (the objective Rk-means
    /// actually optimizes).
    pub compressed_inertia: f64,
    /// Number of weighted representatives the grid produced.
    pub n_representatives: usize,
    /// Grid resolution actually used after auto-refinement.
    pub bins_used: usize,
    /// Lloyd iterations executed by the best restart.
    pub n_iter: usize,
}

impl RkMeans {
    /// Creates a runner for `k` clusters with 32 grid cells per
    /// dimension and [`WeightedKMeans`]'s defaults for the Lloyd phase.
    pub fn new(k: usize) -> Self {
        RkMeans {
            k,
            bins: 32,
            n_init: 20,
            max_iter: 200,
            tol: 1e-4,
            seed: 0,
            exec: ExecCtx::serial(),
        }
    }

    /// Sets the grid resolution (cells per dimension, at least 1). Finer
    /// grids compress less but approximate better; a grid with one point
    /// per cell makes Rk-means exactly weighted k-Means.
    pub fn with_bins(mut self, bins: usize) -> Self {
        self.bins = bins.max(1);
        self
    }

    /// Sets the number of random restarts of the Lloyd phase.
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

    /// Sets the execution context used by the Lloyd phase and the final
    /// full-data assignment.
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// Runs grid compression + weighted k-Means, returning the model
    /// evaluated on the original points.
    pub fn fit(&self, data: &Matrix) -> Result<RkMeansModel> {
        validate_input(data, self.k)?;
        let (compressed, bins_used) = self.compress(data)?;
        let wmodel: WeightedKMeansModel = WeightedKMeans::new(self.k)
            .with_n_init(self.n_init)
            .with_max_iter(self.max_iter)
            .with_tol(self.tol)
            .with_seed(self.seed)
            .with_exec(self.exec.clone())
            .fit(&compressed.representatives, &compressed.weights)?;
        // Evaluate on the *original* points so inertia is comparable
        // with the uncompressed baselines in Table 2 / Figure 6.
        let (labels, dmin) = nearest_assignments_with(data, &wmodel.centroids, &self.exec);
        let inertia = dmin.iter().sum();
        Ok(RkMeansModel {
            centroids: wmodel.centroids,
            labels,
            inertia,
            compressed_inertia: wmodel.inertia,
            n_representatives: compressed.representatives.nrows(),
            bins_used,
            n_iter: wmodel.n_iter,
        })
    }

    /// Quantizes `data` onto the grid, doubling the resolution until at
    /// least `k` cells are occupied (or the data has fewer than `k`
    /// distinct rows, which is a genuine [`CoreError::TooFewPoints`]).
    fn compress(&self, data: &Matrix) -> Result<(GridSummary, usize)> {
        let mut bins = self.bins;
        loop {
            let summary = grid_compress(data, bins);
            if summary.representatives.nrows() >= self.k {
                return Ok((summary, bins));
            }
            if bins >= MAX_BINS {
                return Err(CoreError::TooFewPoints {
                    available: summary.representatives.nrows(),
                    required: self.k,
                });
            }
            bins = (bins * 2).min(MAX_BINS);
        }
    }
}

/// The output of [`grid_compress`]: weighted representatives in
/// first-occurrence order of their grid cells.
#[derive(Debug, Clone)]
pub struct GridSummary {
    /// One representative per occupied cell (the mean of its points).
    pub representatives: Matrix,
    /// Point count of each cell, as `f64` weights.
    pub weights: Vec<f64>,
}

/// Snaps every row of `data` onto a uniform grid with `bins` cells per
/// dimension and aggregates each occupied cell into a weighted
/// representative (cell mean, weight = point count).
///
/// Representatives are ordered by **first occurrence** of their cell in
/// row order and accumulated serially in row order, so the output is a
/// pure function of `(data, bins)` — independent of any thread budget.
/// Constant dimensions map to a single cell.
pub fn grid_compress(data: &Matrix, bins: usize) -> GridSummary {
    let m = data.ncols();
    let bins = bins.max(1);
    // Per-dimension ranges.
    let mut lo = vec![f64::INFINITY; m];
    let mut hi = vec![f64::NEG_INFINITY; m];
    for row in data.rows_iter() {
        for (j, &v) in row.iter().enumerate() {
            lo[j] = lo[j].min(v);
            hi[j] = hi[j].max(v);
        }
    }
    let inv_width: Vec<f64> = lo
        .iter()
        .zip(&hi)
        .map(|(&l, &h)| if h > l { bins as f64 / (h - l) } else { 0.0 })
        .collect();
    let mut cells: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut sums: Vec<Vec<f64>> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut key = vec![0u32; m];
    for row in data.rows_iter() {
        for (j, &v) in row.iter().enumerate() {
            let cell = ((v - lo[j]) * inv_width[j]) as usize;
            key[j] = cell.min(bins - 1) as u32;
        }
        let slot = match cells.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = sums.len();
                cells.insert(key.clone(), slot);
                sums.push(vec![0.0; m]);
                counts.push(0);
                slot
            }
        };
        ops::add_assign(&mut sums[slot], row);
        counts[slot] += 1;
    }
    let mut representatives = Matrix::zeros(sums.len(), m);
    let mut weights = Vec::with_capacity(sums.len());
    for (slot, (sum, &count)) in sums.iter().zip(&counts).enumerate() {
        let inv = 1.0 / count as f64;
        for (out, &s) in representatives.row_mut(slot).iter_mut().zip(sum) {
            *out = s * inv;
        }
        weights.push(count as f64);
    }
    GridSummary {
        representatives,
        weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 * 0.01;
            rows.push(vec![0.0 + j, 0.0 - j]);
            rows.push(vec![10.0 + j, 10.0 - j]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn grid_compress_preserves_mass_and_mean() {
        let data = two_blobs();
        let summary = grid_compress(&data, 8);
        assert!(summary.representatives.nrows() <= data.nrows());
        assert_eq!(
            summary.weights.iter().sum::<f64>() as usize,
            data.nrows(),
            "total weight must equal the point count"
        );
        // The weighted mean of the representatives is the data mean.
        let total: f64 = summary.weights.iter().sum();
        let mut wmean = vec![0.0; data.ncols()];
        for (rep, &w) in summary.representatives.rows_iter().zip(&summary.weights) {
            ops::axpy(&mut wmean, w / total, rep);
        }
        for (a, b) in wmean.iter().zip(data.col_means()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn coarse_grid_collapses_each_blob() {
        let data = two_blobs();
        // 2 cells per dimension: each tight blob lands in one cell.
        let summary = grid_compress(&data, 2);
        assert_eq!(summary.representatives.nrows(), 2);
        assert_eq!(summary.weights, vec![20.0, 20.0]);
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let model = RkMeans::new(2)
            .with_bins(16)
            .with_seed(3)
            .fit(&data)
            .unwrap();
        assert!(model.inertia < 0.1, "inertia {}", model.inertia);
        for pair in model.labels.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn too_coarse_grid_auto_refines() {
        let data = two_blobs();
        // bins = 1 puts everything in one cell; k = 2 forces refinement.
        let model = RkMeans::new(2)
            .with_bins(1)
            .with_seed(0)
            .fit(&data)
            .unwrap();
        assert!(model.bins_used > 1);
        assert!(model.n_representatives >= 2);
        assert!(model.inertia < 0.5);
    }

    #[test]
    fn fewer_distinct_points_than_k_errors() {
        let mut rows = Vec::new();
        for _ in 0..10 {
            rows.push(vec![1.0, 2.0]);
        }
        rows.push(vec![3.0, 4.0]);
        let data = Matrix::from_rows(&rows).unwrap();
        assert!(matches!(
            RkMeans::new(3).fit(&data),
            Err(CoreError::TooFewPoints {
                available: 2,
                required: 3
            })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        let data = Matrix::zeros(0, 0);
        assert!(matches!(
            RkMeans::new(2).fit(&data),
            Err(CoreError::EmptyInput)
        ));
        let data = Matrix::zeros(3, 2);
        assert!(matches!(
            RkMeans::new(5).fit(&data),
            Err(CoreError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs();
        let a = RkMeans::new(2).with_seed(42).fit(&data).unwrap();
        let b = RkMeans::new(2).with_seed(42).fit(&data).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    }

    #[test]
    fn exec_determinism_pool_1_2_8_workers() {
        use kr_linalg::ThreadPool;
        use std::sync::Arc;
        let data = two_blobs();
        let reference = RkMeans::new(2)
            .with_bins(16)
            .with_seed(7)
            .fit(&data)
            .unwrap();
        for workers in [1usize, 2, 8] {
            let pool = Arc::new(ThreadPool::new(workers));
            let exec = ExecCtx::threaded(workers + 1).with_pool(Arc::clone(&pool));
            let model = RkMeans::new(2)
                .with_bins(16)
                .with_seed(7)
                .with_exec(exec)
                .fit(&data)
                .unwrap();
            assert_eq!(model.labels, reference.labels, "workers={workers}");
            assert_eq!(model.centroids, reference.centroids);
            assert_eq!(model.inertia.to_bits(), reference.inertia.to_bits());
            assert_eq!(
                model.compressed_inertia.to_bits(),
                reference.compressed_inertia.to_bits()
            );
        }
    }
}

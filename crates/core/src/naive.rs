//! The naïve two-phase approach to Khatri-Rao clustering (Section 5).
//!
//! Phase 1 runs standard k-Means with `∏ h_l` clusters. Phase 2
//! post-processes the resulting centroid grid into protocentroid sets by
//! coordinate descent with the closed-form updates of Eq. 8 (each
//! centroid contributes with unit weight). Points are finally re-assigned
//! to the aggregated (approximate) centroids.
//!
//! The paper shows this decoupling can destroy the accuracy of the
//! phase-1 summary when the free centroids are far from any Khatri-Rao
//! structure — which is why Khatri-Rao-k-Means optimizes both jointly.

use crate::aggregator::Aggregator;
use crate::kmeans::{nearest_assignments_with, KMeans};
use crate::kr_kmeans::prop61_update_from_stats;
use crate::operator::{aggregate_tuple_into, khatri_rao, CentroidIndexer};
use crate::{CoreError, Result};
use kr_linalg::{ops, ExecCtx, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Phase-2 SSE tolerance (Appendix B).
const DECOMP_TOL: f64 = 1e-4;

/// Configuration for the naïve two-phase baseline.
#[derive(Debug, Clone)]
pub struct NaiveKr {
    hs: Vec<usize>,
    aggregator: Aggregator,
    kmeans_n_init: usize,
    decomp_max_iter: usize,
    seed: u64,
    exec: ExecCtx,
}

/// A fitted naïve two-phase model.
#[derive(Debug, Clone)]
pub struct NaiveKrModel {
    /// Decomposed protocentroid sets.
    pub protocentroids: Vec<Matrix>,
    /// Flat centroid assignment per point (against aggregated centroids).
    pub labels: Vec<usize>,
    /// Inertia of the final (aggregated-centroid) summary.
    pub inertia: f64,
    /// Inertia of the unconstrained phase-1 k-Means solution.
    pub phase1_inertia: f64,
    /// Final sum of squared errors between phase-1 centroids and their
    /// Khatri-Rao approximation (the phase-2 objective).
    pub decomposition_sse: f64,
    /// Aggregator used.
    pub aggregator: Aggregator,
}

impl NaiveKrModel {
    /// Materializes the aggregated centroid grid.
    pub fn centroids(&self) -> Matrix {
        khatri_rao(&self.protocentroids, self.aggregator).expect("validated sets")
    }
}

impl NaiveKr {
    /// Creates a runner with Appendix B defaults: product aggregator in
    /// the paper's experiments (set explicitly here), 5000 coordinate-
    /// descent iterations max, tolerance `1e-4`.
    pub fn new(hs: Vec<usize>) -> Self {
        NaiveKr {
            hs,
            aggregator: Aggregator::Product,
            kmeans_n_init: 10,
            decomp_max_iter: 5000,
            seed: 0,
            exec: ExecCtx::serial(),
        }
    }

    /// Sets the aggregator.
    pub fn with_aggregator(mut self, agg: Aggregator) -> Self {
        self.aggregator = agg;
        self
    }

    /// Sets phase-1 k-Means restarts.
    pub fn with_kmeans_n_init(mut self, n: usize) -> Self {
        self.kmeans_n_init = n.max(1);
        self
    }

    /// Sets the phase-2 iteration cap.
    pub fn with_decomp_max_iter(mut self, n: usize) -> Self {
        self.decomp_max_iter = n.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution context used by phase 1 and the final
    /// assignment (results are identical at any thread count).
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// Runs both phases.
    pub fn fit(&self, data: &Matrix) -> Result<NaiveKrModel> {
        if self.hs.is_empty() || self.hs.contains(&0) {
            return Err(CoreError::InvalidConfig("set sizes must be >= 1".into()));
        }
        let indexer = CentroidIndexer::new(self.hs.clone());
        let k = indexer.n_centroids();
        // Phase 1: unconstrained k-Means with the full cluster count.
        let km = KMeans::new(k)
            .with_n_init(self.kmeans_n_init)
            .with_seed(self.seed)
            .with_exec(self.exec.clone())
            .fit(data)?;
        // Phase 2: factor the centroid grid.
        let (sets, sse) = decompose_centroids(
            &km.centroids,
            &self.hs,
            self.aggregator,
            self.decomp_max_iter,
            DECOMP_TOL,
            self.seed ^ 0x9E37_79B9,
        );
        // Final assignment against the aggregated approximation.
        let centroids = khatri_rao(&sets, self.aggregator).expect("validated");
        let (labels, dmin) = nearest_assignments_with(data, &centroids, &self.exec);
        Ok(NaiveKrModel {
            protocentroids: sets,
            labels,
            inertia: dmin.iter().sum(),
            phase1_inertia: km.inertia,
            decomposition_sse: sse,
            aggregator: self.aggregator,
        })
    }
}

/// Coordinate descent factoring a `(∏ h_l) x m` centroid grid into
/// protocentroid sets under `⊕`, minimizing
/// `Σ_i ||μ_i - θ_1^{j_1} ⊕ … ⊕ θ_p^{j_p}||²` (Section 5, Eq. 8).
///
/// Returns the sets and the final SSE.
pub fn decompose_centroids(
    centroids: &Matrix,
    hs: &[usize],
    agg: Aggregator,
    max_iter: usize,
    tol: f64,
    seed: u64,
) -> (Vec<Matrix>, f64) {
    let indexer = CentroidIndexer::new(hs.to_vec());
    assert_eq!(
        indexer.n_centroids(),
        centroids.nrows(),
        "grid size mismatch"
    );
    let m = centroids.ncols();
    let mut rng = StdRng::seed_from_u64(seed);
    // Initialize each protocentroid from a random centroid row, scaled so
    // aggregations start at centroid scale.
    let p = hs.len();
    let mut sets: Vec<Matrix> = hs
        .iter()
        .map(|&h| {
            let mut s = Matrix::zeros(h, m);
            for j in 0..h {
                let src = centroids.row(rng.gen_range(0..centroids.nrows()));
                for (d, &v) in s.row_mut(j).iter_mut().zip(src.iter()) {
                    *d = agg.split_share(v, p);
                }
            }
            s
        })
        .collect();

    // Eq. 8 is Proposition 6.1 with every grid row a cluster of weight
    // one: its centroid is the cluster sum.
    let ones = vec![1usize; centroids.nrows()];
    let mut sse = f64::INFINITY;
    for _ in 0..max_iter {
        prop61_update_from_stats(centroids, &ones, &mut sets, agg);
        let new_sse = decomposition_sse(centroids, &sets, &indexer, agg);
        if (sse - new_sse).abs() < tol || new_sse < tol {
            sse = new_sse;
            break;
        }
        sse = new_sse;
    }
    (sets, sse)
}

/// SSE between a centroid grid and the aggregation of `sets`.
pub fn decomposition_sse(
    centroids: &Matrix,
    sets: &[Matrix],
    indexer: &CentroidIndexer,
    agg: Aggregator,
) -> f64 {
    let mut mu = vec![0.0f64; centroids.ncols()];
    let mut total = 0.0;
    indexer.for_each_tuple(|flat, tuple| {
        aggregate_tuple_into(&mut mu, sets, tuple, agg);
        total += ops::sqdist(&mu, centroids.row(flat));
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::khatri_rao;
    use kr_datasets::synthetic::{kr_structured, StructureKind};

    #[test]
    fn decomposition_recovers_exact_structure() {
        // A grid that *is* a Khatri-Rao aggregation decomposes to ~0 SSE.
        for (agg, kind) in [
            (Aggregator::Sum, StructureKind::Additive),
            (Aggregator::Product, StructureKind::Multiplicative),
        ] {
            let (_, t1, t2) = kr_structured(3, 2, 1, 0.0, kind, 3);
            let grid = khatri_rao(&[t1, t2], agg).unwrap();
            let (_, sse) = decompose_centroids(&grid, &[3, 2], agg, 5000, 1e-10, 1);
            assert!(sse < 1e-6, "{agg:?}: sse {sse}");
        }
    }

    #[test]
    fn decomposition_of_unstructured_grid_has_residual() {
        // A random grid generally admits no exact rank-style factorization.
        let mut rng = StdRng::seed_from_u64(7);
        let grid = Matrix::from_fn(9, 4, |_, _| rng.gen_range(-5.0..5.0));
        let (_, sse) = decompose_centroids(&grid, &[3, 3], Aggregator::Sum, 2000, 1e-12, 2);
        assert!(sse > 1e-3, "unexpectedly perfect factorization: {sse}");
    }

    #[test]
    fn decomposition_sse_monotone_in_iterations() {
        let mut rng = StdRng::seed_from_u64(8);
        let grid = Matrix::from_fn(12, 3, |_, _| rng.gen_range(0.1..4.0));
        let mut last = f64::INFINITY;
        for iters in [1usize, 5, 25, 125] {
            let (_, sse) = decompose_centroids(&grid, &[4, 3], Aggregator::Product, iters, 0.0, 3);
            assert!(sse <= last + 1e-9, "iters={iters}: {sse} > {last}");
            last = sse;
        }
    }

    #[test]
    fn naive_end_to_end_on_structured_data() {
        let (ds, _, _) = kr_structured(3, 2, 30, 0.05, StructureKind::Multiplicative, 4);
        let model = NaiveKr::new(vec![3, 2]).with_seed(5).fit(&ds.data).unwrap();
        assert!(model.inertia.is_finite());
        assert_eq!(model.labels.len(), ds.data.nrows());
        // Phase-1 inertia is an unconstrained lower bound here.
        assert!(model.phase1_inertia <= model.inertia + 1e-9);
    }

    #[test]
    fn naive_rejects_bad_config() {
        let data = Matrix::zeros(10, 2);
        assert!(NaiveKr::new(vec![]).fit(&data).is_err());
        assert!(NaiveKr::new(vec![0, 2]).fit(&data).is_err());
    }
}

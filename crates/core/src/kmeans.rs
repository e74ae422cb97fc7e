//! Standard k-Means (Lloyd's algorithm), with optional point weights.
//!
//! Every k-Means fit in the workspace runs one Lloyd core: [`KMeans`]
//! and [`WeightedKMeans`](crate::baselines::WeightedKMeans) share the
//! restart loop, the chunked sum reduction (`UPDATE_CHUNK`), the
//! k-means++ seeder and the closed-form update [`mean_update`], which the
//! federated k-Means server also runs on its clients' statistics. Point
//! weights enter in three places: the seeder draws ∝ `wᵢ`, then
//! ∝ `wᵢ·D²(xᵢ)`; the update takes `Σ wᵢxᵢ / Σ wᵢ`; the objective sums
//! `wᵢ·dᵢ`. Unit weights give the update and the objective the bits of
//! an unweighted fit (`1.0·x` rounds like `x`, and a sum of 1.0s equals
//! the count).
//!
//! The seeder makes one pass over the points per seed. Each point's
//! distance to the new seed updates its D², its label and its runner-up
//! in the assignment engine's rows, in the exhaustive scan's order, and
//! the same pass sums the next draw's masses. After the last seed the
//! rows are the exhaustive first assignment, which the engine takes over
//! (`AssignEngine::seed_dense`), so the restart's first Lloyd pass
//! checks each point's label with one distance instead of scanning all
//! `n × k` pairs.
//!
//! The core mirrors [`crate::kr_kmeans`] — same distance kernel, same
//! restart logic, same empty-cluster handling — so the scalability
//! comparison of Figure 8 measures the Khatri-Rao machinery rather than
//! incidental implementation differences (paper Appendix B). One core
//! keeps that true for the k-Means runs inside other methods: the KR
//! warm start, Rk-means' weighted phase and the coreset tree's
//! compressions run the baseline's own code.

use crate::assign::{AssignEngine, DistRow, PruneStats};
use crate::{CoreError, Result};
use kr_linalg::{ops, parallel, ExecCtx, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed chunk width for the parallel partial-sum reductions of the
/// update step. A pure constant (never derived from the thread budget)
/// so the partial merge order — and therefore every last bit of the
/// result — is identical at any `ExecCtx` thread count. Inputs no larger
/// than one chunk reduce serially in point order.
pub(crate) const UPDATE_CHUNK: usize = 8192;

/// Centroid initialization strategy for k-Means.
#[derive(Debug, Clone, Default)]
pub enum KMeansInit {
    /// Sample `k` distinct data points uniformly at random.
    Random,
    /// k-means++ D²-weighted seeding (Arthur & Vassilvitskii 2007).
    #[default]
    PlusPlus,
    /// Warm start from the given `k x m` centroids (e.g. to refine a
    /// Khatri-Rao solution without the structural constraint).
    FromCentroids(Matrix),
}

/// Configurable k-Means runner (builder style).
///
/// ```
/// use kr_core::kmeans::KMeans;
/// let data = kr_datasets::synthetic::blobs(200, 2, 4, 0.3, 0).data;
/// let model = KMeans::new(4).with_seed(1).with_n_init(5).fit(&data).unwrap();
/// assert_eq!(model.centroids.nrows(), 4);
/// assert_eq!(model.labels.len(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    pub(crate) k: usize,
    init: KMeansInit,
    n_init: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
    exec: ExecCtx,
}

/// A fitted k-Means model.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// Final centroids, `k x m`.
    pub centroids: Matrix,
    /// Per-point cluster assignments.
    pub labels: Vec<usize>,
    /// Objective of the returned labels and centroids: the sum over
    /// points, in point order, of the squared distance `dᵢ` to the
    /// assigned centroid. Weighted fits sum `wᵢ·dᵢ`.
    pub inertia: f64,
    /// Iterations executed by the best restart.
    pub n_iter: usize,
    /// Distance-evaluation pruning counters accumulated over the whole
    /// fit (all restarts). Telemetry only — never part of the bitwise
    /// determinism contract. Point weights scale the update step, not
    /// the geometry, so assignment pruning applies unchanged.
    pub prune_stats: PruneStats,
}

impl KMeans {
    /// Creates a runner for `k` clusters with the paper's defaults:
    /// k-means++ init, 20 restarts, 200 iterations, tolerance `1e-4`.
    pub fn new(k: usize) -> Self {
        KMeans {
            k,
            init: KMeansInit::PlusPlus,
            n_init: 20,
            max_iter: 200,
            tol: 1e-4,
            seed: 0,
            exec: ExecCtx::serial(),
        }
    }

    /// Sets the initialization strategy.
    pub fn with_init(mut self, init: KMeansInit) -> Self {
        self.init = init;
        self
    }

    /// Sets the number of random restarts (best inertia wins).
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

    /// Sets the execution context (thread budget, pool handle, kernel
    /// and pruning modes) used by the assignment and update steps.
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// Runs k-Means, returning the best model over all restarts.
    pub fn fit(&self, data: &Matrix) -> Result<KMeansModel> {
        validate_input(data, self.k)?;
        if let KMeansInit::FromCentroids(c) = &self.init {
            if c.shape() != (self.k, data.ncols()) {
                return Err(CoreError::InvalidConfig(format!(
                    "warm-start centroids must be {}x{}, got {}x{}",
                    self.k,
                    data.ncols(),
                    c.nrows(),
                    c.ncols()
                )));
            }
        }
        Ok(self.lloyd(data, None))
    }

    /// The Lloyd core: `n_init` restarts drawing from one seeded RNG,
    /// lowest objective wins. `data` (and `weights`, one non-negative
    /// weight per row when given) must already be validated.
    pub(crate) fn lloyd(&self, data: &Matrix, weights: Option<&[f64]>) -> KMeansModel {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // One bounds-gated engine reused across all restarts: its point
        // caches survive the whole fit and its per-restart state buffers
        // recycle through the Scratch arena, so steady-state restarts
        // allocate nothing. Weights never enter the distance geometry.
        let mut engine = AssignEngine::new(&self.exec);
        engine.begin_fit(data);
        let mut best: Option<KMeansModel> = None;
        for _ in 0..self.n_init {
            let model = self.fit_once(data, weights, &mut rng, &mut engine);
            if best.as_ref().is_none_or(|b| model.inertia < b.inertia) {
                best = Some(model);
            }
        }
        let mut best = best.expect("n_init >= 1");
        best.prune_stats = engine.take_stats();
        best
    }

    fn fit_once(
        &self,
        data: &Matrix,
        weights: Option<&[f64]>,
        rng: &mut StdRng,
        engine: &mut AssignEngine,
    ) -> KMeansModel {
        let n = data.nrows();
        engine.begin_restart();
        let mut centroids = {
            let _seed = kr_obs::span!("kmeans.seed", "k" => self.k);
            match &self.init {
                KMeansInit::Random => sample_rows(data, self.k, rng),
                // The seeder's rows are the first assignment: the engine
                // adopts them, so the first pass gates instead of scanning.
                KMeansInit::PlusPlus => engine.seed_dense(self.k, |rows| {
                    plus_plus_seed(data, weights, self.k, rng, rows)
                }),
                KMeansInit::FromCentroids(c) => c.clone(),
            }
        };
        let _lloyd = kr_obs::span!("kmeans.lloyd", "k" => self.k);
        let mut labels = vec![0usize; n];
        let mut dmin = vec![0.0f64; n];
        let mut n_iter = 0;
        // Do `labels`/`dmin` reflect the current centroids exactly? Set
        // whenever an update pass leaves every centroid untouched, so the
        // post-loop re-assignment can be skipped (it would recompute the
        // identical labels).
        let mut assignments_fresh = false;
        for it in 0..self.max_iter {
            n_iter = it + 1;
            engine.assign_dense(data, &centroids, &mut labels, &mut dmin);
            let (sums, totals) = cluster_sums(data, weights, &labels, self.k, &self.exec);
            let movement = mean_update(&mut centroids, &sums, &totals, |row| {
                // Empty (or zero-weight) cluster: reseed to a random data
                // point (Appendix B's policy, shared with KR-k-Means).
                let pick = data.row(rng.gen_range(0..n));
                let moved = ops::sqdist(row, pick);
                row.copy_from_slice(pick);
                moved
            });
            assignments_fresh = movement == 0.0;
            if movement < self.tol {
                break;
            }
        }
        // Final assignment against the converged centroids — skipped when
        // the last update moved nothing, in which case the loop's own
        // assignment is already exact. Either way the reported inertia is
        // the objective of the returned labels and centroids, even when a
        // final-iteration reseed made it worse.
        if !assignments_fresh {
            engine.assign_dense(data, &centroids, &mut labels, &mut dmin);
        }
        let inertia = match weights {
            None => dmin.iter().sum(),
            Some(w) => dmin.iter().zip(w).map(|(&d, &w)| w * d).sum(),
        };
        KMeansModel {
            centroids,
            labels,
            inertia,
            n_iter,
            prune_stats: PruneStats::default(),
        }
    }
}

/// The closed-form k-Means mean update every k-Means path runs: each
/// cluster `c` with a positive total (member count or total weight)
/// moves to `sums[c] · (1 / totals[c])`; `on_empty` rewrites every other
/// row and returns its squared move. Returns the total squared movement,
/// summed in cluster order. Fits reseed empty clusters; the federated
/// k-Means server, which holds no raw data, keeps them.
pub fn mean_update(
    centroids: &mut Matrix,
    sums: &Matrix,
    totals: &[f64],
    mut on_empty: impl FnMut(&mut [f64]) -> f64,
) -> f64 {
    let mut movement = 0.0;
    for (c, &total) in totals.iter().enumerate() {
        let row = centroids.row_mut(c);
        if total <= 0.0 {
            movement += on_empty(row);
            continue;
        }
        let inv = 1.0 / total;
        let mut delta = 0.0;
        for (cv, &sv) in row.iter_mut().zip(sums.row(c)) {
            let nv = sv * inv;
            let d = nv - *cv;
            delta += d * d;
            *cv = nv;
        }
        movement += delta;
    }
    movement
}

/// The nearest row of `centroids` to `x` and its squared distance: the
/// lowest-index strict-`<` argmin of `ops::sqdist(x, c)`, `(0, +∞)` for
/// no rows. This is the workspace's one exact distance kernel (see
/// [`crate::assign`]); `kr_metrics::inertia` sums the same bits.
pub fn nearest_centroid(x: &[f64], centroids: &Matrix) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, crow) in centroids.rows_iter().enumerate() {
        let d = ops::sqdist(x, crow);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Nearest-centroid assignment as a public building block: returns one
/// [`nearest_centroid`] `(label, squared distance)` pair per row of
/// `data`, computed chunk-parallel on `exec`'s pool. Per-point work is
/// independent of the chunk split, so results are bitwise identical at
/// any thread count — the property the streaming summarizers
/// (`kr-stream`) build their determinism contracts on.
///
/// # Panics
/// Panics when `data` and `centroids` disagree on the feature dimension
/// or `centroids` is empty.
pub fn nearest_assignments_with(
    data: &Matrix,
    centroids: &Matrix,
    exec: &ExecCtx,
) -> (Vec<usize>, Vec<f64>) {
    assert!(centroids.nrows() > 0, "need at least one centroid");
    assert_eq!(
        data.ncols(),
        centroids.ncols(),
        "feature dimension mismatch"
    );
    let n = data.nrows();
    let mut labels = vec![0usize; n];
    let mut dmin = vec![0.0f64; n];
    crate::assign::exhaustive_dense(data, centroids, &mut labels, &mut dmin, exec, None);
    (labels, dmin)
}

/// Per-cluster coordinate sums (`k x m`) and totals: member counts, or
/// with `weights` the sums `Σ wᵢ xᵢ` and total weights. Accumulated in
/// parallel as fixed-size chunk partials merged in ascending chunk
/// order. The geometry ([`UPDATE_CHUNK`]) never depends on the thread
/// budget, so the summation order — hence the result, bitwise — is the
/// same for every `ExecCtx`; inputs within one chunk accumulate in plain
/// point order.
pub(crate) fn cluster_sums(
    data: &Matrix,
    weights: Option<&[f64]>,
    labels: &[usize],
    k: usize,
    exec: &ExecCtx,
) -> (Matrix, Vec<f64>) {
    let zeros = || (Matrix::zeros(k, data.ncols()), vec![0.0f64; k]);
    let partials = parallel::reduce_chunks(
        exec,
        data.nrows(),
        UPDATE_CHUNK,
        zeros,
        |(sums, totals), start, end| {
            for (i, &l) in (start..end).zip(&labels[start..end]) {
                match weights {
                    None => {
                        ops::add_assign(sums.row_mut(l), data.row(i));
                        totals[l] += 1.0;
                    }
                    Some(w) => {
                        ops::axpy(sums.row_mut(l), w[i], data.row(i));
                        totals[l] += w[i];
                    }
                }
            }
        },
    );
    let mut iter = partials.into_iter();
    let (mut sums, mut totals) = iter.next().unwrap_or_else(zeros);
    for (psums, ptotals) in iter {
        ops::add_assign(sums.as_mut_slice(), psums.as_slice());
        ops::add_assign(&mut totals, &ptotals);
    }
    (sums, totals)
}

/// Samples `k` distinct rows uniformly at random.
pub(crate) fn sample_rows(data: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = data.nrows();
    let mut indices: Vec<usize> = Vec::with_capacity(k);
    if k <= n {
        let mut chosen = std::collections::HashSet::new();
        while indices.len() < k {
            let i = rng.gen_range(0..n);
            if chosen.insert(i) {
                indices.push(i);
            }
        }
    } else {
        unreachable!("validated k <= n");
    }
    data.select_rows(&indices)
}

/// k-means++ seeds for a caller that keeps no assignment (NNK-Means'
/// atoms, the KR++ protocentroid sets): [`plus_plus_seed`] on rows of its
/// own.
pub(crate) fn plus_plus_init(data: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let mut rows = vec![DistRow::default(); data.nrows()];
    plus_plus_seed(data, None, k, rng, &mut rows)
}

/// k-means++ D²-weighted seeding (Arthur & Vassilvitskii 2007). The
/// first seed is a uniform draw, each later one a draw ∝ `D²(xᵢ)`; with
/// `weights`, the draws are ∝ `wᵢ` and ∝ `wᵢ·D²(xᵢ)`. Returns the `k`
/// seeds, copies of data rows.
///
/// One pass per seed: each point's distance to the new seed goes into
/// its row of `rows` ([`DistRow::offer_seed`]), which updates its D², its
/// label and its runner-up, and the same loop sums the next draw's
/// masses in point order, the fold `Iterator::sum` makes. So the rows end
/// as the exhaustive assignment against the seeds, which
/// [`AssignEngine::seed_dense`] hands to the first Lloyd pass.
pub(crate) fn plus_plus_seed(
    data: &Matrix,
    weights: Option<&[f64]>,
    k: usize,
    rng: &mut StdRng,
    rows: &mut [DistRow],
) -> Matrix {
    let n = data.nrows();
    let mut seeds = Matrix::zeros(k, data.ncols());
    let mut total = 0.0;
    for c in 0..k {
        let pick = match (c, weights) {
            (0, None) => rng.gen_range(0..n),
            (0, Some(w)) => draw(w.iter().sum(), n, |i| w[i], rng),
            (_, None) => draw(total, n, |i| rows[i].dist(), rng),
            (_, Some(w)) => draw(total, n, |i| w[i] * rows[i].dist(), rng),
        };
        let seed = data.row(pick);
        seeds.row_mut(c).copy_from_slice(seed);
        // `Iterator::sum` folds from −0.0. The weight match stays out of
        // the loop, which measured 15% faster than a match per point.
        total = -0.0;
        let points = data.rows_iter().zip(rows.iter_mut());
        match weights {
            None => {
                for (x, row) in points {
                    row.offer_seed(c, ops::sqdist(x, seed));
                    total += row.dist();
                }
            }
            Some(w) => {
                for ((x, row), &w) in points.zip(w) {
                    row.offer_seed(c, ops::sqdist(x, seed));
                    total += w * row.dist();
                }
            }
        }
    }
    seeds
}

/// Draws an index below `n` with probability ∝ `mass(i)`, walking the
/// masses in index order; `total` is their sum in index order. A total
/// that is not positive (every mass zero, or a NaN) falls back to a
/// uniform draw.
fn draw(total: f64, n: usize, mass: impl Fn(usize) -> f64, rng: &mut StdRng) -> usize {
    if total > 0.0 {
        let mut target = rng.gen_range(0.0..total);
        for i in 0..n {
            let w = mass(i);
            if target < w {
                return i;
            }
            target -= w;
        }
        n - 1
    } else {
        rng.gen_range(0..n)
    }
}

pub(crate) fn validate_input(data: &Matrix, required_points: usize) -> Result<()> {
    if data.nrows() == 0 || data.ncols() == 0 {
        return Err(CoreError::EmptyInput);
    }
    if !data.all_finite() {
        return Err(CoreError::NonFiniteInput);
    }
    if required_points == 0 {
        return Err(CoreError::InvalidConfig("k must be >= 1".into()));
    }
    if data.nrows() < required_points {
        return Err(CoreError::TooFewPoints {
            available: data.nrows(),
            required: required_points,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::exhaustive_dense;
    use rand::RngCore;

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
    fn separates_two_blobs() {
        let data = two_blobs();
        let model = KMeans::new(2).with_seed(3).fit(&data).unwrap();
        assert!(model.inertia < 0.1, "inertia {}", model.inertia);
        // Points alternate blob membership by construction.
        for pair in model.labels.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 1.0]]).unwrap();
        let model = KMeans::new(3).with_seed(0).fit(&data).unwrap();
        assert!(model.inertia < 1e-20);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let data = two_blobs();
        let model = KMeans::new(1).with_seed(0).fit(&data).unwrap();
        let means = data.col_means();
        for (a, b) in model.centroids.row(0).iter().zip(means.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let data = Matrix::zeros(0, 0);
        assert!(matches!(
            KMeans::new(2).fit(&data),
            Err(CoreError::EmptyInput)
        ));
        let data = Matrix::zeros(3, 2);
        assert!(matches!(
            KMeans::new(5).fit(&data),
            Err(CoreError::TooFewPoints { .. })
        ));
        let mut data = Matrix::zeros(5, 2);
        data.set(0, 0, f64::NAN);
        assert!(matches!(
            KMeans::new(2).fit(&data),
            Err(CoreError::NonFiniteInput)
        ));
        let data = Matrix::zeros(5, 2);
        assert!(matches!(
            KMeans::new(0).fit(&data),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs();
        let a = KMeans::new(2).with_seed(42).fit(&data).unwrap();
        let b = KMeans::new(2).with_seed(42).fit(&data).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn threads_do_not_change_result() {
        let data = two_blobs();
        let a = KMeans::new(2)
            .with_seed(7)
            .with_exec(ExecCtx::threaded(1))
            .fit(&data)
            .unwrap();
        let b = KMeans::new(2)
            .with_seed(7)
            .with_exec(ExecCtx::threaded(4))
            .fit(&data)
            .unwrap();
        assert_eq!(a.labels, b.labels);
        assert!((a.inertia - b.inertia).abs() < 1e-9);
    }

    #[test]
    fn exec_determinism_pool_1_2_8_workers() {
        use kr_linalg::ThreadPool;
        use std::sync::Arc;
        let data = two_blobs();
        let reference = KMeans::new(2).with_seed(7).fit(&data).unwrap();
        for workers in [1usize, 2, 8] {
            let pool = Arc::new(ThreadPool::new(workers));
            let exec = ExecCtx::threaded(workers + 1).with_pool(Arc::clone(&pool));
            let model = KMeans::new(2)
                .with_seed(7)
                .with_exec(exec.clone())
                .fit(&data)
                .unwrap();
            assert_eq!(model.labels, reference.labels, "workers={workers}");
            assert_eq!(model.inertia.to_bits(), reference.inertia.to_bits());
            assert_eq!(model.centroids, reference.centroids);
            // The same pool backs a second fit (reuse across fits).
            let again = KMeans::new(2)
                .with_seed(7)
                .with_exec(exec)
                .fit(&data)
                .unwrap();
            assert_eq!(again.labels, reference.labels);
            assert_eq!(pool.workers(), workers);
        }
    }

    #[test]
    fn exec_determinism_cluster_sums_chunked() {
        // More points than one UPDATE_CHUNK so several partials merge.
        let n = UPDATE_CHUNK + 1234;
        let data = Matrix::from_fn(n, 3, |i, j| ((i * 7 + j) % 13) as f64 * 0.37);
        let labels: Vec<usize> = (0..n).map(|i| i % 5).collect();
        let (ref_sums, ref_counts) = cluster_sums(&data, None, &labels, 5, &ExecCtx::serial());
        assert_eq!(ref_counts.iter().sum::<f64>(), n as f64);
        for threads in [2usize, 4, 8] {
            let (sums, counts) = cluster_sums(&data, None, &labels, 5, &ExecCtx::threaded(threads));
            assert_eq!(sums, ref_sums, "threads={threads}");
            assert_eq!(counts, ref_counts, "threads={threads}");
        }
    }

    #[test]
    fn converged_fit_skips_redundant_final_assign() {
        // A run that converges with zero movement must return the same
        // model as the seed's recompute-always behavior.
        let data = two_blobs();
        let tight = KMeans::new(2)
            .with_seed(3)
            .with_max_iter(200)
            .fit(&data)
            .unwrap();
        let loose = KMeans::new(2)
            .with_seed(3)
            .with_max_iter(200)
            .with_tol(0.0)
            .fit(&data)
            .unwrap();
        // tol = 0 forces iterations until movement == 0.0 exactly, the
        // skip path; both runs land on the same fixed point.
        assert_eq!(tight.labels, loose.labels);
        assert!((tight.inertia - loose.inertia).abs() < 1e-9);
    }

    #[test]
    fn random_init_also_works() {
        let data = two_blobs();
        let model = KMeans::new(2)
            .with_init(KMeansInit::Random)
            .with_n_init(10)
            .with_seed(1)
            .fit(&data)
            .unwrap();
        assert!(model.inertia < 0.1);
    }

    #[test]
    fn more_clusters_never_hurt_inertia() {
        let data = two_blobs();
        let mut last = f64::INFINITY;
        for k in [1, 2, 4, 8] {
            let model = KMeans::new(k)
                .with_seed(5)
                .with_n_init(10)
                .fit(&data)
                .unwrap();
            assert!(model.inertia <= last + 1e-9, "k={k}");
            last = model.inertia;
        }
    }

    /// The two-pass seeder [`plus_plus_seed`] replaced, kept as its
    /// reference: a running D² vector, then per draw a mass vector walked
    /// after its `Iterator::sum`. Every draw's total goes into `totals`.
    fn plus_plus_reference(
        data: &Matrix,
        weights: Option<&[f64]>,
        k: usize,
        rng: &mut StdRng,
        totals: &mut Vec<f64>,
    ) -> Matrix {
        let n = data.nrows();
        let mut centroids = Matrix::zeros(k, data.ncols());
        let first = match weights {
            None => rng.gen_range(0..n),
            Some(w) => sample_weighted_index(w, rng, totals),
        };
        centroids.row_mut(0).copy_from_slice(data.row(first));
        let mut d2: Vec<f64> = data
            .rows_iter()
            .map(|x| ops::sqdist(x, centroids.row(0)))
            .collect();
        let mut masses = Vec::new();
        for c in 1..k {
            let pick = match weights {
                None => sample_weighted_index(&d2, rng, totals),
                Some(w) => {
                    masses.clear();
                    masses.extend(d2.iter().zip(w).map(|(&d, &w)| w * d));
                    sample_weighted_index(&masses, rng, totals)
                }
            };
            centroids.row_mut(c).copy_from_slice(data.row(pick));
            for (i, x) in data.rows_iter().enumerate() {
                let d = ops::sqdist(x, centroids.row(c));
                if d < d2[i] {
                    d2[i] = d;
                }
            }
        }
        centroids
    }

    fn sample_weighted_index(masses: &[f64], rng: &mut StdRng, totals: &mut Vec<f64>) -> usize {
        let total: f64 = masses.iter().sum();
        totals.push(total);
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

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The one-pass seeder draws bitwise the reference's seeds and leaves
    /// the RNG where it does, unweighted and with weights of 0, 2^-64 and
    /// 2^64, at every k up to n; its rows end as `exhaustive_dense`
    /// against the seeds, with the bound slot at or below the runner-up.
    /// The cases: jittered points; four distinct rows repeated, so every
    /// mass reaches zero and draws fall back to uniform; and that data
    /// ×1e154, where squared distances and draw totals overflow to +∞
    /// (the draw's target becomes 0.0) and a zero weight makes a NaN mass.
    #[test]
    fn one_pass_seeder_matches_two_pass_reference() {
        assert_eq!(
            std::iter::empty::<f64>().sum::<f64>().to_bits(),
            (-0.0f64).to_bits(),
            "Iterator::sum folds from -0.0"
        );
        let (n, m) = (12, 3);
        let jitter = Matrix::from_fn(n, m, |i, j| ((i * 7 + j * 5) % 11) as f64 * 0.3 - 1.0);
        let repeated = Matrix::from_fn(n, m, |i, j| ((i % 4) * 3 + j) as f64 - 4.0);
        let huge = Matrix::from_fn(n, m, |i, j| repeated.get(i, j) * 1e154);
        let weights: Vec<f64> = (0..n)
            .map(|i| [0.0, 1.0, 2f64.powi(-64), 2f64.powi(64), 0.5][i % 5])
            .collect();
        let exec = ExecCtx::serial();
        let (mut zero_totals, mut inf_totals) = (false, false);
        for (name, data) in [
            ("jitter", &jitter),
            ("repeated", &repeated),
            ("x1e154", &huge),
        ] {
            for w in [None, Some(weights.as_slice())] {
                for k in 1..=n {
                    for seed in 0..4 {
                        let ctx = format!("{name} weighted {} k {k} seed {seed}", w.is_some());
                        let (mut a, mut b) =
                            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                        let mut totals = Vec::new();
                        let want = plus_plus_reference(data, w, k, &mut a, &mut totals);
                        let mut rows = vec![DistRow::default(); n];
                        let got = plus_plus_seed(data, w, k, &mut b, &mut rows);
                        assert_eq!(bits(&got), bits(&want), "{ctx}: seeds");
                        assert_eq!(a.next_u64(), b.next_u64(), "{ctx}: RNG state");
                        zero_totals |= totals.contains(&0.0);
                        inf_totals |= totals.contains(&f64::INFINITY);
                        let (mut labels, mut dmin) = (vec![0usize; n], vec![0.0f64; n]);
                        exhaustive_dense(data, &got, &mut labels, &mut dmin, &exec, None);
                        for (i, row) in rows.iter().enumerate() {
                            let (label, slot) = row.parts();
                            assert_eq!(label, labels[i], "{ctx}: point {i} label");
                            assert_eq!(row.dist().to_bits(), dmin[i].to_bits(), "{ctx}: point {i}");
                            let runner = got
                                .rows_iter()
                                .enumerate()
                                .filter(|&(c, _)| c != label)
                                .map(|(_, s)| ops::sqdist(data.row(i), s))
                                .fold(f64::INFINITY, f64::min);
                            assert!(f64::from(slot) <= runner, "{ctx}: point {i} runner-up");
                        }
                    }
                }
            }
        }
        assert!(zero_totals && inf_totals, "the fallback cases were reached");
    }

    #[test]
    fn plus_plus_spreads_seeds() {
        let data = two_blobs();
        let mut rng = StdRng::seed_from_u64(11);
        let seeds = plus_plus_init(&data, 2, &mut rng);
        // The two seeds must come from different blobs.
        let d = ops::sqdist(seeds.row(0), seeds.row(1));
        assert!(d > 50.0, "seeds too close: {d}");
    }
}

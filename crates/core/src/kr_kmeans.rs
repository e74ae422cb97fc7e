//! **Khatri-Rao-k-Means** (paper Algorithm 1).
//!
//! Extends Lloyd's algorithm so that the `∏ h_l` centroids are never free
//! parameters: they are always the Khatri-Rao `⊕`-aggregation of `p`
//! small protocentroid sets. Each iteration:
//!
//! 1. **Assignment** — every point goes to the nearest aggregated
//!    centroid (computed on the fly in the memory-efficient variant, or
//!    from a materialized `k x m` buffer in the time-efficient variant;
//!    Appendix B describes both).
//! 2. **Protocentroid update** — sets are updated one at a time with the
//!    closed forms of Proposition 6.1 (each set sees the *already
//!    updated* earlier sets, exactly as in Algorithm 1 lines 16-19).
//! 3. **Convergence check** — total squared movement of the aggregated
//!    centroids below `tol`, or `max_iter` reached.
//!
//! Empty protocentroids (no point assigned to any of their combinations)
//! are reseeded to random data points (Appendix B).
//!
//! The closed forms have one implementation, which reads each cluster's
//! member count and coordinate sum. A fit builds each sum from the
//! cluster's members into one `m`-vector rather than a `k x m` block of
//! sums, which would break the memory-efficient variant's space bound.
//! The federated server, the streaming update and the naive
//! decomposition run the same code on the sums they already hold
//! ([`prop61_update_from_stats`]).
//!
//! In addition to the `n_init` random restarts, [`KrKMeans::fit`] runs one
//! deterministic **two-phase warm start**: an unconstrained k-Means
//! solution factored into protocentroid sets (Section 5's naïve
//! decomposition) and then refined by the joint loop. On data with genuine
//! Khatri-Rao structure the unconstrained basin is much easier to find
//! than the constrained one, so this candidate reliably lands the global
//! optimum that random protocentroid restarts can miss. Best inertia
//! still wins, so the extra candidate never makes a fit worse. Because
//! phase 1 materializes the full centroid grid, the warm start defaults
//! to **off** under [`KrVariant::MemoryEfficient`] (preserving its
//! `O((n + Σ h_l) m)` space bound); [`KrKMeans::with_warm_start`]
//! overrides the default either way.

use crate::aggregator::Aggregator;
use crate::assign::{AssignEngine, PruneStats};
use crate::kmeans::{validate_input, KMeans};
use crate::operator::{aggregate_tuple_into, checked_grid_size, khatri_rao, CentroidIndexer};
use crate::{CoreError, Result};
use kr_linalg::{ops, ExecCtx, Matrix, Scratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Protocentroid initialization strategy.
#[derive(Debug, Clone, Default)]
pub enum KrInit {
    /// Sample raw data points as protocentroids (Algorithm 1 lines 3-4).
    #[default]
    RandomPoints,
    /// kr++-style seeding: D²-spread data points distributed across the
    /// sets and rescaled so that aggregated centroids start at data
    /// scale (Section 6, "Initialization").
    KrPlusPlus,
    /// Start from user-provided protocentroid sets (used by the deep
    /// clustering initialization and by tests).
    FromSets(Vec<Matrix>),
}

/// Decorrelates the warm-start candidate's RNG streams from the random
/// restarts (an arbitrary odd 64-bit constant).
const WARM_START_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Memory/time trade-off of the assignment step (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KrVariant {
    /// Materialize all `∏ h_l` centroids each iteration (faster).
    #[default]
    TimeEfficient,
    /// Compute centroids on the fly, never storing more than one
    /// (`O((n + Σ h_l) m)` space, the paper's headline space bound).
    MemoryEfficient,
}

/// Configurable Khatri-Rao-k-Means runner (builder style).
///
/// ```
/// use kr_core::kr_kmeans::KrKMeans;
/// use kr_core::aggregator::Aggregator;
/// let data = kr_datasets::synthetic::blobs(300, 2, 9, 0.4, 3).data;
/// let model = KrKMeans::new(vec![3, 3])
///     .with_aggregator(Aggregator::Sum)
///     .with_seed(1)
///     .fit(&data)
///     .unwrap();
/// assert_eq!(model.protocentroids.len(), 2);
/// assert_eq!(model.centroids().nrows(), 9);
/// assert_eq!(model.n_parameters(), 6 * 2); // 6 vectors in R^2
/// ```
#[derive(Debug, Clone)]
pub struct KrKMeans {
    hs: Vec<usize>,
    aggregator: Aggregator,
    init: KrInit,
    n_init: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
    exec: ExecCtx,
    variant: KrVariant,
    warm_start: Option<bool>,
}

/// A fitted Khatri-Rao-k-Means model.
#[derive(Debug, Clone)]
pub struct KrKMeansModel {
    /// The `p` protocentroid sets (set `l` is `h_l x m`).
    pub protocentroids: Vec<Matrix>,
    /// Flat centroid assignment per point (see [`CentroidIndexer`]).
    pub labels: Vec<usize>,
    /// Final inertia.
    pub inertia: f64,
    /// Iterations executed by the best restart.
    pub n_iter: usize,
    /// Aggregator used.
    pub aggregator: Aggregator,
    /// Distance-evaluation pruning counters accumulated over the whole
    /// fit (all restarts, warm start included). Telemetry only — never
    /// part of the bitwise determinism contract.
    pub prune_stats: PruneStats,
    indexer: CentroidIndexer,
}

impl KrKMeansModel {
    /// Materializes the full centroid grid (`∏ h_l x m`).
    pub fn centroids(&self) -> Matrix {
        khatri_rao(&self.protocentroids, self.aggregator).expect("validated sets")
    }

    /// The centroid indexer (flat index <-> protocentroid tuple).
    pub fn indexer(&self) -> &CentroidIndexer {
        &self.indexer
    }

    /// Per-point tuple assignments `(j_1, …, j_p)`.
    pub fn tuple_labels(&self) -> Vec<Vec<usize>> {
        self.labels
            .iter()
            .map(|&l| self.indexer.to_tuple(l))
            .collect()
    }

    /// Per-point assignment to protocentroids of set `l` (the marginal
    /// labels `a_l` of Algorithm 1).
    pub fn set_labels(&self, l: usize) -> Vec<usize> {
        self.labels
            .iter()
            .map(|&lab| self.indexer.to_tuple(lab)[l])
            .collect()
    }

    /// Number of stored summary parameters (`Σ h_l * m`).
    pub fn n_parameters(&self) -> usize {
        self.protocentroids.iter().map(|s| s.len()).sum()
    }
}

impl KrKMeans {
    /// Creates a runner for protocentroid set sizes `hs` with the
    /// paper's defaults: sum aggregator, random-point init, 20 restarts,
    /// 200 iterations, tolerance `1e-4`, time-efficient variant.
    pub fn new(hs: Vec<usize>) -> Self {
        KrKMeans {
            hs,
            aggregator: Aggregator::Sum,
            init: KrInit::RandomPoints,
            n_init: 20,
            max_iter: 200,
            tol: 1e-4,
            seed: 0,
            exec: ExecCtx::serial(),
            variant: KrVariant::TimeEfficient,
            warm_start: None,
        }
    }

    /// Sets the aggregator (`⊕ ∈ {+, ×}`).
    pub fn with_aggregator(mut self, agg: Aggregator) -> Self {
        self.aggregator = agg;
        self
    }

    /// Sets the initialization strategy.
    pub fn with_init(mut self, init: KrInit) -> Self {
        self.init = init;
        self
    }

    /// Sets the number of restarts (best inertia wins).
    pub fn with_n_init(mut self, n_init: usize) -> Self {
        self.n_init = n_init.max(1);
        self
    }

    /// Sets the iteration cap per restart.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// Sets the convergence tolerance on centroid movement.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution context (thread budget, pool handle, kernel
    /// and pruning modes) used by the assignment and protocentroid-update
    /// steps.
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the memory- or time-efficient assignment variant.
    pub fn with_variant(mut self, variant: KrVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Overrides the warm-start default: the deterministic two-phase
    /// candidate runs by default under [`KrVariant::TimeEfficient`] and
    /// is skipped under [`KrVariant::MemoryEfficient`], whose space
    /// bound the phase-1 grid materialization would otherwise void.
    ///
    /// Cost when enabled: roughly two extra unconstrained k-Means fits
    /// (same `O(n · ∏ h_l · m)` per-iteration class as the
    /// time-efficient assignment step itself) plus a cheap grid
    /// decomposition. Disable for timing studies of the bare
    /// Algorithm 1, as the bench harnesses do.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = Some(warm_start);
        self
    }

    /// Runs Khatri-Rao-k-Means, returning the best model over restarts.
    pub fn fit(&self, data: &Matrix) -> Result<KrKMeansModel> {
        checked_grid_size(&self.hs)?;
        let needed = *self.hs.iter().max().expect("non-empty");
        validate_input(data, needed)?;
        if let KrInit::FromSets(sets) = &self.init {
            if sets.len() != self.hs.len()
                || sets
                    .iter()
                    .zip(self.hs.iter())
                    .any(|(s, &h)| s.nrows() != h || s.ncols() != data.ncols())
            {
                return Err(CoreError::InvalidConfig(
                    "FromSets shapes must match hs and data dimension".into(),
                ));
            }
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        // One bounds-gated engine shared by every restart and the
        // warm-start candidate: point caches survive the whole fit,
        // per-restart bound state recycles through the Scratch arena.
        let mut engine = AssignEngine::new(&self.exec);
        engine.begin_fit(data);
        let mut best: Option<KrKMeansModel> = None;
        for _ in 0..self.n_init {
            let sets = self.initialize(data, &mut rng);
            let model = self.fit_once(data, sets, &mut rng, &mut engine)?;
            if best.as_ref().is_none_or(|b| model.inertia < b.inertia) {
                best = Some(model);
            }
        }
        if let Some(sets) = self.warm_start_sets(data)? {
            // The warm-start candidate refines on an independent stream so
            // the random restarts above stay byte-identical with or
            // without it.
            let mut wrng = StdRng::seed_from_u64(self.seed ^ WARM_START_SALT);
            let model = self.fit_once(data, sets, &mut wrng, &mut engine)?;
            if best.as_ref().is_none_or(|b| model.inertia < b.inertia) {
                best = Some(model);
            }
        }
        let mut best = best.expect("n_init >= 1");
        best.prune_stats = engine.take_stats();
        Ok(best)
    }

    /// Phase-1/phase-2 initial sets for the warm-start candidate, or
    /// `None` when it does not apply: explicit [`KrInit::FromSets`],
    /// fewer data points than full centroids, or (unless explicitly
    /// enabled) the memory-efficient variant — phase 1 materializes the
    /// full `∏ h_l x m` grid, which would silently void that variant's
    /// `O((n + Σ h_l) m)` space bound.
    fn warm_start_sets(&self, data: &Matrix) -> Result<Option<Vec<Matrix>>> {
        let k: usize = self.hs.iter().product();
        let enabled = self
            .warm_start
            .unwrap_or(self.variant == KrVariant::TimeEfficient);
        if !enabled || matches!(self.init, KrInit::FromSets(_)) || data.nrows() < k {
            return Ok(None);
        }
        let _warm = kr_obs::span!("krkmeans.warm_start", "k" => k);
        let km = KMeans::new(k)
            .with_n_init(2)
            .with_max_iter(self.max_iter)
            .with_tol(self.tol)
            .with_exec(self.exec.clone())
            .with_seed(self.seed ^ WARM_START_SALT)
            .fit(data)?;
        // The decomposition inherits the configured tolerance (capped so
        // a loose user tol cannot produce a sloppy candidate) and uses a
        // bounded pass count; it normally converges in tens of passes.
        let (sets, _) = crate::naive::decompose_centroids(
            &km.centroids,
            &self.hs,
            self.aggregator,
            500,
            self.tol.min(1e-8),
            self.seed ^ WARM_START_SALT,
        );
        Ok(Some(sets))
    }

    fn fit_once(
        &self,
        data: &Matrix,
        sets: Vec<Matrix>,
        rng: &mut StdRng,
        engine: &mut AssignEngine,
    ) -> Result<KrKMeansModel> {
        let n = data.nrows();
        let indexer = CentroidIndexer::new(self.hs.clone());
        let k = indexer.n_centroids();
        let mut sets = sets;
        let mut old_sets = sets.clone();
        let mut labels = vec![0usize; n];
        let mut dmin = vec![0.0f64; n];
        let mut n_iter = 0;

        let _lloyd = kr_obs::span!("krkmeans.lloyd", "k" => k);
        engine.begin_restart();
        for it in 0..self.max_iter {
            n_iter = it + 1;
            // --- Assignment (Algorithm 1 lines 7-15).
            self.assign_points(data, &sets, &indexer, &mut labels, &mut dmin, engine);

            // --- Protocentroid updates (lines 16-19, Proposition 6.1).
            prop61_update_from_points(
                data,
                &labels,
                &mut sets,
                self.aggregator,
                rng,
                self.exec.scratch(),
            );

            // --- Convergence (line 20): total squared centroid movement.
            let movement = centroid_movement(
                &sets,
                &old_sets,
                &indexer,
                self.aggregator,
                self.exec.scratch(),
            );
            if movement < self.tol {
                break;
            }
            for (o, s) in old_sets.iter_mut().zip(sets.iter()) {
                o.clone_from(s);
            }
        }
        // Final assignment against converged protocentroids.
        self.assign_points(data, &sets, &indexer, &mut labels, &mut dmin, engine);
        let inertia = dmin.iter().sum();
        Ok(KrKMeansModel {
            protocentroids: sets,
            labels,
            inertia,
            n_iter,
            aggregator: self.aggregator,
            prune_stats: PruneStats::default(),
            indexer,
        })
    }

    fn initialize(&self, data: &Matrix, rng: &mut StdRng) -> Vec<Matrix> {
        let _seed = kr_obs::span!("krkmeans.seed", "sets" => self.hs.len());
        match &self.init {
            KrInit::FromSets(sets) => sets.clone(),
            KrInit::RandomPoints => self
                .hs
                .iter()
                .map(|&h| crate::kmeans::sample_rows(data, h, rng))
                .collect(),
            KrInit::KrPlusPlus => {
                // Anchored D² seeding: every set gets h_l D²-spread data
                // points. Set 0 keeps them verbatim; the other sets are
                // converted to *deviations* from the data mean (sum) or
                // *ratios* against it (product), so the initial
                // aggregations `θ_0 ⊕ θ_1 ⊕ …` sit on the data manifold,
                // anchored at the set-0 seeds and displaced by the other
                // sets' deviations. This realizes Section 6's requirement
                // that the sampled far-apart centroids equal aggregations
                // of the initial protocentroids.
                let mean = data.col_means();
                let mut sets = Vec::with_capacity(self.hs.len());
                for (l, &h) in self.hs.iter().enumerate() {
                    let mut set = crate::kmeans::plus_plus_init(data, h.min(data.nrows()), rng);
                    if l > 0 {
                        for j in 0..set.nrows() {
                            let row = set.row_mut(j);
                            for (v, &g) in row.iter_mut().zip(mean.iter()) {
                                match self.aggregator {
                                    Aggregator::Sum => *v -= g,
                                    Aggregator::Product => {
                                        if g.abs() > 1e-9 {
                                            *v /= g;
                                        } else {
                                            *v = 1.0;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    sets.push(set);
                }
                sets
            }
        }
    }

    fn assign_points(
        &self,
        data: &Matrix,
        sets: &[Matrix],
        indexer: &CentroidIndexer,
        labels: &mut [usize],
        dmin: &mut [f64],
        engine: &mut AssignEngine,
    ) {
        match self.variant {
            KrVariant::TimeEfficient => {
                let grid = khatri_rao(sets, self.aggregator).expect("validated sets");
                engine.assign_grid(data, &grid, sets, self.aggregator, labels, dmin);
            }
            KrVariant::MemoryEfficient => {
                engine.assign_otf(data, sets, indexer, self.aggregator, labels, dmin);
            }
        }
    }
}

/// One full closed-form update pass of every protocentroid set against a
/// *fixed* flat assignment (Proposition 6.1, Algorithm 1 lines 16-19).
///
/// Sets are updated sequentially — each sees the already-updated earlier
/// sets. Public so that tests and benchmarks can verify or time the
/// block-coordinate-descent step in isolation. `seed` drives the
/// reseeding of empty protocentroids. It runs the same code as
/// [`KrKMeans::fit`]'s update; `exec` lends its scratch arena, and the
/// pass is serial, so results do not depend on the thread count.
pub fn prop61_update_pass_with(
    data: &Matrix,
    labels: &[usize],
    sets: &mut [Matrix],
    agg: Aggregator,
    seed: u64,
    exec: &ExecCtx,
) {
    assert_eq!(data.nrows(), labels.len(), "one label per point");
    let mut rng = StdRng::seed_from_u64(seed);
    prop61_update_from_points(data, labels, sets, agg, &mut rng, exec.scratch());
}

/// Closed-form update pass (Proposition 6.1) driven by *sufficient
/// statistics* instead of raw points: per-cluster coordinate sums
/// (`k x m`) and member counts. The closed forms only depend on
/// `Σ_{x∈C} x` and `|C|`, and this runs the same code as
/// [`prop61_update_pass_with`]: a one-client `KR-FkM` round, whose sums
/// accumulate in point order, equals it bitwise. It is what a federated
/// server runs after aggregating client statistics (Figure 10's
/// `KR-FkM`).
///
/// Protocentroids whose combinations are all empty keep their value
/// (a federated server has no raw data to reseed from).
pub fn prop61_update_from_stats(
    sums: &Matrix,
    counts: &[usize],
    sets: &mut [Matrix],
    agg: Aggregator,
) {
    let k: usize = sets.iter().map(|s| s.nrows()).product();
    assert_eq!(sums.nrows(), k, "one sum row per cluster");
    assert_eq!(counts.len(), k, "one count per cluster");
    prop61_update(
        sets,
        agg,
        |c, sum| {
            sum.copy_from_slice(sums.row(c));
            counts[c]
        },
        |_, _, _| {},
    );
}

/// [`prop61_update`] from raw points: each cluster's sum is built from its
/// [`LabelBuckets`] members, in ascending point order, into one
/// `m`-vector. No `k x m` block of sums is ever held, which keeps the
/// memory-efficient variant within `O((n + Σ h_l) m)` space. Empty
/// protocentroids are reseeded from `rng` (Appendix B): `θ_q^j := x ⊖ o`
/// for a random point `x` and a random tuple `o` of the other sets, so
/// one of its combinations lands exactly on a data point.
fn prop61_update_from_points(
    data: &Matrix,
    labels: &[usize],
    sets: &mut [Matrix],
    agg: Aggregator,
    rng: &mut StdRng,
    scratch: &Scratch,
) {
    let k = sets.iter().map(|s| s.nrows()).product();
    let _update = kr_obs::span!("krkmeans.update", "k" => k);
    let clusters = bucket_by_label(labels, k, scratch);
    prop61_update(
        sets,
        agg,
        |c, sum| {
            let members = clusters.members(c);
            sum.fill(0.0);
            for &i in members {
                ops::add_assign(sum, data.row(i));
            }
            members.len()
        },
        |sets, q, j| {
            let x = data.row(rng.gen_range(0..data.nrows()));
            let mut other = vec![0.0f64; x.len()];
            agg.fill_identity(&mut other);
            for (l, set) in sets.iter().enumerate() {
                if l != q {
                    agg.aggregate_assign(&mut other, set.row(rng.gen_range(0..set.nrows())));
                }
            }
            for ((t, &xv), &ov) in sets[q].row_mut(j).iter_mut().zip(x).zip(&other) {
                *t = match agg {
                    Aggregator::Sum => xv - ov,
                    Aggregator::Product if ov.abs() > 1e-9 => xv / ov,
                    Aggregator::Product => xv,
                };
            }
        },
    );
    clusters.release(scratch);
}

/// The closed forms of Proposition 6.1, generalized to `p` sets and
/// applied set by set (Algorithm 1 lines 16-19, each set seeing the
/// already-updated earlier ones). Over the clusters `C` whose tuple
/// picks protocentroid `j` of set `q`, with `o_C` the other sets' rows
/// of that tuple aggregated:
///
/// * sum: `θ_q^j = Σ_C (Σ_{x∈C} x - |C| o_C) / Σ_C |C|`;
/// * product: `θ_q^j = Σ_C (Σ_{x∈C} x) ⊙ o_C / Σ_C |C| (o_C ⊙ o_C)`
///   (elementwise division; unconstrained dimensions keep their value).
///
/// `cluster(c, sum)` returns cluster `c`'s member count and, when it is
/// non-zero, writes the cluster's coordinate sum into `sum`. The grid is
/// walked serially in flat-index order, so results do not depend on the
/// thread count. `on_empty(sets, q, j)` runs for each protocentroid whose
/// combinations are all empty, in ascending `j`, before set `q + 1`
/// updates.
fn prop61_update(
    sets: &mut [Matrix],
    agg: Aggregator,
    mut cluster: impl FnMut(usize, &mut [f64]) -> usize,
    mut on_empty: impl FnMut(&mut [Matrix], usize, usize),
) {
    let indexer = CentroidIndexer::new(sets.iter().map(|s| s.nrows()).collect());
    let m = sets[0].ncols();
    let mut sum = vec![0.0f64; m];
    let mut other = vec![0.0f64; m];
    for q in 0..sets.len() {
        let h_q = sets[q].nrows();
        let mut num = Matrix::zeros(h_q, m);
        let mut den = Matrix::zeros(h_q, m);
        let mut totals = vec![0usize; h_q];
        indexer.for_each_tuple(|flat, tuple| {
            let n_c = cluster(flat, &mut sum);
            if n_c == 0 {
                return;
            }
            let j = tuple[q];
            totals[j] += n_c;
            agg.fill_identity(&mut other);
            for (l, &jl) in tuple.iter().enumerate() {
                if l != q {
                    agg.aggregate_assign(&mut other, sets[l].row(jl));
                }
            }
            match agg {
                Aggregator::Sum => {
                    let row = num.row_mut(j);
                    ops::add_assign(row, &sum);
                    ops::axpy(row, -(n_c as f64), &other);
                }
                Aggregator::Product => {
                    ops::add_hadamard_assign(num.row_mut(j), &sum, &other);
                    ops::add_weighted_square_assign(den.row_mut(j), n_c as f64, &other);
                }
            }
        });
        for (j, &total) in totals.iter().enumerate() {
            if total == 0 {
                on_empty(sets, q, j);
                continue;
            }
            match agg {
                Aggregator::Sum => {
                    let inv = 1.0 / total as f64;
                    let dst = sets[q].row_mut(j);
                    for (t, &nv) in dst.iter_mut().zip(num.row(j).iter()) {
                        *t = nv * inv;
                    }
                }
                Aggregator::Product => {
                    let dst = sets[q].row_mut(j);
                    for ((t, &nv), &dv) in
                        dst.iter_mut().zip(num.row(j).iter()).zip(den.row(j).iter())
                    {
                        if dv > 1e-12 {
                            *t = nv / dv;
                        }
                    }
                }
            }
        }
    }
}

/// Within-assignment objective: squared distance of each point to the
/// aggregated centroid of its *assigned* (not nearest) cluster.
pub fn fixed_assignment_objective(
    data: &Matrix,
    labels: &[usize],
    sets: &[Matrix],
    agg: Aggregator,
) -> f64 {
    let indexer = CentroidIndexer::new(sets.iter().map(|s| s.nrows()).collect());
    let mut mu = vec![0.0f64; data.ncols()];
    let mut total = 0.0;
    for (x, &l) in data.rows_iter().zip(labels.iter()) {
        aggregate_tuple_into(&mut mu, sets, &indexer.to_tuple(l), agg);
        total += ops::sqdist(x, &mu);
    }
    total
}

/// CSR-style grouping of point indices by flat cluster label: bucket
/// `c`'s members are `idx[starts[c]..starts[c + 1]]` (to `idx.len()` for
/// the last bucket), in ascending point order — the order in which
/// [`SuffStats`](crate::stats::SuffStats) folds points, so a cluster's sum
/// equals a one-client round's bitwise. Both backing buffers come from a
/// [`Scratch`] arena and must be returned with [`LabelBuckets::release`].
struct LabelBuckets {
    starts: Vec<usize>,
    idx: Vec<usize>,
}

impl LabelBuckets {
    fn members(&self, c: usize) -> &[usize] {
        let end = self.starts.get(c + 1).copied().unwrap_or(self.idx.len());
        &self.idx[self.starts[c]..end]
    }

    /// Returns the buffers in reverse order of [`bucket_by_label`]'s
    /// takes: the arena is a size-blind stack, so the next call pops each
    /// one back into the same role.
    fn release(self, scratch: &Scratch) {
        scratch.put_usize(self.idx);
        scratch.put_usize(self.starts);
    }
}

/// Counting sort of point indices by label into a [`LabelBuckets`] CSR —
/// two pooled `usize` buffers instead of the `k` per-cluster `Vec`s of
/// the seed representation (the `O(k)` allocations-per-iteration
/// offender in the fit loop).
fn bucket_by_label(labels: &[usize], k: usize, scratch: &Scratch) -> LabelBuckets {
    let mut starts = scratch.take_usize(k);
    let mut idx = scratch.take_usize(labels.len());
    for &l in labels {
        starts[l] += 1;
    }
    let mut acc = 0usize;
    for s in starts.iter_mut() {
        acc += *s;
        *s = acc;
    }
    // Reverse placement with decrementing end-cursors leaves `starts[c]`
    // at bucket `c`'s start offset and each bucket in ascending order.
    for (i, &l) in labels.iter().enumerate().rev() {
        starts[l] -= 1;
        idx[starts[l]] = i;
    }
    LabelBuckets { starts, idx }
}

/// Total squared movement of the aggregated centroid grid between two
/// protocentroid configurations (Algorithm 1 line 20), computed without
/// materializing either grid.
fn centroid_movement(
    sets: &[Matrix],
    old_sets: &[Matrix],
    indexer: &CentroidIndexer,
    agg: Aggregator,
    scratch: &Scratch,
) -> f64 {
    let m = sets[0].ncols();
    let mut new_mu = scratch.take_f64(m);
    let mut old_mu = scratch.take_f64(m);
    let mut total = 0.0;
    indexer.for_each_tuple(|_, tuple| {
        aggregate_tuple_into(&mut new_mu, sets, tuple, agg);
        aggregate_tuple_into(&mut old_mu, old_sets, tuple, agg);
        total += ops::sqdist(&new_mu, &old_mu);
    });
    scratch.put_f64(old_mu);
    scratch.put_f64(new_mu);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use kr_datasets::synthetic::{kr_structured, StructureKind};

    #[test]
    fn recovers_additive_structure() {
        let (ds, _, _) = kr_structured(3, 2, 40, 0.05, StructureKind::Additive, 5);
        let model = KrKMeans::new(vec![3, 2])
            .with_aggregator(Aggregator::Sum)
            .with_n_init(20)
            .with_seed(2)
            .fit(&ds.data)
            .unwrap();
        // Expected inertia of perfect clustering: n * m * std^2.
        let ideal = ds.data.nrows() as f64 * 2.0 * 0.05 * 0.05;
        assert!(
            model.inertia < 3.0 * ideal,
            "inertia {} vs ideal {ideal}",
            model.inertia
        );
        let ari = kr_metrics::adjusted_rand_index(&model.labels, &ds.labels).unwrap();
        assert!(ari > 0.95, "ari {ari}");
    }

    #[test]
    fn recovers_multiplicative_structure() {
        let (ds, _, _) = kr_structured(2, 2, 50, 0.03, StructureKind::Multiplicative, 6);
        let model = KrKMeans::new(vec![2, 2])
            .with_aggregator(Aggregator::Product)
            .with_n_init(20)
            .with_seed(3)
            .fit(&ds.data)
            .unwrap();
        let ari = kr_metrics::adjusted_rand_index(&model.labels, &ds.labels).unwrap();
        assert!(ari > 0.9, "ari {ari}");
    }

    #[test]
    fn memory_and_time_variants_agree() {
        let (ds, _, _) = kr_structured(3, 3, 20, 0.2, StructureKind::Additive, 8);
        // Warm start pinned on for both so the comparison covers the
        // same candidate set through both assignment kernels.
        let base = KrKMeans::new(vec![3, 3])
            .with_seed(4)
            .with_n_init(3)
            .with_warm_start(true);
        let t = base
            .clone()
            .with_variant(KrVariant::TimeEfficient)
            .fit(&ds.data)
            .unwrap();
        let m = base
            .with_variant(KrVariant::MemoryEfficient)
            .fit(&ds.data)
            .unwrap();
        assert_eq!(t.labels, m.labels);
        assert!((t.inertia - m.inertia).abs() < 1e-6);
        for (a, b) in t.protocentroids.iter().zip(m.protocentroids.iter()) {
            assert!(a.sub(b).unwrap().max_abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        // The workspace determinism policy: every RNG path flows from the
        // configured seed (restarts, empty-cluster reseeds, and the
        // warm-start candidate's derived streams), so refitting is
        // byte-identical.
        let (ds, _, _) = kr_structured(3, 2, 25, 0.3, StructureKind::Additive, 16);
        let fit = || {
            KrKMeans::new(vec![3, 2])
                .with_n_init(4)
                .with_seed(33)
                .fit(&ds.data)
                .unwrap()
        };
        let (a, b) = (fit(), fit());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
        for (sa, sb) in a.protocentroids.iter().zip(b.protocentroids.iter()) {
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn warm_start_never_hurts() {
        // Best-inertia selection means the warm-start candidate can only
        // improve (or match) the restarts-only result.
        let (ds, _, _) = kr_structured(3, 3, 30, 0.2, StructureKind::Additive, 18);
        let with = KrKMeans::new(vec![3, 3])
            .with_n_init(3)
            .with_seed(9)
            .fit(&ds.data)
            .unwrap();
        let without = KrKMeans::new(vec![3, 3])
            .with_n_init(3)
            .with_seed(9)
            .with_warm_start(false)
            .fit(&ds.data)
            .unwrap();
        assert!(with.inertia <= without.inertia + 1e-9);
    }

    #[test]
    fn threads_do_not_change_result() {
        let (ds, _, _) = kr_structured(2, 3, 20, 0.3, StructureKind::Additive, 9);
        let a = KrKMeans::new(vec![2, 3])
            .with_seed(5)
            .with_exec(ExecCtx::threaded(1))
            .fit(&ds.data)
            .unwrap();
        let b = KrKMeans::new(vec![2, 3])
            .with_seed(5)
            .with_exec(ExecCtx::threaded(4))
            .fit(&ds.data)
            .unwrap();
        assert_eq!(a.labels, b.labels);
        assert!((a.inertia - b.inertia).abs() < 1e-9);
    }

    #[test]
    fn exec_determinism_pool_1_2_8_workers() {
        use kr_linalg::ThreadPool;
        use std::sync::Arc;
        let (ds, _, _) = kr_structured(2, 3, 20, 0.3, StructureKind::Additive, 9);
        let fit_with = |exec: ExecCtx, variant: KrVariant| {
            KrKMeans::new(vec![2, 3])
                .with_seed(5)
                .with_n_init(2)
                .with_variant(variant)
                .with_exec(exec)
                .fit(&ds.data)
                .unwrap()
        };
        for variant in [KrVariant::TimeEfficient, KrVariant::MemoryEfficient] {
            let reference = fit_with(ExecCtx::serial(), variant);
            for workers in [1usize, 2, 8] {
                let pool = Arc::new(ThreadPool::new(workers));
                let exec = ExecCtx::threaded(workers + 1).with_pool(Arc::clone(&pool));
                let model = fit_with(exec.clone(), variant);
                assert_eq!(model.labels, reference.labels, "workers={workers}");
                assert_eq!(model.inertia.to_bits(), reference.inertia.to_bits());
                for (a, b) in model
                    .protocentroids
                    .iter()
                    .zip(reference.protocentroids.iter())
                {
                    assert_eq!(a, b, "workers={workers}");
                }
                // Same pool reused by a second fit.
                let again = fit_with(exec, variant);
                assert_eq!(again.labels, reference.labels);
            }
        }
    }

    #[test]
    fn three_sets_supported() {
        let data = kr_datasets::synthetic::blobs(240, 3, 8, 0.5, 11).data;
        let model = KrKMeans::new(vec![2, 2, 2])
            .with_n_init(5)
            .with_seed(6)
            .fit(&data)
            .unwrap();
        assert_eq!(model.centroids().nrows(), 8);
        assert_eq!(model.protocentroids.len(), 3);
        assert!(model.labels.iter().all(|&l| l < 8));
        // Tuple labels must be consistent with flat labels.
        for (i, tuple) in model.tuple_labels().iter().enumerate() {
            assert_eq!(model.indexer().to_flat(tuple), model.labels[i]);
        }
    }

    #[test]
    fn kr_plus_plus_init_works() {
        let (ds, _, _) = kr_structured(3, 3, 30, 0.1, StructureKind::Additive, 12);
        let model = KrKMeans::new(vec![3, 3])
            .with_init(KrInit::KrPlusPlus)
            .with_n_init(20)
            .with_seed(7)
            .fit(&ds.data)
            .unwrap();
        // kr++ must produce a high-agreement summary; like the paper we
        // accept imperfect local minima (hence > 0.7 rather than ~1).
        let ari = kr_metrics::adjusted_rand_index(&model.labels, &ds.labels).unwrap();
        assert!(ari > 0.7, "ari {ari}");
        assert!(model.inertia.is_finite());
    }

    #[test]
    fn from_sets_init_validated() {
        let data = Matrix::zeros(10, 2);
        let bad = KrKMeans::new(vec![2, 2]).with_init(KrInit::FromSets(vec![
            Matrix::zeros(3, 2),
            Matrix::zeros(2, 2),
        ]));
        assert!(matches!(bad.fit(&data), Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn rejects_invalid_configs() {
        let data = Matrix::zeros(10, 2);
        assert!(KrKMeans::new(vec![]).fit(&data).is_err());
        assert!(KrKMeans::new(vec![3, 0]).fit(&data).is_err());
        // 2^64 centroids wrap usize to 0; the grid must be refused.
        for variant in [KrVariant::TimeEfficient, KrVariant::MemoryEfficient] {
            assert!(matches!(
                KrKMeans::new(vec![2; 64]).with_variant(variant).fit(&data),
                Err(CoreError::InvalidConfig(_))
            ));
        }
        let tiny = Matrix::zeros(2, 2);
        assert!(matches!(
            KrKMeans::new(vec![5, 2]).fit(&tiny),
            Err(CoreError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn inertia_not_worse_than_random_protocentroids() {
        let (ds, t1, t2) = kr_structured(3, 3, 20, 0.2, StructureKind::Additive, 13);
        let fitted = KrKMeans::new(vec![3, 3])
            .with_init(KrInit::FromSets(vec![t1.clone(), t2.clone()]))
            .with_n_init(1)
            .with_seed(0)
            .fit(&ds.data)
            .unwrap();
        // Starting at the truth, inertia must stay near the noise floor.
        let centroids = khatri_rao(&[t1, t2], Aggregator::Sum).unwrap();
        let truth_inertia = kr_metrics::inertia(&ds.data, &centroids);
        assert!(fitted.inertia <= truth_inertia * 1.01 + 1e-9);
    }

    #[test]
    fn update_is_monotone_on_fixed_assignment() {
        // One full iteration must not increase inertia (Lloyd property
        // extended by Proposition 6.1: assignment optimal given
        // centroids, update optimal given assignment).
        let (ds, _, _) = kr_structured(3, 2, 30, 0.5, StructureKind::Additive, 14);
        let mut inertias = Vec::new();
        for iters in [1usize, 2, 4, 8, 16] {
            let model = KrKMeans::new(vec![3, 2])
                .with_n_init(1)
                .with_seed(21)
                .with_max_iter(iters)
                .fit(&ds.data)
                .unwrap();
            inertias.push(model.inertia);
        }
        for w in inertias.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "inertia increased: {inertias:?}");
        }
    }

    #[test]
    fn empty_protocentroid_is_reseeded_onto_a_data_point() {
        // Appendix B: no label uses protocentroid 1 of set 0, so the pass
        // draws `pick` and then one index per other set, and moves it to
        // x_pick ⊖ θ_1^{j1}. Set 1 updates after set 0, so θ_1 is the set
        // as passed in.
        let blobs = kr_datasets::synthetic::blobs(60, 3, 3, 0.5, 17).data;
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        for (agg, shift) in [(Aggregator::Sum, 0.0), (Aggregator::Product, 20.0)] {
            let data = blobs.map(|v| v + shift);
            let sets = vec![data.select_rows(&[0, 1]), data.select_rows(&[20, 40, 59])];
            for seed in [0u64, 1, 2] {
                let mut updated = sets.clone();
                prop61_update_pass_with(
                    &data,
                    &labels,
                    &mut updated,
                    agg,
                    seed,
                    &ExecCtx::serial(),
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let x = data.row(rng.gen_range(0..data.nrows()));
                let theta = sets[1].row(rng.gen_range(0..3));
                let expect: Vec<f64> = match agg {
                    Aggregator::Sum => x.iter().zip(theta).map(|(a, b)| a - b).collect(),
                    Aggregator::Product => x.iter().zip(theta).map(|(a, b)| a / b).collect(),
                };
                assert_eq!(updated[0].row(1), &expect[..], "{agg:?} seed={seed}");
            }
        }
    }

    #[test]
    fn label_buckets_return_buffers_to_their_roles() {
        // The Scratch arena is a size-blind LIFO stack: buffers put back
        // in take order swap roles, and `starts` grows to n.
        let scratch = Scratch::default();
        let labels: Vec<usize> = (0..1000).map(|i| i % 4).collect();
        for _ in 0..2 {
            let clusters = bucket_by_label(&labels, 4, &scratch);
            assert!(clusters.starts.capacity() < labels.len());
            clusters.release(&scratch);
        }
    }

    #[test]
    fn product_aggregator_handles_zero_dimensions() {
        // A feature that is exactly zero for every point makes the
        // product denominator vanish; the update must stay finite.
        let mut data = kr_datasets::synthetic::blobs(60, 2, 4, 0.2, 15).data;
        for i in 0..data.nrows() {
            data.set(i, 1, 0.0);
        }
        let model = KrKMeans::new(vec![2, 2])
            .with_aggregator(Aggregator::Product)
            .with_n_init(3)
            .with_seed(8)
            .fit(&data)
            .unwrap();
        assert!(model.centroids().all_finite());
        assert!(model.inertia.is_finite());
    }
}

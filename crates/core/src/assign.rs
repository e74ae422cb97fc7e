//! Bounds-gated nearest-centroid assignment: the shared engine every
//! Lloyd-style fitter in the workspace routes through.
//!
//! The engine eliminates most exact distance evaluations with
//! Hamerly-style triangle-inequality bounds while keeping the
//! repo's signature contract: **pruned assignment is bitwise identical
//! to the exhaustive scan** — labels, per-point distances, and therefore
//! centroids, inertia, and `SuffStats` downstream — at any worker count
//! and in both [`kr_linalg::KernelMode`]s.
//!
//! ## Why pruning can be bitwise-safe
//!
//! The exhaustive scans pick the lowest-index argmin by comparing
//! candidates in ascending order with a strict `<`. A candidate `c` may
//! therefore be skipped iff a *certified* lower bound on the value the
//! kernel **would compute** for `c` strictly exceeds an
//! already-computed exact value (the distance to the previous
//! assignment, or the running best of the scan). The final minimum is
//! never larger than that gate, so every skipped candidate satisfies
//! `d_c > final_min` strictly — it can change neither the argmin nor a
//! tie. Undecided candidates are evaluated with the exact kernel in the
//! same ascending order (reusing the already-computed bits where a
//! candidate repeats), which makes the surviving comparison chain —
//! hence labels and distances — identical by construction. Bounds only
//! ever *remove provably-losing work*; they never substitute a value.
//!
//! ## One exact kernel
//!
//! Every exact distance here is the direct sum of squares
//! `ops::sqdist(x, c)`, the kernel of
//! [`crate::kmeans::nearest_centroid`], of the federated clients and of
//! `kr_metrics::inertia`, so a fitted model's inertia equals the
//! scorer's bitwise. The direct form does not cancel: its rounding error
//! is at most `γ_{m+2}·D ≤ γ_{m+2}·(‖x‖ + ‖c‖)²` for a true squared
//! distance `D` (absent underflow), so fits stay exact under translation.
//! The expanded form `‖x‖² + ‖c‖² − 2⟨x,c⟩` survives only in the factored
//! filter's scores `F_c` below, which decide skips and never an output
//! bit. One conservative additive error term, `kernel_error_bound`,
//! covers both forms, and relative slack on every square root and bound
//! decay does the rest, so a bound can under-prune but never mis-prune.
//!
//! ## Bound structure
//!
//! Every session keeps one lower bound per point on the distance to
//! every non-assigned centroid (Hamerly), decayed each iteration by the
//! maximum centroid drift. Whole-point skips cost O(1), and the bound
//! state is O(n) whatever `k` is.
//! Per-(point, centroid) bounds (Elkan) evaluate fewer distances, but
//! their O(n·k) upkeep cost more than those evaluations saved at every
//! shape measured, so they are not kept.
//!
//! Each row holds a `u32` label and an `f32` lower bound rounded toward
//! zero, so it stays a bound. A federated client keeps these bare 8-byte
//! rows for its shard from one round to the next in [`ResidentBounds`];
//! every engine session — dense, materialized grid and on the fly —
//! keeps 16-byte rows that add the exact distance to the label, which
//! the `assign_*` calls return. One chunk-parallel pass gates every
//! point the same way: a point whose decayed bound certifies its label
//! keeps it. Any other point, and every point of a first pass, rescans:
//! through the factored filter below when the grid has one, else through
//! the full ascending scan of a materialized matrix, or the tuple sweep
//! of an implicit grid.
//!
//! The first rows of a k-means++ restart come from the seeder
//! ([`crate::kmeans`]), not from a scan: its pass for each seed runs the
//! ascending strict-`<` chain of the full scan over the seeds so far, so
//! its last pass leaves each point's exhaustive label and exact distance,
//! and the runner-up's computed value, rounded toward zero, in the bound
//! slot. The engine adopts these rows with the seeds as its drift
//! snapshot, turning each runner-up into a true-distance bound under
//! `kernel_error_bound` at the data's largest norm on both sides, which
//! covers every seed because seeds are data rows. The restart's first
//! pass then gates every point with one distance instead of scanning all
//! `n × k` pairs; random and warm starts, and [`PruneMode::Off`], keep the
//! full first scan.
//!
//! The client holds no engine because its rows live across rounds in
//! memory the federation pays for on every shard: it keeps no distance
//! (it recomputes the one to the label when it sums its statistics), no
//! norms (one data maximum feeds the error term), and snapshots the
//! broadcast summary, `(Σ h_l)·m` floats for KR-FkM, instead of the grid.
//!
//! Memory-efficient (on-the-fly) Khatri-Rao assignment gates with the
//! same single bound, with per-factor drift combined per the aggregator.
//! It never holds the `k × m` grid, so each pass first aggregates every
//! candidate once for its squared norm, which sizes the error term, and
//! from the second pass on a counting sort by label aggregates each
//! occupied candidate once more to store each point's exact distance to
//! its label in its row: the distance the gate reads. Pruning is on
//! unless the context's [`kr_linalg::PruneMode`] (default from
//! `KR_PRUNE`) is `Off`, which runs the exhaustive reference scans.
//!
//! ### Factored filter
//!
//! A KR-+ centroid is `μ_c = θ_1^{c_1} + … + θ_p^{c_p}`, so
//! `⟨x, μ_c⟩ = Σ_l ⟨x, θ_l^{c_l}⟩`: with the `Σ h_l` per-set dot
//! products `s_l[j] = ⟨x, θ_l^j⟩` in hand, every one of the `∏ h_l`
//! candidates gets the score
//!
//! ```text
//! F_c = ‖x‖² + ‖μ_c‖² − 2·Σ_l s_l[c_l]
//! ```
//!
//! in one branch-free pass. `F_c` is not the kernel value `K_c` the
//! exhaustive scan computes — it is the expanded form, with differently
//! rounded terms — but `factored_error_bound` gives an additive
//! `E ≥ |F_c − K_c|` (and `≥ |F_c − D_c|` against the true squared
//! distance): the kernel error of both expressions, plus
//! `γ`-style terms for the per-set dot products and for rounding
//! `μ_c = fl(Σ_l θ_l)`, scaled by `‖x‖_max · Σ_l max_j ‖θ_l^j‖`, plus an
//! absolute underflow floor; it is `+∞` (no skipping at all) unless
//! every magnitude sits a factor 4 below overflow.
//!
//! A point that needs a scan evaluates its lowest-scoring candidate
//! exactly; that value (or the exact distance to the previous
//! assignment, whichever is lower, and then the running best) is the
//! gate. Candidate `c` is skipped iff `F_c − E > gate`, which implies
//! `K_c > gate ≥ final_min` — exactly the skip condition above, so
//! labels and distances stay bitwise equal to the exhaustive scans.
//! Survivors are evaluated in ascending order with the exact kernel
//! against the centroid of their path (the materialized grid row, or
//! `μ_c` re-aggregated on the fly). The point's lower bound for the next
//! iteration comes from the smallest score among the non-winning
//! candidates.
//!
//! The filter applies to `Aggregator::Sum` grids that need fewer dot
//! products than they have candidates (`Σ h_l < ∏ h_l`, so not 2+2 or
//! `p = 1`), in both KR paths: the materialized grid
//! ([`AssignEngine::assign_grid`]) and the on-the-fly path
//! ([`AssignEngine::assign_otf`]) rescan the points whose Hamerly bound
//! fails through it, the latter with the candidate norms of its
//! pre-pass (no `k × m` grid is stored). The `Product` aggregator does
//! not factor (`⟨x, θ_1 ∘ θ_2⟩` does not split into per-set dot
//! products) and keeps the tuple sweep, as do the Sum shapes the filter
//! does not apply to. The sweep gathers the points its gate leaves open
//! in blocks of 256 per chunk, walks every candidate once per block, and
//! skips a candidate for a point when the norm gate
//! `d(x, c) ≥ |‖x‖ − ‖c‖|` certifies it above the point's running best;
//! a chunk's sweep state is bounded by the block size, not the chunk's.
//!
//! The engine's cached norms, its drift snapshot (`k × m` for a dense
//! session, the factor sets on the fly) and every pass's temporaries live
//! in the [`kr_linalg::Scratch`] arena of its `ExecCtx`, so steady-state
//! Lloyd iterations stay O(1) allocations, one engine serves every
//! restart of a fit, and the next fit on the same context (the coreset
//! tree runs many small ones) reuses them instead of allocating. The
//! arena pools only `f64` and `usize` buffers, so the rows are the
//! engine's own: one vector, allocated for the first session on a
//! dataset size, shared by every session, freed with the engine.
//!
//! [`PruneStats`] counts exact evaluations, certified skips, and bound
//! refreshes for the benches (telemetry only — counters may differ
//! across thread counts even though results cannot). Chunks add them
//! into atomics; with the `obs` feature each `assign_*` call then emits
//! its non-zero totals once, as `assign.dists_computed` /
//! `assign.dists_skipped` / `assign.bound_updates`, inside the
//! `assign.pass` span (labelled with `k`) the call opens. A trace's
//! counter totals therefore equal the engine's `PruneStats`.

use crate::aggregator::Aggregator;
use crate::kmeans::nearest_centroid;
use crate::operator::{aggregate_tuple_into, CentroidIndexer};
use kr_linalg::{ops, parallel, simd, ExecCtx, Matrix, PruneMode, Scratch};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-fit pruning counters, exposed on the fitted models.
///
/// Telemetry only: the counters never influence results, and chunk
/// scheduling may shift *when* a bound tightens, so they are not part of
/// the bitwise contract (labels/centroids/inertia are).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Exact kernel distance evaluations performed. The factored
    /// filter's per-set dot products `⟨x, θ_l^j⟩` are not distances and
    /// are not counted here, nor are the k-means++ seeder's `n·k`
    /// evaluations. The seeder hands its assignment to the first pass of
    /// a k-means++ restart, which therefore counts one gate evaluation per
    /// point (and its rescans) where a scan counted `k`. That pass's skips
    /// raise the skip ratio, but they are distances the seeder computed,
    /// not ones a bound pruned.
    pub dists_computed: u64,
    /// Candidate evaluations skipped under a certified bound.
    pub dists_skipped: u64,
    /// Bound refreshes (per-candidate tightenings, drift measurements,
    /// center–center matrix entries rebuilt).
    pub bound_updates: u64,
}

impl PruneStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: PruneStats) {
        self.dists_computed += other.dists_computed;
        self.dists_skipped += other.dists_skipped;
        self.bound_updates += other.bound_updates;
    }

    /// Fraction of candidate evaluations that were skipped
    /// (`0.0` when nothing was counted).
    pub fn skip_ratio(&self) -> f64 {
        let total = self.dists_computed + self.dists_skipped;
        if total == 0 {
            0.0
        } else {
            self.dists_skipped as f64 / total as f64
        }
    }
}

/// Thread-shared counters: chunks accumulate locally and publish once
/// per chunk. Integer sums are commutative, so totals are deterministic
/// for a fixed schedule shape even though add order is not.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    computed: AtomicU64,
    skipped: AtomicU64,
    updates: AtomicU64,
}

impl SharedStats {
    fn add(&self, computed: u64, skipped: u64, updates: u64) {
        if computed > 0 {
            self.computed.fetch_add(computed, Ordering::Relaxed);
        }
        if skipped > 0 {
            self.skipped.fetch_add(skipped, Ordering::Relaxed);
        }
        if updates > 0 {
            self.updates.fetch_add(updates, Ordering::Relaxed);
        }
    }

    /// Returns the counts and zeroes them.
    fn take(&self) -> PruneStats {
        PruneStats {
            dists_computed: self.computed.swap(0, Ordering::Relaxed),
            dists_skipped: self.skipped.swap(0, Ordering::Relaxed),
            bound_updates: self.updates.swap(0, Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Conservative floating-point margins.
//
// Bounds are kept in *true-distance* space. The certification chain
// needs exactly one comparison to be reliable: "the value the kernel
// would compute for candidate c is strictly greater than this computed
// gate". Every helper below is slack in the safe direction, so a bound
// can only lose pruning power, never correctness.
// ---------------------------------------------------------------------

/// Relative slack applied to every square root and decay step.
const REL_SLACK: f64 = 1e-12;

/// Additive bound `(m + 64)·2⁻⁴⁸·(‖x‖ + ‖c‖)²` on `|computed − true|`
/// for a squared distance at dimension `m`, with `‖x‖`, `‖c‖` the
/// largest magnitudes involved. It covers both forms in use (module
/// docs): the exact kernel `ops::sqdist`, whose error is at most
/// `γ_{m+2}·D ≤ γ_{m+2}·(‖x‖ + ‖c‖)²`, and the expanded form
/// `‖x‖² + ‖c‖² − 2⟨x,c⟩`, whose dot products and final cancellation
/// `2⁻⁴⁸ ≈ 16·ε` absorbs with generous headroom.
fn kernel_error_bound(m: usize, max_x_sq: f64, max_c_sq: f64) -> f64 {
    let x = if max_x_sq > 0.0 { max_x_sq } else { 0.0 };
    let c = if max_c_sq > 0.0 { max_c_sq } else { 0.0 };
    let cross = (x * c).sqrt();
    (m as f64 + 64.0) * 2.0_f64.powi(-48) * (x + c + 2.0 * cross)
}

/// Additive bound `E` on both `|F_c − K_c|` and `|F_c − D_c|` for the
/// factored score `F_c = ‖x‖² + ‖μ_c‖² − 2·Σ_l ⟨x, θ_l^{c_l}⟩` of a
/// `p`-set Sum grid (see the module docs), where `K_c` is the exact
/// kernel value and `D_c` the true squared distance to the computed
/// centroid. Two kernel error terms (one per expression, against
/// `D_c`), plus `γ`-style terms for the `p` per-set dot products, their
/// sum, and the rounding of `μ_c = fl(Σ_l θ_l)`, each at most
/// `‖x‖·Σ_l ‖θ_l‖` in size (`theta_sum` bounds `Σ_l max_j ‖θ_l^j‖`), with
/// the same headroom constant, plus an absolute floor for subnormal
/// rounding. Returns `+∞` — no skips — when any input is NaN or
/// infinite, or when an intermediate could come within a factor 4 of
/// overflow.
fn factored_error_bound(m: usize, p: usize, max_x_sq: f64, max_c_sq: f64, theta_sum: f64) -> f64 {
    let x = if max_x_sq > 0.0 { max_x_sq.sqrt() } else { 0.0 };
    let cross = x * theta_sum;
    if !(4.0 * (max_x_sq + max_c_sq + 2.0 * cross)).is_finite() {
        return f64::INFINITY;
    }
    let g = (m + p) as f64 + 64.0;
    2.0 * kernel_error_bound(m, max_x_sq, max_c_sq)
        + g * (2.0_f64.powi(-47) * cross + f64::MIN_POSITIVE)
}

/// Largest entry of `v` (0 for an empty slice), or NaN if any entry is
/// NaN, so a non-finite input disables the bound it feeds instead of
/// dropping out of the maximum.
fn max_or_nan(v: &[f64]) -> f64 {
    let mut mx = 0.0;
    for &x in v {
        if x > mx || x.is_nan() {
            mx = x;
        }
    }
    mx
}

/// Largest squared row norm of `rows` (0 when there are none).
fn max_sq_norm(rows: &Matrix) -> f64 {
    let mut mx = 0.0;
    for r in rows.rows_iter() {
        let v = ops::sq_norm(r);
        if v > mx {
            mx = v;
        }
    }
    mx
}

/// Lower bound on the **true** distance given a computed squared
/// distance with additive error at most `err`.
fn dist_lower(d_sq: f64, err: f64) -> f64 {
    let v = d_sq - err;
    if v > 0.0 {
        v.sqrt() * (1.0 - REL_SLACK)
    } else {
        0.0
    }
}

/// Upper bound on the **true** distance given a computed squared
/// distance with additive error at most `err`.
fn dist_upper(d_sq: f64, err: f64) -> f64 {
    let v = d_sq + err;
    if v > 0.0 {
        v.sqrt() * (1.0 + REL_SLACK)
    } else {
        0.0
    }
}

/// A floor below the value the kernel would *compute* for any candidate
/// whose true distance is at least `lo`: true squared distance is at
/// least `lo²`, and the computed value undershoots it by at most `err`.
/// Skipping is sound whenever this floor strictly exceeds a computed
/// gate.
fn certified_floor(lo: f64, err: f64) -> f64 {
    let l = if lo > 0.0 { lo } else { 0.0 };
    l * l * (1.0 - REL_SLACK) - err
}

/// Decays a true-distance lower bound by a drift upper bound `delta`
/// (triangle inequality), with downward slack absorbing the subtraction
/// rounding.
fn decay_lower(l: f64, delta: f64) -> f64 {
    let v = l - delta;
    if v > 0.0 {
        v * (1.0 - REL_SLACK)
    } else {
        0.0
    }
}

/// Upper bound on the true distance from a *directly computed*
/// sum-of-squares (`ops::sqdist` — no cancellation, so the error is a
/// tiny relative term).
fn drift_upper(d_sq: f64) -> f64 {
    let v = if d_sq > 0.0 { d_sq } else { 0.0 };
    (v * (1.0 + 1e-9)).sqrt() * (1.0 + REL_SLACK)
}

/// Lower bound on a true distance from a directly computed
/// sum-of-squares (center–center rebuilds).
fn cc_lower(d_sq: f64) -> f64 {
    let v = d_sq * (1.0 - 1e-9);
    if v > 0.0 {
        v.sqrt() * (1.0 - REL_SLACK)
    } else {
        0.0
    }
}

/// Lower bound on the true Euclidean norm from a computed squared norm.
fn norm_lower(sq: f64, m: usize) -> f64 {
    let g = (m as f64 + 64.0) * 2.0_f64.powi(-50);
    let v = sq * (1.0 - g);
    if v > 0.0 {
        v.sqrt() * (1.0 - REL_SLACK)
    } else {
        0.0
    }
}

/// Upper bound on the true Euclidean norm from a computed squared norm.
fn norm_upper(sq: f64, m: usize) -> f64 {
    let g = (m as f64 + 64.0) * 2.0_f64.powi(-50);
    let v = if sq > 0.0 { sq } else { 0.0 };
    (v * (1.0 + g)).sqrt() * (1.0 + REL_SLACK)
}

/// What kind of candidate set the current session's state describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionKind {
    None,
    Dense,
    Otf,
}

/// Largest entry of `v`, NaNs ignored (0 for an empty slice): the largest
/// squared norm an error term covers.
fn max_entry(v: &[f64]) -> f64 {
    let mut mx = 0.0;
    for &x in v {
        if x > mx {
            mx = x;
        }
    }
    mx
}

/// The shared bounds-gated assignment engine.
///
/// One engine serves a whole fit (all `n_init` restarts): call
/// [`AssignEngine::begin_fit`] once per dataset, then
/// [`AssignEngine::begin_restart`] at each restart, then one of the
/// `assign_*` entry points per Lloyd iteration. Results are bitwise
/// identical to the exhaustive scans with pruning on or off; see the
/// module docs for the argument.
#[derive(Debug)]
pub struct AssignEngine {
    exec: ExecCtx,
    n: usize,
    m: usize,
    k: usize,
    session: SessionKind,
    /// Bounds in `rows` describe the snapshot in `prev`/`prev_sets`.
    ready: bool,
    max_x_sq: f64,
    x_norms: Vec<f64>,
    /// One row per point, in every session.
    rows: Vec<DistRow>,
    prev: Vec<f64>,
    prev_sets: Vec<Vec<f64>>,
    prev_sets_dims: Vec<(usize, usize)>,
    /// The counters of the call in progress.
    stats: SharedStats,
    total: PruneStats,
}

impl AssignEngine {
    /// Creates an engine bound to (a clone of) `exec`: its scratch
    /// arena, pool, and [`PruneMode`].
    pub fn new(exec: &ExecCtx) -> Self {
        AssignEngine {
            exec: exec.clone(),
            n: 0,
            m: 0,
            k: 0,
            session: SessionKind::None,
            ready: false,
            max_x_sq: 0.0,
            x_norms: Vec::new(),
            rows: Vec::new(),
            prev: Vec::new(),
            prev_sets: Vec::new(),
            prev_sets_dims: Vec::new(),
            stats: SharedStats::default(),
            total: PruneStats::default(),
        }
    }

    /// Caches per-point squared norms for `data` and invalidates every
    /// bound. Must be called before the first `assign_*` on a dataset.
    /// The norms feed the error bound, the factored filter's scores and
    /// the tuple sweep's norm gate, never an output bit.
    pub fn begin_fit(&mut self, data: &Matrix) {
        let (n, m) = data.shape();
        self.n = n;
        self.m = m;
        self.session = SessionKind::None;
        self.ready = false;
        let scratch = self.exec.scratch().clone();
        scratch.put_f64(std::mem::take(&mut self.x_norms));
        let mut xn = scratch.take_f64_uninit(0);
        data.row_sq_norms_into(&mut xn);
        self.max_x_sq = max_entry(&xn);
        self.x_norms = xn;
    }

    /// Invalidates bound state between restarts (cached data norms are
    /// kept — the dataset has not changed).
    pub fn begin_restart(&mut self) {
        self.ready = false;
    }

    /// Counters accumulated since construction or the last
    /// [`AssignEngine::take_stats`].
    pub fn stats(&self) -> PruneStats {
        self.total
    }

    /// Returns and resets the accumulated counters.
    pub fn take_stats(&mut self) -> PruneStats {
        std::mem::take(&mut self.total)
    }

    /// Ends an `assign_*` call: folds its counters into the total and,
    /// with the `obs` feature, emits the non-zero ones once.
    fn close_pass(&mut self) {
        let pass = self.stats.take();
        self.total.merge(pass);
        if pass.dists_computed > 0 {
            kr_obs::counter!("assign.dists_computed", pass.dists_computed);
        }
        if pass.dists_skipped > 0 {
            kr_obs::counter!("assign.dists_skipped", pass.dists_skipped);
        }
        if pass.bound_updates > 0 {
            kr_obs::counter!("assign.bound_updates", pass.bound_updates);
        }
    }

    /// Nearest-centroid assignment against a dense centroid matrix —
    /// the `KMeans` / `WeightedKMeans` / time-efficient `KrKMeans` hot
    /// path. Bitwise identical to `exhaustive_dense` in every
    /// [`PruneMode`].
    pub fn assign_dense(
        &mut self,
        data: &Matrix,
        centroids: &Matrix,
        labels: &mut [usize],
        dmin: &mut [f64],
    ) {
        self.assign_materialized(data, centroids, None, labels, dmin);
    }

    /// Assignment against a materialized Khatri-Rao grid (the
    /// time-efficient `KrKMeans` variant): `grid` must be
    /// `khatri_rao(sets, agg)`. Bitwise identical to `exhaustive_dense`
    /// on `grid` in every [`PruneMode`].
    ///
    /// The Hamerly pass is [`AssignEngine::assign_dense`]'s; `sets` and
    /// `agg` are read to rescan the points whose bound fails through the
    /// factored filter (module docs) when it applies — a Sum grid with
    /// `Σ h_l < ∏ h_l` — and through the full scan otherwise.
    pub fn assign_grid(
        &mut self,
        data: &Matrix,
        grid: &Matrix,
        sets: &[Matrix],
        agg: Aggregator,
        labels: &mut [usize],
        dmin: &mut [f64],
    ) {
        let factors = filter_applies(sets, agg).then_some(sets);
        self.assign_materialized(data, grid, factors, labels, dmin);
    }

    /// The Hamerly pass over a dense centroid matrix; `sets` (a Sum grid
    /// the filter applies to) routes every rescan through the filter.
    fn assign_materialized(
        &mut self,
        data: &Matrix,
        centroids: &Matrix,
        sets: Option<&[Matrix]>,
        labels: &mut [usize],
        dmin: &mut [f64],
    ) {
        debug_assert_eq!(data.shape(), (self.n, self.m), "begin_fit saw other data");
        debug_assert_eq!(centroids.ncols(), self.m);
        let k = centroids.nrows();
        let _pass = kr_obs::span!("assign.pass", "k" => k);
        if self.exec.prune_mode() == PruneMode::Off {
            exhaustive_dense(data, centroids, labels, dmin, &self.exec, Some(&self.stats));
            self.ready = false;
            self.close_pass();
            return;
        }
        let m = self.m;
        self.ensure_dense_session(k);
        let scratch = self.exec.scratch().clone();
        let mut c_norms = scratch.take_f64_uninit(0);
        centroids.row_sq_norms_into(&mut c_norms);
        let err = kernel_error_bound(m, self.max_x_sq, max_entry(&c_norms));
        let fz = sets.map(|s| Factored::new(s, &c_norms, &self.x_norms, self.max_x_sq, m));
        // The drift since the snapshot, measured in place: the snapshot
        // is already `k × m`, and `max_drift` would copy each row.
        let delta = self.ready.then(|| {
            let mut delta_max = 0.0;
            for (c, row) in centroids.rows_iter().enumerate() {
                let d = drift_upper(ops::sqdist(&self.prev[c * m..(c + 1) * m], row));
                if d > delta_max {
                    delta_max = d;
                }
            }
            self.stats.add(0, 0, k as u64);
            delta_max
        });
        let pass = hamerly_pass(
            &mut self.rows,
            data,
            Candidates::Rows(centroids, fz.as_ref()),
            |r, x| ops::sqdist(x, centroids.row(r.bound.label as usize)),
            delta,
            err,
            &self.exec,
        );
        self.prev.copy_from_slice(centroids.as_slice());
        scratch.put_f64(c_norms);
        self.finish_pass(pass, labels, dmin);
    }

    /// Ends a pruned pass: its counters join the call's, the bounds now
    /// describe the snapshot, and every row's label and distance go out.
    fn finish_pass(&mut self, pass: PruneStats, labels: &mut [usize], dmin: &mut [f64]) {
        self.stats
            .add(pass.dists_computed, pass.dists_skipped, pass.bound_updates);
        self.ready = true;
        for (i, row) in self.rows.iter().enumerate() {
            labels[i] = row.bound.label as usize;
            dmin[i] = row.dist;
        }
        self.close_pass();
    }

    /// Opens a session of `kind` for `k` centroids, whose bounds are
    /// invalid until its first pass. The rows are allocated once per
    /// dataset size, and every session shares them.
    fn open_session(&mut self, kind: SessionKind, k: usize) {
        self.session = kind;
        self.k = k;
        self.ready = false;
        if self.rows.len() != self.n {
            self.rows = vec![DistRow::default(); self.n];
        }
    }

    /// Opens the dense session of a k-means++ restart and returns its
    /// seeds: `seed` runs the seeder on the session's rows
    /// ([`DistRow::offer_seed`]) and returns the `k` seeds, which are rows
    /// of the data given to [`AssignEngine::begin_fit`]. The rows then
    /// hold the exhaustive first assignment against the seeds. With
    /// pruning on the engine adopts it: the seeds become the drift
    /// snapshot and each runner-up a true-distance lower bound, under the
    /// error term of two data rows, so the first
    /// [`AssignEngine::assign_dense`] against the seeds gates every point
    /// with one distance instead of a scan.
    pub(crate) fn seed_dense(
        &mut self,
        k: usize,
        seed: impl FnOnce(&mut [DistRow]) -> Matrix,
    ) -> Matrix {
        self.ensure_dense_session(k);
        let seeds = seed(&mut self.rows);
        self.ready = self.exec.prune_mode() == PruneMode::On;
        if self.ready {
            let err = kernel_error_bound(self.m, self.max_x_sq, self.max_x_sq);
            for row in &mut self.rows {
                let runner = f64::from(row.bound.lower);
                row.bound.lower = f32_toward_zero(dist_lower(runner, err));
            }
            self.prev.copy_from_slice(seeds.as_slice());
        }
        seeds
    }

    /// Starts a dense session for `k` centroids unless one is open, with
    /// a `k × m` drift snapshot.
    fn ensure_dense_session(&mut self, k: usize) {
        if self.session == SessionKind::Dense && self.k == k {
            return;
        }
        self.open_session(SessionKind::Dense, k);
        if self.prev.len() != k * self.m {
            let scratch = self.exec.scratch().clone();
            scratch.put_f64(std::mem::take(&mut self.prev));
            self.prev = scratch.take_f64(k * self.m);
        }
    }
}

/// One point's row of [`ResidentBounds`] and the bound half of an engine
/// row: its label and a lower bound on the true distance to every other
/// centroid, rounded toward zero to `f32` so it stays a bound.
#[derive(Debug, Clone, Copy, Default)]
struct CompactRow {
    label: u32,
    lower: f32,
}

/// One point's row of every engine session: the compact bound plus the
/// exact distance to the label, the `dmin` that the `assign_*` calls
/// return. An on-the-fly pass first refreshes it to the label's current
/// centroid ([`AssignEngine::otf_label_dists`]), the distance its gate
/// reads. The k-means++ seeder keeps its per-point state in these rows
/// ([`DistRow::offer_seed`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DistRow {
    bound: CompactRow,
    dist: f64,
}

impl DistRow {
    /// A row before any seed: label 0 at `+∞`, runner-up `+∞`, the start
    /// of [`scan_point`]'s chain.
    const UNSEEDED: DistRow = DistRow {
        bound: CompactRow {
            label: 0,
            lower: f32::INFINITY,
        },
        dist: f64::INFINITY,
    };

    /// One step of the k-means++ seeder: seed `c` computes `d` against
    /// this point, seed 0 restarting the row. Seeds arrive in ascending
    /// order and go through [`scan_point`]'s strict-`<` chain, so after the
    /// last one the row holds the exhaustive label and its exact distance
    /// (the point's D²). The bound slot holds the runner-up's computed
    /// value rounded toward zero, which stays at or below it.
    pub(crate) fn offer_seed(&mut self, c: usize, d: f64) {
        if c == 0 {
            *self = DistRow::UNSEEDED;
        }
        if d < self.dist {
            self.bound.lower = f32_toward_zero(self.dist);
            self.bound.label = c as u32;
            self.dist = d;
        } else if d < f64::from(self.bound.lower) {
            self.bound.lower = f32_toward_zero(d);
        }
    }

    /// The exact distance to the label: a seeded point's D².
    pub(crate) fn dist(&self) -> f64 {
        self.dist
    }

    /// The label and the bound slot's value.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (usize, f32) {
        (self.bound.label as usize, self.bound.lower)
    }
}

/// A row of [`hamerly_pass`]: a [`CompactRow`] bound and whatever else
/// its store keeps per point.
trait HamerlyRow: Send {
    fn bound(&self) -> CompactRow;
    /// Records the point's label, the exact distance to it, and a
    /// true-distance lower bound on every other centroid.
    fn store(&mut self, label: usize, dist: f64, lower: f64);
}

impl HamerlyRow for CompactRow {
    fn bound(&self) -> CompactRow {
        *self
    }

    fn store(&mut self, label: usize, _dist: f64, lower: f64) {
        self.label = label as u32;
        self.lower = f32_toward_zero(lower);
    }
}

impl HamerlyRow for DistRow {
    fn bound(&self) -> CompactRow {
        self.bound
    }

    fn store(&mut self, label: usize, dist: f64, lower: f64) {
        self.bound.store(label, dist, lower);
        self.dist = dist;
    }
}

/// `v` rounded toward zero to `f32`, the largest `f32` not above it: the
/// nearest `f32`, stepped down one ulp where it rounded up (an overflow
/// to `+∞` steps to `f32::MAX`). Exact for `0` and `+∞`; `v` is never
/// negative or NaN here. Branch-free, as it runs once per point.
fn f32_toward_zero(v: f64) -> f32 {
    let f = v as f32;
    f32::from_bits(f.to_bits() - u32::from(f64::from(f) > v))
}

/// The candidates of one [`hamerly_pass`], and how it rescans a point
/// that its gate leaves open.
#[derive(Clone, Copy)]
enum Candidates<'a> {
    /// A materialized centroid matrix, rescanned through the factored
    /// filter when one is given, else through [`scan_point`].
    Rows(&'a Matrix, Option<&'a Factored<'a>>),
    /// An implicit Sum grid under its indexer, rescanned through the
    /// filter; each candidate the filter evaluates is aggregated on the
    /// fly.
    Implicit(&'a Factored<'a>, &'a CentroidIndexer),
}

impl Candidates<'_> {
    /// The exact kernel value of `x` against candidate `c`; an implicit
    /// candidate is aggregated into `mu` through `tuple`.
    fn eval(&self, x: &[f64], c: usize, mu: &mut [f64], tuple: &mut [usize]) -> f64 {
        match *self {
            Candidates::Rows(rows, _) => ops::sqdist(x, rows.row(c)),
            Candidates::Implicit(fz, indexer) => {
                indexer.to_tuple_into(c, tuple);
                aggregate_tuple_into(mu, fz.sets, tuple, Aggregator::Sum);
                ops::sqdist(x, mu)
            }
        }
    }
}

/// The one Hamerly pass over a row store, chunk-parallel on `exec`. When
/// `delta` bounds how far every centroid moved since the rows were
/// stored, each point takes [`hamerly_gate`] with `label_dist`, the exact
/// distance to its label, and keeps the label when certified. Otherwise,
/// and on a first pass (`delta` `None`), it rescans as `cands` says, with
/// the lower bound from the runner-up. Returns the pass's counters, one
/// bound update per rescan.
///
/// # Panics
/// Panics on more than 2^32 centroids (labels are `u32`).
fn hamerly_pass<R: HamerlyRow>(
    rows: &mut [R],
    data: &Matrix,
    cands: Candidates<'_>,
    label_dist: impl Fn(&R, &[f64]) -> f64 + Sync,
    delta: Option<f64>,
    err: f64,
    exec: &ExecCtx,
) -> PruneStats {
    let (k, mu_len, tuple_len) = match cands {
        Candidates::Rows(c, _) => (c.nrows(), 0, 0),
        Candidates::Implicit(fz, ix) => (fz.c_norms.len(), data.ncols(), ix.n_sets()),
    };
    assert!(
        k as u64 <= 1 << 32,
        "u32 labels need at most 2^32 centroids"
    );
    let stats = SharedStats::default();
    let scratch = exec.scratch();
    parallel::map_rows_into(exec, rows, 1, 1, |start, chunk| {
        let mut bufs: Option<FilterBufs> = None;
        let (mut comp, mut skip, mut upd) = (0u64, 0u64, 0u64);
        for (off, row) in chunk.iter_mut().enumerate() {
            let i = start + off;
            let x = data.row(i);
            let mut known = None;
            if let Some(delta) = delta {
                let b = row.bound();
                let a = b.label as usize;
                let d_a = label_dist(row, x);
                comp += 1;
                if let Some(l) = hamerly_gate(d_a, b.lower, delta, err) {
                    row.store(a, d_a, l);
                    skip += k as u64 - 1;
                    continue;
                }
                known = Some((a, d_a));
            }
            let (label, dist, lower) = match cands {
                Candidates::Rows(centroids, None) => {
                    let (best, best_d, runner, c) = scan_point(x, centroids, known);
                    comp += c;
                    (best, best_d, dist_lower(runner, err))
                }
                Candidates::Rows(_, Some(fz)) | Candidates::Implicit(fz, _) => {
                    let bufs = bufs
                        .get_or_insert_with(|| FilterBufs::take(scratch, fz, mu_len, tuple_len));
                    let s = fz.scan(x, fz.x_norms[i], known, bufs, |c, mu, tuple| {
                        cands.eval(x, c, mu, tuple)
                    });
                    comp += s.computed;
                    skip += s.skipped;
                    (s.label, s.dist, s.lower)
                }
            };
            row.store(label, dist, lower);
            upd += 1;
        }
        stats.add(comp, skip, upd);
        if let Some(b) = bufs {
            b.put(scratch);
        }
    });
    stats.take()
}

/// The gate of one point's Hamerly step, given the exact distance `d_a`
/// to its label: `lower`, a true-distance bound on every other candidate
/// when the row was stored, decayed by the drift bound `delta`, when that
/// certifies that every other candidate computes strictly above `d_a`.
/// Then the exhaustive argmin is uniquely the label; otherwise the caller
/// rescans with `d_a` known.
fn hamerly_gate(d_a: f64, lower: f32, delta: f64, err: f64) -> Option<f64> {
    let l = decay_lower(f64::from(lower), delta);
    (certified_floor(l, err) > d_a).then_some(l)
}

/// Full ascending scan of one point: the exhaustive strict-`<` argmin
/// (lowest index on ties, as [`nearest_centroid`] picks it), its
/// distance, and the runner-up's computed value. `known` is a candidate
/// whose kernel value was already computed; its bits are reused. Returns
/// `(label, distance, runner-up, distances evaluated)`.
fn scan_point(
    x: &[f64],
    centroids: &Matrix,
    known: Option<(usize, f64)>,
) -> (usize, f64, f64, u64) {
    let mut comp = 0u64;
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    let mut runner = f64::INFINITY;
    for (c, crow) in centroids.rows_iter().enumerate() {
        let d = match known {
            Some((a, d_a)) if a == c => d_a,
            _ => {
                comp += 1;
                ops::sqdist(x, crow)
            }
        };
        if d < best_d {
            runner = best_d;
            best_d = d;
            best = c;
        } else if d < runner {
            runner = d;
        }
    }
    (best, best_d, runner, comp)
}

/// The smallest and second-smallest entries of `v` as a multiset (`+∞`
/// where there are none; NaNs never count). Four independent lanes, so
/// the compare chain is branch-free and a quarter as long.
fn two_smallest(v: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::INFINITY; 4];
    let mut push = |l: usize, f: f64| {
        let (small, large) = if f < lo[l] { (f, lo[l]) } else { (lo[l], f) };
        lo[l] = small;
        if large < hi[l] {
            hi[l] = large;
        }
    };
    let mut chunks = v.chunks_exact(4);
    for ch in &mut chunks {
        for (l, &f) in ch.iter().enumerate() {
            push(l, f);
        }
    }
    for &f in chunks.remainder() {
        push(0, f);
    }
    let (mut f1, mut f2) = (lo[0], hi[0]);
    for l in 1..4 {
        let (small, large) = if lo[l] < f1 { (lo[l], f1) } else { (f1, lo[l]) };
        let second = if hi[l] < large { hi[l] } else { large };
        f1 = small;
        if second < f2 {
            f2 = second;
        }
    }
    (f1, f2)
}

/// Whether the factored filter applies: a Sum grid whose `Σ h_l` per-set
/// dot products are fewer than its `∏ h_l` candidates.
fn filter_applies(sets: &[Matrix], agg: Aggregator) -> bool {
    if agg != Aggregator::Sum {
        return false;
    }
    let mut sum = 0usize;
    let mut prod = 1usize;
    for s in sets {
        sum += s.nrows();
        prod = prod.saturating_mul(s.nrows());
    }
    sum < prod
}

/// The factored filter's view of one `Aggregator::Sum` grid: the factor
/// sets, every candidate's squared norm (the `‖μ_c‖²` of its score), the
/// data's squared row norms (the `‖x‖²`), and the error term `E` (see the
/// module docs).
struct Factored<'a> {
    sets: &'a [Matrix],
    c_norms: &'a [f64],
    x_norms: &'a [f64],
    total_h: usize,
    e: f64,
}

/// Per-chunk working buffers of the factored filter — the `Σ h_l` dot
/// products, the `k` scores, and (on the fly only) one aggregated
/// centroid and one tuple — drawn from the engine's [`Scratch`] arena
/// so steady-state passes allocate nothing.
struct FilterBufs {
    dots: Vec<f64>,
    scores: Vec<f64>,
    mu: Vec<f64>,
    tuple: Vec<usize>,
}

impl FilterBufs {
    fn take(scratch: &Scratch, fz: &Factored, mu_len: usize, tuple_len: usize) -> Self {
        FilterBufs {
            dots: scratch.take_f64_uninit(fz.total_h),
            scores: scratch.take_f64_uninit(fz.c_norms.len()),
            mu: scratch.take_f64_uninit(mu_len),
            tuple: scratch.take_usize(tuple_len),
        }
    }

    /// Returns the buffers in reverse order of [`FilterBufs::take`], so
    /// the next pass pops each one back into the same role.
    fn put(self, scratch: &Scratch) {
        scratch.put_usize(self.tuple);
        scratch.put_f64(self.mu);
        scratch.put_f64(self.scores);
        scratch.put_f64(self.dots);
    }
}

/// Outcome of one filtered scan of a point.
struct FilterScan {
    label: usize,
    /// The exact value of the winner (as the caller's `eval` returns it).
    dist: f64,
    /// Certified true-distance lower bound on every other candidate.
    lower: f64,
    computed: u64,
    skipped: u64,
}

impl<'a> Factored<'a> {
    /// The filter for `sets` (a Sum grid, row-major flat order) whose
    /// candidate squared norms are `c_norms`, against data whose squared
    /// row norms are `x_norms`, the largest `max_x_sq`.
    fn new(
        sets: &'a [Matrix],
        c_norms: &'a [f64],
        x_norms: &'a [f64],
        max_x_sq: f64,
        m: usize,
    ) -> Self {
        let mut total_h = 0;
        let mut k = 1;
        let mut theta_sum = 0.0;
        for s in sets {
            total_h += s.nrows();
            k *= s.nrows();
            let mut mx = 0.0;
            for r in s.rows_iter() {
                let v = ops::sq_norm(r);
                if v > mx || v.is_nan() {
                    mx = v;
                }
            }
            theta_sum += if mx.is_nan() { mx } else { norm_upper(mx, m) };
        }
        debug_assert_eq!(c_norms.len(), k, "one norm per grid candidate");
        let max_c_sq = max_or_nan(c_norms);
        Factored {
            sets,
            c_norms,
            x_norms,
            total_h,
            e: factored_error_bound(m, sets.len(), max_x_sq, max_c_sq, theta_sum),
        }
    }

    /// Writes `s_l[j] = ⟨x, θ_l^j⟩` into `dots` and the score `F_c` of
    /// every candidate into `scores`. The per-set sums are expanded set
    /// by set in place (row-major flat order, left to right), back to
    /// front so every prefix sum is read before its slot is overwritten.
    /// The dot products use the lane kernels in either `KernelMode`:
    /// `E` holds for any summation order, and scores only decide skips,
    /// never an output bit.
    fn score(&self, x: &[f64], xn: f64, dots: &mut [f64], scores: &mut [f64]) {
        let mut off = 0;
        for s in self.sets {
            simd::dot_block(x, s.as_slice(), x.len(), 0, &mut dots[off..off + s.nrows()]);
            off += s.nrows();
        }
        let h0 = self.sets[0].nrows();
        scores[..h0].copy_from_slice(&dots[..h0]);
        let (mut len, mut off) = (h0, h0);
        for s in &self.sets[1..] {
            let h = s.nrows();
            let d = &dots[off..off + h];
            for a in (0..len).rev() {
                let prefix = scores[a];
                for (o, &dj) in scores[a * h..(a + 1) * h].iter_mut().zip(d) {
                    *o = prefix + dj;
                }
            }
            len *= h;
            off += h;
        }
        for (f, &cn) in scores.iter_mut().zip(self.c_norms) {
            *f = xn + cn - 2.0 * *f;
        }
    }

    /// Filtered argmin of one point. `eval(c)` is the exact kernel
    /// against candidate `c` (the value the exhaustive scan compares);
    /// `known` is a candidate whose value was already computed. Returns
    /// the exhaustive scan's strict-`<` ascending argmin and its value.
    fn scan(
        &self,
        x: &[f64],
        xn: f64,
        known: Option<(usize, f64)>,
        bufs: &mut FilterBufs,
        mut eval: impl FnMut(usize, &mut [f64], &mut [usize]) -> f64,
    ) -> FilterScan {
        let FilterBufs {
            dots,
            scores,
            mu,
            tuple,
        } = bufs;
        self.score(x, xn, dots, scores);
        let (f1, f2) = two_smallest(scores);
        let c1 = scores.iter().position(|&f| f == f1).unwrap_or(0);
        let (ka, kd) = known.unwrap_or((usize::MAX, f64::INFINITY));
        let mut computed = 0u64;
        let d1 = if c1 == ka {
            kd
        } else {
            computed += 1;
            eval(c1, mu, tuple)
        };
        // Both values are exact kernel values of real candidates, so the
        // final minimum is at most either; a NaN gate skips nothing.
        let mut gate = if kd < d1 { kd } else { d1 };
        let e = self.e;
        let (mut touched, mut c1_seen, mut ka_seen) = (0u64, false, false);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, &f) in scores.iter().enumerate() {
            if f - e > gate {
                continue;
            }
            touched += 1;
            let d = if c == c1 {
                c1_seen = true;
                d1
            } else if c == ka {
                ka_seen = true;
                kd
            } else {
                computed += 1;
                eval(c, mu, tuple)
            };
            if d < best_d {
                best_d = d;
                best = c;
                if d < gate {
                    gate = d;
                }
            }
        }
        // Skips count the candidates never evaluated: c1 and the known
        // candidate were, even when the loop passed them over.
        touched += u64::from(!c1_seen) + u64::from(ka < scores.len() && ka != c1 && !ka_seen);
        let runner = if best == c1 { f2 } else { f1 };
        FilterScan {
            label: best,
            dist: best_d,
            lower: dist_lower(runner, e),
            computed,
            skipped: scores.len() as u64 - touched,
        }
    }
}

impl AssignEngine {
    /// Assignment over the *implicit* Khatri-Rao grid (the
    /// memory-efficient `KrKMeans` variant): candidates are aggregated
    /// one at a time, never materialized. Bitwise identical to
    /// `exhaustive_otf` in every [`PruneMode`].
    ///
    /// The session keeps the dense session's rows and Hamerly gate
    /// (module docs), with drift measured per factor set and combined per
    /// the aggregator (triangle inequality for sums, a telescoping product
    /// bound for Hadamard products). The points the gate leaves open go
    /// through the factored filter where it applies, and otherwise through
    /// the tuple sweep, which norm-gates each candidate
    /// (`d(x,c) ≥ |‖x‖ − ‖c‖|`) against the running best.
    pub fn assign_otf(
        &mut self,
        data: &Matrix,
        sets: &[Matrix],
        indexer: &CentroidIndexer,
        agg: Aggregator,
        labels: &mut [usize],
        dmin: &mut [f64],
    ) {
        debug_assert_eq!(data.shape(), (self.n, self.m), "begin_fit saw other data");
        let k = indexer.n_centroids();
        let _pass = kr_obs::span!("assign.pass", "k" => k);
        if self.exec.prune_mode() == PruneMode::Off {
            exhaustive_otf(
                data,
                sets,
                indexer,
                agg,
                labels,
                dmin,
                &self.exec,
                Some(&self.stats),
            );
            self.ready = false;
            self.close_pass();
            return;
        }
        self.ensure_otf_session(k, sets);
        let m = self.m;
        let scratch = self.exec.scratch().clone();
        let mut mu = scratch.take_f64(m);
        let mut c_norms = scratch.take_f64_uninit(k);
        indexer.for_each_tuple(|flat, tuple| {
            aggregate_tuple_into(&mut mu, sets, tuple, agg);
            c_norms[flat] = ops::sq_norm(&mu);
        });
        let err = kernel_error_bound(m, self.max_x_sq, max_entry(&c_norms));
        let delta = self.ready.then(|| {
            self.otf_label_dists(data, sets, indexer, agg, &mut mu);
            self.otf_delta_max(sets, agg)
        });
        let pass = if filter_applies(sets, agg) {
            let fz = Factored::new(sets, &c_norms, &self.x_norms, self.max_x_sq, m);
            let cands = Candidates::Implicit(&fz, indexer);
            hamerly_pass(
                &mut self.rows,
                data,
                cands,
                |r, _| r.dist,
                delta,
                err,
                &self.exec,
            )
        } else {
            let sweep = Sweep {
                data,
                sets,
                indexer,
                agg,
                c_norms: &c_norms,
                x_norms: &self.x_norms,
                err,
            };
            sweep.pass(&mut self.rows, delta, &self.exec)
        };
        self.snapshot_sets(sets);
        scratch.put_f64(c_norms);
        scratch.put_f64(mu);
        self.finish_pass(pass, labels, dmin);
    }

    /// Starts an on-the-fly session for `k` centroids from factor sets of
    /// `sets`' shapes unless one is open, with a snapshot of the sets.
    fn ensure_otf_session(&mut self, k: usize, sets: &[Matrix]) {
        let dims_ok = self.prev_sets_dims.len() == sets.len()
            && self
                .prev_sets_dims
                .iter()
                .zip(sets.iter())
                .all(|(d, s)| *d == s.shape());
        if self.session == SessionKind::Otf && self.k == k && dims_ok {
            return;
        }
        self.open_session(SessionKind::Otf, k);
        let scratch = self.exec.scratch().clone();
        for buf in self.prev_sets.drain(..) {
            scratch.put_f64(buf);
        }
        self.prev_sets_dims.clear();
        for s in sets.iter() {
            let (h, m) = s.shape();
            self.prev_sets.push(scratch.take_f64(h * m));
            self.prev_sets_dims.push((h, m));
        }
    }

    /// Copies the factor sets into the drift snapshot (`Matrix` rows are
    /// contiguous, so each set is one `h × m` row-major slice).
    fn snapshot_sets(&mut self, sets: &[Matrix]) {
        for (dst, s) in self.prev_sets.iter_mut().zip(sets) {
            dst.copy_from_slice(s.as_slice());
        }
    }

    /// Largest row movement of one factor set since the snapshot, as a
    /// certified true-distance upper bound.
    fn factor_max_move(&self, l: usize, s: &Matrix) -> f64 {
        let (h, m) = self.prev_sets_dims[l];
        let prev = &self.prev_sets[l];
        let mut mx = 0.0;
        for r in 0..h {
            let d = ops::sqdist(&prev[r * m..(r + 1) * m], s.row(r));
            if d > mx {
                mx = d;
            }
        }
        drift_upper(mx)
    }

    /// Upper bound on how far *any* aggregated centroid moved since the
    /// snapshot, combined from per-factor movement. Sum: plain triangle
    /// inequality. Product: telescoping `∏new − ∏old`, each term padded
    /// by the max-abs of the other factors (old and new).
    fn otf_delta_max(&self, sets: &[Matrix], agg: Aggregator) -> f64 {
        let p = sets.len();
        let mut total = 0.0;
        match agg {
            Aggregator::Sum => {
                for (l, s) in sets.iter().enumerate() {
                    total += self.factor_max_move(l, s);
                }
            }
            Aggregator::Product => {
                let scratch = self.exec.scratch().clone();
                let mut maxabs = scratch.take_f64(p);
                for l in 0..p {
                    let mut ma = sets[l].max_abs();
                    for &v in self.prev_sets[l].iter() {
                        if v.abs() > ma {
                            ma = v.abs();
                        }
                    }
                    maxabs[l] = ma;
                }
                for (l, s) in sets.iter().enumerate() {
                    let mut coef = 1.0;
                    for (l2, &ma) in maxabs.iter().enumerate() {
                        if l2 != l {
                            coef *= ma;
                        }
                    }
                    total += coef * self.factor_max_move(l, s);
                }
                scratch.put_f64(maxabs);
            }
        }
        total * (1.0 + 1e-9)
    }

    /// The gate distances of an on-the-fly pass: stores in each row the
    /// exact distance from its point to its label's current centroid. A
    /// counting sort by label orders the points, so each occupied
    /// candidate is aggregated once, into `mu`. The kernel and the
    /// aggregate are a scan's, so a rescan that meets the label reuses
    /// these bits.
    fn otf_label_dists(
        &mut self,
        data: &Matrix,
        sets: &[Matrix],
        indexer: &CentroidIndexer,
        agg: Aggregator,
        mu: &mut [f64],
    ) {
        let scratch = self.exec.scratch().clone();
        let mut end = scratch.take_usize(self.k + 1);
        for row in &self.rows {
            end[row.bound.label as usize + 1] += 1;
        }
        for c in 0..self.k {
            end[c + 1] += end[c];
        }
        let mut order = scratch.take_usize(self.n);
        for (i, row) in self.rows.iter().enumerate() {
            let a = row.bound.label as usize;
            order[end[a]] = i;
            end[a] += 1;
        }
        // `end[a]` now ends label a's run, which starts where a − 1's ends.
        let mut tuple = scratch.take_usize(indexer.n_sets());
        let mut start = 0;
        for (a, &stop) in end[..self.k].iter().enumerate() {
            if start < stop {
                indexer.to_tuple_into(a, &mut tuple);
                aggregate_tuple_into(mu, sets, &tuple, agg);
                for &i in &order[start..stop] {
                    self.rows[i].dist = ops::sqdist(data.row(i), mu);
                }
            }
            start = stop;
        }
        scratch.put_usize(tuple);
        scratch.put_usize(order);
        scratch.put_usize(end);
    }
}

/// Open points one sweep block holds: a chunk's sweep state is bounded
/// by it, whatever the chunk's size, and stays in cache.
const SWEEP_BLOCK: usize = 256;

/// The tuple sweep of an on-the-fly pass over a grid the factored filter
/// does not apply to: Product grids, and Sum grids with `Σ h_l ≥ ∏ h_l`.
struct Sweep<'a> {
    data: &'a Matrix,
    sets: &'a [Matrix],
    indexer: &'a CentroidIndexer,
    agg: Aggregator,
    /// Every candidate's squared norm, from the norm pre-pass.
    c_norms: &'a [f64],
    x_norms: &'a [f64],
    err: f64,
}

impl Sweep<'_> {
    /// One chunk-parallel pass over `rows`: each point takes
    /// [`hamerly_pass`]'s gate, with the distance to its label read from
    /// its row, and the open points are swept in blocks. Returns the
    /// pass's counters, one bound update per swept point.
    ///
    /// # Panics
    /// Panics on more than 2^32 centroids (labels are `u32`).
    fn pass(&self, rows: &mut [DistRow], delta: Option<f64>, exec: &ExecCtx) -> PruneStats {
        let k = self.c_norms.len() as u64;
        assert!(k <= 1 << 32, "u32 labels need at most 2^32 centroids");
        let stats = SharedStats::default();
        let scratch = exec.scratch();
        parallel::map_rows_into(exec, rows, 1, 1, |start, chunk| {
            // The block's offsets in the chunk, then its labels and a tuple;
            // its per-point values, then an aggregated candidate.
            let mut idx = scratch.take_usize(2 * SWEEP_BLOCK + self.sets.len());
            let mut vals = scratch.take_f64_uninit(5 * SWEEP_BLOCK + self.data.ncols());
            let (at, rest) = idx.split_at_mut(SWEEP_BLOCK);
            let (mut comp, mut skip, mut upd) = (0u64, 0u64, 0u64);
            let mut next = 0;
            while next < chunk.len() {
                let mut len = 0;
                while len < SWEEP_BLOCK && next < chunk.len() {
                    let row = &mut chunk[next];
                    next += 1;
                    if let Some(delta) = delta {
                        comp += 1;
                        if let Some(l) = hamerly_gate(row.dist, row.bound.lower, delta, self.err) {
                            row.store(row.bound.label as usize, row.dist, l);
                            skip += k - 1;
                            continue;
                        }
                    }
                    at[len] = next - 1;
                    len += 1;
                }
                if len > 0 {
                    let known = delta.is_some();
                    let (c, s) = self.sweep_block(&at[..len], rest, &mut vals, start, chunk, known);
                    comp += c;
                    skip += s;
                    upd += len as u64;
                }
            }
            stats.add(comp, skip, upd);
            scratch.put_f64(vals);
            scratch.put_usize(idx);
        });
        stats.take()
    }

    /// Sweeps the open points at offsets `at` of `chunk` (which starts at
    /// point `start`): every candidate once, in flat order, aggregated,
    /// and per point either norm-gated against the smaller of its running
    /// best and (when `known`) the distance to its label in its row, or
    /// evaluated with the exact kernel, the label's bits reused. Stores
    /// each point's winner with its distance and the smaller of the
    /// runner-up's bound and the smallest norm-gate bound, both valid on
    /// every non-winning candidate. Returns `(computed, skipped)`.
    fn sweep_block(
        &self,
        at: &[usize],
        idx: &mut [usize],
        vals: &mut [f64],
        start: usize,
        chunk: &mut [DistRow],
        known: bool,
    ) -> (u64, u64) {
        let (m, len) = (self.data.ncols(), at.len());
        let (label, tuple) = idx.split_at_mut(SWEEP_BLOCK);
        let (best, vals) = vals.split_at_mut(SWEEP_BLOCK);
        let (runner, vals) = vals.split_at_mut(SWEEP_BLOCK);
        let (gated, vals) = vals.split_at_mut(SWEEP_BLOCK);
        let (x_lo, vals) = vals.split_at_mut(SWEEP_BLOCK);
        let (x_hi, mu) = vals.split_at_mut(SWEEP_BLOCK);
        let (label, best, runner) = (&mut label[..len], &mut best[..len], &mut runner[..len]);
        let (gated, x_lo, x_hi) = (&mut gated[..len], &mut x_lo[..len], &mut x_hi[..len]);
        for (j, &off) in at.iter().enumerate() {
            let xn = self.x_norms[start + off];
            x_lo[j] = norm_lower(xn, m);
            x_hi[j] = norm_upper(xn, m);
            label[j] = 0;
            best[j] = f64::INFINITY;
            runner[j] = f64::INFINITY;
            gated[j] = f64::INFINITY;
        }
        let (mut comp, mut skip) = (0u64, 0u64);
        for (c, &c_norm) in self.c_norms.iter().enumerate() {
            self.indexer.to_tuple_into(c, tuple);
            aggregate_tuple_into(mu, self.sets, tuple, self.agg);
            let (mu_lo, mu_hi) = (norm_lower(c_norm, m), norm_upper(c_norm, m));
            for (j, &off) in at.iter().enumerate() {
                let row = &chunk[off];
                let (ka, kd) = if known {
                    (row.bound.label as usize, row.dist)
                } else {
                    (usize::MAX, f64::INFINITY)
                };
                let d = if ka == c {
                    kd
                } else {
                    let gate = if best[j] < kd { best[j] } else { kd };
                    let mut lb = x_lo[j] - mu_hi;
                    let alt = mu_lo - x_hi[j];
                    if alt > lb {
                        lb = alt;
                    }
                    if certified_floor(lb, self.err) > gate {
                        if lb < gated[j] {
                            gated[j] = lb;
                        }
                        skip += 1;
                        continue;
                    }
                    comp += 1;
                    ops::sqdist(self.data.row(start + off), mu)
                };
                if d < best[j] {
                    runner[j] = best[j];
                    best[j] = d;
                    label[j] = c;
                } else if d < runner[j] {
                    runner[j] = d;
                }
            }
        }
        for (j, &off) in at.iter().enumerate() {
            let lr = dist_lower(runner[j], self.err);
            let lower = if gated[j] < lr { gated[j] } else { lr };
            chunk[off].store(label[j], best[j], lower);
        }
        (comp, skip)
    }
}

impl Drop for AssignEngine {
    fn drop(&mut self) {
        let scratch = self.exec.scratch().clone();
        scratch.put_f64(std::mem::take(&mut self.x_norms));
        scratch.put_f64(std::mem::take(&mut self.prev));
        for buf in self.prev_sets.drain(..) {
            scratch.put_f64(buf);
        }
    }
}

/// The exhaustive dense scan — the single reference implementation every
/// caller deduplicates onto (formerly triplicated across `kmeans.rs`,
/// `baselines/weighted.rs`, and the streaming batch path). Chunk-
/// parallel over points; per-point work is independent of the chunk
/// split, so results are identical at any thread count.
///
/// Each point takes [`crate::kmeans::nearest_centroid`]. The one
/// temporary, an interleaved `(label, dmin)` buffer of `2n` f64 rows
/// (labels round-trip exactly through f64 below 2^53), comes from
/// `exec`'s [`Scratch`] arena.
pub(crate) fn exhaustive_dense(
    data: &Matrix,
    centroids: &Matrix,
    labels: &mut [usize],
    dmin: &mut [f64],
    exec: &ExecCtx,
    stats: Option<&SharedStats>,
) {
    let n = data.nrows();
    let k = centroids.nrows();
    debug_assert_eq!(labels.len(), n);
    debug_assert_eq!(dmin.len(), n);
    debug_assert!(
        (k as u128) < (1u128 << 53),
        "centroid count must stay below 2^53 for exact f64 label round-trips"
    );
    let scratch = exec.scratch();
    // Width-2 rows, every element written before the read-back below.
    let mut buf = scratch.take_f64_uninit(2 * n);
    parallel::map_rows_into(exec, &mut buf, 2, 1, |start, chunk| {
        let mut rows = 0u64;
        for (off, out) in chunk.chunks_exact_mut(2).enumerate() {
            let (best, best_d) = nearest_centroid(data.row(start + off), centroids);
            out[0] = best as f64;
            out[1] = best_d;
            rows += 1;
        }
        if let Some(s) = stats {
            s.add(rows * k as u64, 0, 0);
        }
    });
    for (i, pair) in buf.chunks_exact(2).enumerate() {
        labels[i] = pair[0] as usize;
        dmin[i] = pair[1];
    }
    scratch.put_f64(buf);
}

/// The exhaustive on-the-fly scan over the implicit Khatri-Rao grid —
/// the reference every pruned [`AssignEngine::assign_otf`] run must
/// match bitwise. Enumerates all centroid combinations holding one
/// aggregated centroid at a time (Algorithm 1 lines 7-14 of the paper):
/// one chunk-parallel pass, in which each chunk walks every candidate in
/// flat order and keeps its points' running minimum, so a point's result
/// does not depend on the chunk split.
///
/// Temporaries — the per-point `(label, dmin)` running state (width-2
/// f64 rows, as in [`exhaustive_dense`]; a grid
/// [`crate::operator::checked_grid_size`] accepts has at most 2^32
/// candidates, whose flat labels round-trip exactly) and each chunk's
/// aggregated centroid — recycle through `exec`'s [`Scratch`] arena
/// across Lloyd iterations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exhaustive_otf(
    data: &Matrix,
    sets: &[Matrix],
    indexer: &CentroidIndexer,
    agg: Aggregator,
    labels: &mut [usize],
    dmin: &mut [f64],
    exec: &ExecCtx,
    stats: Option<&SharedStats>,
) {
    let n = data.nrows();
    let k = indexer.n_centroids();
    let scratch = exec.scratch();
    let mut buf = scratch.take_f64_uninit(2 * n);
    parallel::map_rows_into(exec, &mut buf, 2, 1, |start, chunk| {
        for slot in chunk.chunks_exact_mut(2) {
            slot[0] = 0.0;
            slot[1] = f64::INFINITY;
        }
        let mut mu = scratch.take_f64(data.ncols());
        let mut tuple = scratch.take_usize(indexer.n_sets());
        for c in 0..k {
            indexer.to_tuple_into(c, &mut tuple);
            aggregate_tuple_into(&mut mu, sets, &tuple, agg);
            for (off, slot) in chunk.chunks_exact_mut(2).enumerate() {
                let d = ops::sqdist(data.row(start + off), &mu);
                if d < slot[1] {
                    slot[0] = c as f64;
                    slot[1] = d;
                }
            }
        }
        scratch.put_usize(tuple);
        scratch.put_f64(mu);
        if let Some(s) = stats {
            s.add((chunk.len() / 2 * k) as u64, 0, 0);
        }
    });
    for (i, pair) in buf.chunks_exact(2).enumerate() {
        labels[i] = pair[0] as usize;
        dmin[i] = pair[1];
    }
    scratch.put_f64(buf);
}

/// Hamerly bounds kept for one fixed dataset across calls with moving
/// centroids — a federated client's shard from one round to the next.
///
/// Each point holds 8 bytes: a `u32` label and an `f32` lower bound.
/// [`ResidentBounds::assign`] runs the engine's Hamerly pass (the exact
/// distance to the previous label, a certified whole-point skip, else the
/// full ascending scan with runner-up) and, like
/// [`crate::kmeans::nearest_centroid`], picks the lowest-index strict-`<`
/// argmin, so labels are bitwise those of the exhaustive scan. It keeps
/// no distances: a caller that needs them recomputes `ops::sqdist` to
/// the label, the same bits for a finite point.
#[derive(Debug)]
pub struct ResidentBounds {
    rows: Vec<CompactRow>,
    /// The centroid count the rows describe (0: none yet).
    k: usize,
    /// Largest squared row norm of the dataset.
    max_x_sq: f64,
}

impl ResidentBounds {
    /// Bounds for `data`, all rescanned by the first
    /// [`ResidentBounds::assign`].
    pub fn new(data: &Matrix) -> Self {
        ResidentBounds {
            rows: vec![CompactRow::default(); data.nrows()],
            k: 0,
            max_x_sq: max_sq_norm(data),
        }
    }

    /// Assigns every row of `data` (the matrix given to
    /// [`ResidentBounds::new`]) to its nearest row of `centroids`, which
    /// have `data`'s width, chunk-parallel on `exec`, and returns the
    /// pass's counters.
    ///
    /// `drift` must bound how far (true distance) every centroid moved
    /// since the previous call; `None` rescans every point, as do a
    /// changed centroid count and [`PruneMode::Off`].
    ///
    /// # Panics
    /// Panics on no centroid or more than 2^32.
    pub fn assign(
        &mut self,
        data: &Matrix,
        centroids: &Matrix,
        drift: Option<f64>,
        exec: &ExecCtx,
    ) -> PruneStats {
        let k = centroids.nrows();
        assert!(k >= 1, "ResidentBounds needs a centroid");
        debug_assert_eq!(data.nrows(), self.rows.len(), "new saw other data");
        let delta = match drift {
            Some(d) if self.k == k && exec.prune_mode() == PruneMode::On => Some(d),
            _ => None,
        };
        self.k = k;
        let err = kernel_error_bound(data.ncols(), self.max_x_sq, max_sq_norm(centroids));
        hamerly_pass(
            &mut self.rows,
            data,
            Candidates::Rows(centroids, None),
            |r, x| ops::sqdist(x, centroids.row(r.label as usize)),
            delta,
            err,
            exec,
        )
    }

    /// The label of point `i` from the last [`ResidentBounds::assign`].
    pub fn label(&self, i: usize) -> usize {
        self.rows[i].label as usize
    }
}

/// The `drift` bound for [`ResidentBounds::assign`]: the largest
/// certified true distance between centroid `c` of the previous grid,
/// which `old(c, out)` writes into `out` (bitwise the row the previous
/// call assigned against), and row `c` of `grid`. A NaN distance makes
/// the bound `+∞`, which certifies nothing.
pub fn max_drift(grid: &Matrix, mut old: impl FnMut(usize, &mut [f64])) -> f64 {
    let mut prev = vec![0.0; grid.ncols()];
    let mut delta = 0.0;
    for (c, row) in grid.rows_iter().enumerate() {
        old(c, &mut prev);
        let d_sq = ops::sqdist(&prev, row);
        let d = if d_sq.is_nan() {
            f64::INFINITY
        } else {
            drift_upper(d_sq)
        };
        if d > delta {
            delta = d;
        }
    }
    delta
}

/// Persistent center–center lower bounds for streaming assignment.
///
/// No library path calls this type: the mini-batch fitter assigns with
/// the exhaustive scan, which measured faster than keeping these bounds
/// in step. It stays only because perfbench's `replay_minibatch` still
/// imports it.
///
/// A caller runs [`CcBounds::sync`] once per batch with the current
/// centroids and then [`CcBounds::assign`] on the batch. `sync`
/// measures the exact per-centroid drift since the previous snapshot
/// and *decays* the stored pairwise lower bounds by it (each entry
/// `cc[a][b]` shrinks by `drift_a + drift_b`, the triangle-inequality
/// worst case), so bounds stay valid across arbitrarily many batches
/// without a rebuild. When the accumulated decay exceeds a quarter of
/// the mean off-diagonal separation measured at build time the bounds
/// have lost most of their pruning power, and the matrix is rebuilt
/// from exact pairwise distances (counted in [`CcBounds::rebuilds`] —
/// the drift-invalidation regression test pins this trigger).
///
/// `assign` is bitwise identical to the exhaustive scan in
/// `exhaustive_dense`: candidates are visited in the same ascending
/// order with the same exact kernel, and a candidate is skipped only
/// when its certified floor strictly exceeds the already-computed
/// running best.
#[derive(Debug, Clone, Default)]
pub struct CcBounds {
    k: usize,
    m: usize,
    prev: Vec<f64>,
    cc: Vec<f64>,
    drift: Vec<f64>,
    cc_scale: f64,
    decay_budget: f64,
    rebuilds: u64,
    stats: PruneStats,
}

impl CcBounds {
    /// Refreshes the bounds against the current centroids: measures
    /// drift since the last snapshot, decays the pairwise lower bounds,
    /// and rebuilds them outright when the decay budget is exhausted
    /// (or the centroid shape changed).
    pub fn sync(&mut self, centroids: &Matrix) {
        let (k, m) = centroids.shape();
        if self.k != k || self.m != m || self.prev.is_empty() {
            self.k = k;
            self.m = m;
            self.prev.clear();
            self.prev.resize(k * m, 0.0);
            self.cc.clear();
            self.cc.resize(k * k, 0.0);
            self.drift.clear();
            self.drift.resize(k, 0.0);
            self.rebuild(centroids);
            return;
        }
        let mut dmax = 0.0;
        for c in 0..k {
            let d = drift_upper(ops::sqdist(
                &self.prev[c * m..(c + 1) * m],
                centroids.row(c),
            ));
            self.drift[c] = d;
            if d > dmax {
                dmax = d;
            }
        }
        self.decay_budget += dmax;
        if self.decay_budget > 0.25 * self.cc_scale {
            self.rebuild(centroids);
            return;
        }
        for a in 0..k {
            for b in 0..k {
                if a != b {
                    self.cc[a * k + b] =
                        decay_lower(self.cc[a * k + b], self.drift[a] + self.drift[b]);
                }
            }
        }
        self.stats.bound_updates += (k * k) as u64;
        self.snapshot(centroids);
    }

    fn rebuild(&mut self, centroids: &Matrix) {
        let k = self.k;
        for a in 0..k {
            for b in (a + 1)..k {
                let lo = cc_lower(ops::sqdist(centroids.row(a), centroids.row(b)));
                self.cc[a * k + b] = lo;
                self.cc[b * k + a] = lo;
            }
        }
        // Mean off-diagonal separation: the scale against which decay
        // is budgeted. Manual accumulation (ordered, fold-free).
        let mut acc = 0.0;
        let mut cnt = 0u64;
        for a in 0..k {
            for b in 0..k {
                if a != b {
                    acc += self.cc[a * k + b];
                    cnt += 1;
                }
            }
        }
        self.cc_scale = if cnt > 0 { acc / cnt as f64 } else { 0.0 };
        self.decay_budget = 0.0;
        self.rebuilds += 1;
        self.stats.bound_updates += (k * k) as u64;
        self.snapshot(centroids);
    }

    fn snapshot(&mut self, centroids: &Matrix) {
        let m = self.m;
        for c in 0..self.k {
            self.prev[c * m..(c + 1) * m].copy_from_slice(centroids.row(c));
        }
    }

    /// Nearest-centroid assignment for one batch, gated by the
    /// persistent bounds. Bitwise identical to `exhaustive_dense` on
    /// the same inputs.
    pub fn assign(&mut self, data: &Matrix, centroids: &Matrix, exec: &ExecCtx) -> AssignOut {
        let n = data.nrows();
        let k = self.k;
        let m = self.m;
        debug_assert_eq!(centroids.shape(), (k, m), "sync before assign");
        let scratch = exec.scratch();
        let err = kernel_error_bound(m, max_sq_norm(data), max_sq_norm(centroids));
        let shared = SharedStats::default();
        let cc = &self.cc;
        let mut buf = scratch.take_f64_uninit(2 * n);
        parallel::map_rows_into(exec, &mut buf, 2, 1, |start, chunk| {
            let mut comp = 0u64;
            let mut skip = 0u64;
            for (off, out) in chunk.chunks_exact_mut(2).enumerate() {
                let x = data.row(start + off);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                let mut u = f64::INFINITY;
                for (c, crow) in centroids.rows_iter().enumerate() {
                    if c > 0 && best_d < f64::INFINITY {
                        // d(x, c) ≥ d(best, c) − d(x, best): when the
                        // certified floor beats the running best the
                        // exact value cannot win the strict-< argmin.
                        let lb = cc[best * k + c] - u;
                        if certified_floor(lb, err) > best_d {
                            skip += 1;
                            continue;
                        }
                    }
                    let d = ops::sqdist(x, crow);
                    comp += 1;
                    if d < best_d {
                        best_d = d;
                        best = c;
                        u = dist_upper(d, err);
                    }
                }
                out[0] = best as f64;
                out[1] = best_d;
            }
            shared.add(comp, skip, 0);
        });
        let mut labels = vec![0usize; n];
        let mut dmin = vec![0.0; n];
        for (i, pair) in buf.chunks_exact(2).enumerate() {
            labels[i] = pair[0] as usize;
            dmin[i] = pair[1];
        }
        scratch.put_f64(buf);
        self.stats.merge(shared.take());
        (labels, dmin)
    }

    /// Cumulative pruning counters across every batch since creation.
    pub fn stats(&self) -> PruneStats {
        self.stats
    }

    /// How many times the pairwise bound matrix was rebuilt from exact
    /// distances (including the initial build).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }
}

/// `(labels, dmin)` pair returned by [`CcBounds::assign`].
pub type AssignOut = (Vec<usize>, Vec<f64>);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_are_conservative() {
        let err = kernel_error_bound(16, 100.0, 50.0);
        assert!(err > 0.0 && err < 1e-9);
        assert!(dist_lower(4.0, err) <= 2.0);
        assert!(dist_upper(4.0, err) >= 2.0);
        assert!(dist_lower(-1.0, err) == 0.0);
        assert!(decay_lower(3.0, 1.0) <= 2.0);
        assert!(decay_lower(1.0, 5.0) == 0.0);
        // The floor never exceeds what a candidate at distance >= lo
        // can compute: floor <= lo^2 - err.
        let lo = 3.0;
        assert!(certified_floor(lo, err) <= lo * lo - err);
        assert!(certified_floor(-2.0, err) <= 0.0);
        assert!(norm_lower(9.0, 8) <= 3.0);
        assert!(norm_upper(9.0, 8) >= 3.0);
        assert!(cc_lower(25.0) <= 5.0);
        assert!(drift_upper(25.0) >= 5.0);
    }

    /// The factored score's `E` bounds the measured gap to the exact
    /// kernel value and to the directly summed squared distance, under
    /// the cancellation of offsets up to 1e6 with spreads from 1e-6 to
    /// 1e6, for p = 2 and 3; and it disables skipping on non-finite or
    /// near-overflow inputs.
    #[test]
    fn factored_error_bound_covers_measured_gap() {
        let val = |i: usize, j: usize, salt: usize| {
            ((i * 7 + j * 3 + salt * 5) % 11) as f64 / 5.0 - 1.0
                + ((i * j + salt) % 3) as f64 * 0.123
        };
        let mut worst = 0.0f64;
        for hs in [vec![3usize, 4], vec![2, 3, 2]] {
            for m in [1usize, 3, 8] {
                for offset in [0.0, 1.0, 1e3, 1e6] {
                    for spread in [1e-6, 1e-2, 1.0, 1e3, 1e6] {
                        let data = Matrix::from_fn(12, m, |i, j| offset + spread * val(i, j, 0));
                        let sets: Vec<Matrix> = hs
                            .iter()
                            .enumerate()
                            .map(|(l, &h)| {
                                let share = [0.3, 0.7, 0.0][l] * offset;
                                Matrix::from_fn(h, m, |i, j| share + spread * val(i, j, l + 1))
                            })
                            .collect();
                        let grid = crate::operator::khatri_rao(&sets, Aggregator::Sum).unwrap();
                        let (mut c_norms, mut x_norms) = (Vec::new(), Vec::new());
                        grid.row_sq_norms_into(&mut c_norms);
                        data.row_sq_norms_into(&mut x_norms);
                        let fz = Factored::new(&sets, &c_norms, &x_norms, max_or_nan(&x_norms), m);
                        assert!(fz.e.is_finite() && fz.e > 0.0);
                        let mut dots = vec![0.0; fz.total_h];
                        let mut scores = vec![0.0; grid.nrows()];
                        for (x, &xn) in data.rows_iter().zip(x_norms.iter()) {
                            fz.score(x, xn, &mut dots, &mut scores);
                            for (c, &f) in scores.iter().enumerate() {
                                let kc = xn + c_norms[c] - 2.0 * ops::dot(x, grid.row(c));
                                let dc = ops::sqdist(x, grid.row(c));
                                let gap = (f - kc).abs().max((f - dc).abs());
                                assert!(
                                    gap <= fz.e,
                                    "hs {hs:?} m {m} offset {offset:e} spread {spread:e}: \
                                     |F − K| or |F − D| = {gap:e} > E = {:e}",
                                    fz.e
                                );
                                worst = worst.max(gap / fz.e);
                            }
                        }
                    }
                }
            }
        }
        // The gaps were real (cancellation happened), yet E held.
        assert!(worst > 0.0);
        assert_eq!(
            factored_error_bound(4, 2, f64::NAN, 1.0, 1.0),
            f64::INFINITY
        );
        assert_eq!(
            factored_error_bound(4, 2, 1.0, 1.0, f64::INFINITY),
            f64::INFINITY
        );
        assert_eq!(factored_error_bound(4, 2, 1e308, 1.0, 1.0), f64::INFINITY);
        assert!(factored_error_bound(4, 2, 0.0, 0.0, 0.0) > 0.0);
        assert!(factored_error_bound(4, 2, 9.0, 4.0, 5.0) >= 2.0 * kernel_error_bound(4, 9.0, 4.0));
        assert!(max_or_nan(&[1.0, f64::NAN, 3.0]).is_nan());
        assert_eq!(max_or_nan(&[1.0, 3.0, 2.0]), 3.0);
    }

    /// The four-lane two-smallest matches a sort, with duplicates, NaNs
    /// (never counted) and lengths that leave a remainder.
    #[test]
    fn two_smallest_matches_sort() {
        for len in 0..12 {
            for seed in 0..8usize {
                let v: Vec<f64> = (0..len)
                    .map(|i| match (i * 7 + seed * 3) % 9 {
                        0 => f64::NAN,
                        r => (r % 5) as f64 - (seed % 3) as f64,
                    })
                    .collect();
                let mut sorted: Vec<f64> = v.iter().copied().filter(|f| !f.is_nan()).collect();
                sorted.sort_by(f64::total_cmp);
                let want = (
                    sorted.first().copied().unwrap_or(f64::INFINITY),
                    sorted.get(1).copied().unwrap_or(f64::INFINITY),
                );
                assert_eq!(two_smallest(&v), want, "{v:?}");
            }
        }
    }

    #[test]
    fn stats_merge_and_ratio() {
        let mut a = PruneStats {
            dists_computed: 10,
            dists_skipped: 30,
            bound_updates: 5,
        };
        a.merge(PruneStats {
            dists_computed: 2,
            dists_skipped: 6,
            bound_updates: 1,
        });
        assert_eq!(a.dists_computed, 12);
        assert_eq!(a.dists_skipped, 36);
        assert_eq!(a.bound_updates, 6);
        assert!((a.skip_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(PruneStats::default().skip_ratio(), 0.0);
    }

    /// Drives a few Lloyd-style iterations with drifting centroids and
    /// checks the pruned engine against the exhaustive scan bitwise.
    #[test]
    fn dense_engine_matches_exhaustive_bitwise() {
        let data = Matrix::from_fn(60, 4, |i, j| ((i * 13 + j * 7) % 23) as f64 * 0.21);
        let exec = ExecCtx::serial().with_prune_mode(PruneMode::On);
        let mut engine = AssignEngine::new(&exec);
        engine.begin_fit(&data);
        let mut centroids = Matrix::from_fn(5, 4, |i, j| ((i * 5 + j) % 11) as f64 * 0.4);
        let mut labels = vec![0usize; 60];
        let mut dmin = vec![0.0f64; 60];
        let mut ref_labels = vec![0usize; 60];
        let mut ref_dmin = vec![0.0f64; 60];
        for it in 0..6 {
            engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
            exhaustive_dense(
                &data,
                &centroids,
                &mut ref_labels,
                &mut ref_dmin,
                &exec,
                None,
            );
            assert_eq!(labels, ref_labels, "iter {it}");
            for (i, (a, b)) in dmin.iter().zip(ref_dmin.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "iter {it} point {i}");
            }
            // Shrink centroids toward their cluster means (drift).
            for c in 0..centroids.nrows() {
                let mut acc = vec![0.0f64; 4];
                let mut cnt = 0usize;
                for (i, &l) in labels.iter().enumerate() {
                    if l == c {
                        ops::add_assign(&mut acc, data.row(i));
                        cnt += 1;
                    }
                }
                if cnt > 0 {
                    let inv = 1.0 / cnt as f64;
                    for (cv, &s) in centroids.row_mut(c).iter_mut().zip(acc.iter()) {
                        *cv = 0.5 * *cv + 0.5 * s * inv;
                    }
                }
            }
        }
        let stats = engine.take_stats();
        assert!(stats.dists_computed > 0);
    }

    #[test]
    fn zero_drift_iterations_skip_everything_after_warmup() {
        let data = Matrix::from_fn(200, 3, |i, j| ((i * 3 + j) % 17) as f64);
        let centroids = Matrix::from_fn(4, 3, |i, j| (i * 4 + j) as f64 * 1.5);
        let exec = ExecCtx::serial().with_prune_mode(PruneMode::On);
        let mut engine = AssignEngine::new(&exec);
        engine.begin_fit(&data);
        let mut labels = vec![0usize; 200];
        let mut dmin = vec![0.0f64; 200];
        engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
        let warm = engine.take_stats();
        assert_eq!(warm.dists_computed, 200 * 4);
        // Same centroids again: zero drift, every point certified with
        // one exact evaluation (dmin stays exact by contract).
        engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
        let still = engine.take_stats();
        assert_eq!(still.dists_computed, 200);
        assert_eq!(still.dists_skipped, 200 * 3);
    }

    /// A k-means++ restart's first pass takes over the seeder's
    /// assignment: against the seeds it computes one distance per point
    /// (no point sits within the error term of a tie) and equals the
    /// exhaustive scan bitwise. With pruning off it scans every pair.
    #[test]
    fn seeded_first_pass_gates_every_point() {
        use rand::{rngs::StdRng, SeedableRng};
        let (n, k) = (200, 8);
        let data = Matrix::from_fn(n, 3, |i, j| ((i * 7 + j * 3) as f64).sin() * 4.0);
        let (mut rl, mut rd) = (vec![0usize; n], vec![0.0f64; n]);
        for (mode, computed) in [(PruneMode::On, n), (PruneMode::Off, n * k)] {
            let exec = ExecCtx::serial().with_prune_mode(mode);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut rng = StdRng::seed_from_u64(3);
            let seeds = engine.seed_dense(k, |rows| {
                crate::kmeans::plus_plus_seed(&data, None, k, &mut rng, rows)
            });
            let (mut labels, mut dmin) = (vec![0usize; n], vec![0.0f64; n]);
            engine.assign_dense(&data, &seeds, &mut labels, &mut dmin);
            exhaustive_dense(&data, &seeds, &mut rl, &mut rd, &exec, None);
            assert_eq!(labels, rl, "{mode:?}");
            for (a, b) in dmin.iter().zip(&rd) {
                assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}");
            }
            let stats = engine.take_stats();
            assert_eq!(stats.dists_computed, computed as u64, "{mode:?}");
        }
    }

    #[test]
    fn resident_bounds_skip_at_zero_drift_and_rescan_when_off() {
        let data = Matrix::from_fn(200, 3, |i, j| ((i * 3 + j) % 17) as f64);
        let centroids = Matrix::from_fn(4, 3, |i, j| (i * 4 + j) as f64 * 1.5);
        let on = ExecCtx::serial().with_prune_mode(PruneMode::On);
        let mut bounds = ResidentBounds::new(&data);
        // The first call has no bounds to keep, whatever the drift.
        let warm = bounds.assign(&data, &centroids, Some(0.0), &on);
        assert_eq!(warm.dists_computed, 200 * 4);
        let still = bounds.assign(&data, &centroids, Some(0.0), &on);
        assert_eq!((still.dists_computed, still.dists_skipped), (200, 200 * 3));
        for (i, x) in data.rows_iter().enumerate() {
            assert_eq!(bounds.label(i), nearest_centroid(x, &centroids).0);
        }
        let off = ExecCtx::serial().with_prune_mode(PruneMode::Off);
        let full = bounds.assign(&data, &centroids, Some(0.0), &off);
        assert_eq!((full.dists_computed, full.dists_skipped), (200 * 4, 0));
    }

    /// Rounding toward zero keeps every stored value a lower bound, and
    /// the tightest one: `f32_toward_zero(v)` is the largest `f32` not
    /// above `v`. Exact `f32` values come back unchanged; their `f64`
    /// neighbours, the midpoints to the next `f32`, the subnormals and the
    /// gap from `f32::MAX` up to 2^128 round down.
    #[test]
    fn f32_toward_zero_is_the_largest_f32_not_above() {
        let step = |v: f64, up: bool| {
            let b = v.to_bits();
            f64::from_bits(if up { b + 1 } else { b - 1 })
        };
        let largest_subnormal = f32::from_bits(0x007f_ffff);
        let exact = [
            0.0,
            f32::from_bits(1),
            largest_subnormal,
            f32::MIN_POSITIVE,
            1.0 / 3.0,
            1.0,
            3.0e38,
            f32::MAX,
        ];
        let two_128 = 2f64.powi(128);
        let mut cases = vec![1e-46, 1e-300, f64::MIN_POSITIVE, 3.5e38, two_128, f64::MAX];
        for f in exact {
            let v = f64::from(f);
            assert_eq!(f32_toward_zero(v).to_bits(), f.to_bits(), "exact {f:e}");
            cases.push(step(v, true));
            if v > 0.0 {
                cases.push(step(v, false));
            }
            let next = f32::from_bits(f.to_bits() + 1);
            if next.is_finite() {
                cases.push((v + f64::from(next)) / 2.0);
            }
        }
        let max = f64::from(f32::MAX);
        cases.extend([(max + two_128) / 2.0, step(two_128, false)]);
        for v in cases {
            let r = f32_toward_zero(v);
            let next = f32::from_bits(r.to_bits() + 1);
            assert!(f64::from(r) <= v && f64::from(next) > v, "{v:e} -> {r:e}");
        }
        assert_eq!(f32_toward_zero(f64::INFINITY), f32::INFINITY);
        assert_eq!(f32_toward_zero(two_128), f32::MAX);
    }

    /// The row sizes the heap figures rest on, and the shared rows where
    /// true distances leave `f32`'s range: at 1e40 every stored bound
    /// saturates at `f32::MAX`, at 1e-44 bounds flush toward zero through
    /// the subnormals. Over 8 drifting passes the dense engine, the grid
    /// engine on a Sum 4+4 grid (the factored filter), `ResidentBounds`,
    /// and the on-the-fly engine on that grid (the filter) and on a
    /// Product 4+4 grid (the tuple sweep) stay bitwise equal to the
    /// exhaustive scan.
    #[test]
    fn shared_rows_match_exhaustive_outside_f32_range() {
        assert_eq!(std::mem::size_of::<CompactRow>(), 8);
        assert_eq!(std::mem::size_of::<DistRow>(), 16);
        let (n, m) = (160, 3);
        let agg = Aggregator::Sum;
        let indexer = CentroidIndexer::new(vec![4, 4]);
        let exec = ExecCtx::serial().with_prune_mode(PruneMode::On);
        for scale in [1e40, 1e-44] {
            // Eight blobs on a grid, with jitter.
            let data = Matrix::from_fn(n, m, |i, j| {
                let corner = ((i % 8) >> j.min(2)) & 1;
                scale * (4.0 * corner as f64 + ((i * 7 + j * 5) % 11) as f64 * 0.1)
            });
            let mut sets: Vec<Matrix> = (0..2)
                .map(|l| {
                    Matrix::from_fn(4, m, |i, j| {
                        scale * (((i * 3 + j + l) % 5) as f64 * (0.6 + l as f64))
                    })
                })
                .collect();
            // Product factors of √scale, whose products sit at `scale`.
            let root = scale.sqrt();
            let mut factors: Vec<Matrix> = (0..2)
                .map(|l| {
                    Matrix::from_fn(4, m, |i, j| {
                        root * (0.5 + ((i * 3 + j + l) % 5) as f64 * (0.4 + l as f64))
                    })
                })
                .collect();
            assert!(filter_applies(&sets, agg));
            assert!(!filter_applies(&factors, Aggregator::Product));
            let engine = || {
                let mut e = AssignEngine::new(&exec);
                e.begin_fit(&data);
                e
            };
            let (mut dense, mut grid_engine, mut otf, mut sweep) =
                (engine(), engine(), engine(), engine());
            let mut resident = ResidentBounds::new(&data);
            let mut prev: Option<Matrix> = None;
            let (mut labels, mut dmin) = (vec![0usize; n], vec![0.0f64; n]);
            let (mut rl, mut rd) = (vec![0usize; n], vec![0.0f64; n]);
            let (mut pl, mut pd) = (vec![0usize; n], vec![0.0f64; n]);
            for it in 0..8 {
                let grid = crate::operator::khatri_rao(&sets, agg).unwrap();
                exhaustive_dense(&data, &grid, &mut rl, &mut rd, &exec, None);
                let product = crate::operator::khatri_rao(&factors, Aggregator::Product).unwrap();
                exhaustive_dense(&data, &product, &mut pl, &mut pd, &exec, None);
                let ctx = format!("scale {scale:e} iter {it}");
                let check = |labels: &[usize], dmin: &[f64], (rl, rd): (&[usize], &[f64]), path| {
                    assert_eq!(labels, rl, "{ctx} {path}");
                    for (i, (a, b)) in dmin.iter().zip(rd).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{ctx} {path} point {i}");
                    }
                };
                dense.assign_dense(&data, &grid, &mut labels, &mut dmin);
                check(&labels, &dmin, (&rl, &rd), "dense");
                grid_engine.assign_grid(&data, &grid, &sets, agg, &mut labels, &mut dmin);
                check(&labels, &dmin, (&rl, &rd), "grid");
                otf.assign_otf(&data, &sets, &indexer, agg, &mut labels, &mut dmin);
                check(&labels, &dmin, (&rl, &rd), "on the fly");
                let product_agg = Aggregator::Product;
                sweep.assign_otf(
                    &data,
                    &factors,
                    &indexer,
                    product_agg,
                    &mut labels,
                    &mut dmin,
                );
                check(&labels, &dmin, (&pl, &pd), "sweep");
                let drift = prev
                    .as_ref()
                    .map(|p| max_drift(&grid, |c, out| out.copy_from_slice(p.row(c))));
                resident.assign(&data, &grid, drift, &exec);
                for (i, &want) in rl.iter().enumerate() {
                    assert_eq!(resident.label(i), want, "{ctx} resident point {i}");
                }
                prev = Some(grid);
                for (l, (s, f)) in sets.iter_mut().zip(factors.iter_mut()).enumerate() {
                    for r in 0..s.nrows() {
                        let step = 0.02 * ((r + l + it) % 3) as f64;
                        for v in s.row_mut(r).iter_mut() {
                            *v += scale * step;
                        }
                        for v in f.row_mut(r).iter_mut() {
                            *v += root * step;
                        }
                    }
                }
            }
            // The bounds really sat at the edge of `f32`'s range.
            let edge = |r: &CompactRow| {
                if scale > 1.0 {
                    r.lower == f32::MAX
                } else {
                    r.lower < f32::MIN_POSITIVE
                }
            };
            assert!(resident.rows.iter().all(edge), "scale {scale:e}");
            for (e, path) in [(&dense, "dense"), (&otf, "on the fly"), (&sweep, "sweep")] {
                assert!(
                    e.rows.iter().all(|r| edge(&r.bound)),
                    "scale {scale:e} {path}"
                );
            }
        }
    }

    #[test]
    fn k_equals_one_never_breaks() {
        let data = Matrix::from_fn(10, 2, |i, j| (i + j) as f64);
        let centroids = Matrix::from_fn(1, 2, |_, j| j as f64 + 3.0);
        let exec = ExecCtx::serial().with_prune_mode(PruneMode::On);
        let mut engine = AssignEngine::new(&exec);
        engine.begin_fit(&data);
        let mut labels = vec![9usize; 10];
        let mut dmin = vec![0.0f64; 10];
        for _ in 0..3 {
            engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
            let mut rl = vec![0usize; 10];
            let mut rd = vec![0.0f64; 10];
            exhaustive_dense(&data, &centroids, &mut rl, &mut rd, &exec, None);
            assert_eq!(labels, rl);
            for (a, b) in dmin.iter().zip(rd.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn duplicate_centroids_tie_break_identically() {
        let data = Matrix::from_fn(30, 3, |i, j| ((i + j) % 7) as f64 * 0.9);
        // Rows 1 and 2 are identical: ties must resolve to the lower
        // index exactly as the exhaustive scan does.
        let centroids = Matrix::from_fn(4, 3, |i, j| {
            let r = if i == 2 { 1 } else { i };
            ((r * 3 + j) % 5) as f64
        });
        let exec = ExecCtx::serial().with_prune_mode(PruneMode::On);
        let mut engine = AssignEngine::new(&exec);
        engine.begin_fit(&data);
        let mut labels = vec![0usize; 30];
        let mut dmin = vec![0.0f64; 30];
        for _ in 0..4 {
            engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
            let mut rl = vec![0usize; 30];
            let mut rd = vec![0.0f64; 30];
            exhaustive_dense(&data, &centroids, &mut rl, &mut rd, &exec, None);
            assert_eq!(labels, rl);
            for (a, b) in dmin.iter().zip(rd.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Drives both KR engines — on the fly, and on the materialized grid
    /// — over drifting factor sets and pins them bitwise to the
    /// exhaustive scans, both aggregators, and the on-the-fly reference to
    /// the dense one on the materialized grid. The Sum 3+4 grid goes
    /// through the factored filter; 2+2 and the Product grid do not.
    #[test]
    fn kr_engines_match_exhaustive_bitwise() {
        let n = 40;
        let m = 3;
        let data = Matrix::from_fn(n, m, |i, j| ((i * 11 + j * 5) % 19) as f64 * 0.3);
        let pair = |h: usize| Matrix::zeros(h, m);
        assert!(!filter_applies(&[pair(2), pair(2)], Aggregator::Sum));
        assert!(filter_applies(
            &[pair(2), pair(2), pair(2)],
            Aggregator::Sum
        ));
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let exec = ExecCtx::serial().with_prune_mode(PruneMode::On);
            let indexer = CentroidIndexer::new(vec![3, 4]);
            let mut sets = vec![
                Matrix::from_fn(3, m, |i, j| ((i * 2 + j) % 5) as f64 * 0.7 + 0.1),
                Matrix::from_fn(4, m, |i, j| ((i + j * 3) % 7) as f64 * 0.4 + 0.2),
            ];
            assert_eq!(filter_applies(&sets, agg), agg == Aggregator::Sum);
            let mut otf = AssignEngine::new(&exec);
            otf.begin_fit(&data);
            let mut grid_engine = AssignEngine::new(&exec);
            grid_engine.begin_fit(&data);
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            let (mut rl, mut rd) = (vec![0usize; n], vec![0.0f64; n]);
            let (mut ol, mut od) = (vec![0usize; n], vec![0.0f64; n]);
            for it in 0..5 {
                otf.assign_otf(&data, &sets, &indexer, agg, &mut labels, &mut dmin);
                exhaustive_otf(&data, &sets, &indexer, agg, &mut ol, &mut od, &exec, None);
                assert_eq!(labels, ol, "otf {agg:?} iter {it}");
                for (i, (a, b)) in dmin.iter().zip(od.iter()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "otf {agg:?} iter {it} point {i}");
                }
                let grid = crate::operator::khatri_rao(&sets, agg).unwrap();
                grid_engine.assign_grid(&data, &grid, &sets, agg, &mut labels, &mut dmin);
                exhaustive_dense(&data, &grid, &mut rl, &mut rd, &exec, None);
                assert_eq!(labels, rl, "grid {agg:?} iter {it}");
                for (i, (a, b)) in dmin.iter().zip(rd.iter()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "grid {agg:?} iter {it} point {i}");
                }
                assert_eq!(ol, rl, "references {agg:?} iter {it}");
                for (i, (a, b)) in od.iter().zip(rd.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "references {agg:?} iter {it} point {i}"
                    );
                }
                // Small factor drift (iteration 3 keeps everything
                // still: the zero-drift certification path).
                if it != 3 {
                    for s in sets.iter_mut() {
                        for r in 0..s.nrows() {
                            for v in s.row_mut(r).iter_mut() {
                                *v += 0.05;
                            }
                        }
                    }
                }
            }
            for engine in [&mut otf, &mut grid_engine] {
                let stats = engine.take_stats();
                assert!(stats.dists_computed > 0, "agg {agg:?}");
                assert!(stats.dists_skipped > 0, "agg {agg:?}");
            }
        }
    }

    /// Persistent streaming bounds: bitwise-exhaustive across drifting
    /// batches, with measured drift eventually forcing a rebuild.
    #[test]
    fn cc_bounds_match_exhaustive_and_rebuild_on_drift() {
        let exec = ExecCtx::serial();
        let data = Matrix::from_fn(80, 3, |i, j| ((i * 5 + j * 2) % 21) as f64 * 0.4);
        let mut centroids = Matrix::from_fn(6, 3, |i, j| ((i * 3 + j) % 9) as f64 * 1.1);
        let mut cc = CcBounds::default();
        for it in 0..6 {
            cc.sync(&centroids);
            let (labels, dmin) = cc.assign(&data, &centroids, &exec);
            let mut rl = vec![0usize; 80];
            let mut rd = vec![0.0f64; 80];
            exhaustive_dense(&data, &centroids, &mut rl, &mut rd, &exec, None);
            assert_eq!(labels, rl, "iter {it}");
            for (a, b) in dmin.iter().zip(rd.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "iter {it}");
            }
            // Iterations 0-2: small drift (bounds decay and survive).
            // Iterations 3+: violent drift (decay budget exhausted).
            let step = if it < 3 { 0.01 } else { 5.0 };
            for c in 0..centroids.nrows() {
                for v in centroids.row_mut(c).iter_mut() {
                    *v += step;
                }
            }
        }
        assert!(cc.rebuilds() >= 2, "rebuilds {}", cc.rebuilds());
        let stats = cc.stats();
        assert!(stats.dists_computed > 0);
        assert!(stats.bound_updates > 0);
    }
}

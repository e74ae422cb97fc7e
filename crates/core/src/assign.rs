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
//! tie. Undecided candidates are evaluated with the caller's exact
//! kernel expression in the same ascending order (reusing the
//! already-computed bits where the expression repeats), which makes the
//! surviving comparison chain — hence labels and distances — identical
//! by construction. Bounds only ever *remove provably-losing work*;
//! they never substitute a value.
//!
//! Floating-point certification uses one conservative additive error
//! term for the expanded kernel `‖x‖² + ‖c‖² − 2⟨x,c⟩` (see
//! `kernel_error_bound`) plus relative slack on every square root and
//! bound decay, so a bound can under-prune but never mis-prune.
//!
//! ## Bound structure
//!
//! Dense and materialized-grid assignment keep one lower bound per
//! point on the distance to every non-assigned centroid (Hamerly),
//! decayed each iteration by the maximum centroid drift. Whole-point
//! skips cost O(1), and the bound state is O(n) whatever `k` is.
//! Per-(point, centroid) bounds (Elkan) evaluate fewer distances, but
//! their O(n·k) upkeep cost more than those evaluations saved at every
//! shape measured, so they are not kept.
//!
//! Memory-efficient (on-the-fly) Khatri-Rao assignment uses the same
//! single bound plus a per-candidate norm gate `d(x, c) ≥ |‖x‖ − ‖c‖|`,
//! with per-factor drift combined per the aggregator. Pruning is on
//! unless the context's [`kr_linalg::PruneMode`] (default from
//! `KR_PRUNE`) is `Off`, which runs the exhaustive reference scans.
//!
//! All bound state lives in the [`kr_linalg::Scratch`] arena of the
//! engine's `ExecCtx`, so steady-state Lloyd iterations stay O(1)
//! allocations, and one engine serves every restart of a fit.
//! [`PruneStats`] counts exact evaluations, certified skips, and bound
//! refreshes for the benches (telemetry only — counters may differ
//! across thread counts even though results cannot). With the `obs`
//! feature the same counters are mirrored onto the trace schema as
//! `assign.dists_computed` / `assign.dists_skipped` /
//! `assign.bound_updates`, and every assignment pass opens an
//! `assign.pass` span labelled with `k`.

use crate::aggregator::Aggregator;
use crate::operator::{aggregate_tuple_into, CentroidIndexer};
use kr_linalg::{ops, parallel, ExecCtx, Matrix, PruneMode, Scratch};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-fit pruning counters, exposed on the fitted models.
///
/// Telemetry only: the counters never influence results, and chunk
/// scheduling may shift *when* a bound tightens, so they are not part of
/// the bitwise contract (labels/centroids/inertia are).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Exact kernel distance evaluations performed.
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
        // The obs counters mirror PruneStats onto the trace schema:
        // per-chunk increments, aggregated by `Snapshot::counter_total`.
        if computed > 0 {
            self.computed.fetch_add(computed, Ordering::Relaxed);
            kr_obs::counter!("assign.dists_computed", computed);
        }
        if skipped > 0 {
            self.skipped.fetch_add(skipped, Ordering::Relaxed);
            kr_obs::counter!("assign.dists_skipped", skipped);
        }
        if updates > 0 {
            self.updates.fetch_add(updates, Ordering::Relaxed);
            kr_obs::counter!("assign.bound_updates", updates);
        }
    }

    fn snapshot(&self) -> PruneStats {
        PruneStats {
            dists_computed: self.computed.load(Ordering::Relaxed),
            dists_skipped: self.skipped.load(Ordering::Relaxed),
            bound_updates: self.updates.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.computed.store(0, Ordering::Relaxed);
        self.skipped.store(0, Ordering::Relaxed);
        self.updates.store(0, Ordering::Relaxed);
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

/// Additive bound on `|computed − true|` for the expanded squared
/// distance `‖x‖² + ‖c‖² − 2⟨x,c⟩` at dimension `m`: the classic
/// `γ_m`-style term scaled by the largest magnitudes involved, with a
/// generous headroom constant. `2⁻⁴⁸ ≈ 16·ε` absorbs both the dot
/// products and the final cancellation.
fn kernel_error_bound(m: usize, max_x_sq: f64, max_c_sq: f64) -> f64 {
    let x = if max_x_sq > 0.0 { max_x_sq } else { 0.0 };
    let c = if max_c_sq > 0.0 { max_c_sq } else { 0.0 };
    let cross = (x * c).sqrt();
    (m as f64 + 64.0) * 2.0_f64.powi(-48) * (x + c + 2.0 * cross)
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

/// Swaps `buf` for a zeroed scratch buffer of `len` elements when its
/// size does not match (no-op on the steady-state path).
fn resize_buf(scratch: &Scratch, buf: &mut Vec<f64>, len: usize) {
    if buf.len() != len {
        scratch.put_f64(std::mem::take(buf));
        *buf = scratch.take_f64(len);
    }
}

// State-row layouts (one f64 row per point, parallel-chunked via
// `map_rows_into`; the interleaving keeps every per-point mutable in one
// buffer, which is what lets the pass stay safe-code under
// `#![forbid(unsafe_code)]`).
const HAMERLY_STRIDE: usize = 3; // [label, dmin, lower]
const OTF_STRIDE: usize = 8; // [best, label, runner, pruned_lb, lower, d_prev, decided, prev_label]

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
    /// Bounds in `state` describe the snapshot in `prev`/`prev_sets`.
    ready: bool,
    max_x_sq: f64,
    /// Measured max candidate squared norm (on-the-fly sessions).
    max_c_sq: f64,
    x_norms: Vec<f64>,
    x_lo: Vec<f64>,
    x_hi: Vec<f64>,
    state: Vec<f64>,
    prev: Vec<f64>,
    prev_sets: Vec<Vec<f64>>,
    prev_sets_dims: Vec<(usize, usize)>,
    stats: SharedStats,
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
            max_c_sq: 0.0,
            x_norms: Vec::new(),
            x_lo: Vec::new(),
            x_hi: Vec::new(),
            state: Vec::new(),
            prev: Vec::new(),
            prev_sets: Vec::new(),
            prev_sets_dims: Vec::new(),
            stats: SharedStats::default(),
        }
    }

    /// Caches per-point norms for `data` and invalidates every bound.
    /// Must be called before the first `assign_*` on a dataset; the
    /// cached norms are the same `dot(x, x)` bits the exhaustive kernels
    /// recompute per point, so caching is bitwise-neutral.
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
        self.x_norms = xn;
        let mut mx = 0.0;
        for &v in self.x_norms.iter() {
            if v > mx {
                mx = v;
            }
        }
        self.max_x_sq = mx;
        resize_buf(&scratch, &mut self.x_lo, n);
        resize_buf(&scratch, &mut self.x_hi, n);
        for i in 0..n {
            self.x_lo[i] = norm_lower(self.x_norms[i], m);
            self.x_hi[i] = norm_upper(self.x_norms[i], m);
        }
    }

    /// Invalidates bound state between restarts (cached data norms are
    /// kept — the dataset has not changed).
    pub fn begin_restart(&mut self) {
        self.ready = false;
    }

    /// Counters accumulated since construction or the last
    /// [`AssignEngine::take_stats`].
    pub fn stats(&self) -> PruneStats {
        self.stats.snapshot()
    }

    /// Returns and resets the accumulated counters.
    pub fn take_stats(&mut self) -> PruneStats {
        let s = self.stats.snapshot();
        self.stats.reset();
        s
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
        debug_assert_eq!(data.shape(), (self.n, self.m), "begin_fit saw other data");
        debug_assert_eq!(centroids.ncols(), self.m);
        let k = centroids.nrows();
        let _pass = kr_obs::span!("assign.pass", "k" => k);
        if self.exec.prune_mode() == PruneMode::Off {
            exhaustive_dense(data, centroids, labels, dmin, &self.exec, Some(&self.stats));
            self.ready = false;
            return;
        }
        self.ensure_dense_session(k);
        let scratch = self.exec.scratch().clone();
        let mut c_norms = scratch.take_f64_uninit(0);
        centroids.row_sq_norms_into(&mut c_norms);
        let mut max_c = 0.0;
        for &v in c_norms.iter() {
            if v > max_c {
                max_c = v;
            }
        }
        let err = kernel_error_bound(self.m, self.max_x_sq, max_c);
        let m = self.m;
        if self.ready {
            let mut delta_max = 0.0;
            for c in 0..k {
                let d = drift_upper(ops::sqdist(
                    &self.prev[c * m..(c + 1) * m],
                    centroids.row(c),
                ));
                if d > delta_max {
                    delta_max = d;
                }
            }
            self.stats.add(0, 0, k as u64);
            self.hamerly_pass(data, centroids, &c_norms, err, delta_max);
        } else {
            self.init_dense_pass(data, centroids, &c_norms, err);
            self.ready = true;
        }
        for c in 0..k {
            self.prev[c * m..(c + 1) * m].copy_from_slice(centroids.row(c));
        }
        for (i, row) in self.state.chunks_exact(HAMERLY_STRIDE).enumerate() {
            labels[i] = row[0] as usize;
            dmin[i] = row[1];
        }
        scratch.put_f64(c_norms);
    }

    /// Assignment against a materialized Khatri-Rao grid (the
    /// time-efficient `KrKMeans` variant). The grid is a dense centroid
    /// matrix, so this is [`AssignEngine::assign_dense`]; `sets` and
    /// `agg` are accepted for callers that hold them and are not read.
    pub fn assign_grid(
        &mut self,
        data: &Matrix,
        grid: &Matrix,
        _sets: &[Matrix],
        _agg: Aggregator,
        labels: &mut [usize],
        dmin: &mut [f64],
    ) {
        self.assign_dense(data, grid, labels, dmin);
    }

    fn ensure_dense_session(&mut self, k: usize) {
        if self.session == SessionKind::Dense
            && self.k == k
            && self.state.len() == self.n * HAMERLY_STRIDE
        {
            return;
        }
        self.session = SessionKind::Dense;
        self.k = k;
        self.ready = false;
        let scratch = self.exec.scratch().clone();
        resize_buf(&scratch, &mut self.state, self.n * HAMERLY_STRIDE);
        resize_buf(&scratch, &mut self.prev, k * self.m);
    }

    /// First assignment of a session: full scans (identical to the
    /// exhaustive path) that also seed each point's lower bound.
    fn init_dense_pass(&mut self, data: &Matrix, centroids: &Matrix, c_norms: &[f64], err: f64) {
        let x_norms = &self.x_norms;
        let stats = &self.stats;
        parallel::map_rows_into(
            &self.exec,
            &mut self.state,
            HAMERLY_STRIDE,
            1,
            |start, chunk| {
                let mut comp = 0u64;
                let mut upd = 0u64;
                for (off, row) in chunk.chunks_exact_mut(HAMERLY_STRIDE).enumerate() {
                    let i = start + off;
                    comp +=
                        rescan_point(row, data.row(i), x_norms[i], centroids, c_norms, err, None);
                    upd += 1;
                }
                stats.add(comp, 0, upd);
            },
        );
    }

    /// Hamerly iteration: one exact evaluation per point (the previous
    /// assignment — `dmin` must be exact every iteration because it
    /// feeds inertia), then either a certified whole-point skip or a
    /// full rescan that re-tightens the bound from the runner-up.
    /// `delta_max` bounds how far any centroid moved since the bounds
    /// were set.
    fn hamerly_pass(
        &mut self,
        data: &Matrix,
        centroids: &Matrix,
        c_norms: &[f64],
        err: f64,
        delta_max: f64,
    ) {
        let k = self.k;
        let x_norms = &self.x_norms;
        let stats = &self.stats;
        parallel::map_rows_into(
            &self.exec,
            &mut self.state,
            HAMERLY_STRIDE,
            1,
            |start, chunk| {
                let mut comp = 0u64;
                let mut skip = 0u64;
                let mut upd = 0u64;
                for (off, row) in chunk.chunks_exact_mut(HAMERLY_STRIDE).enumerate() {
                    let i = start + off;
                    let x = data.row(i);
                    let xn = x_norms[i];
                    let a = row[0] as usize;
                    let d_a = xn + c_norms[a] - 2.0 * ops::dot(x, centroids.row(a));
                    comp += 1;
                    let l = decay_lower(row[2], delta_max);
                    if certified_floor(l, err) > d_a {
                        // Every other candidate computes strictly above
                        // d_a: the exhaustive argmin is uniquely `a`.
                        row[1] = d_a.max(0.0);
                        row[2] = l;
                        skip += k as u64 - 1;
                        continue;
                    }
                    comp += rescan_point(row, x, xn, centroids, c_norms, err, Some((a, d_a)));
                    upd += 1;
                }
                stats.add(comp, skip, upd);
            },
        );
    }
}

/// Full ascending scan of one point into its `[label, dmin, lower]`
/// Hamerly row: the exhaustive strict-`<` argmin (lowest index on
/// ties), its clamped distance, and a lower bound from the runner-up.
/// `known` is a candidate whose kernel value was already computed with
/// the same expression; its bits are reused. Returns the number of
/// distances evaluated.
fn rescan_point(
    row: &mut [f64],
    x: &[f64],
    xn: f64,
    centroids: &Matrix,
    c_norms: &[f64],
    err: f64,
    known: Option<(usize, f64)>,
) -> u64 {
    let mut comp = 0u64;
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    let mut runner = f64::INFINITY;
    for (c, crow) in centroids.rows_iter().enumerate() {
        let d = match known {
            Some((a, d_a)) if a == c => d_a,
            _ => {
                comp += 1;
                xn + c_norms[c] - 2.0 * ops::dot(x, crow)
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
    row[0] = best as f64;
    row[1] = best_d.max(0.0);
    row[2] = dist_lower(runner, err);
    comp
}

impl AssignEngine {
    /// Assignment over the *implicit* Khatri-Rao grid (the
    /// memory-efficient `KrKMeans` variant): candidates are aggregated
    /// tuple-by-tuple, never materialized. Bitwise identical to
    /// `exhaustive_otf` in every [`PruneMode`].
    ///
    /// Pruning here is the single-bound structure plus a per-candidate
    /// norm gate (`d(x,c) ≥ |‖x‖ − ‖c‖|`): points whose bound certifies
    /// their previous assignment skip the whole tuple sweep; the rest
    /// are norm-gated per candidate against the running best. Drift is
    /// measured per factor set and combined per the aggregator
    /// (triangle inequality for sums, a telescoping product bound for
    /// Hadamard products).
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
        assert!(
            (k as u128) < (1u128 << 53),
            "KR flat centroid index must stay below 2^53 for exact f64 label round-trips"
        );
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
            return;
        }
        self.ensure_otf_session(k, sets);
        let scratch = self.exec.scratch().clone();
        let mut mu = scratch.take_f64(self.m);
        if self.ready {
            let delta_max = self.otf_delta_max(sets, agg);
            let radius = {
                let r = if self.max_c_sq > 0.0 {
                    self.max_c_sq.sqrt()
                } else {
                    0.0
                };
                r + delta_max
            };
            let err = kernel_error_bound(self.m, self.max_x_sq, radius * radius);
            self.otf_phase1_decide(data, sets, indexer, agg, delta_max, err, &mut mu, &scratch);
            self.otf_scan(data, sets, indexer, agg, err, &mut mu);
            self.otf_finalize(err);
        } else {
            for row in self.state.chunks_exact_mut(OTF_STRIDE) {
                row[0] = f64::INFINITY; // running best (clamped)
                row[1] = 0.0; // label
                row[2] = f64::INFINITY; // runner-up
                row[3] = f64::INFINITY; // min lower bound over skipped
                row[4] = 0.0; // lower bound (filled by finalize)
                row[5] = f64::INFINITY; // distance to previous label
                row[6] = 0.0; // decided flag
                row[7] = -1.0; // previous label (none)
            }
            // err is unknown before the first sweep (it needs the max
            // candidate norm); INFINITY disables every gate, making the
            // init sweep exhaustive while it measures and seeds bounds.
            self.otf_scan(data, sets, indexer, agg, f64::INFINITY, &mut mu);
            let err = kernel_error_bound(self.m, self.max_x_sq, self.max_c_sq);
            self.otf_finalize(err);
            self.ready = true;
        }
        self.snapshot_sets(sets);
        for (i, row) in self.state.chunks_exact(OTF_STRIDE).enumerate() {
            dmin[i] = row[0];
            labels[i] = row[1] as usize;
        }
        scratch.put_f64(mu);
    }

    fn ensure_otf_session(&mut self, k: usize, sets: &[Matrix]) {
        let dims_ok = self.prev_sets_dims.len() == sets.len()
            && self
                .prev_sets_dims
                .iter()
                .zip(sets.iter())
                .all(|(d, s)| *d == s.shape());
        if self.session == SessionKind::Otf
            && self.k == k
            && dims_ok
            && self.state.len() == self.n * OTF_STRIDE
        {
            return;
        }
        self.session = SessionKind::Otf;
        self.k = k;
        self.ready = false;
        let scratch = self.exec.scratch().clone();
        resize_buf(&scratch, &mut self.state, self.n * OTF_STRIDE);
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

    /// Copies the factor sets into the drift snapshot (row by row —
    /// `Matrix` storage may pad rows for alignment).
    fn snapshot_sets(&mut self, sets: &[Matrix]) {
        for (l, s) in sets.iter().enumerate() {
            let (h, m) = self.prev_sets_dims[l];
            let dst = &mut self.prev_sets[l];
            for r in 0..h {
                dst[r * m..(r + 1) * m].copy_from_slice(s.row(r));
            }
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

    /// Serial pre-pass: one exact distance per point (to its previous
    /// candidate, aggregated once per occupied label via a counting
    /// sort), deciding which points are certified before the tuple
    /// sweep. Exactly mirrors the on-the-fly kernel expression — the
    /// per-candidate clamp included — so the value doubles as the
    /// exhaustive result for decided points.
    #[allow(clippy::too_many_arguments)]
    fn otf_phase1_decide(
        &mut self,
        data: &Matrix,
        sets: &[Matrix],
        indexer: &CentroidIndexer,
        agg: Aggregator,
        delta_max: f64,
        err: f64,
        mu: &mut [f64],
        scratch: &Scratch,
    ) {
        let n = self.n;
        let k = self.k;
        let p = indexer.n_sets();
        let mut starts = scratch.take_usize(k + 1);
        for row in self.state.chunks_exact(OTF_STRIDE) {
            starts[row[1] as usize + 1] += 1;
        }
        for c in 0..k {
            starts[c + 1] += starts[c];
        }
        let mut order = scratch.take_usize(n);
        let mut cursor = scratch.take_usize(k);
        for (i, row) in self.state.chunks_exact(OTF_STRIDE).enumerate() {
            let a = row[1] as usize;
            order[starts[a] + cursor[a]] = i;
            cursor[a] += 1;
        }
        let mut tuple = scratch.take_usize(p);
        let state = &mut self.state;
        let x_norms = &self.x_norms;
        let mut comp = 0u64;
        let mut skip = 0u64;
        for a in 0..k {
            let (s, e) = (starts[a], starts[a + 1]);
            if s == e {
                continue;
            }
            indexer.to_tuple_into(a, &mut tuple);
            aggregate_tuple_into(mu, sets, &tuple, agg);
            let mu_norm = ops::sq_norm(mu);
            for &i in &order[s..e] {
                let row = &mut state[i * OTF_STRIDE..(i + 1) * OTF_STRIDE];
                let x = data.row(i);
                let d_a = (x_norms[i] + mu_norm - 2.0 * ops::dot(x, mu)).max(0.0);
                comp += 1;
                let l = decay_lower(row[4], delta_max);
                row[4] = l;
                row[5] = d_a;
                row[7] = a as f64;
                if certified_floor(l, err) > d_a {
                    row[0] = d_a;
                    row[1] = a as f64;
                    row[6] = 1.0;
                    skip += k as u64 - 1;
                } else {
                    row[0] = f64::INFINITY;
                    row[1] = 0.0;
                    row[2] = f64::INFINITY;
                    row[3] = f64::INFINITY;
                    row[6] = 0.0;
                }
            }
        }
        self.stats.add(comp, skip, 0);
        scratch.put_usize(tuple);
        scratch.put_usize(cursor);
        scratch.put_usize(order);
        scratch.put_usize(starts);
    }

    /// The tuple sweep: aggregates every candidate once (as the
    /// exhaustive path must), then updates only undecided points, each
    /// either norm-gated against its running best or evaluated with the
    /// exact kernel expression — reusing the phase-1 bits when the
    /// candidate *is* the previous assignment.
    fn otf_scan(
        &mut self,
        data: &Matrix,
        sets: &[Matrix],
        indexer: &CentroidIndexer,
        agg: Aggregator,
        err: f64,
        mu: &mut [f64],
    ) {
        let m = self.m;
        let x_norms = &self.x_norms;
        let x_lo = &self.x_lo;
        let x_hi = &self.x_hi;
        let stats = &self.stats;
        let exec = &self.exec;
        let state = &mut self.state;
        let mut max_mu = 0.0;
        indexer.for_each_tuple(|flat, tuple| {
            aggregate_tuple_into(mu, sets, tuple, agg);
            let mu_norm = ops::sq_norm(mu);
            if mu_norm > max_mu {
                max_mu = mu_norm;
            }
            let mu_lo = norm_lower(mu_norm, m);
            let mu_hi = norm_upper(mu_norm, m);
            let flat_f = flat as f64;
            let mu_ref: &[f64] = mu;
            parallel::map_rows_into(exec, state, OTF_STRIDE, 1, |start, chunk| {
                let mut comp = 0u64;
                let mut skip = 0u64;
                for (off, row) in chunk.chunks_exact_mut(OTF_STRIDE).enumerate() {
                    if row[6] != 0.0 {
                        continue;
                    }
                    let i = start + off;
                    let d;
                    if row[7] == flat_f {
                        // The previous assignment: phase 1 computed this
                        // exact expression already — same bits.
                        d = row[5];
                    } else {
                        let cur = row[0];
                        let d_prev = row[5];
                        let gate = if cur < d_prev { cur } else { d_prev };
                        let mut lb = x_lo[i] - mu_hi;
                        let alt = mu_lo - x_hi[i];
                        if alt > lb {
                            lb = alt;
                        }
                        if certified_floor(lb, err) > gate {
                            if lb < row[3] {
                                row[3] = lb;
                            }
                            skip += 1;
                            continue;
                        }
                        d = (x_norms[i] + mu_norm - 2.0 * ops::dot(data.row(i), mu_ref)).max(0.0);
                        comp += 1;
                    }
                    if d < row[0] {
                        row[2] = row[0];
                        row[0] = d;
                        row[1] = flat_f;
                    } else if d < row[2] {
                        row[2] = d;
                    }
                }
                stats.add(comp, skip, 0);
            });
        });
        self.max_c_sq = max_mu;
    }

    /// Re-tightens the per-point lower bound after a sweep: the minimum
    /// of the runner-up's certified distance and the smallest lower
    /// bound among norm-gated candidates — both valid on every
    /// non-winning candidate, so their min bounds all of them.
    fn otf_finalize(&mut self, err: f64) {
        let mut upd = 0u64;
        for row in self.state.chunks_exact_mut(OTF_STRIDE) {
            if row[6] != 0.0 {
                continue;
            }
            let lr = dist_lower(row[2], err);
            row[4] = if row[3] < lr { row[3] } else { lr };
            upd += 1;
        }
        self.stats.add(0, 0, upd);
    }
}

impl Drop for AssignEngine {
    fn drop(&mut self) {
        let scratch = self.exec.scratch().clone();
        scratch.put_f64(std::mem::take(&mut self.x_norms));
        scratch.put_f64(std::mem::take(&mut self.x_lo));
        scratch.put_f64(std::mem::take(&mut self.x_hi));
        scratch.put_f64(std::mem::take(&mut self.state));
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
/// All temporaries come from `exec`'s [`Scratch`] arena: the centroid
/// norms and an interleaved `(label, dmin)` buffer of `2n` f64 rows
/// (labels round-trip exactly through f64 below 2^53).
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
    let mut c_norms = scratch.take_f64_uninit(0);
    centroids.row_sq_norms_into(&mut c_norms);
    // Width-2 rows, every element written before the read-back below.
    let mut buf = scratch.take_f64_uninit(2 * n);
    parallel::map_rows_into(exec, &mut buf, 2, 1, |start, chunk| {
        let mut rows = 0u64;
        for (off, out) in chunk.chunks_exact_mut(2).enumerate() {
            let x = data.row(start + off);
            let xn = ops::sq_norm(x);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, crow) in centroids.rows_iter().enumerate() {
                let d = xn + c_norms[c] - 2.0 * ops::dot(x, crow);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            out[0] = best as f64;
            out[1] = best_d.max(0.0);
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
    scratch.put_f64(c_norms);
}

/// The exhaustive on-the-fly scan over the implicit Khatri-Rao grid —
/// the reference every pruned [`AssignEngine::assign_otf`] run must
/// match bitwise. Enumerates all centroid combinations holding one
/// aggregated centroid at a time (Algorithm 1 lines 7-14 of the paper).
///
/// Temporaries — the per-point `(dmin, label)` running state (width-2
/// f64 rows; flat labels round-trip exactly through f64 below 2^53),
/// the point norms, and the single aggregated centroid — all recycle
/// through `exec`'s [`Scratch`] arena across Lloyd iterations.
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
    let m = data.ncols();
    // Flat labels ride through the f64 state buffer below; the
    // round-trip is exact only while every label fits in f64's integer
    // range. The KR flat index is the *product* of the set sizes, so
    // unlike a materialized centroid matrix this can overflow 2^53
    // without exhausting memory first — enforce it.
    assert!(
        (indexer.n_centroids() as u128) < (1u128 << 53),
        "KR flat centroid index must stay below 2^53 for exact f64 label round-trips"
    );
    let scratch = exec.scratch();
    let mut x_norms = scratch.take_f64_uninit(0);
    data.row_sq_norms_into(&mut x_norms);
    let mut state = scratch.take_f64_uninit(2 * n);
    for slot in state.chunks_exact_mut(2) {
        slot[0] = f64::INFINITY;
        slot[1] = 0.0;
    }
    let mut mu = scratch.take_f64(m);
    indexer.for_each_tuple(|flat, tuple| {
        aggregate_tuple_into(&mut mu, sets, tuple, agg);
        let mu_norm = ops::sq_norm(&mu);
        let mu_ref = &mu;
        let x_norms_ref = &x_norms;
        parallel::map_rows_into(exec, &mut state, 2, 1, |start, chunk| {
            let mut rows = 0u64;
            for (off, slot) in chunk.chunks_exact_mut(2).enumerate() {
                let i = start + off;
                let d = (x_norms_ref[i] + mu_norm - 2.0 * ops::dot(data.row(i), mu_ref)).max(0.0);
                if d < slot[0] {
                    slot[0] = d;
                    slot[1] = flat as f64;
                }
                rows += 1;
            }
            if let Some(s) = stats {
                s.add(rows, 0, 0);
            }
        });
    });
    for (i, slot) in state.chunks_exact(2).enumerate() {
        dmin[i] = slot[0];
        labels[i] = slot[1] as usize;
    }
    scratch.put_f64(mu);
    scratch.put_f64(state);
    scratch.put_f64(x_norms);
}

/// Persistent center–center lower bounds for streaming assignment.
///
/// Mini-batch fitters call [`CcBounds::sync`] once per batch with the
/// current centroids and then [`CcBounds::assign`] on the batch. `sync`
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
/// order with the same raw kernel expression, and a candidate is
/// skipped only when its certified floor strictly exceeds the
/// already-computed running best.
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
        let mut c_norms = scratch.take_f64_uninit(0);
        centroids.row_sq_norms_into(&mut c_norms);
        let mut max_c_sq = 0.0;
        for &v in c_norms.iter() {
            if v > max_c_sq {
                max_c_sq = v;
            }
        }
        let mut x_norms = scratch.take_f64_uninit(0);
        data.row_sq_norms_into(&mut x_norms);
        let mut max_x_sq = 0.0;
        for &v in x_norms.iter() {
            if v > max_x_sq {
                max_x_sq = v;
            }
        }
        let err = kernel_error_bound(m, max_x_sq, max_c_sq);
        let shared = SharedStats::default();
        let cc = &self.cc;
        let x_norms_ref = &x_norms;
        let mut buf = scratch.take_f64_uninit(2 * n);
        parallel::map_rows_into(exec, &mut buf, 2, 1, |start, chunk| {
            let mut comp = 0u64;
            let mut skip = 0u64;
            for (off, out) in chunk.chunks_exact_mut(2).enumerate() {
                let x = data.row(start + off);
                let xn = x_norms_ref[start + off];
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
                    let d = xn + c_norms[c] - 2.0 * ops::dot(x, crow);
                    comp += 1;
                    if d < best_d {
                        best_d = d;
                        best = c;
                        u = dist_upper(d, err);
                    }
                }
                out[0] = best as f64;
                out[1] = best_d.max(0.0);
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
        scratch.put_f64(x_norms);
        scratch.put_f64(c_norms);
        self.stats.merge(shared.snapshot());
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

    /// Drives the on-the-fly KR engine over drifting factor sets and
    /// pins it bitwise to the exhaustive tuple sweep, both aggregators.
    #[test]
    fn otf_engine_matches_exhaustive_bitwise() {
        let n = 40;
        let m = 3;
        let data = Matrix::from_fn(n, m, |i, j| ((i * 11 + j * 5) % 19) as f64 * 0.3);
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let exec = ExecCtx::serial().with_prune_mode(PruneMode::On);
            let indexer = CentroidIndexer::new(vec![3, 4]);
            let mut sets = vec![
                Matrix::from_fn(3, m, |i, j| ((i * 2 + j) % 5) as f64 * 0.7 + 0.1),
                Matrix::from_fn(4, m, |i, j| ((i + j * 3) % 7) as f64 * 0.4 + 0.2),
            ];
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            let mut rl = vec![0usize; n];
            let mut rd = vec![0.0f64; n];
            for it in 0..5 {
                engine.assign_otf(&data, &sets, &indexer, agg, &mut labels, &mut dmin);
                exhaustive_otf(&data, &sets, &indexer, agg, &mut rl, &mut rd, &exec, None);
                assert_eq!(labels, rl, "agg {agg:?} iter {it}");
                for (i, (a, b)) in dmin.iter().zip(rd.iter()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "agg {agg:?} iter {it} point {i}");
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
            let stats = engine.take_stats();
            assert!(stats.dists_computed > 0, "agg {agg:?}");
            assert!(stats.dists_skipped > 0, "agg {agg:?}");
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

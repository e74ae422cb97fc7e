//! Mini-batch Khatri-Rao k-Means: Sculley-style streaming updates
//! through the protocentroid structure.
//!
//! Sculley's mini-batch k-Means (WWW 2010) assigns each incoming batch
//! to the current centroids and moves every centroid toward the batch
//! mean of its members with a per-center learning rate `1/N_c` (`N_c` =
//! points the center has absorbed so far). This implementation lifts
//! that scheme onto the Khatri-Rao centroid structure by working in
//! **sufficient-statistics space**: the stream accumulates per-cluster
//! coordinate sums and counts ([`SuffStats::observe_batch`], strictly in
//! point order), and after every batch the protocentroid sets are
//! recomputed from the *cumulative* statistics with the Proposition 6.1
//! closed forms ([`prop61_update_from_stats`]). For unconstrained
//! centroids that recomputation equals Sculley's running average
//! exactly — each batch shifts cluster `c` toward its batch mean by
//! `n_batch,c / N_c`, the same `1/N` -decaying learning rate — so the KR
//! version inherits the decay while keeping the `Σ h_l` -vector summary
//! structure.
//!
//! Assignments of earlier batches are *not* revisited (their points are
//! gone); their statistics stay frozen under the labels they got when
//! they streamed past — the standard mini-batch staleness trade-off.
//!
//! Each batch is assigned by the exhaustive nearest-centroid scan
//! ([`nearest_assignments_with`]). Every point streams past once, so a
//! per-point distance bound never gets a second pass to pay for itself,
//! and cross-batch center–center bounds cost more to keep in step with
//! the moving centroids than they save.
//!
//! Memory: `O((Σ h_l + ∏ h_l) · m)` — protocentroids plus the
//! sufficient-statistics block — independent of the stream length.
//!
//! The accumulator stays in cell form (`k x m` sums), although under Sum
//! the update reads only the `(Σ h_l) x m` marginals
//! ([`kr_core::kr_kmeans::marginal_sums`]) that a federated client
//! uploads instead. The marginals shrink what crosses a wire; nothing of
//! this accumulator does, so the smaller form would save only its
//! `(∏ h_l − Σ h_l)·m` words. The cell form also serves the Product
//! aggregator, and the end-to-end benchmark replays this stream through
//! the public [`SuffStats`] folds and [`prop61_update_from_stats`] and
//! checks the replay against [`StreamSummarizer::finalize`] bitwise.
//!
//! ```
//! use kr_stream::{MiniBatchKrKMeans, StreamSummarizer};
//! use kr_linalg::Matrix;
//!
//! let batch = Matrix::from_rows(&[
//!     vec![0.0, 0.0], vec![0.0, 4.0], vec![4.0, 0.0], vec![4.0, 4.0],
//! ]).unwrap();
//! let mut mb = MiniBatchKrKMeans::new(vec![2, 2]).with_seed(3);
//! mb.observe(&batch).unwrap();
//! let summary = mb.summary().unwrap();
//! assert_eq!(summary.total_weight(), 4.0); // every point accounted for
//! ```

use crate::StreamSummarizer;
use kr_core::aggregator::Aggregator;

/// Cap on the per-batch inertia telemetry history: entries beyond this
/// are dropped (the latest batch's value stays available via
/// [`MiniBatchKrModel::last_batch_inertia`]), so the summarizer's state
/// stays bounded no matter how many batches the stream delivers.
const TELEMETRY_CAP: usize = 1024;
use kr_core::kmeans::nearest_assignments_with;
use kr_core::kr_kmeans::{prop61_update_from_stats, KrKMeans};
use kr_core::operator::khatri_rao;
use kr_core::stats::SuffStats;
use kr_core::{CoreError, Result};
use kr_datasets::weighted::WeightedDataset;
use kr_linalg::{ExecCtx, Matrix};

/// Iteration cap of the first-batch seeding fit.
const INIT_MAX_ITER: usize = 100;

/// Streaming mini-batch KR-k-Means runner (builder style).
///
/// The first observed batch seeds the protocentroids with a full
/// [`KrKMeans`] fit over that batch alone (restarts + warm start,
/// deterministic in the configured seed); every batch — including the
/// first — then flows through the assignment → accumulate → closed-form
/// update cycle described in the module docs.
#[derive(Debug, Clone)]
pub struct MiniBatchKrKMeans {
    hs: Vec<usize>,
    aggregator: Aggregator,
    init_restarts: usize,
    seed: u64,
    exec: ExecCtx,
    state: Option<MbState>,
}

/// Mutable streaming state, created on the first batch.
#[derive(Debug, Clone)]
struct MbState {
    sets: Vec<Matrix>,
    acc: SuffStats,
    n_observed: usize,
    batch_inertia: Vec<f64>,
    last_batch_inertia: f64,
}

/// The model a finished [`MiniBatchKrKMeans`] stream produces.
#[derive(Debug, Clone)]
pub struct MiniBatchKrModel {
    /// The `p` protocentroid sets (set `l` is `h_l x m`).
    pub protocentroids: Vec<Matrix>,
    /// Aggregator combining the sets.
    pub aggregator: Aggregator,
    /// Total points observed.
    pub n_observed: usize,
    /// Pre-update inertia of the first (up to) 1024 observed batches
    /// (sum of squared distances of a batch's points to the centroids
    /// they were assigned against) — the streaming convergence
    /// telemetry the `fig_stream_scalability` harness plots. Capped so
    /// the summarizer's state stays independent of the stream length.
    pub batch_inertia: Vec<f64>,
    /// Pre-update inertia of the most recent batch (tracked even past
    /// the `batch_inertia` cap); NaN before any batch was observed.
    pub last_batch_inertia: f64,
}

impl MiniBatchKrModel {
    /// Materializes the full centroid grid (`∏ h_l x m`).
    pub fn centroids(&self) -> Matrix {
        khatri_rao(&self.protocentroids, self.aggregator).expect("validated sets")
    }

    /// Number of stored summary parameters (`Σ h_l · m`).
    pub fn n_parameters(&self) -> usize {
        self.protocentroids.iter().map(|s| s.len()).sum()
    }
}

impl MiniBatchKrKMeans {
    /// Creates a streaming runner for protocentroid set sizes `hs` with
    /// the sum aggregator, 4 seeding restarts on the first batch, and a
    /// serial execution context.
    pub fn new(hs: Vec<usize>) -> Self {
        MiniBatchKrKMeans {
            hs,
            aggregator: Aggregator::Sum,
            init_restarts: 4,
            seed: 0,
            exec: ExecCtx::serial(),
            state: None,
        }
    }

    /// Sets the aggregator (`⊕ ∈ {+, ×}`).
    pub fn with_aggregator(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Sets the restart count of the first-batch seeding fit.
    pub fn with_init_restarts(mut self, restarts: usize) -> Self {
        self.init_restarts = restarts.max(1);
        self
    }

    /// Sets the RNG seed (streams are deterministic given the seed and
    /// the batch sequence).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution context used by the first-batch seeding fit
    /// and the per-batch assignment step.
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// Total points observed so far.
    pub fn n_observed(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.n_observed)
    }

    /// Pre-update inertia of every batch observed so far (see
    /// [`MiniBatchKrModel::batch_inertia`]).
    pub fn batch_inertia(&self) -> &[f64] {
        self.state.as_ref().map_or(&[], |s| &s.batch_inertia)
    }

    /// Seeds the protocentroids from the first batch: a full KR-k-Means
    /// fit over that batch alone, on an RNG stream derived from the
    /// configured seed.
    fn init_state(&self, batch: &Matrix) -> Result<MbState> {
        let fit = KrKMeans::new(self.hs.clone())
            .with_aggregator(self.aggregator)
            .with_n_init(self.init_restarts)
            .with_max_iter(INIT_MAX_ITER)
            .with_seed(self.seed)
            .with_exec(self.exec.clone())
            .fit(batch)?;
        let k: usize = self.hs.iter().product();
        Ok(MbState {
            sets: fit.protocentroids,
            acc: SuffStats::zeros(k, batch.ncols()),
            n_observed: 0,
            batch_inertia: Vec::new(),
            last_batch_inertia: f64::NAN,
        })
    }
}

impl StreamSummarizer for MiniBatchKrKMeans {
    type Model = MiniBatchKrModel;

    fn observe(&mut self, batch: &Matrix) -> Result<()> {
        if batch.nrows() == 0 {
            return Ok(());
        }
        let _batch_span = kr_obs::span!("stream.batch", "rows" => batch.nrows());
        kr_obs::counter!("stream.batch_rows", batch.nrows());
        if !batch.all_finite() {
            return Err(CoreError::NonFiniteInput);
        }
        if self.state.is_none() {
            self.state = Some(self.init_state(batch)?);
        }
        let state = self.state.as_mut().expect("initialized above");
        if batch.ncols() != state.acc.m() {
            return Err(CoreError::InvalidConfig(format!(
                "batch has {} features, stream started with {}",
                batch.ncols(),
                state.acc.m()
            )));
        }
        let centroids = khatri_rao(&state.sets, self.aggregator).expect("validated sets");
        let (labels, dmin) = {
            let _assign_span = kr_obs::span!("stream.assign", "k" => centroids.nrows());
            nearest_assignments_with(batch, &centroids, &self.exec)
        };
        state.last_batch_inertia = dmin.iter().sum();
        kr_obs::gauge!("stream.batch_inertia", state.last_batch_inertia);
        if state.batch_inertia.len() < TELEMETRY_CAP {
            state.batch_inertia.push(state.last_batch_inertia);
        }
        state.acc.observe_batch(batch, &labels)?;
        state.n_observed += batch.nrows();
        // Closed-form recomputation from cumulative statistics: clusters
        // whose combinations hold no mass keep their protocentroids (the
        // stream has no raw data to reseed from, like the federated
        // server).
        prop61_update_from_stats(
            &state.acc.sums,
            &state.acc.counts_usize(),
            &mut state.sets,
            self.aggregator,
        );
        Ok(())
    }

    fn summary(&self) -> Result<WeightedDataset> {
        let state = self.state.as_ref().ok_or(CoreError::EmptyInput)?;
        let centroids = khatri_rao(&state.sets, self.aggregator).expect("validated sets");
        let occupied: Vec<usize> = state
            .acc
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i)
            .collect();
        let points = centroids.select_rows(&occupied);
        let weights: Vec<f64> = occupied
            .iter()
            .map(|&i| state.acc.counts[i] as f64)
            .collect();
        Ok(WeightedDataset::new("minibatch-kr", points, weights))
    }

    fn finalize(self) -> Result<MiniBatchKrModel> {
        let state = self.state.ok_or(CoreError::EmptyInput)?;
        Ok(MiniBatchKrModel {
            protocentroids: state.sets,
            aggregator: self.aggregator,
            n_observed: state.n_observed,
            batch_inertia: state.batch_inertia,
            last_batch_inertia: state.last_batch_inertia,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kr_datasets::stream::ChunkedReplay;
    use kr_linalg::PruneMode;

    fn run_stream(exec: ExecCtx, batch: usize) -> MiniBatchKrModel {
        let ds = kr_datasets::synthetic::blobs(240, 2, 9, 0.3, 21);
        let mut mb = MiniBatchKrKMeans::new(vec![3, 3])
            .with_seed(5)
            .with_exec(exec);
        for b in ChunkedReplay::new(&ds.data, batch, 2) {
            mb.observe(&b).unwrap();
        }
        mb.finalize().unwrap()
    }

    #[test]
    fn summarizes_a_stream() {
        let model = run_stream(ExecCtx::serial(), 60);
        assert_eq!(model.n_observed, 240);
        assert_eq!(model.batch_inertia.len(), 4);
        assert_eq!(model.centroids().nrows(), 9);
        assert_eq!(model.n_parameters(), (3 + 3) * 2);
        assert!(model.centroids().all_finite());
    }

    #[test]
    fn summary_mass_equals_points_observed() {
        let ds = kr_datasets::synthetic::blobs(100, 3, 4, 0.4, 8);
        let mut mb = MiniBatchKrKMeans::new(vec![2, 2]).with_seed(1);
        for b in ChunkedReplay::new(&ds.data, 32, 0) {
            mb.observe(&b).unwrap();
        }
        let summary = mb.summary().unwrap();
        assert_eq!(summary.total_weight(), 100.0);
        assert!(summary.n_points() <= 4);
    }

    #[test]
    fn empty_batches_are_ignored_and_errors_surface() {
        let mut mb = MiniBatchKrKMeans::new(vec![2, 2]);
        mb.observe(&Matrix::zeros(0, 3)).unwrap();
        assert!(matches!(mb.summary(), Err(CoreError::EmptyInput)));
        let mut bad = Matrix::zeros(8, 2);
        bad.set(0, 0, f64::NAN);
        assert!(matches!(mb.observe(&bad), Err(CoreError::NonFiniteInput)));
        // Too few rows for the grid on the seeding batch.
        assert!(matches!(
            mb.observe(&Matrix::zeros(1, 2)),
            Err(CoreError::TooFewPoints { .. })
        ));
        // Dimension drift after the stream started.
        let ok = Matrix::from_fn(8, 2, |i, j| (i * 2 + j) as f64);
        mb.observe(&ok).unwrap();
        assert!(matches!(
            mb.observe(&Matrix::zeros(4, 3)),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn telemetry_history_is_capped() {
        // State must stay bounded on arbitrarily long streams: the
        // history stops growing at the cap while the latest batch's
        // inertia stays tracked.
        let batch = Matrix::from_fn(8, 2, |i, j| ((i * 2 + j) % 5) as f64);
        let mut mb = MiniBatchKrKMeans::new(vec![2, 2])
            .with_seed(3)
            .with_init_restarts(1);
        for _ in 0..(TELEMETRY_CAP + 10) {
            mb.observe(&batch).unwrap();
        }
        assert_eq!(mb.batch_inertia().len(), TELEMETRY_CAP);
        assert_eq!(mb.n_observed(), (TELEMETRY_CAP + 10) * 8);
        let model = mb.finalize().unwrap();
        assert!(model.last_batch_inertia.is_finite());
    }

    #[test]
    fn deterministic_given_seed_and_batches() {
        let a = run_stream(ExecCtx::serial(), 60);
        let b = run_stream(ExecCtx::serial(), 60);
        assert_eq!(a.protocentroids, b.protocentroids);
        for (x, y) in a.batch_inertia.iter().zip(&b.batch_inertia) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn drifting_stream_is_bitwise_equal_with_pruning_on_and_off() {
        // A stream whose batches come from *shifting* distributions drags
        // the centroids along (Prop 6.1 updates follow the data). The
        // prune mode reaches the first-batch seeding fit, whose bounded
        // engine must not change a single output bit vs. the pruning-off
        // path.
        let run = |mode: PruneMode| {
            let mut mb = MiniBatchKrKMeans::new(vec![2, 2])
                .with_seed(9)
                .with_init_restarts(2)
                .with_exec(ExecCtx::serial().with_prune_mode(mode));
            for step in 0..12 {
                // Gradual mean drift: each batch sits 0.8 further out.
                let shift = step as f64 * 0.8;
                let batch =
                    Matrix::from_fn(24, 2, |i, j| ((i * 3 + j * 5) % 11) as f64 * 0.5 + shift);
                mb.observe(&batch).unwrap();
            }
            mb.finalize().unwrap()
        };
        let reference = run(PruneMode::Off);
        let pruned = run(PruneMode::On);
        assert_eq!(pruned.protocentroids, reference.protocentroids);
        for (a, b) in pruned.batch_inertia.iter().zip(&reference.batch_inertia) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            pruned.last_batch_inertia.to_bits(),
            reference.last_batch_inertia.to_bits()
        );
    }

    #[test]
    fn exec_determinism_pool_1_2_8_workers() {
        use kr_linalg::ThreadPool;
        use std::sync::Arc;
        // Product aggregation needs positive coordinates to be a sensible
        // model; shift the blobs clear of the origin.
        let positive = kr_datasets::synthetic::blobs(240, 2, 9, 0.3, 21)
            .data
            .map(|v| v + 20.0);
        let run_product = |exec: ExecCtx| {
            let mut mb = MiniBatchKrKMeans::new(vec![3, 3])
                .with_aggregator(Aggregator::Product)
                .with_seed(5)
                .with_exec(exec);
            for b in ChunkedReplay::new(&positive, 60, 2) {
                mb.observe(&b).unwrap();
            }
            mb.finalize().unwrap()
        };
        let reference = run_stream(ExecCtx::serial(), 60);
        let product_reference = run_product(ExecCtx::serial());
        let mut variants: Vec<(String, ExecCtx)> = [1usize, 2, 8]
            .into_iter()
            .map(|workers| {
                let pool = Arc::new(ThreadPool::new(workers));
                let exec = ExecCtx::threaded(workers + 1).with_pool(pool);
                (format!("workers={workers}"), exec)
            })
            .collect();
        variants.push((
            "prune=Off".into(),
            ExecCtx::serial().with_prune_mode(PruneMode::Off),
        ));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (ctx, exec) in variants {
            for (model, expect) in [
                (run_stream(exec.clone(), 60), &reference),
                (run_product(exec), &product_reference),
            ] {
                let agg = model.aggregator;
                assert_eq!(model.protocentroids, expect.protocentroids, "{ctx} {agg:?}");
                assert_eq!(
                    bits(&model.batch_inertia),
                    bits(&expect.batch_inertia),
                    "{ctx} {agg:?}"
                );
            }
        }
    }
}

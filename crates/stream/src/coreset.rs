//! Merge-reduce coreset tree: bounded-memory weighted-representative
//! summaries of an unbounded stream.
//!
//! The classic streaming construction (Bentley & Saxe merge-reduce, as
//! used by Har-Peled & Mazumdar and the streaming-k-means literature):
//! incoming points fill a **leaf buffer**; a full buffer is compressed
//! into one weighted node of at most `budget` representatives; nodes
//! live on a binary **level ladder** where two nodes meeting at level
//! `l` merge (ordered: older first) and re-compress into one node at
//! level `l + 1`. Compression is the workspace's own weighted machinery:
//! a [`WeightedKMeans`] fit whose centroids become the representatives,
//! each weighted by the point mass it absorbed — exactly the
//! weighted-representative invariant Rk-means (Curtin et al.) shows
//! preserves clustering quality.
//!
//! **Bounded node count.** After any `observe` call the tree holds at
//! most one node per level and at most `leaf_size − 1` buffered raw
//! points, and a stream of `n` points creates at most
//! `⌊log₂(max(⌈n / leaf_size⌉, 1))⌋ + 1` levels. During a merge the
//! carried node transiently coexists with the occupied level it is
//! merging into, so the live representative count never exceeds
//!
//! ```text
//! leaf_size + budget · (levels + 1)
//! ```
//!
//! — the closed form [`CoresetTree::representative_bound`] returns and
//! the tests (plus the `fig_stream_scalability` harness) verify against
//! the measured [`CoresetTree::peak_representatives`].
//!
//! Total weight is conserved: every batch adds exactly its row count to
//! the summary's total mass, so the summary stays a faithful coreset of
//! the stream.
//!
//! ```
//! use kr_stream::{CoresetTree, StreamSummarizer};
//! use kr_linalg::Matrix;
//!
//! let batch = Matrix::from_fn(64, 2, |i, j| ((i * 13 + j * 7) % 32) as f64);
//! let mut tree = CoresetTree::new(4, 8).with_leaf_size(16).with_seed(1);
//! tree.observe(&batch).unwrap();
//! let summary = tree.summary().unwrap();
//! assert_eq!(summary.total_weight(), 64.0); // mass conserved
//! assert!(tree.peak_representatives() <= tree.representative_bound());
//! ```

use crate::StreamSummarizer;
use kr_core::baselines::WeightedKMeans;
use kr_core::{CoreError, Result};
use kr_datasets::weighted::WeightedDataset;
use kr_linalg::{ExecCtx, Matrix};

/// Decorrelates per-compression RNG streams (an arbitrary odd 64-bit
/// constant, the same mixer the warm-start salt uses).
const COMPRESS_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One weighted node of the ladder: representatives plus their masses.
#[derive(Debug, Clone)]
struct WeightedNode {
    points: Matrix,
    weights: Vec<f64>,
}

/// Streaming merge-reduce coreset tree (builder style).
#[derive(Debug, Clone)]
pub struct CoresetTree {
    k: usize,
    budget: usize,
    leaf_size: usize,
    n_init: usize,
    max_iter: usize,
    seed: u64,
    exec: ExecCtx,
    // ---- streaming state ----
    m: Option<usize>,
    buffer: Vec<f64>,
    buffer_rows: usize,
    levels: Vec<Option<WeightedNode>>,
    level_reps: usize,
    n_observed: usize,
    peak_representatives: usize,
    compressions: u64,
}

/// The model a finished [`CoresetTree`] stream produces: `k` centroids
/// fitted over the final coreset.
#[derive(Debug, Clone)]
pub struct CoresetModel {
    /// Final centroids, `k x m`.
    pub centroids: Matrix,
    /// Weighted inertia of the final fit over the coreset (the objective
    /// the compressed fit optimizes; evaluate against raw data with
    /// `kr_metrics::inertia` when the data is still at hand).
    pub compressed_inertia: f64,
    /// Total points observed by the stream.
    pub n_observed: usize,
    /// Representatives in the summary the final fit consumed.
    pub n_representatives: usize,
    /// Highest live representative count the tree ever held.
    pub peak_representatives: usize,
}

impl CoresetTree {
    /// Creates a tree that summarizes toward `k` final clusters with at
    /// most `budget` representatives per compressed node. Defaults:
    /// leaf buffer of `4 · budget` raw points, 4 restarts, 50 Lloyd
    /// iterations per compression, seed 0, serial execution.
    pub fn new(k: usize, budget: usize) -> Self {
        let budget = budget.max(1);
        CoresetTree {
            k: k.max(1),
            budget,
            leaf_size: 4 * budget,
            n_init: 4,
            max_iter: 50,
            seed: 0,
            exec: ExecCtx::serial(),
            m: None,
            buffer: Vec::new(),
            buffer_rows: 0,
            levels: Vec::new(),
            level_reps: 0,
            n_observed: 0,
            peak_representatives: 0,
            compressions: 0,
        }
    }

    /// Sets the leaf-buffer capacity (raw points held before the first
    /// compression; clamped to at least `budget + 1` so compressing a
    /// leaf actually reduces it).
    pub fn with_leaf_size(mut self, leaf_size: usize) -> Self {
        self.leaf_size = leaf_size.max(self.budget + 1);
        self
    }

    /// Sets the restart count of every compression / final fit.
    pub fn with_n_init(mut self, n_init: usize) -> Self {
        self.n_init = n_init.max(1);
        self
    }

    /// Sets the Lloyd iteration cap of every compression / final fit.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// Sets the RNG seed (streams are deterministic given the seed and
    /// the batch sequence).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution context used by the compression fits.
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// Total points observed so far.
    pub fn n_observed(&self) -> usize {
        self.n_observed
    }

    /// Highest live representative count (buffered raw points + node
    /// representatives, merge transients included) the tree ever held.
    pub fn peak_representatives(&self) -> usize {
        self.peak_representatives
    }

    /// The closed-form bound [`CoresetTree::peak_representatives`] never
    /// exceeds: `leaf_size + budget · (levels + 1)` for the ladder the
    /// stream has actually grown (see the module docs for the proof
    /// sketch).
    pub fn representative_bound(&self) -> usize {
        self.leaf_size + self.budget * (self.levels.len() + 1)
    }

    /// Live representatives right now (buffer + all level nodes).
    fn live_representatives(&self) -> usize {
        self.buffer_rows + self.level_reps
    }

    fn track_peak(&mut self, extra: usize) {
        let live = self.live_representatives() + extra;
        if live > self.peak_representatives {
            self.peak_representatives = live;
        }
    }

    /// Compresses a weighted set to at most `budget` representatives
    /// with a weighted Lloyd fit; representatives are the fitted
    /// centroids weighted by the mass they absorbed (zero-mass centroids
    /// — final-iteration reseeds that captured nothing — are dropped in
    /// index order).
    fn compress(&mut self, points: &Matrix, weights: &[f64]) -> WeightedNode {
        debug_assert!(points.nrows() > self.budget);
        self.compressions += 1;
        kr_obs::counter!("stream.compressions", 1, "rows" => points.nrows());
        let salt = self
            .seed
            .wrapping_add(self.compressions.wrapping_mul(COMPRESS_SALT));
        let model = WeightedKMeans::new(self.budget)
            .with_n_init(self.n_init)
            .with_max_iter(self.max_iter)
            .with_seed(salt)
            .with_exec(self.exec.clone())
            .fit(points, weights)
            .expect("compression input validated by the stream");
        let mut masses = vec![0.0f64; self.budget];
        for (&l, &w) in model.labels.iter().zip(weights) {
            masses[l] += w;
        }
        let keep: Vec<usize> = (0..self.budget).filter(|&c| masses[c] > 0.0).collect();
        WeightedNode {
            points: model.centroids.select_rows(&keep),
            weights: keep.iter().map(|&c| masses[c]).collect(),
        }
    }

    /// Inserts a node at level 0, carrying merges up the ladder: two
    /// nodes at one level merge (older node's rows first — the fixed
    /// order the determinism contract requires) and re-compress one
    /// level up.
    fn insert(&mut self, mut node: WeightedNode) {
        let mut level = 0;
        loop {
            if level == self.levels.len() {
                self.levels.push(None);
            }
            match self.levels[level].take() {
                None => {
                    self.level_reps += node.points.nrows();
                    self.levels[level] = Some(node);
                    self.track_peak(0);
                    kr_obs::hist!("stream.ladder_depth", self.levels.len());
                    return;
                }
                Some(older) => {
                    self.level_reps -= older.points.nrows();
                    // Both operands are live while merging.
                    self.track_peak(older.points.nrows() + node.points.nrows());
                    let points = older
                        .points
                        .vstack(&node.points)
                        .expect("stream-wide dimension already validated");
                    let mut weights = older.weights;
                    weights.extend_from_slice(&node.weights);
                    node = if points.nrows() > self.budget {
                        self.compress(&points, &weights)
                    } else {
                        WeightedNode { points, weights }
                    };
                    level += 1;
                }
            }
        }
    }

    /// Drains the full leaf buffer into a compressed level-0 node.
    fn flush_leaf(&mut self) {
        let m = self.m.expect("buffer only fills after m is known");
        let points = Matrix::from_vec(self.buffer_rows, m, std::mem::take(&mut self.buffer))
            .expect("buffer is row-aligned");
        self.buffer_rows = 0;
        let weights = vec![1.0f64; points.nrows()];
        let node = if points.nrows() > self.budget {
            self.compress(&points, &weights)
        } else {
            WeightedNode { points, weights }
        };
        self.insert(node);
    }
}

impl StreamSummarizer for CoresetTree {
    type Model = CoresetModel;

    fn observe(&mut self, batch: &Matrix) -> Result<()> {
        if batch.nrows() == 0 {
            return Ok(());
        }
        let _batch_span = kr_obs::span!("stream.batch", "rows" => batch.nrows());
        kr_obs::counter!("stream.batch_rows", batch.nrows());
        if !batch.all_finite() {
            return Err(CoreError::NonFiniteInput);
        }
        match self.m {
            None => {
                if batch.ncols() == 0 {
                    return Err(CoreError::EmptyInput);
                }
                self.m = Some(batch.ncols());
            }
            Some(m) if m != batch.ncols() => {
                return Err(CoreError::InvalidConfig(format!(
                    "batch has {} features, stream started with {m}",
                    batch.ncols()
                )));
            }
            Some(_) => {}
        }
        for row in batch.rows_iter() {
            self.buffer.extend_from_slice(row);
            self.buffer_rows += 1;
            self.n_observed += 1;
            self.track_peak(0);
            // `>=`, not `==`: a mid-stream `with_leaf_size` below the
            // current fill must still flush on the next row instead of
            // letting the buffer grow unbounded.
            if self.buffer_rows >= self.leaf_size {
                self.flush_leaf();
            }
        }
        Ok(())
    }

    fn summary(&self) -> Result<WeightedDataset> {
        if self.n_observed == 0 {
            return Err(CoreError::EmptyInput);
        }
        let m = self.m.expect("observed implies known dimension");
        // Fixed order: levels ascending (newest mass first), buffer last.
        let mut rows = 0usize;
        let mut points = Matrix::zeros(self.live_representatives(), m);
        let mut weights = Vec::with_capacity(self.live_representatives());
        for node in self.levels.iter().flatten() {
            for (row, &w) in node.points.rows_iter().zip(&node.weights) {
                points.row_mut(rows).copy_from_slice(row);
                weights.push(w);
                rows += 1;
            }
        }
        for row in self.buffer.chunks_exact(m) {
            points.row_mut(rows).copy_from_slice(row);
            weights.push(1.0);
            rows += 1;
        }
        debug_assert_eq!(rows, points.nrows());
        Ok(WeightedDataset::new("coreset-tree", points, weights))
    }

    fn finalize(self) -> Result<CoresetModel> {
        let summary = self.summary()?;
        let model = WeightedKMeans::new(self.k)
            .with_n_init(self.n_init)
            .with_max_iter(self.max_iter)
            .with_seed(self.seed)
            .with_exec(self.exec.clone())
            .fit(&summary.points, &summary.weights)?;
        Ok(CoresetModel {
            centroids: model.centroids,
            compressed_inertia: model.inertia,
            n_observed: self.n_observed,
            n_representatives: summary.n_points(),
            peak_representatives: self.peak_representatives,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kr_datasets::stream::ChunkedReplay;

    fn run_stream(exec: ExecCtx, n: usize, batch: usize) -> (CoresetTree, usize) {
        let ds = kr_datasets::synthetic::blobs(n, 2, 4, 0.3, 33);
        let mut tree = CoresetTree::new(4, 16)
            .with_leaf_size(32)
            .with_seed(9)
            .with_exec(exec);
        for b in ChunkedReplay::new(&ds.data, batch, 4) {
            tree.observe(&b).unwrap();
        }
        let bound = tree.representative_bound();
        (tree, bound)
    }

    #[test]
    fn mass_is_conserved_and_bound_holds() {
        let (tree, bound) = run_stream(ExecCtx::serial(), 500, 48);
        let summary = tree.summary().unwrap();
        assert_eq!(summary.total_weight(), 500.0);
        assert!(summary.n_points() < 500, "no compression happened");
        assert!(
            tree.peak_representatives() <= bound,
            "peak {} over bound {bound}",
            tree.peak_representatives()
        );
    }

    #[test]
    fn finalize_clusters_the_coreset() {
        let (tree, _) = run_stream(ExecCtx::serial(), 400, 64);
        let model = tree.finalize().unwrap();
        assert_eq!(model.centroids.nrows(), 4);
        assert_eq!(model.n_observed, 400);
        assert!(model.centroids.all_finite());
        assert!(model.compressed_inertia.is_finite());
        assert!(model.peak_representatives <= 32 + 16 * 6);
    }

    #[test]
    fn small_streams_stay_lossless() {
        // Fewer points than the leaf buffer: the summary is the raw data.
        let data = Matrix::from_fn(10, 2, |i, j| (i * 2 + j) as f64);
        let mut tree = CoresetTree::new(2, 8).with_leaf_size(16);
        tree.observe(&data).unwrap();
        let summary = tree.summary().unwrap();
        assert_eq!(summary.n_points(), 10);
        assert!(summary.weights.iter().all(|&w| w == 1.0));
        assert_eq!(summary.points, data);
    }

    #[test]
    fn mid_stream_leaf_shrink_still_flushes() {
        // Shrinking the leaf buffer below its current fill must flush
        // on the next row rather than leaving the buffer growing
        // unbounded past the (new) capacity forever.
        let mut tree = CoresetTree::new(2, 8).with_leaf_size(64);
        tree.observe(&Matrix::from_fn(40, 2, |i, j| (i * 2 + j) as f64))
            .unwrap();
        tree = tree.with_leaf_size(16);
        tree.observe(&Matrix::from_fn(1, 2, |_, j| j as f64))
            .unwrap();
        // The 41 buffered rows were compressed into the ladder.
        assert_eq!(tree.buffer_rows, 0);
        assert!(tree.level_reps <= 8);
        assert_eq!(tree.summary().unwrap().total_weight(), 41.0);
    }

    #[test]
    fn rejects_bad_batches() {
        let mut tree = CoresetTree::new(2, 4);
        let mut bad = Matrix::zeros(3, 2);
        bad.set(1, 1, f64::INFINITY);
        assert!(matches!(tree.observe(&bad), Err(CoreError::NonFiniteInput)));
        assert!(matches!(tree.summary(), Err(CoreError::EmptyInput)));
        tree.observe(&Matrix::from_fn(3, 2, |i, j| (i + j) as f64))
            .unwrap();
        assert!(matches!(
            tree.observe(&Matrix::zeros(3, 4)),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn deterministic_given_seed_and_batches() {
        let (a, _) = run_stream(ExecCtx::serial(), 300, 50);
        let (b, _) = run_stream(ExecCtx::serial(), 300, 50);
        let (sa, sb) = (a.summary().unwrap(), b.summary().unwrap());
        assert_eq!(sa.points, sb.points);
        assert_eq!(sa.weights, sb.weights);
    }

    #[test]
    fn exec_determinism_pool_1_2_8_workers() {
        use kr_linalg::ThreadPool;
        use std::sync::Arc;
        let (reference, _) = run_stream(ExecCtx::serial(), 300, 50);
        let ref_model = reference.finalize().unwrap();
        for workers in [1usize, 2, 8] {
            let pool = Arc::new(ThreadPool::new(workers));
            let exec = ExecCtx::threaded(workers + 1).with_pool(Arc::clone(&pool));
            let (tree, _) = run_stream(exec, 300, 50);
            let model = tree.finalize().unwrap();
            assert_eq!(model.centroids, ref_model.centroids, "workers={workers}");
            assert_eq!(
                model.compressed_inertia.to_bits(),
                ref_model.compressed_inertia.to_bits()
            );
            assert_eq!(model.peak_representatives, ref_model.peak_representatives);
        }
    }
}

//! Sufficient statistics for distributed *and streaming* mean updates.
//!
//! Both the exact k-Means mean update and the Proposition 6.1 closed
//! forms ([`crate::kr_kmeans::prop61_update_from_stats`]) depend on the
//! data only through per-cluster coordinate sums `Σ_{x∈C} x` and member
//! counts `|C|`. [`SuffStats`] packages exactly that pair, so a
//! federated client can compute it locally, a wire layer can frame it
//! (every field is a flat row-major `f64`/`u64` block), and a server can
//! merge client contributions in a fixed order — which keeps distributed
//! updates bitwise deterministic. A batch KR fit runs the same
//! closed-form code on the same pair, each cluster's sum built in point
//! order as [`SuffStats::observe`] builds it, so one client's statistics
//! update the sets bitwise as the centralized pass does.
//!
//! The same pair is what a *bounded-memory stream* accumulates:
//! [`SuffStats::observe`] folds one labeled point and
//! [`SuffStats::observe_batch`] a labeled batch, both strictly in point
//! order. Because a batch fold is nothing but the point folds run
//! back-to-back, accumulating a stream chunk by chunk is **bitwise
//! identical** to accumulating the concatenated data flat — the
//! invariant `kr-stream`'s mini-batch summarizers rely on
//! (property-tested in `tests/suffstats_proptests.rs`).
//!
//! ```
//! use kr_core::stats::SuffStats;
//! use kr_linalg::Matrix;
//!
//! let mut a = SuffStats::zeros(2, 3);
//! a.sums.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
//! a.counts[0] = 1;
//! let mut b = SuffStats::zeros(2, 3);
//! b.sums.row_mut(0).copy_from_slice(&[4.0, 4.0, 4.0]);
//! b.counts[0] = 2;
//! a.merge(&b).unwrap();
//! assert_eq!(a.sums.row(0), &[5.0, 6.0, 7.0]);
//! assert_eq!(a.counts, vec![3, 0]);
//! ```

use crate::{CoreError, Result};
use kr_linalg::Matrix;

/// Per-cluster coordinate sums and member counts — the sufficient
/// statistics of one Lloyd / KR-k-Means update.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffStats {
    /// `k x m`: per-cluster coordinate sums.
    pub sums: Matrix,
    /// `k`: per-cluster member counts.
    pub counts: Vec<u64>,
}

impl SuffStats {
    /// All-zero statistics for `k` clusters over `m` features.
    pub fn zeros(k: usize, m: usize) -> Self {
        SuffStats {
            sums: Matrix::zeros(k, m),
            counts: vec![0; k],
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.sums.nrows()
    }

    /// Number of features.
    pub fn m(&self) -> usize {
        self.sums.ncols()
    }

    /// Adds `other`'s sums and counts into `self`, elementwise in index
    /// order. Merging a sequence of client contributions in a fixed
    /// order is deterministic at any thread count.
    pub fn merge(&mut self, other: &SuffStats) -> Result<()> {
        if self.sums.shape() != other.sums.shape() || self.counts.len() != other.counts.len() {
            return Err(CoreError::Transport(format!(
                "sufficient-statistics shape mismatch: {:?}/{} vs {:?}/{}",
                self.sums.shape(),
                self.counts.len(),
                other.sums.shape(),
                other.counts.len()
            )));
        }
        self.sums
            .axpy_inplace(1.0, &other.sums)
            .expect("shapes checked");
        for (c, &o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        Ok(())
    }

    /// Folds one point into cluster `cluster`'s statistics: coordinate
    /// sums accumulate in feature order, the count increments by one.
    ///
    /// # Panics
    /// Panics when `cluster` is out of range or `x` has the wrong
    /// dimension — a labeling bug, not a runtime condition.
    pub fn observe(&mut self, x: &[f64], cluster: usize) {
        assert!(cluster < self.counts.len(), "cluster index out of range");
        assert_eq!(x.len(), self.sums.ncols(), "feature dimension mismatch");
        for (s, &v) in self.sums.row_mut(cluster).iter_mut().zip(x) {
            *s += v;
        }
        self.counts[cluster] += 1;
    }

    /// Folds a labeled batch in point order — exactly
    /// [`SuffStats::observe`] once per row, so splitting a dataset into
    /// consecutive batches and folding them in sequence is bitwise
    /// identical to folding the whole dataset at once.
    pub fn observe_batch(&mut self, data: &Matrix, labels: &[usize]) -> Result<()> {
        if data.nrows() != labels.len() {
            return Err(CoreError::InvalidConfig(format!(
                "one label per point required: {} labels for {} points",
                labels.len(),
                data.nrows()
            )));
        }
        if data.nrows() > 0 && data.ncols() != self.m() {
            return Err(CoreError::InvalidConfig(format!(
                "batch has {} features, statistics track {}",
                data.ncols(),
                self.m()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= self.k()) {
            return Err(CoreError::InvalidConfig(format!(
                "label {bad} out of range for {} clusters",
                self.k()
            )));
        }
        for (x, &l) in data.rows_iter().zip(labels) {
            self.observe(x, l);
        }
        Ok(())
    }

    /// Counts widened to `usize`, the type the update closed forms take.
    pub fn counts_usize(&self) -> Vec<usize> {
        self.counts.iter().map(|&c| c as usize).collect()
    }

    /// Number of 8-byte words a frame of these statistics carries
    /// (`k·m` sums plus `k` counts) — the closed-form uplink accounting
    /// of the paper's Figure 10.
    pub fn wire_f64s(&self) -> usize {
        self.sums.len() + self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_rejects_shape_mismatch() {
        let mut a = SuffStats::zeros(2, 3);
        let b = SuffStats::zeros(3, 3);
        assert!(matches!(a.merge(&b), Err(CoreError::Transport(_))));
    }

    #[test]
    fn merge_order_is_fixed_and_exact() {
        let mut acc = SuffStats::zeros(1, 1);
        for v in [1.0f64, 1e-16, 1e-16] {
            let mut part = SuffStats::zeros(1, 1);
            part.sums.set(0, 0, v);
            part.counts[0] = 1;
            acc.merge(&part).unwrap();
        }
        // Left-to-right accumulation: (1 + 1e-16) + 1e-16, not
        // 1 + (1e-16 + 1e-16).
        assert_eq!(
            acc.sums.get(0, 0).to_bits(),
            ((1.0f64 + 1e-16) + 1e-16).to_bits()
        );
        assert_eq!(acc.counts[0], 3);
    }

    #[test]
    fn wire_f64s_is_closed_form() {
        assert_eq!(SuffStats::zeros(4, 7).wire_f64s(), 4 * 7 + 4);
    }

    #[test]
    fn observe_batch_matches_point_folds() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let labels = [0usize, 1, 0];
        let mut batched = SuffStats::zeros(2, 2);
        batched.observe_batch(&data, &labels).unwrap();
        let mut pointwise = SuffStats::zeros(2, 2);
        for (x, &l) in data.rows_iter().zip(labels.iter()) {
            pointwise.observe(x, l);
        }
        assert_eq!(batched, pointwise);
        assert_eq!(batched.counts, vec![2, 1]);
        assert_eq!(batched.sums.row(0), &[6.0, 8.0]);
    }

    #[test]
    fn observe_batch_rejects_bad_inputs() {
        let data = Matrix::zeros(2, 3);
        let mut s = SuffStats::zeros(2, 3);
        assert!(s.observe_batch(&data, &[0]).is_err());
        assert!(s.observe_batch(&data, &[0, 2]).is_err());
        let wrong_dim = Matrix::zeros(2, 4);
        assert!(s.observe_batch(&wrong_dim, &[0, 1]).is_err());
    }
}

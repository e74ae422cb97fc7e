//! Khatri-Rao operators and the mixed-radix centroid indexer.
//!
//! Given `p` sets of protocentroids (set `l` holding `h_l` vectors), the
//! Khatri-Rao `⊕` operator produces all `h_1 · h_2 · … · h_p` vectors
//! obtained by aggregating one vector from each set (paper, Section 3).
//! Each resulting centroid is identified both by a flat index
//! `i ∈ [0, k)` and by the tuple `(j_1, …, j_p)`; the bijection is the
//! row-major mixed-radix encoding implemented by [`CentroidIndexer`].

use crate::aggregator::Aggregator;
use crate::{CoreError, Result};
use kr_linalg::Matrix;

/// Bijection between flat centroid indices and protocentroid tuples.
///
/// ```
/// use kr_core::operator::CentroidIndexer;
/// let ix = CentroidIndexer::new(vec![3, 2]);
/// assert_eq!(ix.n_centroids(), 6);
/// assert_eq!(ix.to_tuple(4), vec![2, 0]);
/// assert_eq!(ix.to_flat(&[2, 0]), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CentroidIndexer {
    hs: Vec<usize>,
}

impl CentroidIndexer {
    /// Creates an indexer for set cardinalities `hs` (all must be >= 1).
    pub fn new(hs: Vec<usize>) -> Self {
        assert!(
            !hs.is_empty() && hs.iter().all(|&h| h >= 1),
            "set sizes must be >= 1"
        );
        CentroidIndexer { hs }
    }

    /// Set cardinalities.
    pub fn hs(&self) -> &[usize] {
        &self.hs
    }

    /// Number of protocentroid sets `p`.
    pub fn n_sets(&self) -> usize {
        self.hs.len()
    }

    /// Total number of representable centroids `∏ h_l`.
    pub fn n_centroids(&self) -> usize {
        self.hs.iter().product()
    }

    /// Total number of stored protocentroid vectors `Σ h_l`.
    pub fn n_protocentroids(&self) -> usize {
        self.hs.iter().sum()
    }

    /// Flat index -> tuple `(j_1, …, j_p)` (row-major: last set varies
    /// fastest).
    pub fn to_tuple(&self, flat: usize) -> Vec<usize> {
        let mut tuple = vec![0usize; self.hs.len()];
        self.to_tuple_into(flat, &mut tuple);
        tuple
    }

    /// [`CentroidIndexer::to_tuple`] written into a caller-provided
    /// buffer of length `p` — the allocation-free form for per-iteration
    /// loops over the centroid grid.
    pub fn to_tuple_into(&self, mut flat: usize, out: &mut [usize]) {
        debug_assert!(flat < self.n_centroids());
        debug_assert_eq!(out.len(), self.hs.len());
        for (t, &h) in out.iter_mut().zip(self.hs.iter()).rev() {
            *t = flat % h;
            flat /= h;
        }
    }

    /// Tuple -> flat index.
    pub fn to_flat(&self, tuple: &[usize]) -> usize {
        debug_assert_eq!(tuple.len(), self.hs.len());
        let mut flat = 0usize;
        for (&j, &h) in tuple.iter().zip(self.hs.iter()) {
            debug_assert!(j < h);
            flat = flat * h + j;
        }
        flat
    }

    /// Iterates over all tuples in flat-index order, reusing one buffer.
    /// The callback receives `(flat_index, tuple)`.
    pub fn for_each_tuple(&self, mut f: impl FnMut(usize, &[usize])) {
        let k = self.n_centroids();
        let mut tuple = vec![0usize; self.hs.len()];
        for flat in 0..k {
            f(flat, &tuple);
            // Odometer increment (last digit fastest).
            for l in (0..tuple.len()).rev() {
                tuple[l] += 1;
                if tuple[l] < self.hs[l] {
                    break;
                }
                tuple[l] = 0;
            }
        }
    }
}

/// The grid size `∏ h_l` of protocentroid set sizes `hs`.
///
/// Returns [`CoreError::InvalidConfig`] when `hs` is empty, holds a zero,
/// or its product overflows or reaches 2^53: flat labels round-trip
/// through `f64` buffers in the assignment step, which hold every
/// integer below 2^53 exactly.
pub fn checked_grid_size(hs: &[usize]) -> Result<usize> {
    if hs.is_empty() || hs.contains(&0) {
        return Err(CoreError::InvalidConfig(
            "protocentroid set sizes must be non-empty and >= 1".into(),
        ));
    }
    hs.iter()
        .try_fold(1usize, |k, &h| k.checked_mul(h))
        .filter(|&k| k < 1 << 53)
        .ok_or_else(|| {
            CoreError::InvalidConfig(format!(
                "{} protocentroid sets span 2^53 or more centroids",
                hs.len()
            ))
        })
}

/// Validates that protocentroid sets are non-empty, span a grid
/// [`checked_grid_size`] accepts, and are dimensionally consistent;
/// returns the shared dimensionality `m`.
pub fn check_sets(sets: &[Matrix]) -> Result<usize> {
    checked_grid_size(&sets.iter().map(|s| s.nrows()).collect::<Vec<_>>())?;
    let m = sets[0].ncols();
    for (l, s) in sets.iter().enumerate() {
        if s.ncols() == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "protocentroid set {l} is empty"
            )));
        }
        if s.ncols() != m {
            return Err(CoreError::InvalidConfig(format!(
                "protocentroid set {l} has dimension {} != {m}",
                s.ncols()
            )));
        }
    }
    Ok(m)
}

/// Materializes the full Khatri-Rao `⊕` aggregation of `sets`:
/// a `(∏ h_l) x m` matrix whose row `i` is
/// `θ_1^{j_1} ⊕ … ⊕ θ_p^{j_p}` for the tuple of flat index `i`.
///
/// For `⊕ = ×` and `p = 2` this is exactly the transposed Khatri-Rao
/// (column-wise Kronecker) product of the transposed sets, whence the
/// paradigm's name.
pub fn khatri_rao(sets: &[Matrix], agg: Aggregator) -> Result<Matrix> {
    let m = check_sets(sets)?;
    let ix = CentroidIndexer::new(sets.iter().map(|s| s.nrows()).collect());
    let mut out = Matrix::zeros(ix.n_centroids(), m);
    ix.for_each_tuple(|flat, tuple| {
        // Start from the first set's row, fold the rest in.
        let row = out.row_mut(flat);
        row.copy_from_slice(sets[0].row(tuple[0]));
        for (l, &j) in tuple.iter().enumerate().skip(1) {
            agg.aggregate_assign(row, sets[l].row(j));
        }
    });
    Ok(out)
}

/// Computes a single centroid `θ_1^{j_1} ⊕ … ⊕ θ_p^{j_p}` into `out`.
pub fn aggregate_tuple_into(out: &mut [f64], sets: &[Matrix], tuple: &[usize], agg: Aggregator) {
    debug_assert_eq!(sets.len(), tuple.len());
    out.copy_from_slice(sets[0].row(tuple[0]));
    for (l, &j) in tuple.iter().enumerate().skip(1) {
        agg.aggregate_assign(out, sets[l].row(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexer_roundtrip() {
        let ix = CentroidIndexer::new(vec![3, 4, 2]);
        assert_eq!(ix.n_centroids(), 24);
        assert_eq!(ix.n_protocentroids(), 9);
        for flat in 0..24 {
            let tuple = ix.to_tuple(flat);
            assert_eq!(ix.to_flat(&tuple), flat);
        }
    }

    #[test]
    fn indexer_ordering_last_fastest() {
        let ix = CentroidIndexer::new(vec![2, 3]);
        assert_eq!(ix.to_tuple(0), vec![0, 0]);
        assert_eq!(ix.to_tuple(1), vec![0, 1]);
        assert_eq!(ix.to_tuple(2), vec![0, 2]);
        assert_eq!(ix.to_tuple(3), vec![1, 0]);
    }

    #[test]
    fn for_each_tuple_matches_to_tuple() {
        let ix = CentroidIndexer::new(vec![2, 2, 3]);
        ix.for_each_tuple(|flat, tuple| {
            assert_eq!(tuple, ix.to_tuple(flat).as_slice(), "flat={flat}");
        });
    }

    #[test]
    fn khatri_rao_sum_small() {
        let s1 = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0]]).unwrap();
        let s2 = Matrix::from_rows(&[vec![0.0, 10.0], vec![0.0, 20.0], vec![0.0, 30.0]]).unwrap();
        let k = khatri_rao(&[s1, s2], Aggregator::Sum).unwrap();
        assert_eq!(k.shape(), (6, 2));
        assert_eq!(k.row(0), &[1.0, 10.0]);
        assert_eq!(k.row(2), &[1.0, 30.0]);
        assert_eq!(k.row(5), &[2.0, 30.0]);
    }

    #[test]
    fn khatri_rao_product_matches_kronecker_columns() {
        // For p = 2 and ⊕ = ×, rows of the result are elementwise
        // products of all row pairs — the (transposed) Khatri-Rao product.
        let s1 = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let s2 = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let k = khatri_rao(&[s1.clone(), s2.clone()], Aggregator::Product).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let row = k.row(i * 2 + j);
                for (c, &v) in row.iter().enumerate() {
                    assert_eq!(v, s1.get(i, c) * s2.get(j, c));
                }
            }
        }
    }

    #[test]
    fn khatri_rao_three_sets() {
        let s = |v: f64| Matrix::from_rows(&[vec![v]]).unwrap();
        let k = khatri_rao(&[s(2.0), s(3.0), s(4.0)], Aggregator::Product).unwrap();
        assert_eq!(k.get(0, 0), 24.0);
        let k = khatri_rao(&[s(2.0), s(3.0), s(4.0)], Aggregator::Sum).unwrap();
        assert_eq!(k.get(0, 0), 9.0);
    }

    #[test]
    fn single_set_is_identity_operator() {
        let s1 = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let k = khatri_rao(std::slice::from_ref(&s1), agg).unwrap();
            assert_eq!(k, s1);
        }
    }

    #[test]
    fn check_sets_rejects_bad_inputs() {
        assert!(check_sets(&[]).is_err());
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(check_sets(&[a.clone(), b]).is_err());
        assert!(check_sets(&[a]).is_ok());
    }

    #[test]
    fn grid_sizes_stay_below_the_label_bound() {
        assert_eq!(checked_grid_size(&[3, 4, 2]).unwrap(), 24);
        assert_eq!(
            checked_grid_size(&[1 << 26, (1 << 27) - 1]).unwrap(),
            (1 << 53) - (1 << 26)
        );
        for hs in [vec![], vec![3, 0], vec![1 << 26, 1 << 27], vec![2; 64]] {
            assert!(
                matches!(checked_grid_size(&hs), Err(CoreError::InvalidConfig(_))),
                "{hs:?}"
            );
        }
        // 3^41 wraps usize: the grid must be refused, not allocated.
        let sets = vec![Matrix::zeros(3, 1); 41];
        assert!(matches!(
            khatri_rao(&sets, Aggregator::Sum),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn aggregate_tuple_matches_full_operator() {
        let s1 = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let s2 = Matrix::from_rows(&[vec![0.5, -1.0], vec![2.0, 0.0]]).unwrap();
        let sets = [s1, s2];
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let full = khatri_rao(&sets, agg).unwrap();
            let ix = CentroidIndexer::new(vec![2, 2]);
            let mut buf = vec![0.0; 2];
            ix.for_each_tuple(|flat, tuple| {
                aggregate_tuple_into(&mut buf, &sets, tuple, agg);
                assert_eq!(buf.as_slice(), full.row(flat));
            });
        }
    }
}

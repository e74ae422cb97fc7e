//! Dense row-major `f64` matrix with cache-blocked hot kernels.
//!
//! The multiply/distance kernels (`matmul_with`, `pairwise_sqdist_with`,
//! …) take an [`ExecCtx`] naming a thread budget, pool, and
//! [`KernelMode`]; `&ExecCtx::serial()` runs them on the calling thread.
//! They are blocked into `MC x KC x NC` panels of fixed size, and each
//! output element accumulates in ascending order of the shared
//! dimension whatever the thread count, so results are bitwise
//! identical at every worker count for a given kernel mode.

use crate::exec::{ExecCtx, KernelMode, Scratch};
use crate::storage::AlignedVec;
use crate::{parallel, LinalgError, Result};

/// The blocked kernels split their output rows into at most one worker
/// chunk per `MC` rows (rounded up).
const MC: usize = 64;
/// Shared-dimension steps per panel of [`Matrix::matmul_with`].
const KC: usize = 256;
/// Output columns per slab. Outputs wider than one slab pack each
/// `KC x NC` panel of the right-hand operand (see `matmul_panel`).
const NC: usize = 1024;

/// A dense, row-major matrix of `f64`.
///
/// Rows are stored contiguously, so [`Matrix::row`] returns a plain slice
/// and the hot clustering kernels iterate over contiguous memory.
///
/// ```
/// use kr_linalg::Matrix;
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Backing store; 32-byte aligned so the [`crate::simd`] kernels can
    /// use full-width lane loads (see [`crate::storage`]).
    data: AlignedVec,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: AlignedVec::zeroed(rows * cols),
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: AlignedVec::filled(rows * cols, value),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: data.into(),
        })
    }

    /// Builds a matrix from a slice of equal-length rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::EmptyDimension("from_rows: no rows"));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::EmptyDimension("from_rows: zero-width rows"));
        }
        let mut data = AlignedVec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (rows.len(), cols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = AlignedVec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix stores zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(i, j)`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets element at `(i, j)`. Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let c = self.cols;
        &self.data[i * c..(i + 1) * c]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let c = self.cols;
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer (copied out of the
    /// aligned store).
    pub fn into_vec(self) -> Vec<f64> {
        self.data.to_vec()
    }

    /// Copies column `j` into a new vector.
    ///
    /// This is a strided gather; loops that touch many columns should
    /// materialize [`Matrix::transpose`] once (blocked, cache-friendly)
    /// and read its contiguous rows instead — or reuse one buffer across
    /// calls with [`Matrix::col_into`].
    pub fn col(&self, j: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.col_into(j, &mut out);
        out
    }

    /// Copies column `j` into `out` (cleared first), reusing its
    /// allocation. The allocation-free counterpart of [`Matrix::col`]
    /// for hot loops that gather many columns.
    pub fn col_into(&self, j: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.rows);
        for i in 0..self.rows {
            out.push(self.get(i, j));
        }
    }

    /// Returns a new matrix containing the listed rows (in order).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Vertically stacks `self` on top of `other`.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = AlignedVec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Horizontally concatenates `self` with `other` (row-wise concat).
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }

    /// Transposed copy, gathered in `32 x 32` tiles so both the source
    /// rows and the destination rows of a tile stay in cache (a naive
    /// row-by-row transpose strides through the whole destination per
    /// source row).
    pub fn transpose(&self) -> Matrix {
        const TB: usize = 32;
        let (r, c) = (self.rows, self.cols);
        let mut out = Matrix::zeros(c, r);
        for ib in (0..r).step_by(TB) {
            let ih = TB.min(r - ib);
            for jb in (0..c).step_by(TB) {
                let jw = TB.min(c - jb);
                for i in ib..ib + ih {
                    let src = &self.data[i * c + jb..i * c + jb + jw];
                    for (jo, &v) in src.iter().enumerate() {
                        out.data[(jb + jo) * r + i] = v;
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self * rhs`, cache-blocked into `MC x KC x NC`
    /// panels with a 4-row register-tiled micro-kernel, parallelized
    /// over row panels on `exec`'s pool.
    ///
    /// Every output element accumulates its `k` terms in ascending
    /// order regardless of the panel split or thread count, so `Scalar`
    /// results are bitwise identical to the serial naive `ikj` product.
    pub fn matmul_with(&self, rhs: &Matrix, exec: &ExecCtx) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || k == 0 || n == 0 {
            return Ok(out);
        }
        let simd = exec.kernel_mode() == KernelMode::Simd;
        let a: &[f64] = &self.data;
        let b: &[f64] = &rhs.data;
        let scratch = exec.scratch();
        parallel::map_rows_into(exec, out.data.as_mut_slice(), n, MC, |i0, c_rows| {
            matmul_panel(a, b, c_rows, i0, k, n, simd, scratch);
        });
        Ok(out)
    }

    /// Matrix product `self * rhs.transpose()` without materializing the
    /// transpose: both operands are walked along contiguous rows, which
    /// is the natural layout for `X * C^T` pairwise-dot computations.
    /// Blocked over `rhs`-row panels (so a panel stays in cache across
    /// many rows of `self`) with a 4-dot register tile, parallelized
    /// over `self`-row panels on `exec`'s pool.
    pub fn matmul_transpose_b_with(&self, rhs: &Matrix, exec: &ExecCtx) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose_b",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, n) = (self.rows, rhs.rows);
        let d = self.cols;
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 {
            return Ok(out);
        }
        let simd = exec.kernel_mode() == KernelMode::Simd;
        let a: &[f64] = &self.data;
        let b: &[f64] = &rhs.data;
        parallel::map_rows_into(exec, out.data.as_mut_slice(), n, MC, |i0, out_rows| {
            let h = out_rows.len() / n;
            for jb in (0..n).step_by(NC) {
                let jw = NC.min(n - jb);
                for ii in 0..h {
                    let x = &a[(i0 + ii) * d..(i0 + ii + 1) * d];
                    let drow = &mut out_rows[ii * n + jb..ii * n + jb + jw];
                    dot_block(x, b, d, jb, drow, simd);
                }
            }
        });
        Ok(out)
    }

    /// Matrix product `self.transpose() * rhs` without materializing the
    /// transpose, blocked over output-row panels (each panel stays hot
    /// while the shared dimension streams past) and parallelized over
    /// those panels on `exec`'s pool.
    ///
    /// A zero entry of `self` is skipped when its `rhs` row is finite
    /// (sparse codes stay cheap; adding `±0` changes no bit), but not when
    /// that row holds an infinity or NaN: `0·∞` and `0·NaN` are NaN, as in
    /// `self.transpose().matmul_with(rhs, exec)`.
    pub fn matmul_transpose_a_with(&self, rhs: &Matrix, exec: &ExecCtx) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose_a",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, n) = (self.cols, rhs.cols);
        let shared = self.rows;
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 {
            return Ok(out);
        }
        let simd = exec.kernel_mode() == KernelMode::Simd;
        let a_cols = self.cols;
        let a: &[f64] = &self.data;
        let b: &[f64] = &rhs.data;
        let b_finite: Vec<bool> = b
            .chunks_exact(n)
            .map(|row| row.iter().all(|v| v.is_finite()))
            .collect();
        parallel::map_rows_into(exec, out.data.as_mut_slice(), n, MC, |i0, out_rows| {
            let h = out_rows.len() / n;
            for p in 0..shared {
                let a_seg = &a[p * a_cols + i0..p * a_cols + i0 + h];
                let b_row = &b[p * n..(p + 1) * n];
                for (ii, &av) in a_seg.iter().enumerate() {
                    if av == 0.0 && b_finite[p] {
                        continue;
                    }
                    let row = &mut out_rows[ii * n..(ii + 1) * n];
                    if simd {
                        crate::simd::axpy(row, av, b_row);
                    } else {
                        crate::ops::axpy(row, av, b_row);
                    }
                }
            }
        });
        Ok(out)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// Elementwise sum.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise combination with a custom op.
    pub fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise map producing a new matrix.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in self.data.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// `self += alpha * rhs` in place.
    pub fn axpy_inplace(&mut self, alpha: f64, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Squared Frobenius norm.
    pub fn frobenius_sq(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.frobenius_sq().sqrt()
    }

    /// Per-column means (length `cols`).
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in self.rows_iter() {
            for (m, &v) in means.iter_mut().zip(r.iter()) {
                *m += v;
            }
        }
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f64;
            for m in &mut means {
                *m *= inv;
            }
        }
        means
    }

    /// Per-column population standard deviations (length `cols`).
    pub fn col_stds(&self) -> Vec<f64> {
        let means = self.col_means();
        let mut vars = vec![0.0; self.cols];
        for r in self.rows_iter() {
            for ((v, &x), &m) in vars.iter_mut().zip(r.iter()).zip(means.iter()) {
                let d = x - m;
                *v += d * d;
            }
        }
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f64;
            for v in &mut vars {
                *v = (*v * inv).sqrt();
            }
        }
        vars
    }

    /// Per-row sums (length `rows`).
    pub fn row_sums(&self) -> Vec<f64> {
        self.rows_iter().map(|r| r.iter().sum()).collect()
    }

    /// Per-row squared Euclidean norms (length `rows`).
    pub fn row_sq_norms(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.row_sq_norms_into(&mut out);
        out
    }

    /// Per-row squared Euclidean norms written into `out` (cleared
    /// first), reusing its allocation across calls.
    pub fn row_sq_norms_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.rows);
        for r in self.rows_iter() {
            out.push(crate::ops::dot(r, r));
        }
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, &v| acc.max(v.abs()))
    }

    /// True iff every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Pairwise squared Euclidean distances between the rows of `self`
    /// (`n x m`) and the rows of `other` (`k x m`), returned as `n x k`.
    ///
    /// Uses the expansion `||x - c||^2 = ||x||^2 + ||c||^2 - 2 x.c` with a
    /// clamp at zero to absorb rounding; this is the dominant kernel of
    /// every Lloyd-style algorithm in the workspace. The dot products and
    /// the norm expansion are fused into one pass (the seed implementation
    /// materialized the full `n x k` dot matrix and re-traversed it),
    /// blocked over `other`-row panels with a 4-dot register tile, and
    /// parallelized over `self`-row panels on `exec`'s pool.
    pub fn pairwise_sqdist_with(&self, other: &Matrix, exec: &ExecCtx) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "pairwise_sqdist",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (n, d) = self.shape();
        let k = other.nrows();
        let mut out = Matrix::zeros(n, k);
        if n == 0 || k == 0 {
            return Ok(out);
        }
        let x_norms = self.row_sq_norms();
        let c_norms = other.row_sq_norms();
        let simd = exec.kernel_mode() == KernelMode::Simd;
        let x_data: &[f64] = &self.data;
        let c_data: &[f64] = &other.data;
        let (x_norms, c_norms) = (&x_norms, &c_norms);
        parallel::map_rows_into(exec, out.data.as_mut_slice(), k, MC, |i0, out_rows| {
            let h = out_rows.len() / k;
            for jb in (0..k).step_by(NC) {
                let jw = NC.min(k - jb);
                for ii in 0..h {
                    let x = &x_data[(i0 + ii) * d..(i0 + ii + 1) * d];
                    let xn = x_norms[i0 + ii];
                    let drow = &mut out_rows[ii * k + jb..ii * k + jb + jw];
                    dot_block(x, c_data, d, jb, drow, simd);
                    for (slot, &cn) in drow.iter_mut().zip(&c_norms[jb..jb + jw]) {
                        *slot = (xn + cn - 2.0 * *slot).max(0.0);
                    }
                }
            }
        });
        Ok(out)
    }
}

/// Blocked serial micro-kernel for [`Matrix::matmul_with`]: accumulates
/// `C[i0.., :] += A[i0.., :] * B` where `c` holds the output rows
/// starting at global row `i0`. Panels follow `jc -> pc -> 4-row tile`
/// order, so each element still accumulates its `k` terms ascending.
///
/// When the output is wider than one `NC` slab, the current `KC x NC`
/// panel of `B` is **packed** into a contiguous scratch buffer before
/// the register tiles consume it: in `b` such a panel's rows sit `n`
/// elements apart, so every tile pass walks one TLB page per few rows;
/// packed, the whole panel streams linearly and is reused from L2 by
/// every 4-row tile of the output panel. Narrow outputs (`n <= NC`,
/// one slab spanning whole rows of `B`) are already contiguous and skip
/// the copy entirely. Packing only moves values — the accumulation
/// order is untouched, so results stay bitwise identical to the
/// unpacked kernel (`micro_kernels` benches the before/after).
///
/// Pack-cost accounting: `map_rows_into` hands each *worker chunk* to
/// one call of this function (the entire output when serial), so each
/// `B` slab is packed once per worker chunk — roughly once per thread,
/// not once per `MC`-row panel — and the pack buffer comes from the
/// context's [`Scratch`] arena (each concurrent worker chunk takes its
/// own, and steady-state Lloyd iterations reuse them without touching
/// the allocator). The buffer is taken "uninit" (unspecified contents):
/// every `pw x jw` panel is fully written by `copy_from_slice` before
/// the register tiles read it, so stale contents are never observed.
///
/// `simd` hands each 4-row tile to [`crate::simd::fma_panel4`], which
/// holds the accumulators in vector registers across the whole
/// `KC`-panel instead of re-walking the output rows once per `k` step;
/// each element's ascending-`k` accumulation order is identical in both
/// modes — `Simd` only fuses each multiply-add rounding.
#[allow(clippy::too_many_arguments)]
fn matmul_panel(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    i0: usize,
    k: usize,
    n: usize,
    simd: bool,
    scratch: &Scratch,
) {
    let h = c.len() / n;
    let needs_pack = n > NC;
    let mut packed = if needs_pack {
        scratch.take_f64_uninit(KC.min(k) * NC)
    } else {
        Vec::new()
    };
    for jc in (0..n).step_by(NC) {
        let jw = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let pw = KC.min(k - pc);
            // The rows the register tiles consume, at stride `jw`:
            // packed B[pc..pc+pw, jc..jc+jw] when slabs are strided in
            // `b`, or the operand's own contiguous rows when one slab
            // covers them (jw == n, so the stride matches either way).
            let panel: &[f64] = if needs_pack {
                for (pp, p) in (pc..pc + pw).enumerate() {
                    packed[pp * jw..(pp + 1) * jw].copy_from_slice(&b[p * n + jc..p * n + jc + jw]);
                }
                &packed[..pw * jw]
            } else {
                &b[pc * n..(pc + pw) * n]
            };
            let mut ir = 0;
            // 4-row register tile: each loaded element of B updates four
            // output rows before leaving the registers.
            while ir + 4 <= h {
                let block = &mut c[ir * n..(ir + 4) * n];
                let (r0, rest) = block.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let (r0, r1, r2, r3) = (
                    &mut r0[jc..jc + jw],
                    &mut r1[jc..jc + jw],
                    &mut r2[jc..jc + jw],
                    &mut r3[jc..jc + jw],
                );
                let a_base = (i0 + ir) * k;
                if simd {
                    // Whole-panel kernel: the 4-row accumulator tile
                    // stays in registers across all of `pc..pc + pw`
                    // (bitwise the same ascending-`p` fused chain as
                    // the per-`p` loop below, per `fma_panel4`'s
                    // contract — only the output-row traffic differs).
                    crate::simd::fma_panel4(
                        r0,
                        r1,
                        r2,
                        r3,
                        [
                            &a[a_base + pc..a_base + pc + pw],
                            &a[a_base + k + pc..a_base + k + pc + pw],
                            &a[a_base + 2 * k + pc..a_base + 2 * k + pc + pw],
                            &a[a_base + 3 * k + pc..a_base + 3 * k + pc + pw],
                        ],
                        panel,
                    );
                } else {
                    for (pp, p) in (pc..pc + pw).enumerate() {
                        let a0 = a[a_base + p];
                        let a1 = a[a_base + k + p];
                        let a2 = a[a_base + 2 * k + p];
                        let a3 = a[a_base + 3 * k + p];
                        let b_row = &panel[pp * jw..pp * jw + jw];
                        crate::ops::axpy(r0, a0, b_row);
                        crate::ops::axpy(r1, a1, b_row);
                        crate::ops::axpy(r2, a2, b_row);
                        crate::ops::axpy(r3, a3, b_row);
                    }
                }
                ir += 4;
            }
            // Remainder rows: plain axpy loop. No exact-zero multiplier
            // skip here — the 4-row tile above has none, and which rows
            // land in which path depends on the panel split, so skipping
            // only here would make results (for non-finite operands)
            // depend on the thread count.
            while ir < h {
                let row = &mut c[ir * n + jc..ir * n + jc + jw];
                let a_base = (i0 + ir) * k;
                for (pp, p) in (pc..pc + pw).enumerate() {
                    let b_row = &panel[pp * jw..pp * jw + jw];
                    if simd {
                        crate::simd::axpy(row, a[a_base + p], b_row);
                    } else {
                        crate::ops::axpy(row, a[a_base + p], b_row);
                    }
                }
                ir += 1;
            }
        }
    }
    if needs_pack {
        scratch.put_f64(packed);
    }
}

/// Writes `out[j] = dot(x, y_row(jb + j))` for a block of rows of a
/// row-major `(rows x d)` buffer `y`, four dots at a time so each loaded
/// element of `x` feeds four accumulators. In `Scalar` mode every dot
/// keeps its own single accumulator in ascending-`d` order (bitwise
/// identical to [`crate::ops::dot`]); `simd` delegates to
/// [`crate::simd::dot_block`], whose 4-lane accumulation follows the
/// lane-determinism contract instead.
fn dot_block(x: &[f64], y: &[f64], d: usize, jb: usize, out: &mut [f64], simd: bool) {
    if simd {
        crate::simd::dot_block(x, y, d, jb, out);
        return;
    }
    let jw = out.len();
    let mut j = 0;
    while j + 4 <= jw {
        let base = (jb + j) * d;
        let y0 = &y[base..base + d];
        let y1 = &y[base + d..base + 2 * d];
        let y2 = &y[base + 2 * d..base + 3 * d];
        let y3 = &y[base + 3 * d..base + 4 * d];
        let (mut d0, mut d1, mut d2, mut d3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for ((((&xv, &v0), &v1), &v2), &v3) in x.iter().zip(y0).zip(y1).zip(y2).zip(y3) {
            d0 += xv * v0;
            d1 += xv * v1;
            d2 += xv * v2;
            d3 += xv * v3;
        }
        out[j] = d0;
        out[j + 1] = d1;
        out[j + 2] = d2;
        out[j + 3] = d3;
        j += 4;
    }
    while j < jw {
        let base = (jb + j) * d;
        out[j] = crate::ops::dot(x, &y[base..base + d]);
        j += 1;
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in self.rows_iter().take(8) {
            write!(f, "  [")?;
            for (j, v) in r.iter().take(8).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diag() {
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_rejects_column_past_ncols() {
        // Row-major (0, 2) of a 2x2 would alias (1, 0) without the check.
        Matrix::zeros(2, 2).get(0, 2);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn set_rejects_column_past_ncols() {
        Matrix::zeros(2, 2).set(0, 2, 1.0);
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn matmul_small() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul_with(&b, &ExecCtx::serial()).unwrap();
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_identity() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul_with(&i, &ExecCtx::serial()).unwrap(), a);
        assert_eq!(i.matmul_with(&a, &ExecCtx::serial()).unwrap(), a);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul_with(&b, &ExecCtx::serial()).is_err());
    }

    #[test]
    fn matmul_transpose_b_matches_explicit() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let b = Matrix::from_fn(5, 4, |i, j| (i + j) as f64 * 0.5);
        let direct = a.matmul_transpose_b_with(&b, &ExecCtx::serial()).unwrap();
        let explicit = a.matmul_with(&b.transpose(), &ExecCtx::serial()).unwrap();
        assert_eq!(direct, explicit);
    }

    #[test]
    fn matmul_transpose_a_matches_explicit() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(4, 5, |i, j| (i + 2 * j) as f64);
        let direct = a.matmul_transpose_a_with(&b, &ExecCtx::serial()).unwrap();
        let explicit = a.transpose().matmul_with(&b, &ExecCtx::serial()).unwrap();
        assert_eq!(direct, explicit);
    }

    #[test]
    fn matmul_transpose_a_keeps_zero_times_nonfinite() {
        // Zero lhs entries meet an inf row (0·inf) and a NaN row (0·NaN);
        // the last rhs row is finite, so its zero entries may be skipped.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0], vec![0.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[
            vec![f64::INFINITY, 1.0],
            vec![3.0, f64::NAN],
            vec![1.0, 2.0],
        ])
        .unwrap();
        let explicit = a.transpose().matmul_with(&b, &ExecCtx::serial()).unwrap();
        for mode in [KernelMode::Scalar, KernelMode::Simd] {
            let exec = ExecCtx::serial().with_kernel_mode(mode);
            let direct = a.matmul_transpose_a_with(&b, &exec).unwrap();
            for (i, (x, y)) in direct
                .as_slice()
                .iter()
                .zip(explicit.as_slice())
                .enumerate()
            {
                assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "{mode:?} entry {i}: {x} vs {y}"
                );
            }
            assert!(direct.get(0, 0).is_nan() && direct.get(0, 1).is_nan());
            assert_eq!(direct.get(1, 0), f64::INFINITY);
            assert!(direct.get(1, 1).is_nan());
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hadamard_and_addsub() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(2.0, 2.0, 2.0, 2.0);
        assert_eq!(a.hadamard(&b).unwrap(), m22(2.0, 4.0, 6.0, 8.0));
        assert_eq!(a.add(&b).unwrap(), m22(3.0, 4.0, 5.0, 6.0));
        assert_eq!(a.sub(&b).unwrap(), m22(-1.0, 0.0, 1.0, 2.0));
    }

    #[test]
    fn stats() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]).unwrap();
        assert_eq!(m.col_means(), vec![2.0, 10.0]);
        assert_eq!(m.col_stds(), vec![1.0, 0.0]);
        assert_eq!(m.row_sums(), vec![11.0, 13.0]);
        assert_eq!(m.sum(), 24.0);
        assert_eq!(m.mean(), 6.0);
    }

    #[test]
    fn pairwise_sqdist_exact() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]).unwrap();
        let c = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 4.0]]).unwrap();
        let d = x.pairwise_sqdist_with(&c, &ExecCtx::serial()).unwrap();
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(0, 1), 16.0);
        assert_eq!(d.get(1, 0), 25.0);
        assert_eq!(d.get(1, 1), 9.0);
    }

    #[test]
    fn pairwise_sqdist_nonnegative_under_rounding() {
        // Nearly-identical rows can go negative without the clamp.
        let x = Matrix::from_rows(&[vec![1.0e8, 1.0e8]]).unwrap();
        let d = x.pairwise_sqdist_with(&x, &ExecCtx::serial()).unwrap();
        assert!(d.get(0, 0) >= 0.0);
    }

    #[test]
    fn stacking() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn select_rows_orders() {
        let a = Matrix::from_fn(4, 2, |i, _| i as f64);
        let s = a.select_rows(&[3, 0]);
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn axpy() {
        let mut a = m22(1.0, 1.0, 1.0, 1.0);
        let b = m22(1.0, 2.0, 3.0, 4.0);
        a.axpy_inplace(0.5, &b).unwrap();
        assert_eq!(a, m22(1.5, 2.0, 2.5, 3.0));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(a.all_finite());
        a.set(0, 1, f64::NAN);
        assert!(!a.all_finite());
    }

    #[test]
    fn display_does_not_panic() {
        let a = Matrix::from_fn(10, 10, |i, j| (i + j) as f64);
        let s = format!("{a}");
        assert!(s.contains("Matrix 10x10"));
    }
}

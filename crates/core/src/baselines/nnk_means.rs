//! NNK-Means-style dictionary-learning summarization.
//!
//! After Shekkizhar & Ortega, "NNK-Means: Data summarization using
//! dictionary learning with non-negative kernel regression" (2021). The
//! summary is a dictionary of `k` **atoms**; each data point is
//! represented by a *non-negative* regression over a small neighborhood
//! of atoms (its `s` nearest), and atoms are refit in one batched
//! least-squares update per round:
//!
//! 1. **Sparse coding** — per point, select the `s` nearest atoms by the
//!    blocked [`pairwise_sqdist_with`](kr_linalg::Matrix::pairwise_sqdist_with)
//!    kernel and solve the non-negative least-squares subproblem
//!    `min_{w ≥ 0} ‖x − Aᵀ_S w‖²` by cyclic coordinate descent on the
//!    atom Gram matrix.
//! 2. **Dictionary update** — with codes `W` (`n x k`, row-sparse), the
//!    atoms solve the normal equations `(WᵀW + λI) A = WᵀX`, assembled
//!    with the blocked
//!    [`matmul_transpose_a_with`](kr_linalg::Matrix::matmul_transpose_a_with)
//!    kernels and solved by a dense Cholesky factorization. Atoms that
//!    attracted no coefficient mass are reseeded to random data points,
//!    the same policy k-Means uses for empty clusters.
//!
//! Both steps are bitwise deterministic at any [`ExecCtx`] thread count:
//! coding owns disjoint rows of `W`, and every cross-point reduction
//! goes through the thread-invariant blocked matmuls.

use crate::kmeans::{plus_plus_init, validate_input};
use crate::Result;
use kr_linalg::{ops, parallel, ExecCtx, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cyclic coordinate-descent passes for the per-point NNLS subproblem.
const NNLS_PASSES: usize = 100;
/// Convergence threshold on the largest coefficient change per pass.
const NNLS_TOL: f64 = 1e-12;
/// An atom whose total coefficient mass falls below this is reseeded.
const DEAD_ATOM_MASS: f64 = 1e-12;

/// NNK-Means runner (builder style).
///
/// ```
/// use kr_core::baselines::NnkMeans;
/// let data = kr_datasets::synthetic::blobs(200, 2, 4, 0.3, 0).data;
/// let model = NnkMeans::new(4).with_seed(1).fit(&data).unwrap();
/// assert_eq!(model.atoms.nrows(), 4);
/// // The NNK code reconstructs at least as well as snapping each point
/// // to its assigned atom.
/// assert!(model.reconstruction_error <= model.inertia + 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct NnkMeans {
    k: usize,
    s: usize,
    n_init: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
    exec: ExecCtx,
}

/// A fitted [`NnkMeans`] model.
#[derive(Debug, Clone)]
pub struct NnkMeansModel {
    /// Dictionary atoms, `k x m`.
    pub atoms: Matrix,
    /// Per-point assignment to the atom with the largest NNK
    /// *contribution* `‖wⱼ aⱼ‖` — the raw coefficient is scale-skewed
    /// when atom norms differ — falling back to the nearest atom for
    /// points with an all-zero code.
    pub labels: Vec<usize>,
    /// Sum of squared distances from each point to its assigned atom
    /// (the k-Means objective of the summary, comparable with the other
    /// baselines).
    pub inertia: f64,
    /// The dictionary-learning objective: `Σᵢ ‖xᵢ − Aᵀ wᵢ‖²` under the
    /// final non-negative codes.
    pub reconstruction_error: f64,
    /// Mean number of non-zero coefficients per point (≤ `s`).
    pub avg_support: f64,
    /// Coding/update rounds executed by the best restart.
    pub n_iter: usize,
}

impl NnkMeans {
    /// Creates a runner for `k` atoms with an 8-atom neighborhood, a
    /// single restart, 30 rounds, and tolerance `1e-4` on atom movement.
    pub fn new(k: usize) -> Self {
        NnkMeans {
            k,
            s: 8,
            n_init: 1,
            max_iter: 30,
            tol: 1e-4,
            seed: 0,
            exec: ExecCtx::serial(),
        }
    }

    /// Sets the neighborhood size `s` (atoms per point's code, clamped
    /// to at least 1 and at most `k` during the fit).
    pub fn with_neighbors(mut self, s: usize) -> Self {
        self.s = s.max(1);
        self
    }

    /// Sets the number of random restarts (best reconstruction error
    /// wins).
    pub fn with_n_init(mut self, n_init: usize) -> Self {
        self.n_init = n_init.max(1);
        self
    }

    /// Sets the maximum coding/update rounds per restart.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// Sets the convergence tolerance on total squared atom movement.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the RNG seed (fits are deterministic given the seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution context used by the coding and update steps.
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// Runs NNK-Means, returning the best model over all restarts.
    pub fn fit(&self, data: &Matrix) -> Result<NnkMeansModel> {
        validate_input(data, self.k)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best: Option<NnkMeansModel> = None;
        for _ in 0..self.n_init {
            let model = self.fit_once(data, &mut rng);
            if best
                .as_ref()
                .is_none_or(|b| model.reconstruction_error < b.reconstruction_error)
            {
                best = Some(model);
            }
        }
        Ok(best.expect("n_init >= 1"))
    }

    fn fit_once(&self, data: &Matrix, rng: &mut StdRng) -> NnkMeansModel {
        let n = data.nrows();
        let s = self.s.min(self.k);
        let x_norms = data.row_sq_norms();
        let mut atoms = plus_plus_init(data, self.k, rng);
        let mut codes = Matrix::zeros(n, self.k);
        let mut dist = Matrix::zeros(0, 0);
        let mut n_iter = 0;
        // Same freshness bookkeeping as `KMeans::fit_once`: when the last
        // update moved no atom, the loop's own codes/distances already
        // describe the returned dictionary.
        let mut codes_fresh = false;
        for it in 0..self.max_iter {
            n_iter = it + 1;
            dist = sparse_code(data, &x_norms, &atoms, s, &self.exec, &mut codes);
            let new_atoms = self.update_atoms(data, &codes, &atoms, rng);
            let mut movement = 0.0;
            for (old, new) in atoms.rows_iter().zip(new_atoms.rows_iter()) {
                movement += ops::sqdist(old, new);
            }
            atoms = new_atoms;
            codes_fresh = movement == 0.0;
            if movement < self.tol {
                break;
            }
        }
        // Final coding against the settled dictionary, so labels, codes,
        // and atoms are mutually consistent in the returned model —
        // skipped when the last update moved nothing and the loop's
        // coding is already exact.
        if !codes_fresh {
            dist = sparse_code(data, &x_norms, &atoms, s, &self.exec, &mut codes);
        }
        let a_norms = atoms.row_sq_norms();
        let mut labels = vec![0usize; n];
        let mut inertia = 0.0;
        let mut support = 0usize;
        for (i, slot) in labels.iter_mut().enumerate() {
            let row = codes.row(i);
            let mut best = None;
            for (j, &w) in row.iter().enumerate() {
                if w > 0.0 {
                    support += 1;
                    // Contribution energy ‖wⱼ aⱼ‖² = wⱼ² ‖aⱼ‖²; the raw
                    // coefficient alone favors near-zero-norm atoms.
                    let score = w * w * a_norms[j];
                    if best.is_none_or(|(_, bs)| score > bs) {
                        best = Some((j, score));
                    }
                }
            }
            let label = match best {
                Some((j, _)) => j,
                // All-zero code (e.g. every neighbor Gram diagonal was
                // degenerate): fall back to the nearest atom.
                None => ops::argmin(dist.row(i)).expect("k >= 1"),
            };
            *slot = label;
            inertia += dist.get(i, label);
        }
        let recon = codes
            .matmul_with(&atoms, &self.exec)
            .expect("codes (n x k) * atoms (k x m)");
        let mut reconstruction_error = 0.0;
        for (xrow, rrow) in data.rows_iter().zip(recon.rows_iter()) {
            reconstruction_error += ops::sqdist(xrow, rrow);
        }
        NnkMeansModel {
            atoms,
            labels,
            inertia,
            reconstruction_error,
            avg_support: support as f64 / n as f64,
            n_iter,
        }
    }

    /// Batched dictionary update: solves `(WᵀW + λI) A = WᵀX` by
    /// Cholesky, then reseeds atoms with no coefficient mass.
    fn update_atoms(
        &self,
        data: &Matrix,
        codes: &Matrix,
        atoms: &Matrix,
        rng: &mut StdRng,
    ) -> Matrix {
        let k = self.k;
        let n = data.nrows();
        let mut gram = codes
            .matmul_transpose_a_with(codes, &self.exec)
            .expect("codes^T * codes");
        let rhs = codes
            .matmul_transpose_a_with(data, &self.exec)
            .expect("codes^T * data");
        // Coefficient mass per atom decides liveness *before* the ridge
        // perturbs the diagonal.
        let mut mass = vec![0.0f64; k];
        for row in codes.rows_iter() {
            for (j, &w) in row.iter().enumerate() {
                mass[j] += w;
            }
        }
        let trace: f64 = (0..k).map(|j| gram.get(j, j)).sum();
        let lambda = 1e-10 * (1.0 + trace / k as f64);
        for j in 0..k {
            let g = gram.get(j, j);
            gram.set(j, j, g + lambda);
        }
        let mut new_atoms = match cholesky(&gram).map(|l| cholesky_solve(&l, &rhs)) {
            Some(solved) => solved,
            // The ridge makes the system positive definite in exact
            // arithmetic; if rounding still breaks the factorization,
            // fall back to the diagonal (weighted-mean) update.
            None => {
                let mut fallback = atoms.clone();
                for j in 0..k {
                    let g = gram.get(j, j);
                    if g > lambda {
                        let inv = 1.0 / (g - lambda);
                        for (out, &v) in fallback.row_mut(j).iter_mut().zip(rhs.row(j)) {
                            *out = v * inv;
                        }
                    }
                }
                fallback
            }
        };
        for (j, &mj) in mass.iter().enumerate() {
            if mj < DEAD_ATOM_MASS {
                let pick = rng.gen_range(0..n);
                new_atoms.row_mut(j).copy_from_slice(data.row(pick));
            }
        }
        new_atoms
    }
}

/// Fills `codes` (`n x k`, fully overwritten) with the per-point NNK
/// coefficients and returns the `n x k` point-atom squared-distance
/// matrix.
///
/// Parallel over disjoint row chunks of `codes`; per-point work depends
/// only on the point and the shared read-only inputs, so results are
/// identical at any thread count.
fn sparse_code(
    data: &Matrix,
    x_norms: &[f64],
    atoms: &Matrix,
    s: usize,
    exec: &ExecCtx,
    codes: &mut Matrix,
) -> Matrix {
    let k = atoms.nrows();
    let dist = data
        .pairwise_sqdist_with(atoms, exec)
        .expect("data and atoms share a feature dimension");
    let a_norms = atoms.row_sq_norms();
    let atom_gram = atoms
        .matmul_transpose_b_with(atoms, exec)
        .expect("atoms * atoms^T");
    let (dist_ref, a_norms_ref, gram_ref) = (&dist, &a_norms, &atom_gram);
    parallel::map_rows_into(exec, codes.as_mut_slice(), k, 1, |first_row, rows| {
        let mut neighbors: Vec<(usize, f64)> = Vec::with_capacity(k);
        let mut w = vec![0.0f64; s];
        for (off, code_row) in rows.chunks_exact_mut(k).enumerate() {
            let i = first_row + off;
            code_row.fill(0.0);
            // `s` nearest atoms, ties broken toward the lower index.
            neighbors.clear();
            neighbors.extend(dist_ref.row(i).iter().copied().enumerate());
            neighbors.sort_unstable_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            neighbors.truncate(s);
            nnls_coordinate_descent(
                x_norms[i],
                dist_ref.row(i),
                a_norms_ref,
                gram_ref,
                &neighbors,
                &mut w,
            );
            for (&(j, _), &wj) in neighbors.iter().zip(w.iter()) {
                code_row[j] = wj;
            }
        }
    });
    dist
}

/// Cyclic coordinate descent for `min_{w ≥ 0} ‖x − Aᵀ_S w‖²` over the
/// neighborhood `S`, starting from `w = 0`.
///
/// Inner products with `x` are recovered from the distance expansion
/// `x·aⱼ = (‖x‖² + ‖aⱼ‖² − d(x, aⱼ)) / 2`, so no extra pass over the
/// data is needed. Each coordinate update is the exact one-dimensional
/// constrained minimizer, hence the objective is monotone and after the
/// very first update (the nearest atom) it is already no worse than
/// `‖x − a_nearest‖²`.
fn nnls_coordinate_descent(
    x_norm: f64,
    dists: &[f64],
    a_norms: &[f64],
    atom_gram: &Matrix,
    neighbors: &[(usize, f64)],
    w: &mut [f64],
) {
    let s = neighbors.len();
    let w = &mut w[..s];
    w.fill(0.0);
    for _ in 0..NNLS_PASSES {
        let mut max_delta = 0.0f64;
        for a in 0..s {
            let ja = neighbors[a].0;
            let gaa = atom_gram.get(ja, ja);
            if gaa <= f64::MIN_POSITIVE {
                continue;
            }
            let b = (x_norm + a_norms[ja] - dists[ja]) * 0.5;
            let mut num = b;
            for (c, &wc) in w.iter().enumerate() {
                if c != a && wc != 0.0 {
                    num -= atom_gram.get(neighbors[c].0, ja) * wc;
                }
            }
            let new_w = (num / gaa).max(0.0);
            max_delta = max_delta.max((new_w - w[a]).abs());
            w[a] = new_w;
        }
        if max_delta < NNLS_TOL {
            break;
        }
    }
}

/// Dense Cholesky factorization `G = L Lᵀ` (lower-triangular `L`);
/// `None` if a pivot is not strictly positive.
fn cholesky(g: &Matrix) -> Option<Matrix> {
    let k = g.nrows();
    let mut l = Matrix::zeros(k, k);
    for i in 0..k {
        for j in 0..=i {
            let mut sum = g.get(i, j);
            for p in 0..j {
                sum -= l.get(i, p) * l.get(j, p);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Some(l)
}

/// Solves `L Lᵀ X = B` for `X` given the Cholesky factor `L`.
fn cholesky_solve(l: &Matrix, b: &Matrix) -> Matrix {
    let k = l.nrows();
    let m = b.ncols();
    // Forward substitution: L Y = B.
    let mut y = Matrix::zeros(k, m);
    for i in 0..k {
        let mut row = b.row(i).to_vec();
        for p in 0..i {
            let lip = l.get(i, p);
            if lip != 0.0 {
                ops::axpy(&mut row, -lip, y.row(p));
            }
        }
        let inv = 1.0 / l.get(i, i);
        for v in row.iter_mut() {
            *v *= inv;
        }
        y.row_mut(i).copy_from_slice(&row);
    }
    // Back substitution: Lᵀ X = Y.
    let mut x = Matrix::zeros(k, m);
    for i in (0..k).rev() {
        let mut row = y.row(i).to_vec();
        for p in (i + 1)..k {
            let lpi = l.get(p, i);
            if lpi != 0.0 {
                ops::axpy(&mut row, -lpi, x.row(p));
            }
        }
        let inv = 1.0 / l.get(i, i);
        for v in row.iter_mut() {
            *v *= inv;
        }
        x.row_mut(i).copy_from_slice(&row);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;

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
    fn summarizes_two_blobs() {
        let data = two_blobs();
        let model = NnkMeans::new(2).with_seed(3).fit(&data).unwrap();
        assert!(
            model.reconstruction_error < 0.5,
            "reconstruction {}",
            model.reconstruction_error
        );
        for pair in model.labels.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn reconstruction_no_worse_than_assigned_atom() {
        let data = two_blobs();
        for s in [1usize, 2, 4] {
            let model = NnkMeans::new(4)
                .with_neighbors(s)
                .with_seed(1)
                .fit(&data)
                .unwrap();
            assert!(
                model.reconstruction_error <= model.inertia + 1e-9,
                "s={s}: {} > {}",
                model.reconstruction_error,
                model.inertia
            );
            assert!(model.avg_support <= s as f64 + 1e-12);
        }
    }

    #[test]
    fn larger_neighborhood_reconstructs_no_worse() {
        let data = two_blobs();
        let narrow = NnkMeans::new(4)
            .with_neighbors(1)
            .with_seed(5)
            .fit(&data)
            .unwrap();
        let wide = NnkMeans::new(4)
            .with_neighbors(4)
            .with_seed(5)
            .fit(&data)
            .unwrap();
        // Same seed → same init; a wider NNLS support can only help the
        // coding step of each round in practice on this separable data.
        assert!(wide.reconstruction_error <= narrow.reconstruction_error + 1e-6);
    }

    #[test]
    fn codes_are_non_negative_and_sparse() {
        let data = two_blobs();
        let s = 3;
        let x_norms = data.row_sq_norms();
        let mut rng = StdRng::seed_from_u64(0);
        let atoms = plus_plus_init(&data, 5, &mut rng);
        let mut codes = Matrix::zeros(data.nrows(), 5);
        sparse_code(&data, &x_norms, &atoms, s, &ExecCtx::serial(), &mut codes);
        for row in codes.rows_iter() {
            assert!(row.iter().all(|&w| w >= 0.0));
            assert!(row.iter().filter(|&&w| w > 0.0).count() <= s);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let data = Matrix::zeros(0, 0);
        assert!(matches!(
            NnkMeans::new(2).fit(&data),
            Err(CoreError::EmptyInput)
        ));
        let data = Matrix::zeros(3, 2);
        assert!(matches!(
            NnkMeans::new(5).fit(&data),
            Err(CoreError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs();
        let a = NnkMeans::new(3).with_seed(42).fit(&data).unwrap();
        let b = NnkMeans::new(3).with_seed(42).fit(&data).unwrap();
        assert_eq!(a.atoms, b.atoms);
        assert_eq!(a.labels, b.labels);
        assert_eq!(
            a.reconstruction_error.to_bits(),
            b.reconstruction_error.to_bits()
        );
    }

    #[test]
    fn exec_determinism_pool_1_2_8_workers() {
        use kr_linalg::ThreadPool;
        use std::sync::Arc;
        let data = two_blobs();
        let reference = NnkMeans::new(3).with_seed(7).fit(&data).unwrap();
        for workers in [1usize, 2, 8] {
            let pool = Arc::new(ThreadPool::new(workers));
            let exec = ExecCtx::threaded(workers + 1).with_pool(Arc::clone(&pool));
            let model = NnkMeans::new(3)
                .with_seed(7)
                .with_exec(exec)
                .fit(&data)
                .unwrap();
            assert_eq!(model.labels, reference.labels, "workers={workers}");
            assert_eq!(model.atoms, reference.atoms);
            assert_eq!(model.inertia.to_bits(), reference.inertia.to_bits());
            assert_eq!(
                model.reconstruction_error.to_bits(),
                reference.reconstruction_error.to_bits()
            );
        }
    }

    #[test]
    fn cholesky_solves_small_system() {
        // G = M Mᵀ for a full-rank M is SPD.
        let m = Matrix::from_rows(&[vec![2.0, 0.0], vec![1.0, 3.0]]).unwrap();
        let serial = ExecCtx::serial();
        let g = m.matmul_transpose_b_with(&m, &serial).unwrap();
        let b = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let l = cholesky(&g).unwrap();
        let x = cholesky_solve(&l, &b);
        let back = g.matmul_with(&x, &serial).unwrap();
        for (a, e) in back.as_slice().iter().zip(b.as_slice()) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let g = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(cholesky(&g).is_none());
    }
}

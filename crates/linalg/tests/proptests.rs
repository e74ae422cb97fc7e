//! Property-based tests for the linear-algebra kernels.

use kr_linalg::{ops, ExecCtx, KernelMode, Matrix};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0..100.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

fn matrix_pair_same_shape(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        let a = proptest::collection::vec(-100.0..100.0f64, r * c);
        let b = proptest::collection::vec(-100.0..100.0f64, r * c);
        (a, b).prop_map(move |(a, b)| {
            (
                Matrix::from_vec(r, c, a).unwrap(),
                Matrix::from_vec(r, c, b).unwrap(),
            )
        })
    })
}

/// Textbook triple loop with ascending-`k` accumulation per element —
/// the order the blocked kernel guarantees. `fused` accumulates with
/// `mul_add` (the `Simd` kernel's rounding), otherwise `acc += a * b`
/// (the `Scalar` kernel's).
fn naive_matmul(a: &Matrix, b: &Matrix, fused: bool) -> Matrix {
    let (m, k) = a.shape();
    let n = b.ncols();
    let mut naive = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                let (x, y) = (a.get(i, p), b.get(p, j));
                acc = if fused {
                    x.mul_add(y, acc)
                } else {
                    acc + x * y
                };
            }
            naive.set(i, j, acc);
        }
    }
    naive
}

/// Deterministic operand with mixed signs and no exact zeros.
fn mk(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        (((i * 31 + j * 17 + salt * 7) % 97) as f64 - 48.5) * 0.37
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

const MODES: [(KernelMode, bool); 2] = [(KernelMode::Scalar, false), (KernelMode::Simd, true)];

fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_left_right(m in small_matrix(6)) {
        let il = Matrix::identity(m.nrows());
        let ir = Matrix::identity(m.ncols());
        let serial = ExecCtx::serial();
        prop_assert!(approx_eq(&il.matmul_with(&m, &serial).unwrap(), &m, 1e-12));
        prop_assert!(approx_eq(&m.matmul_with(&ir, &serial).unwrap(), &m, 1e-12));
    }

    #[test]
    fn matmul_transpose_identities(m in small_matrix(6), n in small_matrix(6)) {
        // (A B^T) with matching inner dims, checked against explicit transpose.
        let serial = ExecCtx::serial();
        if m.ncols() == n.ncols() {
            let fast = m.matmul_transpose_b_with(&n, &serial).unwrap();
            let slow = m.matmul_with(&n.transpose(), &serial).unwrap();
            prop_assert!(approx_eq(&fast, &slow, 1e-9));
        }
        if m.nrows() == n.nrows() {
            let fast = m.matmul_transpose_a_with(&n, &serial).unwrap();
            let slow = m.transpose().matmul_with(&n, &serial).unwrap();
            prop_assert!(approx_eq(&fast, &slow, 1e-9));
        }
    }

    #[test]
    fn hadamard_commutes((a, b) in matrix_pair_same_shape(8)) {
        prop_assert_eq!(a.hadamard(&b).unwrap(), b.hadamard(&a).unwrap());
    }

    #[test]
    fn add_sub_roundtrip((a, b) in matrix_pair_same_shape(8)) {
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        prop_assert!(approx_eq(&back, &a, 1e-9));
    }

    #[test]
    fn pairwise_sqdist_matches_naive((a, b) in matrix_pair_same_shape(6)) {
        let d = a.pairwise_sqdist_with(&b, &ExecCtx::serial()).unwrap();
        for i in 0..a.nrows() {
            for j in 0..b.nrows() {
                let naive = ops::sqdist(a.row(i), b.row(j));
                let fast = d.get(i, j);
                prop_assert!((naive - fast).abs() <= 1e-6 * (1.0 + naive), "i={i} j={j}");
                prop_assert!(fast >= 0.0);
            }
        }
    }

    #[test]
    fn self_distance_diag_is_small(m in small_matrix(6)) {
        let d = m.pairwise_sqdist_with(&m, &ExecCtx::serial()).unwrap();
        for i in 0..m.nrows() {
            prop_assert!(d.get(i, i).abs() <= 1e-6 * (1.0 + ops::sq_norm(m.row(i))));
        }
    }

    #[test]
    fn dot_cauchy_schwarz(v in proptest::collection::vec(-50.0..50.0f64, 1..32),
                          w in proptest::collection::vec(-50.0..50.0f64, 1..32)) {
        let n = v.len().min(w.len());
        let (v, w) = (&v[..n], &w[..n]);
        let lhs = ops::dot(v, w).abs();
        let rhs = (ops::sq_norm(v) * ops::sq_norm(w)).sqrt();
        prop_assert!(lhs <= rhs + 1e-6 * (1.0 + rhs));
    }

    #[test]
    fn softmax_is_distribution(mut v in proptest::collection::vec(-500.0..500.0f64, 1..16)) {
        ops::softmax_inplace(&mut v);
        let s: f64 = v.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        prop_assert!(v.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn col_means_bounded_by_extremes(m in small_matrix(8)) {
        let means = m.col_means();
        // Col-heavy access goes through the blocked transpose: one
        // gather, then contiguous row reads per column.
        let mt = m.transpose();
        for (j, &mu) in means.iter().enumerate() {
            let col = mt.row(j);
            let gathered = m.col(j);
            prop_assert_eq!(col, gathered.as_slice());
            let lo = col.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(mu >= lo - 1e-9 && mu <= hi + 1e-9);
        }
    }

    #[test]
    fn parallel_matches_serial(n in 0usize..200, threads in 1usize..8) {
        let serial_ctx = ExecCtx::serial();
        let mut serial = vec![0u64; n];
        kr_linalg::parallel::map_rows_into(&serial_ctx, &mut serial, 1, 1, |start, s| {
            for (i, v) in s.iter_mut().enumerate() { *v = ((start + i) * 7) as u64; }
        });
        let par_ctx = ExecCtx::threaded(threads);
        let mut par = vec![0u64; n];
        kr_linalg::parallel::map_rows_into(&par_ctx, &mut par, 1, 1, |start, s| {
            for (i, v) in s.iter_mut().enumerate() { *v = ((start + i) * 7) as u64; }
        });
        prop_assert_eq!(serial, par);
    }

    #[test]
    fn blocked_matmul_equals_naive(
        (a, b) in (1usize..12, 1usize..12, 1usize..12).prop_flat_map(|(m, k, n)| {
            let a = proptest::collection::vec(-100.0..100.0f64, m * k)
                .prop_map(move |v| Matrix::from_vec(m, k, v).unwrap());
            let b = proptest::collection::vec(-100.0..100.0f64, k * n)
                .prop_map(move |v| Matrix::from_vec(k, n, v).unwrap());
            (a, b)
        }),
    ) {
        // Pin `Scalar` explicitly: the unfused naive reference only
        // matches the scalar kernel bitwise (`KR_KERNEL=simd` would flip
        // the env default).
        let scalar = ExecCtx::serial().with_kernel_mode(KernelMode::Scalar);
        prop_assert_eq!(&a.matmul_with(&b, &scalar).unwrap(), &naive_matmul(&a, &b, false));
    }

    #[test]
    fn blocked_kernels_thread_invariant(
        (a, b) in (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(m, k, n)| {
            let a = proptest::collection::vec(-50.0..50.0f64, m * k)
                .prop_map(move |v| Matrix::from_vec(m, k, v).unwrap());
            let b = proptest::collection::vec(-50.0..50.0f64, n * k)
                .prop_map(move |v| Matrix::from_vec(n, k, v).unwrap());
            (a, b)
        }),
        threads in 2usize..5,
    ) {
        let (ctx, serial) = (ExecCtx::threaded(threads), ExecCtx::serial());
        prop_assert_eq!(
            a.matmul_transpose_b_with(&b, &ctx).unwrap(),
            a.matmul_transpose_b_with(&b, &serial).unwrap()
        );
        prop_assert_eq!(
            a.pairwise_sqdist_with(&b, &ctx).unwrap(),
            a.pairwise_sqdist_with(&b, &serial).unwrap()
        );
        prop_assert_eq!(
            a.matmul_transpose_a_with(&a, &ctx).unwrap(),
            a.matmul_transpose_a_with(&a, &serial).unwrap()
        );
    }

    /// `Simd` matmul fuses each multiply-add but keeps the per-element
    /// ascending-`k` order, so it matches a naive loop that uses
    /// `mul_add` bitwise.
    #[test]
    fn simd_matmul_equals_fused_naive(
        (a, b) in (1usize..12, 1usize..12, 1usize..12).prop_flat_map(|(m, k, n)| {
            let a = proptest::collection::vec(-100.0..100.0f64, m * k)
                .prop_map(move |v| Matrix::from_vec(m, k, v).unwrap());
            let b = proptest::collection::vec(-100.0..100.0f64, k * n)
                .prop_map(move |v| Matrix::from_vec(k, n, v).unwrap());
            (a, b)
        }),
    ) {
        let simd = ExecCtx::serial().with_kernel_mode(KernelMode::Simd);
        prop_assert_eq!(&a.matmul_with(&b, &simd).unwrap(), &naive_matmul(&a, &b, true));
    }

    /// Every `Simd` kernel agrees with its `Scalar` oracle to 1e-10
    /// relative tolerance on ragged shapes, including inner dimensions
    /// below the 4-wide lane width.
    #[test]
    fn simd_kernels_match_scalar_oracle(
        (a, b) in (1usize..16, 1usize..9, 1usize..16).prop_flat_map(|(m, d, n)| {
            let a = proptest::collection::vec(-100.0..100.0f64, m * d)
                .prop_map(move |v| Matrix::from_vec(m, d, v).unwrap());
            let b = proptest::collection::vec(-100.0..100.0f64, n * d)
                .prop_map(move |v| Matrix::from_vec(n, d, v).unwrap());
            (a, b)
        }),
    ) {
        let scalar = ExecCtx::serial().with_kernel_mode(KernelMode::Scalar);
        let simd = ExecCtx::serial().with_kernel_mode(KernelMode::Simd);
        let tol = 1e-10;
        let pairs = [
            (a.matmul_with(&b.transpose(), &scalar).unwrap(),
             a.matmul_with(&b.transpose(), &simd).unwrap()),
            (a.matmul_transpose_b_with(&b, &scalar).unwrap(),
             a.matmul_transpose_b_with(&b, &simd).unwrap()),
            (a.matmul_transpose_a_with(&a, &scalar).unwrap(),
             a.matmul_transpose_a_with(&a, &simd).unwrap()),
            (a.pairwise_sqdist_with(&b, &scalar).unwrap(),
             a.pairwise_sqdist_with(&b, &simd).unwrap()),
        ];
        for (s, v) in &pairs {
            prop_assert!(approx_eq(s, v, tol));
        }
    }

    /// On small-integer inputs every product and partial sum is exactly
    /// representable, so fusing and lane-splitting change nothing:
    /// `Simd` equals `Scalar` bitwise.
    #[test]
    fn simd_exact_on_integer_inputs(
        (a, b) in (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(m, d, n)| {
            let a = proptest::collection::vec(-8i32..=8, m * d)
                .prop_map(move |v| {
                    Matrix::from_vec(m, d, v.into_iter().map(f64::from).collect()).unwrap()
                });
            let b = proptest::collection::vec(-8i32..=8, n * d)
                .prop_map(move |v| {
                    Matrix::from_vec(n, d, v.into_iter().map(f64::from).collect()).unwrap()
                });
            (a, b)
        }),
    ) {
        let scalar = ExecCtx::serial().with_kernel_mode(KernelMode::Scalar);
        let simd = ExecCtx::serial().with_kernel_mode(KernelMode::Simd);
        prop_assert_eq!(
            a.matmul_with(&b.transpose(), &scalar).unwrap(),
            a.matmul_with(&b.transpose(), &simd).unwrap()
        );
        prop_assert_eq!(
            a.matmul_transpose_b_with(&b, &scalar).unwrap(),
            a.matmul_transpose_b_with(&b, &simd).unwrap()
        );
        prop_assert_eq!(
            a.pairwise_sqdist_with(&b, &scalar).unwrap(),
            a.pairwise_sqdist_with(&b, &simd).unwrap()
        );
    }
}

// The blocked kernels use fixed 64 x 256 x 1024 tiles (rows x shared x
// columns) and at most one worker chunk per 64 output rows. The random
// shapes above stay inside one tile, so these cases cross each edge on
// purpose.

/// 258 shared steps cross a KC panel and 1026 columns cross an NC slab,
/// so the B panel is packed; 5 rows take one 4-row tile and one
/// remainder row. Both modes must equal their naive loop bitwise.
#[test]
fn matmul_across_panel_and_slab_equals_naive() {
    let a = mk(5, 258, 1);
    let b = mk(258, 1026, 2);
    for (mode, fused) in MODES {
        let exec = ExecCtx::serial().with_kernel_mode(mode);
        let got = a.matmul_with(&b, &exec).unwrap();
        assert_eq!(bits(&got), bits(&naive_matmul(&a, &b, fused)), "{mode:?}");
    }
}

/// 66 output rows split into two worker chunks; each packs its own
/// slab (1026 columns) or crosses a KC panel (258 shared steps).
#[test]
fn matmul_row_chunks_equal_naive_at_1_2_8_workers() {
    for (m, k, n) in [(66, 9, 1026), (66, 258, 9)] {
        let a = mk(m, k, 3);
        let b = mk(k, n, 4);
        for (mode, fused) in MODES {
            let want = bits(&naive_matmul(&a, &b, fused));
            for workers in [1, 2, 8] {
                let exec = ExecCtx::threaded(workers).with_kernel_mode(mode);
                let got = a.matmul_with(&b, &exec).unwrap();
                assert_eq!(bits(&got), want, "{mode:?} {m}x{k}x{n} workers={workers}");
            }
        }
    }
}

/// A 1030-row rhs crosses an NC slab in `matmul_transpose_b_with` and
/// `pairwise_sqdist_with`, and 66 lhs rows (66 output rows of
/// `matmul_transpose_a_with`) split into two worker chunks. Every worker
/// count must equal serial; in `Scalar` mode the slab crossing must also
/// equal `ops::dot` bitwise.
#[test]
fn transposed_and_distance_kernels_across_slab_match_serial() {
    let x = mk(66, 5, 5);
    let y = mk(1030, 5, 6);
    let a = mk(7, 66, 7);
    let b = mk(7, 9, 8);
    let run = |exec: &ExecCtx| {
        let mut out = bits(&x.matmul_transpose_b_with(&y, exec).unwrap());
        out.extend(bits(&x.pairwise_sqdist_with(&y, exec).unwrap()));
        out.extend(bits(&a.matmul_transpose_a_with(&b, exec).unwrap()));
        out
    };
    for (mode, _) in MODES {
        let serial = run(&ExecCtx::serial().with_kernel_mode(mode));
        for workers in [1, 2, 8] {
            let exec = ExecCtx::threaded(workers).with_kernel_mode(mode);
            assert_eq!(run(&exec), serial, "{mode:?} workers={workers}");
        }
    }
    let scalar = ExecCtx::serial().with_kernel_mode(KernelMode::Scalar);
    let dots = x.matmul_transpose_b_with(&y, &scalar).unwrap();
    for i in 0..x.nrows() {
        for j in 0..y.nrows() {
            let want = ops::dot(x.row(i), y.row(j));
            assert_eq!(dots.get(i, j).to_bits(), want.to_bits(), "({i}, {j})");
        }
    }
}

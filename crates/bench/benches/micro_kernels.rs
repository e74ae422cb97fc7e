//! Criterion microbenchmarks of the kernels every experiment rests on:
//! pairwise squared distances, the KR assignment step (both variants),
//! the Proposition 6.1 update, and the Hungarian solver.
//!
//! Besides the console lines, the run persists every median to
//! `BENCH_kernels.json` (schema documented in EXPERIMENTS.md "Kernel
//! modes"): one record per benchmark with the group, bench label, median
//! nanoseconds, the input shape, and which `KernelMode` the bench
//! exercised — the machine-readable form the SIMD speedup criteria are
//! checked against.

use criterion::{criterion_group, BenchmarkId, Criterion};
use kr_core::aggregator::Aggregator;
use kr_core::kr_kmeans::{prop61_update_pass_with, KrKMeans, KrVariant};
use kr_linalg::{ops, ExecCtx, KernelMode, Matrix};
use std::hint::black_box;

/// The seed's naive `ikj` matmul, kept verbatim as the regression
/// baseline the blocked kernel must beat.
fn seed_naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, n) = (a.nrows(), b.ncols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..a.ncols() {
            let av = a.get(i, p);
            if av == 0.0 {
                continue;
            }
            let brow = b.row(p);
            for (o, &bv) in out.row_mut(i).iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The PR-2 blocked kernel *without* B-panel packing, kept verbatim as
/// the regression baseline for the packed micro-kernel: identical panel
/// order and 4-row register tiles, but each tile re-reads B's rows at
/// stride `n` straight from the operand. Bitwise-identical output to
/// `Matrix::matmul_with` in `Scalar` mode (packing only copies values),
/// so the group compares pure memory behavior.
fn unpacked_blocked_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    let (mc, kc, nc) = (64usize, 256usize, 1024usize);
    let mut out = Matrix::zeros(m, n);
    let (a, b) = (a.as_slice(), b.as_slice());
    for ic in (0..m).step_by(mc) {
        let h = mc.min(m - ic);
        let c = &mut out.as_mut_slice()[ic * n..(ic + h) * n];
        for jc in (0..n).step_by(nc) {
            let jw = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let pw = kc.min(k - pc);
                let mut ir = 0;
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
                    let a_base = (ic + ir) * k;
                    for p in pc..pc + pw {
                        let a0 = a[a_base + p];
                        let a1 = a[a_base + k + p];
                        let a2 = a[a_base + 2 * k + p];
                        let a3 = a[a_base + 3 * k + p];
                        let b_row = &b[p * n + jc..p * n + jc + jw];
                        ops::axpy(r0, a0, b_row);
                        ops::axpy(r1, a1, b_row);
                        ops::axpy(r2, a2, b_row);
                        ops::axpy(r3, a3, b_row);
                    }
                    ir += 4;
                }
                while ir < h {
                    let row = &mut c[ir * n + jc..ir * n + jc + jw];
                    let a_base = (ic + ir) * k;
                    for p in pc..pc + pw {
                        ops::axpy(row, a[a_base + p], &b[p * n + jc..p * n + jc + jw]);
                    }
                    ir += 1;
                }
            }
        }
    }
    out
}

/// The seed's pairwise kernel: materialize the full dot matrix row by
/// row, then a second pass applying the norm expansion.
fn seed_naive_pairwise(x: &Matrix, c: &Matrix) -> Matrix {
    let x_norms = x.row_sq_norms();
    let c_norms = c.row_sq_norms();
    let mut dots = Matrix::zeros(x.nrows(), c.nrows());
    for i in 0..x.nrows() {
        for j in 0..c.nrows() {
            let d = ops::dot(x.row(i), c.row(j));
            dots.set(i, j, d);
        }
    }
    for (i, &xn) in x_norms.iter().enumerate() {
        for (d, &cn) in dots.row_mut(i).iter_mut().zip(c_norms.iter()) {
            *d = (xn + cn - 2.0 * *d).max(0.0);
        }
    }
    dots
}

fn bench_matmul_blocked(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_512x512x512");
    group.sample_size(10);
    let a = Matrix::from_fn(512, 512, |i, j| ((i * 31 + j * 7) % 97) as f64 * 0.01);
    let b = Matrix::from_fn(512, 512, |i, j| ((i * 13 + j * 3) % 89) as f64 * 0.02);
    group.bench_function("seed_naive", |bch| {
        bch.iter(|| black_box(seed_naive_matmul(&a, &b)));
    });
    // Before/after for the packed-B micro-kernel: `blocked_unpacked` is
    // the PR-2 kernel, `blocked_serial` the current packed one. Their
    // outputs are asserted bitwise equal before timing.
    let serial = ExecCtx::serial();
    assert_eq!(
        unpacked_blocked_matmul(&a, &b),
        a.matmul_with(&b, &serial).unwrap()
    );
    group.bench_function("blocked_unpacked", |bch| {
        bch.iter(|| black_box(unpacked_blocked_matmul(&a, &b)));
    });
    let scalar = ExecCtx::serial().with_kernel_mode(KernelMode::Scalar);
    group.bench_function("blocked_serial", |bch| {
        bch.iter(|| black_box(a.matmul_with(&b, &scalar).unwrap()));
    });
    let simd = ExecCtx::serial().with_kernel_mode(KernelMode::Simd);
    println!("note: simd backend = {}", kr_linalg::simd::backend().name());
    group.bench_function("simd_serial", |bch| {
        bch.iter(|| black_box(a.matmul_with(&b, &simd).unwrap()));
    });
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let exec = ExecCtx::threaded(threads).with_kernel_mode(KernelMode::Scalar);
    group.bench_function(format!("blocked_{threads}_threads"), |bch| {
        bch.iter(|| black_box(a.matmul_with(&b, &exec).unwrap()));
    });
    group.finish();
}

fn bench_matmul_wide_packed(c: &mut Criterion) {
    // Outputs wider than one `NC` slab (n = 2048 > 1024) are where the
    // packed-B micro-kernel earns its copy: the unpacked kernel re-walks
    // strided panel rows on every register-tile pass.
    let mut group = c.benchmark_group("matmul_wide_384x512x2048");
    group.sample_size(10);
    let a = Matrix::from_fn(384, 512, |i, j| ((i * 31 + j * 7) % 97) as f64 * 0.01);
    let b = Matrix::from_fn(512, 2048, |i, j| ((i * 13 + j * 3) % 89) as f64 * 0.02);
    let serial = ExecCtx::serial();
    assert_eq!(
        unpacked_blocked_matmul(&a, &b),
        a.matmul_with(&b, &serial).unwrap()
    );
    group.bench_function("blocked_unpacked", |bch| {
        bch.iter(|| black_box(unpacked_blocked_matmul(&a, &b)));
    });
    group.bench_function("blocked_packed_serial", |bch| {
        bch.iter(|| black_box(a.matmul_with(&b, &serial).unwrap()));
    });
    group.finish();
}

fn bench_pairwise_blocked(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise_sqdist_20000x64x32");
    group.sample_size(10);
    let x = Matrix::from_fn(20_000, 32, |i, j| ((i * 31 + j * 7) % 97) as f64 * 0.01);
    let cmat = Matrix::from_fn(64, 32, |i, j| ((i * 13 + j * 3) % 89) as f64 * 0.02);
    group.bench_function("seed_naive", |bch| {
        bch.iter(|| black_box(seed_naive_pairwise(&x, &cmat)));
    });
    let scalar = ExecCtx::serial().with_kernel_mode(KernelMode::Scalar);
    group.bench_function("fused_blocked_serial", |bch| {
        bch.iter(|| black_box(x.pairwise_sqdist_with(&cmat, &scalar).unwrap()));
    });
    let simd = ExecCtx::serial().with_kernel_mode(KernelMode::Simd);
    group.bench_function("fused_simd_serial", |bch| {
        bch.iter(|| black_box(x.pairwise_sqdist_with(&cmat, &simd).unwrap()));
    });
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let exec = ExecCtx::threaded(threads).with_kernel_mode(KernelMode::Scalar);
    group.bench_function(format!("fused_blocked_{threads}_threads"), |bch| {
        bch.iter(|| black_box(x.pairwise_sqdist_with(&cmat, &exec).unwrap()));
    });
    group.finish();
}

fn bench_pairwise_sqdist(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise_sqdist");
    group.sample_size(10);
    let serial = ExecCtx::serial();
    for &(n, k, m) in &[(500usize, 50usize, 32usize), (1000, 100, 32)] {
        let x = Matrix::from_fn(n, m, |i, j| ((i * 31 + j * 7) % 97) as f64 * 0.01);
        let cmat = Matrix::from_fn(k, m, |i, j| ((i * 13 + j * 3) % 89) as f64 * 0.02);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{k}x{m}")),
            &(),
            |b, _| {
                b.iter(|| black_box(x.pairwise_sqdist_with(&cmat, &serial).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_kr_assignment_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("kr_fit_one_iter");
    group.sample_size(10);
    let ds = kr_datasets::synthetic::blobs(1000, 16, 64, 1.0, 90);
    for (name, variant) in [
        ("time_efficient", KrVariant::TimeEfficient),
        ("memory_efficient", KrVariant::MemoryEfficient),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    KrKMeans::new(vec![8, 8])
                        // Reproduce the paper's Algorithm 1: no warm-start candidate.
                        .with_warm_start(false)
                        .with_variant(variant)
                        .with_n_init(1)
                        .with_max_iter(2)
                        .with_seed(1)
                        .fit(&ds.data)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_prop61_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("prop61_update_pass");
    group.sample_size(10);
    let ds = kr_datasets::synthetic::blobs(2000, 16, 36, 1.0, 91);
    let labels: Vec<usize> = (0..2000).map(|i| i % 36).collect();
    let serial = ExecCtx::serial();
    for agg in [Aggregator::Sum, Aggregator::Product] {
        group.bench_function(format!("agg_{agg}"), |b| {
            b.iter(|| {
                let mut sets = vec![
                    Matrix::from_fn(6, 16, |i, j| (i + j) as f64 * 0.1 + 0.5),
                    Matrix::from_fn(6, 16, |i, j| (i * j + 1) as f64 * 0.05 + 0.5),
                ];
                prop61_update_pass_with(&ds.data, &labels, &mut sets, agg, 0, &serial);
                black_box(sets)
            });
        });
    }
    group.finish();
}

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    group.sample_size(10);
    for n in [50usize, 100] {
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 37 + j * 17) % 101) as f64).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &(), |b, _| {
            b.iter(|| black_box(kr_metrics::hungarian::solve(&cost)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pairwise_sqdist,
    bench_matmul_blocked,
    bench_matmul_wide_packed,
    bench_pairwise_blocked,
    bench_kr_assignment_variants,
    bench_prop61_update,
    bench_hungarian
);

/// Input shape per benchmark group — kept in sync with the constructors
/// above so `BENCH_kernels.json` records shapes without re-deriving them
/// from labels.
fn shape_of(group: &str) -> &'static str {
    match group {
        "matmul_512x512x512" => "512x512x512",
        "matmul_wide_384x512x2048" => "384x512x2048",
        "pairwise_sqdist_20000x64x32" => "20000x32 vs 64x32",
        "pairwise_sqdist" => "per-label NxKx32",
        "kr_fit_one_iter" => "1000x16, hs=[8,8]",
        "prop61_update_pass" => "2000x16, hs=[6,6]",
        "hungarian" => "per-label NxN",
        _ => "",
    }
}

/// Persists every recorded median through the shared
/// [`kr_bench::bench_json`] writer (see EXPERIMENTS.md "Kernel modes"
/// for the schema). `extra.kernel` is `simd` for the
/// `KernelMode::Simd` legs, `scalar` for everything else (including
/// the seed-baseline loops, which are scalar by definition).
fn write_results_json(results: &[criterion::BenchResult]) {
    let records: Vec<kr_bench::bench_json::Record> = results
        .iter()
        .map(|r| {
            let (group, bench) = r
                .label
                .split_once('/')
                .unwrap_or((r.label.as_str(), r.label.as_str()));
            let kernel = if bench.contains("simd") {
                "simd"
            } else {
                "scalar"
            };
            kr_bench::bench_json::Record::new(group, bench, r.median_ns)
                .with_shape(shape_of(group))
                .with("kernel", kernel)
        })
        .collect();
    kr_bench::bench_json::write("BENCH_kernels.json", &records).expect("write BENCH_kernels.json");
}

/// Prints the simd-vs-scalar speedups the acceptance criteria track.
fn print_speedups(results: &[criterion::BenchResult]) {
    let median = |label: &str| {
        results
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.median_ns)
    };
    for (name, scalar, simd) in [
        (
            "matmul_512x512x512",
            "matmul_512x512x512/blocked_serial",
            "matmul_512x512x512/simd_serial",
        ),
        (
            "pairwise_sqdist_20000x64x32",
            "pairwise_sqdist_20000x64x32/fused_blocked_serial",
            "pairwise_sqdist_20000x64x32/fused_simd_serial",
        ),
    ] {
        if let (Some(s), Some(v)) = (median(scalar), median(simd)) {
            println!("speedup: {name:<40} simd {:.2}x over scalar", s / v);
        }
    }
}

fn main() {
    benches();
    let results = criterion::take_results();
    print_speedups(&results);
    write_results_json(&results);
}

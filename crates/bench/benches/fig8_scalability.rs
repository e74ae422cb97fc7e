//! Figure 8: runtime and peak memory of Naive-x, k-Means(h1+h2),
//! k-Means(h1h2), KR-+(h1+h2), KR-x(h1+h2) — plus the external
//! summarization baselines Rk-means(h1+h2) and NNK-Means(h1+h2) at
//! vector-budget parity — as the number of data points, features, and
//! centroids grows (Blobs).
//!
//! Paper headline: KR-k-Means has a near-constant runtime overhead over
//! k-Means(h1h2) (same asymptotic complexity) and uses *less* memory as
//! the number of centroids grows (up to 2.7x less).
//!
//! The sweep grid is scaled down for the single-core environment; the
//! axes' growth directions and the crossovers are the target.

// Peak-memory reporting: without this, kr_bench::measure sees no heap.
kr_bench::install_counting_allocator!();

use kr_bench::{measure, mib};
use kr_core::aggregator::Aggregator;
use kr_core::baselines::{NnkMeans, RkMeans};
use kr_core::kmeans::KMeans;
use kr_core::kr_kmeans::{KrKMeans, KrVariant};
use kr_core::naive::NaiveKr;
use kr_linalg::{ExecCtx, Matrix};

fn run_all(data: &Matrix, h: usize, label: &str) {
    let max_iter = 10;
    let mut results: Vec<(&str, f64, usize)> = Vec::new();
    let (m1, t, p) = measure(|| {
        NaiveKr::new(vec![h, h])
            .with_kmeans_n_init(1)
            .with_decomp_max_iter(100)
            .fit(data)
            .unwrap()
    });
    std::hint::black_box(&m1);
    results.push(("Naive-x", t, p));
    let (m2, t, p) = measure(|| {
        KMeans::new(2 * h)
            .with_n_init(1)
            .with_max_iter(max_iter)
            .fit(data)
            .unwrap()
    });
    std::hint::black_box(&m2);
    results.push(("kM(h1+h2)", t, p));
    let (m3, t, p) = measure(|| {
        KMeans::new(h * h)
            .with_n_init(1)
            .with_max_iter(max_iter)
            .fit(data)
            .unwrap()
    });
    std::hint::black_box(&m3);
    results.push(("kM(h1h2)", t, p));
    let (m4, t, p) = measure(|| {
        // Warm start would materialize the full grid and mask the
        // O((n + 2h) m) space bound this figure measures.
        KrKMeans::new(vec![h, h])
            .with_aggregator(Aggregator::Sum)
            .with_variant(KrVariant::MemoryEfficient)
            .with_warm_start(false)
            .with_n_init(1)
            .with_max_iter(max_iter)
            .fit(data)
            .unwrap()
    });
    std::hint::black_box(&m4);
    results.push(("KR-+", t, p));
    let (m5, t, p) = measure(|| {
        KrKMeans::new(vec![h, h])
            .with_aggregator(Aggregator::Product)
            .with_variant(KrVariant::MemoryEfficient)
            .with_warm_start(false)
            .with_n_init(1)
            .with_max_iter(max_iter)
            .fit(data)
            .unwrap()
    });
    std::hint::black_box(&m5);
    results.push(("KR-x", t, p));
    // External baselines at the same h1+h2 vector budget (the fig6 /
    // table2 parity protocol). Rk-means' grid compression is the series
    // expected to flatten as n grows.
    let (m6, t, p) = measure(|| {
        RkMeans::new(2 * h)
            .with_n_init(1)
            .with_max_iter(max_iter)
            .fit(data)
            .unwrap()
    });
    std::hint::black_box(&m6);
    results.push(("Rk(h+h)", t, p));
    let (m7, t, p) = measure(|| {
        NnkMeans::new(2 * h)
            .with_n_init(1)
            .with_max_iter(max_iter)
            .fit(data)
            .unwrap()
    });
    std::hint::black_box(&m7);
    results.push(("NNK(h+h)", t, p));
    print!("{label:<24}");
    for (_, t, _) in &results {
        print!("{:>10.3}", t);
    }
    print!("   |");
    for (_, _, p) in &results {
        print!("{:>9.1}", mib(*p));
    }
    println!();
}

fn main() {
    println!("=== Figure 8: scalability (runtime seconds | peak heap MiB) ===");
    println!(
        "{:<24}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}   \
         |{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "sweep",
        "Naive-x",
        "kM(h+h)",
        "kM(hh)",
        "KR-+",
        "KR-x",
        "Rk(h+h)",
        "NNK(h+h)",
        "Naive-x",
        "kM(h+h)",
        "kM(hh)",
        "KR-+",
        "KR-x",
        "Rk(h+h)",
        "NNK(h+h)"
    );

    // --- Vary number of data points (k = 100, m = 20).
    let h = 10;
    for n in [1000usize, 2000, 4000, 8000] {
        let n = kr_bench::scaled(n, 200);
        let ds = kr_datasets::synthetic::blobs(n, 20, 100, 1.0, 70);
        run_all(&ds.data, h, &format!("points n={n}"));
    }

    // --- Vary number of features (n = 400, k = 100).
    for m in [200usize, 400, 800, 1600] {
        let ds = kr_datasets::synthetic::blobs(kr_bench::scaled(400, 100), m, 100, 1.0, 71);
        run_all(&ds.data, h, &format!("features m={m}"));
    }

    // --- Vary number of centroids (n = 2000, m = 20).
    for h in [8usize, 12, 16, 24] {
        let k = h * h;
        // Floor keeps n >= k for the largest grid (24^2 = 576 clusters).
        let ds = kr_datasets::synthetic::blobs(kr_bench::scaled(2000, 700), 20, 100, 1.0, 72);
        run_all(&ds.data, h, &format!("centroids k={k}"));
    }

    // --- Assignment pruning on/off (n = 2000, m = 20): the bounds-gated
    // AssignEngine axis. Same seeds and the bitwise contract mean both
    // columns fit the identical model; only distance evaluations and
    // wall-clock change. skip% = dists_skipped / (computed + skipped)
    // over the whole fit (init + warm-up iterations included, which is
    // why it trails the post-warmup BENCH_assign.json ratios).
    println!("\n=== Pruning axis: bounds-gated assignment on/off (same fit, bit-identical) ===");
    println!(
        "{:<16}{:>12}{:>12}{:>9}{:>8}{:>14}{:>14}{:>9}{:>8}",
        "sweep", "kM off s", "kM on s", "x", "skip%", "KR-+ off s", "KR-+ on s", "x", "skip%"
    );
    for h in [8usize, 12, 16, 24] {
        let k = h * h;
        let ds = kr_datasets::synthetic::blobs(kr_bench::scaled(2000, 700), 20, 100, 1.0, 72);
        let exec_off = ExecCtx::serial().with_prune_mode(kr_linalg::PruneMode::Off);
        let exec_on = ExecCtx::serial().with_prune_mode(kr_linalg::PruneMode::On);
        let km_fit = |exec: ExecCtx| {
            measure(|| {
                KMeans::new(k)
                    .with_n_init(1)
                    .with_max_iter(10)
                    .with_exec(exec)
                    .fit(&ds.data)
                    .unwrap()
            })
        };
        let (km_off, t_km_off, _) = km_fit(exec_off.clone());
        let (km_on, t_km_on, _) = km_fit(exec_on.clone());
        assert_eq!(km_off.labels, km_on.labels, "pruning must be invisible");
        assert_eq!(km_off.inertia.to_bits(), km_on.inertia.to_bits());
        let kr_fit = |exec: ExecCtx| {
            measure(|| {
                KrKMeans::new(vec![h, h])
                    .with_aggregator(Aggregator::Sum)
                    .with_variant(KrVariant::MemoryEfficient)
                    .with_warm_start(false)
                    .with_n_init(1)
                    .with_max_iter(10)
                    .with_exec(exec)
                    .fit(&ds.data)
                    .unwrap()
            })
        };
        let (kr_off, t_kr_off, _) = kr_fit(exec_off);
        let (kr_on, t_kr_on, _) = kr_fit(exec_on);
        assert_eq!(kr_off.labels, kr_on.labels, "pruning must be invisible");
        assert_eq!(kr_off.inertia.to_bits(), kr_on.inertia.to_bits());
        println!(
            "{:<16}{:>12.3}{:>12.3}{:>9.2}{:>7.1}%{:>14.3}{:>14.3}{:>9.2}{:>7.1}%",
            format!("centroids k={k}"),
            t_km_off,
            t_km_on,
            t_km_off / t_km_on,
            100.0 * km_on.prune_stats.skip_ratio(),
            t_kr_off,
            t_kr_on,
            t_kr_off / t_kr_on,
            100.0 * kr_on.prune_stats.skip_ratio(),
        );
    }

    // --- Vary worker threads (n = 4000, m = 20, k = 100): the ExecCtx
    // axis. Same seeds at every budget, so the fitted models (hence the
    // work) are identical; only wall-clock may change.
    println!("\n=== Threads axis: same fit at 1/2/4/8 workers (runtime seconds) ===");
    let ds = kr_datasets::synthetic::blobs(kr_bench::scaled(4000, 500), 20, 100, 1.0, 73);
    println!("{:<12}{:>12}{:>16}", "threads", "kM(100)", "KR-+(10+10)");
    for threads in [1usize, 2, 4, 8] {
        let exec = ExecCtx::threaded(threads);
        let (km, t_km, _) = measure(|| {
            KMeans::new(100)
                .with_n_init(1)
                .with_max_iter(10)
                .with_exec(exec.clone())
                .fit(&ds.data)
                .unwrap()
        });
        std::hint::black_box(&km);
        let (kr, t_kr, _) = measure(|| {
            KrKMeans::new(vec![10, 10])
                .with_aggregator(Aggregator::Sum)
                .with_warm_start(false)
                .with_n_init(1)
                .with_max_iter(10)
                .with_exec(exec)
                .fit(&ds.data)
                .unwrap()
        });
        std::hint::black_box(&kr);
        println!("{threads:<12}{t_km:>12.3}{t_kr:>16.3}");
    }

    // --- Allocation counts: the Scratch arena should make steady-state
    // Lloyd iterations allocation-free (buffers are taken from and
    // returned to the per-ExecCtx pools, so only the first iteration of
    // a fit touches the allocator). Two fits that differ only in
    // max_iter isolate the per-iteration cost: tol = 0 disables early
    // convergence and the shared seed makes the prefix work identical,
    // so the delta divided by the extra iterations is the steady-state
    // allocation rate.
    println!("\n=== Allocations per Lloyd iteration (Scratch arena) ===");
    let ds = kr_datasets::synthetic::blobs(kr_bench::scaled(2000, 400), 16, 64, 1.0, 74);
    let allocs_for = |iters: usize| {
        let before = kr_bench::alloc_counter::alloc_calls();
        let model = KrKMeans::new(vec![8, 8])
            .with_variant(KrVariant::MemoryEfficient)
            .with_warm_start(false)
            .with_n_init(1)
            .with_tol(0.0)
            .with_max_iter(iters)
            .fit(&ds.data)
            .unwrap();
        std::hint::black_box(&model);
        kr_bench::alloc_counter::alloc_calls() - before
    };
    let (short, long) = (4usize, 12usize);
    let (a_short, a_long) = (allocs_for(short), allocs_for(long));
    let per_iter = a_long.saturating_sub(a_short) as f64 / (long - short) as f64;
    println!("KR-+(8x8) fit, max_iter={short}: {a_short} allocs; max_iter={long}: {a_long} allocs");
    println!("steady-state: {per_iter:.1} allocs per extra iteration (target: O(1) after warm-up)");

    println!(
        "\nExpected shape (paper Fig. 8): all curves grow with n/m/k; KR's runtime \
         overhead over kM(h1h2) stays near-constant; kM(h1h2)'s peak memory pulls \
         ahead of KR's as the centroid count grows (the KR series stores h1+h2 \
         vectors instead of h1*h2). Baseline series: Rk-means' grid compression \
         decouples its Lloyd phase from n, so its runtime curve should flatten \
         exactly where the points axis grows (at the cost of grid memory in m); \
         NNK-Means pays per-point sparse coding, tracking kM(h1+h2)'s growth \
         with a constant-factor overhead. On the threads axis the fitted models \
         are bit-identical at every worker count (deterministic chunk geometry); \
         runtime should drop toward the core count and flatten past it. On the \
         pruning axis the dense kM columns speed up with k while the KR-+ \
         on-the-fly columns may not at whole-fit scale: norm-box gates are \
         weaker than triangle-inequality bounds and the init + warm-up \
         iterations (where bounds cannot prune) dominate a 10-iteration fit — \
         BENCH_assign.json isolates the post-warmup regime where the >= 3x \
         distance-eval and >= 2x wall-clock floors are enforced."
    );
}

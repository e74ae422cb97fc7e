//! `batch_fit`: three whole fits on Gaussian blobs — `KMeans(k)`, KR-+
//! on the materialized grid, and KR-x computing centroids on the fly.

use crate::stats::{Digest, Fastest};
use crate::trace::Trace;
use crate::{timed, Checks, Firsts};
use kr_core::aggregator::Aggregator;
use kr_core::kmeans::{KMeans, KMeansInit};
use kr_core::kr_kmeans::{prop61_update_pass_with, KrInit, KrKMeans, KrVariant};
use kr_core::operator::{aggregate_tuple_into, khatri_rao, CentroidIndexer};
use kr_core::AssignEngine;
use kr_linalg::{ops, ExecCtx, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Restarts per fit.
const N_INIT: usize = 3;
/// Lloyd iterations per restart.
const MAX_ITER: usize = 20;
/// Convergence tolerance: zero, so every restart runs all `MAX_ITER`
/// iterations. How many iterations a fit needs to converge differs by
/// a third between draws of the data, and with it the fit time; a fixed
/// budget times the same work on every draw, and `inertia_per_point`
/// shows what the budget buys.
const TOL: f64 = 0.0;
/// The chunk width of the library's k-Means update reduction, restated
/// so the replayed update sums in the same order.
const UPDATE_CHUNK: usize = 8192;
/// The library's warm-start seed salt, restated so the traced run can
/// time the warm start's two calls with the arguments `fit` passes.
const WARM_START_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Data and model sizes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    n: usize,
    m: usize,
    k: usize,
    h: usize,
}

impl Input {
    /// The data dimension.
    pub fn dim(&self) -> usize {
        self.shape.m
    }
}

impl Shape {
    /// 6000×32 blobs around 64 centers, `KMeans(64)` against KR 8+8.
    pub const FULL: Shape = Shape {
        n: 6000,
        m: 32,
        k: 64,
        h: 8,
    };
    /// The same fits on a quarter of the points, when another workload
    /// has the run's time budget.
    pub const PROBE: Shape = Shape {
        n: 1500,
        m: 32,
        k: 64,
        h: 8,
    };
    /// A few-millisecond version for the smoke test.
    pub const SMOKE: Shape = Shape {
        n: 400,
        m: 4,
        k: 16,
        h: 4,
    };
}

/// The generated input of one run.
pub struct Input {
    shape: Shape,
    data: Matrix,
    fit_seed: u64,
}

/// Generates the blobs of one instance from its seed.
pub fn setup(shape: Shape, seed: u64) -> Input {
    Input {
        shape,
        data: kr_datasets::synthetic::blobs(shape.n, shape.m, shape.k, 1.0, seed).data,
        fit_seed: seed.wrapping_mul(31).wrapping_add(7),
    }
}

fn kmeans(input: &Input) -> KMeans {
    KMeans::new(input.shape.k)
        .with_n_init(N_INIT)
        .with_max_iter(MAX_ITER)
        .with_tol(TOL)
        .with_seed(input.fit_seed)
        .with_exec(ExecCtx::serial())
}

fn kr(input: &Input, variant: KrVariant) -> KrKMeans {
    KrKMeans::new(vec![input.shape.h; 2])
        .with_n_init(N_INIT)
        .with_max_iter(MAX_ITER)
        .with_tol(TOL)
        .with_seed(input.fit_seed)
        .with_exec(ExecCtx::serial())
        .with_variant(variant)
}

/// Untraced timings of the three fits.
#[derive(Debug)]
pub struct Samples {
    /// Seconds per `KMeans` fit, per instance.
    pub kmeans_s: Fastest,
    /// Seconds per KR-+ (grid) fit, per instance.
    pub kr_grid_s: Fastest,
    /// Seconds per KR-x (on-the-fly) fit, per instance.
    pub kr_otf_s: Fastest,
    /// KR-+ inertia per point, averaged over the instances.
    pub inertia_per_point: f64,
    /// Highest heap peak of any fit above the level it started from.
    pub peak_heap: usize,
    /// Labels and centroid bits of all three models on every instance.
    pub digest: u64,
}

/// Labels and inertia bits of the three fits, for the repeat check.
type Fingerprint = [(Vec<usize>, u64); 3];

/// The untraced job: the three fits on each instance in turn.
pub struct Run<'a> {
    inputs: &'a [Input],
    rep: usize,
    out: Samples,
    firsts: Firsts<Fingerprint>,
}

impl<'a> Run<'a> {
    /// A run over `inputs`.
    pub fn new(inputs: &'a [Input]) -> Self {
        let n = inputs.len();
        Run {
            inputs,
            rep: 0,
            out: Samples {
                kmeans_s: Fastest::new(n),
                kr_grid_s: Fastest::new(n),
                kr_otf_s: Fastest::new(n),
                inertia_per_point: f64::NAN,
                peak_heap: 0,
                digest: 0,
            },
            firsts: Firsts::new("batch_fit", n),
        }
    }

    /// Runs the three fits on the next instance, checking each result.
    pub fn step(&mut self, checks: &mut Checks) {
        let i = self.rep % self.inputs.len();
        self.rep += 1;
        let out = &mut self.out;
        let input = &self.inputs[i];
        let data = &input.data;
        let (km, t, heap) = kr_bench::measure(|| kmeans(input).fit(data));
        out.kmeans_s.record(i, t);
        out.peak_heap = out.peak_heap.max(heap);
        let (grid, t, heap) = kr_bench::measure(|| kr(input, KrVariant::TimeEfficient).fit(data));
        out.kr_grid_s.record(i, t);
        out.peak_heap = out.peak_heap.max(heap);
        let (otf, t, heap) = kr_bench::measure(|| kr(input, KrVariant::MemoryEfficient).fit(data));
        out.kr_otf_s.record(i, t);
        out.peak_heap = out.peak_heap.max(heap);
        let (Ok(km), Ok(grid), Ok(otf)) = (km, grid, otf) else {
            checks.fail("batch_fit: a fit returned an error");
            return;
        };
        let fits = [
            ("kmeans", &km.labels, km.inertia, km.centroids.clone()),
            ("kr_grid", &grid.labels, grid.inertia, grid.centroids()),
            ("kr_otf", &otf.labels, otf.inertia, otf.centroids()),
        ];
        for (name, _, inertia, centroids) in &fits {
            let scored = kr_metrics::inertia(data, centroids);
            checks.expect(((inertia - scored) / scored).abs() <= 1e-9, || {
                format!("batch_fit: {name} inertia {inertia} but scores {scored}")
            });
        }
        let print = fits.clone().map(|(_, l, i, _)| (l.clone(), i.to_bits()));
        let digest = || {
            let mut d = Digest::default();
            for (_, labels, _, centroids) in &fits {
                d.labels(labels);
                d.floats(centroids.as_slice());
            }
            d.value()
        };
        let quality = || grid.inertia / data.nrows() as f64;
        self.firsts.record(i, print, digest, quality, checks);
    }

    /// The samples, with the quality and digest over every instance.
    pub fn finish(mut self) -> Samples {
        self.out.inertia_per_point = self.firsts.quality();
        self.out.digest = self.firsts.digest();
        self.out
    }
}

/// Counters and flags of the traced replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall seconds of the traced replays (warm-start calls included).
    pub traced_s: f64,
    /// Wall seconds of the same restarts run by the library's `fit`.
    pub untraced_s: f64,
    /// Labels and centroid bits of the library's three restarts.
    pub digest: u64,
}

/// Replays one restart per fitter from benchmark-drawn initial sets
/// with public calls only, timing each layer into `tr`, and compares
/// each replay bitwise with the library's `fit` on the same sets.
pub fn replay(input: &Input, tr: &mut Trace, checks: &mut Checks) -> Replay {
    let data = &input.data;
    let Shape { n, k, h, .. } = input.shape;
    let mut rng = StdRng::seed_from_u64(input.fit_seed ^ 0x5EED);
    let mut draw = |rows: usize| {
        data.select_rows(&kr_datasets::rng::sample_without_replacement(
            &mut rng, n, rows,
        ))
    };
    let km_init = draw(k);
    let grid_init = vec![draw(h), draw(h)];
    let otf_init = vec![draw(h), draw(h)];
    let mut out = Replay::default();
    let mut digest = Digest::default();

    // KMeans.
    let (reference, t) = timed(|| {
        kmeans(input)
            .with_n_init(1)
            .with_init(KMeansInit::FromCentroids(km_init.clone()))
            .fit(data)
            .expect("valid blobs fit")
    });
    out.untraced_s += t;
    digest.labels(&reference.labels);
    digest.floats(reference.centroids.as_slice());
    let (mine, t) = timed(|| replay_kmeans(data, km_init, input.fit_seed, tr));
    out.traced_s += t;
    let faithful = mine.0 == reference.labels
        && mine.1.to_bits() == reference.inertia.to_bits()
        && mine.2 == reference.centroids;
    checks.expect(faithful, || {
        "batch_fit: KMeans replay diverged from fit".into()
    });
    tr.count(DENSE.faithful, f64::from(u8::from(faithful)));

    // KR-+ on the grid, then KR-x on the fly.
    for (variant, init, pass) in [
        (KrVariant::TimeEfficient, grid_init, &GRID),
        (KrVariant::MemoryEfficient, otf_init, &OTF),
    ] {
        let (reference, t) = timed(|| {
            kr(input, variant)
                .with_n_init(1)
                .with_init(KrInit::FromSets(init.clone()))
                .fit(data)
                .expect("valid blobs fit")
        });
        out.untraced_s += t;
        digest.labels(&reference.labels);
        reference
            .protocentroids
            .iter()
            .for_each(|set| digest.floats(set.as_slice()));
        let (mine, t) = timed(|| replay_kr(data, init, variant, input.fit_seed, tr));
        out.traced_s += t;
        let faithful = mine.0 == reference.labels
            && mine.1.to_bits() == reference.inertia.to_bits()
            && mine.2 == reference.protocentroids;
        // A KR fit reseeds empty protocentroids from one RNG stream for
        // the whole restart, while each `prop61_update_pass_with` call
        // starts a fresh one, so a replay can diverge once reseeds fall
        // in two iterations. That is the library's choice, not a wrong
        // result, so it shows in the flag rather than as a failed check.
        tr.count(pass.faithful, f64::from(u8::from(faithful)));
    }

    // The warm start of the KR-+ fit: its two public calls, with the
    // arguments `KrKMeans::fit` passes. The calls are the library's own,
    // so they count as the same work traced and untraced.
    let salt = input.fit_seed ^ WARM_START_SALT;
    let (km, t) = timed(|| {
        tr.span("warm_start.kmeans_fit", || {
            KMeans::new(h * h)
                .with_n_init(2)
                .with_max_iter(MAX_ITER)
                .with_tol(TOL)
                .with_exec(ExecCtx::serial())
                .with_seed(salt)
                .fit(data)
                .expect("valid blobs fit")
        })
    });
    out.traced_s += t;
    out.untraced_s += t;
    let (_, t) = timed(|| {
        tr.span("naive.decompose", || {
            kr_core::naive::decompose_centroids(
                &km.centroids,
                &[h, h],
                Aggregator::Sum,
                500,
                TOL.min(1e-8),
                salt,
            )
        })
    });
    out.traced_s += t;
    out.untraced_s += t;
    out.digest = digest.value();

    // Allocator calls of each whole fit as the untraced run configures it.
    let fits: [(&str, &dyn Fn() -> bool); 3] = [
        ("alloc.calls.kmeans", &|| kmeans(input).fit(data).is_ok()),
        ("alloc.calls.kr_grid", &|| {
            kr(input, KrVariant::TimeEfficient).fit(data).is_ok()
        }),
        ("alloc.calls.kr_otf", &|| {
            kr(input, KrVariant::MemoryEfficient).fit(data).is_ok()
        }),
    ];
    for (name, fit) in fits {
        let before = kr_bench::alloc_counter::alloc_calls();
        let ok = fit();
        checks.expect(ok, || format!("batch_fit: {name} fit failed"));
        tr.count(
            name,
            (kr_bench::alloc_counter::alloc_calls() - before) as f64,
        );
    }
    out
}

/// One `KMeans` restart from `centroids`, mirroring the library's Lloyd
/// loop: assignment through the shared engine, then the mean update
/// with empty clusters reseeded from the fit's seed.
fn replay_kmeans(
    data: &Matrix,
    mut centroids: Matrix,
    seed: u64,
    tr: &mut Trace,
) -> (Vec<usize>, f64, Matrix) {
    let (n, m) = data.shape();
    let k = centroids.nrows();
    let exec = ExecCtx::serial();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = AssignEngine::new(&exec);
    engine.begin_fit(data);
    engine.begin_restart();
    let mut labels = vec![0usize; n];
    let mut dmin = vec![0.0f64; n];
    let mut inertia = f64::INFINITY;
    let mut fresh = false;
    let mut iters = 0;
    for _ in 0..MAX_ITER {
        iters += 1;
        tr.span("assign.dense", || {
            engine.assign_dense(data, &centroids, &mut labels, &mut dmin)
        });
        inertia = dmin.iter().sum();
        let movement = tr.span("kmeans.update", || {
            let (sums, counts) = cluster_sums(data, &labels, k, m);
            let mut movement = 0.0;
            for (c, &count) in counts.iter().enumerate() {
                if count == 0 {
                    let row = data.row(rng.gen_range(0..n)).to_vec();
                    movement += ops::sqdist(centroids.row(c), &row);
                    centroids.row_mut(c).copy_from_slice(&row);
                    continue;
                }
                let inv = 1.0 / count as f64;
                for (cv, &sv) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                    let d = sv * inv - *cv;
                    movement += d * d;
                    *cv = sv * inv;
                }
            }
            movement
        });
        fresh = movement == 0.0;
        if movement < TOL {
            break;
        }
    }
    if !fresh {
        tr.span("assign.dense", || {
            engine.assign_dense(data, &centroids, &mut labels, &mut dmin)
        });
        inertia = dmin.iter().sum::<f64>().min(inertia);
    }
    record_prune(tr, &DENSE, &engine, iters);
    (labels, inertia, centroids)
}

/// Per-cluster sums and counts in the library's chunk order.
fn cluster_sums(data: &Matrix, labels: &[usize], k: usize, m: usize) -> (Matrix, Vec<usize>) {
    let mut sums = Matrix::zeros(k, m);
    let mut counts = vec![0usize; k];
    for start in (0..labels.len()).step_by(UPDATE_CHUNK) {
        let end = (start + UPDATE_CHUNK).min(labels.len());
        let mut part = Matrix::zeros(k, m);
        for (i, &l) in labels[start..end].iter().enumerate() {
            ops::add_assign(part.row_mut(l), data.row(start + i));
            counts[l] += 1;
        }
        if start == 0 {
            sums = part;
        } else {
            ops::add_assign(sums.as_mut_slice(), part.as_slice());
        }
    }
    (sums, counts)
}

/// One KR restart from `sets`, mirroring Algorithm 1 with the
/// library's public pieces: assignment (grid or on the fly), the
/// Proposition 6.1 pass, and the centroid-movement stop rule.
fn replay_kr(
    data: &Matrix,
    mut sets: Vec<Matrix>,
    variant: KrVariant,
    seed: u64,
    tr: &mut Trace,
) -> (Vec<usize>, f64, Vec<Matrix>) {
    let n = data.nrows();
    let agg = Aggregator::Sum;
    let exec = ExecCtx::serial();
    let indexer = CentroidIndexer::new(sets.iter().map(Matrix::nrows).collect());
    let mut engine = AssignEngine::new(&exec);
    engine.begin_fit(data);
    engine.begin_restart();
    let mut labels = vec![0usize; n];
    let mut dmin = vec![0.0f64; n];
    let mut old = sets.clone();
    let mut assign =
        |sets: &[Matrix], labels: &mut [usize], dmin: &mut [f64], tr: &mut Trace| match variant {
            KrVariant::TimeEfficient => {
                let grid = tr.span("operator.khatri_rao", || {
                    khatri_rao(sets, agg).expect("validated sets")
                });
                tr.span("assign.grid", || {
                    engine.assign_grid(data, &grid, sets, agg, labels, dmin)
                });
            }
            KrVariant::MemoryEfficient => tr.span("assign.otf", || {
                engine.assign_otf(data, sets, &indexer, agg, labels, dmin)
            }),
        };
    let mut iters = 0;
    for _ in 0..MAX_ITER {
        iters += 1;
        assign(&sets, &mut labels, &mut dmin, tr);
        tr.span("kr_kmeans.prop61_update", || {
            prop61_update_pass_with(data, &labels, &mut sets, agg, seed, &exec)
        });
        let movement = tr.span("kr_kmeans.convergence", || {
            let m = data.ncols();
            let (mut new_mu, mut old_mu) = (vec![0.0; m], vec![0.0; m]);
            let mut total = 0.0;
            indexer.for_each_tuple(|_, tuple| {
                aggregate_tuple_into(&mut new_mu, &sets, tuple, agg);
                aggregate_tuple_into(&mut old_mu, &old, tuple, agg);
                total += ops::sqdist(&new_mu, &old_mu);
            });
            total
        });
        if movement < TOL {
            break;
        }
        old.clone_from(&sets);
    }
    assign(&sets, &mut labels, &mut dmin, tr);
    let pass = match variant {
        KrVariant::TimeEfficient => &GRID,
        KrVariant::MemoryEfficient => &OTF,
    };
    record_prune(tr, pass, &engine, iters);
    (labels, dmin.iter().sum(), sets)
}

/// Metric names of one kind of assignment pass.
struct Pass {
    dists: &'static str,
    skip: &'static str,
    updates: &'static str,
    iters: &'static str,
    faithful: &'static str,
}

const DENSE: Pass = Pass {
    dists: "assign.dense.dists_computed",
    skip: "assign.dense.skip_ratio",
    updates: "assign.dense.bound_updates",
    iters: "lloyd.iters.kmeans",
    faithful: "replay_faithful.kmeans",
};
const GRID: Pass = Pass {
    dists: "assign.grid.dists_computed",
    skip: "assign.grid.skip_ratio",
    updates: "assign.grid.bound_updates",
    iters: "lloyd.iters.kr_grid",
    faithful: "replay_faithful.kr_grid",
};
const OTF: Pass = Pass {
    dists: "assign.otf.dists_computed",
    skip: "assign.otf.skip_ratio",
    updates: "assign.otf.bound_updates",
    iters: "lloyd.iters.kr_otf",
    faithful: "replay_faithful.kr_otf",
};

/// Records an engine's pruning counters and the restart's iterations.
fn record_prune(tr: &mut Trace, pass: &Pass, engine: &AssignEngine, iters: usize) {
    let s = engine.stats();
    let candidates = (s.dists_computed + s.dists_skipped).max(1) as f64;
    tr.count(pass.dists, s.dists_computed as f64);
    tr.count(pass.skip, s.dists_skipped as f64 / candidates);
    tr.count(pass.updates, s.bound_updates as f64);
    tr.count(pass.iters, iters as f64);
}

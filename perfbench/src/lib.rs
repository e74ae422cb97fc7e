//! End-to-end benchmark of the Khatri-Rao clustering workspace.
//!
//! Three serial, closed-loop jobs — whole batch fits, streaming ingest,
//! federated rounds — each generate their inputs from the run's seed.
//! Every run executes all three, because every run reports every
//! end-to-end metric: the workload named on the command line runs its
//! own job at full size for most of the run, and probes of the other
//! two at a smaller size are interleaved with it. A traced run replays
//! the jobs through public calls and splits their time into layers.
//! See `README.md` in this directory for the workload and metric map.

pub mod batch;
pub mod fed;
pub mod stats;
pub mod stream;
pub mod trace;

use stats::{median, tail};
use std::time::{Duration, Instant};
use trace::Trace;

/// Set-up runs this many times per untraced run, spread evenly over it;
/// `setup_s` is the median. Set-ups run back to back would all fall in
/// the same fast or slow spell of a shared machine.
const SETUP_REPEATS: usize = 9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole fits of `KMeans`, KR-+ and KR-x.
    BatchFit,
    /// Mini-batch KR-k-Means and the coreset tree over a replayed stream.
    StreamIngest,
    /// KR-FkM rounds over in-process clients.
    FederatedRounds,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchFit,
        Workload::StreamIngest,
        Workload::FederatedRounds,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchFit => "batch_fit",
            Workload::StreamIngest => "stream_ingest",
            Workload::FederatedRounds => "federated_rounds",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the measured shapes, or a tiny version for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The shapes the benchmark is defined on.
    Full,
    /// Tiny inputs that exercise every code path in well under a second.
    Smoke,
}

/// Correctness checks of one run; each failed check counts as a failed
/// operation in the result.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records one failed check.
    pub fn fail(&mut self, what: &str) {
        self.expect(false, || what.to_string());
    }
}

/// The first result of each input instance of a job: later repetitions
/// on the instance must reproduce it exactly, and the job's digest and
/// summary quality come from it.
#[derive(Debug)]
pub struct Firsts<F> {
    job: &'static str,
    seen: Vec<Option<(F, u64, f64)>>,
}

impl<F: PartialEq> Firsts<F> {
    /// Tracks `instances` inputs of `job`.
    pub fn new(job: &'static str, instances: usize) -> Self {
        Firsts {
            job,
            seen: (0..instances).map(|_| None).collect(),
        }
    }

    /// Records instance `i`'s result, identified by `print`. The first
    /// time, `digest` and `quality` (inertia per point) are evaluated
    /// and kept; later, `print` must equal the first one.
    pub fn record(
        &mut self,
        i: usize,
        print: F,
        digest: impl FnOnce() -> u64,
        quality: impl FnOnce() -> f64,
        checks: &mut Checks,
    ) {
        match &self.seen[i] {
            None => self.seen[i] = Some((print, digest(), quality())),
            Some((first, _, _)) => checks.expect(first == &print, || {
                format!("{}: a repeat on instance {i} changed its output", self.job)
            }),
        }
    }

    /// The first instance's first result.
    pub fn first(&self) -> Option<&F> {
        self.seen.first()?.as_ref().map(|s| &s.0)
    }

    /// The instance digests folded in instance order.
    pub fn digest(&self) -> u64 {
        let mut d = stats::Digest::default();
        self.seen.iter().flatten().for_each(|s| d.word(s.1));
        d.value()
    }

    /// Mean inertia per point over the instances.
    pub fn quality(&self) -> f64 {
        let q: Vec<f64> = self.seen.iter().flatten().map(|s| s.2).collect();
        q.iter().sum::<f64>() / q.len() as f64
    }
}

/// Runs `f`, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics, end-to-end or per-layer depending on the mode.
    pub metrics: Vec<Metric>,
    /// Checks made.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Output digest per job.
    pub digests: Vec<(&'static str, u64)>,
    /// Sample counts and tail percentiles behind the timings.
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// The generated inputs of all three jobs, several instances each.
struct Inputs {
    batch: Vec<batch::Input>,
    stream: Vec<stream::Input>,
    fed: Vec<fed::Input>,
}

/// How many input instances each job draws from the seed, at its full
/// shape (the run's own job) and at its probe shape. Each instance runs
/// at least once and most run several times; every timing is taken from
/// the fastest run of each repeatable unit (see [`stats::Fastest`]).
/// Fit times are means over a few instances: with a fixed iteration
/// budget a fit's time still differs by several percent between draws
/// of the data. A stream pass averages over a thousand batches, so one
/// instance would do for its time; the second is there for the summary
/// quality, which differs more between draws.
const PLANS: [Plan; 3] = [
    Plan {
        job: Workload::BatchFit,
        full: 4,
        probe: 6,
        probe_weight: 2.0,
    },
    Plan {
        job: Workload::StreamIngest,
        full: 2,
        probe: 2,
        probe_weight: 1.0,
    },
    Plan {
        job: Workload::FederatedRounds,
        full: 6,
        probe: 6,
        probe_weight: 1.0,
    },
];

struct Plan {
    job: Workload,
    full: usize,
    probe: usize,
    /// Weight of the job's probe in splitting the time left over by the
    /// run's own job: a probe fit is long next to a probe stretch or
    /// round, so the batch probe needs more time for as many repeats.
    probe_weight: f64,
}

/// Instances per job in the smoke test.
const SMOKE_INSTANCES: usize = 2;

/// Share of the run's time the named workload's own job gets; the
/// other two split the rest by their probe weights.
const HOME_SHARE: f64 = 0.7;

/// Generates every job's instances from `seed`: the full shape for
/// `workload`'s own job, the probe shape for the other two.
fn setup(workload: Workload, size: Size, seed: u64) -> Inputs {
    // Index into each job's [full, probe, smoke] shapes, and the
    // instance count that goes with it.
    let role = |p: &Plan| match size {
        Size::Smoke => (2, SMOKE_INSTANCES),
        Size::Full if p.job == workload => (0, p.full),
        Size::Full => (1, p.probe),
    };
    let seeds = |n: usize| (0..n as u64).map(move |i| seed * 64 + i);
    let (b, n) = role(&PLANS[0]);
    let batch = [batch::Shape::FULL, batch::Shape::PROBE, batch::Shape::SMOKE][b];
    let (s, m) = role(&PLANS[1]);
    let stream = [
        stream::Shape::FULL,
        stream::Shape::PROBE,
        stream::Shape::SMOKE,
    ][s];
    let (f, k) = role(&PLANS[2]);
    let fed = [fed::Shape::FULL, fed::Shape::PROBE, fed::Shape::SMOKE][f];
    Inputs {
        batch: seeds(n).map(|i| batch::setup(batch, i)).collect(),
        stream: seeds(m).map(|i| stream::setup(stream, i)).collect(),
        fed: seeds(k).map(|i| fed::setup(fed, i)).collect(),
    }
}

/// Runs `workload` with inputs from `seed`: the untraced end-to-end
/// measurement for about `seconds`, or the traced per-layer replay,
/// which does a fixed amount of work.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, size: Size) -> Report {
    let (inputs, t) = timed(|| setup(workload, size, seed));
    let mut setup_s = vec![t];
    let mut report = Report::default();
    let mut checks = Checks::default();
    if traced {
        run_traced(&inputs, &mut report, &mut checks);
        let share = checks.failures.len() as f64 / checks.attempted.max(1) as f64;
        report.push("failed_share", share, "share");
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut set_up_again = || setup_s.push(timed(|| setup(workload, size, seed)).1);
        run_untraced(
            workload,
            &inputs,
            deadline,
            &mut set_up_again,
            &mut report,
            &mut checks,
        );
        report.push("setup_s", median(&setup_s), "s");
    }
    report.attempted = checks.attempted;
    report.failures = checks.failures;
    report
}

fn run_untraced(
    workload: Workload,
    inputs: &Inputs,
    deadline: Instant,
    set_up_again: &mut dyn FnMut(),
    report: &mut Report,
    checks: &mut Checks,
) {
    let mut b = batch::Run::new(&inputs.batch);
    let mut s = stream::Run::new(&inputs.stream);
    let mut f = fed::Run::new(&inputs.fed);
    let probes: f64 = PLANS
        .iter()
        .filter(|p| p.job != workload)
        .map(|p| p.probe_weight)
        .sum();
    let share = |p: &Plan| {
        if p.job == workload {
            HOME_SHARE
        } else {
            (1.0 - HOME_SHARE) * p.probe_weight / probes
        }
    };
    // Interleave the jobs, each next step going to the job furthest
    // below its share of the time so far, so every job samples the whole
    // run rather than one stretch of it. Past the deadline, only jobs
    // that have not yet run every instance continue. Between steps, the
    // set-up is timed again at even intervals, outside every job's time.
    let instances = [inputs.batch.len(), inputs.stream.len(), inputs.fed.len()];
    let mut used = [0.0f64; 3];
    let mut reps = [0usize; 3];
    let start = Instant::now();
    let setup_every = (deadline - start) / SETUP_REPEATS as u32;
    let mut setups = 1;
    loop {
        if setups < SETUP_REPEATS && start.elapsed() >= setup_every * setups as u32 {
            set_up_again();
            setups += 1;
        }
        let late = Instant::now() >= deadline;
        let next = (0..3)
            .filter(|&j| !late || reps[j] < instances[j])
            .min_by(|&x, &y| {
                let due = |j: usize| used[j] / share(&PLANS[j]);
                due(x).total_cmp(&due(y))
            });
        let Some(j) = next else { break };
        let ((), t) = timed(|| match PLANS[j].job {
            Workload::BatchFit => b.step(checks),
            Workload::StreamIngest => s.step(checks),
            Workload::FederatedRounds => f.step(checks),
        });
        used[j] += t;
        reps[j] += 1;
    }
    let (b, s, f) = (b.finish(), s.finish(checks), f.finish());
    report.notes.push(format!(
        "steps: {} batch, {} stream, {} federated",
        reps[0], reps[1], reps[2]
    ));

    report.push("kmeans_fit_s", b.kmeans_s.mean(), "s");
    report.push("kr_grid_fit_s", b.kr_grid_s.mean(), "s");
    report.push("kr_otf_fit_s", b.kr_otf_s.mean(), "s");
    // Rows of one pass per instance over the fastest time of each of
    // their stretches.
    let rate = |rows: usize, secs: f64| rows as f64 / secs;
    report.push(
        "minibatch_rows_per_s",
        rate(s.minibatch_rows, s.minibatch_s.sum()),
        "rows/s",
    );
    report.push(
        "coreset_rows_per_s",
        rate(s.coreset_rows, s.coreset_s.sum()),
        "rows/s",
    );
    report.push("round_p50_ms", f.round_ms_best.median(), "ms");
    report.push("bytes_per_round", f.bytes_per_round, "bytes");
    let peak = b.peak_heap.max(s.peak_heap).max(f.peak_heap);
    report.push("peak_heap_mib", kr_bench::mib(peak), "MiB");
    report.push(
        "inertia_per_point",
        match workload {
            Workload::BatchFit => b.inertia_per_point,
            Workload::StreamIngest => s.inertia_per_point,
            Workload::FederatedRounds => f.inertia_per_point,
        },
        "sq_dist",
    );
    note_tail(report, "coreset batch", &s.coreset_batch_ms);
    note_tail(report, "round", &f.round_ms);
    report.notes.push(format!(
        "samples: {} fits per fitter, {} minibatch stretches, {} coreset stretches, {} rounds",
        b.kmeans_s.samples(),
        s.minibatch_s.samples(),
        s.coreset_s.samples(),
        f.round_ms.len()
    ));
    report.digests = vec![
        ("batch_fit", b.digest),
        ("stream_ingest", s.digest),
        ("federated_rounds", f.digest),
    ];
}

fn run_traced(inputs: &Inputs, report: &mut Report, checks: &mut Checks) {
    let mut tr = Trace::on();
    let b = batch::replay(&inputs.batch[0], &mut tr, checks);
    let s = stream::replay(&inputs.stream[0], &mut tr, checks);
    let f = fed::replay(&inputs.fed, &mut tr, checks);
    let traced = b.traced_s + s.traced_s + f.traced_s;
    let untraced = b.untraced_s + s.untraced_s + f.untraced_s;
    let unattributed = traced - tr.total_busy();

    for (name, layer) in SPAN_METRICS {
        report.push(name, tr.busy(layer), "s");
    }
    for (name, unit) in COUNT_METRICS {
        report.push(name, tr.counted(name), unit);
    }
    let dists = tr.counted("assign.dense.dists_computed")
        + tr.counted("assign.grid.dists_computed")
        + tr.counted("assign.otf.dists_computed");
    let flops = 3.0 * dists * inputs.batch[0].dim() as f64;
    let assign_s = tr.busy("assign.dense") + tr.busy("assign.grid") + tr.busy("assign.otf");
    report.push("kernel.flops", flops, "flop");
    report.push("kernel.gflops_per_s", flops / assign_s / 1e9, "GFLOP/s");
    for (name, samples) in [
        ("coreset_batch_p99_ms", &s.coreset_batch_ms),
        ("round_p99_ms", &f.round_ms),
    ] {
        let t = tail(samples);
        // Tail metrics are named p99; a shorter sample is a failure.
        checks.expect(t.is_some_and(|t| t.pct == 99.0), || {
            format!("{name}: too few samples for a p99")
        });
        report.push(name, t.map_or(f64::NAN, |t| t.value), "ms");
    }
    note_tail(report, "coreset batch", &s.coreset_batch_ms);
    note_tail(report, "round", &f.round_ms);
    report.push("unattributed_s", unattributed, "s");
    report.push("trace_overhead", traced / untraced, "ratio");
    report.digests = vec![
        ("batch_fit", b.digest),
        ("stream_ingest", s.digest),
        ("federated_rounds", f.digest),
    ];
}

/// Notes the tail percentile a sample supports and its size.
fn note_tail(report: &mut Report, what: &str, samples: &[f64]) {
    report.notes.push(match tail(samples) {
        Some(t) => format!(
            "{what} tail: p{} = {:.3} ms of {} samples",
            t.pct, t.value, t.samples
        ),
        None => format!("{what} tail: {} samples, too few", samples.len()),
    });
}

/// Per-layer busy-time metrics and the span each one sums.
const SPAN_METRICS: [(&str, &str); 20] = [
    ("assign.dense_s", "assign.dense"),
    ("assign.grid_s", "assign.grid"),
    ("assign.otf_s", "assign.otf"),
    ("assign.ccbounds_sync_s", "assign.ccbounds_sync"),
    ("assign.ccbounds_assign_s", "assign.ccbounds_assign"),
    ("operator.khatri_rao_s", "operator.khatri_rao"),
    ("kmeans.update_s", "kmeans.update"),
    ("kr_kmeans.prop61_update_s", "kr_kmeans.prop61_update"),
    ("kr_kmeans.convergence_s", "kr_kmeans.convergence"),
    (
        "kr_kmeans.prop61_from_stats_s",
        "kr_kmeans.prop61_from_stats",
    ),
    ("warm_start.kmeans_fit_s", "warm_start.kmeans_fit"),
    ("naive.decompose_s", "naive.decompose"),
    ("stats.observe_batch_s", "stats.observe_batch"),
    ("stream.first_batch_fit_s", "stream.first_batch_fit"),
    ("coreset.compress_s", "coreset.compress"),
    ("coreset.finalize_s", "coreset.finalize"),
    ("wire.encode_s", "wire.encode"),
    ("wire.decode_s", "wire.decode"),
    ("client.handle_s", "client.handle"),
    ("server.s", "server"),
];

/// Per-layer counters, with their units.
const COUNT_METRICS: [(&str, &str); 28] = [
    ("assign.dense.dists_computed", "count"),
    ("assign.grid.dists_computed", "count"),
    ("assign.otf.dists_computed", "count"),
    ("assign.dense.skip_ratio", "ratio"),
    ("assign.grid.skip_ratio", "ratio"),
    ("assign.otf.skip_ratio", "ratio"),
    ("assign.dense.bound_updates", "count"),
    ("assign.grid.bound_updates", "count"),
    ("assign.otf.bound_updates", "count"),
    ("assign.ccbounds.rebuilds", "count"),
    ("assign.ccbounds.skip_ratio", "ratio"),
    ("lloyd.iters.kmeans", "count"),
    ("lloyd.iters.kr_grid", "count"),
    ("lloyd.iters.kr_otf", "count"),
    ("alloc.calls.kmeans", "count"),
    ("alloc.calls.kr_grid", "count"),
    ("alloc.calls.kr_otf", "count"),
    ("replay_faithful.kmeans", "flag"),
    ("replay_faithful.kr_grid", "flag"),
    ("replay_faithful.kr_otf", "flag"),
    ("replay_faithful.coreset", "flag"),
    ("coreset.compressions", "count"),
    ("coreset.peak_representatives", "count"),
    ("wire.frames_up", "count"),
    ("wire.frames_down", "count"),
    ("wire.bytes_up", "bytes"),
    ("wire.bytes_down", "bytes"),
    ("client.dists_computed", "count"),
];

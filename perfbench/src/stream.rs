//! `stream_ingest`: a replayed stream of small batches through
//! `MiniBatchKrKMeans` (several epochs) and `CoresetTree` (one pass).

use crate::stats::{Digest, Fastest};
use crate::trace::Trace;
use crate::{timed, Checks, Firsts};
use kr_core::aggregator::Aggregator;
use kr_core::baselines::WeightedKMeans;
use kr_core::kr_kmeans::{prop61_update_from_stats, KrKMeans};
use kr_core::operator::khatri_rao;
use kr_core::stats::SuffStats;
use kr_core::CcBounds;
use kr_datasets::stream::ChunkedReplay;
use kr_linalg::{ExecCtx, Matrix};
use kr_stream::{CoresetTree, MiniBatchKrKMeans, StreamSummarizer};

/// Defaults of `MiniBatchKrKMeans` and `CoresetTree`, restated for the
/// replays: restarts and iteration cap of the first-batch seeding fit,
/// and of every coreset compression.
const MB_INIT_RESTARTS: usize = 4;
const MB_INIT_MAX_ITER: usize = 100;
const CORESET_N_INIT: usize = 4;
const CORESET_MAX_ITER: usize = 50;
/// The coreset tree's per-compression seed salt.
const COMPRESS_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// `observe` calls per timed stretch of a minibatch pass and of a
/// coreset pass: a few tens of milliseconds each at full size, short
/// enough that some run of every stretch misses the slow spells of a
/// shared machine.
const MINIBATCH_STRETCH: usize = 100;
const CORESET_STRETCH: usize = 10;

/// Data, model and stream sizes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    n: usize,
    m: usize,
    clusters: usize,
    h: usize,
    batch: usize,
    epochs: usize,
    budget: usize,
    leaf: usize,
}

impl Shape {
    /// 200k×8 blobs around 100 centers in 200-row batches: minibatch KR
    /// 10+10 over three epochs, `CoresetTree(k=100, budget=100,
    /// leaf=400)` over one.
    pub const FULL: Shape = Shape {
        n: 200_000,
        m: 8,
        clusters: 100,
        h: 10,
        batch: 200,
        epochs: 3,
        budget: 100,
        leaf: 400,
    };
    /// The same summarizers over 20k rows in 20-row batches, when
    /// another workload has the run's time budget: a pass still makes
    /// 1000 coreset batches, enough for a p99.
    pub const PROBE: Shape = Shape {
        n: 20_000,
        m: 8,
        clusters: 100,
        h: 10,
        batch: 20,
        epochs: 3,
        budget: 100,
        leaf: 400,
    };
    /// A few-millisecond version for the smoke test, still with the
    /// 1000 coreset batches a p99 needs.
    pub const SMOKE: Shape = Shape {
        n: 5000,
        m: 4,
        clusters: 16,
        h: 4,
        batch: 5,
        epochs: 2,
        budget: 20,
        leaf: 80,
    };
}

/// The generated input of one run.
pub struct Input {
    shape: Shape,
    data: Matrix,
    /// One epoch of the stream: `ChunkedReplay`'s batches, cut once.
    batches: Vec<Matrix>,
    seed: u64,
}

/// Generates the blobs of one instance from its seed and cuts them into
/// the batches of one epoch.
pub fn setup(shape: Shape, seed: u64) -> Input {
    let data = kr_datasets::synthetic::blobs(shape.n, shape.m, shape.clusters, 1.0, seed).data;
    let seed = seed.wrapping_mul(17).wrapping_add(3);
    let batches = ChunkedReplay::new(&data, shape.batch, seed).collect();
    Input {
        shape,
        data,
        batches,
        seed,
    }
}

impl Input {
    /// The batches of one epoch, in stream order.
    fn replay(&self) -> std::slice::Iter<'_, Matrix> {
        self.batches.iter()
    }

    /// `observe` calls of one minibatch pass.
    fn minibatch_observes(&self) -> usize {
        self.batches.len() * self.shape.epochs
    }

    fn minibatch(&self) -> MiniBatchKrKMeans {
        MiniBatchKrKMeans::new(vec![self.shape.h; 2])
            .with_seed(self.seed)
            .with_exec(ExecCtx::serial())
    }

    fn coreset(&self) -> CoresetTree {
        CoresetTree::new(self.shape.clusters, self.shape.budget)
            .with_leaf_size(self.shape.leaf)
            .with_seed(self.seed)
            .with_exec(ExecCtx::serial())
    }

    /// Rows one minibatch pass ingests.
    fn minibatch_rows(&self) -> usize {
        self.shape.n * self.shape.epochs
    }
}

/// Untraced samples of the stream job.
#[derive(Debug)]
pub struct Samples {
    /// Seconds per stretch of a minibatch pass, one unit per stretch of
    /// each instance.
    pub minibatch_s: Fastest,
    /// Rows the minibatch passes of all instances ingest, one pass each.
    pub minibatch_rows: usize,
    /// Seconds per stretch of a coreset pass, as for the minibatch.
    pub coreset_s: Fastest,
    /// Rows the coreset passes of all instances ingest, one pass each.
    pub coreset_rows: usize,
    /// Milliseconds per coreset `observe` call, over all passes.
    pub coreset_batch_ms: Vec<f64>,
    /// Highest heap peak of a first pass above the level it started
    /// from, the summarizer's state included.
    pub peak_heap: usize,
    /// The minibatch summary scored on its full stream, per point,
    /// averaged over the instances.
    pub inertia_per_point: f64,
    /// Protocentroid bits of the minibatch models and centroid bits of
    /// the coreset models, over every instance.
    pub digest: u64,
}

/// The summarizers' states at the start of each stretch of one
/// instance's passes, saved by its first pass.
struct Saved {
    minibatch: Vec<MiniBatchKrKMeans>,
    coreset: Vec<CoresetTree>,
}

/// The untraced job: a minibatch pass and a coreset pass on each
/// instance in turn. Each pass is cut into stretches of a fixed number
/// of `observe` calls. The first pass on an instance carries the state
/// through and saves it at the start of every stretch. Later passes
/// rerun every stretch from its saved state, so each stretch repeats the
/// same work and its fastest run can be taken; a pass's time is the sum
/// of its stretches.
pub struct Run<'a> {
    inputs: &'a [Input],
    rep: usize,
    out: Samples,
    saved: Vec<Saved>,
    firsts: Firsts<Vec<Matrix>>,
}

impl<'a> Run<'a> {
    /// A run over `inputs`.
    pub fn new(inputs: &'a [Input]) -> Self {
        let n = inputs.len();
        let stretches = |calls: usize, per: usize| n * calls.div_ceil(per);
        Run {
            inputs,
            rep: 0,
            out: Samples {
                minibatch_s: Fastest::new(stretches(
                    inputs[0].minibatch_observes(),
                    MINIBATCH_STRETCH,
                )),
                minibatch_rows: inputs.iter().map(Input::minibatch_rows).sum(),
                coreset_s: Fastest::new(stretches(inputs[0].batches.len(), CORESET_STRETCH)),
                coreset_rows: inputs.iter().map(|i| i.shape.n).sum(),
                coreset_batch_ms: Vec::new(),
                peak_heap: 0,
                inertia_per_point: f64::NAN,
                digest: 0,
            },
            saved: (0..n)
                .map(|_| Saved {
                    minibatch: Vec::new(),
                    coreset: Vec::new(),
                })
                .collect(),
            firsts: Firsts::new("stream_ingest", n),
        }
    }

    /// Runs both passes on the next instance, checking their results.
    pub fn step(&mut self, checks: &mut Checks) {
        let i = self.rep % self.inputs.len();
        self.rep += 1;
        let out = &mut self.out;
        let input = &self.inputs[i];
        let saved = &mut self.saved[i];
        let mut unused = Vec::new();
        let minibatch = Pass {
            batches: &input.batches,
            calls: input.minibatch_observes(),
            per: MINIBATCH_STRETCH,
        }
        .run(
            &mut saved.minibatch,
            || input.minibatch(),
            (&mut out.minibatch_s, i),
            &mut unused,
        );
        let Ok((mb, heap)) = minibatch else {
            checks.fail("stream_ingest: minibatch ingest returned an error");
            return;
        };
        out.peak_heap = out.peak_heap.max(heap.unwrap_or(0));
        let Ok(model) = mb.finalize() else {
            checks.fail("stream_ingest: minibatch finalize returned an error");
            return;
        };
        checks.expect(model.n_observed == input.minibatch_rows(), || {
            format!(
                "stream_ingest: minibatch observed {} rows",
                model.n_observed
            )
        });

        let coreset = Pass {
            batches: &input.batches,
            calls: input.batches.len(),
            per: CORESET_STRETCH,
        }
        .run(
            &mut saved.coreset,
            || input.coreset(),
            (&mut out.coreset_s, i),
            &mut out.coreset_batch_ms,
        );
        let Ok((tree, heap)) = coreset else {
            checks.fail("stream_ingest: coreset observe returned an error");
            return;
        };
        out.peak_heap = out.peak_heap.max(heap.unwrap_or(0));
        check_coreset(&tree, input.shape.n, checks);

        let finalized = tree.finalize();
        checks.expect(finalized.is_ok(), || {
            "stream_ingest: coreset finalize returned an error".into()
        });
        let digest = || {
            let mut d = Digest::default();
            for set in &model.protocentroids {
                d.floats(set.as_slice());
            }
            if let Ok(c) = &finalized {
                d.floats(c.centroids.as_slice());
            }
            d.value()
        };
        let quality =
            || kr_metrics::inertia(&input.data, &model.centroids()) / input.shape.n as f64;
        self.firsts
            .record(i, model.protocentroids.clone(), digest, quality, checks);
    }

    /// Checks the first instance's minibatch model against a replay and
    /// returns the samples, with the quality and digest over every
    /// instance.
    pub fn finish(mut self, checks: &mut Checks) -> Samples {
        if let Some(first) = self.firsts.first() {
            let replayed = replay_minibatch(&self.inputs[0], &mut Trace::off());
            checks.expect(replayed.as_ref() == Some(first), || {
                "stream_ingest: the minibatch replay differs from finalize()".into()
            });
        }
        self.out.inertia_per_point = self.firsts.quality();
        self.out.digest = self.firsts.digest();
        self.out
    }
}

/// One pass of a summarizer over an epoch's batches, `calls` `observe`
/// calls long (batch `j` is `batches[j % batches.len()]`), timed in
/// stretches of `per` calls.
struct Pass<'a> {
    batches: &'a [Matrix],
    calls: usize,
    per: usize,
}

impl Pass<'_> {
    /// Runs the pass and returns the summarizer's state at its end. A
    /// first pass (`saved` empty) starts from `make()`, saves the state
    /// at the start of every stretch, and also returns its heap peak: the
    /// highest the heap rose above its level before `make()`, less the
    /// saved states. A later pass reruns every stretch from its saved
    /// state. Stretch `s` of instance `i` is unit `i * stretches + s` of
    /// `times`; every call's latency is pushed to `latency_ms`.
    fn run<S: StreamSummarizer + Clone>(
        &self,
        saved: &mut Vec<S>,
        make: impl FnOnce() -> S,
        (times, i): (&mut Fastest, usize),
        latency_ms: &mut Vec<f64>,
    ) -> kr_core::Result<(S, Option<usize>)> {
        use kr_bench::alloc_counter::{live_bytes, peak_since_reset, reset_peak};
        let stretches = self.calls.div_ceil(self.per);
        let first = saved.is_empty();
        // Reserved before the heap level is read, so the latency samples
        // never count as the summarizer's memory.
        latency_ms.reserve(self.calls);
        let base = live_bytes();
        let mut held = 0;
        let mut peak = 0;
        let mut state = first.then(make);
        for s in 0..stretches {
            let mut now = match state.take() {
                Some(carried) if first => {
                    let before = live_bytes();
                    saved.push(carried.clone());
                    held += live_bytes().saturating_sub(before);
                    carried
                }
                _ => saved[s].clone(),
            };
            reset_peak();
            let level = live_bytes();
            let mut busy = 0.0;
            for j in s * self.per..((s + 1) * self.per).min(self.calls) {
                let (r, t) = timed(|| now.observe(&self.batches[j % self.batches.len()]));
                if let Err(e) = r {
                    // A pass that broke off leaves no usable saved states.
                    saved.clear();
                    return Err(e);
                }
                busy += t;
                latency_ms.push(t * 1e3);
            }
            times.record(i * stretches + s, busy);
            if first {
                let carried = level.saturating_sub(base + held);
                peak = peak.max(carried + peak_since_reset());
            }
            state = Some(now);
        }
        let end = state.expect("a pass has at least one stretch");
        Ok((end, first.then_some(peak)))
    }
}

fn check_coreset(tree: &CoresetTree, rows: usize, checks: &mut Checks) {
    let mass = tree.summary().map_or(f64::NAN, |s| s.total_weight());
    checks.expect(mass == rows as f64 && tree.n_observed() == rows, || {
        format!("stream_ingest: coreset holds mass {mass} after {rows} rows")
    });
    checks.expect(
        tree.peak_representatives() <= tree.representative_bound(),
        || {
            format!(
                "stream_ingest: coreset peaked at {} representatives, bound {}",
                tree.peak_representatives(),
                tree.representative_bound()
            )
        },
    );
}

/// Wall times and digest of the traced stream replays.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall seconds of the traced replays.
    pub traced_s: f64,
    /// Wall seconds of the library's own passes over the same stream.
    pub untraced_s: f64,
    /// Milliseconds per `observe` call of the library's coreset pass.
    pub coreset_batch_ms: Vec<f64>,
    /// As in [`Samples::digest`], from the library's passes.
    pub digest: u64,
}

/// Runs one minibatch pass and one coreset pass through the library,
/// then replays both with public calls, timing each layer into `tr`,
/// and checks each replay against the library's result bitwise.
pub fn replay(input: &Input, tr: &mut Trace, checks: &mut Checks) -> Replay {
    let mut out = Replay::default();
    let (model, t) = timed(|| {
        let mut mb = input.minibatch();
        for _ in 0..input.shape.epochs {
            for batch in input.replay() {
                mb.observe(batch).expect("finite stream");
            }
        }
        mb.finalize().expect("observed rows")
    });
    out.untraced_s += t;
    let (replayed, t) = timed(|| replay_minibatch(input, tr));
    out.traced_s += t;
    checks.expect(replayed.as_ref() == Some(&model.protocentroids), || {
        "stream_ingest: the minibatch replay differs from finalize()".into()
    });

    let (tree, t) = timed(|| {
        let mut tree = input.coreset();
        for batch in input.replay() {
            let (r, t) = timed(|| tree.observe(batch));
            r.expect("finite stream");
            out.coreset_batch_ms.push(t * 1e3);
        }
        tree
    });
    out.untraced_s += t;
    check_coreset(&tree, input.shape.n, checks);
    let (ladder, t) = timed(|| {
        let mut ladder = Ladder::new(input);
        for batch in input.replay() {
            ladder.observe(batch, tr);
        }
        ladder
    });
    out.traced_s += t;
    let faithful = tree.summary().ok().is_some_and(|s| {
        let (points, weights) = ladder.summary();
        s.points == points && s.weights == weights
    });
    checks.expect(faithful, || {
        "stream_ingest: the coreset replay differs from summary()".into()
    });
    tr.count("replay_faithful.coreset", f64::from(u8::from(faithful)));
    tr.count("coreset.compressions", ladder.compressions as f64);
    tr.count(
        "coreset.peak_representatives",
        tree.peak_representatives() as f64,
    );
    let (fitted, t) = timed(|| tr.span("coreset.finalize", || tree.finalize()));
    out.traced_s += t;
    out.untraced_s += t;

    let mut d = Digest::default();
    for set in &model.protocentroids {
        d.floats(set.as_slice());
    }
    if let Ok(c) = fitted {
        d.floats(c.centroids.as_slice());
    }
    out.digest = d.value();
    out
}

/// Replays `MiniBatchKrKMeans` with public calls: the first batch seeds
/// the protocentroids with a full KR fit, then every batch is assigned
/// against the grid under persistent center–center bounds, folded into
/// the sufficient statistics, and answered with the Proposition 6.1
/// closed forms. Returns the final protocentroids.
fn replay_minibatch(input: &Input, tr: &mut Trace) -> Option<Vec<Matrix>> {
    let exec = ExecCtx::serial();
    let agg = Aggregator::Sum;
    let mut sets: Option<Vec<Matrix>> = None;
    let mut acc = SuffStats::zeros(input.shape.h * input.shape.h, input.shape.m);
    let mut bounds = CcBounds::default();
    for _ in 0..input.shape.epochs {
        for batch in input.replay() {
            let sets = match &mut sets {
                Some(s) => s,
                None => sets.insert(tr.span("stream.first_batch_fit", || {
                    KrKMeans::new(vec![input.shape.h; 2])
                        .with_n_init(MB_INIT_RESTARTS)
                        .with_max_iter(MB_INIT_MAX_ITER)
                        .with_seed(input.seed)
                        .with_exec(exec.clone())
                        .fit(batch)
                        .ok()
                        .map(|f| f.protocentroids)
                })?),
            };
            let grid = tr.span("operator.khatri_rao", || {
                khatri_rao(sets, agg).expect("validated sets")
            });
            tr.span("assign.ccbounds_sync", || bounds.sync(&grid));
            let (labels, _) = tr.span("assign.ccbounds_assign", || {
                bounds.assign(batch, &grid, &exec)
            });
            tr.span("stats.observe_batch", || acc.observe_batch(batch, &labels))
                .ok()?;
            tr.span("kr_kmeans.prop61_from_stats", || {
                prop61_update_from_stats(&acc.sums, &acc.counts_usize(), sets, agg)
            });
        }
    }
    tr.count("assign.ccbounds.rebuilds", bounds.rebuilds() as f64);
    tr.count("assign.ccbounds.skip_ratio", bounds.stats().skip_ratio());
    sets
}

/// A replay of the coreset tree's merge-reduce ladder with public
/// `WeightedKMeans` fits, so the compressions can be counted and timed
/// at the tree's leaf and merge shapes.
struct Ladder {
    budget: usize,
    leaf: usize,
    m: usize,
    seed: u64,
    buffer: Vec<f64>,
    levels: Vec<Option<(Matrix, Vec<f64>)>>,
    compressions: u64,
}

impl Ladder {
    fn new(input: &Input) -> Self {
        Ladder {
            budget: input.shape.budget,
            leaf: input.shape.leaf,
            m: input.shape.m,
            seed: input.seed,
            buffer: Vec::new(),
            levels: Vec::new(),
            compressions: 0,
        }
    }

    fn observe(&mut self, batch: &Matrix, tr: &mut Trace) {
        for row in batch.rows_iter() {
            self.buffer.extend_from_slice(row);
            if self.buffer.len() / self.m >= self.leaf {
                let rows = self.buffer.len() / self.m;
                let points = Matrix::from_vec(rows, self.m, std::mem::take(&mut self.buffer))
                    .expect("row-aligned buffer");
                let node = self.reduce(points, vec![1.0; rows], tr);
                self.insert(node, tr);
            }
        }
    }

    /// Compresses a node above the budget, as the tree does.
    fn reduce(&mut self, points: Matrix, weights: Vec<f64>, tr: &mut Trace) -> (Matrix, Vec<f64>) {
        if points.nrows() <= self.budget {
            return (points, weights);
        }
        self.compressions += 1;
        let salt = self
            .seed
            .wrapping_add(self.compressions.wrapping_mul(COMPRESS_SALT));
        let model = tr.span("coreset.compress", || {
            WeightedKMeans::new(self.budget)
                .with_n_init(CORESET_N_INIT)
                .with_max_iter(CORESET_MAX_ITER)
                .with_seed(salt)
                .with_exec(ExecCtx::serial())
                .fit(&points, &weights)
                .expect("finite weighted points")
        });
        let mut masses = vec![0.0f64; self.budget];
        for (&l, &w) in model.labels.iter().zip(&weights) {
            masses[l] += w;
        }
        let keep: Vec<usize> = (0..self.budget).filter(|&c| masses[c] > 0.0).collect();
        (
            model.centroids.select_rows(&keep),
            keep.iter().map(|&c| masses[c]).collect(),
        )
    }

    fn insert(&mut self, mut node: (Matrix, Vec<f64>), tr: &mut Trace) {
        for level in 0.. {
            if level == self.levels.len() {
                self.levels.push(None);
            }
            match self.levels[level].take() {
                None => {
                    self.levels[level] = Some(node);
                    return;
                }
                Some((points, mut weights)) => {
                    let merged = points.vstack(&node.0).expect("one dimension");
                    weights.extend_from_slice(&node.1);
                    node = self.reduce(merged, weights, tr);
                }
            }
        }
    }

    /// Levels ascending, then the raw buffer, as `CoresetTree::summary`.
    fn summary(&self) -> (Matrix, Vec<f64>) {
        let mut points = Vec::new();
        let mut weights = Vec::new();
        for (p, w) in self.levels.iter().flatten() {
            points.extend_from_slice(p.as_slice());
            weights.extend_from_slice(w);
        }
        points.extend_from_slice(&self.buffer);
        weights.resize(points.len() / self.m, 1.0);
        let rows = weights.len();
        (
            Matrix::from_vec(rows, self.m, points).expect("row-aligned"),
            weights,
        )
    }
}

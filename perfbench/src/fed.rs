//! `federated_rounds`: KR-FkM through `FederatedServer::drive` over
//! in-process clients, behind a benchmark-owned connection that times
//! each round and counts every frame.

use crate::stats::{Digest, Fastest};
use crate::trace::Trace;
use crate::{timed, Checks, Firsts};
use kr_core::aggregator::Aggregator;
use kr_core::Result;
use kr_federated::client::{ShardClient, Step};
use kr_federated::protocol::{Broadcast, Msg};
use kr_federated::transport::Connection;
use kr_federated::wire::{self, FrameInfo};
use kr_federated::{Algo, Client, FederatedModel, FederatedServer};
use kr_linalg::{ExecCtx, Matrix};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Data, model and protocol sizes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    n: usize,
    m: usize,
    clusters: usize,
    h: usize,
    clients: usize,
    rounds: usize,
}

impl Shape {
    /// 20000×8 blobs around 100 centers, dealt round-robin to 10
    /// clients; KR-FkM 10+10 for 100 rounds per run of the protocol.
    pub const FULL: Shape = Shape {
        n: 20_000,
        m: 8,
        clusters: 100,
        h: 10,
        clients: 10,
        rounds: 100,
    };
    /// The same federation with 200 points per client, when another
    /// workload has the run's time budget.
    pub const PROBE: Shape = Shape {
        n: 2000,
        m: 8,
        clusters: 100,
        h: 10,
        clients: 10,
        rounds: 100,
    };
    /// A few-millisecond version for the smoke test, still with the
    /// 100 rounds per run that make ten runs enough for a p99.
    pub const SMOKE: Shape = Shape {
        n: 1200,
        m: 4,
        clusters: 16,
        h: 4,
        clients: 4,
        rounds: 100,
    };
}

/// The generated input of one run.
pub struct Input {
    shape: Shape,
    data: Matrix,
    clients: Vec<Client>,
    seed: u64,
}

/// Generates the blobs of one instance from its seed and deals them to
/// the clients.
pub fn setup(shape: Shape, seed: u64) -> Input {
    let data = kr_datasets::synthetic::blobs(shape.n, shape.m, shape.clusters, 1.0, seed).data;
    let owner: Vec<usize> = (0..shape.n).map(|i| i % shape.clients).collect();
    let clients = kr_federated::shard_by_assignment(&data, &owner, shape.clients);
    Input {
        shape,
        data,
        clients,
        seed: seed.wrapping_mul(13).wrapping_add(5),
    }
}

/// What the benchmark's connections observed during one run of the
/// protocol, shared by all of them.
#[derive(Debug, Default)]
struct Tally {
    /// When client 0 was sent each round's broadcast, the evaluation
    /// broadcast that closes the last round included.
    round_starts: Vec<Instant>,
    /// Between the first round's broadcast and the evaluation broadcast.
    in_rounds: bool,
    round_bytes: usize,
    frames_down: usize,
    frames_up: usize,
    bytes_down: usize,
    bytes_up: usize,
    /// Shard rows × grid size over the round broadcasts clients answered.
    dists: u64,
    /// Busy time of the wire codec and the clients during the rounds
    /// (tracing only).
    trace: Trace,
}

/// An in-memory connection mirroring the in-process transport: every
/// message crosses a real encode/decode round trip and is handled by
/// the client synchronously. No threads, no sockets.
struct BenchConn<'a> {
    id: u32,
    rows: usize,
    client: ShardClient<'a>,
    inbox: VecDeque<Vec<u8>>,
    tally: Arc<Mutex<Tally>>,
}

impl<'a> BenchConn<'a> {
    fn connect(id: u32, data: &'a Matrix, tally: Arc<Mutex<Tally>>) -> Self {
        let client = ShardClient::new(id, data, ExecCtx::serial());
        let (frame, _) = wire::encode(&client.join());
        BenchConn {
            id,
            rows: data.nrows(),
            client,
            inbox: VecDeque::from([frame]),
            tally,
        }
    }

    fn tally(&self) -> MutexGuard<'_, Tally> {
        lock(&self.tally)
    }
}

fn lock(tally: &Mutex<Tally>) -> MutexGuard<'_, Tally> {
    tally.lock().expect("no connection panics while counting")
}

/// Runs `f`, charging its wall time to `layer` when tracing is on and
/// the rounds are under way.
fn span<T>(tally: &Mutex<Tally>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    if !lock(tally).trace.is_on() {
        return f();
    }
    let (out, t) = timed(f);
    let mut tally = lock(tally);
    if tally.in_rounds {
        tally.trace.add_busy(layer, t);
    }
    out
}

/// The round broadcast a message carries, if any.
fn round_broadcast(msg: &Msg) -> Option<&Broadcast> {
    match msg {
        Msg::Broadcast(b) => Some(b),
        Msg::RoundAck(a) => a.next.as_ref(),
        _ => None,
    }
}

impl Connection for BenchConn<'_> {
    fn send(&mut self, msg: &Msg) -> Result<FrameInfo> {
        let broadcast = round_broadcast(msg);
        if let (0, Some(b)) = (self.id, broadcast) {
            let mut tally = self.tally();
            tally.round_starts.push(Instant::now());
            tally.in_rounds = !b.eval_only;
        }
        let (frame, info) = span(&self.tally, "wire.encode", || wire::encode(msg));
        let delivered = span(&self.tally, "wire.decode", || wire::decode_frame(&frame))?;
        let step = span(&self.tally, "client.handle", || {
            self.client.handle(&delivered)
        })?;
        let mut tally = self.tally();
        tally.frames_down += 1;
        tally.bytes_down += frame.len();
        if tally.in_rounds {
            tally.round_bytes += frame.len();
        }
        if let Some(b) = broadcast.filter(|_| tally.in_rounds) {
            tally.dists += (self.rows * b.summary.grid_size()) as u64;
        }
        drop(tally);
        if let Step::Reply(reply) = step {
            let (frame, _) = span(&self.tally, "wire.encode", || wire::encode(&reply));
            self.inbox.push_back(frame);
        }
        Ok(info)
    }

    fn recv(&mut self) -> Result<Option<(Msg, FrameInfo)>> {
        let Some(frame) = self.inbox.pop_front() else {
            return Ok(None);
        };
        let msg = span(&self.tally, "wire.decode", || wire::decode_frame(&frame))?;
        let mut tally = self.tally();
        tally.frames_up += 1;
        tally.bytes_up += frame.len();
        if tally.in_rounds {
            tally.round_bytes += frame.len();
        }
        let info = FrameInfo {
            frame_bytes: frame.len(),
            stat_bytes: wire::stat_bytes(&msg),
        };
        Ok(Some((msg, info)))
    }
}

/// One run of the protocol and what the connections saw.
struct Drive {
    model: FederatedModel,
    tally: Tally,
    wall_s: f64,
}

fn drive(input: &Input, trace: Trace) -> Result<Drive> {
    let tally = Arc::new(Mutex::new(Tally {
        trace,
        ..Tally::default()
    }));
    let conns = input
        .clients
        .iter()
        .enumerate()
        .map(|(i, c)| BenchConn::connect(i as u32, &c.data, Arc::clone(&tally)))
        .collect();
    let server = FederatedServer::new(
        Algo::KrFkm {
            hs: vec![input.shape.h; 2],
            aggregator: Aggregator::Sum,
        },
        input.shape.rounds,
        input.seed,
    );
    let (model, wall_s) = timed(|| server.drive(conns, &ExecCtx::serial()));
    let tally = Arc::try_unwrap(tally)
        .expect("drive dropped every connection")
        .into_inner()
        .expect("no connection panicked");
    Ok(Drive {
        model: model?,
        tally,
        wall_s,
    })
}

impl Drive {
    fn round_ms(&self) -> Vec<f64> {
        self.tally
            .round_starts
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }

    fn check(&self, input: &Input, checks: &mut Checks) {
        let rounds = input.shape.rounds;
        let h = &self.model.history;
        checks.expect(h.len() == rounds && self.round_ms().len() == rounds, || {
            format!(
                "federated_rounds: {} rounds recorded, {rounds} run",
                h.len()
            )
        });
        checks.expect(
            h.iter()
                .all(|r| r.reporters == input.shape.clients && r.failures.is_empty()),
            || "federated_rounds: a round lost a reporter".into(),
        );
        let w = &self.model.wire;
        let t = &self.tally;
        checks.expect(
            (
                w.frames_down,
                w.frames_up,
                w.frame_bytes_down,
                w.frame_bytes_up,
            ) == (t.frames_down, t.frames_up, t.bytes_down, t.bytes_up)
                && w.frames_stale == 0,
            || {
                format!(
                    "federated_rounds: server counted {w:?}, connections {} frames down, {} up, \
                     {} bytes down, {} up",
                    t.frames_down, t.frames_up, t.bytes_down, t.bytes_up
                )
            },
        );
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.floats(self.model.centroids.as_slice());
        for r in &self.model.history {
            d.word(r.inertia.to_bits());
        }
        d.value()
    }
}

/// Untraced samples of the federated job.
#[derive(Debug)]
pub struct Samples {
    /// Milliseconds per round, one unit per round of each instance: a
    /// run of the protocol on an instance repeats every round's work.
    pub round_ms_best: Fastest,
    /// Milliseconds per round, over every run of the protocol.
    pub round_ms: Vec<f64>,
    /// Frame bytes (both directions) per accounted round.
    pub bytes_per_round: f64,
    /// Highest heap peak of a run of the protocol above the level it
    /// started from.
    pub peak_heap: usize,
    /// The final model scored on the pooled data, per point, averaged
    /// over the instances.
    pub inertia_per_point: f64,
    /// Centroid bits and per-round inertia bits of every instance.
    pub digest: u64,
}

/// The untraced job: one run of the protocol on each instance in turn.
pub struct Run<'a> {
    inputs: &'a [Input],
    rep: usize,
    out: Samples,
    firsts: Firsts<u64>,
    round_bytes: usize,
    rounds: usize,
}

impl<'a> Run<'a> {
    /// A run over `inputs`.
    pub fn new(inputs: &'a [Input]) -> Self {
        let rounds = inputs[0].shape.rounds;
        Run {
            inputs,
            rep: 0,
            out: Samples {
                round_ms_best: Fastest::new(inputs.len() * rounds),
                round_ms: Vec::new(),
                bytes_per_round: f64::NAN,
                peak_heap: 0,
                inertia_per_point: f64::NAN,
                digest: 0,
            },
            firsts: Firsts::new("federated_rounds", inputs.len()),
            round_bytes: 0,
            rounds: 0,
        }
    }

    /// Runs the protocol on the next instance, checking the run.
    pub fn step(&mut self, checks: &mut Checks) {
        let i = self.rep % self.inputs.len();
        self.rep += 1;
        let input = &self.inputs[i];
        let (run, _, heap) = kr_bench::measure(|| drive(input, Trace::off()));
        let Ok(run) = run else {
            checks.fail("federated_rounds: the protocol returned an error");
            return;
        };
        self.out.peak_heap = self.out.peak_heap.max(heap);
        run.check(input, checks);
        let round_ms = run.round_ms();
        let rounds = input.shape.rounds;
        for (r, &ms) in round_ms.iter().enumerate().take(rounds) {
            self.out.round_ms_best.record(i * rounds + r, ms);
        }
        self.out.round_ms.extend(round_ms);
        self.round_bytes += run.tally.round_bytes;
        self.rounds += input.shape.rounds;
        let quality =
            || kr_metrics::inertia(&input.data, &run.model.centroids) / input.shape.n as f64;
        self.firsts
            .record(i, run.digest(), || run.digest(), quality, checks);
    }

    /// The samples, with bytes per round, quality and digest over every
    /// instance.
    pub fn finish(mut self) -> Samples {
        self.out.bytes_per_round = self.round_bytes as f64 / self.rounds as f64;
        self.out.inertia_per_point = self.firsts.quality();
        self.out.digest = self.firsts.digest();
        self.out
    }
}

/// Wall times and per-layer results of the traced federated run.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall seconds of the traced runs.
    pub traced_s: f64,
    /// Wall seconds of the same runs untraced.
    pub untraced_s: f64,
    /// Milliseconds per round of the untraced runs.
    pub round_ms: Vec<f64>,
    /// As in [`Samples::digest`].
    pub digest: u64,
}

/// Runs of the protocol in a traced run: ten make the 1000 rounds a
/// p99 needs.
const TRACED_RUNS: usize = 10;

/// Runs the protocol untraced and traced on the first instances,
/// charging the wire codec and the clients' work during the rounds to
/// their layers in `tr`; the untraced runs give the round tail.
pub fn replay(inputs: &[Input], tr: &mut Trace, checks: &mut Checks) -> Replay {
    let mut out = Replay::default();
    let mut digest = Digest::default();
    for input in inputs.iter().cycle().take(TRACED_RUNS) {
        let plain = drive(input, Trace::off());
        let traced = drive(input, Trace::on());
        let (Ok(plain), Ok(traced)) = (plain, traced) else {
            checks.fail("federated_rounds: the protocol returned an error");
            continue;
        };
        traced.check(input, checks);
        checks.expect(plain.digest() == traced.digest(), || {
            "federated_rounds: tracing changed the output".into()
        });
        out.untraced_s += plain.wall_s;
        out.traced_s += traced.wall_s;
        out.round_ms.extend(plain.round_ms());
        digest.word(traced.digest());
        let t = &traced.tally;
        let layers = ["wire.encode", "wire.decode", "client.handle"];
        let busy: f64 = layers.iter().map(|l| t.trace.busy(l)).sum();
        for l in layers {
            tr.add_busy(l, t.trace.busy(l));
        }
        let rounds_s: f64 = traced.round_ms().iter().sum::<f64>() / 1e3;
        tr.add_busy("server", rounds_s - busy);
        tr.count("wire.frames_up", t.frames_up as f64);
        tr.count("wire.frames_down", t.frames_down as f64);
        tr.count("wire.bytes_up", t.bytes_up as f64);
        tr.count("wire.bytes_down", t.bytes_down as f64);
        tr.count("client.dists_computed", t.dists as f64);
    }
    out.digest = digest.value();
    out
}

//! The federated client: a shard plus the message handler that answers
//! the server's protocol.
//!
//! [`ShardClient`] is transport-agnostic: [`ShardClient::handle`] maps
//! one received [`Msg`] to at most one reply, and
//! [`ShardClient::serve`] loops that handler over any
//! [`Connection`] until the server sends
//! a final [`RoundAck`](crate::protocol::RoundAck) (or closes the
//! stream). The in-process local transport calls `handle` synchronously;
//! the TCP transport runs `serve` on the remote side.
//!
//! All shard computation happens here — each round's nearest-centroid
//! statistics on the client's own [`ExecCtx`], and the D² seeding state
//! for the bootstrap phase. The raw shard never leaves the client except
//! for individual rows the server selects as seeds (exactly the
//! information the centralized k-means++ initialization uses).
//!
//! A shard never changes and the grid moves little between rounds, so
//! the client keeps Hamerly bounds from one answered broadcast to the
//! next ([`ResidentBounds`], 8 bytes per row, allocated when the first
//! broadcast frees the D² vector) together with the broadcast summary
//! they describe. Each broadcast decays the bounds by the largest drift
//! between that snapshot's centroids and the new grid, whatever the
//! number of rounds in between, so a client re-admitted after missed
//! rounds needs nothing special; a summary of another shape or
//! aggregator rescans every row. On a finite shard (the server admits
//! no other) every reply equals
//! [`compute_local_stats`](crate::protocol::compute_local_stats), the
//! exhaustive reference, bitwise.

use crate::protocol::{fold_stats, Broadcast, Join, Msg, Summary};
use crate::transport::Connection;
use kr_core::assign::{max_drift, ResidentBounds};
use kr_core::operator::{aggregate_tuple_into, CentroidIndexer};
use kr_core::{CoreError, Result};
use kr_linalg::{ops, ExecCtx, Matrix};

/// What [`ShardClient::handle`] decided about one incoming message.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Send this reply and keep serving.
    Reply(Msg),
    /// No reply needed; keep serving.
    Continue,
    /// The server ended the protocol; stop serving.
    Done,
}

/// The most centroids a broadcast may expand to: labels are `u32`.
const MAX_GRID: u64 = 1 << 32;

/// One federated participant: a borrowed data shard, its execution
/// context, the bootstrap-phase D² state, and the round bounds.
#[derive(Debug)]
pub struct ShardClient<'a> {
    id: u32,
    data: &'a Matrix,
    exec: ExecCtx,
    d2: Vec<f64>,
    /// Per-row labels and bounds, from the first answered broadcast on.
    bounds: Option<ResidentBounds>,
    /// The summary the bounds were last assigned against.
    snapshot: Option<Summary>,
}

impl<'a> ShardClient<'a> {
    /// Creates a client over a shard. `id` must be unique per run; the
    /// server merges contributions in ascending id order.
    pub fn new(id: u32, data: &'a Matrix, exec: ExecCtx) -> Self {
        ShardClient {
            id,
            data,
            exec,
            d2: Vec::new(),
            bounds: None,
            snapshot: None,
        }
    }

    /// The registration message this client opens with.
    pub fn join(&self) -> Msg {
        Msg::Join(Join {
            client_id: self.id,
            nrows: self.data.nrows() as u64,
            ncols: self.data.ncols() as u64,
            finite: self.data.all_finite(),
        })
    }

    /// Handles one server message, returning the reply (if any).
    /// Messages a server never sends to a client are protocol errors.
    pub fn handle(&mut self, msg: &Msg) -> Result<Step> {
        match msg {
            Msg::FetchPoint { index } => {
                let i = *index as usize;
                if i >= self.data.nrows() {
                    return Err(CoreError::Transport(format!(
                        "server fetched point {i} of a {}-row shard",
                        self.data.nrows()
                    )));
                }
                Ok(Step::Reply(Msg::Point {
                    row: self.data.row(i).to_vec(),
                }))
            }
            Msg::SeedInit { row } => {
                self.d2 = self.data.rows_iter().map(|x| ops::sqdist(x, row)).collect();
                Ok(Step::Reply(Msg::SeedMass { mass: self.mass() }))
            }
            Msg::SeedUpdate { row } => {
                for (x, d) in self.data.rows_iter().zip(self.d2.iter_mut()) {
                    let nd = ops::sqdist(x, row);
                    if nd < *d {
                        *d = nd;
                    }
                }
                Ok(Step::Reply(Msg::SeedMass { mass: self.mass() }))
            }
            Msg::SeedSelect { target } => {
                let mut t = *target;
                for (pi, &w) in self.d2.iter().enumerate() {
                    if t < w {
                        return Ok(Step::Reply(Msg::SeedPick {
                            row: self.data.row(pi).to_vec(),
                            found: true,
                        }));
                    }
                    t -= w;
                }
                // Rounding pushed the target past the last point; let
                // the server fall back.
                Ok(Step::Reply(Msg::SeedPick {
                    row: Vec::new(),
                    found: false,
                }))
            }
            Msg::MeanQuery => {
                let mut sum = vec![0.0f64; self.data.ncols()];
                for x in self.data.rows_iter() {
                    ops::add_assign(&mut sum, x);
                }
                Ok(Step::Reply(Msg::MeanStats {
                    sum,
                    count: self.data.nrows() as u64,
                }))
            }
            Msg::Broadcast(b) => Ok(Step::Reply(self.answer_broadcast(b)?)),
            Msg::RoundAck(a) => Ok(if a.done {
                Step::Done
            } else if let Some(b) = &a.next {
                // Pipelined round: the ack carries the next broadcast;
                // answer it exactly like a standalone one.
                Step::Reply(self.answer_broadcast(b)?)
            } else {
                Step::Continue
            }),
            other => Err(CoreError::Transport(format!(
                "client received a client-side message: {other:?}"
            ))),
        }
    }

    /// Serves the protocol over a connection until the server finishes
    /// (final [`RoundAck`](crate::protocol::RoundAck)) or cleanly closes
    /// the stream.
    pub fn serve<C: Connection>(mut self, conn: &mut C) -> Result<()> {
        conn.send(&self.join())?;
        loop {
            let msg = match conn.recv()? {
                Some((msg, _)) => msg,
                // Clean close at a frame boundary: the server is gone.
                None => return Ok(()),
            };
            match self.handle(&msg)? {
                Step::Reply(reply) => {
                    conn.send(&reply)?;
                }
                Step::Continue => {}
                Step::Done => return Ok(()),
            }
        }
    }

    /// One round's reply to a (standalone or pipelined) broadcast.
    /// A mask-carrying broadcast is answered with [`Msg::MaskedStats`]:
    /// the same statistics, serialized to words and pairwise-masked
    /// under the broadcast's [`MaskSpec`](crate::protocol::MaskSpec).
    ///
    /// Rounds start only after the bootstrap, so the first broadcast
    /// releases the D² state: a late `SeedSelect` then walks an empty
    /// vector and answers `found: false`, which the server falls back
    /// from.
    ///
    /// A summary with a non-finite entry, one that expands to no
    /// centroid or to more than 2^32, or to another width than a
    /// non-empty shard's (the server registers empty shards of any
    /// width), is a protocol error, raised before the bounds or the
    /// snapshot change.
    fn answer_broadcast(&mut self, b: &Broadcast) -> Result<Msg> {
        let _span = kr_obs::span!("fed.client", "round" => b.round);
        self.d2 = Vec::new();
        if !b.summary.all_finite() {
            return Err(CoreError::Transport(
                "broadcast summary holds a non-finite value".into(),
            ));
        }
        let size = b.summary.grid_size();
        if size as u64 > MAX_GRID {
            return Err(CoreError::Transport(format!(
                "broadcast grid of {size} centroids exceeds 2^32"
            )));
        }
        let centroids = b
            .summary
            .materialize()
            .map_err(|e| CoreError::Transport(format!("malformed broadcast: {e}")))?;
        let (k, m) = centroids.shape();
        if k == 0 || (self.data.nrows() > 0 && m != self.data.ncols()) {
            return Err(CoreError::Transport(format!(
                "broadcast grid is {k}x{m} for a {}-column shard",
                self.data.ncols()
            )));
        }
        let drift = self
            .snapshot
            .take()
            .and_then(|old| drift_since(&old, &b.summary, &centroids));
        let data = self.data;
        let bounds = self.bounds.get_or_insert_with(|| ResidentBounds::new(data));
        let pass = bounds.assign(data, &centroids, drift, &self.exec);
        kr_obs::counter!("client.dists_computed", pass.dists_computed, "k" => k);
        kr_obs::counter!("client.dists_skipped", pass.dists_skipped, "k" => k);
        self.snapshot = Some(b.summary.clone());
        let stats = fold_stats(data, &b.summary, (k, m), b.round, |i| {
            let c = bounds.label(i);
            (c, ops::sqdist(data.row(i), centroids.row(c)))
        });
        Ok(match &b.mask {
            None => Msg::LocalStats(stats),
            Some(spec) => Msg::MaskedStats(crate::mask::mask_stats(&stats, spec, self.id)),
        })
    }

    fn mass(&self) -> f64 {
        self.d2.iter().sum()
    }
}

/// The drift bound between the grid `old` expanded to and `grid`, the
/// expansion of `new`; `None` when the two summaries do not lay out the
/// same centroids (another kind, aggregator or set shape). Each old
/// centroid is re-aggregated from the old sets with
/// [`aggregate_tuple_into`], the bits `khatri_rao` wrote.
fn drift_since(old: &Summary, new: &Summary, grid: &Matrix) -> Option<f64> {
    match (old, new) {
        (Summary::Centroids(prev), Summary::Centroids(_)) if prev.shape() == grid.shape() => {
            Some(max_drift(grid, |c, out| out.copy_from_slice(prev.row(c))))
        }
        (
            Summary::ProtoSets {
                aggregator,
                sets: prev,
            },
            Summary::ProtoSets {
                aggregator: next_agg,
                sets,
            },
        ) if aggregator == next_agg
            && prev.len() == sets.len()
            && prev.iter().zip(sets).all(|(a, b)| a.shape() == b.shape()) =>
        {
            let ix = CentroidIndexer::new(prev.iter().map(Matrix::nrows).collect());
            let mut tuple = vec![0usize; prev.len()];
            Some(max_drift(grid, |c, out| {
                ix.to_tuple_into(c, &mut tuple);
                aggregate_tuple_into(out, prev, &tuple, *aggregator);
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kr_core::aggregator::Aggregator;

    fn shard() -> Matrix {
        Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]]).unwrap()
    }

    #[test]
    fn seeding_walk_matches_reference() {
        let data = shard();
        let mut c = ShardClient::new(0, &data, ExecCtx::serial());
        let Step::Reply(Msg::SeedMass { mass }) = c
            .handle(&Msg::SeedInit {
                row: vec![0.0, 0.0],
            })
            .unwrap()
        else {
            panic!("expected mass");
        };
        assert_eq!(mass, 25.0 + 100.0);
        // target 30 lands on the last point (25 <= 30 < 125).
        let Step::Reply(Msg::SeedPick { row, found }) =
            c.handle(&Msg::SeedSelect { target: 30.0 }).unwrap()
        else {
            panic!("expected pick");
        };
        assert!(found);
        assert_eq!(row, vec![6.0, 8.0]);
        // A target past the total mass walks off the end.
        let Step::Reply(Msg::SeedPick { found, .. }) =
            c.handle(&Msg::SeedSelect { target: 999.0 }).unwrap()
        else {
            panic!("expected pick");
        };
        assert!(!found);
    }

    #[test]
    fn first_broadcast_releases_the_seeding_state() {
        let data = shard();
        let mut c = ShardClient::new(0, &data, ExecCtx::serial());
        c.handle(&Msg::SeedInit {
            row: vec![0.0, 0.0],
        })
        .unwrap();
        assert!(c.d2.capacity() > 0);
        c.handle(&Msg::Broadcast(Broadcast {
            round: 0,
            eval_only: false,
            mask: None,
            summary: Summary::Centroids(Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap()),
        }))
        .unwrap();
        assert_eq!(c.d2.capacity(), 0);
        let Step::Reply(Msg::SeedPick { found, .. }) =
            c.handle(&Msg::SeedSelect { target: 0.0 }).unwrap()
        else {
            panic!("expected pick");
        };
        assert!(!found);
    }

    #[test]
    fn broadcast_yields_stats_and_ack_finishes() {
        let data = shard();
        let mut c = ShardClient::new(1, &data, ExecCtx::serial());
        let step = c
            .handle(&Msg::Broadcast(Broadcast {
                round: 0,
                eval_only: false,
                mask: None,
                summary: Summary::Centroids(
                    Matrix::from_rows(&[vec![0.0, 0.0], vec![6.0, 8.0]]).unwrap(),
                ),
            }))
            .unwrap();
        let Step::Reply(Msg::LocalStats(stats)) = step else {
            panic!("expected stats");
        };
        assert_eq!(stats.stats.counts, vec![2, 1]);
        assert_eq!(stats.inertia, 25.0); // (3,4) is 25 from both centroids
        assert_eq!(
            c.handle(&Msg::RoundAck(crate::protocol::RoundAck {
                round: 0,
                done: false,
                next: None
            }))
            .unwrap(),
            Step::Continue
        );
        assert_eq!(
            c.handle(&Msg::RoundAck(crate::protocol::RoundAck {
                round: 1,
                done: true,
                next: None
            }))
            .unwrap(),
            Step::Done
        );
    }

    #[test]
    fn pipelined_ack_answers_like_a_standalone_broadcast() {
        let data = shard();
        let broadcast = Broadcast {
            round: 3,
            eval_only: false,
            mask: None,
            summary: Summary::Centroids(
                Matrix::from_rows(&[vec![0.0, 0.0], vec![6.0, 8.0]]).unwrap(),
            ),
        };
        let mut a = ShardClient::new(1, &data, ExecCtx::serial());
        let standalone = a.handle(&Msg::Broadcast(broadcast.clone())).unwrap();
        let mut b = ShardClient::new(1, &data, ExecCtx::serial());
        let pipelined = b
            .handle(&Msg::RoundAck(crate::protocol::RoundAck {
                round: 2,
                done: false,
                next: Some(broadcast),
            }))
            .unwrap();
        assert_eq!(standalone, pipelined);
        // A done ack never carries (nor answers) a broadcast.
        assert_eq!(
            b.handle(&Msg::RoundAck(crate::protocol::RoundAck {
                round: 3,
                done: true,
                next: None
            }))
            .unwrap(),
            Step::Done
        );
    }

    #[test]
    fn masked_broadcast_answers_with_recoverable_masked_stats() {
        let data = shard();
        let summary =
            Summary::Centroids(Matrix::from_rows(&[vec![0.0, 0.0], vec![6.0, 8.0]]).unwrap());
        let spec = crate::protocol::MaskSpec {
            seed: 42,
            members: vec![0, 1, 4],
        };
        let mut plain_client = ShardClient::new(1, &data, ExecCtx::serial());
        let Step::Reply(Msg::LocalStats(plain)) = plain_client
            .handle(&Msg::Broadcast(Broadcast {
                round: 2,
                eval_only: false,
                mask: None,
                summary: summary.clone(),
            }))
            .unwrap()
        else {
            panic!("expected plaintext stats");
        };
        let mut masked_client = ShardClient::new(1, &data, ExecCtx::serial());
        let Step::Reply(Msg::MaskedStats(masked)) = masked_client
            .handle(&Msg::Broadcast(Broadcast {
                round: 2,
                eval_only: false,
                mask: Some(spec.clone()),
                summary,
            }))
            .unwrap()
        else {
            panic!("expected masked stats");
        };
        // The server-side unmask recovers the plaintext reply bitwise.
        let back = crate::mask::unmask_stats(&masked, &spec, 1).unwrap();
        assert_eq!(back, plain);
    }

    /// Broadcasts that decode cleanly but do not expand to a usable grid
    /// are protocol errors, not panics or truncated statistics.
    #[test]
    fn malformed_broadcasts_are_rejected() {
        let data = shard();
        let grid = |h: usize, m: usize| Matrix::from_fn(h, m, |i, j| (i + 2 * j) as f64);
        let proto = |sets: Vec<Matrix>| Summary::ProtoSets {
            aggregator: Aggregator::Sum,
            sets,
        };
        let poisoned = |v: f64| {
            let mut set = grid(2, 2);
            set.set(0, 1, v);
            set
        };
        let summaries = [
            Summary::Centroids(Matrix::zeros(0, 2)),
            proto(Vec::new()),
            proto(vec![grid(2, 2), grid(2, 3)]),
            proto(vec![grid(2, 2), Matrix::zeros(0, 2)]),
            Summary::Centroids(grid(3, 5)),
            proto(vec![grid(3, 2); 41]),
            // Non-finite parameters, refused before any assignment.
            proto(vec![poisoned(f64::NAN), poisoned(f64::NAN)]),
            proto(vec![poisoned(f64::INFINITY), poisoned(f64::NEG_INFINITY)]),
            Summary::Centroids(
                Matrix::from_rows(&[vec![f64::NAN, f64::NAN], vec![f64::NAN, 0.0]]).unwrap(),
            ),
            // 2^33 centroids, past the u32 labels: refused from the set
            // sizes alone.
            proto(vec![Matrix::zeros(2048, 1); 3]),
        ];
        for summary in summaries {
            let (frame, _) = crate::wire::encode(&Msg::Broadcast(Broadcast {
                round: 0,
                eval_only: false,
                mask: None,
                summary: summary.clone(),
            }));
            let msg = crate::wire::decode_frame(&frame).expect("a well-formed frame");
            let mut c = ShardClient::new(0, &data, ExecCtx::serial());
            assert!(
                matches!(c.handle(&msg), Err(CoreError::Transport(_))),
                "{summary:?}"
            );
        }
    }

    /// A summary moved by `scale·r` per parameter (Sum and centroid
    /// entries), or by the factor `1 + scale·r` (Product entries, which
    /// stay positive for `scale < 1`), with `r` uniform in `[-1, 1)`.
    fn nudge(s: &Summary, scale: f64, seed: u64) -> Summary {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut step = |m: &Matrix, product: bool| {
            Matrix::from_fn(m.nrows(), m.ncols(), |i, j| {
                let r = rng.gen_range(-1.0..1.0) * scale;
                let v = m.get(i, j);
                if product {
                    v * (1.0 + r)
                } else {
                    v + r
                }
            })
        };
        match s {
            Summary::Centroids(c) => Summary::Centroids(step(c, false)),
            Summary::ProtoSets { aggregator, sets } => Summary::ProtoSets {
                aggregator: *aggregator,
                sets: sets
                    .iter()
                    .map(|m| step(m, *aggregator == Aggregator::Product))
                    .collect(),
            },
        }
    }

    /// `h` rows of `data`, evenly spaced.
    fn rows_of(data: &Matrix, h: usize) -> Matrix {
        let idx: Vec<usize> = (0..h).map(|i| i * data.nrows() / h).collect();
        data.select_rows(&idx)
    }

    /// A two-set summary: `h1` data rows aggregated with `h2` small
    /// deviations (Sum) or factors near 1 (Product).
    fn kr(data: &Matrix, agg: Aggregator, h1: usize, h2: usize) -> Summary {
        let base = if agg == Aggregator::Product { 1.0 } else { 0.0 };
        let second = nudge(
            &Summary::Centroids(Matrix::from_fn(h2, data.ncols(), |_, _| base)),
            0.4,
            h1 as u64 * 31 + h2 as u64,
        );
        let Summary::Centroids(second) = second else {
            unreachable!()
        };
        Summary::ProtoSets {
            aggregator: agg,
            sets: vec![rows_of(data, h1), second],
        }
    }

    /// Small drift for eight rounds, zero drift twice, a jump that
    /// invalidates most bounds, then three broadcasts the client skips
    /// (`None`) before it is re-admitted.
    fn run_of(start: Summary, seed: u64) -> Vec<Option<Summary>> {
        let jump = match &start {
            Summary::ProtoSets {
                aggregator: Aggregator::Product,
                ..
            } => 0.5,
            _ => 3.0,
        };
        let mut out = Vec::new();
        let mut s = start;
        for step in 0..8 {
            out.push(Some(s.clone()));
            s = nudge(&s, 1e-3, seed + step);
        }
        out.push(Some(s.clone()));
        out.push(Some(s.clone()));
        s = nudge(&s, jump, seed + 100);
        out.push(Some(s.clone()));
        for step in 0..3 {
            out.push(None);
            s = nudge(&s, 1e-2, seed + 200 + step);
        }
        out.push(Some(s));
        out
    }

    /// Drives one client through `script` (a `None` is a broadcast it
    /// misses) and asserts each reply equals the exhaustive
    /// `compute_local_stats` on the same shard and grid bitwise.
    /// Returns the number of broadcasts answered.
    fn assert_replies_match_scan(
        data: &Matrix,
        script: &[Option<Summary>],
        exec: &ExecCtx,
        what: &str,
    ) -> usize {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut client = ShardClient::new(3, data, exec.clone());
        let mut answered = 0;
        for (round, summary) in script.iter().enumerate() {
            let Some(summary) = summary else { continue };
            let round = round as u32;
            let step = client
                .handle(&Msg::Broadcast(Broadcast {
                    round,
                    eval_only: false,
                    mask: None,
                    summary: summary.clone(),
                }))
                .unwrap();
            let Step::Reply(Msg::LocalStats(got)) = step else {
                panic!("{what}: expected stats in round {round}");
            };
            let want =
                crate::protocol::compute_local_stats(data, summary, round, &ExecCtx::serial())
                    .unwrap();
            let ctx = format!("{what}, round {round}");
            assert_eq!(got.round, round, "{ctx}");
            assert_eq!(got.stats.counts, want.stats.counts, "{ctx}: counts");
            assert_eq!(bits(&got.stats.sums), bits(&want.stats.sums), "{ctx}: sums");
            assert_eq!(
                got.inertia.to_bits(),
                want.inertia.to_bits(),
                "{ctx}: inertia"
            );
            answered += 1;
        }
        answered
    }

    /// The resident bounds never change a reply: over every kind of
    /// summary and drift, at 1, 2 and 8 pool workers (and, through the
    /// CI legs, in both kernel modes, with pruning off and with obs on),
    /// each reply equals the exhaustive scan bitwise.
    #[test]
    fn exec_determinism_client_bounds_match_scan() {
        use kr_core::aggregator::Aggregator::{Product, Sum};
        let blobs = kr_datasets::synthetic::blobs(300, 4, 9, 0.6, 5).data;
        // Positive coordinates keep Product grids on the data's side.
        let data = Matrix::from_fn(300, 4, |i, j| blobs.get(i, j) + 10.0);
        let shifted = Matrix::from_fn(300, 4, |i, j| blobs.get(i, j) + 1e6);
        let empty = Matrix::zeros(0, 4);

        let mut main = Vec::new();
        main.extend(run_of(Summary::Centroids(rows_of(&data, 9)), 1));
        main.extend(run_of(kr(&data, Sum, 10, 10), 2));
        main.extend(run_of(kr(&data, Product, 3, 3), 3));
        // Shape and aggregator changes that keep k = 100, so only the
        // layout tells the bounds apart.
        main.push(Some(kr(&data, Product, 10, 10)));
        main.push(Some(kr(&data, Sum, 5, 20)));
        main.push(Some(kr(&data, Sum, 10, 10)));
        main.push(Some(Summary::Centroids(rows_of(&data, 100))));
        // Ties: duplicate centroids and duplicate protocentroids.
        let mut dup = rows_of(&data, 6);
        for i in 0..3 {
            let row = dup.row(i).to_vec();
            dup.row_mut(i + 3).copy_from_slice(&row);
        }
        main.extend(run_of(Summary::Centroids(dup.clone()), 4));
        main.push(Some(Summary::ProtoSets {
            aggregator: Sum,
            sets: vec![dup, Matrix::zeros(2, 4)],
        }));
        // k = 1.
        main.extend(run_of(Summary::Centroids(rows_of(&data, 1)), 5));

        let mut far = run_of(Summary::Centroids(rows_of(&shifted, 9)), 6);
        far.extend(run_of(kr(&shifted, Sum, 10, 10), 7));
        let none = run_of(kr(&data, Sum, 10, 10), 8);

        for workers in [1usize, 2, 8] {
            let exec = ExecCtx::threaded(workers + 1)
                .with_pool(std::sync::Arc::new(kr_linalg::ThreadPool::new(workers)));
            let what = format!("workers={workers}");
            let answered = assert_replies_match_scan(&data, &main, &exec, &what)
                + assert_replies_match_scan(&shifted, &far, &exec, &format!("{what}, +1e6"))
                + assert_replies_match_scan(&empty, &none, &exec, &format!("{what}, empty"));
            assert!(answered >= 60, "{answered} broadcasts");
        }
    }

    #[test]
    fn rejects_client_side_messages() {
        let data = shard();
        let mut c = ShardClient::new(2, &data, ExecCtx::serial());
        assert!(c.handle(&Msg::SeedMass { mass: 1.0 }).is_err());
    }
}

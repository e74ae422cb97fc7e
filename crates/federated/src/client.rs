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
//! All shard computation happens here — nearest-centroid statistics via
//! [`crate::protocol::compute_local_stats`] on the client's own
//! [`ExecCtx`], and the D² seeding state for the bootstrap phase. The
//! raw shard never leaves the client except for individual rows the
//! server selects as seeds (exactly the information the centralized
//! k-means++ initialization uses).

use crate::protocol::{compute_local_stats, Join, Msg};
use crate::transport::Connection;
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

/// One federated participant: a borrowed data shard, its execution
/// context, and the bootstrap-phase D² state.
#[derive(Debug)]
pub struct ShardClient<'a> {
    id: u32,
    data: &'a Matrix,
    exec: ExecCtx,
    d2: Vec<f64>,
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
    /// A summary that expands to no centroid, or to another width than a
    /// non-empty shard's (the server registers empty shards of any
    /// width), is a protocol error.
    fn answer_broadcast(&mut self, b: &crate::protocol::Broadcast) -> Result<Msg> {
        self.d2 = Vec::new();
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
        let stats = compute_local_stats(self.data, &centroids, b.round, &self.exec);
        Ok(match &b.mask {
            None => Msg::LocalStats(stats),
            Some(spec) => Msg::MaskedStats(crate::mask::mask_stats(&stats, spec, self.id)),
        })
    }

    fn mass(&self) -> f64 {
        self.d2.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Broadcast, Summary};

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
        use kr_core::aggregator::Aggregator;
        let data = shard();
        let grid = |h: usize, m: usize| Matrix::from_fn(h, m, |i, j| (i + 2 * j) as f64);
        let proto = |sets: Vec<Matrix>| Summary::ProtoSets {
            aggregator: Aggregator::Sum,
            sets,
        };
        let summaries = [
            Summary::Centroids(Matrix::zeros(0, 2)),
            proto(Vec::new()),
            proto(vec![grid(2, 2), grid(2, 3)]),
            proto(vec![grid(2, 2), Matrix::zeros(0, 2)]),
            Summary::Centroids(grid(3, 5)),
            proto(vec![grid(3, 2); 41]),
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

    #[test]
    fn rejects_client_side_messages() {
        let data = shard();
        let mut c = ShardClient::new(2, &data, ExecCtx::serial());
        assert!(c.handle(&Msg::SeedMass { mass: 1.0 }).is_err());
    }
}

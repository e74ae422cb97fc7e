//! Typed protocol messages and the pure per-round state machines.
//!
//! The protocol has three phases, all expressed as [`Msg`] values so
//! that any [`Transport`](crate::transport) can carry them:
//!
//! 1. **Registration** — each client sends [`Join`] (shard shape and a
//!    finiteness attestation; raw data never travels).
//! 2. **Bootstrap** (uncounted, identical bookkeeping for both
//!    algorithms) — D²-weighted seeding across shards: clients keep a
//!    local vector of squared distances to the chosen seeds
//!    ([`Msg::SeedInit`] / [`Msg::SeedUpdate`]), report its mass
//!    ([`Msg::SeedMass`]), and resolve the server's proportional draw to
//!    a concrete point ([`Msg::SeedSelect`] → [`Msg::SeedPick`]). The
//!    KR-FkM deviation anchoring additionally aggregates a global mean
//!    from per-client partials ([`Msg::MeanQuery`] →
//!    [`Msg::MeanStats`]).
//! 3. **Rounds** — the server broadcasts the model summary
//!    ([`Broadcast`]: `k·m` floats for FkM, `(Σ h_l)·m` for KR-FkM —
//!    the downlink cost of Figure 10), each client replies with
//!    sufficient statistics and its partial inertia ([`LocalStats`]:
//!    `k·m` cell sums and `k` counts, or `(Σ h_l)·m` marginal sums and
//!    `k` counts under a Sum broadcast), and the server closes the round
//!    with [`RoundAck`]. The final ack carries `done = true` and shuts
//!    the client down.
//!
//! The *state machines* are pure: [`Summary::apply_stats`] turns
//! aggregated statistics into the next summary (exact mean update for
//! FkM, the Proposition 6.1 closed forms for KR-FkM), and
//! [`compute_local_stats`] turns a received summary into a client's
//! reply with the exhaustive scan — the reference the bounds-gated
//! [`ShardClient`](crate::client::ShardClient) equals bitwise, and the
//! evaluation scorer. Neither touches a socket, which is what makes the
//! in-process and loopback-TCP runs bitwise identical.

use kr_core::aggregator::Aggregator;
use kr_core::kmeans::{mean_update, nearest_centroid};
use kr_core::kr_kmeans::{marginal_sums, prop61_update_from_marginals, prop61_update_from_stats};
use kr_core::operator::khatri_rao;
use kr_core::stats::SuffStats;
use kr_core::Result;
use kr_linalg::{ops, parallel, ExecCtx, Matrix};

/// Client registration: shard shape plus a finiteness attestation.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Caller-assigned client index; the server merges contributions in
    /// ascending `client_id` order, which keeps runs deterministic no
    /// matter the order connections arrive in.
    pub client_id: u32,
    /// Rows in the client's shard.
    pub nrows: u64,
    /// Columns in the client's shard (0 is allowed for empty shards).
    pub ncols: u64,
    /// Whether every shard entry is finite.
    pub finite: bool,
}

/// The model summary a server broadcasts each round.
#[derive(Debug, Clone, PartialEq)]
pub enum Summary {
    /// FkM: the full `k x m` centroid matrix.
    Centroids(Matrix),
    /// KR-FkM: the protocentroid sets; clients expand the grid locally,
    /// which is exactly why the downlink shrinks.
    ProtoSets {
        /// Elementwise aggregator combining the sets.
        aggregator: Aggregator,
        /// The `p` protocentroid sets (`h_l x m` each).
        sets: Vec<Matrix>,
    },
}

impl Summary {
    /// Materializes the centroid grid a client assigns against, or fails
    /// on sets that do not form one (none, an empty set, unequal widths).
    pub fn materialize(&self) -> Result<Matrix> {
        match self {
            Summary::Centroids(c) => Ok(c.clone()),
            Summary::ProtoSets { aggregator, sets } => khatri_rao(sets, *aggregator),
        }
    }

    /// Number of `f64` summary parameters on the wire: `k·m` for
    /// centroids, `(Σ h_l)·m` for protocentroid sets — the closed-form
    /// downlink accounting of Figure 10.
    pub fn param_f64s(&self) -> usize {
        match self {
            Summary::Centroids(c) => c.len(),
            Summary::ProtoSets { sets, .. } => sets.iter().map(|s| s.len()).sum(),
        }
    }

    /// Number of centroids the summary expands to, saturating at
    /// `usize::MAX` (sets off the wire can multiply past it).
    pub fn grid_size(&self) -> usize {
        match self {
            Summary::Centroids(c) => c.nrows(),
            Summary::ProtoSets { sets, .. } => {
                sets.iter().fold(1usize, |k, s| k.saturating_mul(s.nrows()))
            }
        }
    }

    /// Number of sum rows a reply to this summary carries: the `Σ h_l`
    /// protocentroid marginals under Sum protocentroid sets, one row per
    /// centroid otherwise (saturating, like [`Summary::grid_size`]).
    pub fn sum_rows(&self) -> usize {
        match self {
            Summary::ProtoSets {
                aggregator: Aggregator::Sum,
                sets,
            } => sets.iter().map(Matrix::nrows).sum(),
            _ => self.grid_size(),
        }
    }

    /// Lays cell statistics (`k x m` sums folded in point order, `k`
    /// counts) out as a reply to this summary: Sum protocentroid sets
    /// take each protocentroid's marginal sum ([`marginal_sums`]),
    /// which is all their update reads; other summaries keep the cells.
    pub fn reply_layout(&self, stats: SuffStats) -> SuffStats {
        match self {
            Summary::ProtoSets {
                aggregator: Aggregator::Sum,
                sets,
            } => {
                let hs: Vec<usize> = sets.iter().map(Matrix::nrows).collect();
                SuffStats {
                    sums: marginal_sums(&stats.sums, &stats.counts_usize(), &hs),
                    counts: stats.counts,
                }
            }
            _ => stats,
        }
    }

    /// Whether every summary parameter is finite.
    pub fn all_finite(&self) -> bool {
        match self {
            Summary::Centroids(c) => c.all_finite(),
            Summary::ProtoSets { sets, .. } => sets.iter().all(Matrix::all_finite),
        }
    }

    /// The server's round update from one round's aggregated statistics,
    /// laid out as [`Summary::reply_layout`] lays replies out: the exact
    /// mean update for FkM ([`mean_update`], the one `KMeans` runs;
    /// clusters that captured no points keep their stale centroid — the
    /// server holds no raw data to reseed from), or the Proposition 6.1
    /// closed forms for KR-FkM, from the marginals under Sum and from
    /// the cells under Product.
    pub fn apply_stats(&mut self, stats: &SuffStats) {
        match self {
            Summary::Centroids(centroids) => {
                let counts: Vec<f64> = stats.counts.iter().map(|&c| c as f64).collect();
                mean_update(centroids, &stats.sums, &counts, |_| 0.0);
            }
            Summary::ProtoSets {
                aggregator: Aggregator::Sum,
                sets,
            } => prop61_update_from_marginals(&stats.sums, &stats.counts_usize(), sets),
            Summary::ProtoSets { aggregator, sets } => {
                prop61_update_from_stats(&stats.sums, &stats.counts_usize(), sets, *aggregator);
            }
        }
    }
}

/// Pairwise-masking parameters for one round, carried inside the
/// round's [`Broadcast`].
///
/// Each pair of members `(i, j)` derives a shared stream of 64-bit
/// words from `(seed, min(i,j), max(i,j), round)`; the lower id *adds*
/// the stream to its serialized statistics (wrapping, in the `u64` bit
/// domain), the higher id *subtracts* it, so summing every member's
/// masked words cancels the masks exactly in `ℤ_{2^64}` — see
/// [`crate::mask`]. Masking in the bit domain (not on the `f64` values)
/// is what lets a masked run stay **bitwise identical** to an unmasked
/// one: the server recovers each reporter's exact statistics before the
/// usual ascending-client-order float merge.
///
/// This models the *aggregation algebra* of secure aggregation
/// (Bonawitz et al.-style pairwise masks, including dropped-client mask
/// recovery); it is not a cryptographic implementation — the seed
/// travels in the clear on the same channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskSpec {
    /// Run-level mask seed (all pair streams derive from it).
    pub seed: u64,
    /// The round's member client ids, ascending. Every member masks
    /// against every other member; the server unmasks each reporter
    /// against the same list, which is how a dropped member's mask
    /// contributions are recovered.
    pub members: Vec<u32>,
}

/// Server → client: one round's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Broadcast {
    /// Round index.
    pub round: u32,
    /// `true` for the trailing evaluation exchange: the client computes
    /// statistics as usual, but the server uses only the inertia
    /// telemetry and accounts no bytes (evaluation is not part of the
    /// paper's communication cost).
    pub eval_only: bool,
    /// When present, clients must reply with [`MaskedStats`] derived
    /// under this spec instead of plaintext [`LocalStats`].
    pub mask: Option<MaskSpec>,
    /// The model summary.
    pub summary: Summary,
}

/// Client → server: sufficient statistics for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalStats {
    /// Round index this reply answers.
    pub round: u32,
    /// Coordinate sums and the `k` per-cluster counts under the received
    /// summary, laid out by [`Summary::reply_layout`]: `k x m` cell sums
    /// for FkM and Product KR-FkM (`(k·m + k)·8` bytes accounted),
    /// `(Σ h_l) x m` marginal sums for Sum KR-FkM (`((Σ h_l)·m + k)·8`).
    pub stats: SuffStats,
    /// The client's partial inertia under the received summary
    /// (telemetry; excluded from the byte accounting).
    pub inertia: f64,
}

/// Client → server: one round's sufficient statistics under pairwise
/// additive masking (the reply to a [`Broadcast`] carrying a
/// [`MaskSpec`]).
///
/// `words` is the client's [`LocalStats`] serialized to 64-bit words —
/// `rows·m` sum bit-patterns, then `k` counts, then one inertia
/// bit-pattern — with the client's pairwise masks wrapping-added in the
/// bit domain (see [`crate::mask`]). The sums + counts sections account
/// as summary-statistic bytes exactly like a plaintext upload
/// (`(rows·m + k)·8`, with `rows` = `k`, or `Σ h_l` under a Sum
/// broadcast), so masking never changes the Figure 10 accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedStats {
    /// Round index this reply answers.
    pub round: u32,
    /// Number of sum rows ([`Summary::sum_rows`]).
    pub rows: u32,
    /// Number of clusters the statistics count.
    pub k: u32,
    /// Feature dimension.
    pub m: u32,
    /// Masked words: `rows·m` sums, `k` counts, `1` inertia — in that
    /// order (`rows·m + k + 1` words total).
    pub words: Vec<u64>,
}

impl MaskedStats {
    /// Number of words a masked upload of `rows x m` sums and `k` counts
    /// carries, saturating at `usize::MAX` (a header off the wire can
    /// multiply past it; no word vector is that long).
    pub fn word_count(rows: usize, k: usize, m: usize) -> usize {
        rows.saturating_mul(m).saturating_add(k).saturating_add(1)
    }

    /// Number of words that account as summary statistics: the sums and
    /// the counts (`rows·m + k`, saturating).
    pub fn stat_words(&self) -> usize {
        Self::word_count(self.rows as usize, self.k as usize, self.m as usize) - 1
    }
}

/// Server → client: closes a round; `done = true` shuts the client
/// down.
///
/// **Multi-round pipelining.** A non-final ack carries the *next*
/// round's [`Broadcast`] piggybacked in `next`, and the client answers
/// it with that round's [`LocalStats`] directly — so after the opening
/// broadcast, one round costs a single server→client frame and a single
/// reply instead of the ack + broadcast pair it used to, halving the
/// per-round message exchanges. Byte accounting is unchanged: the
/// embedded summary's statistic bytes are measured exactly like a
/// standalone broadcast's and attributed to the round the summary
/// belongs to, so the Figure 10 closed forms still hold frame-for-frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundAck {
    /// Round index being acknowledged.
    pub round: u32,
    /// Whether the protocol is over.
    pub done: bool,
    /// The next round's broadcast, pipelined onto the ack (`None` on
    /// the final ack — and only there).
    pub next: Option<Broadcast>,
}

/// Every message of the federated protocol, as framed by
/// [`crate::wire`].
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client registration (client → server).
    Join(Join),
    /// Fetch one raw point to serve as a seed (server → client).
    FetchPoint {
        /// Client-local row index.
        index: u64,
    },
    /// The fetched seed point (client → server).
    Point {
        /// The row.
        row: Vec<f64>,
    },
    /// Reset the client's D² state to distances from this seed
    /// (server → client).
    SeedInit {
        /// The first seed of a sampling pass.
        row: Vec<f64>,
    },
    /// Min-update the client's D² state with this seed
    /// (server → client).
    SeedUpdate {
        /// The newly chosen seed.
        row: Vec<f64>,
    },
    /// The client's current D² mass (client → server).
    SeedMass {
        /// Sum of the client's per-point D² weights.
        mass: f64,
    },
    /// Resolve a proportional draw inside this client's shard
    /// (server → client).
    SeedSelect {
        /// Remaining target mass after earlier clients were skipped.
        target: f64,
    },
    /// The resolved seed point (client → server).
    SeedPick {
        /// The chosen row (empty when `found` is `false`).
        row: Vec<f64>,
        /// Whether the walk landed inside this shard (rounding can push
        /// the target past the last point).
        found: bool,
    },
    /// Request per-client mean statistics (server → client).
    MeanQuery,
    /// Per-client coordinate sum and row count (client → server).
    MeanStats {
        /// Sum of the client's rows.
        sum: Vec<f64>,
        /// Number of rows summed.
        count: u64,
    },
    /// One round's summary (server → client).
    Broadcast(Broadcast),
    /// One round's sufficient statistics (client → server).
    LocalStats(LocalStats),
    /// One round's pairwise-masked statistics (client → server; the
    /// reply to a mask-carrying broadcast).
    MaskedStats(MaskedStats),
    /// Round acknowledgement / shutdown (server → client).
    RoundAck(RoundAck),
}

// ---- client-side round computation --------------------------------------

/// Computes one round's [`LocalStats`] for a shard with the exhaustive
/// scan: [`nearest_centroid`] per point against the summary's grid
/// (chunk-parallel on `exec`, bitwise thread-invariant), then per-cluster
/// sums/counts and the partial inertia summed serially in point order,
/// laid out by [`Summary::reply_layout`]. This is the reference a
/// [`ShardClient`](crate::client::ShardClient)'s bounds-gated reply
/// equals bitwise, and the scorer behind
/// [`global_inertia_with`](crate::global_inertia_with).
///
/// Fails on a summary that does not expand to a grid. A non-empty shard
/// needs at least one centroid of its own width;
/// [`ShardClient`](crate::client::ShardClient) rejects other broadcasts.
pub fn compute_local_stats(
    data: &Matrix,
    summary: &Summary,
    round: u32,
    exec: &ExecCtx,
) -> Result<LocalStats> {
    let centroids = summary.materialize()?;
    let mut best: Vec<(usize, f64)> = vec![(0, 0.0); data.nrows()];
    parallel::map_rows_into(exec, &mut best, 1, 1, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = nearest_centroid(data.row(start + off), &centroids);
        }
    });
    Ok(fold_stats(data, summary, centroids.shape(), round, |i| {
        best[i]
    }))
}

/// Sums one round's [`LocalStats`] over a `k x m` grid serially in point
/// order from each point's `(label, squared distance)`: per-cluster sums
/// and counts, laid out for `summary` ([`Summary::reply_layout`]), and
/// the partial inertia.
pub(crate) fn fold_stats(
    data: &Matrix,
    summary: &Summary,
    (k, m): (usize, usize),
    round: u32,
    mut nearest: impl FnMut(usize) -> (usize, f64),
) -> LocalStats {
    let mut stats = SuffStats::zeros(k, m);
    let mut inertia = 0.0f64;
    for (i, x) in data.rows_iter().enumerate() {
        let (c, d) = nearest(i);
        ops::add_assign(stats.sums.row_mut(c), x);
        stats.counts[c] += 1;
        inertia += d;
    }
    LocalStats {
        round,
        stats: summary.reply_layout(stats),
        inertia,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_accounting_matches_paper() {
        let fkm = Summary::Centroids(Matrix::zeros(9, 4));
        assert_eq!(fkm.param_f64s(), 36);
        assert_eq!(fkm.grid_size(), 9);
        let kr = Summary::ProtoSets {
            aggregator: Aggregator::Sum,
            sets: vec![Matrix::zeros(3, 4), Matrix::zeros(3, 4)],
        };
        assert_eq!(kr.param_f64s(), 24); // (3+3)*4 vs 9*4
        assert_eq!(kr.grid_size(), 9);
    }

    #[test]
    fn fkm_update_keeps_stale_centroids() {
        let mut state =
            Summary::Centroids(Matrix::from_rows(&[vec![1.0, 1.0], vec![5.0, 5.0]]).unwrap());
        let mut stats = SuffStats::zeros(2, 2);
        stats.sums.row_mut(0).copy_from_slice(&[4.0, 8.0]);
        stats.counts[0] = 4;
        state.apply_stats(&stats);
        let Summary::Centroids(centroids) = &state else {
            unreachable!()
        };
        assert_eq!(centroids.row(0), &[1.0, 2.0]);
        assert_eq!(centroids.row(1), &[5.0, 5.0], "empty cluster kept");
    }

    #[test]
    fn fkm_round_equals_one_kmeans_iteration_bitwise() {
        // One FkM round from c0 runs `KMeans`'s mean update on the same
        // per-cluster sums: below `UPDATE_CHUNK` (8192 points) a fit sums
        // each cluster in point order, as the client does.
        let data = kr_datasets::synthetic::blobs(600, 3, 5, 0.5, 11).data;
        let c0 = data.select_rows(&[0, 150, 300, 450, 599]);
        let local = compute_local_stats(
            &data,
            &Summary::Centroids(c0.clone()),
            0,
            &ExecCtx::serial(),
        )
        .unwrap();
        assert!(
            local.stats.counts.iter().all(|&c| c > 0),
            "no empty cluster"
        );
        let mut state = Summary::Centroids(c0.clone());
        state.apply_stats(&local.stats);
        let km = kr_core::KMeans::new(5)
            .with_init(kr_core::kmeans::KMeansInit::FromCentroids(c0))
            .with_n_init(1)
            .with_max_iter(1)
            .fit(&data)
            .unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&state.materialize().unwrap()), bits(&km.centroids));
    }

    #[test]
    fn local_stats_thread_invariant() {
        let ds = kr_datasets::synthetic::blobs(257, 3, 4, 0.5, 3);
        let centroids = Summary::Centroids(Matrix::from_fn(4, 3, |i, j| (i + j) as f64));
        let reference = compute_local_stats(&ds.data, &centroids, 0, &ExecCtx::serial()).unwrap();
        for threads in [2usize, 8] {
            let got =
                compute_local_stats(&ds.data, &centroids, 0, &ExecCtx::threaded(threads)).unwrap();
            assert_eq!(got.stats, reference.stats, "threads={threads}");
            assert_eq!(got.inertia.to_bits(), reference.inertia.to_bits());
        }
    }

    #[test]
    fn empty_shard_contributes_nothing() {
        let centroids = Summary::Centroids(Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64));
        let stats =
            compute_local_stats(&Matrix::zeros(0, 2), &centroids, 1, &ExecCtx::serial()).unwrap();
        assert_eq!(stats.inertia, 0.0);
        assert_eq!(stats.stats.counts, vec![0, 0, 0]);
    }
}

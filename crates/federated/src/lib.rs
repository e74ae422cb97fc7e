//! # kr-federated
//!
//! Federated k-Means (`FkM`, after Garst & Reinders 2024) and its
//! Khatri-Rao extension `KR-FkM` (paper Section 9.4, Figure 10), built
//! as a **layered, transport-agnostic subsystem** with byte counts
//! measured from real wire frames:
//!
//! * [`protocol`] — typed [`Broadcast`](protocol::Broadcast) /
//!   [`LocalStats`](protocol::LocalStats) /
//!   [`RoundAck`](protocol::RoundAck) messages and the pure per-round
//!   state machines for both algorithms.
//! * [`wire`] — length-prefixed little-endian framing with exact `f64`
//!   bit round-trips; every frame reports how many of its bytes are
//!   summary statistics, which is what the Figure 10 counters
//!   accumulate.
//! * [`transport`] — the [`Connection`](transport::Connection) trait
//!   plus two backends: synchronous in-memory channels
//!   ([`transport::local`]) and loopback/network TCP over `std::net`
//!   ([`transport::tcp`]) with a non-blocking accept loop and
//!   per-connection workers on the [`kr_linalg::pool`].
//! * [`server`] / [`client`] — a [`FederatedServer`] driving rounds
//!   against N concurrent clients, and a
//!   [`ShardClient`](client::ShardClient) computing local statistics on
//!   its own [`ExecCtx`].
//! * [`faults`] / [`mask`] — a seeded, transport-level fault injector
//!   (scripted drops, delays, truncations, disconnects per
//!   client × round, identical over both backends) and the pairwise
//!   additive-masking algebra behind secure aggregation. Fault
//!   tolerance is configured per run through [`Resilience`]: quorum
//!   rounds over the survivors, per-round read deadlines, masked
//!   uploads — all under the same bitwise determinism contract.
//!
//! Protocol (both algorithms, per round):
//!
//! 1. **Broadcast** — the server sends the current summary to every
//!    client: `k·m` floats for `FkM`, `(Σ h_l)·m` floats for `KR-FkM`.
//!    This is the *downlink* cost plotted in Figure 10.
//! 2. **Local statistics** — each client assigns its points to the
//!    nearest (aggregated) centroid and uploads per-cluster coordinate
//!    sums and counts, plus its partial inertia as telemetry.
//! 3. **Server update** — aggregated statistics drive the exact k-Means
//!    mean update, or the Proposition 6.1 closed forms
//!    ([`kr_core::kr_kmeans::prop61_update_from_stats`]) for `KR-FkM`.
//!
//! Because the closed forms need only sufficient statistics, one
//! federated round is mathematically identical to one centralized Lloyd /
//! KR-k-Means iteration — verified by the equivalence tests below. And
//! because every merge happens in fixed client order over exact framed
//! `f64`s, a loopback-TCP run is **bitwise identical** to the
//! in-process run at any pool size (CI-enforced).
//!
//! ```
//! use kr_federated::{Client, FkM};
//! use kr_linalg::Matrix;
//!
//! let clients = vec![
//!     Client { data: Matrix::from_rows(&[vec![0.0, 0.0], vec![0.1, 0.1]]).unwrap() },
//!     Client { data: Matrix::from_rows(&[vec![5.0, 5.0], vec![5.1, 5.1]]).unwrap() },
//! ];
//! let model = FkM { k: 2, rounds: 3, seed: 1 }.run(&clients).unwrap();
//! assert_eq!(model.centroids.nrows(), 2);
//! assert_eq!(model.history.len(), 3); // one telemetry entry per round
//! assert!(model.wire.frame_bytes_down > model.history.last().unwrap().downlink_bytes);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod faults;
pub mod mask;
pub mod protocol;
pub mod server;
pub mod transport;
pub mod wire;

pub use faults::{FaultAction, FaultConn, FaultPlan};
pub use protocol::MaskSpec;
pub use server::{Algo, FederatedServer, Resilience, WireTotals};
pub use transport::FailureKind;

use kr_core::aggregator::Aggregator;
use kr_core::Result;
use kr_linalg::{ExecCtx, Matrix};

/// Bytes per f64 on the wire (plain little-endian framing).
pub const BYTES_PER_F64: usize = 8;

/// A client's private data shard.
#[derive(Debug, Clone)]
pub struct Client {
    /// The shard (never leaves the client).
    pub data: Matrix,
}

/// Per-round telemetry shared by both algorithms.
///
/// The byte counters are *measured* from the frames the transport
/// actually carried (summary-statistic payload bytes; see
/// [`wire::FrameInfo`]) and equal the paper's closed-form accounting.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Cumulative server→client bytes after this round's broadcast.
    pub downlink_bytes: usize,
    /// Cumulative client→server bytes after this round's upload.
    pub uplink_bytes: usize,
    /// Global inertia of the model *after* this round's update,
    /// assembled from client-reported partials. With failures, it is the
    /// inertia over the shards that reported the *next* exchange (the
    /// partials of absent shards never reach the server).
    pub inertia: f64,
    /// Shards whose statistics were merged into this round's update.
    pub reporters: usize,
    /// Per-shard failures recorded this round, as `(client_id, kind)`,
    /// in ascending client order. Empty on a clean round.
    pub failures: Vec<(u32, FailureKind)>,
}

/// Result of a federated run.
#[derive(Debug, Clone)]
pub struct FederatedModel {
    /// Final centroid grid.
    pub centroids: Matrix,
    /// Telemetry per round.
    pub history: Vec<RoundStats>,
    /// Total measured frame traffic, framing overhead and bootstrap
    /// included (the per-round counters account summary statistics
    /// only).
    pub wire: WireTotals,
}

/// Federated k-Means.
#[derive(Debug, Clone)]
pub struct FkM {
    /// Number of centroids.
    pub k: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// RNG seed (drives initialization).
    pub seed: u64,
}

/// Federated Khatri-Rao k-Means.
#[derive(Debug, Clone)]
pub struct KrFkM {
    /// Protocentroid set sizes.
    pub hs: Vec<usize>,
    /// Aggregator.
    pub aggregator: Aggregator,
    /// Communication rounds.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl FkM {
    /// Runs the protocol over the clients (serially; see
    /// [`FkM::run_with`]).
    pub fn run(&self, clients: &[Client]) -> Result<FederatedModel> {
        self.run_with(clients, &ExecCtx::serial())
    }

    /// Runs the protocol over the clients through the in-process
    /// [`transport::local`] backend, with each client's local
    /// assignment step chunk-parallel on `exec`'s pool (modeling clients
    /// that compute concurrently; results are identical at any thread
    /// count, and bitwise identical to a loopback-TCP run of
    /// [`FederatedServer::drive`]).
    pub fn run_with(&self, clients: &[Client], exec: &ExecCtx) -> Result<FederatedModel> {
        let server = FederatedServer::new(Algo::Fkm { k: self.k }, self.rounds, self.seed);
        server.drive(transport::local::connect_shards(clients, exec), exec)
    }
}

impl KrFkM {
    /// Runs the protocol over the clients (serially; see
    /// [`KrFkM::run_with`]).
    pub fn run(&self, clients: &[Client]) -> Result<FederatedModel> {
        self.run_with(clients, &ExecCtx::serial())
    }

    /// Runs the protocol over the clients through the in-process
    /// [`transport::local`] backend (see [`FkM::run_with`]).
    pub fn run_with(&self, clients: &[Client], exec: &ExecCtx) -> Result<FederatedModel> {
        let server = FederatedServer::new(
            Algo::KrFkm {
                hs: self.hs.clone(),
                aggregator: self.aggregator,
            },
            self.rounds,
            self.seed,
        );
        server.drive(transport::local::connect_shards(clients, exec), exec)
    }
}

/// Inertia over all client shards (evaluation only): each shard's
/// [`kr_core::kmeans::nearest_centroid`] distances, computed
/// chunk-parallel on `exec`'s pool and summed in point order, then
/// summed in shard order. These are the sums the protocol assembles from
/// client-reported partials, so the result equals a round's reported
/// inertia bitwise, at any thread count.
pub fn global_inertia_with(clients: &[Client], centroids: &Matrix, exec: &ExecCtx) -> f64 {
    clients
        .iter()
        .map(|c| protocol::compute_local_stats(&c.data, centroids, 0, exec).inertia)
        .sum()
}

/// Splits a dataset into `n_clients` shards according to a client
/// assignment vector (e.g. from `kr_datasets::image::femnist_like`).
pub fn shard_by_assignment(data: &Matrix, client_of: &[usize], n_clients: usize) -> Vec<Client> {
    assert_eq!(data.nrows(), client_of.len());
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n_clients];
    for (i, &c) in client_of.iter().enumerate() {
        buckets[c].push(i);
    }
    buckets
        .into_iter()
        .map(|idx| Client {
            data: data.select_rows(&idx),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kr_core::kr_kmeans::prop61_update_from_stats;
    use kr_core::operator::khatri_rao;
    use kr_core::CoreError;

    fn make_clients(n_clients: usize, seed: u64) -> (Vec<Client>, Matrix) {
        let ds = kr_datasets::synthetic::blobs(200, 2, 4, 0.4, seed);
        let client_of: Vec<usize> = (0..ds.data.nrows()).map(|i| i % n_clients).collect();
        let clients = shard_by_assignment(&ds.data, &client_of, n_clients);
        (clients, ds.data)
    }

    #[test]
    fn fkm_converges_on_blobs() {
        let (clients, data) = make_clients(5, 1);
        let model = FkM {
            k: 4,
            rounds: 15,
            seed: 2,
        }
        .run(&clients)
        .unwrap();
        let first = model.history.first().unwrap().inertia;
        let last = model.history.last().unwrap().inertia;
        assert!(last <= first);
        // Inertia should be near the centralized solution's ballpark.
        let central = kr_core::kmeans::KMeans::new(4)
            .with_n_init(10)
            .with_seed(3)
            .fit(&data)
            .unwrap();
        assert!(
            last < central.inertia * 5.0,
            "federated {last} vs central {}",
            central.inertia
        );
    }

    #[test]
    fn fkm_single_client_matches_lloyd_iteration_count() {
        // With one client, a round is exactly one Lloyd iteration: the
        // inertia sequence must be monotone.
        let (clients, _) = make_clients(1, 4);
        let model = FkM {
            k: 4,
            rounds: 10,
            seed: 5,
        }
        .run(&clients)
        .unwrap();
        for w in model.history.windows(2) {
            assert!(w[1].inertia <= w[0].inertia + 1e-9);
        }
    }

    #[test]
    fn kr_fkm_runs_and_improves() {
        let (clients, _) = make_clients(5, 6);
        let model = KrFkM {
            hs: vec![2, 2],
            aggregator: Aggregator::Sum,
            rounds: 15,
            seed: 7,
        }
        .run(&clients)
        .unwrap();
        let first = model.history.first().unwrap().inertia;
        let last = model.history.last().unwrap().inertia;
        assert!(last <= first * 1.001, "{first} -> {last}");
        assert_eq!(model.centroids.nrows(), 4);
    }

    #[test]
    fn downlink_cost_favors_kr() {
        let (clients, _) = make_clients(4, 8);
        let fkm = FkM {
            k: 9,
            rounds: 5,
            seed: 9,
        }
        .run(&clients)
        .unwrap();
        let kr = KrFkM {
            hs: vec![3, 3],
            aggregator: Aggregator::Product,
            rounds: 5,
            seed: 9,
        }
        .run(&clients)
        .unwrap();
        let f_down = fkm.history.last().unwrap().downlink_bytes;
        let k_down = kr.history.last().unwrap().downlink_bytes;
        // 6 vectors vs 9 vectors per broadcast: exactly 2/3 the bytes.
        assert_eq!(k_down * 9, f_down * 6, "kr {k_down} vs fkm {f_down}");
    }

    #[test]
    fn measured_bytes_equal_closed_form_accounting() {
        // The counters come from real frames; they must equal the
        // paper's closed forms for both algorithms.
        let (clients, _) = make_clients(4, 20);
        let (n_clients, m, rounds) = (4usize, 2usize, 5usize);
        let fkm = FkM {
            k: 9,
            rounds,
            seed: 9,
        }
        .run(&clients)
        .unwrap();
        for (r, h) in fkm.history.iter().enumerate() {
            assert_eq!(
                h.downlink_bytes,
                (r + 1) * n_clients * 9 * m * BYTES_PER_F64
            );
            assert_eq!(
                h.uplink_bytes,
                (r + 1) * n_clients * (9 * m + 9) * BYTES_PER_F64
            );
        }
        let kr = KrFkM {
            hs: vec![3, 3],
            aggregator: Aggregator::Sum,
            rounds,
            seed: 9,
        }
        .run(&clients)
        .unwrap();
        let params = (3 + 3) * m;
        let k_grid = 9;
        for (r, h) in kr.history.iter().enumerate() {
            assert_eq!(
                h.downlink_bytes,
                (r + 1) * n_clients * params * BYTES_PER_F64
            );
            assert_eq!(
                h.uplink_bytes,
                (r + 1) * n_clients * (k_grid * m + k_grid) * BYTES_PER_F64
            );
        }
        // Full frame traffic strictly exceeds the accounted stats
        // (framing overhead, bootstrap, acks, eval).
        assert!(kr.wire.frame_bytes_down > kr.history.last().unwrap().downlink_bytes);
        assert!(kr.wire.frame_bytes_up > kr.history.last().unwrap().uplink_bytes);
    }

    #[test]
    fn pipelining_halves_per_round_frames() {
        // With the next broadcast riding on the previous ack, one extra
        // round costs exactly one server→client frame and one reply per
        // client (the ack-then-broadcast scheme paid two frames down).
        let (clients, _) = make_clients(4, 30);
        let run = |rounds| {
            FkM {
                k: 3,
                rounds,
                seed: 5,
            }
            .run(&clients)
            .unwrap()
            .wire
        };
        let (w5, w6) = (run(5), run(6));
        assert_eq!(w6.frames_down - w5.frames_down, 4, "one down-frame/client");
        assert_eq!(w6.frames_up - w5.frames_up, 4, "one up-frame/client");
    }

    #[test]
    fn exec_determinism_rounds_thread_invariant() {
        // Every round's history (inertia and byte counters) must be
        // bitwise identical at any thread budget.
        let (clients, _) = make_clients(5, 12);
        let reference = KrFkM {
            hs: vec![2, 2],
            aggregator: Aggregator::Sum,
            rounds: 8,
            seed: 13,
        }
        .run(&clients)
        .unwrap();
        for threads in [2usize, 4, 8] {
            let exec = ExecCtx::threaded(threads);
            let model = KrFkM {
                hs: vec![2, 2],
                aggregator: Aggregator::Sum,
                rounds: 8,
                seed: 13,
            }
            .run_with(&clients, &exec)
            .unwrap();
            assert_eq!(model.centroids, reference.centroids, "threads={threads}");
            for (a, b) in model.history.iter().zip(reference.history.iter()) {
                assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
                assert_eq!(a.downlink_bytes, b.downlink_bytes);
                assert_eq!(a.uplink_bytes, b.uplink_bytes);
            }
            assert_eq!(model.wire, reference.wire);
        }
    }

    #[test]
    fn exec_determinism_global_inertia_with() {
        let (clients, _) = make_clients(3, 14);
        let centroids = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64 * 0.5);
        let reference = global_inertia_with(&clients, &centroids, &ExecCtx::serial());
        for threads in [2usize, 8] {
            let got = global_inertia_with(&clients, &centroids, &ExecCtx::threaded(threads));
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={threads}");
        }
        // One kernel: it equals the scorer's per-shard sums bitwise.
        let scored: f64 = clients
            .iter()
            .map(|c| kr_metrics::inertia(&c.data, &centroids))
            .sum();
        assert_eq!(reference.to_bits(), scored.to_bits());
    }

    #[test]
    fn sharding_is_lossless() {
        let ds = kr_datasets::synthetic::blobs(50, 3, 2, 1.0, 10);
        let client_of: Vec<usize> = (0..50).map(|i| i % 3).collect();
        let clients = shard_by_assignment(&ds.data, &client_of, 3);
        let total: usize = clients.iter().map(|c| c.data.nrows()).sum();
        assert_eq!(total, 50);
        assert_eq!(clients.len(), 3);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(FkM {
            k: 2,
            rounds: 1,
            seed: 0
        }
        .run(&[])
        .is_err());
        let tiny = vec![Client {
            data: Matrix::zeros(1, 2),
        }];
        assert!(matches!(
            FkM {
                k: 5,
                rounds: 1,
                seed: 0
            }
            .run(&tiny),
            Err(CoreError::TooFewPoints { .. })
        ));
        let mismatched = vec![
            Client {
                data: Matrix::zeros(3, 2),
            },
            Client {
                data: Matrix::zeros(3, 3),
            },
        ];
        assert!(FkM {
            k: 2,
            rounds: 1,
            seed: 0
        }
        .run(&mismatched)
        .is_err());
    }

    #[test]
    fn rejects_zero_k() {
        let (clients, _) = make_clients(2, 15);
        assert!(matches!(
            FkM {
                k: 0,
                rounds: 1,
                seed: 0
            }
            .run(&clients),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn federated_stats_update_matches_centralized_pass() {
        // One KR-FkM round from a fixed state == one centralized
        // Prop. 6.1 pass with the same assignments.
        let ds = kr_datasets::synthetic::blobs(80, 2, 4, 0.5, 11);
        let client_of: Vec<usize> = (0..80).map(|i| i % 4).collect();
        let clients = shard_by_assignment(&ds.data, &client_of, 4);
        let sets = vec![
            Matrix::from_rows(&[vec![1.0, 0.0], vec![-1.0, 2.0]]).unwrap(),
            Matrix::from_rows(&[vec![0.5, 0.5], vec![2.0, -2.0]]).unwrap(),
        ];
        let centroids = khatri_rao(&sets, Aggregator::Sum).unwrap();
        // Centralized: labels + prop61 pass over the pooled data.
        let labels = kr_metrics::internal::nearest_assignments(&ds.data, &centroids);
        let mut central = sets.clone();
        kr_core::kr_kmeans::prop61_update_pass_with(
            &ds.data,
            &labels,
            &mut central,
            Aggregator::Sum,
            0,
            &ExecCtx::serial(),
        );
        // Federated: merge the client stats in client order, update from
        // stats.
        let mut agg = kr_core::stats::SuffStats::zeros(centroids.nrows(), centroids.ncols());
        for (i, client) in clients.iter().enumerate() {
            let local = protocol::compute_local_stats(
                &client.data,
                &centroids,
                i as u32,
                &ExecCtx::serial(),
            );
            agg.merge(&local.stats).unwrap();
        }
        let mut fed = sets.clone();
        prop61_update_from_stats(&agg.sums, &agg.counts_usize(), &mut fed, Aggregator::Sum);
        for (a, b) in central.iter().zip(fed.iter()) {
            assert!(a.sub(b).unwrap().max_abs() < 1e-9, "central != federated");
        }
    }
}

//! Deterministic chaos testing of the federated stack: seeded
//! [`FaultPlan`]s (drops, delays, truncations, disconnects, absent
//! clients) driven over both transports, asserting the resilience
//! contract bitwise —
//!
//! 1. the same plan produces the **identical** run over the in-process
//!    local transport and loopback TCP (the injector keys on decoded
//!    frames, never wall-clock);
//! 2. a quorum run whose missing clients never joined is bitwise
//!    identical to a clean run over the surviving client set;
//! 3. masked aggregation is bitwise identical to plaintext aggregation,
//!    with and without failures.
//!
//! The `exec_determinism_*` tests run in CI's release determinism step
//! at 1/2/8 pool workers. The one wall-clock test (a real TCP round
//! deadline) asserts classification only, never bitwise equality.

use kr_core::aggregator::Aggregator;
use kr_federated::server::{Algo, FederatedServer, Resilience};
use kr_federated::transport::local::connect_shards;
use kr_federated::transport::tcp::{serve_shard, TcpConn, TcpServer};
use kr_federated::{
    faults, shard_by_assignment, Client, FailureKind, FaultAction, FaultPlan, FederatedModel,
};
use kr_linalg::{ExecCtx, Matrix, ThreadPool};
use std::sync::Arc;
use std::time::Duration;

fn make_clients(n_clients: usize, seed: u64) -> Vec<Client> {
    let ds = kr_datasets::synthetic::blobs(150, 3, 4, 0.4, seed);
    let client_of: Vec<usize> = (0..ds.data.nrows()).map(|i| i % n_clients).collect();
    shard_by_assignment(&ds.data, &client_of, n_clients)
}

fn kr_server(rounds: usize, seed: u64) -> FederatedServer {
    FederatedServer::new(
        Algo::KrFkm {
            hs: vec![2, 3],
            aggregator: Aggregator::Sum,
        },
        rounds,
        seed,
    )
}

fn quorum(q: usize) -> Resilience {
    Resilience {
        quorum: Some(q),
        ..Resilience::default()
    }
}

fn run_local(
    server: &FederatedServer,
    clients: &[Client],
    plan: &Arc<FaultPlan>,
    exec: &ExecCtx,
) -> kr_core::Result<FederatedModel> {
    server.drive(faults::wrap(plan, connect_shards(clients, exec)), exec)
}

fn run_tcp(
    server: &FederatedServer,
    clients: &[Client],
    plan: &Arc<FaultPlan>,
    exec: &ExecCtx,
) -> FederatedModel {
    let listener = TcpServer::bind_loopback().unwrap();
    let addr = listener.local_addr().unwrap();
    let handles: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(id, c)| {
            let data = c.data.clone();
            std::thread::spawn(move || {
                // Faulted runs may close a client's channel early; the
                // client-side error (or clean close) is expected.
                let _ = serve_shard(addr, id as u32, &data, ExecCtx::serial());
            })
        })
        .collect();
    let conns = listener
        .accept_clients(clients.len(), Duration::from_secs(30))
        .unwrap();
    let model = server.drive(faults::wrap(plan, conns), exec).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    model
}

/// Full bitwise equality: centroids, per-round history (byte counters,
/// inertia bits, reporters, failures), and wire totals.
fn assert_bitwise_equal(a: &FederatedModel, b: &FederatedModel, what: &str) {
    assert_history_equal(a, b, what);
    assert_eq!(a.wire, b.wire, "{what}: wire totals");
}

/// Bitwise equality minus the wire totals — masked frames are larger
/// than plaintext frames (the spec and the wrapped inertia word are
/// overhead), so masked-vs-unmasked comparisons stop at the accounted
/// statistics.
fn assert_history_equal(a: &FederatedModel, b: &FederatedModel, what: &str) {
    assert_eq!(a.centroids.shape(), b.centroids.shape(), "{what}");
    for (x, y) in a.centroids.as_slice().iter().zip(b.centroids.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: centroid bits differ");
    }
    assert_eq!(a.history.len(), b.history.len(), "{what}");
    for (x, y) in a.history.iter().zip(b.history.iter()) {
        assert_eq!(x.round, y.round, "{what}");
        assert_eq!(x.downlink_bytes, y.downlink_bytes, "{what}: downlink");
        assert_eq!(x.uplink_bytes, y.uplink_bytes, "{what}: uplink");
        assert_eq!(
            x.inertia.to_bits(),
            y.inertia.to_bits(),
            "{what}: round {} inertia bits",
            x.round
        );
        assert_eq!(x.reporters, y.reporters, "{what}: round {}", x.round);
        assert_eq!(x.failures, y.failures, "{what}: round {}", x.round);
    }
}

#[test]
fn exec_determinism_fault_plans_tcp_matches_local_1_2_8_workers() {
    // The acceptance scenario: 30% seeded drops over TCP must be
    // bitwise identical to the same plan over the local transport.
    let clients = make_clients(5, 21);
    let rounds = 6;
    let plan = Arc::new(FaultPlan::seeded_drops(17, clients.len(), rounds, 0.3));
    let server = kr_server(rounds, 9).with_resilience(quorum(1));
    let mut reference: Option<FederatedModel> = None;
    for workers in [1usize, 2, 8] {
        let pool = Arc::new(ThreadPool::new(workers));
        let exec = ExecCtx::threaded(workers + 1).with_pool(Arc::clone(&pool));
        let local = run_local(&server, &clients, &plan, &exec).unwrap();
        let tcp = run_tcp(&server, &clients, &plan, &exec);
        assert_bitwise_equal(&tcp, &local, &format!("30% drops, workers={workers}"));
        // Worker count must not shift the outcome either.
        if let Some(r) = &reference {
            assert_bitwise_equal(&local, r, &format!("workers={workers} vs 1"));
        } else {
            reference = Some(local);
        }
    }
    // The plan actually did something: some rounds lost a reporter.
    let r = reference.unwrap();
    assert!(r.history.iter().any(|h| !h.failures.is_empty()));
    assert!(r
        .history
        .iter()
        .all(|h| h.reporters + h.failures.len() == clients.len()));
}

#[test]
fn exec_determinism_mixed_fault_plan_tcp_matches_local() {
    // Delay, truncate, and disconnect injections — each a different
    // failure class — must also replay identically over both backends.
    let clients = make_clients(4, 35);
    let rounds = 5;
    let plan = Arc::new(
        FaultPlan::new()
            .with(0, 1, FaultAction::DelayReply)
            .with(2, 2, FaultAction::TruncateReply)
            .with(3, 3, FaultAction::Disconnect),
    );
    let server = kr_server(rounds, 4).with_resilience(quorum(1));
    let exec = ExecCtx::threaded(3);
    let local = run_local(&server, &clients, &plan, &exec).unwrap();
    let tcp = run_tcp(&server, &clients, &plan, &exec);
    assert_bitwise_equal(&tcp, &local, "mixed plan");
    assert_eq!(local.history[1].failures, vec![(0, FailureKind::Timeout)]);
    assert_eq!(local.history[2].failures, vec![(2, FailureKind::Corrupt)]);
    assert_eq!(
        local.history[3].failures,
        vec![(3, FailureKind::Disconnected)]
    );
    // The delayed round-1 reply surfaced stale in round 2 and was
    // discarded (on both transports, in the same frame slot).
    assert_eq!(local.wire.frames_stale, 1);
    // The disconnected shard stays gone; everyone else recovers.
    assert_eq!(local.history[4].reporters, clients.len() - 1);
    assert!(local.history[4].failures.is_empty());
}

#[test]
fn exec_determinism_quorum_matches_clean_survivor_run_1_2_8_workers() {
    // Clients that never join (their registration is swallowed before
    // any server RNG draw) must leave a run bitwise identical to a
    // clean run over the surviving shards alone.
    let clients = make_clients(5, 28);
    let rounds = 5;
    let absent = [1u32, 3];
    let plan = Arc::new(
        absent
            .iter()
            .fold(FaultPlan::new(), |p, &c| p.with_absent(c)),
    );
    let survivors: Vec<Client> = clients
        .iter()
        .enumerate()
        .filter(|(i, _)| !absent.contains(&(*i as u32)))
        .map(|(_, c)| c.clone())
        .collect();
    let server = kr_server(rounds, 13).with_resilience(quorum(1));
    let clean_server = kr_server(rounds, 13);
    for workers in [1usize, 2, 8] {
        let pool = Arc::new(ThreadPool::new(workers));
        let exec = ExecCtx::threaded(workers + 1).with_pool(Arc::clone(&pool));
        let faulted = run_local(&server, &clients, &plan, &exec).unwrap();
        let clean = clean_server
            .drive(connect_shards(&survivors, &exec), &exec)
            .unwrap();
        assert_bitwise_equal(
            &faulted,
            &clean,
            &format!("survivor run, workers={workers}"),
        );
        assert!(faulted.history.iter().all(|h| h.reporters == 3));
    }
}

#[test]
fn exec_determinism_quorum_low_id_failure_matches_survivor_run() {
    // Client 0 holds no rows, so it shapes neither the bootstrap nor any
    // merge, and loses its reply every round: at 8 workers the higher
    // ids' replies can arrive first and wait in the server's ordered
    // fold until client 0's failure is in. The run must equal a clean
    // run over the survivors alone, pooled and serial.
    let survivors = make_clients(4, 44);
    let clients: Vec<Client> = std::iter::once(Client {
        data: Matrix::zeros(0, 3),
    })
    .chain(survivors.iter().cloned())
    .collect();
    let rounds = 5;
    let plan = Arc::new((0..=rounds as u32).fold(FaultPlan::new(), |p, r| {
        p.with(0, r, FaultAction::DropReply)
    }));
    let server = kr_server(rounds, 17).with_resilience(quorum(1));
    let exec = ExecCtx::threaded(9).with_pool(Arc::new(ThreadPool::new(8)));
    let clean = kr_server(rounds, 17)
        .drive(connect_shards(&survivors, &exec), &exec)
        .unwrap();
    let serial = kr_server(rounds, 17)
        .drive(
            connect_shards(&survivors, &ExecCtx::serial()),
            &ExecCtx::serial(),
        )
        .unwrap();
    assert_history_equal(&serial, &clean, "clean survivor run, serial vs 8 workers");
    for rep in 0..3 {
        let faulted = run_local(&server, &clients, &plan, &exec).unwrap();
        let what = format!("client 0 failing, repetition {rep}");
        assert_eq!(faulted.history.len(), rounds, "{what}");
        assert_eq!(faulted.centroids.shape(), clean.centroids.shape(), "{what}");
        for (x, y) in faulted
            .centroids
            .as_slice()
            .iter()
            .zip(clean.centroids.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: centroid bits differ");
        }
        for (f, c) in faulted.history.iter().zip(clean.history.iter()) {
            assert_eq!(
                f.inertia.to_bits(),
                c.inertia.to_bits(),
                "{what}: round {}",
                f.round
            );
            assert_eq!(f.uplink_bytes, c.uplink_bytes, "{what}: round {}", f.round);
            assert_eq!(f.reporters, survivors.len(), "{what}: round {}", f.round);
            assert_eq!(f.failures, vec![(0, FailureKind::Timeout)], "{what}");
        }
    }
}

#[test]
fn exec_determinism_masked_run_matches_unmasked_bitwise() {
    // Green path: pairwise masking must be invisible in the results —
    // centroids, accounted bytes, inertia bits.
    let clients = make_clients(4, 52);
    for algo in [
        Algo::Fkm { k: 5 },
        Algo::KrFkm {
            hs: vec![2, 3],
            aggregator: Aggregator::Sum,
        },
    ] {
        let plain_server = FederatedServer::new(algo.clone(), 5, 6);
        let masked_server = plain_server.clone().with_resilience(Resilience {
            mask_seed: Some(1234),
            ..Resilience::default()
        });
        for workers in [1usize, 2, 8] {
            let exec = ExecCtx::threaded(workers);
            let plain = plain_server
                .drive(connect_shards(&clients, &exec), &exec)
                .unwrap();
            let masked = masked_server
                .drive(connect_shards(&clients, &exec), &exec)
                .unwrap();
            assert_history_equal(
                &masked,
                &plain,
                &format!("masked {algo:?} workers={workers}"),
            );
            // The mask spec rides in every broadcast, so masked downlink
            // frames are strictly larger; the *accounted* statistic
            // bytes (already compared above, inside the history) never
            // move.
            assert!(masked.wire.frame_bytes_down > plain.wire.frame_bytes_down);
            assert_eq!(masked.wire.frames_up, plain.wire.frames_up);
        }
    }
}

#[test]
fn exec_determinism_masked_run_with_drops_matches_unmasked_drops() {
    // Dropped-client mask recovery: reporters' uploads unmask exactly
    // even when members of their pair streams sat the round out.
    let clients = make_clients(5, 63);
    let rounds = 6;
    let plan = Arc::new(FaultPlan::seeded_drops(5, clients.len(), rounds, 0.3));
    let plain_server = kr_server(rounds, 2).with_resilience(quorum(1));
    let masked_server = kr_server(rounds, 2).with_resilience(Resilience {
        quorum: Some(1),
        mask_seed: Some(77),
        ..Resilience::default()
    });
    let exec = ExecCtx::threaded(2);
    let plain = run_local(&plain_server, &clients, &plan, &exec).unwrap();
    let masked = run_local(&masked_server, &clients, &plan, &exec).unwrap();
    assert_history_equal(&masked, &plain, "masked vs plain under 30% drops");
    assert!(plain.history.iter().any(|h| !h.failures.is_empty()));
    // And the masked faulted run replays identically over TCP.
    let masked_tcp = run_tcp(&masked_server, &clients, &plan, &exec);
    assert_bitwise_equal(&masked_tcp, &masked, "masked+drops tcp vs local");
}

#[test]
fn delayed_reply_rejoins_after_stale_discard() {
    let clients = make_clients(3, 70);
    let plan = Arc::new(FaultPlan::new().with(1, 1, FaultAction::DelayReply));
    let server = kr_server(4, 3).with_resilience(quorum(1));
    let exec = ExecCtx::serial();
    let model = run_local(&server, &clients, &plan, &exec).unwrap();
    assert_eq!(model.history[0].failures, vec![]);
    assert_eq!(model.history[1].failures, vec![(1, FailureKind::Timeout)]);
    assert_eq!(model.history[1].reporters, 2);
    // The held frame was delivered during round 2's exchange, counted,
    // and discarded; the shard answered the catch-up broadcast.
    assert_eq!(model.wire.frames_stale, 1);
    assert_eq!(model.history[2].reporters, 3);
    assert!(model.history[2].failures.is_empty());
}

#[test]
fn strict_mode_still_aborts_on_any_failure() {
    // Without a quorum the legacy contract holds: the first failure
    // aborts the run with the client's typed error.
    let clients = make_clients(3, 81);
    let plan = Arc::new(FaultPlan::new().with(2, 1, FaultAction::DropReply));
    let exec = ExecCtx::serial();
    let err = run_local(&kr_server(4, 8), &clients, &plan, &exec).unwrap_err();
    assert!(matches!(err, kr_core::CoreError::Timeout(_)), "{err:?}");
}

#[test]
fn quorum_shortfall_errors_instead_of_updating_from_nothing() {
    let clients = make_clients(3, 90);
    let plan = Arc::new(FaultPlan::new().with(0, 1, FaultAction::DropReply).with(
        1,
        1,
        FaultAction::DropReply,
    ));
    let exec = ExecCtx::serial();
    let err = run_local(
        &kr_server(3, 8).with_resilience(quorum(2)),
        &clients,
        &plan,
        &exec,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("quorum"), "{msg}");
}

#[test]
fn local_deadline_is_vacuous_and_changes_nothing() {
    // The local transport's recv never waits, so arming a deadline must
    // not shift a single bit.
    let clients = make_clients(4, 99);
    let exec = ExecCtx::serial();
    let bare = kr_server(5, 31)
        .drive(connect_shards(&clients, &exec), &exec)
        .unwrap();
    let deadlined = kr_server(5, 31)
        .with_resilience(Resilience {
            round_deadline: Some(Duration::from_millis(1)),
            ..Resilience::default()
        })
        .drive(connect_shards(&clients, &exec), &exec)
        .unwrap();
    assert_bitwise_equal(&deadlined, &bare, "local deadline");
}

#[test]
fn tcp_round_deadline_times_out_slow_client() {
    // The one genuinely wall-clock test: a silent client must surface
    // as a *typed* per-round timeout (not corruption, not an abort)
    // while the quorum round proceeds over the fast shard. Assertions
    // cover classification and recovery bookkeeping only — never
    // bitwise equality, which wall-clock code cannot promise.
    use kr_federated::client::{ShardClient, Step};
    use kr_federated::protocol::{Join, Msg};
    use kr_federated::transport::Connection;

    let clients = make_clients(2, 44);
    let listener = TcpServer::bind_loopback().unwrap();
    let addr = listener.local_addr().unwrap();
    let fast = {
        let data = clients[0].data.clone();
        std::thread::spawn(move || {
            let _ = serve_shard(addr, 0, &data, ExecCtx::serial());
        })
    };
    let slow = {
        let data = clients[1].data.clone();
        std::thread::spawn(move || {
            let mut conn = TcpConn::dial(addr).unwrap();
            let mut shard = ShardClient::new(1, &data, ExecCtx::serial());
            conn.send(&Msg::Join(Join {
                client_id: 1,
                nrows: data.nrows() as u64,
                ncols: data.ncols() as u64,
                finite: true,
            }))
            .unwrap();
            loop {
                let Ok(Some((msg, _))) = conn.recv() else {
                    return; // server hung up — the expected ending
                };
                // Answer the bootstrap promptly, but sleep through
                // every round broadcast: longer than the whole run, so
                // each round classifies this shard as a timeout.
                if matches!(&msg, Msg::Broadcast(_) | Msg::RoundAck(_)) {
                    std::thread::sleep(Duration::from_secs(2));
                }
                match shard.handle(&msg) {
                    Ok(Step::Reply(reply)) => {
                        if conn.send(&reply).is_err() {
                            return;
                        }
                    }
                    Ok(Step::Continue) => {}
                    Ok(Step::Done) | Err(_) => return,
                }
            }
        })
    };
    let conns = listener.accept_clients(2, Duration::from_secs(30)).unwrap();
    let exec = ExecCtx::threaded(2);
    let model = FederatedServer::new(Algo::Fkm { k: 3 }, 2, 5)
        .with_resilience(Resilience {
            quorum: Some(1),
            round_deadline: Some(Duration::from_millis(150)),
            ..Resilience::default()
        })
        .drive(conns, &exec)
        .unwrap();
    for h in model.history.iter() {
        assert_eq!(
            h.failures,
            vec![(1, FailureKind::Timeout)],
            "round {}",
            h.round
        );
        assert_eq!(h.reporters, 1);
    }
    fast.join().unwrap();
    slow.join().unwrap();
    // The fast shard alone still produced a usable model.
    assert_eq!(model.centroids.nrows(), 3);
    assert!(model.history.last().unwrap().inertia.is_finite());
}

#[test]
fn fifty_percent_loss_does_not_panic() {
    // The fig10 failure axis's extreme cell, pinned as a test: half the
    // federation gone every round, quorum 1, masked uploads.
    let clients = make_clients(4, 11);
    let rounds = 4;
    let plan = Arc::new(FaultPlan::seeded_drops(3, clients.len(), rounds, 0.5));
    let server = kr_server(rounds, 17).with_resilience(Resilience {
        quorum: Some(1),
        mask_seed: Some(5),
        ..Resilience::default()
    });
    let exec = ExecCtx::serial();
    let model = run_local(&server, &clients, &plan, &exec).unwrap();
    assert!(model.history.iter().all(|h| h.reporters >= 2));
    assert!(model.history.last().unwrap().inertia.is_finite());
}

#[test]
fn absent_clients_with_empty_survivor_data_still_error_cleanly() {
    // If absence leaves no joined shard at all, registration reports
    // the same EmptyInput a truly empty federation does.
    let clients = vec![
        Client {
            data: Matrix::zeros(0, 2),
        },
        Client {
            data: kr_datasets::synthetic::blobs(20, 2, 2, 0.3, 1).data,
        },
    ];
    let plan = Arc::new(FaultPlan::new().with_absent(1));
    let exec = ExecCtx::serial();
    let err = run_local(&kr_server(2, 1), &clients, &plan, &exec).unwrap_err();
    assert!(matches!(err, kr_core::CoreError::EmptyInput), "{err:?}");
}

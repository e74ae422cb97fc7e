//! The observability determinism contract, CI-enforced: with the `obs`
//! feature compiled in and a recorder attached, every numeric result is
//! **bitwise identical** to the recorder-free run — at 1/2/8 pool
//! workers, in both kernel modes, with pruning off and on — and each
//! instrumented subsystem produces a non-empty, schema-valid JSONL
//! trace.
//!
//! The comparison here is recorder-attached vs. recorder-absent within
//! one obs-enabled build. That transitively pins the obs-off *build* as
//! well: with the feature off the macros expand to nothing, so the
//! numeric path is the compile-time-identical code the recorder-absent
//! runs execute.
//!
//! Run with `--test-threads=1` (CI does): recorder installs are
//! process-global, and the suite asserts against each test's own trace.
#![cfg(feature = "obs")]

use khatri_rao_clustering::obs;
use khatri_rao_clustering::prelude::*;
use kr_datasets::synthetic::{kr_structured, StructureKind};
use kr_federated::faults::{self, FaultPlan};
use kr_federated::{Algo, FederatedServer, Resilience};
use kr_linalg::{KernelMode, PruneMode};
use std::sync::Arc;

/// The worker counts the acceptance criteria pin.
const WORKERS: [usize; 3] = [1, 2, 8];

fn exec_with(workers: usize, kernel: KernelMode, prune: PruneMode) -> ExecCtx {
    ExecCtx::threaded(workers + 1)
        .with_pool(Arc::new(ThreadPool::new(workers)))
        .with_kernel_mode(kernel)
        .with_prune_mode(prune)
}

/// Asserts the trace is non-empty, JSONL round-trips, and mentions
/// every expected event name.
fn assert_valid_trace(snapshot: &obs::Snapshot, expect_names: &[&str]) {
    assert!(!snapshot.is_empty(), "instrumented run recorded nothing");
    let parsed = obs::Snapshot::parse_jsonl(&snapshot.to_jsonl()).expect("trace must parse");
    assert_eq!(parsed.events, snapshot.events, "JSONL round-trip drifted");
    let names = snapshot.names();
    for expected in expect_names {
        assert!(
            names.iter().any(|n| n == expected),
            "trace is missing {expected:?}; saw {names:?}"
        );
    }
}

#[test]
fn krkmeans_fit_is_bitwise_invisible_across_workers_kernels_prune() {
    let (ds, _, _) = kr_structured(3, 2, 30, 0.2, StructureKind::Additive, 41);
    for workers in WORKERS {
        for kernel in [KernelMode::Scalar, KernelMode::Simd] {
            for prune in [PruneMode::Off, PruneMode::On] {
                let ctx = format!("workers={workers} kernel={kernel:?} prune={prune:?}");
                let fit = || {
                    KrKMeans::new(vec![3, 2])
                        .with_seed(3)
                        .with_n_init(2)
                        .with_exec(exec_with(workers, kernel, prune))
                        .fit(&ds.data)
                        .unwrap()
                };
                let silent = fit();
                let recorder = obs::Recorder::install_virtual();
                let recorded = fit();
                let snapshot = recorder.snapshot();
                drop(recorder);

                assert_eq!(silent.labels, recorded.labels, "{ctx}: labels");
                assert_eq!(
                    silent.inertia.to_bits(),
                    recorded.inertia.to_bits(),
                    "{ctx}: inertia"
                );
                for (a, b) in silent
                    .protocentroids
                    .iter()
                    .zip(recorded.protocentroids.iter())
                {
                    assert_eq!(a, b, "{ctx}: protocentroids");
                }
                assert_eq!(
                    silent.centroids(),
                    recorded.centroids(),
                    "{ctx}: assembled centroids"
                );
                let mut expect = vec![
                    "krkmeans.seed",
                    "krkmeans.lloyd",
                    "krkmeans.update",
                    "krkmeans.warm_start",
                    "assign.pass",
                ];
                if prune == PruneMode::On {
                    expect.push("assign.dists_skipped");
                }
                assert_valid_trace(&snapshot, &expect);
                assert!(
                    !snapshot.span_durations("krkmeans.lloyd").is_empty(),
                    "{ctx}: lloyd span never closed"
                );
            }
        }
    }
}

#[test]
fn kmeans_fit_is_bitwise_invisible() {
    let ds = kr_datasets::synthetic::blobs(240, 8, 6, 0.6, 77);
    for workers in WORKERS {
        let fit = || {
            KMeans::new(6)
                .with_seed(2)
                .with_n_init(3)
                .with_exec(exec_with(workers, KernelMode::Simd, PruneMode::On))
                .fit(&ds.data)
                .unwrap()
        };
        let silent = fit();
        let recorder = obs::Recorder::install_virtual();
        let recorded = fit();
        let snapshot = recorder.snapshot();
        drop(recorder);
        assert_eq!(silent.labels, recorded.labels, "workers={workers}");
        assert_eq!(silent.centroids, recorded.centroids, "workers={workers}");
        assert_eq!(silent.inertia.to_bits(), recorded.inertia.to_bits());
        assert_valid_trace(&snapshot, &["kmeans.seed", "kmeans.lloyd", "assign.pass"]);
    }
}

/// A 12-batch mini-batch run: summaries (the SuffStats-derived weighted
/// coreset) and per-batch inertia telemetry must carry identical bits,
/// and the trace must hold one `stream.batch` span per batch.
#[test]
fn minibatch_stream_is_bitwise_invisible() {
    let ds = kr_datasets::synthetic::blobs(600, 6, 10, 0.8, 55);
    let run = |workers: usize| {
        let mut s = MiniBatchKrKMeans::new(vec![5, 2])
            .with_seed(11)
            .with_exec(exec_with(workers, KernelMode::Simd, PruneMode::On));
        for b in 0..12 {
            let batch = ds
                .data
                .select_rows(&((b * 50)..(b * 50 + 50)).collect::<Vec<_>>());
            s.observe(&batch).unwrap();
        }
        let summary = s.summary().unwrap();
        let model = s.finalize().unwrap();
        (summary, model)
    };
    for workers in WORKERS {
        let (sum_a, model_a) = run(workers);

        // Recorded run, inlined: rings are bounded, and which thread a
        // pool chunk (and its events) lands on is scheduling-dependent.
        // At high worker counts the caller's own ring can fill with
        // chunk/assign events before the observe phase ends, silently
        // dropping the later batch telemetry. A snapshot is a drain —
        // take one after every observe and merge them, so each drain
        // window stays far below ring capacity and the merged trace
        // provably lost nothing.
        let recorder = obs::Recorder::install_virtual();
        let mut s = MiniBatchKrKMeans::new(vec![5, 2])
            .with_seed(11)
            .with_exec(exec_with(workers, KernelMode::Simd, PruneMode::On));
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for b in 0..12 {
            let batch = ds
                .data
                .select_rows(&((b * 50)..(b * 50 + 50)).collect::<Vec<_>>());
            s.observe(&batch).unwrap();
            let part = recorder.snapshot();
            dropped += part.dropped;
            events.extend(part.events);
        }
        let snapshot = obs::Snapshot { events, dropped };
        let sum_b = s.summary().unwrap();
        let model_b = s.finalize().unwrap();
        drop(recorder);
        assert_eq!(snapshot.dropped, 0, "workers={workers}: drains overflowed");

        assert_eq!(
            sum_a.points, sum_b.points,
            "workers={workers}: summary points"
        );
        let wa: Vec<u64> = sum_a.weights.iter().map(|w| w.to_bits()).collect();
        let wb: Vec<u64> = sum_b.weights.iter().map(|w| w.to_bits()).collect();
        assert_eq!(wa, wb, "workers={workers}: summary weights");
        assert_eq!(model_a.n_observed, model_b.n_observed);
        let ia: Vec<u64> = model_a.batch_inertia.iter().map(|v| v.to_bits()).collect();
        let ib: Vec<u64> = model_b.batch_inertia.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ia, ib, "workers={workers}: batch inertia bits");

        assert_valid_trace(
            &snapshot,
            &[
                "stream.batch",
                "stream.assign",
                "stream.batch_rows",
                "stream.batch_inertia",
            ],
        );
        assert_eq!(
            snapshot.span_durations("stream.batch").len(),
            12,
            "one span per batch"
        );
        assert_eq!(snapshot.span_durations("stream.assign").len(), 12);
        assert_eq!(snapshot.counter_total("stream.batch_rows"), 600);
        // The recorded inertia gauges are the model's own telemetry.
        let gauges: Vec<u64> = snapshot
            .gauge_values("stream.batch_inertia")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(gauges, ia, "workers={workers}: gauge bits == model bits");
    }
}

#[test]
fn coreset_tree_is_bitwise_invisible() {
    let ds = kr_datasets::synthetic::blobs(600, 5, 8, 0.7, 99);
    let run = || {
        let mut tree = CoresetTree::new(8, 160).with_seed(7).with_leaf_size(64);
        for b in 0..12 {
            let batch = ds
                .data
                .select_rows(&((b * 50)..(b * 50 + 50)).collect::<Vec<_>>());
            tree.observe(&batch).unwrap();
        }
        tree.summary().unwrap()
    };
    let silent = run();
    let recorder = obs::Recorder::install_virtual();
    let recorded = run();
    let snapshot = recorder.snapshot();
    drop(recorder);
    assert_eq!(silent.points, recorded.points, "coreset points");
    let wa: Vec<u64> = silent.weights.iter().map(|w| w.to_bits()).collect();
    let wb: Vec<u64> = recorded.weights.iter().map(|w| w.to_bits()).collect();
    assert_eq!(wa, wb, "coreset weights");
    assert_valid_trace(
        &snapshot,
        &["stream.batch", "stream.compressions", "stream.ladder_depth"],
    );
    assert!(snapshot.counter_total("stream.compressions") > 0);
}

/// A faulted quorum run: seeded drops against 5 shards, quorum 1. Wire
/// totals (stale frames included), per-round history, and centroids
/// must be bitwise recorder-invariant, and the trace must classify the
/// failures.
#[test]
fn faulted_quorum_federated_round_is_bitwise_invisible() {
    let (ds, _, _) = kr_structured(3, 2, 40, 0.3, StructureKind::Additive, 61);
    let n = ds.data.nrows();
    let client_of: Vec<usize> = (0..n).map(|i| i % 5).collect();
    let shards = kr_federated::shard_by_assignment(&ds.data, &client_of, 5);
    let run = |workers: usize| {
        let exec = exec_with(workers, KernelMode::Simd, PruneMode::Off);
        let plan = Arc::new(FaultPlan::seeded_drops(41, 5, 6, 0.3));
        let server = FederatedServer::new(
            Algo::KrFkm {
                hs: vec![3, 2],
                aggregator: Aggregator::Sum,
            },
            6,
            3,
        )
        .with_resilience(Resilience {
            quorum: Some(1),
            ..Resilience::default()
        });
        server
            .drive(
                faults::wrap(
                    &plan,
                    kr_federated::transport::local::connect_shards(&shards, &exec),
                ),
                &exec,
            )
            .unwrap()
    };
    for workers in WORKERS {
        let silent = run(workers);
        let recorder = obs::Recorder::install_virtual();
        let recorded = run(workers);
        let snapshot = recorder.snapshot();
        drop(recorder);

        assert_eq!(silent.centroids, recorded.centroids, "workers={workers}");
        assert_eq!(silent.wire, recorded.wire, "workers={workers}: wire totals");
        assert_eq!(
            silent.history.len(),
            recorded.history.len(),
            "workers={workers}"
        );
        for (a, b) in silent.history.iter().zip(recorded.history.iter()) {
            assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
            assert_eq!(a.reporters, b.reporters);
            assert_eq!(a.failures, b.failures);
            assert_eq!(
                (a.downlink_bytes, a.uplink_bytes),
                (b.downlink_bytes, b.uplink_bytes)
            );
        }

        assert_valid_trace(
            &snapshot,
            &["fed.round", "fed.frames_up", "fed.fail_timeout"],
        );
        // The seeded plan drops frames, so the trace must classify
        // failures, and the counter totals must equal the run's own
        // failure bookkeeping.
        let failures: u64 = recorded
            .history
            .iter()
            .map(|r| r.failures.len() as u64)
            .sum();
        let classified = snapshot.counter_total("fed.fail_timeout")
            + snapshot.counter_total("fed.fail_corrupt")
            + snapshot.counter_total("fed.fail_disconnected");
        assert_eq!(classified, failures, "workers={workers}: failure counts");
        assert_eq!(
            snapshot.counter_total("fed.frames_stale") as usize,
            recorded.wire.frames_stale,
            "workers={workers}: stale frames"
        );
    }
}

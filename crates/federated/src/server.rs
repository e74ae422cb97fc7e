//! The federated server: drives bootstrap, rounds, and evaluation over
//! any set of [`Connection`]s.
//!
//! [`FederatedServer::drive`] is the single entry point behind both the
//! in-process [`FkM::run_with`](crate::FkM::run_with) /
//! [`KrFkM::run_with`](crate::KrFkM::run_with) drivers (local
//! transport) and a genuinely distributed run (TCP transport): it never
//! looks at raw data, only at protocol replies. Determinism contract:
//! connections are re-ordered by the client id each [`Join`] declares,
//! every merge (sufficient
//! statistics, inertia partials, seeding masses) happens in ascending
//! client order, and per-client computation is thread-invariant — so
//! the result is bitwise identical across transports and pool sizes.
//!
//! A round folds each reply into the round's aggregate as it arrives,
//! in ascending client order ([`fold_connections`]): a reply that
//! arrives ahead of a lower id waits for it (on a serial exec none
//! does), masked replies are unmasked first, and only the inertia
//! partials outlive the fold. A reply whose layout disagrees with the
//! broadcast ([`Summary::sum_rows`] sum rows of width `m`, `k` counts)
//! is a corrupt client, not a merge error. The server's round memory is
//! therefore one aggregate of the reply layout — `(Σ h_l)·m + k` words
//! under Sum KR-FkM, `k·m + k` otherwise — not one such block per
//! client; the evaluation exchange keeps no statistics at all.
//!
//! Byte accounting follows the paper's Figure 10: the per-round
//! [`RoundStats`] counters accumulate the *measured*
//! summary-statistic bytes of the actual broadcast and upload frames
//! ([`FrameInfo::stat_bytes`](crate::wire::FrameInfo)), which equal the
//! closed forms, per client per round: `k·m·8` down for FkM and
//! `(Σ h_l)·m·8` for KR-FkM; `(k·m + k)·8` up for FkM and Product
//! KR-FkM, `((Σ h_l)·m + k)·8` for Sum KR-FkM, whose clients send each
//! protocentroid's marginal sum instead of every cell's. The
//! bootstrap exchanges carry no summary statistics (identical
//! bookkeeping for both algorithms, hence uncounted, like the paper)
//! and the trailing evaluation broadcast is deliberately excluded —
//! evaluation is not part of the protocol's communication cost. Full
//! frame traffic, overhead included, is reported in [`WireTotals`].

use crate::mask;
use crate::protocol::{Broadcast, Join, LocalStats, MaskSpec, Msg, RoundAck, Summary};
use crate::transport::{
    classify, fold_connections, for_each_connection, recv_expected, Connection, FailureKind,
};
use crate::wire::FrameInfo;
use crate::{FederatedModel, RoundStats};
use kr_core::aggregator::Aggregator;
use kr_core::kr_kmeans::anchor_to_mean;
use kr_core::operator::checked_grid_size;
use kr_core::stats::SuffStats;
use kr_core::{CoreError, Result};
use kr_linalg::{ops, ExecCtx, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Which federated algorithm the server runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Algo {
    /// Federated k-Means: broadcast `k` free centroids.
    Fkm {
        /// Number of centroids.
        k: usize,
    },
    /// Federated Khatri-Rao k-Means: broadcast protocentroid sets.
    KrFkm {
        /// Protocentroid set sizes.
        hs: Vec<usize>,
        /// Elementwise aggregator.
        aggregator: Aggregator,
    },
}

/// Total measured frame traffic of a run, framing overhead included
/// (the per-round [`RoundStats`] counters hold only
/// the accounted summary-statistic bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTotals {
    /// Frames the server sent.
    pub frames_down: usize,
    /// Frames the server received and consumed.
    pub frames_up: usize,
    /// Late frames for already-closed rounds, received and discarded
    /// (their bytes still count toward `frame_bytes_up` — they did
    /// travel).
    pub frames_stale: usize,
    /// Bytes the server sent (length prefixes included).
    pub frame_bytes_down: usize,
    /// Bytes the server received (length prefixes included).
    pub frame_bytes_up: usize,
}

/// Every frame of a run is counted once, by one of these methods, which
/// also adds it to the `fed.*` counter of its field, so a trace's wire
/// counters equal the model's totals.
impl WireTotals {
    fn down(&mut self, info: &FrameInfo) {
        self.frames_down += 1;
        self.frame_bytes_down += info.frame_bytes;
        kr_obs::counter!("fed.frames_down", 1);
        kr_obs::counter!("fed.frame_bytes_down", info.frame_bytes);
    }

    fn up(&mut self, info: &FrameInfo) {
        self.frames_up += 1;
        self.frame_bytes_up += info.frame_bytes;
        kr_obs::counter!("fed.frames_up", 1);
        kr_obs::counter!("fed.frame_bytes_up", info.frame_bytes);
    }

    /// `frames` late frames, `bytes` in all, discarded in round `round`.
    fn stale(&mut self, frames: usize, bytes: usize, round: u32) {
        if frames == 0 {
            return;
        }
        self.frames_stale += frames;
        self.frame_bytes_up += bytes;
        kr_obs::counter!("fed.frames_stale", frames, "round" => round);
        kr_obs::counter!("fed.frame_bytes_up", bytes);
    }
}

/// Fault-tolerance and privacy knobs for a federated run. The default
/// is the strict legacy contract: every client must answer every round,
/// deadlines are the transport's defaults, and uploads are plaintext.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Resilience {
    /// Minimum number of clients that must report for a round to
    /// proceed. `None` is strict mode: any per-round failure aborts the
    /// run (the pre-resilience behavior). With `Some(q)`, a round
    /// proceeds over its survivors — the ascending-client-order merge
    /// simply skips the missing shards, which renormalizes the mean /
    /// Proposition 6.1 updates over the reporters — and the run only
    /// errors when fewer than `q` clients report.
    pub quorum: Option<usize>,
    /// Per-round read deadline armed on every connection before each
    /// exchange ([`Connection::set_deadline`]); `None` keeps the
    /// backend default. Expiries classify as
    /// [`FailureKind::Timeout`].
    pub round_deadline: Option<Duration>,
    /// When set, every broadcast carries a [`MaskSpec`] over the
    /// round's active members and clients reply with pairwise-masked
    /// uploads ([`crate::mask`]). The server unmasks each reporter
    /// exactly, so results are bitwise identical to an unmasked run.
    pub mask_seed: Option<u64>,
}

/// A protocol server for one federated run.
#[derive(Debug, Clone)]
pub struct FederatedServer {
    /// The algorithm to run.
    pub algo: Algo,
    /// Number of communication rounds.
    pub rounds: usize,
    /// RNG seed driving the bootstrap.
    pub seed: u64,
    /// Fault-tolerance / masking configuration.
    pub resilience: Resilience,
}

impl FederatedServer {
    /// A server with the strict default [`Resilience`] (every client
    /// answers every round, plaintext uploads).
    pub fn new(algo: Algo, rounds: usize, seed: u64) -> Self {
        FederatedServer {
            algo,
            rounds,
            seed,
            resilience: Resilience::default(),
        }
    }

    /// Replaces the resilience configuration (builder style).
    pub fn with_resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = resilience;
        self
    }
}

impl FederatedServer {
    /// Drives the full protocol — registration, bootstrap seeding,
    /// `rounds` accounted rounds, one evaluation exchange, shutdown —
    /// over the given connections, servicing them with `exec`'s pool.
    pub fn drive<C: Connection>(&self, conns: Vec<C>, exec: &ExecCtx) -> Result<FederatedModel> {
        if conns.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        match &self.algo {
            Algo::Fkm { k } => {
                if *k == 0 {
                    return Err(CoreError::InvalidConfig("k must be >= 1".into()));
                }
            }
            Algo::KrFkm { hs, .. } => {
                checked_grid_size(hs)?;
            }
        }
        let mut driver = Driver::register(conns, exec, self.resilience.round_deadline)?;
        let mut rng = StdRng::seed_from_u64(self.seed);

        // ---- Bootstrap (uncounted; identical bookkeeping for both
        // algorithms, matching the paper's accounting).
        let mut state = match &self.algo {
            Algo::Fkm { k } => Summary::Centroids(driver.dsq_sample(*k, &mut rng)?),
            Algo::KrFkm { hs, aggregator } => {
                // Anchored kr++-style initialization: D²-spread client
                // points per set; sets beyond the first are converted to
                // deviations from the global mean so the initial
                // aggregations sit on the data manifold.
                let mean = driver.global_mean()?;
                let mut sets: Vec<Matrix> = Vec::with_capacity(hs.len());
                for (l, &h) in hs.iter().enumerate() {
                    let mut set = driver.dsq_sample(h, &mut rng)?;
                    if l > 0 {
                        anchor_to_mean(&mut set, &mean, *aggregator);
                    }
                    sets.push(set);
                }
                Summary::ProtoSets {
                    aggregator: *aggregator,
                    sets,
                }
            }
        };

        // ---- Accounted rounds, pipelined: round 0 opens with a
        // standalone broadcast; every later round's broadcast rides on
        // the previous round's ack (one server→client frame and one
        // reply per round — half the exchanges of the ack-then-broadcast
        // scheme). Clients that failed the previous round instead get a
        // standalone *catch-up* broadcast — the server won't ack a
        // contribution it never merged — which re-admits them into the
        // new round. A round's inertia is the inertia of the *updated*
        // model, which clients report while assigning against the next
        // round's broadcast — so each entry is finalized one exchange
        // later (the last by the evaluation exchange below).
        let m = driver.m;
        let quorum = self.resilience.quorum;
        let mut history: Vec<RoundStats> = Vec::with_capacity(self.rounds);
        let (mut down, mut up) = (0usize, 0usize);
        for round in 0..self.rounds {
            let broadcast =
                driver.make_broadcast(round as u32, false, &state, self.resilience.mask_seed);
            let ack_round = if round == 0 {
                None
            } else {
                Some(round as u32 - 1)
            };
            // The exchange merges the round's reporters into `agg` in
            // ascending client order: absent shards contribute nothing,
            // so the mean / Proposition 6.1 updates renormalize over the
            // survivors.
            let mut agg = SuffStats {
                sums: Matrix::zeros(state.sum_rows(), m),
                counts: vec![0; state.grid_size()],
            };
            let outcome = driver.round_exchange(broadcast, ack_round, quorum, Some(&mut agg))?;
            down += outcome.stat_down;
            up += outcome.stat_up;
            if round > 0 {
                history[round - 1].inertia = outcome.sum_inertia();
            }
            state.apply_stats(&agg);
            history.push(RoundStats {
                round,
                downlink_bytes: down,
                uplink_bytes: up,
                inertia: f64::INFINITY, // finalized by the next exchange
                reporters: outcome.reporters,
                failures: outcome.failures,
            });
        }

        // ---- Evaluation exchange (uncounted): inertia of the final
        // model, assembled from client-reported partials, pipelined onto
        // the last accounted round's ack.
        if self.rounds > 0 {
            let eval =
                driver.make_broadcast(self.rounds as u32, true, &state, self.resilience.mask_seed);
            let outcome =
                driver.round_exchange(eval, Some(self.rounds as u32 - 1), quorum, None)?;
            history[self.rounds - 1].inertia = outcome.sum_inertia();
        }
        driver.broadcast_ack(self.rounds as u32, true)?;

        Ok(FederatedModel {
            centroids: state.materialize().expect("server-validated sets"),
            history,
            wire: driver.wire,
        })
    }
}

/// What one connection contributed to a round exchange, handed to the
/// ordered fold in [`Driver::round_exchange`].
struct ConnReport {
    /// The broadcast frame sent to this client, if it is still active.
    down: Option<FrameInfo>,
    /// Late frames for already-closed rounds, received and discarded.
    stale_frames: usize,
    stale_bytes: usize,
    result: ConnResult,
}

enum ConnResult {
    /// The connection is inactive (disconnected in an earlier round);
    /// nothing was sent or expected.
    Skipped,
    /// The client reported this round's statistics (already unmasked).
    Reported { stats: LocalStats, up: FrameInfo },
    /// The client failed the round. The kind drives recovery; the
    /// original error is preserved for strict-mode propagation.
    Failed(FailureKind, CoreError),
}

/// One tolerant round exchange, folded over all connections in
/// ascending client order. The statistics themselves went into the
/// caller's aggregate as each reply was folded; only the inertia
/// partials stay.
struct RoundOutcome {
    /// Reporters' inertia partials, in ascending client order.
    inertias: Vec<f64>,
    stat_down: usize,
    stat_up: usize,
    reporters: usize,
    failures: Vec<(u32, FailureKind)>,
}

impl RoundOutcome {
    /// Sums reporter inertia partials in ascending client order.
    fn sum_inertia(&self) -> f64 {
        self.inertias.iter().copied().sum()
    }
}

/// Registered connections plus the run's wire-measurement state.
struct Driver<'e, C: Connection> {
    conns: Vec<C>,
    joins: Vec<Join>,
    exec: &'e ExecCtx,
    wire: WireTotals,
    m: usize,
    /// Per-connection liveness: `false` once a shard's channel closed
    /// (it left the federation for the rest of the run).
    active: Vec<bool>,
    /// Whether the client failed the previous round. A missed client's
    /// contribution was never merged, so the next round re-admits it
    /// with a standalone catch-up broadcast instead of a pipelined ack.
    missed: Vec<bool>,
    /// Per-round read deadline armed before each exchange.
    deadline: Option<Duration>,
}

impl<'e, C: Connection> Driver<'e, C> {
    /// Collects every client's [`Join`], re-orders connections by
    /// client id, and validates the federation like the centralized
    /// `check_clients` did: some data must exist, non-empty shards must
    /// agree on the feature dimension, and every shard must be finite.
    ///
    /// Registration is *tolerant of absence*: a connection that closes
    /// before sending its `Join` is dropped on the floor, before any
    /// seeding RNG is consumed — so a run whose clients never show up is
    /// bitwise identical to a clean run over the survivors.
    fn register(mut conns: Vec<C>, exec: &'e ExecCtx, deadline: Option<Duration>) -> Result<Self> {
        let mut wire = WireTotals::default();
        let joins = for_each_connection(exec, &mut conns, |_, conn| match conn.recv()? {
            Some((Msg::Join(join), info)) => Ok(Some((join, info))),
            Some((other, _)) => Err(protocol_err("Join", &other)),
            None => Ok(None),
        })?;
        let mut pairs: Vec<(Join, C)> = joins
            .into_iter()
            .zip(conns)
            .filter_map(|(slot, conn)| {
                let (join, info) = slot?;
                wire.up(&info);
                Some((join, conn))
            })
            .collect();
        pairs.sort_by_key(|(join, _)| join.client_id);
        if pairs
            .windows(2)
            .any(|w| w[0].0.client_id == w[1].0.client_id)
        {
            return Err(CoreError::Transport("duplicate client ids".into()));
        }
        let (joins, conns): (Vec<Join>, Vec<C>) = pairs.into_iter().unzip();
        if joins.iter().all(|j| j.nrows == 0) {
            return Err(CoreError::EmptyInput);
        }
        let m = joins
            .iter()
            .find(|j| j.nrows > 0)
            .map(|j| j.ncols as usize)
            .expect("non-empty");
        for j in &joins {
            if j.nrows > 0 && j.ncols as usize != m {
                return Err(CoreError::InvalidConfig("client dimension mismatch".into()));
            }
            if !j.finite {
                return Err(CoreError::NonFiniteInput);
            }
        }
        let n = joins.len();
        Ok(Driver {
            conns,
            joins,
            exec,
            wire,
            m,
            active: vec![true; n],
            missed: vec![false; n],
            deadline,
        })
    }

    /// Sends `msg` to every client and collects one parsed reply each,
    /// in client order. Returns the summed measured stat bytes of the
    /// downlink and uplink frames.
    fn exchange<T, P>(&mut self, msg: &Msg, parse: P) -> Result<(Vec<T>, usize, usize)>
    where
        T: Send,
        P: Fn(Msg) -> Result<T> + Sync,
    {
        let results = for_each_connection(self.exec, &mut self.conns, |_, conn| {
            let info_down = conn.send(msg)?;
            let (reply, info_up) = recv_expected(conn)?;
            Ok((parse(reply)?, info_down, info_up))
        })?;
        let (mut stat_down, mut stat_up) = (0usize, 0usize);
        let mut out = Vec::with_capacity(results.len());
        for (value, info_down, info_up) in results {
            self.wire.down(&info_down);
            self.wire.up(&info_up);
            stat_down += info_down.stat_bytes;
            stat_up += info_up.stat_bytes;
            out.push(value);
        }
        Ok((out, stat_down, stat_up))
    }

    /// Sends `msg` to every still-active client without expecting
    /// replies (shards that left the federation get nothing).
    fn broadcast_only(&mut self, msg: &Msg) -> Result<()> {
        let active = &self.active;
        let infos = for_each_connection(self.exec, &mut self.conns, |i, conn| {
            if active[i] {
                conn.send(msg).map(Some)
            } else {
                Ok(None)
            }
        })?;
        for info in infos.into_iter().flatten() {
            self.wire.down(&info);
        }
        Ok(())
    }

    /// The round's broadcast: the current summary, plus a [`MaskSpec`]
    /// over the active membership when masking is enabled. Clients and
    /// server both derive pair masks from this one value, so the member
    /// lists they use can never disagree.
    fn make_broadcast(
        &self,
        round: u32,
        eval_only: bool,
        state: &Summary,
        mask_seed: Option<u64>,
    ) -> Broadcast {
        let mask = mask_seed.map(|seed| MaskSpec {
            seed,
            members: self
                .joins
                .iter()
                .zip(&self.active)
                .filter(|&(_, &active)| active)
                .map(|(j, _)| j.client_id)
                .collect(),
        });
        Broadcast {
            round,
            eval_only,
            mask,
            summary: state.clone(),
        }
    }

    /// One tolerant round exchange: sends each active shard its downlink
    /// frame (pipelined ack, or a standalone catch-up broadcast if it
    /// missed the previous round), collects and validates the replies,
    /// discards stale frames for closed rounds, unmasks masked uploads,
    /// and applies the strict/quorum failure policy.
    ///
    /// Each worker checks its reply's layout against the broadcast
    /// ([`check_layout`]) and classifies a mismatch as
    /// [`FailureKind::Corrupt`], so every reply that reaches the fold
    /// merges. Replies are folded in ascending client order as they
    /// arrive: each reporter's statistics are merged into `agg` (the
    /// eval-only exchange passes `None` and keeps none) and dropped, so
    /// the round holds one aggregate plus only the replies that arrive
    /// ahead of a lower id (none on a serial exec), instead of one block
    /// per client.
    fn round_exchange(
        &mut self,
        next: Broadcast,
        ack_round: Option<u32>,
        quorum: Option<usize>,
        mut agg: Option<&mut SuffStats>,
    ) -> Result<RoundOutcome> {
        let round = next.round;
        let eval_only = next.eval_only;
        let deadline = self.deadline;
        let _round_span = kr_obs::span!("fed.round", "round" => round);
        // Each connection's downlink, decided up front and built by its
        // worker: inactive shards get nothing; shards that reported the
        // previous round get the pipelined ack (`Some(Some(ack))`);
        // shards that missed it (and everyone in round 0) get a
        // standalone catch-up broadcast — the server won't ack a
        // contribution it never merged.
        let plans: Vec<Option<Option<u32>>> = (0..self.conns.len())
            .map(|i| self.active[i].then_some(ack_round.filter(|_| !self.missed[i])))
            .collect();
        let mask = &next.mask;
        let ids: Vec<u32> = self.joins.iter().map(|j| j.client_id).collect();
        let mut outcome = RoundOutcome {
            inertias: Vec::with_capacity(self.conns.len()),
            stat_down: 0,
            stat_up: 0,
            reporters: 0,
            failures: Vec::new(),
        };
        let mut first_err: Option<CoreError> = None;
        let layout = (next.summary.sum_rows(), self.m, next.summary.grid_size());
        let exec = self.exec;
        let (wire, active, missed) = (&mut self.wire, &mut self.active, &mut self.missed);
        let worker = |i: usize, conn: &mut C| {
            let mut report = ConnReport {
                down: None,
                stale_frames: 0,
                stale_bytes: 0,
                result: ConnResult::Skipped,
            };
            let Some(plan) = plans[i] else {
                return report;
            };
            if let Err(e) = conn.set_deadline(deadline) {
                report.result = ConnResult::Failed(classify(&e), e);
                return report;
            }
            let sent = conn.send(&match plan {
                Some(ack) => Msg::RoundAck(RoundAck {
                    round: ack,
                    done: false,
                    next: Some(next.clone()),
                }),
                None => Msg::Broadcast(next.clone()),
            });
            match sent {
                Ok(info) => report.down = Some(info),
                Err(e) => {
                    report.result = ConnResult::Failed(classify(&e), e);
                    return report;
                }
            }
            report.result = loop {
                match conn.recv() {
                    Err(e) => break ConnResult::Failed(classify(&e), e),
                    Ok(None) => {
                        break ConnResult::Failed(
                            FailureKind::Disconnected,
                            CoreError::Transport("client closed the connection mid-round".into()),
                        )
                    }
                    Ok(Some((reply, info))) => {
                        // A late reply for an already-closed round is
                        // received, counted, and discarded; the loop
                        // keeps reading for the current round's frame.
                        let reply_round = match &reply {
                            Msg::LocalStats(s) => Some(s.round),
                            Msg::MaskedStats(s) => Some(s.round),
                            _ => None,
                        };
                        if matches!(reply_round, Some(r) if r < round) {
                            report.stale_frames += 1;
                            report.stale_bytes += info.frame_bytes;
                            continue;
                        }
                        let stats = match (reply, mask) {
                            (Msg::LocalStats(stats), None) if stats.round == round => Ok(stats),
                            (Msg::MaskedStats(masked), Some(spec)) if masked.round == round => {
                                mask::unmask_stats(&masked, spec, ids[i])
                            }
                            (other, _) => {
                                let expected = if mask.is_some() {
                                    "MaskedStats"
                                } else {
                                    "LocalStats"
                                };
                                Err(protocol_err(expected, &other))
                            }
                        };
                        break match stats.and_then(|s| check_layout(s, layout)) {
                            Ok(stats) => ConnResult::Reported { stats, up: info },
                            Err(e) => ConnResult::Failed(FailureKind::Corrupt, e),
                        };
                    }
                }
            };
            report
        };
        // Fold in ascending client order: wire accounting, failure
        // bookkeeping, and the reporters' statistics.
        let fold = |i: usize, report: ConnReport| {
            wire.stale(report.stale_frames, report.stale_bytes, round);
            if let Some(info) = report.down {
                wire.down(&info);
                if !eval_only {
                    outcome.stat_down += info.stat_bytes;
                }
            }
            match report.result {
                ConnResult::Skipped => {}
                ConnResult::Reported { stats, up } => {
                    wire.up(&up);
                    if !eval_only {
                        outcome.stat_up += up.stat_bytes;
                    }
                    missed[i] = false;
                    outcome.reporters += 1;
                    outcome.inertias.push(stats.inertia);
                    if let Some(agg) = agg.as_deref_mut() {
                        agg.merge(&stats.stats)
                            .expect("the worker checked the reply's layout");
                    }
                }
                ConnResult::Failed(kind, err) => {
                    match kind {
                        FailureKind::Timeout => {
                            kr_obs::counter!("fed.fail_timeout", 1, "round" => round)
                        }
                        FailureKind::Corrupt => {
                            kr_obs::counter!("fed.fail_corrupt", 1, "round" => round)
                        }
                        FailureKind::Disconnected => {
                            kr_obs::counter!("fed.fail_disconnected", 1, "round" => round)
                        }
                    }
                    if kind == FailureKind::Disconnected {
                        active[i] = false;
                    }
                    missed[i] = true;
                    outcome.failures.push((ids[i], kind));
                    first_err.get_or_insert(err);
                }
            }
        };
        fold_connections(exec, &mut self.conns, worker, fold);
        match quorum {
            // Strict legacy contract: any failure aborts the run with
            // the first failing client's original error.
            None => {
                if let Some(err) = first_err {
                    return Err(err);
                }
            }
            // Quorum mode: proceed over the survivors as long as enough
            // of them reported (at least one — an empty round has no
            // statistics to update from).
            Some(q) => {
                let need = q.max(1);
                if outcome.reporters < need {
                    return Err(CoreError::Transport(format!(
                        "round {round} fell below quorum: {} of {} shards reported, need {need}",
                        outcome.reporters,
                        self.conns.len(),
                    )));
                }
            }
        }
        Ok(outcome)
    }

    /// Closes a round (or, with `done`, the whole protocol) with a bare,
    /// non-pipelined ack.
    fn broadcast_ack(&mut self, round: u32, done: bool) -> Result<()> {
        self.broadcast_only(&Msg::RoundAck(RoundAck {
            round,
            done,
            next: None,
        }))
    }

    /// One request/reply with a single client (seeding point fetches).
    fn ask<T>(&mut self, ci: usize, msg: &Msg, parse: impl Fn(Msg) -> Result<T>) -> Result<T> {
        let conn = &mut self.conns[ci];
        let info_down = conn.send(msg)?;
        let (reply, info_up) = recv_expected(conn)?;
        self.wire.down(&info_down);
        self.wire.up(&info_up);
        parse(reply)
    }

    /// Fetches one raw point from client `ci` (a chosen seed).
    fn fetch_point(&mut self, ci: usize, index: usize) -> Result<Vec<f64>> {
        let m = self.m;
        self.ask(
            ci,
            &Msg::FetchPoint {
                index: index as u64,
            },
            |reply| match reply {
                Msg::Point { row } if row.len() == m => Ok(row),
                Msg::Point { row } => Err(CoreError::Transport(format!(
                    "seed point has {} features, expected {m}",
                    row.len()
                ))),
                other => Err(protocol_err("Point", &other)),
            },
        )
    }

    /// The first point of the first non-empty shard — the fallback when
    /// a proportional draw walks off the end (all-zero masses or
    /// floating-point rounding).
    fn fallback_first_point(&mut self) -> Result<Vec<f64>> {
        let ci = self
            .joins
            .iter()
            .position(|j| j.nrows > 0)
            .expect("validated: some shard is non-empty");
        self.fetch_point(ci, 0)
    }

    /// D²-weighted (k-means++-style) seeding across shards: clients
    /// keep per-point squared distances to the chosen seeds and report
    /// their masses; the server draws the next seed proportionally and
    /// resolves the draw inside the owning shard.
    fn dsq_sample(&mut self, count: usize, rng: &mut StdRng) -> Result<Matrix> {
        let total: usize = self.joins.iter().map(|j| j.nrows as usize).sum();
        if total < count {
            return Err(CoreError::TooFewPoints {
                available: total,
                required: count,
            });
        }
        let mut seeds = Matrix::zeros(count, self.m);
        if count == 0 {
            return Ok(seeds);
        }
        // First seed: uniform over the federation.
        let mut pick = rng.gen_range(0..total);
        let mut first_ci = 0usize;
        for (ci, j) in self.joins.iter().enumerate() {
            if pick < j.nrows as usize {
                first_ci = ci;
                break;
            }
            pick -= j.nrows as usize;
        }
        let row = self.fetch_point(first_ci, pick)?;
        seeds.row_mut(0).copy_from_slice(&row);
        let parse_mass = |reply: Msg| match reply {
            Msg::SeedMass { mass } => Ok(mass),
            other => Err(protocol_err("SeedMass", &other)),
        };
        let (mut masses, _, _) = self.exchange(&Msg::SeedInit { row }, parse_mass)?;
        for s in 1..count {
            let grand: f64 = masses.iter().sum();
            let row = if grand > 0.0 {
                let mut target = rng.gen_range(0.0..grand);
                let mut chosen: Option<Vec<f64>> = None;
                let owner = masses.iter().position(|&mass| {
                    if target < mass {
                        true
                    } else {
                        target -= mass;
                        false
                    }
                });
                if let Some(ci) = owner {
                    let (row, found) =
                        self.ask(ci, &Msg::SeedSelect { target }, |reply| match reply {
                            Msg::SeedPick { row, found } => Ok((row, found)),
                            other => Err(protocol_err("SeedPick", &other)),
                        })?;
                    if found {
                        if row.len() != self.m {
                            return Err(CoreError::Transport(format!(
                                "seed pick has {} features, expected {}",
                                row.len(),
                                self.m
                            )));
                        }
                        chosen = Some(row);
                    }
                }
                match chosen {
                    Some(row) => row,
                    None => self.fallback_first_point()?,
                }
            } else {
                self.fallback_first_point()?
            };
            seeds.row_mut(s).copy_from_slice(&row);
            if s + 1 < count {
                // The last pick needs no D² refresh: the state is reset
                // by the next sampling pass's SeedInit.
                let (next, _, _) = self.exchange(&Msg::SeedUpdate { row }, parse_mass)?;
                masses = next;
            }
        }
        Ok(seeds)
    }

    /// Global feature mean from per-client sums/counts, merged in
    /// client order.
    fn global_mean(&mut self) -> Result<Vec<f64>> {
        let m = self.m;
        let (partials, _, _) = self.exchange(&Msg::MeanQuery, |reply| match reply {
            Msg::MeanStats { sum, count } => Ok((sum, count)),
            other => Err(protocol_err("MeanStats", &other)),
        })?;
        let mut sum = vec![0.0f64; m];
        let mut n = 0u64;
        for (part, count) in partials {
            if part.len() == m {
                ops::add_assign(&mut sum, &part);
            } else if count != 0 {
                return Err(CoreError::Transport(format!(
                    "mean partial has {} features, expected {m}",
                    part.len()
                )));
            }
            n += count;
        }
        if n > 0 {
            ops::scale_assign(&mut sum, 1.0 / n as f64);
        }
        Ok(sum)
    }
}

/// Passes `stats` if it lays out as the round's broadcast asks — `rows`
/// sum rows of width `m` ([`Summary::sum_rows`]) and `k` counts — and
/// fails with a transport error otherwise.
fn check_layout(stats: LocalStats, (rows, m, k): (usize, usize, usize)) -> Result<LocalStats> {
    let (got_rows, got_m) = stats.stats.sums.shape();
    if (got_rows, got_m, stats.stats.counts.len()) == (rows, m, k) {
        return Ok(stats);
    }
    Err(CoreError::Transport(format!(
        "reply carries {got_rows}x{got_m} sums and {} counts, the broadcast asks for \
         {rows}x{m} and {k}",
        stats.stats.counts.len()
    )))
}

fn protocol_err(expected: &str, got: &Msg) -> CoreError {
    CoreError::Transport(format!("expected {expected}, got {got:?}"))
}
